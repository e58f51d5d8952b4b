"""Operator surface: subcommands, flags, config files, manifests, exit codes."""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sits_ssm import cli
from sits_ssm import checkpoint
from sits_ssm.cli import main
from sits_ssm.data import (MAGIC, SitsDataset, SitsSample, load_dataset, pad_batch,
                            sample_timesteps, save_dataset)
from sits_ssm.model import ModelConfig, SitsClassifier


def gen(out, *extra):
    args = ["gen-data", "--out", str(out), "--seed", "7",
            "--classes", "3", "--channels", "2", "--timesteps", "6",
            "--height", "6", "--width", "6",
            "--train-samples", "6", "--valid-samples", "3", "--test-samples", "3",
            *extra]
    assert main(args) == 0


def checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


SMALL = ["--classes", "3", "--channels", "2", "--hidden", "8", "--d-state", "4",
         "--batch-size", "3"]


class TestGenData:
    def test_same_seed_checksum_identical(self, tmp_path):
        gen(tmp_path / "a")
        gen(tmp_path / "b")
        for split in ("train", "valid", "test"):
            assert checksum(tmp_path / "a" / f"{split}.sits") == \
                   checksum(tmp_path / "b" / f"{split}.sits")

    def test_pastis_shaped_flags(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path), "--seed", "1",
                     "--classes", "20", "--channels", "10", "--timesteps", "8",
                     "--height", "8", "--width", "8", "--train-samples", "2",
                     "--valid-samples", "1", "--test-samples", "1"]) == 0
        ds = load_dataset(tmp_path / "train.sits")
        assert ds[0].series.shape[1] == 10
        assert ds.num_classes <= 20

    def test_mtlcc_shaped_flags(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path), "--seed", "1",
                     "--classes", "18", "--channels", "13", "--timesteps", "36",
                     "--height", "8", "--width", "8", "--mode", "sample30",
                     "--train-samples", "2", "--valid-samples", "1",
                     "--test-samples", "1"]) == 0
        ds = load_dataset(tmp_path / "train.sits")
        assert ds[0].series.shape == (36, 13, 8, 8)
        manifest = (tmp_path / "run_manifest.txt").read_text()
        assert "mode=sample30" in manifest

    def test_manifest_echoes_paper_named_settings(self, tmp_path):
        gen(tmp_path)
        manifest = (tmp_path / "run_manifest.txt").read_text()
        for key in ("w0=0.03", "lr=0.0001", "epochs=100", "mode=pad", "seed=7",
                    "batch_size=8", "hidden=128", "d_state=16", "use_pw=True",
                    "use_w1=True", "use_rbranch=True"):
            assert key in manifest


    def test_manifest_describes_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        gen(tmp_path)
        lines = (tmp_path / "run_manifest.txt").read_text().splitlines()
        from sits_ssm import __version__, pool
        for line in (f"sits_ssm_version={__version__}", f"numpy_version={np.__version__}",
                     f"pool_workers={pool.worker_count()}", "OMP_NUM_THREADS=3",
                     "OPENBLAS_NUM_THREADS=unset"):
            assert line in lines


class TestPipeline:
    @pytest.fixture
    def run(self, tmp_path):
        data = tmp_path / "data"
        gen(data)
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data), "--out", str(out),
                   "--seed", "3", "--epochs", "2", "--lr", "0.003", *SMALL])
        assert rc == 0
        return data, out

    def test_train_eval_predict(self, run, tmp_path):
        data, out = run
        assert (out / "best.ckpt").exists() and (out / "final.ckpt").exists()
        assert (out / "train_log.csv").exists()

        ev = tmp_path / "eval"
        rc = main(["eval", "--data", str(data / "test.sits"),
                   "--checkpoint", str(out / "final.ckpt"), "--out", str(ev),
                   "--seed", "3", *SMALL])
        assert rc == 0
        assert (ev / "metrics.csv").exists()

        pr = tmp_path / "pred"
        rc = main(["predict", "--data", str(data / "test.sits"),
                   "--checkpoint", str(out / "final.ckpt"), "--out", str(pr),
                   "--seed", "3", *SMALL])
        assert rc == 0
        pgms = sorted(pr.glob("*.pgm"))
        assert len(pgms) == 3 and (pr / "legend.csv").exists()
        assert pgms[0].read_bytes().startswith(b"P5\n")

    def test_predict_sample30_matches_solo_predictions(self, run, tmp_path):
        data, out = run
        pr = tmp_path / "pred30"
        assert main(["predict", "--data", str(data / "test.sits"), "--mode", "sample30",
                     "--checkpoint", str(out / "final.ckpt"), "--out", str(pr),
                     "--seed", "3", *SMALL]) == 0
        model = SitsClassifier(ModelConfig(input_channels=2, num_classes=3, hidden=8,
                                           d_state=4))
        model.load(out / "final.ckpt")
        test = load_dataset(data / "test.sits")
        for s in test.samples:
            want = model.predict(pad_batch([sample_timesteps(s)]))[0]
            raw = (pr / f"pred_{s.sample_id:05d}.pgm").read_bytes()
            header = f"P5\n{want.shape[1]} {want.shape[0]}\n255\n".encode()
            assert raw == header + want.astype(np.uint8).tobytes()

    def test_w0_zero_equals_no_rbranch(self, tmp_path):
        data = tmp_path / "d"
        gen(data)
        outs = []
        for tag, extra in (("za", ["--w0", "0"]), ("zb", ["--no-rbranch"])):
            out = tmp_path / tag
            assert main(["train", "--data", str(data), "--out", str(out),
                         "--seed", "9", "--epochs", "1", "--lr", "0.003",
                         *SMALL, *extra]) == 0
            outs.append(checksum(out / "final.ckpt"))
        assert outs[0] == outs[1]

    def test_config_file_with_flag_override(self, tmp_path):
        data = tmp_path / "d"
        gen(data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nlr=0.003\nhidden=8\nd_state=4\n"
                       "classes=3\nchannels=2\nbatch_size=3\nseed=1\n# comment\n")
        out = tmp_path / "o"
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--config", str(cfg), "--seed", "4"]) == 0
        manifest = (out / "run_manifest.txt").read_text()
        assert "seed=4" in manifest and "epochs=1" in manifest


    def test_config_file_booleans_and_no_flags(self, tmp_path):
        data = tmp_path / "d"
        gen(data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("use_rbranch=false\n")
        out = tmp_path / "o"
        assert main(["train", "--data", str(data), "--out", str(out), "--config", str(cfg),
                     "--epochs", "1", "--no-pw", *SMALL]) == 0
        manifest = (out / "run_manifest.txt").read_text().splitlines()
        assert "use_rbranch=False" in manifest       # from the file, no flag given
        assert "use_pw=False" in manifest            # from --no-pw
        assert "use_w1=True" in manifest             # default

class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["train", "--nonsense"]) == 1
        assert main(["gen-data"]) == 1            # missing required --out

    def test_classes_beyond_u16_is_1_before_any_io(self, tmp_path, capsys):
        """.sits stores labels as u16, so 70000 classes cannot be written."""
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--classes", "70000",
                     "--channels", "2", "--timesteps", "4", "--height", "4", "--width", "4",
                     "--train-samples", "1", "--valid-samples", "1",
                     "--test-samples", "1"]) == 1
        assert "u16" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.sits"))

    def test_missing_data_is_2(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "o"), *SMALL]) == 2

    def test_missing_checkpoint_is_2(self, tmp_path):
        data = tmp_path / "d"
        gen(data)
        assert main(["eval", "--data", str(data / "test.sits"),
                     "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--out", str(tmp_path / "o"), *SMALL]) == 2

    def test_shape_mismatch_reported_before_compute(self, tmp_path):
        data = tmp_path / "d"
        gen(data)
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                   "--channels", "5", "--classes", "3", "--hidden", "8"])
        assert rc == 2

    def test_non_finite_series_is_2_before_any_io(self, tmp_path, capsys):
        """A NaN in the data is the data's fault: exit 2, not a diverged run's 4."""
        data = tmp_path / "d"
        gen(data)
        ds = load_dataset(data / "train.sits")
        ds.samples[1].series[0, 0, 0, 0] = np.nan
        save_dataset(ds, data / "train.sits")
        out = tmp_path / "o"
        assert main(["train", "--data", str(data), "--out", str(out), *SMALL]) == 2
        assert "sample 1 has a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, cause", [
        ([], "validation after epoch 0"),                 # one step, then validation
        (["--batch-size", "2"], "twice in a row"),        # two train steps in a row
    ], ids=["validation", "two_strikes"])
    def test_diverged_run_is_4(self, tmp_path, extra, cause):
        """lr 1e30 sends the weights to ~1e30 in one step, and the next
        forward overflows: exit 4 with one line on stderr and no
        final.ckpt, also with numpy's warnings as errors."""
        data, out = tmp_path / "d", tmp_path / "o"
        assert main(["gen-data", "--out", str(data), "--classes", "3", "--channels", "2",
                     "--timesteps", "6", "--height", "6", "--width", "6",
                     "--train-samples", "8", "--valid-samples", "8",
                     "--test-samples", "1"]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parent.parent),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "sits_ssm", "train",
             "--data", str(data), "--out", str(out), "--lr", "1e30", "--classes", "3",
             "--channels", "2", "--hidden", "4", "--d-state", "2", *extra],
            env=env, capture_output=True, text=True, timeout=300)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 4, proc.stderr[-2000:]
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert lines[0].startswith("training diverged") and cause in lines[0]
        assert not (out / "final.ckpt").exists()

    def test_bad_config_key_is_1(self, tmp_path):
        data = tmp_path / "d"
        gen(data)
        cfg = tmp_path / "bad.cfg"
        for line in ("not_a_key=1", "expand=2"):   # expand is fixed, not a setting
            cfg.write_text(line + "\n")
            assert main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                         "--config", str(cfg), *SMALL]) == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--d-state", "0"], ["train", "--d-state", "-2"], ["train", "--hidden", "0"],
        ["train", "--batch-size", "0"], ["train", "--epochs", "0"], ["train", "--lr", "-1"],
        ["eval", "--d-state", "0"], ["predict", "--batch-size", "0"],
        ["gen-data", "--timesteps", "2"], ["gen-data", "--train-samples", "0"],
        ["train", "--eval-classes", "7"], ["train", "--eval-classes", "6"],
        ["train", "--eval-classes", "-1"], ["train", "--eval-classes", ","],
        ["eval", "--eval-classes", "25"], ["predict", "--eval-classes", ","],
        ["predict", "--classes", "300"],          # PGM gray levels end at 255
        ["train", "--lr", "nan"], ["train", "--lr", "inf"],
        ["train", "--w0", "nan"], ["train", "--w0", "inf"],
        ["gen-data", "--noise", "-1"], ["gen-data", "--noise", "nan"],
    ], ids=lambda argv: f"{argv[0]}:{argv[1][2:]}={argv[2]}")
    def test_out_of_range_setting_is_1_before_any_io(self, tmp_path, capsys, argv):
        """Checked before the data is read (it does not exist here) and
        before anything is written into --out."""
        command, *setting = argv
        out = tmp_path / "o"
        io = {"gen-data": [], "train": ["--data", str(tmp_path / "none")]}.get(
            command, ["--data", str(tmp_path / "none.sits"),
                      "--checkpoint", str(tmp_path / "none.ckpt")])
        assert main([command, "--out", str(out), *io, *setting]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        *(["--min-length", "-1", "--seed", str(seed)] for seed in range(1, 9)),
        ["--min-length", "21", "--timesteps", "20"],
    ], ids=lambda setting: " ".join(setting))
    def test_min_length_outside_the_series_is_1(self, tmp_path, capsys, setting):
        """A value outside [1, --timesteps] (0 turns the setting off) is
        refused by name, whatever the seed would draw."""
        out = tmp_path / "o"
        assert main(["gen-data", "--out", str(out), "--height", "6", "--width", "6",
                     "--train-samples", "2", "--valid-samples", "1", "--test-samples", "1",
                     *setting]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "min_valid_length" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["data", "checkpoint", "config"])
    def test_directory_given_as_a_file_is_2(self, tmp_path, capsys, flag):
        data = tmp_path / "d"
        gen(data)
        paths = {"data": data / "test.sits", "checkpoint": tmp_path / "none.ckpt", flag: data}
        argv = ["eval", "--out", str(tmp_path / "o"), *SMALL]
        for key, path in paths.items():
            argv += ["--" + key, str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_config_that_is_not_utf8_is_1(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("seed=1  # d\xe9faut\n".encode("latin-1"))
        assert main(["train", "--data", str(tmp_path / "none"), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "o").exists()

    def test_corrupt_dataset_is_2(self, tmp_path):
        data = tmp_path / "d"
        gen(data)
        raw = bytearray((data / "train.sits").read_bytes())
        raw[0] ^= 0xFF
        (data / "train.sits").write_bytes(bytes(raw))
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                     *SMALL]) == 2


    @pytest.mark.parametrize("body", [
        struct.pack("<Q", 1) + b"w" + struct.pack("<3Q", 2, 2**21, 2**21),
        struct.pack("<Q", 2) + b"\xff\xfe" + struct.pack("<2Q", 1, 1) + b"\0" * 4,
    ], ids=["huge_extents", "bad_utf8_name"])
    def test_corrupt_checkpoint_is_2(self, tmp_path, body):
        data = tmp_path / "d"
        gen(data)
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(checkpoint.MAGIC + body)
        assert main(["eval", "--data", str(data / "test.sits"), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "o"), *SMALL]) == 2

    @pytest.mark.parametrize("kind", ["directory", "corrupt"])
    def test_unloadable_checkpoint_is_2_before_the_manifest(self, tmp_path, kind):
        data = tmp_path / "d"
        gen(data)
        ckpt = tmp_path / "bad.ckpt"
        if kind == "directory":
            ckpt.mkdir()
        else:
            ckpt.write_bytes(checkpoint.MAGIC + b"\x01")
        out = tmp_path / "o"
        assert main(["eval", "--data", str(data / "test.sits"), "--checkpoint", str(ckpt),
                     "--out", str(out), *SMALL]) == 2
        assert not (out / "run_manifest.txt").exists()

    def test_huge_dataset_header_is_2(self, tmp_path):
        path = tmp_path / "huge.sits"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<5I", *[4000] * 4, 1))
        assert main(["eval", "--data", str(path), "--checkpoint", str(tmp_path / "x.ckpt"),
                     "--out", str(tmp_path / "o"), *SMALL]) == 2

    @pytest.mark.parametrize("second", [(4, 3, 3, 3), (4, 2, 4, 4)],
                             ids=["channels_differ", "extent_differs"])
    def test_mixed_shape_dataset_is_2(self, tmp_path, second):
        samples = [SitsSample(np.zeros(shape, np.float32), np.zeros(shape[2:], np.int64), 4, i)
                   for i, shape in enumerate([(4, 2, 3, 3), second])]
        path = tmp_path / "mixed.sits"
        save_dataset(SitsDataset(samples, 3), path)
        ckpt = tmp_path / "m.ckpt"
        SitsClassifier(ModelConfig(input_channels=2, num_classes=3, hidden=8, d_state=4)).save(ckpt)
        for command in ("eval", "predict"):
            assert main([command, "--data", str(path), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / command), *SMALL]) == 2

    def test_checkpoint_cut_at_entry_boundary_is_2(self, tmp_path):
        data = tmp_path / "d"
        gen(data)
        model = SitsClassifier(ModelConfig(input_channels=2, num_classes=3, hidden=8, d_state=4))
        full, cut = tmp_path / "full.ckpt", tmp_path / "cut.ckpt"
        model.save(full)
        checkpoint.save_checkpoint(dict(list(model.state_arrays().items())[:3]), cut)
        assert full.read_bytes().startswith(cut.read_bytes())    # 3 of the 30 entries
        assert main(["eval", "--data", str(data / "test.sits"), "--checkpoint", str(cut),
                     "--out", str(tmp_path / "o"), *SMALL]) == 2


class TestIgnoredPixels:
    """With 20 classes, label 19 is ignored by the loss and by every score."""
    ARGS = ["--classes", "20", "--channels", "2", "--hidden", "8", "--d-state", "4"]

    @pytest.fixture
    def data(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen-data", "--out", str(data), "--seed", "5", "--classes", "20",
                     "--channels", "2", "--timesteps", "5", "--height", "4", "--width", "4",
                     "--train-samples", "3", "--valid-samples", "2",
                     "--test-samples", "2"]) == 0
        return data

    @staticmethod
    def void(path, samples=None):
        """Give every pixel of the chosen samples (all by default) label 19."""
        ds = load_dataset(path)
        for s in ds.samples if samples is None else [ds.samples[i] for i in samples]:
            s.label_map[:] = 19
        save_dataset(ds, path)

    @pytest.mark.parametrize("split", ["train", "valid"])
    def test_train_refuses_a_split_with_no_scored_pixel(self, data, tmp_path, capsys, split):
        self.void(data / f"{split}.sits")
        out = tmp_path / "o"
        assert main(["train", "--data", str(data), "--out", str(out), "--epochs", "1",
                     *self.ARGS]) == 2
        assert "every pixel has an ignored label" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_refuses_and_predict_takes_a_file_with_no_scored_pixel(self, data, tmp_path):
        self.void(data / "test.sits")
        ckpt = tmp_path / "m.ckpt"
        SitsClassifier(ModelConfig(input_channels=2, num_classes=20, hidden=8,
                                   d_state=4)).save(ckpt)
        argv = ["--data", str(data / "test.sits"), "--checkpoint", str(ckpt), *self.ARGS]
        assert main(["eval", "--out", str(tmp_path / "e"), *argv]) == 2
        assert main(["predict", "--out", str(tmp_path / "p"), *argv]) == 0

    def test_batch_with_no_scored_pixel_is_skipped(self, data, tmp_path):
        self.void(data / "train.sits", samples=[1])
        out = tmp_path / "o"
        assert main(["train", "--data", str(data), "--out", str(out), "--epochs", "2",
                     "--batch-size", "1", *self.ARGS]) == 0
        assert len((out / "train_log.csv").read_text().splitlines()) == 1 + 2 * 2


class TestTrainSummary:
    def test_without_validation_no_sentinel_is_printed(self, tmp_path, capsys):
        data = tmp_path / "d"
        gen(data)
        (data / "valid.sits").unlink()
        out = tmp_path / "o"
        assert main(["train", "--data", str(data), "--out", str(out), "--epochs", "1",
                     *SMALL]) == 0
        summary = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("trained")]
        assert summary == ["trained 1 epochs; no validation ran, so best.ckpt is the final model"]
        assert (out / "best.ckpt").read_bytes() == (out / "final.ckpt").read_bytes()


class TestParser:
    def test_each_setting_is_a_flag_on_exactly_its_subcommands(self):
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        for key, (typ, _, commands) in cli._SCHEMA.items():
            flag = ("--no-" + key.removeprefix("use_") if typ is bool else "--" + key)
            flag = flag.replace("_", "-")
            have = {name for name, parser in sub.choices.items()
                    if any(a.dest == key and a.option_strings == [flag] for a in parser._actions)}
            assert have == set(commands), key


class TestSeparableDataConvergence:
    def test_eval_reports_high_oa_on_noise_free_task(self, tmp_path):
        """Trained to convergence on noise-free data, eval reports OA >= 0.99."""
        small = ["--classes", "3", "--channels", "2", "--hidden", "12",
                 "--d-state", "8", "--batch-size", "2"]
        data = tmp_path / "d"
        assert main(["gen-data", "--out", str(data), "--seed", "11", "--noise", "0",
                     "--timesteps", "8", "--height", "12", "--width", "12",
                     "--train-samples", "40", "--valid-samples", "8",
                     "--test-samples", "12", "--classes", "3", "--channels", "2"]) == 0
        out = tmp_path / "r"
        assert main(["train", "--data", str(data), "--out", str(out), "--seed", "11",
                     "--epochs", "14", "--lr", "0.003", *small]) == 0
        ev = tmp_path / "e"
        assert main(["eval", "--data", str(data / "test.sits"),
                     "--checkpoint", str(out / "best.ckpt"), "--out", str(ev),
                     "--seed", "11", *small]) == 0
        oa_line = [l for l in (ev / "metrics.csv").read_text().splitlines()
                   if l.startswith("OA")][0]
        oa = float(oa_line.split(",")[2])
        assert oa >= 0.99, f"OA {oa}"


class TestClassSetDefaults:
    def test_twenty_class_layout_gets_void_and_crop_defaults(self):
        ignore, eval_set = cli._class_sets({"classes": 20, "ignore_labels": "auto",
                                            "eval_classes": "auto"})
        assert ignore == frozenset({19})
        assert eval_set == tuple(range(1, 19))

    def test_generic_layout_scores_everything(self):
        ignore, eval_set = cli._class_sets({"classes": 6, "ignore_labels": "auto",
                                            "eval_classes": "auto"})
        assert ignore == frozenset()
        assert eval_set == tuple(range(6))

    def test_explicit_overrides_win(self):
        ignore, eval_set = cli._class_sets({"classes": 20, "ignore_labels": "0,19",
                                            "eval_classes": "1,2,3"})
        assert ignore == frozenset({0, 19})
        assert eval_set == (1, 2, 3)


class TestVerifyCommand:
    def test_fresh_checkout_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        rows = [line.split()[1] for line in out.splitlines() if line.endswith(" PASS")]
        assert rows == [
            "closed_form_0_a_bar", "closed_form_0_b_bar", "closed_form_1_a_bar",
            "closed_form_1_b_bar", "closed_form_2_a_bar", "closed_form_2_b_bar",
            "series_vs_exact_at_1e-5", "lti_scan_vs_kernel_max_abs",
            "fused_vs_composite", "fused_vs_composite_tiny_delta", "fused_vs_composite_long",
            "fused_vs_composite_mixed_delta", "phi_prime_max_rel", "conv_bn_relu_vs_unfused",
            "softplus_silu_chain", "mamba_block_fd", "train_step_append_padding_max_rel",
            "vectorized_vs_rational_oracle", "vectorized_vs_rational_oracle_ignore_eval",
            "hand_case_oa", "hand_case_mf1", "pw_L4", "reconstruction_ramp_ragged",
            "w1_ratio", "total_equals_1p_w0_times_cls"]

    def test_injected_zoh_sign_error_fails_loudly(self, monkeypatch):
        from sits_ssm import autodiff as ad
        from sits_ssm import ssm, verify
        zoh = ssm.discretize_zoh

        def broken_zoh(a, b, delta):
            a_bar, b_bar = zoh(a, b, delta)
            return a_bar, ad.mul(b_bar, -1.0)
        monkeypatch.setattr(ssm, "discretize_zoh", broken_zoh)
        report = verify.VerifyReport()
        verify.suite_zoh(report)
        assert not report.ok()
        assert "FAIL" in report.render()

    def test_injected_scan_defect_fails(self, monkeypatch):
        from sits_ssm import ssm, verify
        scan = ssm.scan_recurrence

        def broken_scan(*args):
            out = scan(*args)
            out.data = out.data * 1.001
            return out
        monkeypatch.setattr(ssm, "scan_recurrence", broken_scan)
        report = verify.VerifyReport()
        verify.suite_scan_kernel(report)
        assert not report.ok()

    @pytest.mark.parametrize("defect", ["output", "gradient", "nan_gradient"])
    def test_injected_fused_scan_defect_fails(self, monkeypatch, defect):
        from sits_ssm import autodiff as ad
        from sits_ssm import ssm, verify
        scan = ssm.selective_scan_fused

        def broken_scan(*tensors):
            y = scan(*tensors)
            if defect == "gradient":
                return ad._make(y.data, (y,), lambda g: (g * 1.001,), "perturbed")
            if defect == "nan_gradient":
                return ad._make(y.data, (y,), lambda g: (g * np.nan,), "perturbed")
            return ad.add(y, 1e-6)
        monkeypatch.setattr(ssm, "selective_scan_fused", broken_scan)
        report = verify.VerifyReport()
        verify.suite_fused_scan(report)
        failed = [r.name for r in report.rows if not r.passed]
        assert failed == ["fused_vs_composite", "fused_vs_composite_tiny_delta",
                          "fused_vs_composite_long", "fused_vs_composite_mixed_delta"]

    @pytest.mark.parametrize("defect", ["output", "gradient", "running_buffer"])
    def test_injected_conv_bn_relu_defect_fails(self, monkeypatch, defect):
        from sits_ssm import autodiff as ad
        from sits_ssm import verify
        stage = ad.conv_bn_relu

        def broken_stage(*args):
            out = stage(*args)
            if defect == "gradient":
                return ad._make(out.data, (out,), lambda g: (g * 1.001,), "perturbed")
            if defect == "running_buffer":
                args[5][0] += 1e-15                  # running_mean
                return out
            return ad.add(out, 1e-12)
        monkeypatch.setattr(ad, "conv_bn_relu", broken_stage)
        report = verify.VerifyReport()
        verify.suite_spatial(report)
        assert [r.name for r in report.rows if not r.passed] == ["conv_bn_relu_vs_unfused"]

    def test_injected_reversed_ramp_fails(self, monkeypatch):
        """reconstruction_loss with its positional ramp reversed over each
        sample's valid steps: the loss of the series reversed within them."""
        from sits_ssm import autodiff as ad
        from sits_ssm import losses, verify
        loss = losses.reconstruction_loss

        def reversed_ramp(target, reconstruction, valid_mask, use_pw=True):
            counts = valid_mask.sum(axis=1, keepdims=True)
            steps = np.arange(valid_mask.shape[1])
            order = np.where(steps < counts, counts - 1 - steps, steps)[:, :, None, None, None]
            flip = [ad.Tensor(np.take_along_axis(t.data, order, axis=1))
                    for t in (target, reconstruction)]
            return loss(*flip, valid_mask, use_pw)
        monkeypatch.setattr(losses, "reconstruction_loss", reversed_ramp)
        report = verify.VerifyReport()
        verify.suite_losses(report)
        assert [r.name for r in report.rows if not r.passed] == ["reconstruction_ramp_ragged"]

    @pytest.mark.parametrize("got, ref", [([np.nan, 1.0, 1.0], [1.0, 1.0, 1.0]),
                                          ([1.0, 1.0, 1.0], [1.0, np.nan, 1.0])],
                             ids=["nan_in_got", "nan_in_ref"])
    def test_max_rel_diff_fails_a_nan(self, got, ref):
        from sits_ssm import verify
        assert verify.max_rel_diff([np.ones(2), np.array(got)],
                                   [np.ones(2), np.array(ref)]) == np.inf

    def test_gradcheck_fails_a_nan_analytic_gradient(self):
        from sits_ssm import autodiff as ad
        from sits_ssm import verify
        x = ad.Tensor(np.linspace(0.5, 1.5, 4), requires_grad=True)

        def f():
            y = ad._make(x.data * 2.0, (x,), lambda g: (g * np.nan,), "nan_grad")
            return ad.sum_(y)
        assert verify.gradcheck(f, [x]) == np.inf

    def test_verification_failure_exit_code_is_3(self, monkeypatch, capsys):
        from sits_ssm import verify
        bad = verify.VerifyReport()
        bad.add("zoh", "poisoned", 1.0, 1e-12)
        monkeypatch.setattr(cli.verify_mod, "run_all", lambda: bad)
        assert main(["verify"]) == 3
        assert "FAIL" in capsys.readouterr().out
