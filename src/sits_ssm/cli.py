"""Command-line entry point.

Subcommands: gen-data, train, eval, predict, verify. Every setting is
declared once, in ``_SCHEMA``, with its type, its default and the
subcommands that take it as a flag; the parser is built from that table.
A model, loss or run setting takes its default from the dataclass that
holds it (``ModelConfig``, ``LossConfig``, ``TrainConfig``).
The key ``batch_size`` is the flag ``--batch-size``, and a boolean
``use_pw`` is the switch ``--no-pw``. Settings may also come from a flat
``key=value`` config file (``--config``) with the same keys
(``batch_size=2``, ``use_pw=false``). Explicit flags win.
Every command writes the effective configuration to
``run_manifest.txt`` next to its outputs, with the package and numpy
versions, the thread pool's worker count and the BLAS thread variables
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` as given (``unset`` when
absent). Checkpoints, logs and metrics hold none of these, so two runs
on different machines can still be compared byte for byte.

Exit codes: 0 success, 1 usage error, 2 data/shape error (a path that
cannot be read included, and a series with a non-finite value), 3
verification failure, 4 training diverged (``TrainingDivergedError``;
no ``final.ckpt`` is written).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, pool
from . import data as data_mod
from . import verify as verify_mod
from .autodiff import NonFiniteError, ShapeError
from .checkpoint import CheckpointFormatError
from .data import DatasetFormatError
from .losses import LossConfig
from .metrics import eval_classes
from .model import ModelConfig, SitsClassifier
from .trainer import TrainConfig, TrainingDivergedError, evaluate, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3
EXIT_DIVERGED = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config_file(path: Path) -> dict[str, str]:
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise UsageError(f"config file is not UTF-8 text: {path} ({e.reason})") from None
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (expected key=value): {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_ALL = ("gen-data", "train", "eval", "predict")
_MODEL = ("train", "eval", "predict")    # commands that build a model
_GEN = ("gen-data",)
_TRAIN = ("train",)

# every settable key: (type, default, subcommands that take it as a flag)
_SCHEMA = {
    "seed": (int, 0, _ALL),
    "epochs": (int, TrainConfig.epochs, _TRAIN),
    "lr": (float, TrainConfig.learning_rate, _TRAIN),
    "batch_size": (int, TrainConfig.batch_size, _MODEL),
    "w0": (float, LossConfig.w0, _TRAIN),
    "use_pw": (bool, LossConfig.use_pw, _TRAIN),
    "use_w1": (bool, LossConfig.use_w1, _TRAIN),
    "use_rbranch": (bool, LossConfig.use_rbranch, _TRAIN),
    "mode": (str, TrainConfig.temporal_mode, _ALL),
    "classes": (int, 6, _ALL),
    "channels": (int, 4, _ALL),
    "timesteps": (int, 20, _GEN),
    "height": (int, 16, _GEN),
    "width": (int, 16, _GEN),
    "noise": (float, 0.02, _GEN),
    "min_length": (int, 0, _GEN),
    "train_samples": (int, 200, _GEN),
    "valid_samples": (int, 50, _GEN),
    "test_samples": (int, 50, _GEN),
    "hidden": (int, ModelConfig.hidden, _MODEL),
    "d_state": (int, ModelConfig.d_state, _MODEL),
    "ignore_labels": (str, "auto", _MODEL),
    "eval_classes": (str, "auto", _MODEL),
}


def _coerce(key: str, raw) -> object:
    if key not in _SCHEMA:
        raise UsageError(f"unknown config key: {key}")
    typ = _SCHEMA[key][0]
    if isinstance(raw, str) and typ is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"bad boolean for {key}: {raw!r}")
    try:
        return typ(raw)
    except (TypeError, ValueError):
        raise UsageError(f"bad value for {key}: {raw!r}") from None


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then explicit flags."""
    cfg = {k: d for k, (_, d, _) in _SCHEMA.items()}
    if getattr(args, "config", None):
        for k, v in _read_config_file(Path(args.config)).items():
            cfg[k] = _coerce(k, v)
    for k, v in vars(args).items():
        if k in _SCHEMA and v is not None:
            cfg[k] = _coerce(k, v)
    if cfg["mode"] not in data_mod.TEMPORAL_MODES:
        raise UsageError(f"mode must be one of {data_mod.TEMPORAL_MODES}, got {cfg['mode']!r}")
    return cfg


def _class_sets(cfg: dict) -> tuple[frozenset, tuple]:
    """Loss-ignored labels and the class set entering mIoU/mF1.

    The 20-class layout keeps the void label (19) out of every score and
    averages over the crop classes 1..18 only; any other class count
    scores everything. Both are overridable; an explicit eval set must be
    a non-empty subset of the classes.
    """
    k = cfg["classes"]
    if cfg["ignore_labels"] == "auto":
        ignore = frozenset({19}) if k == 20 else frozenset()
    else:
        ignore = frozenset(int(s) for s in str(cfg["ignore_labels"]).split(",") if s != "")
    if cfg["eval_classes"] == "auto":
        eval_set = tuple(range(1, 19)) if k == 20 else tuple(range(k))
    else:
        eval_set = tuple(int(s) for s in str(cfg["eval_classes"]).split(",") if s != "")
        eval_classes(k, eval_set)
    return ignore, eval_set


def _write_manifest(cfg: dict, out_dir: Path, command: str):
    """The effective settings, then the software and threads the run had."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"command={command}"] + [f"{k}={cfg[k]}" for k in sorted(cfg)]
    lines += [f"sits_ssm_version={__version__}", f"numpy_version={np.__version__}",
              f"pool_workers={pool.worker_count()}"]
    lines += [f"{var}={os.environ.get(var, 'unset')}"
              for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    (out_dir / "run_manifest.txt").write_text("\n".join(lines) + "\n")


def _configs(cfg: dict) -> tuple[ModelConfig, TrainConfig]:
    """The model and run settings; a value their validators refuse is a usage error."""
    try:
        ignore, eval_set = _class_sets(cfg)
        loss = LossConfig(w0=cfg["w0"], use_pw=cfg["use_pw"], use_w1=cfg["use_w1"],
                          use_rbranch=cfg["use_rbranch"], ignore_labels=ignore)
        return (ModelConfig(input_channels=cfg["channels"], num_classes=cfg["classes"],
                            hidden=cfg["hidden"], d_state=cfg["d_state"]),
                TrainConfig(epochs=cfg["epochs"], learning_rate=cfg["lr"],
                            batch_size=cfg["batch_size"], seed=cfg["seed"], loss=loss,
                            temporal_mode=cfg["mode"], eval_class_set=eval_set))
    except ValueError as e:
        raise UsageError(str(e)) from None


def _check_dataset_fits(ds, cfg: dict, path):
    if len(ds) == 0:
        raise DatasetFormatError(f"{path}: empty dataset")
    chw = ds[0].series.shape[1:]
    if chw[0] != cfg["channels"]:
        raise ShapeError(f"{path}: dataset has {chw[0]} channels, "
                         f"config says {cfg['channels']}")
    for i, x in enumerate(ds.samples):
        if x.series.shape[1:] != chw:
            raise ShapeError(f"{path}: sample {i} has (C, H, W) {x.series.shape[1:]}, "
                             f"sample 0 has {chw}")
        if not np.isfinite(x.series).all():
            raise DatasetFormatError(f"{path}: sample {i} has a non-finite value")
    top = max(int(x.label_map.max()) for x in ds.samples)
    if top >= cfg["classes"]:
        raise ShapeError(f"{path}: label {top} outside [0, {cfg['classes']})")


def _check_scored(ds, ignore: frozenset, path):
    """A split that is trained on or scored needs a pixel whose label is not ignored."""
    if all(np.isin(x.label_map, list(ignore)).all() for x in ds.samples):
        raise DatasetFormatError(f"{path}: every pixel has an ignored label "
                                 f"{sorted(ignore)}; nothing to train on or score")


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    if cfg["classes"] > data_mod.MAX_LABEL + 1:
        raise UsageError(f".sits stores labels as u16: classes must be at most "
                         f"{data_mod.MAX_LABEL + 1}, got {cfg['classes']}")
    min_len = cfg["min_length"] or None
    try:    # every split is made before anything is written
        splits = {split: data_mod.generate_synthetic(
            seed=cfg["seed"] + offset, n_samples=cfg[f"{split}_samples"],
            num_classes=cfg["classes"], timesteps=cfg["timesteps"], channels=cfg["channels"],
            height=cfg["height"], width=cfg["width"], noise_sigma=cfg["noise"],
            min_valid_length=min_len, world_seed=cfg["seed"])
            for offset, split in enumerate(("train", "valid", "test"))}
    except ValueError as e:
        raise UsageError(str(e)) from None
    out = Path(args.out)
    _write_manifest(cfg, out, "gen-data")
    for split, ds in splits.items():
        data_mod.save_dataset(ds, out / f"{split}.sits")
        print(f"wrote {out / (split + '.sits')}  ({len(ds)} samples, "
              f"K={cfg['classes']}, C={cfg['channels']}, T={cfg['timesteps']})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve(args)
    model_cfg, run_cfg = _configs(cfg)
    data_dir = Path(args.data)
    train_ds = data_mod.load_dataset(data_dir / "train.sits")
    valid_path = data_dir / "valid.sits"
    valid_ds = data_mod.load_dataset(valid_path) if valid_path.exists() else None
    ignore = run_cfg.loss.ignore_labels
    _check_dataset_fits(train_ds, cfg, data_dir / "train.sits")
    _check_scored(train_ds, ignore, data_dir / "train.sits")
    if valid_ds is not None:
        _check_dataset_fits(valid_ds, cfg, valid_path)
        _check_scored(valid_ds, ignore, valid_path)
    out = Path(args.out)
    _write_manifest(cfg, out, "train")
    model = SitsClassifier(model_cfg, np.random.default_rng(cfg["seed"]))
    result = train(model, train_ds, valid_ds, run_cfg, out)
    if result.best_epoch >= 0:
        print(f"trained {cfg['epochs']} epochs; best val mF1={result.best_mf1:.4f} "
              f"at epoch {result.best_epoch}")
    else:
        why = "no validation ran" if valid_ds is None else "no validation mF1 was defined"
        print(f"trained {cfg['epochs']} epochs; {why}, so best.ckpt is the final model")
    print(f"checkpoints: {result.best_checkpoint}, {result.final_checkpoint}")
    return EXIT_OK


def _load_model(args, command: str) -> tuple[TrainConfig, data_mod.SitsDataset,
                                              SitsClassifier, Path]:
    """Run settings, dataset, checkpointed model and output directory of
    eval and predict, checked in that order before any compute. The run
    manifest goes into the output directory only once all of them load."""
    cfg = _resolve(args)
    model_cfg, run_cfg = _configs(cfg)
    if command == "predict" and cfg["classes"] > 256:
        raise UsageError(f"predict writes 8-bit PGM label maps: classes must be at most 256, "
                         f"got {cfg['classes']}")
    ds = data_mod.load_dataset(Path(args.data))
    _check_dataset_fits(ds, cfg, args.data)
    if command == "eval":
        _check_scored(ds, run_cfg.loss.ignore_labels, args.data)
    model = SitsClassifier(model_cfg, np.random.default_rng(cfg["seed"]))
    model.load(Path(args.checkpoint))
    out = Path(args.out)
    _write_manifest(cfg, out, command)
    return run_cfg, ds, model, out


def cmd_eval(args) -> int:
    run_cfg, ds, model, out = _load_model(args, "eval")
    s = evaluate(model, ds, run_cfg.loss, run_cfg.batch_size, run_cfg.temporal_mode,
                 eval_class_set=run_cfg.eval_class_set)
    s.to_csv(out / "metrics.csv")
    print(s.render(eval_class_set=run_cfg.eval_class_set))
    return EXIT_OK


def cmd_predict(args) -> int:
    run_cfg, ds, model, out = _load_model(args, "predict")
    for chunk, batch in data_mod.batches(ds, run_cfg.batch_size, run_cfg.temporal_mode):
        for s, pred in zip(chunk, model.predict(batch)):
            data_mod.export_pgm(pred, out / f"pred_{s.sample_id:05d}.pgm")
    data_mod.export_legend(model.config.num_classes, out / "legend.csv")
    print(f"wrote {len(ds)} label maps to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_mod.run_all()
    print(report.render())
    print(f"elapsed: {report.elapsed:.1f}s")
    if not report.ok():
        print("VERIFICATION FAILED")
        return EXIT_VERIFY
    print("all suites passed")
    return EXIT_OK


# ---------------------------------------------------------------------------

_COMMANDS = {
    "gen-data": (cmd_gen_data, "write synthetic train/valid/test containers"),
    "train": (cmd_train, "train a model on a dataset directory"),
    "eval": (cmd_eval, "score a checkpoint on a dataset file"),
    "predict": (cmd_predict, "export label maps as PGM"),
    "verify": (cmd_verify, "run the oracle self-check suites"),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="sits-ssm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=help_) for name, (_, help_) in _COMMANDS.items()}
    parsers["verify"].set_defaults(out=None)
    for name in _ALL:
        parsers[name].add_argument("--config", help="flat key=value config file")
        parsers[name].add_argument("--out", required=True, help="output directory")
    for name in ("train", "eval", "predict"):
        parsers[name].add_argument("--data", required=True)
    for name in ("eval", "predict"):
        parsers[name].add_argument("--checkpoint", required=True)
    for key, (typ, _, commands) in _SCHEMA.items():
        for name in commands:
            if typ is bool:
                flag = "--no-" + key.removeprefix("use_").replace("_", "-")
                parsers[name].add_argument(flag, dest=key, action="store_false", default=None)
            else:
                choices = data_mod.TEMPORAL_MODES if key == "mode" else None
                parsers[name].add_argument("--" + key.replace("_", "-"), dest=key, type=typ,
                                           choices=choices)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, DatasetFormatError, CheckpointFormatError,
            ShapeError, NonFiniteError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as e:
        print(e, file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
