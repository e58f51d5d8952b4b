"""Command-line entry point.

Subcommands: gen-data, train, eval, predict, verify. Options may come
from a flat ``key=value`` config file (``--config``) whose keys are the
flags' destinations (``batch_size``; ``use_pw=false`` for ``--no-pw``).
Explicit flags win.
Every command writes the effective configuration to
``run_manifest.txt`` next to its outputs.

Exit codes: 0 success, 1 usage error, 2 data/shape error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import verify as verify_mod
from .autodiff import NonFiniteError, ShapeError
from .checkpoint import CheckpointFormatError
from .data import DatasetFormatError
from .losses import LossConfig
from .model import ModelConfig, SitsClassifier
from .trainer import TrainConfig, evaluate, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config_file(path: Path) -> dict[str, str]:
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    out = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (expected key=value): {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# every settable key: (type, default)
_SCHEMA = {
    "seed": (int, 0),
    "epochs": (int, 100),
    "lr": (float, 1e-4),
    "batch_size": (int, 8),
    "w0": (float, 0.03),
    "use_pw": (bool, True),
    "use_w1": (bool, True),
    "use_rbranch": (bool, True),
    "mode": (str, "pad"),
    "classes": (int, 6),
    "channels": (int, 4),
    "timesteps": (int, 20),
    "height": (int, 16),
    "width": (int, 16),
    "noise": (float, 0.02),
    "min_length": (int, 0),
    "train_samples": (int, 200),
    "valid_samples": (int, 50),
    "test_samples": (int, 50),
    "hidden": (int, 128),
    "d_state": (int, 16),
    "ignore_labels": (str, "auto"),
    "eval_classes": (str, "auto"),
}


def _coerce(key: str, raw) -> object:
    if key not in _SCHEMA:
        raise UsageError(f"unknown config key: {key}")
    typ, _ = _SCHEMA[key]
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
    cfg = {k: d for k, (_, d) in _SCHEMA.items()}
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
    scores everything. Both are overridable.
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
    return ignore, eval_set


def _write_manifest(cfg: dict, out_dir: Path, command: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"command={command}"] + [f"{k}={cfg[k]}" for k in sorted(cfg)]
    (out_dir / "run_manifest.txt").write_text("\n".join(lines) + "\n")


def _model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(input_channels=cfg["channels"], num_classes=cfg["classes"],
                       hidden=cfg["hidden"], d_state=cfg["d_state"])


def _loss_config(cfg: dict) -> LossConfig:
    ignore, _ = _class_sets(cfg)
    return LossConfig(w0=cfg["w0"], use_pw=cfg["use_pw"], use_w1=cfg["use_w1"],
                      use_rbranch=cfg["use_rbranch"], ignore_labels=ignore)


def _check_dataset_fits(ds, cfg: dict, path):
    if len(ds) == 0:
        raise DatasetFormatError(f"{path}: empty dataset")
    s = ds[0]
    if s.series.shape[1] != cfg["channels"]:
        raise ShapeError(f"{path}: dataset has {s.series.shape[1]} channels, "
                         f"config says {cfg['channels']}")
    top = max(int(x.label_map.max()) for x in ds.samples)
    if top >= cfg["classes"]:
        raise ShapeError(f"{path}: label {top} outside [0, {cfg['classes']})")


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    out = Path(args.out)
    _write_manifest(cfg, out, "gen-data")
    min_len = cfg["min_length"] or None
    for split, count, offset in (("train", cfg["train_samples"], 0),
                                 ("valid", cfg["valid_samples"], 1),
                                 ("test", cfg["test_samples"], 2)):
        ds = data_mod.generate_synthetic(
            seed=cfg["seed"] + offset, n_samples=count, num_classes=cfg["classes"],
            timesteps=cfg["timesteps"], channels=cfg["channels"],
            height=cfg["height"], width=cfg["width"], noise_sigma=cfg["noise"],
            min_valid_length=min_len, world_seed=cfg["seed"])
        data_mod.save_dataset(ds, out / f"{split}.sits")
        print(f"wrote {out / (split + '.sits')}  ({count} samples, "
              f"K={cfg['classes']}, C={cfg['channels']}, T={cfg['timesteps']})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve(args)
    data_dir = Path(args.data)
    train_ds = data_mod.load_dataset(data_dir / "train.sits")
    valid_path = data_dir / "valid.sits"
    valid_ds = data_mod.load_dataset(valid_path) if valid_path.exists() else None
    _check_dataset_fits(train_ds, cfg, data_dir / "train.sits")
    if valid_ds is not None:
        _check_dataset_fits(valid_ds, cfg, valid_path)
    out = Path(args.out)
    _write_manifest(cfg, out, "train")
    model = SitsClassifier(_model_config(cfg), np.random.default_rng(cfg["seed"]))
    _, eval_set = _class_sets(cfg)
    tcfg = TrainConfig(epochs=cfg["epochs"], learning_rate=cfg["lr"],
                       batch_size=cfg["batch_size"], seed=cfg["seed"],
                       loss=_loss_config(cfg), temporal_mode=cfg["mode"],
                       eval_class_set=eval_set)
    result = train(model, train_ds, valid_ds, tcfg, out)
    print(f"trained {cfg['epochs']} epochs; best val mF1={result.best_mf1:.4f} "
          f"at epoch {result.best_epoch}")
    print(f"checkpoints: {result.best_checkpoint}, {result.final_checkpoint}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    ds = data_mod.load_dataset(Path(args.data))
    _check_dataset_fits(ds, cfg, args.data)
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    out = Path(args.out)
    _write_manifest(cfg, out, "eval")
    model = SitsClassifier(_model_config(cfg), np.random.default_rng(cfg["seed"]))
    model.load(ckpt)
    ignore, eval_set = _class_sets(cfg)
    s = evaluate(model, ds, _loss_config(cfg), cfg["batch_size"], cfg["mode"],
                 eval_class_set=eval_set)
    s.to_csv(out / "metrics.csv")
    print(s.render(eval_class_set=eval_set))
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = _resolve(args)
    ds = data_mod.load_dataset(Path(args.data))
    _check_dataset_fits(ds, cfg, args.data)
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    out = Path(args.out)
    _write_manifest(cfg, out, "predict")
    model = SitsClassifier(_model_config(cfg), np.random.default_rng(cfg["seed"]))
    model.load(ckpt)
    for chunk, batch in data_mod.batches(ds, cfg["batch_size"], cfg["mode"]):
        for s, pred in zip(chunk, model.predict(batch)):
            data_mod.export_pgm(pred, out / f"pred_{s.sample_id:05d}.pgm")
    data_mod.export_legend(cfg["classes"], out / "legend.csv")
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


def checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="sits-ssm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, data=False, ckpt=False):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--mode", choices=data_mod.TEMPORAL_MODES)
        if data:
            sp.add_argument("--data", required=True)
        if ckpt:
            sp.add_argument("--checkpoint", required=True)
        sp.add_argument("--classes", type=int)
        sp.add_argument("--channels", type=int)
        sp.add_argument("--hidden", type=int)
        sp.add_argument("--d-state", dest="d_state", type=int)
        sp.add_argument("--batch-size", dest="batch_size", type=int)
        sp.add_argument("--ignore-labels", dest="ignore_labels")
        sp.add_argument("--eval-classes", dest="eval_classes")

    g = sub.add_parser("gen-data", help="write synthetic train/valid/test containers")
    common(g)
    g.add_argument("--timesteps", type=int)
    g.add_argument("--height", type=int)
    g.add_argument("--width", type=int)
    g.add_argument("--noise", type=float)
    g.add_argument("--min-length", dest="min_length", type=int)
    g.add_argument("--train-samples", dest="train_samples", type=int)
    g.add_argument("--valid-samples", dest="valid_samples", type=int)
    g.add_argument("--test-samples", dest="test_samples", type=int)

    t = sub.add_parser("train", help="train a model on a dataset directory")
    common(t, data=True)
    t.add_argument("--epochs", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--w0", type=float)
    t.add_argument("--no-pw", dest="use_pw", action="store_false", default=None)
    t.add_argument("--no-w1", dest="use_w1", action="store_false", default=None)
    t.add_argument("--no-rbranch", dest="use_rbranch", action="store_false", default=None)

    e = sub.add_parser("eval", help="score a checkpoint on a dataset file")
    common(e, data=True, ckpt=True)

    pr = sub.add_parser("predict", help="export label maps as PGM")
    common(pr, data=True, ckpt=True)

    v = sub.add_parser("verify", help="run the oracle self-check suites")
    v.set_defaults(out=None)

    return p


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, DatasetFormatError, CheckpointFormatError,
            ShapeError, NonFiniteError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
