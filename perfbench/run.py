"""Benchmark of the sits_ssm library, run from the root of a source checkout:

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``. With ``--trace 0`` the run
measures the end-to-end metrics; with ``--trace 1`` it wraps the library's
public callables (``tracer.py``) and reports one metric per layer instead.
A human-readable report goes to standard output first; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans and the environment record are also written to
``.perfbench_out/`` in the checkout.
"""

import os

# The BLAS thread count is fixed before numpy is first imported: one thread
# keeps the closed loop steady on a small machine, and threadpoolctl is not
# available to change it later.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_tmp"
MODULES = ("autodiff", "checkpoint", "data", "losses", "metrics", "model", "spatial", "ssm",
           "trainer")

# names the report prints for each mode, as aliases of the measured metrics
ALIASES = {
    "train": {"train_pixseq_per_s": "pixseq_per_s", "train_step_ms_p50": "step_ms_p50"},
    "predict": {"predict_pixseq_per_s": "pixseq_per_s", "predict_batch_ms_p50": "step_ms_p50"},
    "learn": {"train_step_ms_p50": "step_ms_p50"},
}


def load_library():
    """Import sits_ssm from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "sits_ssm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sits_ssm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"sits_ssm.{m}")
                                   for m in MODULES})
    if Path(lib.model.__file__).resolve().parent != SRC / "sits_ssm":
        sys.exit(f"perfbench: sits_ssm was imported from {lib.model.__file__}, not {SRC}")
    return lib


def git_commit(root: Path) -> str:
    """HEAD's commit; 'unknown' outside a clone."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "blas_threads": BLAS_THREADS, "commit": git_commit(ROOT)}


def parse_args(argv, specs):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(specs))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, specs=None) -> int:
    """Run one workload; ``specs`` replaces ``workloads.WORKLOADS`` (self-test)."""
    lib = load_library()
    specs = specs or workloads.WORKLOADS
    args = parse_args(argv, specs)
    if args.seconds < 0:
        sys.exit("perfbench: --seconds must be non-negative")
    spec = specs[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_DIR / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = workloads.run(lib, args.workload, spec, args.seed, args.seconds, bool(args.trace),
                            work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.env.update(environment())
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()}
    missing = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if missing:
        sys.exit(f"perfbench: no measurement for {missing}")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(out.env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    extra = dict(out.report)
    if not args.trace:
        for alias, name in ALIASES[spec.mode].items():
            value, unit = out.metrics[name]
            extra[alias] = (value, unit, out.step_samples if alias.endswith("_p50") else None)
    for name, (value, unit, count) in extra.items():
        print(f"  {name:34s} {value:.6g} {unit}" + (f"  (n={count})" if count else ""))
    print(f"  {'ops_failed_frac':34s} {out.failed / max(out.attempted, 1):.6g} "
          f"({out.failed} of {out.attempted})")

    OUT_DIR.mkdir(exist_ok=True)
    dump = {"env": out.env, "metrics": metrics, "report": out.report,
            "attempted": out.attempted, "failed": out.failed}
    if out.tracer is not None:
        dump["self_times"] = out.tracer.self_times()
        dump["spans"] = out.tracer.to_json()
        print("  spans: calls, total s, self s")
        for name, row in sorted(dump["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:32s} {row['calls']:5d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(dump, default=str) + "\n")

    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
