"""Record a trajectory point, run from the root of a source checkout:

    python3 perfbench/record.py --tag seed --seeds 101-110

Runs ``run.py`` once per seed and workload untraced, then once per workload
traced (first seed), one process at a time. Writes
``perfbench/trajectory/BENCH_<tag>.json`` with each end-to-end metric's
values, median, quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them), and the per-layer
metrics of the traced run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return {"env": env, **json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    args = p.parse_args()

    point = {"tag": args.tag, "run_seconds": bench["run_seconds"], "seeds": args.seeds,
             "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            runs.append(run_once(workload, seed, bench["run_seconds"], 0))
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  f"correct={runs[-1]['correct']}", file=sys.stderr)
        traced = run_once(workload, args.seeds[0], bench["run_seconds"], 1)
        point["env"] = {k: runs[0]["env"][k] for k in
                        ("nproc", "cpus_usable", "python", "numpy", "blas", "blas_threads",
                         "commit")}
        point["workloads"][workload] = {
            "scan_shape_BLDN": runs[0]["env"]["scan_shape_BLDN"],
            "scan_path": runs[0]["env"]["scan_path"],
            "all_correct": all(r["correct"] for r in runs + [traced]),
            "failed_of_attempted": [sum(r["failed"] for r in runs),
                                    sum(r["attempted"] for r in runs)],
            "end_to_end": {m: {"unit": runs[0]["metrics"][m]["unit"],
                               **summary([r["metrics"][m]["value"] for r in runs])}
                           for m in runs[0]["metrics"]},
            "per_layer": traced["metrics"],
        }
    out = HERE / "trajectory" / f"BENCH_{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
