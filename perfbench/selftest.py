"""Fast self-test of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py

Runs every workload at a tiny size in both modes and checks that each
result line passes the correctness gate and carries exactly the metric
names, with the units, that ``BENCHMARK.json`` declares. Then checks that
the scan gate accepts the fused scan and rejects an output perturbed
on its stream path only, and on its stash path only.
Exits 1 on any miss.
"""

import contextlib
import dataclasses
import io
import json
import sys

import run  # first: fixes the BLAS thread count before numpy is imported

import numpy as np  # noqa: E402

TINY = dict(classes=3, channels=2, timesteps=6, size=4, hidden=4, d_state=2)


def tiny_specs(specs):
    out = {}
    for name, spec in specs.items():
        out[name] = dataclasses.replace(
            spec, samples=2 * spec.batch, valid_samples=4 if spec.valid_samples else 0,
            min_valid_length=3 if spec.min_valid_length else None, **TINY)
    return out


def result_line(argv, specs) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, specs=specs)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_runs(bench, specs, misses):
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if {w["name"] for w in bench["workloads"]} != set(specs):
        misses.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in specs:
        for trace in (0, 1):
            argv = ["--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
            line = result_line(argv, specs)
            where = f"{name} --trace {trace}"
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                misses.append(f"{where}: result keys {sorted(line)}")
                continue
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                misses.append(f"{where}: gate failed ({line['failed']} of {line['attempted']})")
            units = {k: v["unit"] for k, v in line["metrics"].items()}
            if units != declared[trace]:
                diff = sorted(set(units.items()) ^ set(declared[trace].items()))
                misses.append(f"{where}: metrics differ from BENCHMARK.json in {diff}")


def check_gate_rejects_perturbed_scan(misses):
    import checks
    lib = run.load_library()
    ad = lib.autodiff
    rng = np.random.default_rng(0)
    b, l, d, n = 3, 5, 4, 2
    args = [rng.standard_normal((b, l, d)), rng.uniform(0.01, 0.5, (b, l, d)),
            -rng.uniform(0.5, 2.0, (d, n)), rng.standard_normal((b, l, n)),
            rng.standard_normal((b, l, n)), np.ones(d)]

    def perturbed_on(path):
        def scan(*tensors):
            y = lib.ssm.selective_scan_fused(*tensors)
            on = lib.ssm._SCAN_VECTOR_BUDGET == checks.SCAN_BUDGETS[path]
            return ad.add(y, 1e-3) if on else y
        return scan

    if checks.scan_mismatches(lib, args):
        misses.append("scan gate rejects the unmodified fused scan")
    for path in checks.SCAN_BUDGETS:
        if checks.scan_mismatches(lib, args, scan=perturbed_on(path)) != [path]:
            misses.append(f"scan gate misses a scan output perturbed on the {path} path")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    misses: list[str] = []
    check_runs(bench, tiny_specs(run.workloads.WORKLOADS), misses)
    check_gate_rejects_perturbed_scan(misses)
    for m in misses:
        print(f"selftest: {m}", file=sys.stderr)
    print("selftest: " + ("FAILED" if misses else "ok"))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
