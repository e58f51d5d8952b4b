"""Mutation table: small deliberate defects, and the checks that catch them.

Each mutant is an exact-string patch to one file of ``src/sits_ssm``.
The runner applies one mutant at a time to a temporary copy of the
repository, runs the fast test subset (``pytest -x -m "not slow"``, every
test but criteria 7 and 8 and ``tests/test_mutants.py``) and ``sits-ssm
verify`` against the copy, and prints one row per mutant: whether it was
caught, the first failing test and the failing ``verify`` rows. A mutant
that nothing catches marks a behaviour that no check pins down.

    python tests/mutants.py                   # every mutant, this checkout
    python tests/mutants.py --tree DIR NAME   # one mutant, another checkout

pytest does not collect this file; ``tests/test_mutants.py`` checks that
every patch applies exactly once to the current sources, so the table
fails loudly when the code it patches moves.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "perfbench", "pyproject.toml", "BENCHMARK.json")
TIMEOUT = 1800      # seconds per check run


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str       # relative to src/sits_ssm
    old: str
    new: str


MUTANTS = [
    Mutant("scan_no_a_series", "ssm.py",
           "_GA_SERIES_SWITCH = 1e-3", "_GA_SERIES_SWITCH = 0"),
    Mutant("scan_trajectory_off_by_one", "ssm.py",
           "np.matmul(hs[t + 1], gy[:, :, None], out=gc[t][:, :, None])",
           "np.matmul(hs[t], gy[:, :, None], out=gc[t][:, :, None])"),
    Mutant("adam_no_bias_correction", "trainer.py",
           "m_hat = self.m[i] / (1 - BETA1 ** k)\n"
           "            v_hat = self.v[i] / (1 - BETA2 ** k)",
           "m_hat = self.m[i]\n            v_hat = self.v[i]"),
    Mutant("ramp_reversed", "losses.py",
           "ramp = np.cumsum(valid_mask, axis=1) / counts[:, None]",
           "ramp = (counts[:, None] + 1 - np.cumsum(valid_mask, axis=1)) / counts[:, None]"),
    Mutant("ignore_labels_scored", "losses.py",
           "keep = ~np.isin(lab, list(ignore_labels)) if ignore_labels else None",
           "keep = None"),
    Mutant("temporal_maxpool_unmasked", "model.py",
           "ad.max_over_axis(encoded, axis=1, mask=pixel_mask)",
           "ad.max_over_axis(encoded, axis=1, mask=np.ones_like(pixel_mask))"),
    Mutant("max_over_axis_mask_ignored", "autodiff.py",
           "work = np.where(mask, x.data, -np.inf)", "work = x.data"),
    Mutant("bn_running_var_biased", "autodiff.py",
           "running_var += _BN_MOMENTUM * (var * m / max(m - 1, 1))",
           "running_var += _BN_MOMENTUM * var"),
    Mutant("matmul_weight_grad_transposed", "autodiff.py",
           "return (g2 @ w.data.T).reshape(x.shape), gw",
           "return (g2 @ w.data.T).reshape(x.shape), gw.T.reshape(gw.shape)"),
    Mutant("conv_bias_grad_dropped", "autodiff.py",
           "return gx, gw, gmat.sum(axis=(0, 2))", "return gx, gw, 0 * gmat.sum(axis=(0, 2))"),
    Mutant("depthwise_bias_grad_dropped", "autodiff.py",
           "return gx, gw, g.sum(axis=(0, 1))", "return gx, gw, 0 * g.sum(axis=(0, 1))"),
    Mutant("chunk_bounds_drop_last", "pool.py",
           "for s in range(0, n, size)]", "for s in range(0, n - 1, size)]"),
    Mutant("max_rel_diff_outputs_only", "verify.py",
           "zip(gots, refs, strict=True)", "zip(gots[:1], refs[:1])"),
    Mutant("two_wave_block_records", "ssm.py",
           "taped = keep and len(bounds) <= pool.worker_count()",
           "taped = keep and len(bounds) <= pool.worker_count() + 1"),
]


def apply(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's one occurrence of ``old`` replaced."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.file} holds its patch {count} times, not once")
    return text.replace(mutant.old, mutant.new)


def _run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT)


def check(tree: Path, mutant: Mutant) -> dict:
    """The fast subset's first failure and ``verify``'s failing rows, on a
    copy of ``tree`` with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = tree / name
            if src.is_dir():
                shutil.copytree(src, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".perfbench_*"))
            else:
                shutil.copy(src, work / name)
        target = work / "src" / "sits_ssm" / mutant.file
        target.write_text(apply(target.read_text(), mutant))
        # test_mutants checks the unpatched sources, so a patched copy fails it
        tests = _run([sys.executable, "-m", "pytest", "-x", "-q", "-m", "not slow",
                      "-p", "no:cacheprovider", "--ignore", "tests/test_mutants.py"], work)
        verify = _run([sys.executable, "-m", "sits_ssm", "verify"], work)
    failed = [line.split()[1] for line in tests.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if tests.returncode != 0 and not failed:
        failed = [f"pytest exit {tests.returncode}"]
    rows = [" ".join(line.split()[:2]) for line in verify.stdout.splitlines()
            if line.endswith(" FAIL")]
    if verify.returncode not in (0, 3):
        rows = [f"verify exit {verify.returncode}"]
    return {"tests": failed[:1], "verify": rows}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=Path, default=ROOT, help="checkout to mutate (default: this one)")
    p.add_argument("names", nargs="*", help="mutant names (default: all)")
    args = p.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    if len(chosen) != len(args.names or MUTANTS):
        p.error("unknown mutant name")
    survivors = 0
    print("| Mutant | Caught | First failing test | Failing verify rows |")
    print("|---|---|---|---|")
    for m in chosen:
        t0 = time.time()
        got = check(args.tree.resolve(), m)
        caught = bool(got["tests"] or got["verify"])
        survivors += not caught
        print(f"| {m.name} | {'yes' if caught else '**no**'} | {', '.join(got['tests']) or '-'} "
              f"| {', '.join(got['verify']) or '-'} |  <!-- {time.time() - t0:.0f} s -->",
              flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
