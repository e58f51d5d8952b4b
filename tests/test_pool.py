"""The package's shared thread pool: chunk boundaries, grad mode in its
tasks, chunk-order sums and their memory, and the pool across fork."""

import functools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sits_ssm import autodiff as ad
from sits_ssm import pool

from conftest import bitwise_for_any_worker_count

SRC = Path(__file__).resolve().parents[1] / "src"


def test_chunk_bounds():
    budget = 256 * 2**10
    assert len(pool._chunk_bounds(512, 256 * 16 * 4, budget)) == 32      # 16 per chunk
    assert pool._chunk_bounds(512, 32 * 8 * 4, budget) == [(0, 256), (256, 512)]
    assert pool._chunk_bounds(5, 2**30, budget) == [(i, i + 1) for i in range(5)]
    assert pool._chunk_bounds(3, 1, budget) == [(0, 3)]

@pytest.mark.parametrize("recording", [True, False])
def test_tasks_see_the_callers_grad_mode(recording):
    def task(item):
        return ad.grad_enabled()

    if recording:
        assert pool._map(task, [0, 1, 2]) == [True] * 3
    else:
        with ad.no_grad():
            assert pool._map(task, [0, 1, 2]) == [False] * 3


def test_a_tasks_grad_mode_stays_in_the_task():
    """Each task runs in its own copy of the caller's context: recording
    turned off in one task and never turned back on reaches neither the
    tasks after it on the same worker nor the caller."""
    def task(item):
        seen = ad.grad_enabled()
        ad._GRAD_ENABLED.set(False)
        return seen

    assert pool._map(task, list(range(6))) == [True] * 6
    assert ad.grad_enabled()


def test_map_sum_adds_in_chunk_order_bitwise_for_any_worker_count(monkeypatch):
    """float32 partials whose sum depends on the order of the adds: the
    sums are the left-to-right ones, whichever worker finishes first."""
    rng = np.random.default_rng(0)
    parts = [(rng.normal(0, 1, 64) * 10.0 ** rng.integers(-4, 8, 64)).astype(np.float32)
             for _ in range(9)]
    in_order = functools.reduce(np.add, parts)
    assert not np.array_equal(in_order, functools.reduce(np.add, parts[::-1]))

    def task(i):
        return [parts[i].copy(), -parts[i]]

    sums = bitwise_for_any_worker_count(monkeypatch, lambda: pool._map_sum(task, range(9)))
    assert np.array_equal(sums[0], in_order)
    assert np.array_equal(sums[1], functools.reduce(np.add, [-p for p in parts]))


def test_map_sum_keeps_about_one_partial_per_worker():
    """16 fresh 4 MB partials: summing them as they finish holds the sum
    and the parts of the tasks in flight, never all 16."""
    part_bytes = 4 * 2**20

    def task(i):
        return [np.full(part_bytes // 4, i, np.float32)]

    tracemalloc.start()
    try:
        (total,) = pool._map_sum(task, range(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(total == sum(range(16)))
    assert peak < (pool.worker_count() + 3) * part_bytes


# The parent runs a chunked conv2d, so its pool has live workers, then
# forks. Worker threads do not survive fork: a child that reused the
# parent's pool would queue its chunks for threads that do not exist and
# hang, so the parent kills a child that has not finished in time.
FORKED = textwrap.dedent("""
    import os, signal, sys, time
    import numpy as np
    from sits_ssm import autodiff as ad, ssm
    from sits_ssm.autodiff import Tensor

    ad._CONV_FRAME_BUDGET = 0
    ssm._SCAN_VECTOR_BUDGET = 0
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(0, 1, (6, 3, 5, 5)))
    w = Tensor(rng.normal(0, 1, (4, 3, 3, 3)), requires_grad=True)
    ad.conv2d(x, w)

    pid = os.fork()
    if pid == 0:
        ad.backward(ad.sum_(ad.conv2d(x, w)))
        blk = ssm.MambaBlock(8, 4, rng)
        y = blk(Tensor(rng.normal(0, 1, (5, 4, 8)).astype(np.float32)))
        os._exit(0 if y.shape == (5, 4, 8) and w.grad is not None else 1)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            sys.exit(os.waitstatus_to_exitcode(status))
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    sys.exit("child did not finish")
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_chunked_ops():
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", FORKED], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
