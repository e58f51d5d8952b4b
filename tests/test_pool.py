"""The package's shared thread pool: chunk boundaries, grad mode in its
tasks, and the pool across fork."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from sits_ssm import autodiff as ad
from sits_ssm import pool

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
