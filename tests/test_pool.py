"""The package's shared thread pool across fork."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

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
        blk = ssm.MambaBlock(ssm.SsmConfig(d_model=8, d_state=4), rng)
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
