import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def f64(rng, *shape, lo=-1.0, hi=1.0, requires_grad=True):
    """Random float64 tensor helper used across the gradient checks."""
    from sits_ssm.autodiff import Tensor
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=requires_grad)


def bitwise_for_any_worker_count(monkeypatch, run):
    """Run ``run()`` on the package pool swapped for pools of 1, 2, 5 and 40
    workers, with ``pool.worker_count`` patched to match (so the block's
    route choice moves too) and a short thread switch interval so that
    chunks interleave. Every array it returns must be float32 and bitwise
    the same on each pool; returns the 1-worker result."""
    from sits_ssm import pool
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 5, 40):
            with ThreadPoolExecutor(workers) as executor:
                monkeypatch.setattr(pool, "_POOL", executor)
                monkeypatch.setattr(pool, "worker_count", lambda w=workers: w)
                results.append(run())
    finally:
        sys.setswitchinterval(interval)
    for other in results[1:]:
        for got, ref in zip(other, results[0]):
            assert got.dtype == np.float32 and np.array_equal(got, ref)
    return results[0]
