"""The package's one thread pool, and the rule that cuts work into chunks.

``ssm.MambaBlock`` splits pixel sequences and ``autodiff.conv2d`` splits
frames; both cut their leading axis with ``_chunk_bounds`` under a byte
budget of their own and run the chunks with ``_run_chunks`` on the same
pool. The pool is created at first use, with one worker per CPU the
process may run on; numpy releases the GIL inside its kernels. Chunk
boundaries depend only on the item count and the budget, never on the
number of workers, so a caller that computes every chunk the same way and
reduces the chunks in order gets bitwise identical results for any
worker count.

This module imports nothing from the package.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _chunk_bounds(n: int, item_bytes: int, budget: int) -> list[tuple[int, int]]:
    """Split n items into chunks of as many items as fit ``budget`` bytes
    (at least one item, at most n)."""
    size = max(min(budget // item_bytes, n), 1)
    return [(s, min(s + size, n)) for s in range(0, n, size)]


def worker_count() -> int:
    """Workers of the pool: one per CPU the process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=worker_count(), thread_name_prefix="sits_ssm")
        return _POOL


def _forget_pool():
    # worker threads do not survive fork; a child builds its own pool
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_chunks(fn, n_chunks: int):
    """fn(0), ..., fn(n_chunks - 1) on the pool; a single chunk runs inline.

    Each pool task runs in a copy of the caller's context, so it sees the
    caller's grad mode. A task must not wait on the pool itself: nothing
    below a block chunk or a conv2d frame chunk asks the pool for work.
    """
    if n_chunks == 1:
        fn(0)
        return
    ctx = contextvars.copy_context()
    for _ in _pool().map(lambda i: ctx.copy().run(fn, i), range(n_chunks)):
        pass
