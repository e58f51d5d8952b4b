"""The package's one thread pool, and the chunk protocol on it.

``ssm.MambaBlock`` splits pixel sequences, and ``autodiff.conv2d`` and
``autodiff.conv_bn_relu`` split frames: each cuts its leading axis with
``_chunk_bounds`` under a byte budget of its own, runs one task per chunk
with ``_map``, and adds the chunks' partial gradients with
``_sum_in_order``. The pool is created at first use, with one worker per
CPU the process may run on; numpy releases the GIL inside its kernels.
Chunk boundaries depend only on the item count and the budget, never on
the number of workers, and the partials are added in chunk order, so
results are bitwise identical for any worker count.

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


def _map(fn, items: list) -> list:
    """[fn(item) for item in items], run on the pool; a single item runs inline.

    Each pool task runs in a copy of the caller's context, so it sees the
    caller's grad mode. A task must not wait on the pool itself: nothing
    below a block chunk or a conv frame chunk asks the pool for work.
    """
    if len(items) == 1:
        return [fn(items[0])]
    ctx = contextvars.copy_context()
    return list(_pool().map(lambda item: ctx.copy().run(fn, item), items))


def _sum_in_order(parts):
    """The sum of the chunks' partial results, added in chunk order into
    the first one, so that it does not depend on which thread made which."""
    total, *rest = parts
    for part in rest:
        total += part
    return total
