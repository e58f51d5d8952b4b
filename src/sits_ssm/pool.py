"""The package's one thread pool, and the chunk protocol on it.

``ssm.MambaBlock`` splits pixel sequences, and ``autodiff.conv2d`` and
``autodiff.conv_bn_relu`` split frames: each cuts its leading axis with
``_chunk_bounds`` under a byte budget of its own and runs one task per
chunk, with ``_map`` where each task writes its own slice, and with
``_map_sum`` where the tasks return partial gradients to be added up.
``_map_sum`` adds each partial into the first chunk's as soon as it and
every earlier one are done, and keeps no more than one task per worker
ahead of the adds, so about one partial per worker is alive at a time,
not one per chunk. The pool is created at first use, with one worker per
CPU the process may run on; numpy releases the GIL inside its kernels.
Chunk boundaries depend only on the item count and the budget, never on
the number of workers, and the partials are added in chunk order, so
results are bitwise identical for any worker count.

This module imports nothing from the package.
"""

from __future__ import annotations

import collections
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


def _map_sum(fn, items: list) -> list:
    """The chunk-order sums of fn(item) over the items, run on the pool; a
    single item runs inline.

    Each fn(item) is a list of arrays, and each array is added in place into
    the first item's as soon as it and every earlier item are done, so the
    sums do not depend on which thread made which part. Besides the task
    whose part is added next, at most one task per worker is submitted, so
    no more than workers + 1 results are alive besides the sums, however
    many items there are. Tasks run as in ``_map``.
    """
    if len(items) == 1:
        return fn(items[0])
    ctx, ahead = contextvars.copy_context(), worker_count()
    todo = collections.deque()
    sums = None

    def add_next():
        nonlocal sums
        parts = todo.popleft().result()
        if sums is None:
            sums = parts
        else:
            for total, part in zip(sums, parts):
                total += part

    for item in items:
        todo.append(_pool().submit(ctx.copy().run, fn, item))
        if len(todo) > ahead:
            add_next()
    while todo:
        add_next()
    return sums
