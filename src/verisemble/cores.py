"""How ``run`` shares the cores: one policy for OpenBLAS, frame threads and
the helper threads each frame thread is lent.

``frame_pool(workers)`` holds OpenBLAS, whose count ``n`` is process-wide,
at one thread and lends each frame thread ``max(1, n // workers) - 1``
helpers; ``n`` is one where no OpenBLAS is found. ``_spread`` runs a frame's
conv strips and resize bands on its thread and its helpers. Outputs do not
depend on the split: strips and bands write disjoint rows with bounds that
ignore the thread count, and a GEMM gives the same bits at any BLAS count.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import logging
import os
import threading
from concurrent import futures
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

logger = logging.getLogger(__name__)


def usable_cpus() -> int:
    """The CPUs this process may run on, ``--workers``' default: its
    affinity set where the platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# (get, set) thread-count symbols of numpy wheels' scipy-openblas, then of a
# plain OpenBLAS; ILP64 builds, such as numpy 1.2x wheels', add a ``64_`` suffix.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_api() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The OpenBLAS mapped into this process (per ``/proc/self/maps``) as its
    (get, set) thread-count functions; None where none is found."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    logger.info("BLAS thread count not controlled: no known OpenBLAS symbol found")
    return None


# One record for the pools that overlap in this process: the BLAS count
# saved when the first of them started, and how many are running.
_blas_lock = threading.Lock()
_blas_saved = 0
_blas_pools = 0


@contextmanager
def frame_pool(workers: int) -> Iterator[Executor]:
    """Yield an executor of ``workers`` frame threads, each lent
    ``max(1, n // workers) - 1`` helper threads, with BLAS held at one
    thread inside the block.

    Helper threads start only when first given work. On exit the frame
    threads are joined, then the helpers, and then the last overlapping
    block to finish restores ``n``, also when the block raises.
    """
    global _blas_saved, _blas_pools
    get, put = _blas_thread_api() or (lambda: 1, lambda threads: None)
    with _blas_lock:
        if _blas_pools == 0:
            _blas_saved = get()
        _blas_pools += 1
        lent = max(1, _blas_saved // workers) - 1
        if get() != 1:
            put(1)
    try:
        helpers = ThreadPoolExecutor(max(1, workers * lent), thread_name_prefix="verisemble-helper")
        pool = ThreadPoolExecutor(
            workers, thread_name_prefix="verisemble-frame",
            initializer=_lend_helpers, initargs=(helpers, lent),
        )
        with helpers, pool:
            yield pool
    finally:
        with _blas_lock:
            _blas_pools -= 1
            if _blas_pools == 0 and get() != _blas_saved:
                put(_blas_saved)


# The helper threads lent to this thread, as (executor, how many tasks one
# call may give it); unset on a thread that has none.
_lent = threading.local()


def _lend_helpers(helpers: Executor, count: int) -> None:
    """Let ``_spread`` on this thread give up to ``count`` tasks to ``helpers``."""
    _lent.helpers = (helpers, count) if count > 0 else None


def _spread(fn: Callable, items: Sequence) -> None:
    """Call ``fn`` on every item, on this thread and the helpers lent to it.

    The threads take items from one shared queue until it is empty, so a
    helper that starts late, or not at all, only takes fewer of them. Once
    this thread finds the queue empty it cancels the helper tasks that have
    not started and waits for those that have; an error from any thread is
    raised here. With no helpers lent this is a plain loop.
    """
    helpers = getattr(_lent, "helpers", None)
    if helpers is None or len(items) < 2:
        for item in items:
            fn(item)
        return
    executor, count = helpers
    queue = collections.deque(items)

    def drain() -> None:
        while True:
            try:
                item = queue.popleft()
            except IndexError:
                return
            fn(item)

    tasks: list[Future] = [executor.submit(drain) for _ in range(min(count, len(items) - 1))]
    try:
        drain()
    finally:
        queue.clear()  # after an error here, helpers take nothing more
        started = [task for task in tasks if not task.cancel()]
        futures.wait(started)
    for task in started:
        task.result()
