"""The worker count, the shared thread pool, and the two ways work runs on it.

Same bytes at any worker count: each caller combines its jobs' results
in a fixed order (``model`` sums shards in block order, ``harness``
collects scoring jobs in batch order), so W changes speed, never a byte,
and the tests set ``WORKERS`` directly.  W = min(MAX_WORKERS, CPUs //
BLAS threads), at least 1, over the CPUs this process may run on; BLAS
threads are the first of BLAS_ENV that is set, else every CPU (also when
unreadable or below 1, as OpenBLAS then starts one per core).
``run_shards`` and ``overlapped`` each return, or raise the first error
in order, only once none of their jobs runs.  The pool is made at first
use, and concurrent.futures is imported only for work on more than one
worker: with its logging import it adds 0.6 MB to every process.
"""

from __future__ import annotations

import os
import threading

# the variables that set each BLAS call's thread count, first match wins
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# most workers: BENCH_10.json measured speed and peak memory only at 2
# (2 CPUs), and more threads contend for the GIL
MAX_WORKERS = 2


def _default_workers() -> int:
    """W by the rule in the module docstring."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas = next((os.environ[v] for v in BLAS_ENV if os.environ.get(v)), "")
    try:
        blas = int(blas)
    except ValueError:
        blas = cpus
    if blas < 1:
        blas = cpus
    return max(1, min(MAX_WORKERS, cpus // blas))


WORKERS = _default_workers()
_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    """The shared executor.  It starts a thread only when no started one
    is idle, so a step of W shards keeps W - 1."""
    global _POOL
    from concurrent.futures import ThreadPoolExecutor
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(os.cpu_count(), "coneighbor-worker")
        return _POOL


def _drop_pool() -> None:
    # a forked child has none of its parent's threads
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _here(fn, *args):
    """fn(*args), called on this thread, as a finished future."""
    from concurrent.futures import Future
    fu = Future()
    try:
        fu.set_result(fn(*args))
    except BaseException as e:      # raised again by _settle
        fu.set_exception(e)
    return fu


def _settle(futures) -> list:
    """Their results, or the first error in list order, once all are done."""
    for fu in futures:
        fu.exception()              # waits, raises nothing
    return [fu.result() for fu in futures]


def run_shards(fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)]: fn(0) on this thread, the rest on the pool.
    Shard 0's error comes first."""
    if n == 1:
        return [fn(0)]
    jobs = [_pool().submit(fn, s) for s in range(1, n)]
    return _settle([_here(fn, 0)] + jobs)


def overlapped(fn, items) -> list:
    """[fn(*x) for x in items].  When WORKERS > 1 each call is a pool job
    that runs while this thread draws the next x, one job at a time; a
    job's error comes before the next draw's."""
    if WORKERS == 1:
        return [fn(*x) for x in items]
    out, jobs, items = [], [], iter(items)
    while True:
        *done, x = _settle(jobs + [_here(next, items, None)])
        out += done
        if x is None:
            return out
        jobs = [_pool().submit(fn, *x)]


class PerThread(threading.local):
    """Scratch buffers, one dict per thread."""

    def __init__(self):
        self.buffers = {}
