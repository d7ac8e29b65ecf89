"""Map a function over independent items on one forked worker per usable core.

The callers' units of work (the windows of a record, the trees of a forest)
each read only their own inputs, so spreading them over processes changes
no result bit. Workers are forked: the function and the items, and whatever
the function reads (records, segments, the training matrix), reach them by
inheritance and are never pickled. A task is a pair of chunk bounds, and
only the results come back.

The worker count is the number of CPUs this process may run on
(``os.sched_getaffinity``), capped at the number of items. At one worker the
map runs in-process, so ``taskset -c 0`` gives the serial path. The map also
runs in-process when the caller has started threads, because a forked child
inherits only the forking thread and may find another thread's lock held,
and in a daemonic process (a ``multiprocessing.Pool`` worker, say), which
may not start children.
"""

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

# Contiguous chunks per worker: more than one, so a worker that finishes a
# cheap chunk (say, rejected windows) takes the next one instead of idling.
CHUNKS_PER_WORKER = 4

# (fn, items) inside a worker, set by the pool's initializer; None in the
# calling process, which never writes it.
_work = None


def _install(fn, items) -> None:
    global _work
    _work = (fn, items)


def _run_chunk(lo: int, hi: int) -> list:
    fn, items = _work
    return [fn(items[i]) for i in range(lo, hi)]


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, in order, over forked workers.

    ``items`` is a sequence (indexable, with a length). An exception raised
    by ``fn`` reaches the caller with its type and message; a worker that
    dies raises ``concurrent.futures.process.BrokenProcessPool``. Every
    worker has exited when this returns or raises.
    """
    workers = min(len(os.sched_getaffinity(0)), len(items))
    if workers <= 1 or threading.active_count() > 1 or multiprocessing.current_process().daemon:
        return [fn(item) for item in items]
    n_chunks = min(len(items), workers * CHUNKS_PER_WORKER)
    edges = [len(items) * k // n_chunks for k in range(n_chunks + 1)]
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install,
        initargs=(fn, items),
    )
    try:
        futures = [pool.submit(_run_chunk, lo, hi) for lo, hi in zip(edges, edges[1:])]
        return [result for future in futures for result in future.result()]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
