"""When independent pieces of one computation may run on threads.

numpy releases the interpreter lock inside its array loops and inside
LAPACK/BLAS calls on large enough operands, so threads can overlap two
curves' eigen-solves or two blocks of pattern rows. They only help when BLAS
itself is pinned to one thread: a multi-threaded BLAS already spreads each
call over the cores, and extra Python threads then contend with its threads.
In-process A/B runs on a shared 2-core x86_64 box (OpenBLAS 0.3.31), each
side forced by replacing the thread rule:
- BLAS pinned, the benchmark's ``pattern`` workload (6 alternating pairs of
  6 s runs, seeds 1-6): 0.96-1.18M directions/s on two threads against
  0.65-0.75M serial;
- BLAS pinned, one rrm+rhs ``stack_mi`` call, 16x16 Rician, 300 trials: in
  four of five batches of 8 alternating pairs, medians of 0.18-0.25 s on
  two threads against 0.30-0.36 s serial; in the fifth, 0.27 s and 0.26 s;
- BLAS unset, the same sweep with two threads forced over the
  multi-threaded BLAS: medians of 0.48-0.50 s against 0.27-0.29 s serial.
So ``workers`` allows more than one thread only when the environment pins
BLAS: ``OPENBLAS_NUM_THREADS``, or ``OMP_NUM_THREADS`` when that is unset,
is ``"1"``. Otherwise every caller keeps its serial loop and starts no pool.

Each piece handed to ``thread_map`` runs unchanged code on data no other
piece writes, so the results carry the same bytes on either path.
"""

from __future__ import annotations

import os


def _blas_pinned() -> bool:
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    if value is None:
        value = os.environ.get("OMP_NUM_THREADS")
    return value == "1"


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers(tasks: int) -> int:
    """Threads for ``tasks`` independent pieces.

    min(tasks, usable CPUs) when the environment pins BLAS to one thread,
    else 1.
    """
    if tasks <= 1 or not _blas_pinned():
        return 1
    return max(1, min(tasks, _cpus()))


def thread_map(fn, items) -> list:
    """``[fn(item) for item in items]``, with the items after the first on worker threads.

    With ``workers(len(items)) == 1`` this is the plain loop. Otherwise the
    first item runs in the calling thread while a pool of ``workers - 1``
    threads takes the rest; every future is read, so an exception raised by
    any item reaches the caller, and the pool is shut down (its threads
    joined) before this returns or raises.
    """
    items = list(items)
    n = workers(len(items))
    if n == 1:
        return [fn(item) for item in items]
    # Imported on first use: it pulls in logging (about 9 ms and 0.6 MB),
    # which a process that never takes the threaded path does not need.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n - 1) as pool:
        futures = [pool.submit(fn, item) for item in items[1:]]
        first = fn(items[0])
        return [first] + [f.result() for f in futures]
