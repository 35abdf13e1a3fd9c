"""Process-parallel sweep runner for placement sweeps and benchmarks.

Simulation sweeps (random ID placements, scheduler grids, benchmark
repetitions) are embarrassingly parallel: each trial is an independent,
deterministic function of its inputs.  :func:`parallel_map` fans such
trials out over a :class:`~concurrent.futures.ProcessPoolExecutor` while
keeping three properties the callers rely on:

* **Determinism** — callers build the full input list (including any
  RNG-derived placements) *before* the fan-out, so serial and parallel
  execution see byte-identical inputs and return identical results in
  the input order.
* **Graceful degradation** — ``processes=None``/``0``/``1`` (and any
  resolution to a single worker) run serially in-process; if the pool
  itself cannot be created or breaks (sandboxes without working
  ``fork``/semaphores, interpreter shutdown), the sweep transparently
  falls back to the serial path instead of failing.
* **Picklability** — workers must be module-top-level functions taking
  one picklable argument.  The placement-sweep workers in
  :mod:`repro.analysis.average_case` follow this shape.

Exceptions raised by the mapped function itself are *not* swallowed:
they propagate from the parallel path exactly as from the serial one.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar, Union

from repro.exceptions import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")

#: Accepted by every ``processes=`` parameter in the analysis layer.
ProcessCount = Union[int, str, None]


def resolve_processes(processes: ProcessCount) -> int:
    """Normalize a ``processes`` argument to a concrete worker count.

    ``None``, ``0``, and ``1`` mean *serial* (one in-process worker);
    ``"auto"`` means one worker per available CPU; any other positive
    int is taken literally.
    """
    if processes is None:
        return 1
    if processes == "auto":
        return max(os.cpu_count() or 1, 1)
    if isinstance(processes, bool) or not isinstance(processes, int):
        raise ConfigurationError(
            f"processes must be a non-negative int, 'auto', or None; "
            f"got {processes!r}"
        )
    if processes < 0:
        raise ConfigurationError(
            f"processes must be a non-negative int, 'auto', or None; "
            f"got {processes!r}"
        )
    return max(processes, 1)


def parallel_map(
    func: Callable[[T], R],
    items: Iterable[T],
    processes: ProcessCount = None,
    chunksize: Optional[int] = None,
) -> List[R]:
    """Map ``func`` over ``items``, optionally across worker processes.

    Args:
        func: A module-top-level (picklable) function of one argument.
        items: The inputs; fully materialized before any fan-out so the
            work list is identical in serial and parallel runs.
        processes: Worker count per :func:`resolve_processes`.
        chunksize: Items handed to a worker per dispatch; defaults to a
            value that gives each worker a few batches.

    Returns:
        ``[func(item) for item in items]``, in input order — the serial
        and parallel paths are observationally identical.
    """
    work = list(items)
    # Never spawn more workers than there are items: a sweep smaller than
    # one shard per worker would fork processes that exit without work,
    # and a single-item sweep must not pay pool startup or pickling at
    # all — it short-circuits to the plain list comprehension.
    workers = min(resolve_processes(processes), len(work))
    if workers <= 1:
        return [func(item) for item in work]
    if chunksize is None:
        chunksize = max(1, len(work) // (workers * 4))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, work, chunksize=chunksize))
    except (OSError, BrokenExecutor, RuntimeError):
        # Pool-level failure (no fork support, missing POSIX semaphores,
        # interpreter teardown): degrade to the serial path, which is
        # defined to produce identical results.
        return [func(item) for item in work]


def shard_evenly(items: Iterable[T], shards: int) -> List[List[T]]:
    """Split ``items`` into at most ``shards`` contiguous, balanced shards.

    The fleet sweep runners use this to shard an instance list across
    processes (each process then advances its shard as one vectorized
    fleet — processes × SIMD rather than processes × scalar).  Shard
    sizes differ by at most one, order is preserved, and empty shards are
    never produced (fewer items than shards yields fewer shards).
    """
    work = list(items)
    if shards < 1:
        raise ConfigurationError(f"shards must be positive, got {shards}")
    shards = min(shards, len(work))
    if shards == 0:
        return []
    base, extra = divmod(len(work), shards)
    out: List[List[T]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(work[start : start + size])
        start += size
    return out
