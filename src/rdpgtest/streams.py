"""Seeded random-number streams for reproducible, parallelizable simulation.

A master seed plus an integer path (for example ``(grid_index,
replicate_index)``) identifies a statistically independent generator.
Work units keyed by distinct paths can therefore run in any order, or in
parallel, and still produce bit-identical results.
It also holds three shared rules: check_count, check_generator, as_points,
and the one helper thread, helper, that starts only while usable_cores
counts two cores.
"""

import os
from contextlib import contextmanager

import numpy as np

__all__ = ["substream"]


def substream(seed, *path):
    """Return an independent ``numpy.random.Generator`` for ``(seed, *path)``.

    Parameters
    ----------
    seed : int
        Master seed of the experiment or test.
    *path : int
        Optional indices identifying the work unit (grid cell, replicate,
        stage). Distinct paths give independent streams.
    """
    entropy = (check_count(seed, "seed", 0),) + tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def check_count(value, name, minimum=1):
    """The one rule for every count, size and seed: ``value`` is an integer
    >= ``minimum``, not a bool. Returns it as an ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def usable_cores():
    """Cores this process may run on: :func:`helper` starts a thread only
    when there are two."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def helper():
    """A one-thread pool while two cores are usable, else None. Its thread
    starts at the first submit. Leaving the block, by an error too, cancels
    the work still queued and joins the thread."""
    if usable_cores() < 2:
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor  # here: import rdpgtest loads no concurrent

    pool = ThreadPoolExecutor(max_workers=1)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def check_generator(rng):
    """The one rule for a stream passed in by a caller: a
    ``numpy.random.Generator`` (the permutation null draws with
    ``Generator.permuted``, which a legacy ``RandomState`` lacks). Returns it."""
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    return rng


def as_points(x, name):
    """The one rule for an array of points: ``x`` as float64, a ``(d,)``
    point as one row and an ``(n, d)`` array as it is; any other shape is
    refused, naming ``name``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError(f"{name} must be a point or an (n, d) array, got shape {x.shape}")
    return x
