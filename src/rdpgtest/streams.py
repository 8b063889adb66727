"""Seeded random-number streams for reproducible, parallelizable simulation.

A master seed plus an integer path (for example ``(grid_index,
replicate_index)``) identifies a statistically independent generator.
Work units keyed by distinct paths can therefore run in any order, or in
parallel, and still produce bit-identical results.
It also holds three shared rules: check_count, check_generator, as_points,
and the one owner of a call's helper thread, helper.
"""

import contextvars
import threading
from collections import namedtuple
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


Helper = namedtuple("Helper", "submit stop")


@contextmanager
def helper():
    """The one helper thread of a call, as ``Helper(submit, stop)``:
    ``submit(fn, *args)`` queues ``fn(*args)``, run in a copy of the
    caller's context (under its ``np.errstate``), and returns its future;
    the thread starts at the first submit. Leaving the block, by an error
    too, sets the event ``stop``, then cancels the jobs still queued and
    joins the thread."""
    from concurrent.futures import ThreadPoolExecutor  # here: import rdpgtest loads no concurrent

    pool, stop = ThreadPoolExecutor(max_workers=1), threading.Event()
    try:
        yield Helper(lambda fn, *args: pool.submit(contextvars.copy_context().run, fn, *args),
                     stop)
    finally:
        stop.set()
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
