"""Shared test helpers: brute-force and population oracles, loop oracles of
the permutation draw and the edge-list writer, random geometry, and a pin
to one CPU."""

import os
from contextlib import contextmanager

import numpy as np
from scipy.stats import ortho_group

from rdpgtest.mmd import gram


def kernel_eval(spec, x, y):
    """``k(x, y)`` for two points of the same dimension."""
    return float(gram(spec, np.ravel(x), np.ravel(y))[0, 0])


def population_mmd(spec, f, g):
    """Exact population MMD^2 of two point-mass mixtures: three finite sums."""
    return float(
        f.weights @ gram(spec, f.atoms, f.atoms) @ f.weights
        - 2.0 * f.weights @ gram(spec, f.atoms, g.atoms) @ g.weights
        + g.weights @ gram(spec, g.atoms, g.atoms) @ g.weights
    )


def loop_u(spec, x, y):
    """Triple-loop unbiased statistic, independent of the vectorized path."""
    n, m = len(x), len(y)
    sxx = sum(kernel_eval(spec, x[i], x[j]) for i in range(n) for j in range(n) if i != j)
    sxy = sum(kernel_eval(spec, x[i], y[k]) for i in range(n) for k in range(m))
    syy = sum(kernel_eval(spec, y[k], y[l]) for k in range(m) for l in range(m) if k != l)
    return sxx / (n * (n - 1)) - 2.0 * sxy / (n * m) + syy / (m * (m - 1))


def loop_v(spec, x, y):
    """Triple-loop plug-in statistic."""
    n, m = len(x), len(y)
    sxx = sum(kernel_eval(spec, x[i], x[j]) for i in range(n) for j in range(n))
    sxy = sum(kernel_eval(spec, x[i], y[k]) for i in range(n) for k in range(m))
    syy = sum(kernel_eval(spec, y[k], y[l]) for k in range(m) for l in range(m))
    return sxx / n**2 - 2.0 * sxy / (n * m) + syy / m**2


def loop_draw(drawn, n, permutations, rng):
    """One ``rng.permutation`` per round, each scattered into the packed
    bits ``drawn``: the oracle of ``testing._draw``."""
    total = drawn.shape[0]
    for b in range(permutations):
        drawn[rng.permutation(total)[:n], b >> 3] |= 128 >> (b & 7)


def format_edge_list(graph):
    """The edge-list text of ``graph``, one ``str.format`` per edge: the
    oracle of ``io.write_edge_list``."""
    u, v = np.nonzero(np.triu(graph.adjacency, 1))
    return f"# vertices: {graph.n}\n" + "".join(map("{} {}\n".format, u.tolist(), v.tolist()))


def edge_pairs(graph):
    """Edges of a graph as (i, j) pairs with i < j, in row-major order."""
    i, j = np.nonzero(np.triu(graph.adjacency, k=1))
    return list(zip(i.tolist(), j.tolist()))


def random_orthogonal(d, rng):
    if d == 1:
        return np.array([[1.0 if rng.random() < 0.5 else -1.0]])
    return ortho_group.rvs(d, random_state=rng)


def random_cloud(n, d, rng, scale=None):
    """Points in the nonnegative orthant with pairwise inner products in [0, 1]."""
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    return scale * rng.random((n, d))


@contextmanager
def one_cpu():
    """The calling thread pinned to one of its CPUs, and with it every
    thread it starts meanwhile (a thread inherits its creator's affinity);
    the affinity is restored on leaving. Needs ``os.sched_setaffinity``."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)
