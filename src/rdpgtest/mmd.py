"""Kernels and kernel two-sample statistics.

The squared maximum mean discrepancy between distributions ``F`` and ``G``
with respect to a kernel ``k`` is

    MMD^2 = E[k(X, X')] - 2 E[k(X, Y)] + E[k(Y, Y')]

with ``X, X' ~ F`` and ``Y, Y' ~ G`` all independent. :func:`u_statistic`
is its unbiased empirical estimate and :func:`v_statistic` the biased
(plug-in) one. Both are plain functions of two point clouds; calibration
against a null hypothesis lives in :mod:`rdpgtest.testing`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSampleError
from .io import _converted
from .streams import as_points

__all__ = [
    "KernelSpec",
    "GaussianKernel",
    "InverseMultiquadricKernel",
    "EnergyKernel",
    "gram",
    "u_statistic",
    "v_statistic",
    "median_heuristic",
]


class KernelSpec:
    """Base class for kernel families usable with the two-sample statistics.

    A family states its formula once, in ``_from_sq``: ``k(x, y)`` from the
    squared distances ``sq`` between the rows of ``a`` and ``b``, given as
    ``(n, 1, d)`` and ``(1, m, d)`` views. ``sq`` is a fresh buffer, so a
    family may evaluate in it and return it.
    """

    name = "kernel"

    def _from_sq(self, sq, a, b):
        raise NotImplementedError

    def pairwise(self, a, b):
        """Kernel matrix with entry ``(i, j) = k(a_i, b_j)``."""
        return self._from_sq(_sq_distances(a, b), a[:, None, :], b[None, :, :])

    def describe(self):
        return self.name


@dataclass(frozen=True)
class GaussianKernel(KernelSpec):
    """Gaussian radial kernel ``exp(-||x - y||^2 / (2 sigma^2))``.

    ``sigma=None`` requests the median heuristic: the bandwidth is resolved
    against the pooled sample by :func:`rdpgtest.testing.two_sample_test`;
    everywhere else :func:`fixed_bandwidth` refuses it.
    """

    sigma: float | None = 0.5

    name = "gaussian"

    def __post_init__(self):
        if self.sigma is not None and not 0.0 < self.sigma < np.inf:
            raise ValueError(f"gaussian bandwidth must be finite and > 0, got {self.sigma}")
        # k(x, x) is nan if 2 sigma^2 underflows; a huge sigma gives inf here, not OverflowError.
        if self.sigma is not None and not 2.0 * self.sigma * self.sigma > 0.0:
            raise ValueError(f"gaussian bandwidth {self.sigma} underflows: 2 sigma^2 is 0")

    def _from_sq(self, sq, a, b):
        fixed_bandwidth(self)
        return np.exp(np.divide(sq, -(2.0 * self.sigma * self.sigma), out=sq), out=sq)

    def describe(self):
        s = "median" if self.sigma is None else f"{self.sigma:g}"
        return f"gaussian(sigma={s})"


@dataclass(frozen=True)
class InverseMultiquadricKernel(KernelSpec):
    """Inverse multiquadric kernel ``(c^2 + ||x - y||^2)^(-beta)``."""

    c: float = 1.0
    beta: float = 0.5

    name = "inverse_multiquadric"

    def __post_init__(self):
        if not (0.0 < self.c < np.inf and 0.0 < self.beta < np.inf):
            raise ValueError(f"c and beta must be finite and > 0, got c={self.c}, beta={self.beta}")
        with np.errstate(divide="ignore", over="ignore"):  # k(x, x) = (c*c)**-beta
            if not 0.0 < np.float64(self.c * self.c) ** -self.beta < np.inf:
                raise ValueError(f"need (c*c)**-beta finite and > 0, got c={self.c}, beta={self.beta}")

    def _from_sq(self, sq, a, b):
        return np.power(np.add(sq, self.c**2, out=sq), -self.beta, out=sq)

    def describe(self):
        return f"inverse_multiquadric(c={self.c:g}, beta={self.beta:g})"


@dataclass(frozen=True)
class EnergyKernel(KernelSpec):
    """Energy-distance kernel ``(||x||^q + ||y||^q - ||x - y||^q) / 2``.

    Characteristic for distributions with finite second moments when
    ``0 < q < 2``. It is not translation invariant and not twice
    differentiable at the origin, so it sits outside the smooth radial
    family the embedding-based convergence guarantees assume; treat it as
    experimental for graph inputs.
    """

    exponent: float = 1.0

    name = "energy"

    def __post_init__(self):
        if not 0.0 < self.exponent < 2.0:
            raise ValueError(f"energy exponent must lie in (0, 2), got {self.exponent}")

    def _from_sq(self, sq, a, b):
        q = self.exponent
        na = np.sum(a * a, axis=-1) ** (q / 2.0)
        nb = np.sum(b * b, axis=-1) ** (q / 2.0)
        return 0.5 * (na + nb - np.sqrt(sq) ** q)

    def describe(self):
        return f"energy(q={self.exponent:g})"


# Entries of the one scratch buffer of a distance block: 96 KB, below the
# 128 KB at which glibc's malloc starts to map blocks afresh. A buffer mapped
# anew on every call page-faults more than the distances cost (a 256 KB one
# gave 128k faults per power_grid op and 0.5 s of its 2.6 s).
_CHUNK_ENTRIES = 12288


def _sq_distances(a, b):
    """Squared Euclidean distances between the rows of ``a`` and ``b``,
    added up column by column in order: the bits of
    ``scipy.spatial.distance.cdist(a, b, "sqeuclidean")``. Rows go in
    chunks through one small buffer, so the result is the only
    ``len(a) x len(b)`` block. A difference is ``a``'s entry copied along
    the row less ``b``'s column: numpy is slow to broadcast a column."""
    out = (np.empty if a.shape[1] else np.zeros)((a.shape[0], b.shape[0]))
    step = max(1, min(_CHUNK_ENTRIES // max(1, len(b)), len(a)))
    term = np.empty((step, b.shape[0]))
    columns = np.ascontiguousarray(b.T)
    for start in range(0, a.shape[0], step):
        block = out[start:start + step]
        for k, column in enumerate(columns):
            diff = term[:block.shape[0]] if k else block
            diff[...] = a[start:start + step, k, None]
            np.subtract(diff, column, out=diff)
            np.multiply(diff, diff, out=diff)
            if k:
                np.add(block, diff, out=block)
    return out


def fixed_bandwidth(kernel):
    """``kernel``, unless it asks for the median bandwidth: that needs one test's pooled rows."""
    if isinstance(kernel, GaussianKernel) and kernel.sigma is None:
        raise ValueError("sigma = median needs the pooled rows of one test; give a number")
    return kernel


KERNEL_KEYS = ("kernel", "sigma", "c", "beta", "q")

_KERNELS = {
    GaussianKernel.name: (GaussianKernel, {"sigma": "sigma"}),
    "imq": (InverseMultiquadricKernel, {"c": "c", "beta": "beta"}),
    InverseMultiquadricKernel.name: (InverseMultiquadricKernel, {"c": "c", "beta": "beta"}),
    EnergyKernel.name: (EnergyKernel, {"q": "exponent"}),
}


def kernel_from_params(params):
    """Kernel named by ``params["kernel"]``, gaussian if absent: ``gaussian``
    (``sigma``: a number or ``median``), ``imq`` or ``inverse_multiquadric``
    (``c``, ``beta``) or ``energy`` (``q``), from a mapping of numbers or
    strings. Absent or None keys keep the kernel's defaults; None if all are.
    A parameter of another kernel is an error."""
    given = {key: str(params[key]).strip() for key in KERNEL_KEYS if params.get(key) is not None}
    if not given:
        return None
    name = given.pop("kernel", GaussianKernel.name)
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel {name!r}")
    kernel, fields = _KERNELS[name]
    for key in given:
        if key not in fields:
            raise ValueError(f"the {name} kernel does not take {key!r}")
    if given.get("sigma") == "median":
        return GaussianKernel(None)
    values = _converted(params, dict.fromkeys(given, float))
    return kernel(**{fields[key]: value for key, value in values.items()})


def gram(spec, a, b):
    """Kernel matrix between the point sets ``a`` (rows) and ``b`` (columns)."""
    a = as_points(a, "a")
    b = as_points(b, "b")
    check_widths(a, b)
    return spec.pairwise(a, b)


def _cross_sum(spec, a, b):
    """Sum of the kernel matrix between the ``(n, d)`` float arrays ``a``
    and ``b`` of one width: the bits of ``gram(spec, a, b).sum()``, with
    no check. :func:`rdpgtest.harness.pairwise_dissimilarity` sums its
    cross blocks here, on a helper thread when it has one; it calls no
    public name, so a tracer that wraps :func:`gram` sees only the calling
    thread."""
    return spec.pairwise(a, b).sum()


def check_widths(a, b):
    """The one width rule of two point sets: rows of one dimension."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")


def off_diagonal_sum(k):
    """Sum of a square kernel matrix without its diagonal."""
    return k.sum() - np.trace(k)


def check_sizes(n, m):
    """The one sample-size rule of the unbiased statistic: ``n, m >= 2``."""
    if n < 2 or m < 2:
        raise InsufficientSampleError(f"need n >= 2 and m >= 2, got n={n}, m={m}")


def u_from_sums(sxx, sxy, syy, n, m):
    """:func:`u_statistic` from the off-diagonal within sums of samples of
    sizes ``n`` and ``m`` and the sum of their cross block; elementwise on arrays."""
    return sxx / (n * (n - 1)) - 2.0 * sxy / (n * m) + syy / (m * (m - 1))


def finite_statistic(u, spec, between=""):
    """``u`` as a float, unless it is not finite: then the kernel (and ``between``) is named."""
    if not np.isfinite(u):
        raise ValueError(f"the statistic{between} is not finite ({u}) under {spec.describe()}")
    return float(u)


def u_statistic(spec, x, y):
    """Unbiased estimate of the squared maximum mean discrepancy.

    Averages the kernel over distinct within-sample pairs and all cross
    pairs::

        sum_{j != i} k(x_i, x_j) / (n (n-1))
        - 2 sum_{i, k} k(x_i, y_k) / (n m)
        + sum_{l != k} k(y_k, y_l) / (m (m-1))

    The result may be negative; values near zero indicate that the two
    samples are indistinguishable under this kernel.

    Parameters
    ----------
    spec : KernelSpec
    x : (n, d) array_like, n >= 2
    y : (m, d) array_like, m >= 2

    Returns
    -------
    float
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    n, m = x.shape[0], y.shape[0]
    check_sizes(n, m)
    sxx = off_diagonal_sum(gram(spec, x, x))
    syy = off_diagonal_sum(gram(spec, y, y))
    return finite_statistic(u_from_sums(sxx, gram(spec, x, y).sum(), syy, n, m), spec)


def v_statistic(spec, x, y):
    """Biased (plug-in) estimate of the squared maximum mean discrepancy.

    Equals the squared RKHS norm of the difference of empirical kernel mean
    embeddings, so it is nonnegative (up to roundoff) for positive
    semidefinite kernels. Needs ``n, m >= 1``; raises if it is not finite.
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    n, m = x.shape[0], y.shape[0]
    if n < 1 or m < 1:
        raise InsufficientSampleError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    kxx = gram(spec, x, x)
    kyy = gram(spec, y, y)
    kxy = gram(spec, x, y)
    return finite_statistic(kxx.sum() / n**2 - 2.0 * kxy.sum() / (n * m) + kyy.sum() / m**2, spec)


def median_heuristic(points):
    """Median pairwise Euclidean distance of a pooled sample.

    Common bandwidth preset for the Gaussian kernel. Raises if fewer than
    two points, if a point is not finite or if the median distance is zero.
    """
    points = as_points(points, "points")
    n = points.shape[0]
    if n < 2:
        raise InsufficientSampleError("median heuristic needs at least 2 points")
    if not np.isfinite(points).all():
        raise ValueError("median heuristic needs finite points")
    # The n(n-1)/2 distances of pdist, copied in from row chunks of the
    # upper triangle; the median then partitions them in place.
    dist = np.empty(n * (n - 1) // 2)
    step, filled = max(1, _CHUNK_ENTRIES // n), 0
    for start in range(0, n - 1, step):
        block = _sq_distances(points[start:start + step], points[start + 1:])
        upper = block[~np.tri(*block.shape, -1, dtype=bool)]
        dist[filled:filled + upper.size] = upper
        filled += upper.size
    med = float(np.median(np.sqrt(dist, out=dist), overwrite_input=True))
    if med <= 0:
        raise ValueError("median pairwise distance is zero; supply sigma explicitly")
    return med
