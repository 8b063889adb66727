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
from scipy.spatial.distance import cdist, pdist

from .errors import InsufficientSampleError
from . import model as _model

__all__ = [
    "KernelSpec",
    "GaussianKernel",
    "InverseMultiquadricKernel",
    "EnergyKernel",
    "kernel_eval",
    "gram",
    "u_statistic",
    "v_statistic",
    "median_heuristic",
    "MmdEstimate",
    "mmd_population_oracle",
]


class KernelSpec:
    """Base class for kernel families usable with the two-sample statistics.

    A family states its formula once, in ``_from_sq``: ``k(x, y)`` from the
    squared distances ``sq`` between the points ``a`` and ``b``, which hold
    one point per entry of ``sq`` along their last axis.
    """

    name = "kernel"

    def _from_sq(self, sq, a, b):
        raise NotImplementedError

    def pairwise(self, a, b):
        """Kernel matrix with entry ``(i, j) = k(a_i, b_j)``."""
        return self._from_sq(cdist(a, b, "sqeuclidean"), a[:, None, :], b[None, :, :])

    def rowwise(self, a, b):
        """Vector of ``k(a_i, b_i)`` for row-aligned inputs."""
        return self._from_sq(np.sum((a - b) ** 2, axis=1), a, b)

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
        return np.exp(-sq / (2.0 * self.sigma * self.sigma))

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
        return (self.c**2 + sq) ** (-self.beta)

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
    return kernel(**{fields[key]: float(value) for key, value in given.items()})


def _as_points(x, name):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError(f"{name} must be a point or an (n, d) array, got shape {x.shape}")
    return x


def kernel_eval(spec, x, y):
    """Evaluate ``k(x, y)`` for two points of the same dimension."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    return float(spec.pairwise(x[None, :], y[None, :])[0, 0])


def gram(spec, a, b):
    """Kernel matrix between the point sets ``a`` (rows) and ``b`` (columns)."""
    a = _as_points(a, "a")
    b = _as_points(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return spec.pairwise(a, b)


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
    x = _as_points(x, "x")
    y = _as_points(y, "y")
    n, m = x.shape[0], y.shape[0]
    check_sizes(n, m)
    sxx = off_diagonal_sum(gram(spec, x, x))
    syy = off_diagonal_sum(gram(spec, y, y))
    return finite_statistic(u_from_sums(sxx, gram(spec, x, y).sum(), syy, n, m), spec)


def v_statistic(spec, x, y):
    """Biased (plug-in) estimate of the squared maximum mean discrepancy.

    Equals the squared RKHS norm of the difference of empirical kernel mean
    embeddings, so it is nonnegative (up to roundoff) for positive
    semidefinite kernels.
    """
    x = _as_points(x, "x")
    y = _as_points(y, "y")
    n, m = x.shape[0], y.shape[0]
    if n < 1 or m < 1:
        raise InsufficientSampleError("v_statistic needs nonempty samples")
    kxx = gram(spec, x, x)
    kyy = gram(spec, y, y)
    kxy = gram(spec, x, y)
    return float(kxx.sum() / n**2 - 2.0 * kxy.sum() / (n * m) + kyy.sum() / m**2)


def median_heuristic(points):
    """Median pairwise Euclidean distance of a pooled sample.

    Common bandwidth preset for the Gaussian kernel. Raises if fewer than
    two points or if the median distance is zero.
    """
    points = _as_points(points, "points")
    if points.shape[0] < 2:
        raise InsufficientSampleError("median heuristic needs at least 2 points")
    med = float(np.median(pdist(points)))
    if med <= 0:
        raise ValueError("median pairwise distance is zero; supply sigma explicitly")
    return med


@dataclass(frozen=True)
class MmdEstimate:
    """Population MMD^2 estimate with its Monte Carlo standard error."""

    value: float
    standard_error: float
    exact: bool


def mmd_population_oracle(spec, f, g, sample_size, rng=None):
    """Estimate the population squared maximum mean discrepancy of (F, G).

    For two point-mass mixtures the three expectations are finite sums and
    the value is exact. Otherwise a Monte Carlo estimate is formed from
    ``sample_size`` independent draws of the unbiased one-draw kernel
    combination ``k(x, x') + k(y, y') - k(x, y') - k(x', y)``, with the
    standard error of the mean reported.

    Intended as a test oracle rather than production inference.
    """
    exact = isinstance(f, _model.PointMassMixture) and isinstance(g, _model.PointMassMixture)
    if exact:
        kff = gram(spec, f.atoms, f.atoms)
        kgg = gram(spec, g.atoms, g.atoms)
        kfg = gram(spec, f.atoms, g.atoms)
        value = (
            f.weights @ kff @ f.weights
            - 2.0 * f.weights @ kfg @ g.weights
            + g.weights @ kgg @ g.weights
        )
        return MmdEstimate(float(value), 0.0, True)

    if sample_size < 2:
        raise ValueError("sample_size must be >= 2 for Monte Carlo estimation")
    if rng is None:
        raise ValueError("a seeded rng is required for Monte Carlo estimation")
    x1 = f.sample(sample_size, rng)
    x2 = f.sample(sample_size, rng)
    y1 = g.sample(sample_size, rng)
    y2 = g.sample(sample_size, rng)
    h = (
        spec.rowwise(x1, x2)
        + spec.rowwise(y1, y2)
        - spec.rowwise(x1, y2)
        - spec.rowwise(x2, y1)
    )
    value = float(np.mean(h))
    se = float(np.std(h, ddof=1) / np.sqrt(sample_size))
    return MmdEstimate(value, se, False)
