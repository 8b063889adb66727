"""Latent-position distributions and random dot product graph sampling.

A random dot product graph draws a latent position ``X_i`` in ``R^d`` for
every vertex and then connects vertices ``i < j`` independently with
probability ``alpha * <X_i, X_j>``, where ``alpha`` in ``(0, 1]`` is an
optional sparsity factor. Distributions must therefore be supported on a
set whose pairwise inner products lie in ``[0, 1]``. This module provides
the distribution families used throughout the package, the graph
container, and a diagnostic for the distinct-eigenvalue condition that
spectral embedding relies on.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .embed import ase
from .errors import InvalidDistributionError, ModelError, NotPositiveSemidefiniteError
from .streams import as_points, check_count, check_generator

__all__ = [
    "LatentDistribution",
    "PointMassMixture",
    "DirichletLatent",
    "UniformBox",
    "LogitNormalMixture",
    "DegreeCorrected",
    "Graph",
    "MomentDiagnostic",
    "sbm_to_latent",
    "sample_latent",
    "sample_rdpg",
    "edge_prob_matrix",
    "check_moment_assumption",
    "second_moment_matrix",
]

_WEIGHT_TOL = 1e-12
_ATOM_TOL = 1e-10
_PSD_TOL = 1e-10
_MAX_RETRIES = 100


def _finite(values, name):
    """``values`` as a float array, refused, naming ``name``, unless every
    entry is finite: a nan passes every range check made with < and >."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise InvalidDistributionError(f"{name} must be finite")
    return values


def _check_weights(weights):
    weights = _finite(weights, "weights")
    if weights.ndim != 1 or weights.size == 0:
        raise InvalidDistributionError("weights must be a nonempty vector")
    if np.any(weights < 0):
        raise InvalidDistributionError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
        raise InvalidDistributionError(
            f"weights must sum to 1 within {_WEIGHT_TOL:g}, got {weights.sum()!r}"
        )
    return weights


class LatentDistribution:
    """Base class for latent-position distributions.

    Subclasses implement ``_draw`` (raw i.i.d. rows) and may override
    ``_rows_valid`` when the support cannot be certified analytically; rows
    failing the check are resampled up to a retry cap.
    """

    kind = "latent"

    @property
    def d(self):
        raise NotImplementedError

    def _draw(self, n, rng):
        raise NotImplementedError

    def _rows_valid(self, x):
        return np.ones(x.shape[0], dtype=bool)

    def sample(self, n, rng):
        """Draw ``n`` i.i.d. rows, rejecting rows that could leave [0, 1]."""
        x = self._draw(n, rng)
        bad = ~self._rows_valid(x)
        tries = 0
        while bad.any():
            tries += 1
            if tries > _MAX_RETRIES:
                raise InvalidDistributionError(
                    f"{self.kind}: could not draw valid latent positions after "
                    f"{_MAX_RETRIES} retries; the distribution can produce inner "
                    "products outside [0, 1]"
                )
            x[bad] = self._draw(int(bad.sum()), rng)
            bad = ~self._rows_valid(x)
        return x

    def second_moment(self):
        """Analytic ``E[X X^T]`` when available, else None."""
        return None


@dataclass(eq=False)
class PointMassMixture(LatentDistribution):
    """Finite mixture of point masses at ``atoms`` with mixing ``weights``."""

    atoms: np.ndarray
    weights: np.ndarray

    kind = "point_mass_mixture"

    def __post_init__(self):
        self.atoms = _finite(as_points(self.atoms, "atoms"), "atoms")
        self.weights = _check_weights(self.weights)
        if self.atoms.shape[0] != self.weights.shape[0]:
            raise InvalidDistributionError(
                f"{self.atoms.shape[0]} atoms but {self.weights.shape[0]} weights"
            )
        products = self.atoms @ self.atoms.T
        if products.min() < -_ATOM_TOL or products.max() > 1.0 + _ATOM_TOL:
            raise InvalidDistributionError(
                "atom inner products must lie in [0, 1]; range is "
                f"[{products.min():.3g}, {products.max():.3g}]"
            )

    @property
    def d(self):
        return self.atoms.shape[1]

    def _draw(self, n, rng):
        idx = rng.choice(self.atoms.shape[0], size=n, p=self.weights)
        return self.atoms[idx].copy()

    def second_moment(self):
        return self.atoms.T @ (self.weights[:, None] * self.atoms)


@dataclass(eq=False)
class DirichletLatent(LatentDistribution):
    """Dirichlet distribution on the unit simplex in ``R^d``."""

    concentration: np.ndarray

    kind = "dirichlet"

    def __post_init__(self):
        self.concentration = _finite(self.concentration, "concentration")
        if self.concentration.ndim != 1 or self.concentration.size < 1:
            raise InvalidDistributionError("concentration must be a vector of length >= 1")
        if np.any(self.concentration <= 0):
            raise InvalidDistributionError("concentration entries must be > 0")

    @property
    def d(self):
        return self.concentration.size

    def _draw(self, n, rng):
        return rng.dirichlet(self.concentration, size=n)

    def _rows_valid(self, x):
        # Simplex points have inner products in [0, 1] automatically.
        return (x >= 0).all(axis=1) & (x.sum(axis=1) <= 1.0 + 1e-9)

    def second_moment(self):
        a = self.concentration
        a0 = a.sum()
        return (np.outer(a, a) + np.diag(a)) / (a0 * (a0 + 1.0))


@dataclass(eq=False)
class UniformBox(LatentDistribution):
    """Uniform distribution on an axis-aligned box with nonnegative corners."""

    lower: np.ndarray
    upper: np.ndarray

    kind = "uniform_box"

    def __post_init__(self):
        self.lower = _finite(self.lower, "lower")
        self.upper = _finite(self.upper, "upper")
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise InvalidDistributionError("lower and upper must be vectors of equal length")
        if np.any(self.lower < 0):
            raise InvalidDistributionError("box must lie in the nonnegative orthant")
        if np.any(self.upper < self.lower):
            raise InvalidDistributionError("upper bounds must dominate lower bounds")
        top = float(self.upper @ self.upper)
        if top > 1.0 + _ATOM_TOL:
            raise InvalidDistributionError(
                f"<upper, upper> = {top:.6g} > 1; box corners leave [0, 1]"
            )

    @property
    def d(self):
        return self.lower.size

    def _draw(self, n, rng):
        return self.lower + (self.upper - self.lower) * rng.random((n, self.d))

    def second_moment(self):
        mean = 0.5 * (self.lower + self.upper)
        m = np.outer(mean, mean)
        lo, up = self.lower, self.upper
        np.fill_diagonal(m, (lo * lo + lo * up + up * up) / 3.0)
        return m


@dataclass(eq=False)
class LogitNormalMixture(LatentDistribution):
    """Mixture of coordinatewise logit-normal distributions.

    Each row draws a component ``k``, samples ``z ~ N(means[k], covs[k])``,
    maps it through the logistic function ``1 / (1 + exp(-z))`` coordinate
    by coordinate, and multiplies by ``scale``. The default scale
    ``1/sqrt(d)`` keeps all inner products inside [0, 1]; larger scales are
    allowed but rows are then subject to rejection at sampling time.
    """

    means: np.ndarray
    covs: np.ndarray
    weights: np.ndarray
    scale: float | None = None

    kind = "logit_normal_mixture"

    def __post_init__(self):
        self.means = _finite(as_points(self.means, "means"), "means")
        self.covs = _finite(self.covs, "covs")
        if self.covs.ndim == 2:
            self.covs = self.covs[None, :, :]
        self.weights = _check_weights(self.weights)
        k, d = self.means.shape
        if self.covs.shape != (k, d, d):
            raise InvalidDistributionError(
                f"covs must have shape ({k}, {d}, {d}), got {self.covs.shape}"
            )
        if self.weights.shape[0] != k:
            raise InvalidDistributionError(f"{k} components but {self.weights.shape[0]} weights")
        if np.max(np.abs(self.covs - np.swapaxes(self.covs, 1, 2))) > 1e-10:
            raise InvalidDistributionError("covariance matrices must be symmetric")
        if self.scale is None:
            self.scale = 1.0 / np.sqrt(d)
        if not 0 < self.scale < np.inf:
            raise InvalidDistributionError(f"scale must be finite and > 0, got {self.scale}")

    @property
    def d(self):
        return self.means.shape[1]

    def _draw(self, n, rng):
        comp = rng.choice(self.means.shape[0], size=n, p=self.weights)
        z = np.empty((n, self.d))
        for k in range(self.means.shape[0]):
            mask = comp == k
            if mask.any():
                z[mask] = rng.multivariate_normal(
                    self.means[k], self.covs[k], size=int(mask.sum())
                )
        return self.scale / (1.0 + np.exp(-z))

    def _rows_valid(self, x):
        # Coordinates lie in (0, scale); the worst partner in the support is
        # the corner scale * (1, ..., 1).
        return x @ np.full(self.d, self.scale) <= 1.0


@dataclass(eq=False)
class DegreeCorrected(LatentDistribution):
    """Degree-corrected blockmodel positions ``X = theta * nu``.

    ``nu`` is drawn from a point-mass mixture of directions and ``theta``
    uniformly from ``[theta_low, theta_high]`` inside ``(0, 1]``.
    """

    directions: PointMassMixture
    theta_low: float = 1.0
    theta_high: float = 1.0

    kind = "degree_corrected"

    def __post_init__(self):
        if not isinstance(self.directions, PointMassMixture):
            raise InvalidDistributionError("directions must be a PointMassMixture")
        if not 0.0 < self.theta_low <= self.theta_high <= 1.0:
            raise InvalidDistributionError(
                f"need 0 < theta_low <= theta_high <= 1, got "
                f"[{self.theta_low}, {self.theta_high}]"
            )

    @property
    def d(self):
        return self.directions.d

    def _draw(self, n, rng):
        nu = self.directions._draw(n, rng)
        theta = rng.uniform(self.theta_low, self.theta_high, size=n)
        return theta[:, None] * nu

    def second_moment(self):
        a, b = self.theta_low, self.theta_high
        return (a * a + a * b + b * b) / 3.0 * self.directions.second_moment()


@dataclass(eq=False, frozen=True)
class Graph:
    """Simple undirected graph held as a dense symmetric 0/1 matrix.
    The field and the stored int8 matrix are read-only, and
    ``np.asarray(graph)`` is a writable copy of it, so ``ase(graph, d)``
    works and no caller can change a checked graph."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ModelError(f"adjacency must be square, got shape {a.shape}")
        if not np.array_equal(a, a.T):
            raise ModelError("adjacency must be symmetric")
        if np.any(np.diagonal(a) != 0):
            raise ModelError("adjacency must have a zero diagonal (no self-loops)")
        if not ((a == 0) | (a == 1)).all():
            raise ModelError("adjacency entries must be 0 or 1")
        a = a.astype(np.int8)
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self):
        return self.adjacency.shape[0]

    @property
    def edge_count(self):
        return int(self.adjacency.sum()) // 2

    def __array__(self, dtype=None, copy=None):
        # NumPy 1.x passes no ``copy``; NumPy 2 passes False to forbid one.
        if copy is False:
            raise ValueError("np.asarray(graph) always copies the adjacency")
        return np.array(self.adjacency, dtype=dtype)


def as_graph(adjacency):
    """``adjacency`` if it is a :class:`Graph`, else a :class:`Graph` of it, checked as built."""
    return adjacency if isinstance(adjacency, Graph) else Graph(adjacency)


@dataclass(eq=False)
class MomentDiagnostic:
    """Eigenvalues of the empirical second-moment matrix and their minimum gap."""

    eigenvalues: np.ndarray
    gap: float
    gap_tol: float
    flagged: bool = field(default=False)


def sbm_to_latent(block_probabilities, weights):
    """Convert a positive semidefinite blockmodel to a point-mass mixture.

    A stochastic blockmodel with ``K`` blocks, symmetric block-probability
    matrix ``B`` and block membership probabilities ``rho`` is the random
    dot product graph whose latent positions are a ``K``-component mixture
    of point masses ``nu_k`` with ``<nu_k, nu_l> = B_kl``. The atoms are
    the rows of the spectral embedding (:func:`~rdpgtest.embed.ase`) of
    ``B`` into its numerical rank, with its sign convention.

    Parameters
    ----------
    block_probabilities : (K, K) array_like
        Symmetric matrix with entries in [0, 1]; must be positive
        semidefinite up to a -1e-10 eigenvalue tolerance.
    weights : (K,) array_like
        Block membership probabilities.

    Returns
    -------
    PointMassMixture
        Atoms live in ``R^r`` where ``r`` is the numerical rank of ``B``.
    """
    b = np.atleast_2d(np.asarray(block_probabilities, dtype=float))
    if b.shape[0] != b.shape[1]:
        raise ValueError(f"block matrix must be square, got shape {b.shape}")
    if np.max(np.abs(b - b.T)) > 1e-12:
        raise ValueError("block matrix must be symmetric")
    if not ((b >= 0) & (b <= 1)).all():  # nan fails both
        raise ValueError("block probabilities must lie in [0, 1]")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (b.shape[0],):
        raise ValueError(
            f"need {b.shape[0]} weights for a {b.shape[0]}-block model, got {weights.shape}"
        )
    vals = np.linalg.eigvalsh(b)[::-1]
    if vals[-1] < -_PSD_TOL:
        raise NotPositiveSemidefiniteError(
            f"block matrix has eigenvalue {vals[-1]:.3g} < -{_PSD_TOL:g}"
        )
    cutoff = _PSD_TOL * max(vals[0], 0.0)
    rank = max(int(np.sum(vals > cutoff)), 1)
    return PointMassMixture(ase(b, rank).coordinates, weights)


def sample_latent(dist, n, rng):
    """Sample an ``(n, d)`` array of ``n`` i.i.d. latent positions from ``dist``.

    Deterministic given the state of ``rng``, a ``numpy.random.Generator``
    (:func:`~rdpgtest.streams.check_generator`); rows that could produce inner
    products outside [0, 1] are resampled up to 100 times, after
    which an :class:`InvalidDistributionError` names the offending variant.
    """
    return dist.sample(check_count(n, "n"), check_generator(rng))


def check_sparsity(value, name="sparsity"):
    """The one rule for a sparsity factor ``alpha``: a known number in (0, 1]."""
    if value is None or not 0.0 < value <= 1.0:
        raise ModelError(f"{name} must lie in (0, 1], got {value}")
    return value


def edge_prob_matrix(latent, sparsity=1.0):
    """Edge-probability matrix ``alpha * X X^T`` with bounds verification.

    Raises :class:`ModelError` if any entry leaves [0, 1] beyond 1e-12
    roundoff; probabilities are never clamped silently.
    """
    x = as_points(latent, "latent")
    p = x @ x.T
    p *= check_sparsity(sparsity)
    lo, hi = float(p.min(initial=np.inf)), float(p.max(initial=-np.inf))  # no rows: none to check
    if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):  # nan fails both
        raise ModelError(f"edge probabilities span [{lo:.6g}, {hi:.6g}], outside [0, 1]")
    return p


def sample_rdpg(latent, sparsity=1.0, rng=None):
    """Sample an adjacency matrix from latent positions.

    Entries above the diagonal are independent Bernoulli draws with
    parameters ``alpha * <X_i, X_j>``, mirrored below; the diagonal is zero.
    One uniform draw serves all ``n(n-1)/2`` pairs, row by row: pair
    ``(i, j)`` with ``i < j`` is an edge when its draw is below ``p[i, j]``.
    Each row's comparison is written straight into a boolean adjacency,
    so the draw and the probabilities are the only float arrays. They are
    freed before the graph is checked and copied: a copy made above them
    would hold malloc's heap at their size after they are gone. ``rng``
    must be a ``numpy.random.Generator``, checked first.
    """
    check_generator(rng)
    x = as_points(latent, "latent")
    p = edge_prob_matrix(x, sparsity)
    n = x.shape[0]
    u = rng.random(n * (n - 1) // 2)
    a = np.zeros((n, n), dtype=bool)
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        np.less(u[start:stop], p[i, i + 1:], out=a[i, i + 1:])
        start = stop
    del p, u
    a |= a.T
    return Graph(a)


def check_moment_assumption(latent, gap_tol=1e-3):
    """Diagnose the distinct-eigenvalue condition on ``X^T X / n``.

    Spectral embeddings of two graphs are only commensurate when the
    population second-moment matrix has ``d`` distinct eigenvalues. This
    returns the empirical eigenvalues in descending order together with the
    minimum consecutive gap, flagging (never raising) when the gap falls
    below ``gap_tol`` or is nan (positions that are not finite). ``gap_tol``
    is a real number >= 0, not a bool: a nan one would never flag.
    """
    if isinstance(gap_tol, bool) or not isinstance(gap_tol, numbers.Real) or not gap_tol >= 0:
        raise ValueError(f"gap_tol must be a number >= 0, got {gap_tol!r}")
    x = as_points(latent, "latent")
    n, d = x.shape
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    vals = np.linalg.eigvalsh(x.T @ x / n)[::-1]
    gap = float(np.min(-np.diff(vals))) if d > 1 else np.inf
    return MomentDiagnostic(vals, gap, gap_tol, flagged=not gap >= gap_tol)


def second_moment_matrix(dist, rng=None, surrogate_size=10**6):
    """Population second-moment matrix ``E[X X^T]``.

    Analytic for every variant except the logit-normal mixture, which falls
    back to a Monte Carlo surrogate of ``surrogate_size`` draws (an rng is
    then required).
    """
    exact = dist.second_moment()
    if exact is not None:
        return exact
    if rng is None:
        raise ValueError(f"{dist.kind} has no analytic second moment; supply an rng")
    x = dist.sample(check_count(surrogate_size, "surrogate_size"), rng)
    return x.T @ x / surrogate_size
