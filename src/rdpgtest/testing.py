"""Two-sample hypothesis tests for random dot product graphs.

A test call runs four stages: embed (:func:`_embed`: the spectral
embedding of one graph, then its row normalization), bandwidth
(:func:`_bandwidth`: the median heuristic, when asked for), align
(:func:`_align`: the reflection search, which yields the kernel sums of the
statistic and the pooled kernel matrix) and null (:func:`_null_from_gram`:
the permutation null, from that one matrix). Each input is checked once:
the options by :class:`TestConfig`, sparsity factors by
``model.check_sparsity``, 0/1 entries, a zero diagonal and symmetry by
:class:`~rdpgtest.model.Graph` (an array is made one), ``d`` by ``ase``,
degenerate rows by :func:`preprocess`, ``n, m >= 2`` by ``mmd.check_sizes``,
finite rows by ``_calibrate`` and a finite statistic by
``mmd.finite_statistic``; ``mmd.fixed_bandwidth`` refuses an unresolved median.
The variants are:

``identity``
    Equality of the latent-position distributions up to an orthogonal
    transformation (rows used as embedded).
``scaling``
    Equality up to a global scale factor; each embedding is divided by
    ``n^(-1/2)`` times its Frobenius norm first.
``projection``
    Equality of the direction distributions (degree-corrected models);
    each row is projected onto the unit sphere.
``sparse``
    Identity testing with known sparsity factors; each embedding is
    divided by the square root of its factor.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import mmd
from .embed import ase
from .errors import DegenerateRowError
from .io import _fmt
from .model import as_graph, check_sparsity
from .streams import substream

__all__ = [
    "TestConfig",
    "TestReport",
    "preprocess",
    "permutation_null",
    "p_value",
    "two_sample_test",
    "two_sample_point_test",
]

VARIANTS = ("identity", "scaling", "projection", "sparse")


@dataclass
class TestConfig:
    """Configuration of a two-sample graph test.

    ``sparsity_x`` and ``sparsity_y`` are required exactly when
    ``variant == "sparse"`` (they are the known edge-probability
    multipliers of the two graphs). ``align_reflections`` resolves the
    reflection ambiguity between two independently embedded graphs by
    minimizing the statistic over the 2^d per-column sign patterns of the
    second sample; reflections are orthogonal maps, so every supported
    null hypothesis is unchanged by this search.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    variant: str = "identity"
    d: int = 2
    kernel: mmd.KernelSpec = field(default_factory=mmd.GaussianKernel)
    permutations: int = 200
    alpha_level: float = 0.05
    seed: int = 0
    sparsity_x: float | None = None
    sparsity_y: float | None = None
    eps_floor: float = 1e-6
    align_reflections: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.permutations < 1:
            raise ValueError(f"permutations must be >= 1, got {self.permutations}")
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError(f"alpha_level must lie in (0, 1), got {self.alpha_level}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.eps_floor < 0:
            raise ValueError(f"eps_floor must be >= 0, got {self.eps_floor}")
        if self.variant == "sparse":
            check_sparsity(self.sparsity_x, "sparsity_x")
            check_sparsity(self.sparsity_y, "sparsity_y")


@dataclass(eq=False)
class TestReport:
    """Outcome of a two-sample test."""

    __test__ = False

    statistic: float
    scaled_statistic: float
    p_value: float
    reject: bool
    n: int
    m: int
    rho: float
    variant: str
    kernel: str
    permutations: int
    alpha_level: float
    seed: int
    null_values: np.ndarray
    preprocessing: dict

    def to_dict(self):
        return {
            "statistic": self.statistic,
            "scaled_statistic": self.scaled_statistic,
            "p_value": self.p_value,
            "reject": self.reject,
            "n": self.n,
            "m": self.m,
            "rho": self.rho,
            "variant": self.variant,
            "kernel": self.kernel,
            "B": self.permutations,
            "alpha_level": self.alpha_level,
            "seed": self.seed,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def format_kv(self):
        """Key=value lines, full precision, one field per line."""
        return "\n".join(f"{key}={_fmt(value)}" for key, value in self.to_dict().items())


def preprocess(embedding, variant, *, sparsity=None, eps_floor=TestConfig.eps_floor):
    """Apply the variant-specific normalization to embedded rows.

    Parameters
    ----------
    embedding : Embedding or (n, d) array_like
    variant : str
        One of ``identity``, ``scaling``, ``projection``, ``sparse``.
    sparsity : float, optional
        Known sparsity factor; required for the sparse variant.
    eps_floor : float
        Rows with norm at or below this raise
        :class:`DegenerateRowError` under the projection variant.

    Returns
    -------
    (ndarray, dict)
        The transformed rows and a summary of the factors applied.
    """
    x = getattr(embedding, "coordinates", embedding)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if variant == "identity":
        return x.copy(), {}
    if variant == "scaling":
        s = np.linalg.norm(x) / np.sqrt(x.shape[0])
        if s <= 0:
            raise ValueError("cannot scale an all-zero embedding")
        return x / s, {"scale": float(s)}
    if variant == "projection":
        norms = np.linalg.norm(x, axis=1)
        bad = np.nonzero(norms <= eps_floor)[0]
        if bad.size:
            raise DegenerateRowError(bad.tolist(), eps_floor)
        return x / norms[:, None], {"eps_floor": float(eps_floor)}
    if variant == "sparse":
        return x / np.sqrt(check_sparsity(sparsity)), {"sparsity": float(sparsity)}
    raise ValueError(f"unknown variant {variant!r}")


def permutation_null(pooled, n, m, spec, permutations, rng):
    """Null sample of the statistic under random relabeling of pooled rows.

    For each of ``permutations`` rounds, a uniform random permutation
    assigns the first ``n`` pooled rows to a pseudo first sample and the
    remaining ``m`` to a pseudo second sample, and the unbiased two-sample
    statistic is recorded. The kernel matrix of the pool is computed once;
    each round only re-aggregates its entries. Deterministic given ``rng``.
    :func:`two_sample_test` draws the same null from the one kernel matrix
    that also serves its reflection search and statistic.

    Returns
    -------
    (permutations,) ndarray
    """
    pooled = np.atleast_2d(np.asarray(pooled, dtype=float))
    total = pooled.shape[0]
    mmd.check_sizes(n, m)
    if n + m != total:
        raise ValueError(f"pool has {total} rows but n + m = {n + m}")
    if permutations < 1:
        raise ValueError(f"permutations must be >= 1, got {permutations}")
    return _null_from_gram(mmd.gram(spec, pooled, pooled), n, m, permutations, rng)


def _null_from_gram(k, n, m, permutations, rng):
    """:func:`permutation_null` on the pooled kernel matrix ``k``."""
    total = n + m
    diag = np.diagonal(k).copy()
    row_sums = k.sum(axis=1)
    total_off = float(k.sum() - diag.sum())

    z = np.zeros((total, permutations))
    for b in range(permutations):
        z[rng.permutation(total)[:n], b] = 1.0

    quad = np.einsum("ib,ib->b", z, k @ z)
    diag_x = diag @ z
    lin = row_sums @ z
    sxx = quad - diag_x
    cross = lin - quad
    syy = total_off - sxx - 2.0 * cross
    return mmd.u_from_sums(sxx, cross, syy, n, m)


def p_value(observed, null_values):
    """Permutation p-value with the add-one convention.

    Ties count toward the null, so the result is never anti-conservative:
    ``(1 + #{b : U_b >= observed}) / (B + 1)``.
    """
    null_values = np.asarray(null_values, dtype=float)
    if null_values.size == 0:
        raise ValueError("null sample is empty")
    return float((1 + int(np.sum(null_values >= observed))) / (null_values.size + 1))


def _embed(graph, config, sparsity):
    """Stage 1: spectral embedding of one graph, then the variant's row
    normalization. The float adjacency lives only inside :func:`ase`."""
    rows = ase(as_graph(graph), config.d)
    return preprocess(rows, config.variant, sparsity=sparsity, eps_floor=config.eps_floor)


def _bandwidth(kernel, px, py):
    """Stage 2: the kernel with a median-heuristic bandwidth resolved."""
    if isinstance(kernel, mmd.GaussianKernel) and kernel.sigma is None:
        return mmd.GaussianKernel(mmd.median_heuristic(np.vstack([px, py])))
    return kernel


def _align(kernel, px, py, reflections):
    """Stage 3: the 2^d column sign patterns of ``py`` (the identity only,
    unless ``reflections``), keeping the first of largest cross-block sum:
    only that sum depends on the pattern, and the statistic falls as it
    rises. Returns the signs, the sums ``(sxx, sxy, syy)`` of the statistic
    and the pooled kernel matrix; the blocks it is assembled from die here."""
    kxx = mmd.gram(kernel, px, px)
    kyy = mmd.gram(kernel, py, py)
    d, best = px.shape[1], None
    for bits in range(2**d if reflections else 1):
        signs = np.array([1.0 if bits & (1 << j) == 0 else -1.0 for j in range(d)])
        cross = mmd.gram(kernel, px, py * signs)
        sxy = cross.sum()
        if best is None or sxy > best[1]:
            best = signs, sxy, cross
    del cross
    signs, sxy, kxy = best
    sums = (mmd.off_diagonal_sum(kxx), sxy, mmd.off_diagonal_sum(kyy))
    return signs, sums, np.block([[kxx, kxy], [kxy.T, kyy]])


def _calibrate(px, py, config, rng, info):
    """Stages 2-4 on preprocessed rows, then the report; its
    ``preprocessing`` is the reflection signs (when aligning) and ``info``."""
    n, m = px.shape[0], py.shape[0]
    mmd.check_sizes(n, m)
    if not (np.isfinite(px).all() and np.isfinite(py).all()):
        raise ValueError("rows must be finite")
    kernel = _bandwidth(config.kernel, px, py)
    signs, sums, k = _align(kernel, px, py, config.align_reflections)
    observed = mmd.finite_statistic(mmd.u_from_sums(*sums, n, m), kernel)
    if rng is None:
        rng = substream(config.seed)
    null_values = _null_from_gram(k, n, m, config.permutations, rng)
    p = p_value(observed, null_values)
    if config.align_reflections:
        info = {"reflection": signs.tolist(), **info}
    return TestReport(
        statistic=float(observed),
        scaled_statistic=float((n + m) * observed),
        p_value=p,
        reject=bool(p <= config.alpha_level),
        n=n,
        m=m,
        rho=m / (n + m),
        variant=config.variant,
        kernel=kernel.describe(),
        permutations=config.permutations,
        alpha_level=config.alpha_level,
        seed=config.seed,
        null_values=null_values,
        preprocessing=info,
    )


def two_sample_test(graph_a, graph_b, config, rng=None):
    """Test whether two graphs share a latent-position distribution.

    Embeds each graph, aligns the second embedding over per-column
    reflections (see :class:`TestConfig`), and compares the unbiased kernel
    statistic with its permutation null over the pooled rows. One kernel
    matrix serves the reflection search, the statistic and the null. All
    randomness derives from ``config.seed`` unless an explicit ``rng`` is
    supplied.

    Parameters
    ----------
    graph_a, graph_b : Graph or (n, n) array_like
        Symmetric hollow 0/1 adjacency matrices, each with at least
        ``config.d`` and at least 2 vertices.
    config : TestConfig
    rng : numpy.random.Generator, optional
        Overrides the seed-derived stream (used by simulation harnesses).

    Returns
    -------
    TestReport
    """
    px, info_x = _embed(graph_a, config, config.sparsity_x)
    py, info_y = _embed(graph_b, config, config.sparsity_y)
    info = {f"{key}_x": value for key, value in info_x.items()}
    info.update((f"{key}_y", value) for key, value in info_y.items())
    return _calibrate(px, py, config, rng, info)


def two_sample_point_test(x, y, config, rng=None):
    """Permutation two-sample test on observed point clouds.

    Same calibration as :func:`two_sample_test` but starting from known
    coordinates instead of graphs: used for oracle comparisons against the
    true latent positions, where no reflection ambiguity exists (the
    clouds share one coordinate frame, so the search is skipped). The
    sparse variant reduces to identity here because true positions carry
    no sparsity scaling.
    """
    variant = "identity" if config.variant == "sparse" else config.variant
    px, _ = preprocess(x, variant, eps_floor=config.eps_floor)
    py, _ = preprocess(y, variant, eps_floor=config.eps_floor)
    return _calibrate(px, py, replace(config, align_reflections=False), rng, {})
