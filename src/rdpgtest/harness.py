"""Monte Carlo experiments: power studies, alignment comparisons,
graph-collection dissimilarities and nearest-neighbor classification.

Replicates are seeded through :func:`rdpgtest.streams.substream` with the
path ``(master_seed, grid_index, replicate_index)``, so grid cells can be
evaluated in any order (or in parallel) with bit-identical results.
"""

from dataclasses import dataclass, field, fields
from itertools import product

import numpy as np

from . import io as _io
from . import mmd, streams
from .embed import _descending_frame, ase, check_dimension, second_moment_rotation
from .model import (
    LatentDistribution,
    UniformBox,
    as_graph,
    check_sparsity,
    sample_latent,
    sample_rdpg,
    sbm_to_latent,
    second_moment_matrix,
)
from .streams import check_count, substream
from .testing import TestConfig, two_sample_point_test, two_sample_test

__all__ = [
    "two_block_pair",
    "uniform_box_pair",
    "ExperimentConfig",
    "PowerTable",
    "run_power_experiment",
    "WComparison",
    "w_comparison_experiment",
    "DissimilarityMatrix",
    "pairwise_dissimilarity",
    "KnnReport",
    "knn_classify",
]


def two_block_pair(epsilon, base=0.5, cross=0.2, weights=(0.4, 0.6)):
    """Two-block blockmodel pair: the base model against an offset one.

    ``F`` comes from block probabilities ``[[base, cross], [cross, base]]``
    and ``G`` from ``base + epsilon`` on the diagonal; ``epsilon = 0``
    gives the null configuration ``F = G``.
    """
    f = sbm_to_latent([[base, cross], [cross, base]], weights)
    g = sbm_to_latent([[base + epsilon, cross], [cross, base + epsilon]], weights)
    return f, g


def uniform_box_pair(epsilon, f_upper=1.0 / np.sqrt(2.0), g_upper=1.0 / np.sqrt(3.0), dim=2):
    """Uniform-box pair for scale-equivalence testing.

    ``F`` is uniform on ``[epsilon, f_upper]^dim`` and ``G`` uniform on
    ``[0, g_upper]^dim``; at ``epsilon = 0`` the two differ exactly by a
    global scale factor.
    """
    f = UniformBox([epsilon] * dim, [f_upper] * dim)
    g = UniformBox([0.0] * dim, [g_upper] * dim)
    return f, g


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid specification for a power study.

    ``pairs`` holds ``(sweep_label, F, G)`` triples, F and G each a
    :class:`~rdpgtest.model.LatentDistribution`; ``n_grid`` the first
    sample sizes (``m`` defaults to ``n`` unless ``m_grid`` is given, one
    entry per ``n_grid`` entry). When ``oracle_arm`` is set, each replicate
    also runs the test on the true latent positions for side-by-side
    comparison. Frozen, as :class:`~rdpgtest.testing.TestConfig` is, with
    the three sequences stored as tuples, so the checks hold for its
    lifetime: :func:`dataclasses.replace` makes a checked copy.
    """

    pairs: tuple
    n_grid: tuple
    replicates: int
    test: TestConfig
    master_seed: int
    m_grid: tuple | None = None
    oracle_arm: bool = False
    sparsity: float = 1.0
    output_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.test, TestConfig):
            raise ValueError(f"test must be a TestConfig, got {self.test!r}")
        check_count(self.replicates, "replicates")
        if not self.pairs or not self.n_grid:
            raise ValueError("pairs and n_grid must be nonempty")
        pairs = tuple(self.pairs)
        for i, pair in enumerate(pairs):
            listed = isinstance(pair, (tuple, list))  # tuple('abc') would read as a triple
            if not listed or len(pair) != 3 or not all(
                    isinstance(p, LatentDistribution) for p in pair[1:]):
                got = (f"types {tuple(type(p).__name__ for p in pair)}" if listed
                       else f"type {type(pair).__name__!r}")
                raise ValueError(f"pairs[{i}] must be a (label, F, G) triple of LatentDistributions,"
                                 f" got {got}")
        object.__setattr__(self, "pairs", tuple(map(tuple, pairs)))
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        if self.m_grid is not None:
            object.__setattr__(self, "m_grid", tuple(self.m_grid))
            if len(self.m_grid) != len(self.n_grid):
                raise ValueError("m_grid must pair with n_grid entry by entry")
        check_sparsity(self.sparsity)
        check_count(self.master_seed, "master_seed", 0)
        for n, m in zip(self.n_grid, self.m_grid or self.n_grid):
            _check_sizes(n, m, self.test.d)


def _check_sizes(n, m, d):
    """Refuse sample sizes ``n, m`` that a graph test in ``R^d`` cannot take."""
    for size in (check_count(n, "n"), check_count(m, "m")):
        check_dimension(d, size)
    mmd.check_sizes(n, m)


@dataclass
class PowerCell:
    """Rejection frequency for one (n, sweep) grid cell."""

    n: int
    m: int
    sweep: object
    replicates: int
    rejections: int
    power: float
    se: float
    oracle_rejections: int | None = None
    oracle_power: float | None = None
    oracle_se: float | None = None


@dataclass
class PowerTable:
    """Collected power estimates plus the configuration that produced them."""

    cells: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path):
        """One column per :class:`PowerCell` field; the ``oracle_`` ones only with an oracle arm."""
        oracle = any(c.oracle_power is not None for c in self.cells)
        columns = [f.name for f in fields(PowerCell) if oracle or not f.name.startswith("oracle_")]
        rows = [[getattr(c, name) for name in columns] for c in self.cells]
        comments = [f"{k}={v}" for k, v in sorted(self.metadata.items())]
        _io.write_table_csv(path, columns, rows, comments=comments)


def _rate(rejections, trials):
    """Rejection count, frequency and the frequency's binomial standard error."""
    p = rejections / trials
    return rejections, p, float(np.sqrt(p * (1.0 - p) / trials))


def _replicate(f_dist, g_dist, n, m, sparsity, rng):
    """Draw ``x`` ~ F (n rows), ``y`` ~ G (m rows) and a graph from each, in that order."""
    x = sample_latent(f_dist, n, rng)
    y = sample_latent(g_dist, m, rng)
    return x, y, sample_rdpg(x, sparsity, rng), sample_rdpg(y, sparsity, rng)


def run_power_experiment(config):
    """Estimate rejection frequencies over a (n, sweep) grid.

    Each replicate samples latent positions for both distributions, draws
    one graph from each, runs the configured test, and records the
    decision at ``alpha_level``. Partial results are flushed to
    ``config.output_path`` (when set) after every grid cell.

    Returns
    -------
    PowerTable
    """
    test_cfg = config.test
    m_grid = config.n_grid if config.m_grid is None else config.m_grid

    table = PowerTable(
        metadata={
            "master_seed": config.master_seed,
            "replicates": config.replicates,
            "variant": test_cfg.variant,
            "d": test_cfg.d,
            "kernel": test_cfg.kernel.describe(),
            "B": test_cfg.permutations,
            "alpha_level": test_cfg.alpha_level,
            "sparsity": config.sparsity,
            "oracle_arm": config.oracle_arm,
            "n_grid": " ".join(str(n) for n in config.n_grid),
            "sweep": " ".join(str(p[0]) for p in config.pairs),
        }
    )
    grid = list(product(zip(config.n_grid, m_grid), config.pairs))
    for gi, ((n, m), (label, f_dist, g_dist)) in enumerate(grid):
        rejections = 0
        oracle_rejections = 0
        for ri in range(config.replicates):
            rng = substream(config.master_seed, gi, ri)
            x, y, graph_a, graph_b = _replicate(f_dist, g_dist, n, m, config.sparsity, rng)
            report = two_sample_test(graph_a, graph_b, test_cfg, rng=rng)
            rejections += int(report.reject)
            if config.oracle_arm:
                oracle = two_sample_point_test(x, y, test_cfg, rng=rng)
                oracle_rejections += int(oracle.reject)
        oracle = _rate(oracle_rejections, config.replicates) if config.oracle_arm else ()
        table.cells.append(PowerCell(n, m, label, config.replicates,
                                     *_rate(rejections, config.replicates), *oracle))
        if config.output_path:
            table.to_csv(config.output_path)
    return table


def _moment_frame(dist, rng, surrogate_size):
    return _descending_frame(second_moment_matrix(dist, rng=rng, surrogate_size=surrogate_size))


@dataclass(eq=False)
class WComparison:
    """Paired scaled differences between embedded and true-position statistics.

    ``delta_random`` uses the replicate-specific alignment built from the
    second moments of the realized latent positions; ``delta_fixed`` uses
    the single population-level alignment ``w_fixed``. Histogramming the
    two columns shows how much faster the data-driven alignment tracks the
    embedded statistic.
    """

    delta_random: np.ndarray
    delta_fixed: np.ndarray
    w_fixed: np.ndarray
    n: int
    m: int

    def to_csv(self, path):
        rows = [
            [r, self.n, self.m, dr, df]
            for r, (dr, df) in enumerate(zip(self.delta_random, self.delta_fixed))
        ]
        _io.write_table_csv(
            path,
            ("replicate", "n", "m", "delta_random_alignment", "delta_fixed_alignment"),
            rows,
        )


def w_comparison_experiment(
    f_dist,
    g_dist,
    n,
    d,
    spec,
    replicates,
    master_seed,
    m=None,
    surrogate_size=10**6,
):
    """Compare replicate-specific against population-level alignments.

    Per replicate, both graphs are embedded and the scaled difference
    ``(m+n) * (U(embedded) - U(true, aligned))`` is recorded twice: once
    aligning by the realized second-moment rotations, once by the fixed
    population rotation (computed analytically where possible, otherwise
    from a ``surrogate_size`` Monte Carlo draw).
    """
    if m is None:
        m = n
    mmd.fixed_bandwidth(spec)
    check_count(replicates, "replicates")
    check_count(surrogate_size, "surrogate_size")
    _check_sizes(n, m, d)
    t1 = _moment_frame(f_dist, substream(master_seed, replicates), surrogate_size)
    t2 = _moment_frame(g_dist, substream(master_seed, replicates + 1), surrogate_size)
    w_fixed = t2 @ t1.T
    delta_random = np.empty(replicates)
    delta_fixed = np.empty(replicates)
    for r in range(replicates):
        x, y, graph_x, graph_y = _replicate(f_dist, g_dist, n, m, 1.0, substream(master_seed, r))
        xhat = ase(graph_x, d).coordinates
        yhat = ase(graph_y, d).coordinates
        w_random = second_moment_rotation(y) @ second_moment_rotation(x).T
        u_embedded = mmd.u_statistic(spec, xhat, yhat)
        scale = n + m
        delta_random[r] = scale * (u_embedded - mmd.u_statistic(spec, x, y @ w_random))
        delta_fixed[r] = scale * (u_embedded - mmd.u_statistic(spec, x, y @ w_fixed))
    return WComparison(delta_random, delta_fixed, w_fixed, n, m)


@dataclass(eq=False)
class DissimilarityMatrix:
    """Pairwise two-sample statistics between embedded graphs.

    By default entries are the positive part of the unbiased statistic
    (negative values mean "indistinguishable" and a nearest-neighbor
    classifier needs a nonnegative dissimilarity); call
    :func:`pairwise_dissimilarity` with ``floor=False`` (``dissim --raw`` on
    the command line) to keep raw values. The diagonal is exactly zero.
    """

    values: np.ndarray
    labels: list | None = None


def pairwise_dissimilarity(graphs, d, spec, floor=True, labels=None):
    """Embed each graph once and fill the matrix of pairwise statistics.

    The calling thread embeds the graphs in order; as soon as graph ``h``
    is embedded, its cross-block sums with every earlier graph
    (:func:`_cross_column`) are queued on the call's helper
    (:func:`rdpgtest.streams.helper`), which sums them while LAPACK embeds
    the next graph (``eigh`` releases the interpreter lock). After the last
    embedding the calling thread computes the within-graph sums, then sums
    itself each column the helper has not started. Each block is summed
    whole on one thread and the statistics are formed, floored and checked
    in row order, so no value or error depends on which thread summed a
    block. The helper's blocks cost peak memory: about 1.5 MB for graphs of
    300 vertices.

    Parameters
    ----------
    graphs : sequence of Graph or adjacency arrays, length >= 2
    d : int
        Embedding dimension; every graph needs at least ``max(d, 2)``
        vertices.
    spec : KernelSpec
    floor : bool
        Replace negative statistics by zero (default).
    labels : sequence, optional
        Carried through for classification.
    """
    if len(graphs) < 2:
        raise ValueError(f"need at least 2 graphs, got {len(graphs)}")
    if labels is not None and len(labels) != len(graphs):
        raise ValueError(f"{len(labels)} labels for {len(graphs)} graphs")
    check_count(d, "d")
    mmd.fixed_bandwidth(spec)
    count = len(graphs)
    embeddings, cross = [], np.zeros((count, count))
    with streams.helper() as helper:
        queued = []
        for idx, graph in enumerate(graphs):
            try:
                embeddings.append(ase(as_graph(graph), d).coordinates)
                mmd.check_sizes(len(embeddings[-1]), len(embeddings[-1]))
            except Exception as exc:
                raise ValueError(f"graph {idx}: {exc}") from exc
            queued.append((idx, helper.submit(_cross_column, spec, embeddings, cross, idx)))
        within = [mmd.off_diagonal_sum(mmd.gram(spec, e, e)) for e in embeddings]
        for h, future in reversed(queued):
            if future.cancel():
                _cross_column(spec, embeddings, cross, h)
        for _, future in queued:
            if not future.cancelled():
                future.result()
    values = np.zeros((count, count))
    for g in range(count):
        for h in range(g + 1, count):
            u = mmd.u_from_sums(within[g], cross[g, h], within[h], len(embeddings[g]), len(embeddings[h]))
            u = mmd.finite_statistic(u, spec, f" between graphs {g} and {h}")
            if floor:
                u = max(u, 0.0)
            values[g, h] = values[h, g] = u
    return DissimilarityMatrix(values, labels=list(labels) if labels is not None else None)


def _cross_column(spec, embeddings, cross, h):
    """The cross-block sums of embedding ``h`` with each earlier one, into
    ``cross[g, h]`` for ``g < h``: the bits of ``gram(...).sum()``, through
    no traced name, as the helper may run it."""
    for g in range(h):
        cross[g, h] = spec.pairwise(embeddings[g], embeddings[h]).sum()


@dataclass(eq=False)
class KnnReport:
    """Cross-validated nearest-neighbor accuracy."""

    accuracy: float
    fold_accuracies: list
    k: int
    folds: int
    seed: int
    n_items: int

    def format(self):
        folds = ", ".join(f"{a:.3f}" for a in self.fold_accuracies)
        return (
            f"k-NN accuracy: {self.accuracy:.4f} "
            f"(k={self.k}, {self.folds}-fold, n={self.n_items})\n"
            f"per fold: {folds}"
        )


def knn_classify(dissimilarity, labels, k, folds=10, seed=0):
    """Leave-fold-out k-nearest-neighbor classification on a dissimilarity.

    Folds are stratified by label with a seeded shuffle. Each held-out
    item is assigned the majority label among its ``k`` smallest
    dissimilarity training items; vote ties break by the smaller summed
    dissimilarity of the tied class, then by the lower index in sorted
    label order. Neighbor ties at equal dissimilarity resolve by training
    index (stable sort). Every entry must be finite.
    """
    d = dissimilarity.values if isinstance(dissimilarity, DissimilarityMatrix) else dissimilarity
    d = np.asarray(d, dtype=float)
    labels = list(labels)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError(f"dissimilarity must be square, got shape {d.shape}")
    bad = np.argwhere(~np.isfinite(d))
    if bad.size:  # argsort would rank nan as the farthest item
        i, j = bad[0]
        raise ValueError(f"dissimilarity must be finite, got {d[i, j]} at ({i}, {j})")
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} items")
    check_count(k, "k")
    check_count(folds, "folds", 2)

    rng = substream(seed)
    classes = sorted(set(labels))
    class_index = {c: i for i, c in enumerate(classes)}
    labels_arr = np.array([class_index[l] for l in labels])
    fold_of = np.empty(n, dtype=int)
    for c in range(len(classes)):
        idx = np.nonzero(labels_arr == c)[0]
        rng.shuffle(idx)
        fold_of[idx] = np.arange(idx.size) % folds
    fold_sizes = np.bincount(fold_of, minlength=folds)
    smallest_training = n - int(fold_sizes.max())
    if k > smallest_training:
        raise ValueError(f"k={k} exceeds the smallest training fold size {smallest_training}")

    fold_accuracies = []
    correct_total = 0
    for f in range(folds):
        test_idx = np.nonzero(fold_of == f)[0]
        train_idx = np.nonzero(fold_of != f)[0]
        if test_idx.size == 0:
            fold_accuracies.append(float("nan"))
            continue
        correct = 0
        for t in test_idx:
            row = d[t, train_idx]
            order = np.argsort(row, kind="stable")[:k]
            neighbor_labels = labels_arr[train_idx[order]]
            neighbor_dist = row[order]
            counts = np.bincount(neighbor_labels, minlength=len(classes))
            top = counts.max()
            tied = np.nonzero(counts == top)[0]
            if tied.size > 1:
                sums = [neighbor_dist[neighbor_labels == c].sum() for c in tied]
                tied = tied[np.lexsort((tied, np.asarray(sums)))]
            predicted = int(tied[0])
            correct += int(predicted == labels_arr[t])
        fold_accuracies.append(correct / test_idx.size)
        correct_total += correct
    return KnnReport(
        accuracy=correct_total / n,
        fold_accuracies=fold_accuracies,
        k=k,
        folds=folds,
        seed=seed,
        n_items=n,
    )
