"""Two-sample hypothesis tests for random dot product graphs.

A test call runs four stages: embed (:func:`_embed`: the spectral
embedding of one graph, then its row normalization), bandwidth
(:func:`_bandwidth`: the median heuristic, when asked for), align
(:func:`_align`: the candidate search, which yields the kernel sums of the
statistic and the pooled kernel matrix) and null (:func:`_null_from_gram`:
the permutation null, from that one matrix, with the permutations that
:func:`_drawn` drew before any kernel block). Each input is checked once,
by the one rule README lists for it. The variants are:

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
import threading
from collections.abc import Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields

import numpy as np

from . import mmd, streams
from .embed import _spectral, ase, check_dimension
from .errors import DegenerateRowError
from .io import _fmt
from .model import as_graph, check_sparsity
from .streams import as_points, check_count, check_generator, substream

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


@dataclass(frozen=True)
class TestConfig:
    """Configuration of a two-sample graph test.

    ``sparsity_x`` and ``sparsity_y`` are required exactly when
    ``variant == "sparse"`` (they are the known edge-probability
    multipliers of the two graphs). ``align_reflections`` resolves the
    reflection ambiguity between two independently embedded graphs by
    minimizing the statistic over the 2^d per-column sign patterns of the
    second sample (:func:`_align`); reflections are orthogonal maps, so
    every supported null hypothesis is unchanged by this search. Frozen, so
    the checks hold for its lifetime: :func:`dataclasses.replace` makes a
    checked copy.
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
        check_count(self.d, "d")
        if not isinstance(self.kernel, mmd.KernelSpec):
            raise ValueError(f"kernel must be a KernelSpec, got {self.kernel!r}")
        check_count(self.permutations, "permutations")
        check_count(self.seed, "seed", 0)
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError(f"alpha_level must lie in (0, 1), got {self.alpha_level}")
        check_floor(self.eps_floor)
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
        """The scalar fields in order, ``permutations`` keyed ``B``."""
        return {"B" if f.name == "permutations" else f.name: getattr(self, f.name)
                for f in fields(self) if f.name not in ("null_values", "preprocessing")}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def format_kv(self):
        """Key=value lines, full precision, one field per line."""
        return "\n".join(f"{key}={_fmt(value)}" for key, value in self.to_dict().items())


def check_floor(eps_floor):
    """The one rule for the projection variant's row-norm floor: a number >= 0."""
    if not eps_floor >= 0:
        raise ValueError(f"eps_floor must be >= 0, got {eps_floor}")


def preprocess(embedding, variant, *, sparsity=None, eps_floor=TestConfig.eps_floor):
    """Apply the variant-specific normalization to embedded rows.

    Parameters
    ----------
    embedding : Embedding or (n, d) array_like
        Finite rows; any other is refused with ``rows must be finite``.
    variant : str
        One of ``identity``, ``scaling``, ``projection``, ``sparse``.
    sparsity : float, optional
        Known sparsity factor; required for the sparse variant.
    eps_floor : float
        At least 0 (:func:`check_floor`). Rows with norm at or below this
        raise :class:`DegenerateRowError` under the projection variant.

    Returns
    -------
    (ndarray, dict)
        The transformed rows and a summary of the factors applied.
    """
    check_floor(eps_floor)
    x = getattr(embedding, "coordinates", embedding)
    x = as_points(x, "rows")
    if not np.isfinite(x).all():
        raise ValueError("rows must be finite")
    if variant == "identity":
        return x.copy(), {}
    if variant == "scaling":
        s = np.linalg.norm(x) / np.sqrt(max(x.shape[0], 1))  # no rows: 0, refused
        if not s > 0:
            raise ValueError(f"scale must be > 0, got {s}")
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
    statistic is recorded. The kernel matrix of the pool is computed once,
    after every permutation is drawn, and each round then only
    re-aggregates its entries: :func:`_drawn` and :func:`_null_from_gram`
    tell how, and when a helper thread shares the work. Beside that matrix
    the working memory is O(N·512) plus N·B/8 bytes for the draws
    (N = n + m, B = ``permutations``). Deterministic given ``rng``; the
    values and ``rng``'s end state are the same bits at a fixed BLAS thread
    count, on any number of cores. :func:`two_sample_test` draws the same
    null, in the same order. ``rng`` must be a ``numpy.random.Generator``
    and ``spec`` a fixed bandwidth (``mmd.fixed_bandwidth``), both checked
    before the draw.

    Returns
    -------
    (permutations,) ndarray
    """
    pooled = as_points(pooled, "pooled")
    total = pooled.shape[0]
    mmd.check_sizes(check_count(n, "n"), check_count(m, "m"))
    if n + m != total:
        raise ValueError(f"pool has {total} rows but n + m = {n + m}")
    check_count(permutations, "permutations")
    check_generator(rng)
    mmd.fixed_bandwidth(spec)
    with _drawn(n, m, permutations, rng) as draw:
        return _null_from_gram(mmd.gram(spec, pooled, pooled), n, m, permutations, draw)


_PANEL = 256  # permutations per column panel of the null
_PANEL_MADDS = 2**20  # fewest multiply-adds of one panel's product with the gram
_BLOCK = 192  # rows per block of the null's quadratic form; the last takes the remainder


def _layout(total, permutations):
    """The null's panel width and count over a pool of ``total`` rows."""
    width = _PANEL * -(-_PANEL_MADDS // (_PANEL * total * total))
    return width, max(permutations // width, 1)


def _splits(total, permutations):
    """Whether the null's block products split between the calling thread
    and a helper: two panels or more and two blocks or more (N >= 384)."""
    return _layout(total, permutations)[1] > 1 and total >= 2 * _BLOCK


def _packed(total, permutations):
    """Zeroed room for ``permutations`` draws over ``total`` rows, one bit each."""
    return np.zeros((total, -(-permutations // 8)), dtype=np.uint8)


def _draw(drawn, n, permutations, rng, stop=None):
    """Draw the permutations in order into the :func:`_packed` ``drawn``:
    bit ``b`` of row ``i`` (most significant first) is set when
    permutation ``b`` puts pooled row ``i`` in the first sample.

    The rounds go in blocks, each one ``rng.permuted`` call on int64 rows
    of ``arange(N)``. That shuffles every row with the Fisher-Yates draws
    of one ``rng.permutation(N)``, so the bits and the stream's end state
    are those of one ``permutation`` call per round. A block's first
    ``n`` columns are scattered, by flat index, into an N x rounds boolean
    mask, which one ``np.packbits`` writes into ``drawn``. A block holds a
    multiple of 8 rounds, so it fills whole bytes, and at least 8. It
    holds as many as keep its rows within ``mmd._CHUNK_ENTRIES`` entries:
    its int64 scratch stays within 96 KB up to N = 1536, below the 128 KB
    at which glibc maps a block afresh; above that, 8 rounds take 64·N
    bytes. ``stop``, an event, is checked before each block: once it is
    set, the draw returns with ``drawn`` and the stream part-way."""
    total = drawn.shape[0]
    rounds = 8 * max(1, mmd._CHUNK_ENTRIES // (8 * total))
    order = np.arange(total)
    block = np.empty((rounds, total), dtype=np.int64)
    for start in range(0, permutations, rounds):
        if stop is not None and stop.is_set():
            return
        rows = block[:min(rounds, permutations - start)]
        rows[...] = order
        rng.permuted(rows, axis=1, out=rows)
        width = len(rows)
        picked = rows[:, :n] * width  # entry (i, r) of the mask is i * width + r
        picked += np.arange(width)[:, None]
        mask = np.zeros((total, width), dtype=bool)
        mask.ravel()[picked] = True
        drawn[:, start // 8:-(-(start + width) // 8)] = np.packbits(mask, axis=1)


@contextmanager
def _drawn(n, m, permutations, rng, pool=None):
    """The one way into the null: every permutation is drawn into
    :func:`_packed` bits, in order, as the block is entered. When the
    products split (:func:`_splits`), the draw is queued on the one-thread
    ``pool`` (:func:`rdpgtest.streams.helper`, opened here when none is
    passed) while the block goes on, and the same pool later takes its
    share of each panel's block products; otherwise it runs at once on the
    calling thread and no thread starts for it. Yields ``(drawn, pool,
    future)`` for :func:`_null_from_gram`, with the pool and the draw's
    future ``None`` when nothing splits. Leaving the block by an exception
    sets the draw's ``stop``, so it ends within one block of rounds, and a
    pool opened here is joined before the block is left; ``rng``'s end
    state after an error is unspecified."""
    drawn = _packed(n + m, permutations)
    if not _splits(n + m, permutations):
        _draw(drawn, n, permutations, rng)
        yield drawn, None, None
        return
    stop = threading.Event()
    with streams.helper() if pool is None else nullcontext(pool) as pool:
        try:
            yield drawn, pool, pool.submit(_draw, drawn, n, permutations, rng, stop)
        except BaseException:
            stop.set()
            raise


def _null_from_gram(k, n, m, permutations, draw):
    """:func:`permutation_null` on the pooled kernel matrix ``k`` and the
    ``draw`` of :func:`_drawn`, entered before ``k`` was built: the
    permutations were drawn then on the calling thread, or, when the
    products split, are drawn on the pool while the caller builds ``k``
    (and, in :func:`two_sample_test`, embeds a graph). That draw is waited
    for, and its exception raised, before the first panel. With no pool
    (``(drawn, None, None)``) every product runs on the calling thread.

    The rounds are aggregated in column panels of ``_PANEL`` (a multiple
    of it for a pool under 64 rows); the last panel also takes the
    remainder, so no panel is narrower than that unless all are. A small
    panel would reach other BLAS kernels than the whole product and change
    last bits: one under about 190 columns, or one whose product with the
    gram takes under 10^6 multiply-adds (OpenBLAS's small-matrix kernel),
    so a panel takes at least ``_PANEL_MADDS``.

    ``k`` is symmetric, so each round's quadratic form z·(k z) needs only
    its upper block triangle: over the row blocks I = [s, e) of
    :func:`_shares`, it is the sum, in block order, of
    z_I·(k[I, I] z_I) + 2·z_I·(k[I, e:] z[e:]), each term from one product;
    about (1/2 + 96/N)·N² multiply-adds a round instead of N². A pool
    under 384 rows is one block, whose form is the bits of z·(k z). Each
    panel's draws are unpacked into one N x width slot and each block's
    products go through one slot of at most 383 rows per thread, so beside
    ``k`` and the N·B/8 bytes of ``drawn`` the working memory is O(N·512).

    With the pool, its thread computes its share of each panel's blocks
    while the calling thread computes the other and adds them up. Each
    block's products run whole on one thread, so the values are the bits
    of the path with no pool, whatever the core count; at one BLAS thread
    they are the bits of the block formula over all rounds at once. With a
    multi-threaded BLAS the two threads compete for the same cores. The
    pool writes only into the arrays the calling thread allocated, and
    this function never touches the random stream."""
    drawn, pool, future = draw
    if future is not None:
        future.result()
    total = n + m
    diag = np.diagonal(k).copy()
    row_sums = k.sum(axis=1)
    total_off = float(k.sum() - diag.sum())

    quad, diag_x, lin = np.empty((3, permutations))
    width, panels = _layout(total, permutations)
    last = permutations - (panels - 1) * width
    mine, helper = _shares(total, pool is not None)
    parts = np.zeros((2, len(mine) + len(helper), last))  # the two terms of each block
    z_slot = np.empty(total * last)
    # One product slot per thread: a spare one took power_grid's heap per
    # call past glibc's trim threshold, so each call faulted its pages anew.
    slots = np.empty((1 + bool(helper), min(total, 2 * _BLOCK - 1) * last))
    for i in range(panels):
        cols = slice(i * width, permutations if i == panels - 1 else (i + 1) * width)
        z = z_slot[: total * (cols.stop - cols.start)].reshape(total, -1)
        z[...] = np.unpackbits(drawn[:, cols.start // 8:-(-cols.stop // 8)], axis=1,
                               count=z.shape[1])
        d, o = parts[:, :, :z.shape[1]]
        helped = helper and pool.submit(_block_terms, k, z, helper, d, o, slots[-1])
        _block_terms(k, z, mine, d, o, slots[0])
        if helped:
            helped.result()
        quad[cols] = sum(d + 2.0 * o)
        np.matmul(diag, z, out=diag_x[cols])
        np.matmul(row_sums, z, out=lin[cols])
    sxx = quad - diag_x
    cross = lin - quad
    syy = total_off - sxx - 2.0 * cross
    return mmd.u_from_sums(sxx, cross, syy, n, m)


def _shares(total, split):
    """The row blocks ``(j, s, e)`` of the null's quadratic form, numbered
    in order: 192 rows each, the last with the remainder (192-383 rows), so
    a pool under 384 rows is one block. In two shares: when ``split``, each
    block in turn goes to the share of fewer multiply-adds, else all go to
    the first."""
    stops = [_BLOCK * i for i in range(1, total // _BLOCK)] + [total]
    shares, loads = ([], []), [0, 0]
    for j, (start, stop) in enumerate(zip([0] + stops[:-1], stops)):
        lighter = int(split and loads[1] < loads[0])
        shares[lighter].append((j, start, stop))
        loads[lighter] += (stop - start) * (total - start)
    return shares


def _block_terms(k, z, blocks, d, o, slot):
    """For each block ``(j, s, e)`` of ``blocks``, I = [s, e): z_I·(k[I, I] z_I)
    into ``d[j]`` and, unless e is the last row, z_I·(k[I, e:] z[e:]) into
    ``o[j]``, each product computed whole into ``slot``."""
    for j, start, stop in blocks:
        zi = z[start:stop]
        kz = slot[: zi.size].reshape(zi.shape)
        np.matmul(k[start:stop, start:stop], zi, out=kz)
        np.einsum("ib,ib->b", zi, kz, out=d[j])
        if stop < len(z):
            np.matmul(k[start:stop, stop:], z[stop:], out=kz)
            np.einsum("ib,ib->b", zi, kz, out=o[j])


def p_value(observed, null_values):
    """Permutation p-value with the add-one convention:
    ``(1 + #{b : U_b >= observed}) / (B + 1)``.

    Computed null values equal to ``observed`` count toward the null. The
    two are summed in different orders, though, so a permutation whose
    exact statistic ties the observed one (common on point tests of
    atom-valued positions) may round to either side and go uncounted.
    """
    null_values = np.asarray(null_values, dtype=float)
    if null_values.size == 0:
        raise ValueError("null sample is empty")
    if np.isnan(observed) or np.isnan(null_values).any():
        raise ValueError("the observed statistic and the null values must not be nan")
    return float((1 + int(np.sum(null_values >= observed))) / (null_values.size + 1))


def _embed(graph, config, sparsity, embedded=None):
    """Stage 1: spectral embedding of one :class:`~rdpgtest.model.Graph`
    (:func:`ase`, or the result of the ``embedded`` future), then the
    variant's row normalization. The float adjacency lives only inside
    the embedding."""
    rows = ase(graph, config.d) if embedded is None else embedded.result()
    return preprocess(rows, config.variant, sparsity=sparsity, eps_floor=config.eps_floor)


# Bytes of scratch one eigh may take on the helper while the calling thread
# runs another: about 5·m²·8 (the float copy, LAPACK's copy, its 2m²
# workspace and the eigenvectors). 2 MiB (m <= 228) keeps that second
# scratch within about 5% of a bare process's 40 MB of resident memory.
_HELPER_EIGH_BYTES = 2 * 2**20


def _bandwidth(kernel, px, py):
    """Stage 2: the kernel with a median-heuristic bandwidth resolved."""
    if isinstance(kernel, mmd.GaussianKernel) and kernel.sigma is None:
        return mmd.GaussianKernel(mmd.median_heuristic(np.vstack([px, py])))
    return kernel


class _Reflections(Sequence):
    """The 2^d column sign patterns of width ``d`` as diagonal maps, in
    order: map ``b`` flips column ``j`` when bit ``j`` of ``b`` is set, so
    map 0 is the identity. Each map is made when it is read, since the
    whole stack would hold 2^d·d² floats (134 MB at d = 16)."""

    def __init__(self, d):
        self.d = d

    def __len__(self):
        return 2**self.d

    def __getitem__(self, b):
        b = range(len(self))[b]  # IndexError past either end
        return np.diag(1.0 - 2.0 * (b >> np.arange(self.d) & 1))


def _align(kernel, px, py, maps):
    """Stage 3: the search over candidate orthogonal maps ``w`` (a
    sequence: :class:`_Reflections`, the identity first, or the identity
    alone), each applied as ``py @ w``, keeping the first of largest
    cross-block sum: only that sum depends on the map, and the statistic
    falls as it rises. The median bandwidth is resolved before, on the
    unaligned pool, so one bandwidth serves every candidate. Returns the
    chosen map, the sums ``(sxx, sxy, syy)`` of the statistic and the
    pooled kernel matrix. Each block is copied in and freed before the next
    is computed, its sum taken first on the contiguous block (a strided
    view of the pool sums in another order)."""
    n, m = px.shape[0], py.shape[0]
    k = np.empty((n + m, n + m))
    k[:n, :n] = block = mmd.gram(kernel, px, px)
    sxx = mmd.off_diagonal_sum(block)
    del block
    k[n:, n:] = block = mmd.gram(kernel, py, py)
    syy = mmd.off_diagonal_sum(block)
    del block
    best = None
    for w in maps:
        cross = mmd.gram(kernel, px, py @ w)
        sxy = cross.sum()
        if best is None or sxy > best[1]:
            best = w, sxy
            k[:n, n:] = cross
        del cross
    k[n:, :n] = k[:n, n:].T
    w, sxy = best
    return w, (sxx, sxy, syy), k


def _calibrate(px, py, maps, config, info, draw):
    """Stages 2-4 on checked, preprocessed rows, over the candidate
    ``maps`` of :func:`_align`, with the permutations of ``draw``
    (:func:`_drawn`), then the report; its ``preprocessing`` is the chosen
    map (of two candidates or more: its diagonal as ``reflection`` when it
    is diagonal, else ``map``) and ``info``."""
    n, m = px.shape[0], py.shape[0]
    kernel = _bandwidth(config.kernel, px, py)
    w, sums, k = _align(kernel, px, py, maps)
    observed = mmd.finite_statistic(mmd.u_from_sums(*sums, n, m), kernel)
    null_values = _null_from_gram(k, n, m, config.permutations, draw)
    p = p_value(observed, null_values)
    if len(maps) > 1:
        diagonal = np.array_equal(w, np.diag(np.diagonal(w)))
        key, value = ("reflection", np.diagonal(w)) if diagonal else ("map", w)
        info = {key: value.tolist(), **info}
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
    supplied. Both graphs, ``d`` against each size, ``n, m >= 2`` and
    ``rng`` are checked before any embedding or draw.

    Every permutation is drawn in the order of :func:`permutation_null`,
    whose memory bound holds here too. Graph b, when its eigh fits
    ``_HELPER_EIGH_BYTES``, embeds on the call's one helper
    (:func:`rdpgtest.streams.helper`), which a split null's draw shares
    (:func:`_drawn`), while the calling thread embeds graph a; a larger
    graph b embeds after graph a on the calling thread. Either way the
    result, ``rng``'s end state and the error raised (graph a's first) are
    the same, at a fixed BLAS thread count.

    Parameters
    ----------
    graph_a, graph_b : Graph or (n, n) array_like
        Symmetric hollow 0/1 adjacency matrices, each with at least
        ``config.d`` and at least 2 vertices.
    config : TestConfig
    rng : numpy.random.Generator, optional
        Overrides the seed-derived stream (used by simulation harnesses);
        anything else but ``None`` is refused.

    Returns
    -------
    TestReport
    """
    graph_a, graph_b = as_graph(graph_a), as_graph(graph_b)
    n, m = graph_a.n, graph_b.n
    check_dimension(config.d, n)
    check_dimension(config.d, m)
    mmd.check_sizes(n, m)
    rng = substream(config.seed) if rng is None else check_generator(rng)
    with streams.helper() as pool:
        overlap = 40 * m**2 <= _HELPER_EIGH_BYTES
        embedded = pool.submit(_spectral, graph_b, config.d) if overlap else None
        with _drawn(n, m, config.permutations, rng, pool) as draw:
            px, info_x = _embed(graph_a, config, config.sparsity_x)
            py, info_y = _embed(graph_b, config, config.sparsity_y, embedded)
            info = {f"{key}_x": value for key, value in info_x.items()}
            info.update((f"{key}_y", value) for key, value in info_y.items())
            maps = _Reflections(config.d) if config.align_reflections else np.eye(config.d)[None]
            return _calibrate(px, py, maps, config, info, draw)


def two_sample_point_test(x, y, config, rng=None):
    """Permutation two-sample test on observed point clouds.

    Same calibration as :func:`two_sample_test` but starting from known
    coordinates instead of graphs: used for oracle comparisons against the
    true latent positions, where no reflection ambiguity exists (the
    clouds share one coordinate frame, so the search is skipped). The
    sparse variant reduces to identity here because true positions carry
    no sparsity scaling. ``rng`` is as in :func:`two_sample_test`. The
    rows are checked (finite, by :func:`preprocess`; then ``n, m >= 2``
    and one width) before the permutations are drawn, in the order of
    :func:`two_sample_test`.
    """
    rng = substream(config.seed) if rng is None else check_generator(rng)
    variant = "identity" if config.variant == "sparse" else config.variant
    px, _ = preprocess(x, variant, eps_floor=config.eps_floor)
    py, _ = preprocess(y, variant, eps_floor=config.eps_floor)
    n, m = px.shape[0], py.shape[0]
    mmd.check_sizes(n, m)
    mmd.check_widths(px, py)
    with _drawn(n, m, config.permutations, rng) as draw:
        return _calibrate(px, py, np.eye(px.shape[1])[None], config, {}, draw)
