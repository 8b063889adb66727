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
from collections.abc import Sequence
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
    tell how, and when the call's helper draws and takes half the panels.
    Beside that matrix the working memory is O(N·512) plus N·B/8 bytes for the draws
    (N = n + m, B = ``permutations``). Deterministic given ``rng``; the
    values and ``rng``'s end state are the same bits at a fixed BLAS thread
    count, on any number of cores. :func:`two_sample_test` draws the same
    null, in the same order. ``pooled`` must be finite, ``rng`` a
    ``numpy.random.Generator`` and ``spec`` a fixed bandwidth
    (``mmd.fixed_bandwidth``), all checked before the draw.

    Returns
    -------
    (permutations,) ndarray
    """
    pooled = as_points(pooled, "pooled")
    if not np.isfinite(pooled).all():
        raise ValueError("pooled must be finite")
    total = pooled.shape[0]
    mmd.check_sizes(check_count(n, "n"), check_count(m, "m"))
    if n + m != total:
        raise ValueError(f"pool has {total} rows but n + m = {n + m}")
    check_count(permutations, "permutations")
    check_generator(rng)
    mmd.fixed_bandwidth(spec)
    with streams.helper() as helper:
        draw = _drawn(n, m, permutations, rng, helper)
        return _null_from_gram(mmd.gram(spec, pooled, pooled), n, m, permutations, draw)


_PANEL = 256  # permutations per column panel of the null
_PANEL_MADDS = 2**20  # fewest multiply-adds of one panel's product with the gram
_BLOCK = 192  # rows per block of the null's quadratic form


def _edges(total, size):
    """Cuts of ``range(total)`` into spans of ``size``; the last takes the remainder."""
    return [0, *range(size, total - size + 1, size), total]


def _layout(total, permutations):
    """The cuts of the null's column panels over a pool of ``total`` rows."""
    return _edges(permutations, _PANEL * -(-_PANEL_MADDS // (_PANEL * total * total)))


def _splits(total, permutations):
    """Whether the null's panels split with a helper thread: two panels or more."""
    return len(_layout(total, permutations)) > 2


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


def _drawn(n, m, permutations, rng, helper):
    """The one way into the null: every permutation is drawn into
    :func:`_packed` bits, in order, before any kernel block. When the
    panels split (:func:`_splits`), the draw is queued on the call's
    ``helper`` (:func:`rdpgtest.streams.helper`), polling its ``stop``, and
    ``(drawn, helper, future)`` is returned at once: the helper later takes
    half the panels. Otherwise the draw runs on the calling thread, and
    ``(drawn, None, None)`` is returned. An error that leaves the
    caller's helper block sets ``stop``, so the draw ends within one block
    of rounds; ``rng``'s end state after an error is unspecified."""
    drawn = _packed(n + m, permutations)
    if not _splits(n + m, permutations):
        _draw(drawn, n, permutations, rng)
        return drawn, None, None
    return drawn, helper, helper.submit(_draw, drawn, n, permutations, rng, helper.stop)


def _null_from_gram(k, n, m, permutations, draw):
    """:func:`permutation_null` on the pooled kernel matrix ``k`` and the
    ``draw`` of :func:`_drawn`, called before ``k`` was built: the
    permutations were drawn then on the calling thread, or, when the
    panels split, are drawn on the helper while the caller builds ``k``
    (and, in :func:`two_sample_test`, embeds a graph). That draw is waited
    for, and its exception raised, before the first panel.

    The rounds are aggregated in column panels of ``_PANEL`` (a multiple
    of it for a pool under 64 rows); the last panel also takes the
    remainder, so no panel is narrower than that unless all are. A small
    panel would reach other BLAS kernels than the whole product and change
    last bits: one under about 190 columns, or one whose product with the
    gram takes under 10^6 multiply-adds (OpenBLAS's small-matrix kernel),
    so a panel takes at least ``_PANEL_MADDS``.

    With no helper (``(drawn, None, None)``) the calling thread runs
    :func:`_panels` over all P panels; with one, over the first ⌈P/2⌉ while
    the helper runs the rest, each on scratch allocated here (on the
    helper it raised a 1600-row test's peak RSS by 4 MB; a spare slot with
    no helper took power_grid's heap past glibc's trim threshold, so each
    call faulted its pages anew). Each panel runs whole on one thread, so
    the values are the bits of the path with no helper, whatever the core
    count, and at one BLAS thread those of the block formula over all
    rounds at once. The random stream is not touched."""
    drawn, helper, future = draw
    if future is not None:
        future.result()
    total = n + m
    diag = np.diagonal(k).copy()
    row_sums = k.sum(axis=1)
    total_off = float(k.sum() - diag.sum())

    quad, diag_x, lin = out = np.zeros((3, permutations))
    cuts = _layout(total, permutations)
    split = len(cuts) - 1 if helper is None else len(cuts) // 2
    last = cuts[-1] - cuts[-2]
    scratch = [(np.empty(total * last), np.empty(min(total, 2 * _BLOCK - 1) * last),
                np.empty((2, last))) for _ in range(1 + (helper is not None))]
    args = k, drawn, diag, row_sums, out
    helped = helper and helper.submit(_panels, *args, cuts[split:], scratch[-1])
    _panels(*args, cuts[:split + 1], scratch[0])
    if helped:
        helped.result()
    sxx = quad - diag_x
    cross = lin - quad
    syy = total_off - sxx - 2.0 * cross
    return mmd.u_from_sums(sxx, cross, syy, n, m)


def _panels(k, drawn, diag, row_sums, out, cuts, scratch):
    """The sums of :func:`_null_from_gram` over the column panels between
    ``cuts``, into the rows quad, diag_x and lin of ``out``. Each panel's
    draws are unpacked into the z slot of ``scratch``. ``k`` is symmetric,
    so each round's form z·(k z) is summed, in order, over the row blocks
    I = [s, e) of :func:`_edges` as z_I·(k[I, I] z_I) + 2·z_I·(k[I, e:] z[e:]),
    each product into the slot of at most 383 rows and each term into a
    terms row: about (1/2 + 96/N)·N² multiply-adds a round instead of N².
    A pool under 384 rows is one block, whose form is the bits of z·(k z)."""
    z_slot, slot, (d, o) = scratch
    total = len(k)
    blocks = _edges(total, _BLOCK)
    for start, stop in zip(cuts, cuts[1:]):
        z = z_slot[: total * (stop - start)].reshape(total, -1)
        z[...] = np.unpackbits(drawn[:, start // 8:-(-stop // 8)], axis=1, count=z.shape[1])
        dz, oz = d[:z.shape[1]], o[:z.shape[1]]
        for s, e in zip(blocks, blocks[1:]):
            zi = z[s:e]
            kz = slot[: zi.size].reshape(zi.shape)
            np.matmul(k[s:e, s:e], zi, out=kz)
            np.einsum("ib,ib->b", zi, kz, out=dz)
            if e < total:
                np.matmul(k[s:e, e:], z[e:], out=kz)
                np.einsum("ib,ib->b", zi, kz, out=oz)
                dz += 2.0 * oz
            out[0, start:stop] += dz
        np.matmul(diag, z, out=out[1, start:stop])
        np.matmul(row_sums, z, out=out[2, start:stop])


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
    (:func:`rdpgtest.streams.helper`), which a split null's draw and half
    its panels share (:func:`_drawn`), while the calling thread embeds
    graph a; a larger graph b embeds after graph a on the calling thread.
    Either way the result, ``rng``'s end state and the error raised (graph
    a's first) are the same, at a fixed BLAS thread count.

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
    with streams.helper() as helper:
        overlap = 40 * m**2 <= _HELPER_EIGH_BYTES
        embedded = helper.submit(_spectral, graph_b, config.d) if overlap else None
        draw = _drawn(n, m, config.permutations, rng, helper)
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
    with streams.helper() as helper:
        draw = _drawn(n, m, config.permutations, rng, helper)
        return _calibrate(px, py, np.eye(px.shape[1])[None], config, {}, draw)
