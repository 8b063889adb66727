import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

import rdpgtest
from rdpgtest import mmd, streams, testing
from rdpgtest.embed import ase
from rdpgtest.errors import DegenerateRowError, InsufficientSampleError, ModelError
from rdpgtest.harness import pairwise_dissimilarity, two_block_pair, uniform_box_pair
from rdpgtest.mmd import (
    EnergyKernel,
    GaussianKernel,
    InverseMultiquadricKernel,
    gram,
    median_heuristic,
    off_diagonal_sum,
    u_from_sums,
    u_statistic,
)
from rdpgtest.model import Graph, edge_prob_matrix, sample_latent, sample_rdpg
from rdpgtest.streams import substream
from rdpgtest.testing import (
    TestConfig,
    _align,
    _calibrate,
    p_value,
    permutation_null,
    preprocess,
    two_sample_point_test,
    two_sample_test,
)

from util import loop_draw, one_cpu, random_cloud

SPEC = GaussianKernel(0.5)


def _two_graphs(epsilon, n, seed):
    return _graph_pair(*two_block_pair(epsilon), n, n, substream(seed))


def _graph_pair(f, g, n, m, rng):
    """A graph of ``n`` vertices from ``f``, then one of ``m`` from ``g``."""
    return (sample_rdpg(sample_latent(f, n, rng), 1.0, rng),
            sample_rdpg(sample_latent(g, m, rng), 1.0, rng))


def _drawn_null(k, n, m, permutations, rng):
    """The null of the pooled kernel matrix ``k`` by the package's one path:
    ``_drawn``, then ``_null_from_gram``, on one helper."""
    with streams.helper() as helper:
        draw = testing._drawn(n, m, permutations, rng, helper)
        return testing._null_from_gram(k, n, m, permutations, draw)


def _serial_null(k, n, m, permutations, rng):
    """The null of ``k`` with every product on the calling thread:
    ``_null_from_gram`` given no pool."""
    drawn = testing._packed(n + m, permutations)
    testing._draw(drawn, n, permutations, rng)
    return testing._null_from_gram(k, n, m, permutations, (drawn, None, None))


def _calibrated(px, py, maps, config):
    """``_calibrate`` over the candidate ``maps`` with the permutations of
    ``config.seed`` drawn first."""
    with streams.helper() as helper:
        draw = testing._drawn(len(px), len(py), config.permutations, substream(config.seed),
                              helper)
        return _calibrate(px, py, maps, config, {}, draw)


class TestPreprocess:
    def test_identity_returns_rows_unchanged(self):
        x = np.array([[0.1, 0.2], [0.3, 0.4]])
        out, info = preprocess(x, "identity")
        assert np.array_equal(out, x) and info == {}

    def test_scaling_with_unit_frame(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        out, info = preprocess(x, "scaling")
        assert np.allclose(out, x) and info["scale"] == pytest.approx(1.0)

    def test_projection_row(self):
        out, _ = preprocess(np.array([[3.0, 4.0]]), "projection")
        assert np.allclose(out, [[0.6, 0.8]])

    def test_sparse_rescaling(self):
        out, info = preprocess(np.array([[0.1, 0.2]]), "sparse", sparsity=0.25)
        assert np.allclose(out, [[0.2, 0.4]]) and info["sparsity"] == 0.25

    def test_projection_degenerate_rows(self):
        x = np.array([[0.5, 0.5], [0.0, 0.0], [1e-9, 0.0]])
        with pytest.raises(DegenerateRowError) as err:
            preprocess(x, "projection", eps_floor=1e-6)
        assert err.value.vertices == [1, 2]

    def test_sparse_needs_factor(self):
        with pytest.raises(ValueError, match="sparsity must lie in"):
            preprocess(np.ones((2, 2)) * 0.1, "sparse")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            preprocess(np.ones((2, 2)), "bogus")

    @pytest.mark.parametrize("x, message", [
        (np.empty((0, 2)), "scale must be > 0, got 0.0"),
        (np.zeros((3, 2)), "scale must be > 0, got 0.0"),
        ([[np.nan, 0.1], [0.2, 0.3]], "rows must be finite")],
        ids=["no-rows", "all-zero", "nan"])
    def test_scaling_refuses_a_scale_not_above_zero(self, x, message):
        # No rows gave {"scale": nan} after a divide warning, and a nan row
        # a nan scale; a nan row is now refused first, as in every variant.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                preprocess(x, "scaling")
        assert str(info.value) == message

    @pytest.mark.parametrize("variant", testing.VARIANTS)
    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_rows_are_refused(self, variant, entry):
        # An infinite entry gave {"scale": inf} and nan rows under scaling,
        # and a nan row after a divide warning under projection.
        x = np.array([[entry, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                preprocess(x, variant, sparsity=0.5)
        assert str(info.value) == "rows must be finite"


class TestPermutationNull:
    def test_identical_points_give_zero(self):
        pooled = np.tile([0.2, 0.3], (10, 1))
        null = permutation_null(pooled, 5, 5, SPEC, 20, substream(70))
        assert np.allclose(null, 0.0, atol=1e-12)

    def test_deterministic_given_seed(self):
        rng = substream(71)
        pooled = random_cloud(6, 2, rng)
        a = permutation_null(pooled, 3, 3, SPEC, 10, substream(72))
        b = permutation_null(pooled, 3, 3, SPEC, 10, substream(72))
        assert np.array_equal(a, b)

    def test_matches_direct_statistic(self):
        # The aggregated kernel-matrix path must agree with recomputing the
        # statistic on each permuted split.
        rng = substream(73)
        pooled = random_cloud(17, 3, rng)
        n, m = 9, 8
        null = permutation_null(pooled, n, m, SPEC, 25, substream(74))
        check_rng = substream(74)
        for b in range(25):
            perm = check_rng.permutation(17)
            direct = u_statistic(SPEC, pooled[perm[:n]], pooled[perm[n:]])
            assert null[b] == pytest.approx(direct, abs=1e-10)

    def test_mean_zero_under_exchangeability(self):
        rng = substream(75)
        pooled = random_cloud(30, 2, rng)
        null = permutation_null(pooled, 15, 15, SPEC, 2000, substream(76))
        se = null.std(ddof=1) / np.sqrt(null.size)
        assert abs(null.mean()) <= 4.0 * se

    def test_pool_size_must_match(self):
        with pytest.raises(ValueError, match="pool"):
            permutation_null(np.zeros((5, 2)), 3, 3, SPEC, 5, substream(77))

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSampleError):
            permutation_null(np.zeros((3, 2)), 1, 2, SPEC, 5, substream(78))

    def test_median_bandwidth_is_refused_before_the_draw(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew before the kernel was checked")

        monkeypatch.setattr(testing, "_draw", refuse)
        with pytest.raises(ValueError, match="^sigma = median needs the pooled rows"):
            permutation_null(random_cloud(600, 2, substream(79)), 150, 450, GaussianKernel(None),
                             600, substream(80))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_pooled_rows_are_refused_before_the_draw(self, monkeypatch, entry):
        # A nan entry gave a null of nan values with no error; an infinite
        # one warned of an invalid subtraction first.
        def refuse(*args):
            raise AssertionError("built a kernel block of non-finite rows")

        monkeypatch.setattr(mmd, "gram", refuse)
        pooled = random_cloud(10, 2, substream(81))
        pooled[3, 1] = entry
        rng = substream(82)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                permutation_null(pooled, 5, 5, SPEC, 5, rng)
        assert str(info.value) == "pooled must be finite"
        assert rng.random() == substream(82).random()


# (N, n, B) around the blocks of ``_draw``: 6144 rounds at N = 2, 1752 at
# N = 7, 240 at N = 50, 40 at N = 300, and exactly 8 from N = 1536 up.
DRAW_GRID = [
    (2, 1, 1), (2, 1, 7), (2, 1, 6144), (2, 1, 6145),
    (7, 3, 5), (7, 6, 1753),
    (50, 20, 239), (50, 20, 240), (50, 20, 241), (50, 25, 1000),
    (300, 150, 100), (300, 1, 81), (300, 299, 13),
    (1536, 400, 17), (1537, 400, 9), (1600, 400, 25),
]


class TestBlockDraw:
    """``_draw`` takes each block of rounds with one ``Generator.permuted``
    call; the packed bits and the stream's end state must be those of one
    ``Generator.permutation`` per round."""

    @pytest.mark.parametrize("total, n, permutations", DRAW_GRID)
    def test_bits_and_stream_of_the_loop(self, total, n, permutations):
        blocks, loop = (testing._packed(total, permutations) for _ in range(2))
        rng_blocks, rng_loop = (substream(160, total, permutations) for _ in range(2))
        testing._draw(blocks, n, permutations, rng_blocks)
        loop_draw(loop, n, permutations, rng_loop)
        assert np.array_equal(blocks, loop)
        assert rng_blocks.random() == rng_loop.random()

    @pytest.mark.parametrize("total, permutations, shapes", [
        (2, 6145, [(6144, 2), (1, 2)]),
        (50, 1000, [(240, 50)] * 4 + [(40, 50)]),
        (1600, 17, [(8, 1600), (8, 1600), (1, 1600)]),
    ])
    def test_blocks_of_whole_bytes_within_the_budget(self, total, permutations, shapes):
        calls = []

        class Recorded(np.random.Generator):
            def permuted(self, x, **kwargs):
                calls.append(x.shape)
                return super().permuted(x, **kwargs)

        testing._draw(testing._packed(total, permutations), 1, permutations,
                      Recorded(np.random.PCG64(161)))
        assert calls == shapes

    def test_a_set_stop_ends_the_draw_before_the_next_block(self):
        stop, calls = threading.Event(), []

        class Stopping(np.random.Generator):
            def permuted(self, x, **kwargs):
                calls.append(x.shape)
                stop.set()
                return super().permuted(x, **kwargs)

        drawn = testing._packed(300, 100)
        testing._draw(drawn, 150, 100, Stopping(np.random.PCG64(162)), stop)
        # One block of 40 rounds: 5 bytes drawn, the other 8 left zero.
        assert calls == [(40, 300)]
        assert drawn[:, :5].any(axis=0).all() and not drawn[:, 5:].any()


def _whole_null(k, n, m, permutations, rng, blocks=True):
    """The permutation null from one N x B indicator matrix: the oracle of
    the panels of ``_null_from_gram``. Its quadratic form is summed over
    row blocks I = [s, e) of 192 rows, the last with the remainder, as
    z_I·(k[I, I] z_I) + 2·z_I·(k[I, e:] z[e:]) in block order; with
    ``blocks=False`` it is one z·(k z) over all rows, which agrees to
    rounding, and bit for bit under 384 rows."""
    total = n + m
    diag = np.diagonal(k).copy()
    row_sums = k.sum(axis=1)
    total_off = float(k.sum() - diag.sum())
    z = np.zeros((total, permutations))
    for b in range(permutations):
        z[rng.permutation(total)[:n], b] = 1.0
    if blocks:
        stops = list(range(192, total - 191, 192)) + [total]
        quad = sum(np.einsum("ib,ib->b", z[s:e], k[s:e, s:e] @ z[s:e])
                   + 2.0 * np.einsum("ib,ib->b", z[s:e], k[s:e, e:] @ z[e:])
                   for s, e in zip([0] + stops[:-1], stops))
    else:
        quad = np.einsum("ib,ib->b", z, k @ z)
    sxx = quad - diag @ z
    cross = row_sums @ z - quad
    return u_from_sums(sxx, cross, total_off - sxx - 2.0 * cross, n, m)


# (7, 13) at B = 9217 moved one value's last bits with panels of 1024: the
# last panel's product went to OpenBLAS's small-matrix kernel. N = 400 is
# two blocks, of 192 and 208 rows.
PANEL_SIZES = [(7, 13), (13, 29), (150, 250)]
PANEL_PERMUTATIONS = [1, 255, 256, 257, 511, 512, 767, 1023, 1024, 1025, 2 * 1024 + 17, 9217]
# (300, 500) at these B moved one value's last bits when the helper split
# the last panel, whose width is not a multiple of 8, by rows.
RAGGED_SPLITS = [(300, 500, 519), (300, 500, 2059)]
# N = 383 is one block of 383 rows and 384 two of 192; 575 is two blocks,
# the last of 383 rows, and 576 three of 192; 1600 is seven of 192, then 256.
BLOCK_SPLITS = [(100, 283, 600), (100, 284, 600), (175, 400, 600), (176, 400, 600),
                (400, 1200, 600)]
PANEL_CASES = ([(n, m, b) for n, m in PANEL_SIZES for b in PANEL_PERMUTATIONS]
               + RAGGED_SPLITS + BLOCK_SPLITS)


def write_panel_nulls(path):
    """Each (n, m, B) in PANEL_CASES: the null in panels, by the package's
    path (with the helper thread where the panels split) and with no
    pool, and from the whole matrix, by blocks and by one product, saved
    to ``path`` (npz)."""
    nulls = {}
    for n, m, b in PANEL_CASES:
        pooled = random_cloud(n + m, 2, substream(130, n))
        k = gram(SPEC, pooled, pooled)
        nulls[f"helper-{n}-{m}-{b}"] = _drawn_null(k, n, m, b, substream(131, b))
        nulls[f"serial-{n}-{m}-{b}"] = _serial_null(k, n, m, b, substream(131, b))
        nulls[f"whole-{n}-{m}-{b}"] = _whole_null(k, n, m, b, substream(131, b))
        nulls[f"product-{n}-{m}-{b}"] = _whole_null(k, n, m, b, substream(131, b), blocks=False)
    np.savez(path, **nulls)


# N = 600 is three blocks (192, 192, 216) and takes panels of 256: B = 600
# and B = 603 are two panels, the helper's of 344 and 347 columns.
SPLIT_TESTS = [(150, 450, 600), (150, 450, 603), (450, 150, 600)]
# Every caller of the null: the graph test at SPLIT_TESTS, the point test
# and the null alone at the first two.
SPLIT_CALLS = ([("test", *case) for case in SPLIT_TESTS]
               + [(name, *case) for name in ("point", "null") for case in SPLIT_TESTS[:2]])


# The legs of each call in the writers below: every call on the calling
# thread, the helper's paths, and those pinned to one CPU where the
# platform can pin.
LEGS = ("serial", "helper") + (("one-cpu",) if hasattr(os, "sched_setaffinity") else ())


@contextmanager
def _leg(name):
    """A call run as leg ``name`` of LEGS. The serial leg keeps it on the
    calling thread, as for inputs over the size rules: no null's products
    split and no graph b fits the helper's eigh budget. The helper's legs
    run under ``sys.setswitchinterval(1e-6)``, so the threads interleave
    often."""
    saved = testing._splits, testing._HELPER_EIGH_BYTES, sys.getswitchinterval()
    if name == "serial":
        testing._splits, testing._HELPER_EIGH_BYTES = (lambda total, permutations: False), 0
    else:
        sys.setswitchinterval(1e-6)
    try:
        with one_cpu() if name == "one-cpu" else nullcontext():
            yield
    finally:
        testing._splits, testing._HELPER_EIGH_BYTES = saved[:2]
        sys.setswitchinterval(saved[2])


def write_split_tests(path):
    """Each (call, n, m, B) in SPLIT_CALLS in each of LEGS, once with an
    explicit stream and once with the stream of the seed. Saves to ``path``
    (npz) the null values, the statistics and p-values of the tests, the
    explicit stream's next draw, the threads started and the draws run off
    the main thread."""
    started, off_main = [], []
    thread_class, draw = threading.Thread, testing._draw

    def counted(*args, **kwargs):
        started.append(thread := thread_class(*args, **kwargs))
        return thread

    def recorded_draw(*args):
        off_main.append(threading.current_thread() is not threading.main_thread())
        return draw(*args)

    threading.Thread, testing._draw = counted, recorded_draw
    f, g = two_block_pair(0.1)
    saved = {}
    for name, n, m, b in SPLIT_CALLS:
        graphs = _graph_pair(f, g, n, m, substream(150, n, m))
        pooled = random_cloud(n + m, 2, substream(153, n, m))
        config = TestConfig(d=2, permutations=b, seed=151)
        call = {
            "test": lambda rng: two_sample_test(*graphs, config, rng=rng),
            "point": lambda rng: two_sample_point_test(pooled[:n], pooled[n:], config, rng=rng),
            "null": lambda rng: permutation_null(
                pooled, n, m, SPEC, b, substream(151) if rng is None else rng),
        }[name]
        for leg in LEGS:
            del started[:], off_main[:]
            with _leg(leg):
                stream = substream(152, b)
                explicit, seeded = call(stream), call(None)
            key = f"{name}-{leg}-{n}-{m}-{b}"
            scalars = [stream.random()]
            if name != "null":
                scalars += [explicit.statistic, explicit.p_value, seeded.statistic, seeded.p_value]
                explicit, seeded = explicit.null_values, seeded.null_values
            saved[f"{key}-null"], saved[f"{key}-seeded-null"] = explicit, seeded
            saved[f"{key}-scalars"] = np.array(scalars)
            saved[f"{key}-threads"] = np.array([len(started), sum(off_main)])
    np.savez(path, **saved)


# (n, m, B, helped, threads) around the helper's eigh budget of 2 MiB (graph
# b of up to 228 vertices): equal sizes on either side of it, unequal sizes
# with graph b under it, larger or smaller than graph a, and over it, and
# nulls that split (N = 600, two panels of 256) with and without an
# embedding on the helper. ``helped`` is the size of the graph embedded off
# the main thread (0: none) and ``threads`` the threads started, on the
# helper's legs.
HELPER_TESTS = [(228, 228, 50, 228, 1), (229, 229, 50, 0, 0), (100, 200, 50, 200, 1),
                (300, 100, 50, 100, 1), (100, 300, 50, 0, 0), (450, 150, 600, 150, 1),
                (300, 300, 600, 0, 1)]


def write_helper_tests(path):
    """Each (n, m, B) in HELPER_TESTS under every variant, in each of LEGS.
    Saves to ``path`` (npz) the null values; the statistic, p-value and
    the explicit stream's next draw; the preprocessing record, with the
    chosen reflection; and the threads started with the vertices embedded
    off the main thread."""
    started, helped = [], []
    thread_class, spectral = threading.Thread, testing._spectral

    def counted(*args, **kwargs):
        started.append(thread := thread_class(*args, **kwargs))
        return thread

    def recorded_spectral(graph, d):
        if threading.current_thread() is not threading.main_thread():
            helped.append(graph.n)
        return spectral(graph, d)

    threading.Thread, testing._spectral = counted, recorded_spectral
    f, g = two_block_pair(0.1)
    saved = {}
    for n, m, b, *_ in HELPER_TESTS:
        graphs = _graph_pair(f, g, n, m, substream(170, n, m))
        for variant in testing.VARIANTS:
            config = TestConfig(variant=variant, permutations=b, seed=171, sparsity_x=0.9,
                                sparsity_y=0.7)
            for leg in LEGS:
                del started[:], helped[:]
                with _leg(leg):
                    stream = substream(172, n, m)
                    report = two_sample_test(*graphs, config, rng=stream)
                key = f"{variant}-{leg}-{n}-{m}-{b}"
                saved[f"{key}-null"] = report.null_values
                saved[f"{key}-scalars"] = np.array([report.statistic, report.p_value,
                                                    stream.random()])
                saved[f"{key}-info"] = np.array(repr(report.preprocessing))
                saved[f"{key}-threads"] = np.array([len(started), sum(helped)])
    np.savez(path, **saved)


def write_core_count_calls(path):
    """The calls whose work a helper thread shares: a 150 x 150 graph test
    (graph b embeds on the helper), a 450 x 150 test with B = 600 (and a
    null that splits), the null alone at N = 600, B = 600 and a six-graph
    dissimilarity matrix. Saves to ``path`` (npz) each result, the next
    draw of each call's stream, the threads each call started and the
    CPUs the process may run on."""
    started, thread_class = [], threading.Thread

    def counted(*args, **kwargs):
        started.append(thread := thread_class(*args, **kwargs))
        return thread

    threading.Thread = counted
    f, g = two_block_pair(0.1)
    small = _graph_pair(f, g, 150, 150, substream(180))
    split = _graph_pair(f, g, 450, 150, substream(181))
    pooled = random_cloud(600, 2, substream(182))
    graphs = [graph for n in (40, 50, 60) for graph in _graph_pair(f, g, n, n, substream(183, n))]
    saved = {"cpus": np.array(len(os.sched_getaffinity(0)))}
    calls = {
        "small": lambda rng: two_sample_test(*small, TestConfig(permutations=200), rng=rng),
        "split": lambda rng: two_sample_test(*split, TestConfig(permutations=600), rng=rng),
        "null": lambda rng: permutation_null(pooled, 150, 450, SPEC, 600, rng),
        "dissim": lambda rng: pairwise_dissimilarity(graphs, 2, SPEC, floor=False).values,
    }
    for name, call in calls.items():
        del started[:]
        stream = substream(184)
        result = call(stream)
        if isinstance(result, testing.TestReport):
            saved[f"{name}-report"] = np.array(result.to_json())
            saved[f"{name}-info"] = np.array(repr(result.preprocessing))
            result = result.null_values
        saved[f"{name}-values"] = result
        saved[f"{name}-next"] = np.array(stream.random())
        saved[f"{name}-threads"] = np.array(len(started))
    np.savez(path, **saved)


def _fresh_interpreter(tmp_path_factory, writer, pinned=False):
    """``test_testing.<writer>(path)`` run in a fresh interpreter with one
    BLAS thread, pinned to one CPU before its first call when ``pinned``;
    returns the arrays it saved. The claims are bit identity at a fixed
    thread count, like the statistic's: with more threads BLAS may split a
    panel's product between them elsewhere than the whole product, which
    moves last bits."""
    path = tmp_path_factory.mktemp(writer) / "saved.npz"
    src = str(Path(rdpgtest.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, str(Path(__file__).parent),
                                               os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    call = f"test_testing.{writer}({str(path)!r})"
    code = (f"import test_testing, util\nwith util.one_cpu():\n    {call}" if pinned
            else f"import test_testing; {call}")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    with np.load(path) as saved:
        return dict(saved)


@pytest.fixture(scope="module")
def panel_nulls(tmp_path_factory):
    """:func:`write_panel_nulls` in a fresh interpreter with one BLAS thread."""
    return _fresh_interpreter(tmp_path_factory, "write_panel_nulls")


@pytest.fixture(scope="module")
def split_tests(tmp_path_factory):
    """:func:`write_split_tests` in a fresh interpreter with one BLAS thread."""
    return _fresh_interpreter(tmp_path_factory, "write_split_tests")


@pytest.fixture(scope="module")
def helper_tests(tmp_path_factory):
    """:func:`write_helper_tests` in a fresh interpreter with one BLAS thread."""
    return _fresh_interpreter(tmp_path_factory, "write_helper_tests")


@pytest.fixture(scope="module")
def core_count_calls(tmp_path_factory):
    """:func:`write_core_count_calls` in a fresh interpreter pinned to one
    CPU, then in one that is not."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is not available")
    return [_fresh_interpreter(tmp_path_factory, "write_core_count_calls", pinned)
            for pinned in (True, False)]


class TestPanelledNull:
    """``_null_from_gram`` aggregates the null in column panels, each by
    row blocks of the upper triangle, the later half of the panels on a
    worker thread where they split; each value must be the bits of the
    whole-matrix block oracle, the ragged last panel too, with the worker or
    with no pool, and within 1e-14 of one product over all rows."""

    @pytest.mark.parametrize("n, m", PANEL_SIZES)
    @pytest.mark.parametrize("permutations", PANEL_PERMUTATIONS)
    def test_bit_identical_to_whole_matrix(self, panel_nulls, n, m, permutations):
        whole = panel_nulls[f"whole-{n}-{m}-{permutations}"]
        for mode in ("helper", "serial"):
            panels = panel_nulls[f"{mode}-{n}-{m}-{permutations}"]
            assert panels.shape == (permutations,)
            assert np.array_equal(panels, whole), mode

    @pytest.mark.parametrize("n, m, permutations", RAGGED_SPLITS)
    def test_ragged_last_panel_is_not_split(self, panel_nulls, n, m, permutations):
        # Not by rows within a block: each block's products run whole.
        whole = panel_nulls[f"whole-{n}-{m}-{permutations}"]
        assert np.array_equal(panel_nulls[f"helper-{n}-{m}-{permutations}"], whole)

    @pytest.mark.parametrize("n, m, permutations", BLOCK_SPLITS)
    def test_block_boundaries_keep_the_oracle_bits(self, panel_nulls, n, m, permutations):
        whole = panel_nulls[f"whole-{n}-{m}-{permutations}"]
        for mode in ("helper", "serial"):
            assert np.array_equal(panel_nulls[f"{mode}-{n}-{m}-{permutations}"], whole), mode

    @pytest.mark.parametrize("n, m, permutations", PANEL_CASES)
    def test_within_rounding_of_one_product(self, panel_nulls, n, m, permutations):
        # Under 384 rows the blocks are one product: the same bits.
        whole, product = (panel_nulls[f"{oracle}-{n}-{m}-{permutations}"]
                          for oracle in ("whole", "product"))
        assert np.allclose(whole, product, rtol=0, atol=1e-14)
        if n + m < 384:
            assert np.array_equal(whole, product)

    def test_stream_is_the_whole_matrix_stream(self):
        # Whatever the thread count, the panels draw the permutations in
        # the same order, so the values agree to rounding.
        pooled = random_cloud(42, 2, substream(132))
        k = gram(SPEC, pooled, pooled)
        rng_a, rng_b = substream(133), substream(133)
        panels = _drawn_null(k, 13, 29, 2065, rng_a)
        whole = _whole_null(k, 13, 29, 2065, rng_b, blocks=False)
        assert np.allclose(panels, whole, rtol=0, atol=1e-14)
        assert rng_a.random() == rng_b.random()

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        helpers = []
        panels = testing._panels

        def fail_on_the_helper(*args):
            if threading.current_thread() is threading.main_thread():
                return panels(*args)
            helpers.append(threading.current_thread())
            raise FloatingPointError("the helper's panels failed")

        monkeypatch.setattr(testing, "_panels", fail_on_the_helper)
        pooled = random_cloud(400, 2, substream(138))
        running = threading.active_count()
        with pytest.raises(FloatingPointError, match="^the helper's panels failed$"):
            _drawn_null(gram(SPEC, pooled, pooled), 100, 300, 512, substream(139))
        assert len(helpers) == 1
        assert not helpers[0].is_alive() and threading.active_count() == running

    @pytest.mark.parametrize("n, m, permutations, threads", [
        (100, 300, 511, 0), (100, 300, 512, 1), (13, 29, 2065, 1), (100, 283, 512, 1),
        (100, 284, 512, 1)])
    def test_only_a_split_product_starts_a_thread(self, monkeypatch, n, m, permutations, threads):
        # N = 400 takes panels of 256, so B = 511 is one panel; N = 42 takes
        # panels of 768, so B = 2065 is two. The row blocks do not matter:
        # N = 42 and N = 383 are one block, N = 384 is two.
        started, thread_class = [], threading.Thread

        def counted(*args, **kwargs):
            started.append(thread := thread_class(*args, **kwargs))
            return thread

        monkeypatch.setattr(threading, "Thread", counted)
        pooled = random_cloud(n + m, 2, substream(140))
        k = gram(SPEC, pooled, pooled)
        null = _drawn_null(k, n, m, permutations, substream(141))
        monkeypatch.undo()
        assert len(started) == threads
        whole = _whole_null(k, n, m, permutations, substream(141))
        assert np.allclose(null, whole, rtol=0, atol=1e-14)

    def test_block_products_take_about_half_the_multiply_adds(self, monkeypatch):
        # N = 1600, B = 10000: one product over all rows took N²·B = 2.56e10
        # multiply-adds; seven blocks of 192 rows and one of 256 take
        # (N² + 7·192² + 256²)/2·B = 1.44e10.
        total, permutations = 1600, 10000
        pooled = random_cloud(total, 2, substream(144))
        k = gram(SPEC, pooled, pooled)
        madds, matmul = [], np.matmul

        def counted(a, b, **kwargs):
            if a.ndim == b.ndim == 2:
                madds.append(a.shape[0] * a.shape[1] * b.shape[1])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        _drawn_null(k, 400, 1200, permutations, substream(145))
        monkeypatch.undo()
        assert sum(madds) == (total**2 + 7 * 192**2 + 256**2) // 2 * permutations
        assert sum(madds) <= (1 / 2 + 192 / total) * total**2 * permutations

    def test_split_null_under_fast_thread_switching(self):
        # Redrawing z or reading k @ z before the helper is done would move
        # values by far more than rounding.
        pooled = random_cloud(400, 2, substream(142))
        k = gram(SPEC, pooled, pooled)
        serial = _serial_null(k, 100, 300, 2048, substream(143))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            nulls = [_drawn_null(k, 100, 300, 2048, substream(143)) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for null in nulls:
            assert np.allclose(null, serial, rtol=0, atol=1e-14)

    def test_working_memory_is_one_panel(self):
        # N = 400, B = 8192: the whole N x B indicator matrix and its
        # product with the gram are 26 MB each; one panel of each is 3.3 MB.
        pooled = random_cloud(400, 2, substream(134))
        k = gram(SPEC, pooled, pooled)
        tracemalloc.start()
        try:
            _drawn_null(k, 100, 300, 8192, substream(135))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_working_memory_beside_the_gram(self):
        # N = 1600, B = 10000: the pooled gram takes 19.5 MiB; with it,
        # panels of 1024 columns peaked at 63.9 MiB, panels of 256 at 26.4.
        pooled = random_cloud(1600, 2, substream(136))
        tracemalloc.start()
        try:
            permutation_null(pooled, 400, 1200, SPEC, 10000, substream(137))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestDrawWhileEmbedding:
    """Every caller of the null draws the permutations before the calling
    thread embeds or builds a kernel block. When the null splits the draw
    goes to one worker thread, which in ``two_sample_test`` draws while the
    calling thread embeds a graph; on one CPU or on all, the null, the
    report and the stream's end state must be the bits of the serial leg,
    which keeps every call on the calling thread."""

    @pytest.mark.parametrize("n, m, permutations", SPLIT_TESTS)
    def test_one_core_and_two_give_the_same_bits(self, split_tests, n, m, permutations):
        self._assert_same_bits(split_tests, "test", n, m, permutations)

    @pytest.mark.parametrize("name, n, m, permutations", SPLIT_CALLS[len(SPLIT_TESTS):])
    def test_point_test_and_null_alone_too(self, split_tests, name, n, m, permutations):
        self._assert_same_bits(split_tests, name, n, m, permutations)

    @staticmethod
    def _assert_same_bits(split_tests, name, n, m, permutations):
        serial, *helped = (f"{name}-{leg}-{n}-{m}-{permutations}" for leg in LEGS)
        # Two calls each: no thread and no draw off the main thread on the
        # serial leg, a worker per call that also draws on the others.
        assert split_tests[f"{serial}-threads"].tolist() == [0, 0]
        for key in helped:
            assert split_tests[f"{key}-threads"].tolist() == [2, 2], key
            for part in ("null", "seeded-null", "scalars"):
                assert np.array_equal(split_tests[f"{key}-{part}"],
                                      split_tests[f"{serial}-{part}"]), (key, part)
        assert split_tests[f"{serial}-null"].shape == (permutations,)

    def test_embedding_error_joins_the_drawing_helper(self, monkeypatch):
        # The first block of the draw waits until the failed embedding has
        # set the draw's stop, so the draw must end after that block.
        drawing, stops, blocks, stopped = threading.Event(), [], [], []
        draw = testing._draw

        def recorded_draw(*args):
            stops.append(args[-1])
            return draw(*args)

        class Gated(np.random.Generator):
            def permuted(self, x, **kwargs):
                blocks.append(threading.current_thread())
                drawing.set()
                if len(blocks) == 1:  # an assert here would go unseen
                    stopped.append(stops[0].wait(timeout=30))
                return super().permuted(x, **kwargs)

        def failing_ase(graph, d):
            assert drawing.wait(timeout=30)
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(testing, "_draw", recorded_draw)
        monkeypatch.setattr(testing, "ase", failing_ase)
        a, b = _two_graphs(0.0, 300, seed=153)
        running = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="^eigh did not converge$"):
            two_sample_test(a, b, TestConfig(permutations=600, seed=154),
                            rng=Gated(np.random.PCG64(154)))
        # N = 600 draws 16 rounds per block: one block of 38 was drawn.
        worker = blocks[0]
        assert worker is not threading.main_thread()
        assert stopped == [True] and len(blocks) == len(stops) == 1 and not worker.is_alive()
        assert threading.active_count() == running

    @pytest.mark.parametrize("n, m, permutations, threads", [
        (150, 450, 600, 1), (150, 450, 511, 0), (450, 150, 511, 1), (450, 150, 600, 1),
        (20, 30, 5000, 1), (300, 300, 200, 0), (300, 450, 600, 1)])
    def test_at_most_one_thread_per_call(self, started, n, m, permutations, threads):
        # N = 600 takes panels of 256, so B = 511 is one panel; N = 50 takes
        # panels of 512, too small to split into two blocks of 2^20
        # multiply-adds. A graph b of 150 or 30 vertices embeds on the
        # helper, one of 300 or 450 does not, and a split null shares it.
        graphs = _graph_pair(*two_block_pair(0.0), n, m, substream(155))
        two_sample_test(*graphs, TestConfig(permutations=permutations, seed=156))
        assert len(started) == threads and not any(t.is_alive() for t in started)


class TestHelper:
    """``streams.helper`` alone starts, stops and joins a call's helper
    thread: each job runs in the submitter's context, and leaving the
    block sets the stop event, then cancels the queued jobs and joins."""

    @pytest.mark.parametrize("state", ["raise", "ignore"])
    def test_a_job_runs_under_the_callers_errstate(self, started, state):
        with np.errstate(over=state, divide=state), streams.helper() as helper:
            seen = helper.submit(np.geterr).result()
        assert seen["over"] == seen["divide"] == state
        assert len(started) == 1 and not started[0].is_alive()

    def test_an_error_sets_stop_before_the_join_and_cancels_a_queued_job(self, started):
        running, stopped, ran, jobs = threading.Event(), [], [], []

        def first(stop):
            running.set()
            stopped.append(stop.wait(timeout=30))
            deadline = time.monotonic() + 30  # hold the thread until the second job is cancelled
            while not jobs[1].cancelled() and time.monotonic() < deadline:
                time.sleep(0.001)

        with pytest.raises(RuntimeError, match="^left by an error$"):
            with streams.helper() as helper:
                jobs += [helper.submit(first, helper.stop), helper.submit(ran.append, 1)]
                assert running.wait(timeout=30)
                raise RuntimeError("left by an error")
        assert stopped == [True] and jobs[0].done() and jobs[1].cancelled() and ran == []
        assert len(started) == 1 and not started[0].is_alive()

    def test_an_unused_helper_starts_no_thread(self, started):
        with streams.helper() as helper:
            assert not helper.stop.is_set()
        assert helper.stop.is_set() and started == []


def _isolated(graph):
    """``graph`` with the edges of vertex 0 removed: its embedded row is
    zero, which the projection variant refuses."""
    adjacency = np.asarray(graph)
    adjacency[0, :] = adjacency[:, 0] = 0
    return Graph(adjacency)


class TestEmbedOnTheHelper:
    """Graph b of a test, when its eigh fits the helper's budget, embeds on
    the helper while the calling thread draws and embeds graph a. On one
    CPU or on all, the report, the stream's end state and every error must
    be those of the serial leg, which embeds both graphs on the calling
    thread, and the helper is joined before an error reaches the caller."""

    @pytest.mark.parametrize("n, m, permutations, helped, threads", HELPER_TESTS)
    @pytest.mark.parametrize("variant", testing.VARIANTS)
    def test_one_core_and_two_give_the_same_bits(self, helper_tests, variant, n, m,
                                                 permutations, helped, threads):
        serial, *helper = (f"{variant}-{leg}-{n}-{m}-{permutations}" for leg in LEGS)
        assert helper_tests[f"{serial}-threads"].tolist() == [0, 0]
        for key in helper:
            assert helper_tests[f"{key}-threads"].tolist() == [threads, helped], key
            for part in ("null", "scalars", "info"):
                assert np.array_equal(helper_tests[f"{key}-{part}"],
                                      helper_tests[f"{serial}-{part}"]), (key, part)
        assert "'reflection'" in str(helper_tests[f"{serial}-info"])
        assert helper_tests[f"{serial}-null"].shape == (permutations,)

    @staticmethod
    def _failing_eigh(monkeypatch, size, message):
        """``np.linalg.eigh`` raising ``message`` on a ``size`` x ``size``
        matrix; returns the threads it raised on."""
        eigh, failed_on = np.linalg.eigh, []

        def failing(a, *args, **kwargs):
            if len(a) == size:
                failed_on.append(threading.current_thread())
                raise np.linalg.LinAlgError(message)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        return failed_on

    @pytest.mark.parametrize("path", ["serial", "helper"])
    @pytest.mark.parametrize("n, m", [(40, 60), (60, 40)], ids=["a-smaller", "b-smaller"])
    @pytest.mark.parametrize("failing", ["a", "b"])
    def test_an_eigh_error_surfaces_at_its_graphs_turn(self, monkeypatch, started, path, n,
                                                       m, failing):
        graphs = _graph_pair(*two_block_pair(0.0), n, m, substream(173))
        size = n if failing == "a" else m
        failed_on = self._failing_eigh(monkeypatch, size, f"graph {failing}'s eigh failed")
        preprocessed = []

        def counted(*args, **kwargs):
            preprocessed.append(len(args[0].coordinates))
            return preprocess(*args, **kwargs)

        monkeypatch.setattr(testing, "preprocess", counted)
        if path == "serial":
            monkeypatch.setattr(testing, "_HELPER_EIGH_BYTES", 0)
        with pytest.raises(np.linalg.LinAlgError, match=f"^graph {failing}'s eigh failed$"):
            two_sample_test(*graphs, TestConfig(permutations=20, seed=174))
        # Graph a's rows are normalized before graph b's error is raised.
        assert preprocessed == ([] if failing == "a" else [n])
        helped = path == "helper"
        assert [t is not threading.main_thread() for t in failed_on] == [helped and failing == "b"]
        assert len(started) == helped and not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("path", ["serial", "helper"])
    @pytest.mark.parametrize("n, m", [(40, 60), (60, 40)], ids=["a-smaller", "b-smaller"])
    def test_graph_a_refused_rows_come_before_graph_b_eigh_error(self, monkeypatch, started,
                                                                 path, n, m):
        a, b = _graph_pair(*two_block_pair(0.0), n, m, substream(175))
        failed_on = self._failing_eigh(monkeypatch, m, "graph b's eigh failed")
        if path == "serial":
            monkeypatch.setattr(testing, "_HELPER_EIGH_BYTES", 0)
        with pytest.raises(DegenerateRowError) as err:
            two_sample_test(_isolated(a), b, TestConfig(variant="projection", permutations=20))
        assert err.value.vertices == [0]
        # Graph b's eigh failed on the helper, if it started before the
        # helper was joined, and never on the calling thread.
        helped = path == "helper"
        assert len(failed_on) <= helped and threading.main_thread() not in failed_on
        assert len(started) == helped and not any(t.is_alive() for t in started)


class TestOneCpu:
    """A process pinned to one CPU runs the helper's paths as one that is
    not, its helper threads inheriting the pin: each result, each stream's
    next draw and each call's thread count must be the same bits."""

    def test_results_do_not_depend_on_the_core_count(self, core_count_calls):
        pinned, free = core_count_calls
        assert pinned.pop("cpus") == 1 and free.pop("cpus") == len(os.sched_getaffinity(0))
        assert pinned.keys() == free.keys()
        for key in pinned:
            assert np.array_equal(pinned[key], free[key]), key
        # One helper thread per call, which each call gives work.
        assert [int(pinned[f"{name}-threads"]) for name in ("small", "split", "null", "dissim")] \
            == [1, 1, 1, 1]
        assert pinned["null-values"].shape == (600,) and pinned["dissim-values"].shape == (6, 6)


class TestPooledMatrixInPlace:
    """``_align`` writes the blocks into one pooled matrix; it and the sums
    must be the bits of ``np.block`` over the public ``gram`` blocks."""

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("reflections", [True, False])
    def test_matches_blocks_of_public_gram(self, d, reflections):
        rng = substream(136, d)
        # Blocks this large sum in another order as strided views of the pool.
        px = rng.normal(size=(200, d))
        py = rng.normal(size=(260, d)) * np.array([-1.0, 1.0, -1.0][:d]) + 0.4
        maps = testing._Reflections(d) if reflections else np.eye(d)[None]
        w, sums, k = _align(SPEC, px, py, maps)
        # Pattern b flips column j when bit j of b is set: map 0 is the identity.
        patterns = [np.array([1.0 if bits & (1 << j) == 0 else -1.0 for j in range(d)])
                    for bits in range(2**d if reflections else 1)]
        assert np.array_equal(maps, [np.diag(p) for p in patterns])
        crosses = [gram(SPEC, px, py * p) for p in patterns]
        best = int(np.argmax([c.sum() for c in crosses]))
        kxx, kyy, kxy = gram(SPEC, px, px), gram(SPEC, py, py), crosses[best]
        assert np.array_equal(w, np.diag(patterns[best]))
        assert sums == (off_diagonal_sum(kxx), kxy.sum(), off_diagonal_sum(kyy))
        assert np.array_equal(k, np.block([[kxx, kxy], [kxy.T, kyy]]))
        assert k.flags.c_contiguous


class TestPValue:
    def test_observed_above_all(self):
        assert p_value(10.0, np.zeros(199)) == pytest.approx(1.0 / 200.0)

    def test_observed_below_all(self):
        assert p_value(-1.0, np.zeros(199)) == 1.0

    def test_ties_count_toward_null(self):
        assert p_value(0.5, np.full(99, 0.5)) == 1.0

    def test_empty_null_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            p_value(0.0, [])

    @pytest.mark.parametrize("observed, null", [(np.nan, [1.0, 2.0]), (1.5, [1.0, np.nan])])
    def test_nan_rejected(self, observed, null):
        # A nan statistic compared below every null value: 1/3, the smallest p-value.
        with pytest.raises(ValueError, match="^the observed statistic and the null values "
                                             "must not be nan$"):
            p_value(observed, null)


class TestConfigValidation:
    def test_variant_checked(self):
        with pytest.raises(ValueError, match="variant"):
            TestConfig(variant="weird")

    def test_permutations_positive(self):
        with pytest.raises(ValueError, match="permutations"):
            TestConfig(permutations=0)

    @pytest.mark.parametrize("value", [np.nan, -1.0])
    def test_eps_floor_is_a_number_at_least_zero(self, value):
        # A nan floor would switch off the projection variant's degenerate-row check.
        with pytest.raises(ValueError) as info:
            TestConfig(eps_floor=value)
        assert str(info.value) == f"eps_floor must be >= 0, got {value}"

    def test_alpha_open_interval(self):
        with pytest.raises(ValueError, match="alpha"):
            TestConfig(alpha_level=1.0)

    @pytest.mark.parametrize("kernel", [0.5, "gaussian", None, GaussianKernel], ids=repr)
    def test_kernel_must_be_a_kernel_spec(self, kernel, monkeypatch):
        # The kernel was first used after both graphs were embedded.
        def never(*args, **kwargs):
            raise AssertionError("an embedding ran before the kernel was checked")

        f, _ = two_block_pair(0.0)
        rng = substream(130)
        graphs = [sample_rdpg(sample_latent(f, 20, rng), 1.0, rng) for _ in range(2)]
        monkeypatch.setattr(np.linalg, "eigh", never)
        with pytest.raises(ValueError) as info:
            two_sample_test(*graphs, TestConfig(kernel=kernel))
        assert str(info.value) == f"kernel must be a KernelSpec, got {kernel!r}"

    def test_checks_hold_for_the_config_lifetime(self):
        config = TestConfig(permutations=5)
        with pytest.raises(FrozenInstanceError):
            config.kernel = 0.5
        assert replace(config, seed=3).seed == 3
        with pytest.raises(ValueError, match="permutations"):
            replace(config, permutations=0)

    def test_sparse_requires_factors(self):
        with pytest.raises(ValueError, match="sparsity_x"):
            TestConfig(variant="sparse")
        cfg = TestConfig(variant="sparse", sparsity_x=0.5, sparsity_y=0.4)
        assert cfg.sparsity_x == 0.5


class TestReflectionSearch:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize("align", [True, False])
    def test_non_finite_statistic_is_an_error(self, align):
        # The energy kernel overflows to inf - inf on rows near 1e200.
        x = np.array([[1e200, 0.0], [0.0, 1e200], [1.0, 1.0]])
        config = TestConfig(kernel=EnergyKernel(), permutations=5)
        maps = testing._Reflections(2) if align else np.eye(2)[None]
        with pytest.raises(ValueError, match="statistic is not finite"):
            _calibrated(x, x[::-1].copy(), maps, config)

    def test_finds_mirroring(self):
        f, _ = two_block_pair(0.0)
        rng = substream(79)
        x = sample_latent(f, 150, rng)
        y = sample_latent(f, 150, rng)
        mirrored = y * np.array([1.0, -1.0])
        report = _calibrated(x, mirrored, testing._Reflections(2),
                             TestConfig(kernel=SPEC, permutations=1))
        signs = np.array(report.preprocessing["reflection"])
        assert np.array_equal(signs, [1.0, -1.0])
        aligned = u_statistic(SPEC, x, mirrored * signs)
        assert report.statistic == aligned
        assert aligned == pytest.approx(u_statistic(SPEC, x, y), abs=1e-12)
        assert aligned < u_statistic(SPEC, x, mirrored)


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
TURN = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])


class TestCandidateSearch:
    """``_align`` searches any list of orthogonal maps, not only sign patterns."""

    @pytest.mark.parametrize("w", [SWAP, TURN], ids=["swap", "rotation"])
    def test_chooses_a_map_that_is_not_diagonal(self, w):
        # py is px's cloud, rows shuffled, under w's inverse: py @ w is that cloud.
        rng = substream(157)
        px = rng.random((40, 2)) * np.array([1.0, 0.3]) + np.array([0.2, 0.5])
        py = px[rng.permutation(40)] @ w.T
        maps = [*testing._Reflections(2), w]
        chosen, sums, _ = _align(SPEC, px, py, maps)
        assert np.array_equal(chosen, w)
        report = _calibrated(px, py, maps, TestConfig(kernel=SPEC, permutations=5))
        assert report.statistic == u_statistic(SPEC, px, py @ w)
        assert report.statistic == u_from_sums(*sums, 40, 40)
        # A map that is not a sign pattern is recorded whole, not by its diagonal.
        assert report.preprocessing == {"map": w.tolist()}

    @pytest.mark.parametrize("order, first", [([0, 1, 2, 3], 0), ([2, 3, 0, 1], 2)])
    def test_an_exact_tie_keeps_the_first_candidate(self, order, first):
        # A zero second column: patterns 0 and 2 give the same cross block.
        rng = substream(158)
        px = rng.random((30, 2)) + 0.5
        py = (rng.random((30, 2)) + 0.5) * np.array([1.0, 0.0])
        maps = [testing._Reflections(2)[b] for b in order]
        crosses = [gram(SPEC, px, py @ w).sum() for w in maps]
        assert crosses[order.index(0)] == crosses[order.index(2)] == max(crosses)
        chosen, sums, _ = _align(SPEC, px, py, maps)
        assert np.array_equal(chosen, testing._Reflections(2)[first])
        assert sums[1] == crosses[0]
        report = _calibrated(px, py, maps, TestConfig(kernel=SPEC, permutations=5))
        assert report.preprocessing == {"reflection": np.diag(chosen).tolist()}

    def test_reflections_are_made_when_read(self):
        # The whole stack at d = 30 would hold 2^30 maps of 900 floats.
        maps = testing._Reflections(30)
        assert len(maps) == 2**30
        assert np.array_equal(maps[0], np.eye(30))
        assert np.array_equal(maps[2**30 - 1], -np.eye(30))
        assert np.array_equal(maps[-1], -np.eye(30))
        assert np.array_equal(np.diag(maps[5])[:4], [-1.0, 1.0, -1.0, 1.0])
        for b in (-(2**30) - 1, 2**30):
            with pytest.raises(IndexError):
                maps[b]
        assert len(list(testing._Reflections(3))) == 8

    def test_wide_embedding_without_alignment(self):
        # The identity alone is searched: d = 30 on 40-vertex graphs runs.
        f, _ = two_block_pair(0.0)
        rng = substream(159)
        a, b = (sample_rdpg(sample_latent(f, 40, rng), 1.0, rng) for _ in range(2))
        config = TestConfig(d=30, kernel=SPEC, permutations=5, align_reflections=False)
        report = two_sample_test(a, b, config)
        assert "reflection" not in report.preprocessing
        px, py = (preprocess(ase(g, 30), "identity")[0] for g in (a, b))
        assert report.statistic == u_statistic(SPEC, px, py)


ORACLE_CASES = [
    (kernel, variant, d)
    for kernel in (
        GaussianKernel(0.5),
        GaussianKernel(None),
        InverseMultiquadricKernel(c=1.3, beta=0.7),
        EnergyKernel(1.2),
    )
    for variant in ("identity", "projection")
    for d in (1, 2, 3)
    # one-dimensional projected rows are all +-1: the median distance is 0
    if not (kernel == GaussianKernel(None) and variant == "projection" and d == 1)
]


class TestSharedKernelBlocks:
    """The tests build each kernel block once; the public per-piece
    functions on the aligned rows must give the same bits."""

    @staticmethod
    def _assert_matches_public_path(report, px, py, config):
        kernel = config.kernel
        if kernel == GaussianKernel(None):
            kernel = GaussianKernel(median_heuristic(np.vstack([px, py])))
        py = py * np.array(report.preprocessing.get("reflection", np.ones(px.shape[1])))
        assert report.statistic == u_statistic(kernel, px, py)
        null = permutation_null(
            np.vstack([px, py]), len(px), len(py), kernel, config.permutations,
            substream(config.seed),
        )
        assert np.array_equal(report.null_values, null)

    @pytest.mark.parametrize("kernel, variant, d", ORACLE_CASES)
    def test_graph_and_point_tests(self, kernel, variant, d):
        f, g = two_block_pair(0.05)
        rng = substream(95, d)
        x = sample_latent(f, 40, rng)
        y = sample_latent(g, 55, rng)
        a, b = sample_rdpg(x, 1.0, rng), sample_rdpg(y, 1.0, rng)
        px = preprocess(ase(a, d), variant)[0]
        py = preprocess(ase(b, d), variant)[0]
        for align in (True, False):
            cfg = TestConfig(
                variant=variant, d=d, kernel=kernel, permutations=30, seed=96,
                align_reflections=align,
            )
            report = two_sample_test(a, b, cfg)
            assert ("reflection" in report.preprocessing) == align
            self._assert_matches_public_path(report, px, py, cfg)
        cols = rng.random((2, 3))[:, :d] + 0.1
        report = two_sample_point_test(x @ cols, y @ cols, cfg)
        px = preprocess(x @ cols, variant)[0]
        py = preprocess(y @ cols, variant)[0]
        self._assert_matches_public_path(report, px, py, cfg)


class TestTwoSampleTest:
    def test_rejects_non_finite_rows(self):
        x, y = random_cloud(20, 2, substream(97)), random_cloud(25, 2, substream(98))
        y[3, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            two_sample_point_test(x, y, TestConfig(permutations=20))

    def test_report_fields_and_determinism(self):
        a, b = _two_graphs(0.0, 60, seed=80)
        cfg = TestConfig(d=2, permutations=99, seed=81)
        first = two_sample_test(a, b, cfg)
        second = two_sample_test(a, b, cfg)
        assert first.statistic == second.statistic
        assert np.array_equal(first.null_values, second.null_values)
        assert first.n == first.m == 60
        assert first.rho == pytest.approx(0.5)
        assert first.scaled_statistic == pytest.approx(120 * first.statistic)
        assert 1.0 / 100.0 <= first.p_value <= 1.0
        assert first.reject == (first.p_value <= cfg.alpha_level)
        assert first.null_values.size == 99
        keys = set(first.to_dict())
        assert {"statistic", "scaled_statistic", "p_value", "n", "m", "rho",
                "variant", "kernel", "B", "seed"} <= keys
        assert "p_value=" in first.format_kv()

    def test_detects_strong_alternative(self):
        a, b = _two_graphs(0.3, 150, seed=82)
        report = two_sample_test(a, b, TestConfig(d=2, permutations=100, seed=83))
        assert report.reject and report.p_value == pytest.approx(1.0 / 101.0)

    @pytest.mark.parametrize("n, m, d", [(20, 20, 25), (20, 40, 25), (40, 20, 25), (0, 20, 2)])
    def test_dimension_cannot_exceed_graph(self, n, m, d):
        empty = Graph(np.zeros((0, 0), dtype=int))
        a = _two_graphs(0.0, n, seed=84)[0] if n else empty
        b = _two_graphs(0.0, m, seed=84)[1] if m else empty
        with pytest.raises(ValueError, match="exceeds"):
            two_sample_test(a, b, TestConfig(d=d))

    @pytest.mark.parametrize("n, m, d, error, message", [
        (40, 1, 1, InsufficientSampleError, "m=1"),
        (40, 20, 25, ValueError, "d=25 exceeds the graph size n=20"),
        (40, None, 2, ModelError, "entries must be 0 or 1"),
        (None, 40, 2, ModelError, "entries must be 0 or 1"),
    ])
    def test_inputs_are_checked_before_any_embedding_or_draw(self, monkeypatch, n, m, d, error,
                                                             message):
        def refuse(*args):
            raise AssertionError("ran before the inputs were checked")

        sizes = [size or 40 for size in (n, m)]
        graphs = [_two_graphs(0.0, size, seed=157)[0] for size in sizes]
        graphs = [np.asarray(g) * 3 if size is None else g for g, size in zip(graphs, (n, m))]
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(testing, "_draw", refuse)
        with pytest.raises(error, match=message):
            two_sample_test(*graphs, TestConfig(d=d, permutations=600))

    @pytest.mark.parametrize("rng", [None, 5, np.random.RandomState(0)],
                             ids=["None", "int", "RandomState"])
    def test_rng_must_be_a_generator(self, monkeypatch, rng):
        # None still means config.seed in the two test functions.
        def refuse(*args, **kwargs):
            raise AssertionError("ran before the rng was checked")

        a, b = _two_graphs(0.0, 30, seed=158)
        pooled = random_cloud(10, 2, substream(159))
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(testing, "preprocess", refuse)
        monkeypatch.setattr(mmd, "gram", refuse)
        calls = [lambda: permutation_null(pooled, 5, 5, SPEC, 10, rng)]
        if rng is not None:
            calls += [lambda: two_sample_test(a, b, TestConfig(permutations=600), rng=rng),
                      lambda: two_sample_point_test(pooled[:5], pooled[5:], TestConfig(), rng=rng)]
        for call in calls:
            with pytest.raises(ValueError, match=f"^rng must be a numpy.random.Generator, "
                                                 f"got {type(rng).__name__}$"):
                call()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda a, p: 3 * a, "entries must be 0 or 1"),
            (lambda a, p: a + np.eye(len(a), dtype=a.dtype), "zero diagonal"),
            (lambda a, p: p, "zero diagonal"),
        ],
        ids=["adjacency-times-3", "adjacency-plus-identity", "edge-probabilities"],
    )
    def test_array_graphs_get_the_graph_checks(self, make, message):
        f, _ = two_block_pair(0.0)
        rng = substream(92)
        x = sample_latent(f, 40, rng)
        graph = sample_rdpg(x, 1.0, rng)
        bad = make(np.asarray(graph), edge_prob_matrix(x))
        with pytest.raises(ModelError, match=message):
            two_sample_test(graph, bad, TestConfig(d=2, permutations=20))
        with pytest.raises(ValueError, match=f"graph 1: adjacency .*{message}"):
            pairwise_dissimilarity([graph, bad], 2, SPEC)

    def test_median_bandwidth_resolved(self):
        a, b = _two_graphs(0.0, 50, seed=85)
        cfg = TestConfig(d=2, kernel=GaussianKernel(None), permutations=50, seed=86)
        report = two_sample_test(a, b, cfg)
        assert report.kernel.startswith("gaussian(sigma=")
        assert "median" not in report.kernel

    def test_scaling_variant_records_factors(self):
        a, b = _two_graphs(0.0, 50, seed=87)
        cfg = TestConfig(variant="scaling", d=2, permutations=50, seed=88)
        report = two_sample_test(a, b, cfg)
        assert report.preprocessing["scale_x"] > 0
        assert report.preprocessing["scale_y"] > 0

    def test_sparse_variant_runs(self):
        f, _ = two_block_pair(0.0)
        rng = substream(89)
        a = sample_rdpg(sample_latent(f, 80, rng), 0.5, rng)
        b = sample_rdpg(sample_latent(f, 80, rng), 0.5, rng)
        cfg = TestConfig(variant="sparse", d=2, permutations=50, seed=90,
                         sparsity_x=0.5, sparsity_y=0.5)
        report = two_sample_test(a, b, cfg)
        assert report.preprocessing["sparsity_x"] == 0.5


class TestExactInvariances:
    def test_scaling_statistic_ignores_global_scale(self):
        rng = substream(91)
        for trial in range(10):
            x = random_cloud(20, 2, rng)
            y = random_cloud(15, 2, rng)
            c = float(rng.uniform(0.1, 5.0))
            base = u_statistic(SPEC, preprocess(x, "scaling")[0], preprocess(y, "scaling")[0])
            scaled = u_statistic(
                SPEC, preprocess(x, "scaling")[0], preprocess(c * y, "scaling")[0]
            )
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_projection_statistic_ignores_row_scaling(self):
        rng = substream(92)
        for trial in range(10):
            x = random_cloud(18, 3, rng) + 0.05
            y = random_cloud(12, 3, rng) + 0.05
            d = rng.uniform(0.2, 3.0, size=18)
            base = u_statistic(
                SPEC, preprocess(x, "projection")[0], preprocess(y, "projection")[0]
            )
            scaled = u_statistic(
                SPEC,
                preprocess(d[:, None] * x, "projection")[0],
                preprocess(y, "projection")[0],
            )
            assert scaled == pytest.approx(base, abs=1e-12)


class TestPointTest:
    def test_null_p_values_roughly_uniform(self):
        # A continuous null keeps the statistic free of mass ties; a point
        # mass mixture would discretize the permutation distribution.
        f, _ = uniform_box_pair(0.0)
        cfg = TestConfig(d=2, permutations=60, seed=0)
        pvals = []
        for r in range(200):
            rng = substream(93, r)
            x = f.sample(40, rng)
            y = f.sample(40, rng)
            pvals.append(two_sample_point_test(x, y, cfg, rng=rng).p_value)
        assert kstest(pvals, "uniform").statistic <= 0.12

    def test_separates_distributions(self):
        f, g = two_block_pair(0.3)
        rng = substream(94)
        report = two_sample_point_test(
            f.sample(200, rng), g.sample(200, rng), TestConfig(d=2, seed=95)
        )
        assert report.reject

    @pytest.mark.parametrize("sigma", [0.5, None])
    def test_rows_of_different_widths_are_refused_first(self, sigma, monkeypatch):
        def never(*args):
            raise AssertionError("a kernel block was built")

        monkeypatch.setattr(mmd, "gram", never)
        monkeypatch.setattr(mmd, "median_heuristic", never)
        rng = substream(96)
        with pytest.raises(ValueError) as info:
            two_sample_point_test(rng.random((5, 2)), rng.random((5, 3)),
                                  TestConfig(kernel=GaussianKernel(sigma)))
        assert str(info.value) == "dimension mismatch: 2 vs 3"
