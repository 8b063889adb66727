import numpy as np
import pytest
from scipy.stats import kstest

from rdpgtest.embed import ase
from rdpgtest.errors import DegenerateRowError, InsufficientSampleError, ModelError
from rdpgtest.harness import pairwise_dissimilarity, two_block_pair, uniform_box_pair
from rdpgtest.mmd import (
    EnergyKernel,
    GaussianKernel,
    InverseMultiquadricKernel,
    median_heuristic,
    u_statistic,
)
from rdpgtest.model import Graph, edge_prob_matrix, sample_latent, sample_rdpg
from rdpgtest.streams import substream
from rdpgtest.testing import (
    TestConfig,
    _calibrate,
    p_value,
    permutation_null,
    preprocess,
    two_sample_point_test,
    two_sample_test,
)

from util import random_cloud

SPEC = GaussianKernel(0.5)


def _two_graphs(epsilon, n, seed):
    f, g = two_block_pair(epsilon)
    rng = substream(seed)
    a = sample_rdpg(sample_latent(f, n, rng), 1.0, rng)
    b = sample_rdpg(sample_latent(g, n, rng), 1.0, rng)
    return a, b


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


class TestConfigValidation:
    def test_variant_checked(self):
        with pytest.raises(ValueError, match="variant"):
            TestConfig(variant="weird")

    def test_permutations_positive(self):
        with pytest.raises(ValueError, match="permutations"):
            TestConfig(permutations=0)

    def test_alpha_open_interval(self):
        with pytest.raises(ValueError, match="alpha"):
            TestConfig(alpha_level=1.0)

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
        config = TestConfig(kernel=EnergyKernel(), permutations=5, align_reflections=align)
        with pytest.raises(ValueError, match="statistic is not finite"):
            _calibrate(x, x[::-1].copy(), config, None, {})

    def test_finds_mirroring(self):
        f, _ = two_block_pair(0.0)
        rng = substream(79)
        x = sample_latent(f, 150, rng)
        y = sample_latent(f, 150, rng)
        mirrored = y * np.array([1.0, -1.0])
        report = _calibrate(x, mirrored, TestConfig(kernel=SPEC, permutations=1), None, {})
        signs = np.array(report.preprocessing["reflection"])
        assert np.array_equal(signs, [1.0, -1.0])
        aligned = u_statistic(SPEC, x, mirrored * signs)
        assert report.statistic == aligned
        assert aligned == pytest.approx(u_statistic(SPEC, x, y), abs=1e-12)
        assert aligned < u_statistic(SPEC, x, mirrored)


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
