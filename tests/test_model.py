import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from rdpgtest.errors import (
    InvalidDistributionError,
    ModelError,
    NotPositiveSemidefiniteError,
)
from rdpgtest.harness import two_block_pair
from rdpgtest.io import read_edge_list, write_edge_list
from rdpgtest.model import (
    DegreeCorrected,
    DirichletLatent,
    Graph,
    LogitNormalMixture,
    PointMassMixture,
    UniformBox,
    check_moment_assumption,
    edge_prob_matrix,
    sample_latent,
    sample_rdpg,
    sbm_to_latent,
    second_moment_matrix,
)
from rdpgtest.streams import substream
from util import edge_pairs


class TestSbmToLatent:
    def test_two_block_derived_atoms(self):
        # Eigenpairs of [[0.5, 0.2], [0.2, 0.5]] are (0.7, (1,1)/sqrt(2))
        # and (0.3, (1,-1)/sqrt(2)), so the atoms are
        # (sqrt(0.35), +-sqrt(0.15)).
        dist = sbm_to_latent([[0.5, 0.2], [0.2, 0.5]], [0.4, 0.6])
        expected = np.array(
            [[np.sqrt(0.35), np.sqrt(0.15)], [np.sqrt(0.35), -np.sqrt(0.15)]]
        )
        assert np.allclose(dist.atoms, expected, atol=1e-12)

    def test_single_block_identity(self):
        dist = sbm_to_latent([[1.0]], [1.0])
        assert dist.atoms.shape == (1, 1)
        assert dist.atoms[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_offset_block_products(self):
        dist = sbm_to_latent([[0.52, 0.2], [0.2, 0.52]], [0.4, 0.6])
        products = dist.atoms @ dist.atoms.T
        assert products[0, 0] == pytest.approx(0.52, abs=1e-10)
        assert products[0, 1] == pytest.approx(0.2, abs=1e-10)

    def test_random_psd_roundtrip(self):
        rng = substream(20)
        for trial in range(25):
            k = int(rng.integers(1, 6))
            r = int(rng.integers(1, k + 1))
            atoms = rng.random((k, r)) / np.sqrt(r)
            b = atoms @ atoms.T
            weights = rng.random(k)
            weights /= weights.sum()
            dist = sbm_to_latent(b, weights)
            assert np.max(np.abs(dist.atoms @ dist.atoms.T - b)) <= 1e-10

    def test_rank_deficient_block_matrix(self):
        dist = sbm_to_latent([[0.5, 0.5], [0.5, 0.5]], [0.3, 0.7])
        assert dist.atoms.shape == (2, 1)
        assert np.max(np.abs(dist.atoms @ dist.atoms.T - 0.5)) <= 1e-10

    def test_not_psd_raises(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            sbm_to_latent([[0.5, 0.9], [0.9, 0.5]], [0.5, 0.5])

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            sbm_to_latent([[0.5, 0.2], [0.2, 0.5]], [1.0])

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError, match="symmetric"):
            sbm_to_latent([[0.5, 0.3], [0.2, 0.5]], [0.5, 0.5])

    def test_nan_probability_is_refused(self):
        # A nan passed the range check and was reported as a negative eigenvalue.
        with pytest.raises(ValueError) as info:
            sbm_to_latent([[np.nan, 0.2], [0.2, 0.5]], [0.5, 0.5])
        assert str(info.value) == "block probabilities must lie in [0, 1]"


class TestDistributionValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidDistributionError, match="sum to 1"):
            PointMassMixture([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.6])

    def test_atom_products_must_stay_in_range(self):
        with pytest.raises(InvalidDistributionError, match="inner products"):
            PointMassMixture([[1.0, 1.0]], [1.0])

    def test_box_corner_validation(self):
        with pytest.raises(InvalidDistributionError, match="corners"):
            UniformBox([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(InvalidDistributionError, match="orthant"):
            UniformBox([-0.1, 0.0], [0.5, 0.5])

    def test_dirichlet_positive_concentration(self):
        with pytest.raises(InvalidDistributionError):
            DirichletLatent([1.0, 0.0])

    @pytest.mark.parametrize("build, message", [
        (lambda: PointMassMixture([[np.nan, 0.1]], [1.0]), "atoms must be finite"),
        (lambda: PointMassMixture([[0.1, 0.1], [0.2, 0.2]], [np.nan, 1.0]),
         "weights must be finite"),
        (lambda: UniformBox([np.nan, 0.0], [0.5, 0.5]), "lower must be finite"),
        (lambda: UniformBox([0.0, 0.0], [0.5, np.nan]), "upper must be finite"),
        (lambda: DirichletLatent([np.nan, 1.0]), "concentration must be finite"),
        (lambda: DirichletLatent([np.inf, 1.0]), "concentration must be finite"),
        (lambda: LogitNormalMixture([[np.nan, 0.0]], np.eye(2), [1.0]), "means must be finite"),
        (lambda: LogitNormalMixture([[np.inf, 0.0]], np.eye(2), [1.0]), "means must be finite"),
        (lambda: LogitNormalMixture([[0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]], [1.0]),
         "covs must be finite"),
        (lambda: LogitNormalMixture([[0.0, 0.0]], np.eye(2), [1.0], scale=np.nan),
         "scale must be finite and > 0, got nan"),
        (lambda: LogitNormalMixture([[0.0, 0.0]], np.eye(2), [1.0], scale=np.inf),
         "scale must be finite and > 0, got inf"),
    ], ids=["atom-nan", "weight-nan", "lower-nan", "upper-nan", "concentration-nan",
            "concentration-inf", "mean-nan", "mean-inf", "cov-nan", "scale-nan", "scale-inf"])
    def test_non_finite_parameters_are_refused_when_built(self, build, message):
        # Each was built and failed only when sampled, with a message that
        # named no field (or drew from an infinite parameter).
        with pytest.raises(InvalidDistributionError) as info:
            build()
        assert str(info.value) == message

    def test_degree_corrected_theta_range(self):
        directions = PointMassMixture([[0.6, 0.0]], [1.0])
        with pytest.raises(InvalidDistributionError):
            DegreeCorrected(directions, theta_low=0.0, theta_high=0.5)
        with pytest.raises(InvalidDistributionError):
            DegreeCorrected(directions, theta_low=0.5, theta_high=1.5)


class TestSampleLatent:
    def test_single_atom_rows_identical(self):
        dist = PointMassMixture([[0.3, 0.4]], [1.0])
        sample = sample_latent(dist, 3, substream(21))
        assert np.array_equal(sample, np.tile([0.3, 0.4], (3, 1)))

    def test_uniform_box_mean(self):
        b = 1.0 / np.sqrt(3.0)
        dist = UniformBox([0.0, 0.0], [b, b])
        sample = sample_latent(dist, 10**4, substream(22))
        se = b / np.sqrt(12.0 * 10**4)
        assert np.all(np.abs(sample.mean(axis=0) - b / 2.0) <= 3.0 * se)

    def test_two_block_atom_frequencies(self):
        f, _ = two_block_pair(0.0)
        sample = sample_latent(f, 10**4, substream(23))
        frac_first = np.mean(sample[:, 1] > 0)
        se = np.sqrt(0.4 * 0.6 / 10**4)
        assert abs(frac_first - 0.4) <= 3.0 * se

    def test_bit_reproducible_per_seed_and_replicate(self):
        f, _ = two_block_pair(0.0)
        a = sample_latent(f, 50, substream(24, 3))
        b = sample_latent(f, 50, substream(24, 3))
        c = sample_latent(f, 50, substream(24, 4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dirichlet_rows_on_simplex(self):
        sample = sample_latent(DirichletLatent([2.0, 1.0, 1.0]), 200, substream(25))
        assert np.all(sample >= 0)
        assert np.allclose(sample.sum(axis=1), 1.0)
        products = sample @ sample.T
        assert products.min() >= -1e-9 and products.max() <= 1.0 + 1e-9

    def test_logit_normal_default_scale_valid(self):
        dist = LogitNormalMixture(
            means=[[0.0, 0.0], [4.0, 4.0]],
            covs=[np.eye(2), np.eye(2)],
            weights=[0.4, 0.6],
        )
        sample = sample_latent(dist, 500, substream(26))
        assert sample.min() > 0
        assert sample.max() < 1.0 / np.sqrt(2.0)
        products = sample @ sample.T
        assert products.min() >= -1e-12 and products.max() <= 1.0 + 1e-12

    def test_logit_normal_retry_cap(self):
        # With scale 1 in two dimensions almost every row violates the
        # inner-product envelope, so the resampling cap must trip.
        dist = LogitNormalMixture(
            means=[[4.0, 4.0]], covs=[0.01 * np.eye(2)], weights=[1.0], scale=1.0
        )
        with pytest.raises(InvalidDistributionError, match="logit_normal_mixture: .* after 100 retries"):
            sample_latent(dist, 10, substream(27))

    def test_degree_corrected_shrinks_directions(self):
        directions = PointMassMixture([[0.7, 0.0], [0.0, 0.7]], [0.5, 0.5])
        dist = DegreeCorrected(directions, theta_low=0.2, theta_high=0.9)
        sample = sample_latent(dist, 300, substream(28))
        norms = np.linalg.norm(sample, axis=1)
        assert np.all(norms <= 0.7 * 0.9 + 1e-12)
        assert np.all(norms >= 0.7 * 0.2 - 1e-12)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_latent(PointMassMixture([[0.5]], [1.0]), 0, substream(29))

    @pytest.mark.parametrize("rng", [None, 5, np.random.RandomState(0)],
                             ids=["None", "int", "RandomState"])
    def test_rng_must_be_a_generator(self, rng):
        # sample_latent failed on None with an AttributeError and drew from
        # a RandomState; sample_rdpg had a rule of its own.
        calls = (lambda: sample_latent(PointMassMixture([[0.5]], [1.0]), 3, rng),
                 lambda: sample_rdpg(np.full((3, 2), 0.3), 1.0, rng))
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            got = type(rng).__name__
            assert str(info.value) == f"rng must be a numpy.random.Generator, got {got}"


def triu_sample(latent, sparsity, rng):
    """The index sampler: one draw for the pairs ``i < j`` in row-major
    order, gathered and scattered through ``np.triu_indices``, from
    ``sparsity * (x @ x.T)`` out of place. The oracle of ``sample_rdpg``."""
    x = np.atleast_2d(np.asarray(latent, float))
    p = sparsity * (x @ x.T)
    n = x.shape[0]
    iu = np.triu_indices(n, k=1)
    a = np.zeros((n, n), dtype=np.int8)
    a[iu] = rng.random(iu[0].size) < p[iu]
    return a + a.T


SAMPLER_FAMILIES = {
    "two_block": two_block_pair(0.1)[1],
    "dirichlet": DirichletLatent([1.0, 2.0, 0.5]),
    "box": UniformBox([0.1, 0.0], [0.6, 0.7]),
    "logit_normal": LogitNormalMixture([[0.0, 0.0], [1.0, -1.0]], [np.eye(2), 0.5 * np.eye(2)],
                                       [0.5, 0.5]),
    "degree_corrected": DegreeCorrected(two_block_pair(0.0)[0], 0.4, 1.0),
}


class TestSampleRdpg:
    @pytest.mark.parametrize("family", SAMPLER_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 150, 1201])
    @pytest.mark.parametrize("sparsity", [1.0, 0.3])
    def test_bit_identical_to_the_index_sampler(self, family, n, sparsity):
        x = sample_latent(SAMPLER_FAMILIES[family], n, substream(39, n))
        rng, oracle_rng = substream(40, n), substream(40, n)
        graph = sample_rdpg(x, sparsity, rng)
        assert np.array_equal(graph.adjacency, triu_sample(x, sparsity, oracle_rng))
        assert graph.adjacency.dtype == np.int8
        assert rng.random() == oracle_rng.random()

    def test_working_memory_is_the_probabilities_and_the_draw(self):
        # n = 1000: the probabilities take 8n² bytes and the one draw 4n²;
        # index arrays and a boolean draw would add over 2 x 8n² more.
        n = 1000
        x = sample_latent(two_block_pair(0.0)[0], n, substream(41))
        tracemalloc.start()
        try:
            sample_rdpg(x, 1.0, substream(42))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n * n

    def test_zero_positions_give_empty_graph(self):
        graph = sample_rdpg(np.zeros((6, 2)), 1.0, substream(30))
        assert graph.edge_count == 0

    def test_no_positions_give_the_graph_of_no_vertices(self, tmp_path):
        # Both failed in the bounds check: a minimum of no entries.
        assert edge_prob_matrix(np.empty((0, 2))).shape == (0, 0)
        rng, untouched = substream(32), substream(32)
        graph = sample_rdpg(np.empty((0, 2)), 0.5, rng)
        assert graph.n == graph.edge_count == 0 and graph.adjacency.shape == (0, 0)
        assert rng.random() == untouched.random()
        write_edge_list(graph, tmp_path / "empty.txt")
        assert read_edge_list(tmp_path / "empty.txt").n == 0

    def test_unit_positions_give_complete_graph(self):
        x = np.tile([1.0, 0.0], (6, 1))
        graph = sample_rdpg(x, 1.0, substream(31))
        assert graph.edge_count == 6 * 5 // 2

    def test_symmetry_and_hollow_diagonal_exact(self):
        f, _ = two_block_pair(0.0)
        for seed in range(5):
            x = sample_latent(f, 40, substream(32, seed))
            a = sample_rdpg(x, 1.0, substream(33, seed)).adjacency
            assert np.array_equal(a, a.T)
            assert np.all(np.diagonal(a) == 0)
            assert set(np.unique(a)) <= {0, 1}

    def test_mean_edge_count_matches_probability_sum(self):
        f, _ = two_block_pair(0.0)
        x = sample_latent(f, 500, substream(34))
        p = edge_prob_matrix(x)
        iu = np.triu_indices(500, k=1)
        expected = p[iu].sum()
        se = np.sqrt((p[iu] * (1.0 - p[iu])).sum() / 200)
        counts = [sample_rdpg(x, 1.0, substream(35, r)).edge_count for r in range(200)]
        assert abs(np.mean(counts) - expected) <= 3.0 * se

    def test_edge_indicator_frequency(self):
        x = np.array([[0.8, 0.0], [0.5, 0.3], [0.1, 0.6], [0.4, 0.4]])
        p01 = float(x[0] @ x[1])
        draws = 2000
        hits = sum(
            int(sample_rdpg(x, 1.0, substream(36, r)).adjacency[0, 1]) for r in range(draws)
        )
        tol = 4.0 * np.sqrt(p01 * (1.0 - p01) / draws)
        assert abs(hits / draws - p01) <= tol

    def test_sparsity_scales_probabilities(self):
        x = np.tile([1.0, 0.0], (80, 1))
        graph = sample_rdpg(x, 0.3, substream(37))
        pairs = 80 * 79 // 2
        assert abs(graph.edge_count / pairs - 0.3) <= 4.0 * np.sqrt(0.3 * 0.7 / pairs)

    def test_invalid_probability_raises_not_clamps(self):
        x = np.array([[1.2, 0.0], [1.0, 0.0]])
        with pytest.raises(ModelError, match="probabilities"):
            sample_rdpg(x, 1.0, substream(38))

    def test_rng_required(self):
        with pytest.raises(ValueError):
            sample_rdpg(np.zeros((3, 2)), 1.0)

    def test_nan_position_is_refused_not_edgeless(self):
        # A nan row passed the bounds test and became a vertex with no edges.
        x = [[0.5, 0.5], [np.nan, 0.2], [0.3, 0.3]]
        for call in (lambda: edge_prob_matrix(x), lambda: sample_rdpg(x, 1.0, substream(38))):
            with pytest.raises(ModelError) as info:
                call()
            assert str(info.value) == "edge probabilities span [nan, nan], outside [0, 1]"


class TestEdgeProbMatrix:
    def test_orthonormal_rows(self):
        p = edge_prob_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(p, np.eye(2))

    def test_single_atom_constant(self):
        x = np.tile([0.6, 0.3], (4, 1))
        p = edge_prob_matrix(x, 0.5)
        assert np.allclose(p, 0.5 * (0.36 + 0.09))

    def test_two_block_entries(self):
        f, _ = two_block_pair(0.0)
        x = sample_latent(f, 50, substream(39))
        p = edge_prob_matrix(x)
        assert np.allclose(np.unique(np.round(p, 10)), [0.2, 0.5])


class TestGraphContainer:
    def test_rejects_asymmetric(self):
        a = np.zeros((3, 3), dtype=int)
        a[0, 1] = 1
        with pytest.raises(ModelError, match="symmetric"):
            Graph(a)

    def test_rejects_self_loops(self):
        with pytest.raises(ModelError, match="diagonal"):
            Graph(np.eye(3, dtype=int))

    def test_rejects_weights(self):
        a = np.zeros((2, 2))
        a[0, 1] = a[1, 0] = 0.5
        with pytest.raises(ModelError, match="0 or 1"):
            Graph(a)

    def test_array_protocol_gives_a_fresh_copy(self):
        a = np.zeros((3, 3), dtype=int)
        a[0, 2] = a[2, 0] = 1
        graph = Graph(a)
        # NumPy 1.x calls __array__() or __array__(dtype), without ``copy``.
        plain, floats = graph.__array__(), graph.__array__(float)
        assert plain.dtype == np.int8 and floats.dtype == np.float64
        assert np.array_equal(plain, a) and np.array_equal(floats, a)
        for view in (plain, floats, np.asarray(graph), np.asarray(graph, dtype=float)):
            view[0, 2] = 0
        assert edge_pairs(graph) == [(0, 2)]
        with pytest.raises(ValueError, match="always copies"):
            graph.__array__(copy=False)

    def test_a_checked_graph_cannot_be_changed(self, tmp_path):
        # A loop and a one-sided edge written into the stored matrix were
        # dropped by write_edge_list without a word.
        graph = Graph(np.zeros((3, 3), dtype=int))
        for i, j in ((2, 2), (1, 2)):
            with pytest.raises(ValueError, match="read-only"):
                graph.adjacency[i, j] = 1
        with pytest.raises(FrozenInstanceError):
            graph.adjacency = np.ones((3, 3), dtype=np.int8)
        write_edge_list(graph, tmp_path / "g.edges")
        assert (tmp_path / "g.edges").read_text() == "# vertices: 3\n"


class TestMomentDiagnostic:
    def test_tied_eigenvalues_flagged(self):
        diag = check_moment_assumption(np.array([[1.0, 0.0], [0.0, 1.0]]), gap_tol=1e-3)
        assert np.allclose(diag.eigenvalues, [0.5, 0.5])
        assert diag.gap == 0.0 and diag.flagged

    def test_repeated_atom_passes(self):
        x = np.tile([1.0, 0.0], (5, 1))
        diag = check_moment_assumption(x, gap_tol=1e-3)
        assert np.allclose(diag.eigenvalues, [1.0, 0.0], atol=1e-12)
        assert diag.gap == pytest.approx(1.0) and not diag.flagged

    def test_two_block_matches_analytic_moment(self):
        f, _ = two_block_pair(0.0)
        sample = sample_latent(f, 10**4, substream(40))
        diag = check_moment_assumption(sample)
        analytic = np.linalg.eigvalsh(f.second_moment())[::-1]
        assert np.allclose(diag.eigenvalues, analytic, atol=0.02)
        assert not diag.flagged

    def test_nan_gap_is_flagged(self):
        # A nan row gave gap = nan and flagged = False.
        diag = check_moment_assumption([[0.5, 0.5], [np.nan, 0.2], [0.3, 0.3]])
        assert np.isnan(diag.gap) and diag.flagged is True

    def test_one_dimension_never_flagged(self):
        diag = check_moment_assumption(np.full((4, 1), 0.5), gap_tol=1e-3)
        assert diag.gap == np.inf and not diag.flagged

    @pytest.mark.parametrize("gap_tol", [np.nan, -1e-3, "0.1", None, True, np.bool_(False)])
    def test_gap_tol_is_a_number_at_least_zero(self, gap_tol):
        # A nan tolerance returned flagged=False whatever the gap.
        with pytest.raises(ValueError) as info:
            check_moment_assumption(np.eye(2), gap_tol=gap_tol)
        assert str(info.value) == f"gap_tol must be a number >= 0, got {gap_tol!r}"
        assert check_moment_assumption(np.eye(2), gap_tol=0.0).flagged is False


class TestSecondMoment:
    def test_analytic_matches_sampling(self):
        rng = substream(41)
        cases = [
            PointMassMixture([[0.5, 0.2], [0.1, 0.6]], [0.3, 0.7]),
            DirichletLatent([2.0, 3.0, 1.0]),
            UniformBox([0.1, 0.0], [0.5, 0.6]),
            DegreeCorrected(
                PointMassMixture([[0.7, 0.0], [0.0, 0.7]], [0.4, 0.6]),
                theta_low=0.3,
                theta_high=0.9,
            ),
        ]
        for dist in cases:
            x = dist.sample(200000, rng)
            empirical = x.T @ x / x.shape[0]
            assert np.allclose(dist.second_moment(), empirical, atol=5e-3)

    def test_logit_normal_falls_back_to_surrogate(self):
        dist = LogitNormalMixture(
            means=[[0.0, 0.0]], covs=[np.eye(2)], weights=[1.0]
        )
        assert dist.second_moment() is None
        m = second_moment_matrix(dist, rng=substream(42), surrogate_size=5000)
        assert m.shape == (2, 2) and np.allclose(m, m.T)
        with pytest.raises(ValueError, match="rng"):
            second_moment_matrix(dist)
