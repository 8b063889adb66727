import numpy as np
import pytest

from rdpgtest.errors import (
    InvalidDistributionError,
    ModelError,
    NotPositiveSemidefiniteError,
)
from rdpgtest.harness import two_block_pair
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
        with pytest.raises(InvalidDistributionError, match="logit_normal_mixture"):
            sample_latent(dist, 10, substream(27), max_retries=5)

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


class TestSampleRdpg:
    def test_zero_positions_give_empty_graph(self):
        graph = sample_rdpg(np.zeros((6, 2)), 1.0, substream(30))
        assert graph.edge_count == 0

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

    def test_edges_listing(self):
        a = np.zeros((3, 3), dtype=int)
        a[0, 2] = a[2, 0] = 1
        assert Graph(a).edges() == [(0, 2)]

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
        assert graph.edges() == [(0, 2)]
        with pytest.raises(ValueError, match="always copies"):
            graph.__array__(copy=False)


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

    def test_one_dimension_never_flagged(self):
        diag = check_moment_assumption(np.full((4, 1), 0.5), gap_tol=1e-3)
        assert diag.gap == np.inf and not diag.flagged


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
