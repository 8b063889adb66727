import numpy as np
import pytest

from rdpgtest.embed import (
    ase,
    fix_signs,
    procrustes_align,
    second_moment_rotation,
    two_to_infinity,
)
from rdpgtest.harness import two_block_pair
from rdpgtest.model import edge_prob_matrix, sample_latent, sample_rdpg
from rdpgtest.streams import substream

from util import random_cloud, random_orthogonal


class TestAse:
    def test_exact_recovery_orthonormal_rows(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        emb = ase(x @ x.T, 2)
        assert procrustes_align(emb.coordinates, x).frobenius_error <= 1e-8

    def test_scaled_identity_single_column(self):
        emb = ase(2.25 * np.eye(5), 1)
        col = emb.coordinates[:, 0]
        assert np.linalg.norm(col) == pytest.approx(1.5, abs=1e-12)
        assert emb.eigenvalues[0] == pytest.approx(2.25, abs=1e-12)
        assert col.sum() > 0 or col[np.argmax(np.abs(col))] > 0

    def test_noiseless_two_block_reproduces_block_matrix(self):
        f, _ = two_block_pair(0.0)
        x = sample_latent(f, 200, substream(50))
        p = edge_prob_matrix(x)
        emb = ase(p, 2)
        assert np.max(np.abs(emb.coordinates @ emb.coordinates.T - p)) <= 1e-8
        keys, first = np.unique(np.round(emb.coordinates, 6), axis=0, return_index=True)
        assert keys.shape[0] == 2
        clusters = emb.coordinates[first]
        products = clusters @ clusters.T
        assert np.allclose(np.diag(products), 0.5, atol=1e-7)
        assert products[0, 1] == pytest.approx(0.2, abs=1e-7)

    def test_spectral_reconstruction_of_psd_rank_d(self):
        rng = substream(51)
        for trial in range(10):
            n = int(rng.integers(10, 60))
            d = int(rng.integers(1, 5))
            x = random_cloud(n, d, rng)
            m = x @ x.T
            emb = ase(m, d)
            err = np.linalg.norm(emb.coordinates @ emb.coordinates.T - m)
            assert err <= 1e-8 * np.linalg.norm(m)

    def test_selection_rule_against_full_spectrum(self):
        rng = substream(52)
        for trial in range(10):
            n = int(rng.integers(5, 51))
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2.0
            d = int(rng.integers(1, n + 1))
            emb = ase(m, d)
            # Signed values by descending magnitude, a positive one first on a tie.
            values = np.linalg.eigvalsh(m)
            expected = values[np.lexsort((-values, -np.abs(values)))][:d]
            assert np.allclose(emb.eigenvalues, expected, atol=1e-10)

    def test_negative_dominant_eigenvalue_enters(self):
        m = np.diag([-5.0, 3.0, 1.0])
        emb = ase(m, 2)
        assert np.allclose(emb.eigenvalues, [-5.0, 3.0])
        assert np.allclose(np.abs(emb.coordinates), [[np.sqrt(5.0), 0.0], [0.0, np.sqrt(3.0)],
                                                     [0.0, 0.0]])

    def test_magnitude_tie_prefers_positive_eigenvalue(self):
        emb = ase(np.diag([2.0, -2.0, 1.0]), 1)
        assert emb.eigenvalues[0] == pytest.approx(2.0, abs=1e-12)
        assert abs(emb.coordinates[0, 0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert abs(emb.coordinates[1, 0]) <= 1e-12

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ase(m, 1)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="1 <= d <= n"):
            ase(np.eye(3), 4)

    def test_orthonormal_after_rescaling(self):
        rng = substream(53)
        x = random_cloud(40, 3, rng)
        emb = ase(x @ x.T, 3)
        u = emb.coordinates / np.sqrt(emb.eigenvalues)
        assert np.max(np.abs(u.T @ u - np.eye(3))) <= 1e-8


class TestFixSigns:
    def test_negative_sum_column_flipped(self):
        fixed = fix_signs(np.array([[-1.0], [0.0], [0.0]]))
        assert np.array_equal(fixed, [[1.0], [0.0], [0.0]])

    def test_zero_sum_column_uses_leading_entry(self):
        col = np.array([[1.0 / np.sqrt(2.0)], [-1.0 / np.sqrt(2.0)]])
        assert np.array_equal(fix_signs(col), col)
        assert np.array_equal(fix_signs(-col), col)

    def test_idempotent_on_random_orthonormal(self):
        rng = substream(54)
        for trial in range(20):
            u = np.linalg.qr(rng.standard_normal((8, 3)))[0]
            once = fix_signs(u)
            assert np.array_equal(fix_signs(once), once)

    def test_invariant_to_column_negation(self):
        rng = substream(55)
        for trial in range(20):
            u = np.linalg.qr(rng.standard_normal((6, 4)))[0]
            signs = np.where(rng.random(4) < 0.5, -1.0, 1.0)
            assert np.array_equal(fix_signs(u * signs), fix_signs(u))


class TestProcrustes:
    def test_identical_inputs(self):
        rng = substream(56)
        x = random_cloud(20, 3, rng)
        result = procrustes_align(x, x)
        assert np.allclose(result.rotation, np.eye(3), atol=1e-10)
        assert result.frobenius_error <= 1e-10

    def test_recovers_orthogonal_factor(self):
        rng = substream(57)
        for trial in range(10):
            x = random_cloud(25, 3, rng)
            r = random_orthogonal(3, rng)
            result = procrustes_align(x @ r, x)
            assert result.frobenius_error <= 1e-10
            assert np.allclose(result.rotation, r.T, atol=1e-8)

    def test_rotation_is_orthogonal(self):
        rng = substream(58)
        a = rng.standard_normal((30, 4))
        b = rng.standard_normal((30, 4))
        w = procrustes_align(a, b).rotation
        assert np.max(np.abs(w.T @ w - np.eye(4))) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            procrustes_align(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_embedding_residual_decay_rate(self):
        # Median row-wise residual should track sqrt(log n / n): the fitted
        # constant stays within a factor of two across sizes.
        f, _ = two_block_pair(0.0)
        constants = []
        for n in (250, 500, 1000):
            residuals = []
            for rep in range(8):
                rng = substream(59, n, rep)
                x = sample_latent(f, n, rng)
                graph = sample_rdpg(x, 1.0, rng)
                emb = ase(graph, 2)
                residuals.append(procrustes_align(emb.coordinates, x).two_to_infinity_error)
            constants.append(np.median(residuals) / np.sqrt(np.log(n) / n))
        assert max(constants) / min(constants) <= 2.0


class TestTwoToInfinity:
    def test_hand_value(self):
        assert two_to_infinity([[3.0, 4.0], [0.0, 1.0]]) == 5.0

    def test_zero_matrix(self):
        assert two_to_infinity(np.zeros((4, 2))) == 0.0

    def test_matches_row_loop(self):
        rng = substream(60)
        m = rng.standard_normal((100, 3))
        expected = np.sqrt(max(float(np.sum(row * row)) for row in m))
        assert two_to_infinity(m) == expected


class TestSecondMomentRotation:
    def test_descending_diagonal_gives_identity(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(second_moment_rotation(x), np.eye(2), atol=1e-12)

    def test_rotation_equivariance_up_to_signs(self):
        rng = substream(61)
        base = np.linalg.qr(rng.standard_normal((40, 3)))[0] * np.array([3.0, 2.0, 1.0])
        for trial in range(10):
            r = random_orthogonal(3, rng)
            left = second_moment_rotation(base @ r)
            right = fix_signs(r.T @ second_moment_rotation(base))
            assert np.allclose(left, right, atol=1e-8)

    def test_two_block_converges_to_analytic_frame(self):
        f, _ = two_block_pair(0.0)
        n = 10**4
        x = sample_latent(f, n, substream(62))
        w = second_moment_rotation(x)
        _, vecs = np.linalg.eigh(f.second_moment())
        t = fix_signs(vecs[:, ::-1])
        assert np.linalg.norm(w - t) <= 5.0 / np.sqrt(n)

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError, match="n >= d"):
            second_moment_rotation(np.zeros((1, 2)))
