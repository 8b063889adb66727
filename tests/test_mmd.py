import numpy as np
import pytest

from rdpgtest.errors import InsufficientSampleError
from rdpgtest.harness import two_block_pair, uniform_box_pair
from rdpgtest.mmd import (
    EnergyKernel,
    GaussianKernel,
    InverseMultiquadricKernel,
    gram,
    kernel_eval,
    median_heuristic,
    mmd_population_oracle,
    u_statistic,
    v_statistic,
)
from rdpgtest.streams import substream

from util import loop_u, loop_v, random_cloud, random_orthogonal

KERNELS = [
    GaussianKernel(0.5),
    InverseMultiquadricKernel(c=1.0, beta=0.5),
    EnergyKernel(exponent=1.0),
]


class TestKernelEval:
    def test_gaussian_same_point(self):
        assert kernel_eval(GaussianKernel(0.5), (0.3, 0.4), (0.3, 0.4)) == 1.0

    def test_gaussian_hand_value(self):
        # exp(-1 / (2 * 0.25)) at distance 1
        value = kernel_eval(GaussianKernel(0.5), (0.0, 0.0), (1.0, 0.0))
        assert value == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_inverse_multiquadric_hand_value(self):
        value = kernel_eval(InverseMultiquadricKernel(c=1.0, beta=0.5), (0.0, 0.0), (1.0, 0.0))
        assert value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_energy_hand_value(self):
        # (|x| + |y| - |x - y|) / 2 with unit vectors at right angles
        value = kernel_eval(EnergyKernel(1.0), (1.0, 0.0), (0.0, 1.0))
        assert value == pytest.approx(0.5 * (2.0 - np.sqrt(2.0)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kernel_eval(GaussianKernel(0.5), (1.0, 0.0), (1.0, 0.0, 0.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GaussianKernel(-1.0).pairwise(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            InverseMultiquadricKernel(c=0.0)
        with pytest.raises(ValueError):
            EnergyKernel(exponent=2.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0, 0.0])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: GaussianKernel(v),
            lambda v: InverseMultiquadricKernel(c=v),
            lambda v: InverseMultiquadricKernel(beta=v),
        ],
        ids=["sigma", "c", "beta"],
    )
    def test_parameters_checked_at_construction(self, make, value):
        with pytest.raises(ValueError, match="finite and > 0"):
            make(value)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: GaussianKernel(1e-200),
            lambda: InverseMultiquadricKernel(c=1e-200),
            lambda: InverseMultiquadricKernel(c=1e200),
            lambda: InverseMultiquadricKernel(c=1e-100, beta=4.0),
        ],
        ids=["sigma-underflow", "c-underflow", "c-overflow", "beta-overflow"],
    )
    def test_diagonal_must_be_finite_and_positive(self, make):
        with pytest.raises(ValueError, match="sigma\\^2 is 0|c\\*c"):
            make()

    def test_small_parameters_with_finite_diagonal_are_kept(self):
        origin = np.zeros((1, 2))
        assert GaussianKernel(1e-150).pairwise(origin, origin)[0, 0] == 1.0
        assert 0.0 < InverseMultiquadricKernel(c=1e-100).pairwise(origin, origin)[0, 0] < np.inf

    def test_unresolved_median_bandwidth_raises(self):
        with pytest.raises(ValueError, match="sigma = median needs the pooled rows of one test"):
            GaussianKernel(None).pairwise(np.zeros((2, 2)), np.zeros((2, 2)))


class TestGram:
    def test_single_point(self):
        k = gram(GaussianKernel(0.5), [(0.2, 0.2)], [(0.2, 0.2)])
        assert k.shape == (1, 1) and k[0, 0] == pytest.approx(1.0)

    def test_identical_sets_symmetric_unit_diagonal(self):
        rng = substream(1)
        pts = random_cloud(8, 3, rng)
        k = gram(GaussianKernel(0.5), pts, pts)
        assert np.allclose(k, k.T)
        assert np.allclose(np.diag(k), 1.0)

    @pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.name)
    def test_matches_entrywise_oracle(self, spec):
        rng = substream(2)
        a = random_cloud(10, 2, rng)
        b = random_cloud(7, 2, rng)
        k = gram(spec, a, b)
        for i in range(10):
            for j in range(7):
                assert k[i, j] == kernel_eval(spec, a[i], b[j])

    @pytest.mark.parametrize(
        "spec", [GaussianKernel(0.5), InverseMultiquadricKernel(1.0, 0.5)], ids=lambda s: s.name
    )
    def test_psd_within_slack(self, spec):
        rng = substream(3)
        for trial in range(5):
            pts = random_cloud(15, 3, rng)
            k = gram(spec, pts, pts)
            assert np.linalg.eigvalsh(k).min() >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            gram(GaussianKernel(0.5), np.zeros((3, 2)), np.zeros((3, 4)))

    @pytest.mark.parametrize(
        "spec",
        [GaussianKernel(0.5), InverseMultiquadricKernel(1.3, 0.7)]
        + [EnergyKernel(q) for q in (0.5, 1.0, 1.5)],
        ids=lambda s: s.describe(),
    )
    def test_rowwise_is_the_diagonal_of_pairwise(self, spec):
        rng = substream(4)
        for d in (1, 2, 3, 5):
            a = random_cloud(60, d, rng)
            b = random_cloud(60, d, rng)
            assert np.array_equal(spec.rowwise(a, b), np.diagonal(spec.pairwise(a, b)))


class TestUStatistic:
    def test_all_points_equal_gives_zero(self):
        x = np.tile([0.3, 0.1], (4, 1))
        for spec in KERNELS:
            assert u_statistic(spec, x, x.copy()) == pytest.approx(0.0, abs=1e-15)

    def test_two_point_hand_value(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        value = u_statistic(GaussianKernel(0.5), x, x.copy())
        assert value == pytest.approx(np.exp(-2.0) - 1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.name)
    def test_matches_loop_oracle(self, spec):
        rng = substream(4)
        for trial in range(5):
            x = random_cloud(15, 2, rng)
            y = random_cloud(15, 2, rng)
            assert u_statistic(spec, x, y) == pytest.approx(loop_u(spec, x, y), abs=1e-12)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSampleError):
            u_statistic(GaussianKernel(0.5), np.zeros((1, 2)), np.zeros((5, 2)))


class TestVStatistic:
    def test_identical_multisets_give_zero(self):
        rng = substream(5)
        x = random_cloud(9, 2, rng)
        for spec in KERNELS:
            assert abs(v_statistic(spec, x, x.copy())) <= 1e-12

    def test_two_single_points(self):
        x, y = np.array([[0.1, 0.2]]), np.array([[0.4, 0.0]])
        spec = GaussianKernel(0.5)
        expected = 2.0 - 2.0 * kernel_eval(spec, x[0], y[0])
        assert v_statistic(spec, x, y) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.name)
    def test_matches_loop_oracle(self, spec):
        rng = substream(6)
        x = random_cloud(12, 3, rng)
        y = random_cloud(9, 3, rng)
        assert v_statistic(spec, x, y) == pytest.approx(loop_v(spec, x, y), abs=1e-12)

    @pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.name)
    def test_nonnegative_for_psd_kernels(self, spec):
        rng = substream(7)
        for trial in range(10):
            x = random_cloud(11, 2, rng)
            y = random_cloud(6, 2, rng)
            assert v_statistic(spec, x, y) >= -1e-12

    def test_u_v_diagonal_identity(self):
        # For kernels with constant self-similarity k0, re-adding the
        # diagonal terms gives U = V + (A - k0)/(n-1) + (C - k0)/(m-1)
        # where A and C are the full within-sample averages.
        rng = substream(8)
        for spec in (GaussianKernel(0.5), InverseMultiquadricKernel(1.3, 0.7)):
            for trial in range(5):
                n, m = rng.integers(2, 21, size=2)
                x = random_cloud(int(n), 2, rng)
                y = random_cloud(int(m), 2, rng)
                a = gram(spec, x, x).sum() / n**2
                c = gram(spec, y, y).sum() / m**2
                k0 = kernel_eval(spec, x[0], x[0])
                expected = v_statistic(spec, x, y) + (a - k0) / (n - 1) + (c - k0) / (m - 1)
                assert u_statistic(spec, x, y) == pytest.approx(expected, abs=1e-12)


class TestInvariances:
    def test_radial_kernels_ignore_rotation_and_shift(self):
        rng = substream(9)
        for spec in (GaussianKernel(0.5), InverseMultiquadricKernel(1.0, 0.5)):
            for trial in range(10):
                x, y = rng.random(3), rng.random(3)
                q = random_orthogonal(3, rng)
                t = rng.random(3)
                before = kernel_eval(spec, x, y)
                after = kernel_eval(spec, q @ x + t, q @ y + t)
                assert after == pytest.approx(before, abs=1e-12)

    def test_energy_kernel_ignores_rotation(self):
        rng = substream(10)
        spec = EnergyKernel(1.0)
        for trial in range(10):
            x, y = rng.random(3), rng.random(3)
            q = random_orthogonal(3, rng)
            assert kernel_eval(spec, q @ x, q @ y) == pytest.approx(
                kernel_eval(spec, x, y), abs=1e-12
            )

    @pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.name)
    def test_joint_orthogonal_invariance_of_u(self, spec):
        rng = substream(11)
        for trial in range(5):
            x = random_cloud(14, 3, rng)
            y = random_cloud(10, 3, rng)
            q = random_orthogonal(3, rng)
            assert u_statistic(spec, x @ q, y @ q) == pytest.approx(
                u_statistic(spec, x, y), abs=1e-12
            )


class TestPopulationOracle:
    def test_equal_point_masses_exactly_zero(self):
        f, _ = two_block_pair(0.0)
        est = mmd_population_oracle(GaussianKernel(0.5), f, f, 10)
        assert est.exact and est.value == 0.0 and est.standard_error == 0.0

    def test_two_atoms_closed_form(self):
        from rdpgtest.model import PointMassMixture

        spec = GaussianKernel(0.5)
        f = PointMassMixture([[0.2, 0.1]], [1.0])
        g = PointMassMixture([[0.5, 0.4]], [1.0])
        est = mmd_population_oracle(spec, f, g, 10)
        assert est.value == pytest.approx(
            2.0 - 2.0 * kernel_eval(spec, [0.2, 0.1], [0.5, 0.4]), abs=1e-15
        )

    def test_block_mixtures_positive_and_exact(self):
        f, g = two_block_pair(0.1)
        est = mmd_population_oracle(GaussianKernel(0.5), f, g, 10)
        assert est.exact and est.value > 0

    def test_monte_carlo_reproducible_within_error(self):
        f, g = uniform_box_pair(0.1)
        spec = GaussianKernel(0.5)
        first = mmd_population_oracle(spec, f, g, 20000, rng=substream(12))
        second = mmd_population_oracle(spec, f, g, 20000, rng=substream(13))
        combined = np.hypot(first.standard_error, second.standard_error)
        assert not first.exact and first.standard_error > 0
        assert abs(first.value - second.value) <= 3.0 * combined

    def test_u_statistic_unbiasedness(self):
        # Mean of the unbiased statistic over seeded redraws matches the
        # exact population value within 4 standard errors of the mean.
        f, g = two_block_pair(0.1)
        spec = GaussianKernel(0.5)
        exact = mmd_population_oracle(spec, f, g, 10).value
        redraws = 2000
        values = np.empty(redraws)
        for r in range(redraws):
            rng = substream(14, r)
            values[r] = u_statistic(spec, f.sample(20, rng), g.sample(20, rng))
        se = values.std(ddof=1) / np.sqrt(redraws)
        assert abs(values.mean() - exact) <= 4.0 * se


class TestMedianHeuristic:
    def test_two_points(self):
        assert median_heuristic([[0.0, 0.0], [0.3, 0.4]]) == pytest.approx(0.5)

    def test_needs_two_points(self):
        with pytest.raises(InsufficientSampleError):
            median_heuristic([[1.0, 0.0]])

    def test_degenerate_cloud_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            median_heuristic(np.tile([0.1, 0.1], (5, 1)))
