import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from rdpgtest import mmd
from rdpgtest.errors import InsufficientSampleError
from rdpgtest.harness import two_block_pair
from rdpgtest.mmd import (
    EnergyKernel,
    GaussianKernel,
    InverseMultiquadricKernel,
    gram,
    median_heuristic,
    u_statistic,
    v_statistic,
)
from rdpgtest.streams import substream

from util import kernel_eval, loop_u, loop_v, population_mmd, random_cloud, random_orthogonal

KERNELS = [
    GaussianKernel(0.5),
    InverseMultiquadricKernel(c=1.0, beta=0.5),
    EnergyKernel(exponent=1.0),
]

# Each kernel's formula as it reads, one temporary per operation.
OUT_OF_PLACE = {
    "gaussian-0.5": (GaussianKernel(0.5), lambda sq: np.exp(-sq / (2.0 * 0.5 * 0.5))),
    "gaussian-0.13": (GaussianKernel(0.13), lambda sq: np.exp(-sq / (2.0 * 0.13 * 0.13))),
    "imq-1-0.5": (InverseMultiquadricKernel(1.0, 0.5), lambda sq: (1.0**2 + sq) ** -0.5),
    "imq-0.7-1.3": (InverseMultiquadricKernel(0.7, 1.3), lambda sq: (0.7**2 + sq) ** -1.3),
}


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

    @pytest.mark.parametrize("spec, formula", OUT_OF_PLACE.values(), ids=OUT_OF_PLACE.keys())
    def test_in_place_evaluation_keeps_the_bits_of_the_formula(self, spec, formula):
        rng = substream(5)
        a, b = rng.normal(size=(300, 3)), rng.normal(size=(200, 3))
        assert np.array_equal(gram(spec, a, b), formula(cdist(a, b, "sqeuclidean")))

    @pytest.mark.parametrize("pairwise", [
        pytest.param(lambda a, b: gram(GaussianKernel(0.5), a, b), id="gaussian"),
        pytest.param(lambda a, b: gram(InverseMultiquadricKernel(0.7, 1.3), a, b),
                     id="inverse_multiquadric"),
        pytest.param(mmd._sq_distances, id="sq_distances"),
    ])
    def test_kernel_is_evaluated_in_the_distance_buffer(self, pairwise):
        # The squared distances are the only N x M block: an out-of-place
        # formula would hold two or three of them at once, and the distances
        # themselves work in row chunks.
        pts = random_cloud(1000, 2, substream(6))
        tracemalloc.start()
        try:
            k = pairwise(pts, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * k.nbytes


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

    @pytest.mark.parametrize("n, m", [(0, 3), (3, 0)])
    def test_needs_a_point_per_sample(self, n, m):
        message = f"^need n >= 1 and m >= 1, got n={n}, m={m}$"
        with pytest.raises(InsufficientSampleError, match=message):
            v_statistic(GaussianKernel(0.5), np.zeros((n, 2)), np.zeros((m, 2)))

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
        assert population_mmd(GaussianKernel(0.5), f, f) == 0.0

    def test_two_atoms_closed_form(self):
        from rdpgtest.model import PointMassMixture

        spec = GaussianKernel(0.5)
        f = PointMassMixture([[0.2, 0.1]], [1.0])
        g = PointMassMixture([[0.5, 0.4]], [1.0])
        assert population_mmd(spec, f, g) == pytest.approx(
            2.0 - 2.0 * kernel_eval(spec, [0.2, 0.1], [0.5, 0.4]), abs=1e-15
        )

    def test_block_mixtures_positive_and_exact(self):
        f, g = two_block_pair(0.1)
        assert population_mmd(GaussianKernel(0.5), f, g) > 0

    def test_u_statistic_unbiasedness(self):
        # Mean of the unbiased statistic over seeded redraws matches the
        # exact population value within 4 standard errors of the mean.
        f, g = two_block_pair(0.1)
        spec = GaussianKernel(0.5)
        exact = population_mmd(spec, f, g)
        redraws = 2000
        values = np.empty(redraws)
        for r in range(redraws):
            rng = substream(14, r)
            values[r] = u_statistic(spec, f.sample(20, rng), g.sample(20, rng))
        se = values.std(ddof=1) / np.sqrt(redraws)
        assert abs(values.mean() - exact) <= 4.0 * se


@st.composite
def point_sets(draw, min_rows=1):
    """Two point sets of one width d = 1-8 with 1-40 rows each, at one scale
    between 1e-150 and 1e150, in C order, Fortran order, as a strided view
    or with columns negated."""
    d = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.integers(-150, 150))
    sets = []
    for _ in range(2):
        n = draw(st.integers(min_rows, 40))
        rows = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n * d, max_size=n * d)))
        x = rows.reshape(n, d) * scale
        layout = draw(st.sampled_from(["c", "fortran", "strided", "signs"]))
        if layout == "fortran":
            x = np.asfortranarray(x)
        elif layout == "strided":
            x = np.repeat(x, 2, axis=0)[::2]
        elif layout == "signs":
            x = x * draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=d, max_size=d))
        sets.append(x)
    return sets


CHUNKS = st.sampled_from([1, 7, 64, mmd._CHUNK_ENTRIES])


@contextlib.contextmanager
def chunked(entries):
    """Distance blocks in chunks of ``entries`` (small ones split even small
    blocks), with overflow to inf allowed: it is part of the oracle's bits."""
    default, mmd._CHUNK_ENTRIES = mmd._CHUNK_ENTRIES, entries
    try:
        with np.errstate(over="ignore", under="ignore"):
            yield
    finally:
        mmd._CHUNK_ENTRIES = default


class TestDistancesAgainstScipy:
    # scipy stays the oracle of the pairwise distances: the package adds up
    # the squared column differences in cdist's order and must keep its bits.
    @settings(max_examples=150, deadline=None)
    @given(sets=point_sets(), chunk=CHUNKS)
    def test_sq_distances_are_cdist_bit_for_bit(self, sets, chunk):
        a, b = sets
        with chunked(chunk):
            assert np.array_equal(mmd._sq_distances(a, b), cdist(a, b, "sqeuclidean"))

    @settings(max_examples=150, deadline=None)
    @given(sets=point_sets(min_rows=2), chunk=CHUNKS)
    def test_median_heuristic_is_the_median_of_pdist_bit_for_bit(self, sets, chunk):
        points = sets[0]
        with chunked(chunk):
            expected = float(np.median(pdist(points)))
            if expected > 0:
                assert median_heuristic(points) == expected
            else:
                with pytest.raises(ValueError, match="zero"):
                    median_heuristic(points)

    def test_no_columns_give_zero_distances(self):
        a, b = np.empty((3, 0)), np.empty((2, 0))
        assert np.array_equal(mmd._sq_distances(a, b), cdist(a, b, "sqeuclidean"))


class TestMedianHeuristic:
    def test_two_points(self):
        assert median_heuristic([[0.0, 0.0], [0.3, 0.4]]) == pytest.approx(0.5)

    def test_needs_two_points(self):
        with pytest.raises(InsufficientSampleError):
            median_heuristic([[1.0, 0.0]])

    def test_degenerate_cloud_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            median_heuristic(np.tile([0.1, 0.1], (5, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        # They gave a nan median, or an inf one past the nan distances.
        points = np.array([[0.0, 0.1], [0.5, 0.2], [0.3, 0.9]])
        points[1, 0] = bad
        with pytest.raises(ValueError, match="^median heuristic needs finite points$"):
            median_heuristic(points)
