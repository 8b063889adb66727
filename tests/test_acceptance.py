"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) so the suite doubles as a checklist. Monte Carlo criteria use
fixed master seeds; every run is bit-reproducible on one platform. The
full module takes a few minutes.
"""

import numpy as np
import pytest
from scipy.stats import kstest

from rdpgtest.embed import ase, procrustes_align, second_moment_rotation
from rdpgtest.harness import (
    ExperimentConfig,
    knn_classify,
    pairwise_dissimilarity,
    run_power_experiment,
    two_block_pair,
    uniform_box_pair,
    w_comparison_experiment,
)
from rdpgtest.mmd import (
    EnergyKernel,
    GaussianKernel,
    InverseMultiquadricKernel,
    u_statistic,
    v_statistic,
)
from rdpgtest.model import PointMassMixture, sample_latent, sample_rdpg
from rdpgtest.streams import substream
from rdpgtest.testing import TestConfig, preprocess, two_sample_point_test

from util import loop_u, loop_v, random_cloud, random_orthogonal

GAUSS = GaussianKernel(0.5)
KERNELS = [GAUSS, InverseMultiquadricKernel(1.0, 0.5), EnergyKernel(1.0)]


def _report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_statistics_match_loop_oracles():
    rng = substream(5001)
    worst = 0.0
    for trial in range(50):
        spec = KERNELS[trial % 3]
        n, m = rng.integers(2, 21, size=2)
        x = random_cloud(int(n), int(rng.integers(1, 4)), rng)
        y = random_cloud(int(m), x.shape[1], rng)
        worst = max(
            worst,
            abs(u_statistic(spec, x, y) - loop_u(spec, x, y)),
            abs(v_statistic(spec, x, y) - loop_v(spec, x, y)),
        )
    _report(1, worst <= 1e-12, f"max |vectorized - loop oracle| = {worst:.2e} (tol 1e-12)")


def test_criterion_02_noiseless_recovery():
    rng = substream(5002)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 5))
        x = random_cloud(n, d, rng)
        emb = ase(x @ x.T, d)
        worst = max(worst, procrustes_align(emb.coordinates, x).frobenius_error)
    _report(2, worst <= 1e-8, f"max Procrustes residual on rank-d inputs = {worst:.2e} (tol 1e-8)")


def test_criterion_03_size_control():
    f, g = two_block_pair(0.0)
    config = ExperimentConfig(
        pairs=[(0.0, f, g)],
        n_grid=[200],
        replicates=500,
        test=TestConfig(d=2, permutations=200),
        master_seed=4100,
    )
    size = run_power_experiment(config).cells[0].power
    _report(3, 0.02 <= size <= 0.10, f"empirical size {size:.3f} at n=m=200, B=200, R=500")


def test_criterion_04_power_reproduction():
    cells = {}
    for eps, n in ((0.1, 500), (0.1, 200), (0.02, 100)):
        f, g = two_block_pair(eps)
        config = ExperimentConfig(
            pairs=[(eps, f, g)],
            n_grid=[n],
            replicates=100,
            test=TestConfig(d=2, permutations=100),
            master_seed=4200,
        )
        cells[(eps, n)] = run_power_experiment(config).cells[0].power
    ok = (
        cells[(0.1, 500)] >= 0.95
        and cells[(0.1, 200)] >= 0.70
        and cells[(0.02, 100)] <= 0.20
    )
    _report(
        4,
        ok,
        "power "
        f"(eps=0.1, n=500) = {cells[(0.1, 500)]:.2f} (>= 0.95), "
        f"(eps=0.1, n=200) = {cells[(0.1, 200)]:.2f} (>= 0.70), "
        f"(eps=0.02, n=100) = {cells[(0.02, 100)]:.2f} (<= 0.20)",
    )


def test_criterion_05_scaling_test():
    powers = {}
    for eps in (0.2, 0.0):
        f, g = uniform_box_pair(eps)
        config = ExperimentConfig(
            pairs=[(eps, f, g)],
            n_grid=[500],
            replicates=100,
            test=TestConfig(variant="scaling", d=2, permutations=200),
            master_seed=4300,
        )
        powers[eps] = run_power_experiment(config).cells[0].power
    ok = powers[0.2] >= 0.95 and 0.01 <= powers[0.0] <= 0.12
    _report(
        5,
        ok,
        f"scaling power (eps=0.2) = {powers[0.2]:.2f} (>= 0.95), "
        f"size (eps=0) = {powers[0.0]:.3f} (in [0.01, 0.12])",
    )


def test_criterion_06_exact_invariants():
    rng = substream(5006)
    worst_rot, worst_scale, worst_proj = 0.0, 0.0, 0.0
    for trial in range(100):
        spec = KERNELS[trial % 3]
        d = int(rng.integers(1, 4))
        x = random_cloud(12, d, rng)
        y = random_cloud(9, d, rng)
        q = random_orthogonal(d, rng)
        worst_rot = max(
            worst_rot, abs(u_statistic(spec, x @ q, y @ q) - u_statistic(spec, x, y))
        )
        c = float(rng.uniform(0.1, 10.0))
        base = u_statistic(GAUSS, preprocess(x, "scaling")[0], preprocess(y, "scaling")[0])
        scaled = u_statistic(
            GAUSS, preprocess(x, "scaling")[0], preprocess(c * y, "scaling")[0]
        )
        worst_scale = max(worst_scale, abs(scaled - base))
        rows = rng.uniform(0.2, 3.0, size=x.shape[0])
        base = u_statistic(
            GAUSS, preprocess(x + 0.05, "projection")[0], preprocess(y + 0.05, "projection")[0]
        )
        jittered = u_statistic(
            GAUSS,
            preprocess(rows[:, None] * (x + 0.05), "projection")[0],
            preprocess(y + 0.05, "projection")[0],
        )
        worst_proj = max(worst_proj, abs(jittered - base))
    ok = max(worst_rot, worst_scale, worst_proj) <= 1e-12
    _report(
        6,
        ok,
        f"invariance gaps: joint rotation {worst_rot:.2e}, global scale {worst_scale:.2e}, "
        f"row scaling {worst_proj:.2e} (tol 1e-12)",
    )


def test_criterion_07_consistency_decay():
    f, _ = two_block_pair(0.0)
    medians = {}
    for n in (200, 800):
        residuals = []
        for rep in range(50):
            rng = substream(4700, n, rep)
            x = sample_latent(f, n, rng)
            emb = ase(sample_rdpg(x, 1.0, rng).dense(), 2)
            residuals.append(procrustes_align(emb.coordinates, x).two_to_infinity_error)
        medians[n] = float(np.median(residuals))
    ratio = medians[800] / medians[200]
    _report(
        7,
        ratio <= 0.62,
        f"median row-residual ratio n=800/n=200 = {ratio:.3f} "
        "(<= 0.62; sqrt(log n / n) predicts 0.56)",
    )


def test_criterion_08_convergence_diagnostic():
    # Latent samples are nested across the three sizes (common random
    # numbers), which stabilizes the median comparison; the decay itself
    # was verified at 300+ replicates per size.
    f, _ = two_block_pair(0.0)
    sizes = (100, 200, 400)
    deltas = {n: [] for n in sizes}
    for rep in range(50):
        rng = substream(7003, rep)
        xfull = f.sample(max(sizes), rng)
        yfull = f.sample(max(sizes), rng)
        for n in sizes:
            x, y = xfull[:n], yfull[:n]
            xhat = ase(sample_rdpg(x, 1.0, rng).dense(), 2).coordinates
            yhat = ase(sample_rdpg(y, 1.0, rng).dense(), 2).coordinates
            w_nm = second_moment_rotation(y) @ second_moment_rotation(x).T
            deltas[n].append(
                2 * n * (u_statistic(GAUSS, xhat, yhat) - u_statistic(GAUSS, x, y @ w_nm))
            )
    med = [float(np.median(np.abs(deltas[n]))) for n in sizes]
    ok = med[0] > med[1] > med[2]
    _report(
        8,
        ok,
        f"median scaled difference {med[0]:.3f} > {med[1]:.3f} > {med[2]:.3f} "
        "across n = 100, 200, 400",
    )


def test_criterion_09_alignment_comparison():
    # Null mixture with atoms near the two axes: second-moment rotations
    # fluctuate visibly, so the fixed population alignment pays a price
    # the replicate-specific alignment avoids.
    f = PointMassMixture([[0.7, 0.1], [0.1, 0.7]], [0.45, 0.55])
    result = w_comparison_experiment(
        f, f, n=400, d=2, spec=GAUSS, replicates=100, master_seed=4900
    )
    med_random = float(np.median(np.abs(result.delta_random)))
    med_fixed = float(np.median(np.abs(result.delta_fixed)))
    _report(
        9,
        med_random < med_fixed,
        f"median |difference|: replicate alignment {med_random:.3f} < "
        f"fixed alignment {med_fixed:.3f}",
    )


def test_criterion_10_null_p_value_uniformity():
    f, _ = uniform_box_pair(0.0)
    config = TestConfig(d=2, permutations=200)
    pvals = []
    for rep in range(1000):
        rng = substream(4500, rep)
        pvals.append(
            two_sample_point_test(f.sample(100, rng), f.sample(100, rng), config, rng=rng).p_value
        )
    ks = float(kstest(pvals, "uniform").statistic)
    _report(10, ks <= 0.06, f"KS distance of 1000 null p-values to uniform = {ks:.4f} (tol 0.06)")


def test_criterion_11_graph_classification():
    f_base, _ = two_block_pair(0.0)
    _, f_offset = two_block_pair(0.1)
    graphs, labels = [], []
    for i, dist in enumerate([f_base] * 20 + [f_offset] * 20):
        rng = substream(4600, i)
        graphs.append(sample_rdpg(sample_latent(dist, 300, rng), 1.0, rng))
        labels.append("base" if i < 20 else "offset")
    matrix = pairwise_dissimilarity(graphs, 2, GAUSS, labels=labels)
    report = knn_classify(matrix, labels, k=3, folds=10, seed=4601)
    _report(
        11,
        report.accuracy >= 0.9,
        f"simulated 40-graph 3-NN accuracy = {report.accuracy:.3f} (>= 0.9)",
    )
