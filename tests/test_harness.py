import numpy as np
import pytest

from rdpgtest import harness, mmd, testing
from rdpgtest.embed import ase, second_moment_rotation
from rdpgtest.harness import (
    DissimilarityMatrix,
    ExperimentConfig,
    WComparison,
    build_test_config,
    knn_classify,
    pairwise_dissimilarity,
    run_power_experiment,
    two_block_pair,
    uniform_box_pair,
    w_comparison_experiment,
)
from rdpgtest.mmd import EnergyKernel, GaussianKernel, u_statistic
from rdpgtest.model import sample_latent, sample_rdpg
from rdpgtest.streams import substream
from rdpgtest.testing import TestConfig

SPEC = GaussianKernel(0.5)


def _graphs(epsilon, n, count, seed):
    f, g = two_block_pair(epsilon)
    out = []
    for i in range(count):
        rng = substream(seed, i)
        dist = f if epsilon == 0 else g
        out.append(sample_rdpg(sample_latent(dist, n, rng), 1.0, rng))
    return out


class TestFamilies:
    def test_two_block_pair_null_is_equal(self):
        f, g = two_block_pair(0.0)
        assert np.allclose(f.atoms, g.atoms)
        assert np.allclose(f.weights, [0.4, 0.6])

    def test_uniform_box_pair_bounds(self):
        f, g = uniform_box_pair(0.1)
        assert np.allclose(f.lower, 0.1) and np.allclose(f.upper, 1 / np.sqrt(2))
        assert np.allclose(g.lower, 0.0) and np.allclose(g.upper, 1 / np.sqrt(3))


class TestBuildTestConfig:
    @pytest.mark.parametrize(
        "params, expected",
        [
            ({}, TestConfig()),
            ({"d": None, "b": None, "kernel": None, "sigma": None, "other": "x"}, TestConfig()),
            (
                {"variant": "sparse", "d": "3", "kernel": "energy", "q": "0.5", "b": "40",
                 "alpha_level": "0.01", "seed": "9", "sparsity_x": "0.5", "sparsity_y": "0.25",
                 "eps_floor": "0.001", "align_reflections": "no"},
                TestConfig(variant="sparse", d=3, kernel=EnergyKernel(0.5), permutations=40,
                           alpha_level=0.01, seed=9, sparsity_x=0.5, sparsity_y=0.25,
                           eps_floor=1e-3, align_reflections=False),
            ),
            ({"d": 4, "permutations": 50, "alpha_level": 0.1, "align_reflections": False},
             TestConfig(d=4, permutations=50, alpha_level=0.1, align_reflections=False)),
            ({"b": "30", "permutations": "70"}, TestConfig(permutations=30)),
            ({"permutations": "70"}, TestConfig(permutations=70)),
            ({"sigma": "median"}, TestConfig(kernel=GaussianKernel(None))),
            ({"kernel": "gaussian", "sigma": 0.25}, TestConfig(kernel=GaussianKernel(0.25))),
        ],
    )
    def test_table(self, params, expected):
        assert build_test_config(params) == expected


class TestPowerExperiment:
    def test_single_replicate_degenerate(self):
        f, g = two_block_pair(0.0)
        config = ExperimentConfig(
            pairs=[(0.0, f, g)],
            n_grid=[30],
            replicates=1,
            test=TestConfig(d=2, permutations=30),
            master_seed=100,
        )
        table = run_power_experiment(config)
        cell = table.cells[0]
        assert cell.power in (0.0, 1.0) and cell.se == 0.0
        assert cell.rejections in (0, 1) and cell.replicates == 1

    def test_reproducible_csv(self, tmp_path):
        f, g = two_block_pair(0.2)
        def make():
            return ExperimentConfig(
                pairs=[(0.2, f, g)],
                n_grid=[30, 50],
                replicates=3,
                test=TestConfig(d=2, permutations=25),
                master_seed=101,
            )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        run_power_experiment(make()).to_csv(first)
        run_power_experiment(make()).to_csv(second)
        assert first.read_bytes() == second.read_bytes()

    def test_power_monotone_in_separation_and_size(self):
        f0, _ = two_block_pair(0.0)
        _, g3 = two_block_pair(0.3)
        config = ExperimentConfig(
            pairs=[(0.0, f0, f0), (0.3, f0, g3)],
            n_grid=[40, 80],
            replicates=40,
            test=TestConfig(d=2, permutations=60),
            master_seed=102,
        )
        table = run_power_experiment(config)
        by_key = {(c.n, c.sweep): c for c in table.cells}
        for n in (40, 80):
            null_cell, alt_cell = by_key[(n, 0.0)], by_key[(n, 0.3)]
            slack = 2.0 * np.hypot(null_cell.se, alt_cell.se)
            assert alt_cell.power >= null_cell.power - slack
        small, large = by_key[(40, 0.3)], by_key[(80, 0.3)]
        assert large.power >= small.power - 2.0 * np.hypot(small.se, large.se)

    def test_oracle_arm_reported(self):
        f0, _ = two_block_pair(0.0)
        _, g = two_block_pair(0.3)
        config = ExperimentConfig(
            pairs=[(0.3, f0, g)],
            n_grid=[60],
            replicates=10,
            test=TestConfig(d=2, permutations=40),
            master_seed=103,
            oracle_arm=True,
        )
        cell = run_power_experiment(config).cells[0]
        assert cell.oracle_power is not None and cell.oracle_power >= 0.8
        assert cell.oracle_se is not None

    def test_partial_flush(self, tmp_path):
        f, g = two_block_pair(0.0)
        out = tmp_path / "partial.csv"
        config = ExperimentConfig(
            pairs=[(0.0, f, g)],
            n_grid=[25],
            replicates=2,
            test=TestConfig(d=2, permutations=20),
            master_seed=104,
            output_path=str(out),
        )
        run_power_experiment(config)
        assert out.exists() and "power" in out.read_text().splitlines()[-2]

    def test_config_validation(self):
        f, g = two_block_pair(0.0)
        with pytest.raises(ValueError, match="replicates"):
            ExperimentConfig(pairs=[(0, f, g)], n_grid=[10], replicates=0,
                             test=TestConfig(), master_seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentConfig(pairs=[], n_grid=[10], replicates=1,
                             test=TestConfig(), master_seed=0)


class TestWComparison:
    def test_same_sample_and_graph_degenerate(self):
        # With identical latent samples the replicate alignment is exactly
        # the identity, so both difference flavors coincide.
        f, _ = two_block_pair(0.0)
        rng = substream(105)
        x = sample_latent(f, 80, rng)
        graph = sample_rdpg(x, 1.0, rng)
        xhat = ase(graph, 2).coordinates
        w_random = second_moment_rotation(x) @ second_moment_rotation(x).T
        assert np.allclose(w_random, np.eye(2), atol=1e-12)
        u_emb = u_statistic(SPEC, xhat, xhat)
        delta_random = 160 * (u_emb - u_statistic(SPEC, x, x @ w_random))
        delta_fixed = 160 * (u_emb - u_statistic(SPEC, x, x))
        assert delta_random == pytest.approx(delta_fixed, abs=1e-9)

    def test_random_alignment_tracks_closer_under_null(self):
        # Atoms near the two axes make the fixed alignment pay a visible
        # price for second-moment fluctuations; the replicate-specific
        # rotation absorbs them.
        from rdpgtest.model import PointMassMixture

        f = PointMassMixture([[0.7, 0.1], [0.1, 0.7]], [0.45, 0.55])
        result = w_comparison_experiment(f, f, n=200, d=2, spec=SPEC,
                                         replicates=30, master_seed=106)
        assert isinstance(result, WComparison)
        assert np.median(np.abs(result.delta_random)) < np.median(np.abs(result.delta_fixed))
        assert np.allclose(result.w_fixed, np.eye(2), atol=1e-12)

    def test_csv_output(self, tmp_path):
        f, _ = two_block_pair(0.0)
        result = w_comparison_experiment(f, f, n=30, d=2, spec=SPEC,
                                         replicates=3, master_seed=107)
        out = tmp_path / "w.csv"
        result.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("replicate,") and len(lines) == 4


class TestTraceContract:
    """``perfbench/spans.py`` traces the pipeline by replacing these module
    attributes, so the pipeline must look them up at call time."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        for module, name in ((testing, "ase"), (testing, "preprocess"), (harness, "ase"), (mmd, "gram")):
            key = f"{module.__name__.rsplit('.', 1)[1]}.{name}"

            def counted(*args, _fn=getattr(module, name), _key=key, **kwargs):
                counts[_key] = counts.get(_key, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    def test_two_sample_test(self, calls):
        a, b = _graphs(0.0, 30, 2, seed=140)
        testing.two_sample_test(a, b, TestConfig(d=2, permutations=10))
        # two within-sample blocks and one cross block per reflection
        assert calls == {"testing.ase": 2, "testing.preprocess": 2, "mmd.gram": 2 + 4}

    def test_pairwise_dissimilarity(self, calls):
        pairwise_dissimilarity(_graphs(0.0, 30, 4, seed=141), 2, SPEC)
        # one within-sample block per graph, one cross block per pair
        assert calls == {"harness.ase": 4, "mmd.gram": 4 + 6}


class TestPairwiseDissimilarity:
    def test_same_graph_twice_floors_to_zero(self):
        graph = _graphs(0.0, 60, 1, seed=108)[0]
        matrix = pairwise_dissimilarity([graph, graph], 2, SPEC)
        assert matrix.values[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert matrix.values[0, 0] == 0.0

    def test_matches_per_pair_statistic(self):
        graphs = _graphs(0.0, 50, 3, seed=109)
        matrix = pairwise_dissimilarity(graphs, 2, SPEC, floor=False)
        embeddings = [ase(g, 2).coordinates for g in graphs]
        for g in range(3):
            for h in range(g + 1, 3):
                expected = u_statistic(SPEC, embeddings[g], embeddings[h])
                assert matrix.values[g, h] == expected
                assert matrix.values[h, g] == expected

    def test_symmetric_zero_diagonal(self):
        graphs = _graphs(0.1, 40, 4, seed=110)
        matrix = pairwise_dissimilarity(graphs, 2, SPEC)
        assert np.array_equal(matrix.values, matrix.values.T)
        assert np.all(np.diagonal(matrix.values) == 0.0)
        assert np.all(matrix.values >= 0.0)

    def test_cross_family_exceeds_within(self):
        near = _graphs(0.0, 300, 2, seed=111)
        far = _graphs(0.15, 300, 2, seed=112)
        matrix = pairwise_dissimilarity(near + far, 2, SPEC)
        within = max(matrix.values[0, 1], matrix.values[2, 3])
        cross = matrix.values[:2, 2:].min()
        assert cross > within

    def test_needs_two_graphs(self):
        with pytest.raises(ValueError, match="2 graphs"):
            pairwise_dissimilarity(_graphs(0.0, 30, 1, seed=113), 2, SPEC)

    def test_non_finite_entry_is_an_error(self):
        class NanKernel(mmd.KernelSpec):
            def _from_sq(self, sq, a, b):
                return np.full(np.shape(sq), np.nan)

        with pytest.raises(ValueError, match="graphs 0 and 1 is not finite"):
            pairwise_dissimilarity(_graphs(0.0, 30, 3, seed=115), 2, NanKernel())

    def test_reports_offending_graph(self):
        good = _graphs(0.0, 30, 1, seed=114)[0]
        with pytest.raises(ValueError, match="graph 1"):
            pairwise_dissimilarity([good, np.zeros((1, 1))], 2, SPEC)


class TestKnnClassify:
    def test_perfectly_separated_blocks(self):
        values = np.ones((8, 8)) - np.eye(8)
        values[:4, :4] = 0.0
        values[4:, 4:] = 0.0
        np.fill_diagonal(values, 0.0)
        labels = ["a"] * 4 + ["b"] * 4
        report = knn_classify(DissimilarityMatrix(values), labels, k=1, folds=4, seed=0)
        assert report.accuracy == 1.0
        assert len(report.fold_accuracies) == 4

    def test_pure_ties_near_chance(self):
        values = np.ones((20, 20)) - np.eye(20)
        labels = ["a"] * 10 + ["b"] * 10
        accuracies = [
            knn_classify(values, labels, k=1, folds=5, seed=s).accuracy for s in range(20)
        ]
        assert 0.3 <= np.mean(accuracies) <= 0.7

    def test_k_exceeding_training_fold(self):
        values = np.zeros((6, 6))
        labels = ["a", "a", "a", "b", "b", "b"]
        with pytest.raises(ValueError, match="smallest training fold"):
            knn_classify(values, labels, k=5, folds=2, seed=0)

    def test_label_length_checked(self):
        with pytest.raises(ValueError, match="labels"):
            knn_classify(np.zeros((4, 4)), ["a", "b"], k=1)

    def test_vote_tie_breaks_by_summed_dissimilarity(self):
        # Item 0 sees one neighbor of each class; the closer class wins.
        values = np.array(
            [
                [0.0, 0.2, 0.5, 0.9],
                [0.2, 0.0, 0.6, 0.9],
                [0.5, 0.6, 0.0, 0.1],
                [0.9, 0.9, 0.1, 0.0],
            ]
        )
        labels = ["a", "a", "b", "b"]
        report = knn_classify(values, labels, k=2, folds=2, seed=3)
        assert 0.0 <= report.accuracy <= 1.0
