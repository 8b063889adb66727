import os
import re
import sys
import threading
from contextlib import nullcontext
from dataclasses import FrozenInstanceError, replace
from itertools import combinations

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
from rdpgtest.mmd import EnergyKernel, GaussianKernel, InverseMultiquadricKernel, u_statistic
from rdpgtest.model import sample_latent, sample_rdpg
from rdpgtest.streams import substream
from rdpgtest.testing import TestConfig

from util import one_cpu

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
        # Each size check reads test.d, which failed as an AttributeError.
        with pytest.raises(ValueError) as info:
            ExperimentConfig(pairs=[(0, f, g)], n_grid=[10], replicates=1,
                             test=None, master_seed=0)
        assert str(info.value) == "test must be a TestConfig, got None"

    def test_checks_hold_for_the_config_lifetime(self):
        # Assigned replicates = 0 ended in a ZeroDivisionError, and an
        # assigned test = None got round the constructor's check.
        f, g = two_block_pair(0.0)
        config = ExperimentConfig(pairs=[(0, f, g)], n_grid=[10], replicates=1,
                                  test=TestConfig(permutations=5), master_seed=0)
        for name, value in (("replicates", 0), ("test", None), ("output_path", "p.csv")):
            with pytest.raises(FrozenInstanceError):
                setattr(config, name, value)
        assert replace(config, output_path="p.csv").output_path == "p.csv"
        assert config.output_path is None
        with pytest.raises(ValueError, match="replicates"):
            replace(config, replicates=0)

    def test_grids_are_fixed_when_built(self):
        # An n_grid entry appended after the checks ran no cell, yet was
        # written into the table's metadata.
        f, g = two_block_pair(0.0)
        pairs, n_grid, m_grid = [[0, f, g]], [10], [10]
        config = ExperimentConfig(pairs=pairs, n_grid=n_grid, m_grid=m_grid, replicates=1,
                                  test=TestConfig(permutations=5), master_seed=0)
        pairs[0][0] = 1
        n_grid.append(20)
        m_grid.append(1)
        assert config.pairs == ((0, f, g),) and config.n_grid == config.m_grid == (10,)
        with pytest.raises(AttributeError):
            config.n_grid.append(20)
        table = run_power_experiment(config)
        assert [(c.n, c.m, c.sweep) for c in table.cells] == [(10, 10, 0)]
        assert table.metadata["n_grid"] == "10"
        assert replace(config, n_grid=[12], m_grid=None).n_grid == (12,)


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
        # two within-sample blocks and one cross block per candidate map
        # (2^d sign patterns); graph b embeds on the helper through a
        # private name, since 30 vertices fit its eigh budget
        assert calls == {"testing.ase": 1, "testing.preprocess": 2, "mmd.gram": 2 + 4}

    def test_pairwise_dissimilarity(self, calls):
        pairwise_dissimilarity(_graphs(0.0, 30, 4, seed=141), 2, SPEC)
        # one within-sample block per graph; the cross blocks are summed
        # through a private name, since a helper thread may sum them
        assert calls == {"harness.ase": 4, "mmd.gram": 4}

    def test_traced_names_run_on_the_calling_thread(self, monkeypatch):
        # The tracer keeps one stack of open spans, so a traced call from
        # the helper would nest inside whatever the calling thread runs.
        threads = []
        for module, name in ((harness, "ase"), (mmd, "gram"), (mmd, "u_statistic"),
                             (testing, "ase"), (testing, "preprocess")):
            def recorded(*args, _fn=getattr(module, name), **kwargs):
                threads.append(threading.current_thread())
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)
        graphs = _graphs(0.0, 30, 6, seed=142)
        pairwise_dissimilarity(graphs, 2, SPEC)
        assert len(threads) == 12 and set(threads) == {threading.main_thread()}
        # A graph test whose graph b embeds on the helper, and one whose
        # null also draws and sums blocks there (N = 600, B = 600).
        split = _graphs(0.0, 450, 1, seed=144) + _graphs(0.0, 150, 1, seed=143)
        for pair, permutations in ((graphs[:2], 10), (split, 600)):
            del threads[:]
            testing.two_sample_test(*pair, TestConfig(d=2, permutations=permutations))
            # ase once (graph a), preprocess twice, six grams
            assert len(threads) == 9 and set(threads) == {threading.main_thread()}


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

    @pytest.mark.parametrize("cpus", ["one", "all"])
    @pytest.mark.parametrize("spec", [SPEC, InverseMultiquadricKernel(0.5, 1.0), EnergyKernel(1.5)],
                             ids=["gaussian", "imq", "energy"])
    def test_each_entry_is_the_pair_statistic_on_one_core_or_two(self, monkeypatch, started, spec,
                                                                 cpus):
        if cpus == "one" and not hasattr(os, "sched_setaffinity"):
            pytest.skip("os.sched_setaffinity is not available")
        f, g = two_block_pair(0.1)
        rng = substream(116)
        sizes = [20, 45, 30, 60, 25, 35, 50, 40]
        graphs = [sample_rdpg(sample_latent(f if i % 2 else g, n, rng), 1.0, rng)
                  for i, n in enumerate(sizes)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the helper and the caller interleave often
        try:
            with one_cpu() if cpus == "one" else nullcontext():
                matrix = pairwise_dissimilarity(graphs, 2, spec, floor=False)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        assert len(started) == 1 and not any(t.is_alive() for t in started)
        embeddings = [ase(graph, 2).coordinates for graph in graphs]
        for g, h in combinations(range(len(graphs)), 2):
            expected = u_statistic(spec, embeddings[g], embeddings[h])
            assert matrix.values[g, h] == matrix.values[h, g] == expected

    def test_the_caller_sums_the_columns_the_helper_has_not_started(self, monkeypatch):
        # The helper holds column 1 until the caller has taken columns 5 to 2.
        graphs = _graphs(0.1, 30, 6, seed=119)
        embeddings = [ase(graph, 2).coordinates for graph in graphs]
        pairs = np.zeros((6, 6))
        for g, h in combinations(range(6), 2):
            pairs[g, h] = pairs[h, g] = u_statistic(SPEC, embeddings[g], embeddings[h])
        holding, release = threading.Event(), threading.Event()
        helped, taken, embedded = [], [], []
        column, embed = harness._cross_column, harness.ase

        def held(spec, embeddings, cross, h):
            if threading.current_thread() is threading.main_thread():
                taken.append(h)
                if h == 2:
                    release.set()
            else:
                helped.append(h)
                if h == 1:
                    holding.set()
                    release.wait(timeout=60)
            return column(spec, embeddings, cross, h)

        def embedded_once_the_helper_holds(graph, d):
            embedded.append(graph)
            if len(embedded) == 3:  # graph 2, after column 1 was queued
                holding.wait(timeout=60)
            return embed(graph, d)

        monkeypatch.setattr(harness, "_cross_column", held)
        monkeypatch.setattr(harness, "ase", embedded_once_the_helper_holds)
        values = pairwise_dissimilarity(graphs, 2, SPEC, floor=False).values
        assert helped == [0, 1] and taken == [5, 4, 3, 2]
        assert np.array_equal(values, pairs)

    def test_a_cross_sum_raises_on_the_helper_as_on_the_caller(self, monkeypatch):
        # The within sums wait until the helper has started every column, so
        # the helper meets the overflow, under the caller's errstate.
        overflowed = []

        class CrossOverflow(mmd.KernelSpec):
            def _from_sq(self, sq, a, b):
                if sq.shape[0] == sq.shape[1]:
                    return np.exp(sq)
                overflowed.append(threading.current_thread())
                return np.exp(sq + 1e3)

        f, _ = two_block_pair(0.0)
        rng = substream(120)
        graphs = [sample_rdpg(sample_latent(f, n, rng), 1.0, rng) for n in (20, 25, 30, 35)]
        last_taken, column, gram = threading.Event(), harness._cross_column, mmd.gram

        def taken_up(spec, embeddings, cross, h):
            if h == 3:
                last_taken.set()
            column(spec, embeddings, cross, h)

        def after_the_helper_took_every_column(*args):
            last_taken.wait(timeout=60)
            return gram(*args)

        monkeypatch.setattr(harness, "_cross_column", taken_up)
        monkeypatch.setattr(mmd, "gram", after_the_helper_took_every_column)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            pairwise_dissimilarity(graphs, 2, CrossOverflow())
        assert len(overflowed) == 3 and threading.main_thread() not in overflowed

    def test_embedding_failure_joins_the_helper(self, started):
        graphs = _graphs(0.0, 30, 6, seed=117)
        graphs[3] = np.zeros((1, 1))
        running = threading.active_count()
        with pytest.raises(ValueError, match="^graph 3: "):
            pairwise_dissimilarity(graphs, 2, SPEC)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == running

    def test_needs_two_graphs(self):
        with pytest.raises(ValueError, match="2 graphs"):
            pairwise_dissimilarity(_graphs(0.0, 30, 1, seed=113), 2, SPEC)

    @pytest.mark.parametrize("count, seed", [(3, 115), (5, 118)], ids=["3", "5"])
    def test_non_finite_entry_is_an_error(self, count, seed):
        class NanKernel(mmd.KernelSpec):
            def _from_sq(self, sq, a, b):
                return np.full(np.shape(sq), np.nan)

        with pytest.raises(ValueError, match="graphs 0 and 1 is not finite"):
            pairwise_dissimilarity(_graphs(0.0, 30, count, seed=seed), 2, NanKernel())

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

    @pytest.mark.parametrize("bad, at", [(np.nan, "nan at (0, 2)"), (np.inf, "inf at (0, 2)"),
                                         (-np.inf, "-inf at (0, 2)")])
    def test_non_finite_entry_is_refused(self, bad, at):
        # argsort puts nan last, so it read as "farthest" and the
        # accuracy came out as if the entry were a number.
        values = np.ones((4, 4)) - np.eye(4)
        values[0, 2] = values[2, 0] = values[3, 1] = bad
        with pytest.raises(ValueError, match=f"^dissimilarity must be finite, got {re.escape(at)}$"):
            knn_classify(values, ["a", "a", "b", "b"], k=1, folds=2)

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
