"""Each shared rule has one home and gives one result at every entry point:
the sparsity factor, the refusal of the median bandwidth outside one test,
the finite statistic, the 17-digit number format, the seed, the study sizes,
the replicate count, every other count (never a bool), the row-norm floor,
INI values that do not parse and the shape of an array of points."""

import re

import numpy as np
import pytest

from rdpgtest import cli, harness, io, mmd
from rdpgtest.cli import main
from rdpgtest.embed import (
    ase,
    fix_signs,
    procrustes_align,
    second_moment_rotation,
    two_to_infinity,
)
from rdpgtest.errors import ModelError
from rdpgtest.harness import (
    ExperimentConfig,
    PowerCell,
    PowerTable,
    WComparison,
    knn_classify,
    pairwise_dissimilarity,
    two_block_pair,
    w_comparison_experiment,
)
from rdpgtest.mmd import (
    EnergyKernel,
    GaussianKernel,
    KernelSpec,
    gram,
    median_heuristic,
    u_statistic,
    v_statistic,
)
from rdpgtest.model import (
    LogitNormalMixture,
    PointMassMixture,
    check_moment_assumption,
    edge_prob_matrix,
    sample_latent,
    sample_rdpg,
)
from rdpgtest.streams import substream
from rdpgtest.testing import (
    TestConfig,
    TestReport,
    permutation_null,
    preprocess,
    two_sample_point_test,
)


def _graphs(count, n=20):
    f, _ = two_block_pair(0.0)
    rng = substream(150)
    return [sample_rdpg(sample_latent(f, n, rng), 1.0, rng) for _ in range(count)]


def _raised(call, error):
    with pytest.raises(error) as info:
        call()
    return str(info.value)


def _cli_error(capsys, *argv):
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("\n")
    return err[len("error: "):-1]


def _sparse_config(field, value):
    return lambda tmp_path, capsys: _raised(
        lambda: TestConfig(variant="sparse", **{"sparsity_x": 0.5, "sparsity_y": 0.5, field: value}),
        ModelError,
    )


def _sparse_cli(tmp_path, capsys):
    # The options are checked before either graph file is opened.
    graphs = (tmp_path / "missing-a.edges", tmp_path / "missing-b.edges")
    return _cli_error(capsys, "test", *graphs, "--d", "2", "--variant", "sparse",
                      "--sparsity-a", "0", "--sparsity-b", "0.5")


def _sparse_ini(tmp_path, capsys):
    path = tmp_path / "power.ini"
    path.write_text("[experiment]\nfamily = two_block\nn = 20\nreplicates = 2\nsparsity = 0\n")
    return _cli_error(capsys, "simulate-power", path)


SPARSITY_CASES = {
    **{
        f"config-{field}-{value}": (_sparse_config(field, value), field, value)
        for field in ("sparsity_x", "sparsity_y")
        for value in (None, 0, 1.5)
    },
    "preprocess": (lambda tmp_path, capsys: _raised(
        lambda: preprocess(np.ones((3, 2)), "sparse", sparsity=0), ModelError), "sparsity", 0),
    "experiment": (lambda tmp_path, capsys: _raised(
        lambda: ExperimentConfig(pairs=[("x", *two_block_pair(0.0))], n_grid=[10], replicates=1,
                                 test=TestConfig(), master_seed=0, sparsity=0),
        ModelError), "sparsity", 0),
    "edge-prob": (lambda tmp_path, capsys: _raised(
        lambda: edge_prob_matrix([[0.5], [0.4]], 1.5), ModelError), "sparsity", 1.5),
    "cli-test": (_sparse_cli, "sparsity_x", 0.0),
    "ini-experiment": (_sparse_ini, "sparsity", 0.0),
}


@pytest.mark.parametrize("case", SPARSITY_CASES.values(), ids=SPARSITY_CASES.keys())
def test_sparsity_factor_rule_has_one_message(case, tmp_path, capsys):
    call, name, value = case
    assert call(tmp_path, capsys) == f"{name} must lie in (0, 1], got {value}"


MEDIAN = GaussianKernel(None)
POINTS = np.array([[0.1, 0.2], [0.3, 0.1], [0.2, 0.4]])
MEDIAN_CASES = {
    "gram": lambda: gram(MEDIAN, POINTS, POINTS),
    "u_statistic": lambda: u_statistic(MEDIAN, POINTS, POINTS[::-1]),
    "pairwise_dissimilarity": lambda: pairwise_dissimilarity(_graphs(2), 2, MEDIAN),
    "w_comparison_experiment": lambda: w_comparison_experiment(
        *two_block_pair(0.0), 20, 2, MEDIAN, 1, 0),
}


@pytest.mark.parametrize("call", MEDIAN_CASES.values(), ids=MEDIAN_CASES.keys())
def test_median_bandwidth_outside_one_test_has_one_message(call):
    message = _raised(call, ValueError)
    assert message == "sigma = median needs the pooled rows of one test; give a number"


@pytest.mark.parametrize("name", ["pairwise_dissimilarity", "w_comparison_experiment"])
def test_median_bandwidth_is_refused_before_any_embedding(name, monkeypatch):
    def never(*args):
        raise AssertionError("embedded before the bandwidth was checked")

    monkeypatch.setattr(harness, "ase", never)
    monkeypatch.setattr(harness, "_moment_frame", never)
    test_median_bandwidth_outside_one_test_has_one_message(MEDIAN_CASES[name])


class NanKernel(KernelSpec):
    def _from_sq(self, sq, a, b):
        return np.full(np.shape(sq), np.nan)


# The energy kernel overflows to inf - inf on rows near 1e200.
HUGE_X = np.array([[1e200, -1e200], [-1e200, 1e200], [1.0, 1.0]])
HUGE_Y = np.array([[1e200, 1e200], [-1e200, -1e200]])
FINITE_CASES = {
    "u_statistic": (lambda: u_statistic(EnergyKernel(), HUGE_X, HUGE_Y), ""),
    "v_statistic": (lambda: v_statistic(EnergyKernel(), HUGE_X, HUGE_Y), ""),
    "two_sample_point_test": (lambda: two_sample_point_test(
        HUGE_X, HUGE_Y, TestConfig(kernel=EnergyKernel(), permutations=5)), ""),
    "pairwise_dissimilarity": (lambda: pairwise_dissimilarity(_graphs(2), 2, NanKernel()),
                               " between graphs 0 and 1"),
}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("case", FINITE_CASES.values(), ids=FINITE_CASES.keys())
def test_non_finite_statistic_has_one_message(case):
    call, between = case
    kernel = "kernel" if between else "energy(q=1)"
    assert _raised(call, ValueError) == f"the statistic{between} is not finite (nan) under {kernel}"


TENTH = 0.1  # 17 digits: 0.10000000000000001 (repr and %g both give 0.1)


def _report_kv(tmp_path, monkeypatch):
    report = TestReport(
        statistic=TENTH, scaled_statistic=TENTH, p_value=TENTH, reject=True, n=2, m=2, rho=0.5,
        variant="identity", kernel="k", permutations=1, alpha_level=TENTH, seed=0,
        null_values=np.zeros(1), preprocessing={},
    )
    return report.format_kv()


def _table_csv(tmp_path, monkeypatch):
    io.write_table_csv(tmp_path / "t.csv", ("a", "b"), [[np.float64(TENTH), 1]])
    return (tmp_path / "t.csv").read_text()


def _matrix_csv(tmp_path, monkeypatch):
    io.write_matrix_csv([[TENTH, 1.0]], tmp_path / "m.csv")
    return (tmp_path / "m.csv").read_text()


def _power_lines(tmp_path, monkeypatch):
    table = PowerTable([PowerCell(2, 2, 0.0, 3, 1, TENTH, TENTH)])
    config = ExperimentConfig(pairs=[("x", *two_block_pair(0.0))], n_grid=[2], replicates=3,
                              test=TestConfig(), master_seed=0)
    monkeypatch.setattr(cli, "load_power_config", lambda path: config)
    monkeypatch.setattr(cli.harness, "run_power_experiment", lambda config: table)
    return cli._cmd_simulate_power(cli.build_parser().parse_args(["simulate-power", "p.ini"]))


def _wcompare_lines(tmp_path, monkeypatch):
    result = WComparison(np.array([TENTH]), np.array([-TENTH]), np.eye(2), 2, 2)
    monkeypatch.setattr(cli, "load_wcompare_config", lambda path: {"output": None})
    monkeypatch.setattr(cli.harness, "w_comparison_experiment", lambda **cfg: result)
    output = tmp_path / "w.csv"
    argv = ["w-compare", "w.ini", "--output", str(output)]
    return cli._cmd_w_compare(cli.build_parser().parse_args(argv)) + output.read_text()


FORMAT_CASES = {
    "format_kv": _report_kv,
    "write_table_csv": _table_csv,
    "write_matrix_csv": _matrix_csv,
    "simulate-power": _power_lines,
    "w-compare": _wcompare_lines,
}


@pytest.mark.parametrize("write", FORMAT_CASES.values(), ids=FORMAT_CASES.keys())
def test_every_float_output_has_17_digits(write, tmp_path, monkeypatch):
    text = write(tmp_path, monkeypatch)
    assert "0.10000000000000001" in text
    assert re.search(r"0\.1(?!0000000000000001)", text) is None


def _seed_ini(tmp_path, capsys):
    path = tmp_path / "power.ini"
    path.write_text("[experiment]\nfamily = two_block\nn = 20\nreplicates = 2\nseed = -3\n")
    return _cli_error(capsys, "simulate-power", path)


def _seed_cli(tmp_path, capsys):
    # The seed is checked before either graph file is opened.
    graphs = (tmp_path / "missing-a.edges", tmp_path / "missing-b.edges")
    return _cli_error(capsys, "test", *graphs, "--d", "2", "--seed", "-1")


SEED_CASES = {
    "substream": (lambda tmp_path, capsys: _raised(lambda: substream(-1), ValueError), "seed", -1),
    "config-negative": (lambda tmp_path, capsys: _raised(lambda: TestConfig(seed=-1), ValueError),
                        "seed", -1),
    "config-float": (lambda tmp_path, capsys: _raised(lambda: TestConfig(seed=1.5), ValueError),
                     "seed", 1.5),
    "experiment": (lambda tmp_path, capsys: _raised(
        lambda: ExperimentConfig(pairs=[("x", *two_block_pair(0.0))], n_grid=[10], replicates=1,
                                 test=TestConfig(), master_seed=-1), ValueError), "master_seed", -1),
    "knn": (lambda tmp_path, capsys: _raised(
        lambda: knn_classify(np.zeros((4, 4)), "aabb", 1, folds=2, seed=-1), ValueError), "seed", -1),
    "cli-test": (_seed_cli, "seed", -1),
    "ini-experiment": (_seed_ini, "seed", -3),
}


@pytest.mark.parametrize("case", SEED_CASES.values(), ids=SEED_CASES.keys())
def test_seed_rule_has_one_message(case, tmp_path, capsys):
    call, name, value = case
    assert call(tmp_path, capsys) == f"{name} must be an integer >= 0, got {value}"


@pytest.mark.parametrize("name, value", [("d", 2.0), ("permutations", 2.5), ("d", "2")])
def test_integer_options_are_refused_when_built(name, value):
    assert _raised(lambda: TestConfig(**{name: value}), ValueError) == (
        f"{name} must be an integer >= 1, got {value!r}")


def _power_study(tmp_path, n, m):
    config = ExperimentConfig(pairs=[("x", *two_block_pair(0.0))], n_grid=[30, n], m_grid=[30, m],
                              replicates=1, test=TestConfig(), master_seed=0)
    return harness.run_power_experiment(config)


def _size_ini(tmp_path, n, m):
    path = tmp_path / "power.ini"
    path.write_text(f"[experiment]\nfamily = two_block\nn = 30 {n}\nm = 30 {m}\nreplicates = 1\n"
                    f"output = {tmp_path / 'power.csv'}\n")
    return harness.run_power_experiment(cli.load_power_config(path))


SIZE_CASES = {
    "power": _power_study,
    "power-ini": _size_ini,
    "w_comparison_experiment": lambda tmp_path, n, m: w_comparison_experiment(
        *two_block_pair(0.0), n, 2, GaussianKernel(), 1, 0, m=m),
}


@pytest.mark.parametrize("call", SIZE_CASES.values(), ids=SIZE_CASES.keys())
@pytest.mark.parametrize("n, m, message", [
    (1, 30, "need 1 <= d <= n: d=2 exceeds the graph size n=1"),
    (30, 1, "need 1 <= d <= n: d=2 exceeds the graph size n=1"),
    (2, 2, None),
])
def test_study_sizes_are_refused_before_the_first_replicate(call, n, m, message, tmp_path,
                                                            monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a replicate ran before the sizes were checked")

    for name in ("two_sample_test", "_replicate", "_moment_frame"):
        monkeypatch.setattr(harness, name, never)
    if message is None:  # d = n = m = 2 is a size the test takes
        with pytest.raises(AssertionError, match="a replicate ran"):
            call(tmp_path, n, m)
    else:
        assert _raised(lambda: call(tmp_path, n, m), ValueError) == message
    assert not (tmp_path / "power.csv").exists()


def _replicates_cli(command):
    def call(tmp_path, capsys, replicates):
        path = tmp_path / "study.ini"
        path.write_text(f"[experiment]\nfamily = two_block\nn = 20\nreplicates = {replicates}\n")
        return _cli_error(capsys, command, path, "--output", tmp_path / "study.csv")
    return call


def _replicates_raised(call):
    return lambda tmp_path, capsys, replicates: _raised(lambda: call(replicates), ValueError)


REPLICATE_CASES = {
    "ExperimentConfig": _replicates_raised(lambda r: ExperimentConfig(
        pairs=[("x", *two_block_pair(0.0))], n_grid=[20], replicates=r, test=TestConfig(),
        master_seed=0)),
    "w_comparison_experiment": _replicates_raised(lambda r: w_comparison_experiment(
        *two_block_pair(0.0), 20, 2, GaussianKernel(), r, 0)),
    "simulate-power": _replicates_cli("simulate-power"),
    "w-compare": _replicates_cli("w-compare"),
}


@pytest.mark.parametrize("call, replicates", [
    *(pytest.param(call, r, id=f"{name}-{r!r}") for name, call in REPLICATE_CASES.items()
      for r in (0, -2)),
    *(pytest.param(REPLICATE_CASES[name], r, id=f"{name}-{r!r}")
      for name in ("ExperimentConfig", "w_comparison_experiment")
      for r in (2.5, np.float64(3.0), "3", None)),
])
def test_replicate_count_rule_has_one_message(call, replicates, tmp_path, capsys, monkeypatch):
    # An INI value is converted with int first, so only the Python entry
    # points see a replicate count that is not an integer.
    def never(*args, **kwargs):
        raise AssertionError("a replicate ran before the count was checked")

    for name in ("two_sample_test", "_replicate", "_moment_frame"):
        monkeypatch.setattr(harness, name, never)
    assert call(tmp_path, capsys, replicates) == (
        f"replicates must be an integer >= 1, got {replicates!r}")
    assert not (tmp_path / "study.csv").exists()


@pytest.mark.parametrize("grids, message", [
    pytest.param({"n_grid": [20.5]}, "n must be an integer >= 1, got 20.5", id="n-float"),
    pytest.param({"n_grid": [20, 30], "m_grid": [20, np.float64(30.0)]},
                 "m must be an integer >= 1, got np.float64(30.0)", id="m-numpy-float"),
    pytest.param({"n_grid": ["20"]}, "n must be an integer >= 1, got '20'", id="n-string"),
])
def test_study_sizes_must_be_integers(grids, message):
    assert _raised(lambda: ExperimentConfig(
        pairs=[("x", *two_block_pair(0.0))], replicates=1, test=TestConfig(), master_seed=0,
        **grids), ValueError) == message
    assert _raised(lambda: w_comparison_experiment(
        *two_block_pair(0.0), grids["n_grid"][-1], 2, GaussianKernel(), 1, 0,
        m=grids.get("m_grid", grids["n_grid"])[-1]), ValueError) == message


COUNT_CASES = {
    "ase-d": (lambda graphs, pair: ase(graphs[0], 2.0), "d", 2.0, 1),
    "pairwise_dissimilarity-d": (
        lambda graphs, pair: pairwise_dissimilarity(graphs, 2.0, GaussianKernel()), "d", 2.0, 1),
    "w_comparison_experiment-d": (lambda graphs, pair: w_comparison_experiment(
        *pair, 20, 2.0, GaussianKernel(), 1, 0), "d", 2.0, 1),
    **{f"w_comparison_experiment-surrogate_size-{value}": (
        lambda graphs, pair, value=value: w_comparison_experiment(
            *pair, 20, 2, GaussianKernel(), 1, 0, surrogate_size=value),
        "surrogate_size", value, 1) for value in (2.5, 0)},
    "knn-k": (lambda graphs, pair: knn_classify(np.zeros((4, 4)), "aabb", 2.5, folds=2),
              "k", 2.5, 1),
    **{f"knn-folds-{value}": (
        lambda graphs, pair, value=value: knn_classify(np.zeros((4, 4)), "aabb", 1, folds=value),
        "folds", value, 2) for value in (2.5, 1)},
    "sample_latent-n": (lambda graphs, pair: sample_latent(pair[0], 2.5, substream(0)), "n", 2.5, 1),
    "permutation_null": (lambda graphs, pair: permutation_null(
        np.ones((4, 1)), 2, 2, GaussianKernel(), 2.5, substream(0)), "permutations", 2.5, 1),
    "permutation_null-n": (lambda graphs, pair: permutation_null(
        np.ones((5, 1)), 2.5, 2.5, GaussianKernel(), 5, substream(0)), "n", 2.5, 1),
}


@pytest.mark.parametrize("case", COUNT_CASES.values(), ids=COUNT_CASES.keys())
def test_count_rule_has_one_message(case, monkeypatch):
    # No embedding and no replicate may run before the count is refused.
    call, name, value, minimum = case
    graphs, pair = _graphs(2), two_block_pair(0.0)

    def never(*args, **kwargs):
        raise AssertionError("the work ran before the count was checked")

    monkeypatch.setattr(np.linalg, "eigh", never)
    for target in ("_replicate", "_moment_frame"):
        monkeypatch.setattr(harness, target, never)
    assert _raised(lambda: call(graphs, pair), ValueError) == (
        f"{name} must be an integer >= {minimum}, got {value!r}")


def _study(**fields):
    config = dict(pairs=[("x", *two_block_pair(0.0))], n_grid=[20], replicates=1,
                  test=TestConfig(), master_seed=0)
    return ExperimentConfig(**{**config, **fields})


BOOL_COUNT_CASES = {
    "TestConfig-d": (lambda v: TestConfig(d=v), "d", 1),
    "TestConfig-permutations": (lambda v: TestConfig(permutations=v), "permutations", 1),
    "TestConfig-seed": (lambda v: TestConfig(seed=v), "seed", 0),
    "substream": (substream, "seed", 0),
    "ExperimentConfig-replicates": (lambda v: _study(replicates=v), "replicates", 1),
    "ExperimentConfig-master_seed": (lambda v: _study(master_seed=v), "master_seed", 0),
    "ExperimentConfig-n": (lambda v: _study(n_grid=[v]), "n", 1),
    "ase-d": (lambda v: ase(_graphs(1)[0], v), "d", 1),
    "sample_latent-n": (lambda v: sample_latent(two_block_pair(0.0)[0], v, substream(0)), "n", 1),
    "knn-k": (lambda v: knn_classify(np.zeros((4, 4)), "aabb", v, folds=2), "k", 1),
    "knn-seed": (lambda v: knn_classify(np.zeros((4, 4)), "aabb", 1, folds=2, seed=v), "seed", 0),
    "permutation_null": (lambda v: permutation_null(
        np.ones((4, 1)), 2, 2, GaussianKernel(), v, substream(0)), "permutations", 1),
    "w_comparison_experiment-replicates": (lambda v: w_comparison_experiment(
        *two_block_pair(0.0), 20, 2, GaussianKernel(), v, 0), "replicates", 1),
}


@pytest.mark.parametrize("value", [True, False, np.True_], ids=repr)
@pytest.mark.parametrize("case", BOOL_COUNT_CASES.values(), ids=BOOL_COUNT_CASES.keys())
def test_count_rule_refuses_a_bool(case, value):
    # bool is an int subclass: True would count as 1 and False seed like 0.
    call, name, minimum = case
    assert _raised(lambda: call(value), ValueError) == (
        f"{name} must be an integer >= {minimum}, got {value!r}")


FLOOR_CASES = {
    "TestConfig": lambda v: TestConfig(eps_floor=v),
    "preprocess-projection": lambda v: preprocess(np.zeros((3, 2)), "projection", eps_floor=v),
    "preprocess-identity": lambda v: preprocess(np.ones((3, 2)), "identity", eps_floor=v),
}


@pytest.mark.parametrize("value", [np.nan, -1.0, -np.inf])
@pytest.mark.parametrize("call", FLOOR_CASES.values(), ids=FLOOR_CASES.keys())
def test_eps_floor_rule_has_one_message(call, value):
    # A nan floor switched off the degenerate-row check: preprocess returned nan rows.
    assert _raised(lambda: call(value), ValueError) == f"eps_floor must be >= 0, got {value}"


def test_wcompare_surrogate_size_is_refused_before_sampling(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a replicate ran before the surrogate size was checked")

    for name in ("_replicate", "_moment_frame"):
        monkeypatch.setattr(harness, name, never)
    path = tmp_path / "w.ini"
    path.write_text("[experiment]\nfamily = two_block\nn = 20\nsurrogate_size = 0\n")
    assert _cli_error(capsys, "w-compare", path, "--output", tmp_path / "w.csv") == (
        "surrogate_size must be an integer >= 1, got 0")
    assert not (tmp_path / "w.csv").exists()


def test_sample_size_rule_is_checked_with_the_study():
    config = dict(pairs=[("x", *two_block_pair(0.0))], replicates=1, master_seed=0)
    assert _raised(lambda: ExperimentConfig(n_grid=[20], m_grid=[1], test=TestConfig(d=1), **config),
                   ValueError) == "need n >= 2 and m >= 2, got n=20, m=1"
    assert _raised(lambda: w_comparison_experiment(*two_block_pair(0.0), 20, 1, GaussianKernel(), 1,
                                                   0, m=1), ValueError) == (
        "need n >= 2 and m >= 2, got n=20, m=1")


INI_VALUE_CASES = {
    "replicates": ("[experiment]\nfamily = two_block\nn = 20\nreplicates = many\n",
                   "replicates", "experiment", "invalid literal for int() with base 10: 'many'"),
    "n": ("[experiment]\nfamily = two_block\nn = 20 x\n",
          "n", "experiment", "invalid literal for int() with base 10: 'x'"),
    "m": ("[experiment]\nfamily = two_block\nn = 20\nm = 1.5\n",
          "m", "experiment", "invalid literal for int() with base 10: '1.5'"),
    "sweep": ("[experiment]\nfamily = two_block\nn = 20\nsweep = 0 a\n",
              "sweep", "experiment", "could not convert string to float: 'a'"),
    "seed": ("[experiment]\nfamily = two_block\nn = 20\nseed = x\n",
             "seed", "experiment", "invalid literal for int() with base 10: 'x'"),
    "family-key": ("[experiment]\nfamily = two_block\nn = 20\nbase = high\n",
                   "base", "experiment", "could not convert string to float: 'high'"),
    "test-d": ("[experiment]\nfamily = two_block\nn = 20\n\n[test]\nd = two\n",
               "d", "test", "invalid literal for int() with base 10: 'two'"),
    "test-sigma": ("[experiment]\nfamily = two_block\nn = 20\n\n[test]\nsigma = wide\n",
                   "sigma", "test", "could not convert string to float: 'wide'"),
    "test-boolean": ("[experiment]\nfamily = two_block\nn = 20\n\n[test]\nalign_reflections = maybe\n",
                     "align_reflections", "test",
                     "expected true/false, yes/no, on/off or 1/0, got 'maybe'"),
    "distribution": ("[experiment]\nn = 20\n\n[F]\nkind = point_mass_mixture\natoms = 0.5\n"
                     "weights = 0.4 x\n\n[G]\nkind = dirichlet\nconcentration = 1 1\n",
                     "weights", "F", "could not convert string to float: 'x'"),
}


@pytest.mark.parametrize("case", INI_VALUE_CASES.values(), ids=INI_VALUE_CASES.keys())
def test_ini_value_that_does_not_parse_names_its_key_and_section(case, tmp_path, capsys):
    text, key, section, reason = case
    path = tmp_path / "power.ini"
    path.write_text(text)
    assert _cli_error(capsys, "simulate-power", path) == (
        f"bad value for key {key!r} in [{section}]: {reason}")


def test_wcompare_ini_value_that_does_not_parse_names_its_key(tmp_path, capsys):
    path = tmp_path / "w.ini"
    path.write_text("[experiment]\nfamily = two_block\nn = 20 30\nepsilon = 0.1\n")
    assert _cli_error(capsys, "w-compare", path, "--output", tmp_path / "w.csv") == (
        "bad value for key 'n' in [experiment]: invalid literal for int() with base 10: '20 30'")


def test_kernel_value_on_the_command_line_names_its_key(tmp_path, capsys):
    graphs = (tmp_path / "missing-a.edges", tmp_path / "missing-b.edges")
    assert _cli_error(capsys, "test", *graphs, "--d", "2", "--sigma", "wide") == (
        "bad value for key 'sigma': could not convert string to float: 'wide'")


def _written(x, path, rng):
    io.write_matrix_csv(x, path)
    return path.read_text()


GAUSS = GaussianKernel(0.5)
# Per entry point: a call of one array of points ``x`` (with a file path and
# a stream), giving a comparable result, and the argument ``x`` stands for.
POINT_CASES = {
    "gram-a": (lambda x, path, rng: gram(GAUSS, x, POINTS).tolist(), "a"),
    "gram-b": (lambda x, path, rng: gram(GAUSS, POINTS, x).tolist(), "b"),
    "u_statistic-x": (lambda x, path, rng: u_statistic(GAUSS, x, POINTS), "x"),
    "u_statistic-y": (lambda x, path, rng: u_statistic(GAUSS, POINTS, x), "y"),
    "v_statistic-x": (lambda x, path, rng: v_statistic(GAUSS, x, POINTS), "x"),
    "v_statistic-y": (lambda x, path, rng: v_statistic(GAUSS, POINTS, x), "y"),
    "median_heuristic": (lambda x, path, rng: median_heuristic(x), "points"),
    "edge_prob_matrix": (lambda x, path, rng: edge_prob_matrix(x).tolist(), "latent"),
    "sample_rdpg": (lambda x, path, rng: sample_rdpg(x, 1.0, rng).adjacency.tolist(), "latent"),
    "check_moment_assumption": (
        lambda x, path, rng: check_moment_assumption(x).eigenvalues.tolist(), "latent"),
    "PointMassMixture": (lambda x, path, rng: PointMassMixture(x, [1.0]).atoms.tolist(), "atoms"),
    "LogitNormalMixture": (
        lambda x, path, rng: LogitNormalMixture(x, np.eye(2), [1.0]).means.tolist(), "means"),
    "fix_signs": (lambda x, path, rng: fix_signs(x).tolist(), "u"),
    "procrustes_align-xhat": (
        lambda x, path, rng: procrustes_align(x, POINTS[:1]).rotation.tolist(), "xhat"),
    "procrustes_align-x": (
        lambda x, path, rng: procrustes_align(POINTS[:1], x).frobenius_error, "x"),
    "two_to_infinity": (lambda x, path, rng: two_to_infinity(x), "m"),
    "second_moment_rotation": (lambda x, path, rng: second_moment_rotation(x).tolist(), "x"),
    "preprocess": (lambda x, path, rng: preprocess(x, "projection")[0].tolist(), "rows"),
    "permutation_null": (
        lambda x, path, rng: permutation_null(x, 2, 2, GAUSS, 5, rng).tolist(), "pooled"),
    "write_matrix_csv": (_written, "matrix"),
}


def _outcome(call, x, path):
    try:
        return call(x, path, substream(160))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", POINT_CASES.values(), ids=POINT_CASES.keys())
def test_point_rule_has_one_message(case, tmp_path, monkeypatch):
    # A scalar was taken as one point and a 3-D array passed through: fix_signs
    # failed inside numpy, and write_matrix_csv wrote lines it could not read back.
    call, name = case
    point = np.array([0.3, 0.4])
    one_row = _outcome(call, point[None], tmp_path / "row.csv")
    assert _outcome(call, point, tmp_path / "point.csv") == one_row

    def never(*args, **kwargs):
        raise AssertionError("work began before the points were checked")

    monkeypatch.setattr(mmd, "_sq_distances", never)
    for solver in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, solver, never)
    for bad in (np.float64(0.5), np.ones((3, 2, 2))):
        rng, path = substream(161), tmp_path / "bad.csv"
        state = rng.bit_generator.state
        assert _raised(lambda: call(bad, path, rng), ValueError) == (
            f"{name} must be a point or an (n, d) array, got shape {bad.shape}")
        assert rng.bit_generator.state == state and not path.exists()
