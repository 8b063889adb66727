"""Each shared rule has one home and gives one result at every entry point:
the sparsity factor, the refusal of the median bandwidth outside one test,
the finite statistic and the 17-digit number format."""

import re

import numpy as np
import pytest

from rdpgtest import cli, harness, io
from rdpgtest.cli import main
from rdpgtest.errors import ModelError
from rdpgtest.harness import (
    ExperimentConfig,
    PowerCell,
    PowerTable,
    WComparison,
    pairwise_dissimilarity,
    two_block_pair,
    w_comparison_experiment,
)
from rdpgtest.mmd import EnergyKernel, GaussianKernel, KernelSpec, gram, u_statistic, v_statistic
from rdpgtest.model import edge_prob_matrix, sample_latent, sample_rdpg
from rdpgtest.streams import substream
from rdpgtest.testing import TestConfig, TestReport, preprocess, two_sample_point_test


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
    config = ExperimentConfig(pairs=[("x", None, None)], n_grid=[2], replicates=3,
                              test=TestConfig(), master_seed=0)
    monkeypatch.setattr(cli.harness, "load_power_config", lambda path: config)
    monkeypatch.setattr(cli.harness, "run_power_experiment", lambda config: table)
    return cli._cmd_simulate_power(cli.build_parser().parse_args(["simulate-power", "p.ini"]))


def _wcompare_lines(tmp_path, monkeypatch):
    result = WComparison(np.array([TENTH]), np.array([-TENTH]), np.eye(2), 2, 2)
    monkeypatch.setattr(cli.harness, "load_wcompare_config", lambda path: {"output": None})
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
