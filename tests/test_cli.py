import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rdpgtest import cli
from rdpgtest.cli import main
from rdpgtest.harness import load_power_config, two_block_pair
from rdpgtest.embed import ase
from rdpgtest.io import read_edge_list, read_matrix_csv, write_edge_list
from rdpgtest.mmd import EnergyKernel, GaussianKernel, InverseMultiquadricKernel
from rdpgtest.model import sample_latent, sample_rdpg
from rdpgtest.streams import substream
from rdpgtest.testing import TestConfig


@pytest.fixture
def graph_files(tmp_path):
    f, _ = two_block_pair(0.0)
    paths = []
    for seed in range(4):
        rng = substream(130, seed)
        graph = sample_rdpg(sample_latent(f, 40, rng), 1.0, rng)
        path = tmp_path / f"g{seed}.edges"
        write_edge_list(graph, path)
        paths.append(path)
    return paths


class TestTestCommand:
    def test_reports_fields(self, graph_files, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "test",
                str(graph_files[0]),
                str(graph_files[1]),
                "--d", "2",
                "--B", "40",
                "--seed", "11",
                "--output", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "p_value=" in stdout and "statistic=" in stdout
        payload = json.loads(out.read_text())
        assert payload["B"] == 40 and payload["n"] == 40

    def test_sparse_flags(self, graph_files, capsys):
        code = main(
            [
                "test",
                str(graph_files[0]),
                str(graph_files[1]),
                "--d", "2",
                "--variant", "sparse",
                "--sparsity-a", "1.0",
                "--sparsity-b", "1.0",
                "--B", "20",
            ]
        )
        assert code == 0
        assert "variant=sparse" in capsys.readouterr().out

    def test_closed_stdout_is_not_an_error(self, graph_files):
        read_end, write_end = os.pipe()
        os.close(read_end)
        path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        args = ["test", str(graph_files[0]), str(graph_files[1]), "--d", "2", "--B", "20"]
        try:
            result = subprocess.run(
                [sys.executable, "-m", "rdpgtest", *args],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.stderr == b""
        assert result.returncode != 0

    def test_missing_file_fails(self, tmp_path, capsys):
        code = main(["test", str(tmp_path / "absent.edges"), str(tmp_path / "b.edges"), "--d", "2"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_nan_eps_floor_fails_before_reading(self, tmp_path, capsys):
        missing = [str(tmp_path / "missing-a.edges"), str(tmp_path / "missing-b.edges")]
        assert main(["test", *missing, "--d", "2", "--eps-floor", "nan"]) == 1
        assert capsys.readouterr().err == "error: eps_floor must be >= 0, got nan\n"

    def test_bad_kernel_parameter_fails_before_reading(self, tmp_path, capsys):
        missing = [str(tmp_path / "missing_a.edges"), str(tmp_path / "missing_b.edges")]
        assert main(["test", *missing, "--d", "2", "--sigma", "nan"]) == 1
        assert capsys.readouterr().err == "error: gaussian bandwidth must be finite and > 0, got nan\n"

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--sigma", "1e-200"], "gaussian bandwidth 1e-200 underflows: 2 sigma^2 is 0"),
            (
                ["--kernel", "imq", "--c", "1e-200"],
                "need (c*c)**-beta finite and > 0, got c=1e-200, beta=0.5",
            ),
        ],
        ids=["sigma", "c"],
    )
    def test_kernel_with_non_finite_diagonal_fails(self, graph_files, capsys, options, message):
        assert main(["test", str(graph_files[0]), str(graph_files[1]), "--d", "2", *options]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_huge_bandwidth_runs(self, graph_files, capsys):
        # 2 sigma^2 overflows to inf: every kernel value is 1 and the statistic 0.
        options = ["--d", "2", "--B", "20", "--sigma", "1e200"]
        assert main(["test", str(graph_files[0]), str(graph_files[1]), *options]) == 0
        out = capsys.readouterr().out
        assert out.startswith("statistic=0\n") and "kernel=gaussian(sigma=1e+200)" in out

    def test_bad_edge_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("# vertices: 3\n1 1\n")
        code = main(["test", str(bad), str(bad), "--d", "2"])
        assert code == 1
        assert "self-loop" in capsys.readouterr().err


class TestEmbedCommand:
    def test_writes_csv(self, graph_files, tmp_path):
        out = tmp_path / "emb.csv"
        assert main(["embed", str(graph_files[0]), "--d", "2", "--output", str(out)]) == 0
        coords = np.loadtxt(out, delimiter=",")
        assert coords.shape == (40, 2)
        expected = ase(read_edge_list(graph_files[0]), 2).coordinates
        assert np.array_equal(coords, expected)

    def test_broken_output_file_is_an_error(self, graph_files, tmp_path, monkeypatch, capsys):
        def closed_reader(*args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli.io, "write_matrix_csv", closed_reader)
        out = tmp_path / "emb.csv"
        assert main(["embed", str(graph_files[0]), "--d", "2", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: [Errno 32] Broken pipe\n"


class TestSimulatePowerCommand:
    def test_runs_config(self, tmp_path, capsys):
        config = tmp_path / "power.ini"
        config.write_text(
            "[experiment]\n"
            "family = two_block\n"
            "sweep = 0\n"
            "n = 20\n"
            "replicates = 2\n"
            "seed = 3\n"
            "\n[test]\n"
            "d = 2\n"
            "B = 15\n"
        )
        out = tmp_path / "power.csv"
        assert main(["simulate-power", str(config), "--output", str(out)]) == 0
        text = out.read_text()
        assert "power" in text and "# master_seed=3" in text
        assert "power=" in capsys.readouterr().out


class TestWCompareCommand:
    def test_runs_config(self, tmp_path, capsys):
        config = tmp_path / "w.ini"
        config.write_text(
            "[experiment]\n"
            "family = two_block\n"
            "epsilon = 0\n"
            "n = 25\n"
            "replicates = 3\n"
            "seed = 5\n"
            "\n[test]\n"
            "d = 2\n"
        )
        out = tmp_path / "w.csv"
        assert main(["w-compare", str(config), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("replicate,") and len(lines) == 4
        assert "median" in capsys.readouterr().out

    @pytest.mark.parametrize("line", [
        "variant = projection", "B = 7", "permutations = 7", "alpha_level = 0.3",
        "align_reflections = false", "seed = 2", "sparsity_x = 0.5", "sparsity_y = 0.5",
        "eps_floor = 0.1",
    ])
    def test_refuses_test_keys_it_does_not_read(self, line, tmp_path, capsys, monkeypatch):
        # w-compare reads d and the kernel keys of [test]; any other key is an error.
        def run(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli.harness, "w_comparison_experiment", run)
        config = tmp_path / "w.ini"
        config.write_text(f"[experiment]\nfamily = two_block\nn = 20\n\n[test]\nd = 2\n"
                          f"sigma = 0.5\n{line}\n")
        assert main(["w-compare", str(config), "--output", str(tmp_path / "w.csv")]) == 1
        key = line.split(" = ")[0].lower()
        assert capsys.readouterr().err == f"error: unknown key {key!r} in [test]\n"


class TestMedianBandwidthNeedsOneTest:
    MESSAGE = "error: sigma = median needs the pooled rows of one test; give a number\n"

    def test_dissim_refuses_before_reading(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{tmp_path / 'missing0.edges'}\n{tmp_path / 'missing1.edges'}\n")
        options = ["--d", "2", "--sigma", "median", "--output", str(tmp_path / "d.csv")]
        assert main(["dissim", str(manifest), *options]) == 1
        assert capsys.readouterr().err == self.MESSAGE

    def test_wcompare_refuses_before_sampling(self, tmp_path, capsys, monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli.harness, "w_comparison_experiment", run)
        config = tmp_path / "w.ini"
        config.write_text("[experiment]\nfamily = two_block\nn = 20\n\n[test]\nsigma = median\n")
        assert main(["w-compare", str(config), "--output", str(tmp_path / "w.csv")]) == 1
        assert capsys.readouterr().err == self.MESSAGE


def test_sigma_help_says_what_each_command_takes(capsys):
    for command, takes_median in (("test", True), ("dissim", False)):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert ("median" in capsys.readouterr().out) == takes_median


class TestDissimClassifyCommands:
    def test_pipeline(self, graph_files, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "\n".join(f"{p},{label}" for p, label in zip(graph_files, "aabb")) + "\n"
        )
        matrix_path = tmp_path / "dissim.csv"
        assert main(["dissim", str(manifest), "--d", "2", "--output", str(matrix_path)]) == 0
        matrix, labels = read_matrix_csv(matrix_path)
        assert matrix.shape == (4, 4) and labels == ["a", "a", "b", "b"]
        assert np.allclose(matrix, matrix.T)

        assert main(["classify", str(matrix_path), "--k", "1", "--folds", "2"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_classify_with_label_file(self, graph_files, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(str(p) for p in graph_files) + "\n")
        matrix_path = tmp_path / "dissim.csv"
        assert main(["dissim", str(manifest), "--d", "2", "--output", str(matrix_path)]) == 0
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("a\na\nb\nb\n")
        assert (
            main(
                [
                    "classify", str(matrix_path),
                    "--labels", str(labels_path),
                    "--k", "1",
                    "--folds", "2",
                ]
            )
            == 0
        )
        assert "accuracy" in capsys.readouterr().out

    def test_kernel_with_non_finite_diagonal_writes_nothing(self, graph_files, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(str(p) for p in graph_files) + "\n")
        out = tmp_path / "dissim.csv"
        options = ["--d", "2", "--kernel", "imq", "--c", "1e-200", "--output", str(out)]
        assert main(["dissim", str(manifest), *options]) == 1
        assert "c=1e-200" in capsys.readouterr().err and not out.exists()

    def test_classify_refuses_a_nan_entry(self, tmp_path, capsys):
        matrix_path = tmp_path / "dissim.csv"
        matrix_path.write_text("# labels: a,a,b,b\n0,1,nan,1\n1,0,1,1\n1,1,0,1\n1,1,1,0\n")
        assert main(["classify", str(matrix_path), "--k", "1", "--folds", "2"]) == 1
        captured = capsys.readouterr()
        assert "dissimilarity must be finite, got nan at (0, 2)" in captured.err
        assert "accuracy" not in captured.out

    def test_classify_without_labels_fails(self, graph_files, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(str(p) for p in graph_files) + "\n")
        matrix_path = tmp_path / "dissim.csv"
        main(["dissim", str(manifest), "--d", "2", "--output", str(matrix_path)])
        assert main(["classify", str(matrix_path)]) == 1
        assert "labels" in capsys.readouterr().err


class TestKernelOptions:
    """`rdpgtest test` options and INI `[test]` keys build one `TestConfig`."""

    FLAGS = {"b": "--B", "alpha_level": "--alpha", "sparsity_x": "--sparsity-a",
             "sparsity_y": "--sparsity-b", "eps_floor": "--eps-floor"}

    def _from_cli(self, settings, graph_files, monkeypatch, capsys):
        seen = []

        def capture(graph_a, graph_b, config):
            seen.append(config)
            raise RuntimeError("config captured")

        monkeypatch.setattr(cli, "two_sample_test", capture)
        argv = ["test", str(graph_files[0]), str(graph_files[1]), "--d", "2"]
        for key, value in settings.items():
            if key == "align_reflections":
                argv += ["--no-align"]
            else:
                argv += [self.FLAGS.get(key, f"--{key}"), value]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip()
        return (seen[0] if seen else None), err

    def _from_ini(self, settings, tmp_path):
        test = {key: value for key, value in settings.items() if key != "seed"}
        lines = ["[experiment]", "family = two_block", "n = 20", f"seed = {settings.get('seed', 0)}"]
        lines += ["[test]"] + [f"{key} = {value}" for key, value in test.items()]
        path = tmp_path / "test.ini"
        path.write_text("\n".join(lines) + "\n")
        return load_power_config(path).test

    @pytest.mark.parametrize(
        "settings, expected",
        [
            ({}, TestConfig()),
            (
                {"variant": "projection", "d": "3", "kernel": "imq", "c": "2", "beta": "0.3",
                 "b": "30", "alpha_level": "0.1", "seed": "5", "eps_floor": "1e-5",
                 "align_reflections": "false"},
                TestConfig(variant="projection", d=3, kernel=InverseMultiquadricKernel(2.0, 0.3),
                           permutations=30, alpha_level=0.1, seed=5, eps_floor=1e-5,
                           align_reflections=False),
            ),
            (
                {"variant": "sparse", "sparsity_x": "0.5", "sparsity_y": "0.25", "sigma": "0.7"},
                TestConfig(variant="sparse", sparsity_x=0.5, sparsity_y=0.25,
                           kernel=GaussianKernel(0.7)),
            ),
        ],
    )
    def test_cli_and_ini_give_one_config(
        self, settings, expected, graph_files, tmp_path, monkeypatch, capsys
    ):
        config, _ = self._from_cli(settings, graph_files, monkeypatch, capsys)
        assert config == self._from_ini(settings, tmp_path) == expected

    def test_every_name_gives_one_spec_and_one_error(
        self, graph_files, tmp_path, monkeypatch, capsys
    ):
        imq_params = {"c": "2", "beta": "0.3"}
        imq = InverseMultiquadricKernel(c=2.0, beta=0.3)
        cases = [
            ("gaussian", {"sigma": "0.7"}, GaussianKernel(0.7)),
            ("gaussian", {"sigma": "median"}, GaussianKernel(None)),
            ("imq", imq_params, imq),
            ("inverse_multiquadric", imq_params, imq),
            ("energy", {"q": "1.5"}, EnergyKernel(1.5)),
            ("energy", {}, EnergyKernel()),
        ]
        for name, values, expected in cases:
            settings = {"kernel": name, **values}
            config, _ = self._from_cli(settings, graph_files, monkeypatch, capsys)
            assert config == self._from_ini(settings, tmp_path) == TestConfig(kernel=expected)

        errors = [
            ({"kernel": "cubic"}, "unknown kernel 'cubic'"),
            ({"kernel": "energy", "sigma": "0.3"}, "the energy kernel does not take 'sigma'"),
            ({"kernel": "imq", "sigma": "0.3"}, "the imq kernel does not take 'sigma'"),
            ({"kernel": "inverse_multiquadric", "q": "1"},
             "the inverse_multiquadric kernel does not take 'q'"),
            ({"c": "2"}, "the gaussian kernel does not take 'c'"),
            ({"kernel": "gaussian", "beta": "0.3"}, "the gaussian kernel does not take 'beta'"),
        ]
        for settings, message in errors:
            config, err = self._from_cli(settings, graph_files, monkeypatch, capsys)
            assert config is None
            with pytest.raises(ValueError) as exc:
                self._from_ini(settings, tmp_path)
            assert err == f"error: {exc.value}" == f"error: {message}"
            argv = ["dissim", str(tmp_path / "missing.txt"), "--d", "2", "--output", "x.csv"]
            argv += [arg for key, value in settings.items() for arg in (f"--{key}", value)]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
