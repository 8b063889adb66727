"""Every public name that the package and its modules declare resolves, and
the package runs on numpy alone."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdpgtest

MODULES = ["embed", "harness", "io", "mmd", "model", "streams", "testing"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"rdpgtest.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    exec(f"from rdpgtest.{name} import *", {})


PUBLIC_NAMES = """
AlignmentResult DegreeCorrected DirichletLatent DissimilarityMatrix Embedding EnergyKernel
ExperimentConfig GaussianKernel Graph InverseMultiquadricKernel KernelSpec KnnReport
LatentDistribution LogitNormalMixture MomentDiagnostic PointMassMixture PowerTable
TestConfig TestReport UniformBox WComparison ase check_moment_assumption edge_prob_matrix
fix_signs gram knn_classify median_heuristic p_value
pairwise_dissimilarity permutation_null preprocess procrustes_align read_edge_list
run_power_experiment sample_latent sample_rdpg sbm_to_latent second_moment_matrix
second_moment_rotation substream two_block_pair two_sample_point_test two_sample_test
two_to_infinity u_statistic uniform_box_pair v_statistic w_comparison_experiment write_edge_list
""".split()


def test_package_exports_exactly_the_public_names():
    exports = {
        name
        for name, value in vars(rdpgtest).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(PUBLIC_NAMES) == 50 and exports == set(PUBLIC_NAMES)


def test_package_exports_are_declared_by_their_modules():
    declared = {}
    for name in MODULES:
        module = importlib.import_module(f"rdpgtest.{name}")
        declared.update((entry, getattr(module, entry)) for entry in module.__all__)
    exports = {
        name: value
        for name, value in vars(rdpgtest).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exports and all(declared.get(name) is value for name, value in exports.items())
    exec("from rdpgtest import *", {})


IMPORT = "import rdpgtest, threading; print('threads', threading.active_count())"


@pytest.mark.parametrize("argv", [["-c", IMPORT], ["-m", "rdpgtest", "--help"]],
                         ids=["import", "help"])
def test_package_loads_no_scipy(argv):
    # scipy is only a test oracle; -X importtime lists every module a fresh
    # interpreter imports. The import starts no thread and no thread pool:
    # the null starts its helper thread only when it runs. configparser
    # comes with the command line, which reads all parameter text.
    src = str(Path(rdpgtest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")]
    assert "rdpgtest" in imported
    assert [name for name in imported if name.split(".")[0] in ("scipy", "concurrent")] == []
    if argv[1] == IMPORT:
        assert result.stdout.split() == ["threads", "1"]
        assert "configparser" not in imported


# The package modules each module imports at module level. io (data files)
# and mmd (kernels and statistics) import neither each other: the text of
# the parameters, INI files and kernel keys included, is read in cli alone.
LAYERS = {
    "__init__": {"embed", "harness", "io", "mmd", "model", "streams", "testing"},
    "__main__": {"cli"},
    "cli": {"embed", "harness", "io", "mmd", "model", "testing"},
    "embed": {"streams"},
    "errors": set(),
    "harness": {"embed", "io", "mmd", "model", "streams", "testing"},
    "io": {"errors", "model", "streams"},
    "mmd": {"errors", "streams"},
    "model": {"embed", "errors", "streams"},
    "streams": set(),
    "testing": {"embed", "errors", "io", "mmd", "model", "streams"},
}
# Imports inside a function, each to break a cycle: model imports embed.
DEFERRED = {"embed": {"model"}}


def _imports(tree):
    """``(module level, deferred, standard)``: the package modules imported
    at module level and inside functions, and the other top-level names."""
    top = set(tree.body)
    package, deferred, other = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = {node.module} if node.module else {alias.name for alias in node.names}
            (package if node in top else deferred).update(names)
        elif isinstance(node, ast.Import):
            other.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            other.add(node.module.split(".")[0])
    return package, deferred, other


def test_each_module_imports_the_layers_listed_for_it():
    src = Path(rdpgtest.__file__).resolve().parent
    found = {path.stem: _imports(ast.parse(path.read_text())) for path in src.glob("*.py")}
    assert {name: package for name, (package, _, _) in found.items()} == LAYERS
    assert {name: deferred for name, (_, deferred, _) in found.items() if deferred} == DEFERRED
    assert [name for name, (_, _, other) in found.items() if "configparser" in other] == ["cli"]
