"""Every public name that the package and its modules declare resolves."""

import importlib
import inspect

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
LatentDistribution LogitNormalMixture MmdEstimate MomentDiagnostic PointMassMixture PowerTable
TestConfig TestReport UniformBox WComparison ase check_moment_assumption edge_prob_matrix
fix_signs gram kernel_eval knn_classify median_heuristic mmd_population_oracle p_value
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
    assert len(PUBLIC_NAMES) == 53 and exports == set(PUBLIC_NAMES)


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
