"""Nonparametric two-sample hypothesis tests for random dot product graphs.

Sample graphs whose edge probabilities are inner products of latent
positions, estimate the positions by spectral embedding of the adjacency
matrix, and test whether two graphs share a generating distribution
(exactly, up to scaling, or up to projection) using kernel two-sample
statistics calibrated by a permutation bootstrap.
"""

from .embed import (
    AlignmentResult,
    Embedding,
    ase,
    fix_signs,
    procrustes_align,
    second_moment_rotation,
    two_to_infinity,
)
from .harness import (
    DissimilarityMatrix,
    ExperimentConfig,
    KnnReport,
    PowerTable,
    WComparison,
    knn_classify,
    pairwise_dissimilarity,
    run_power_experiment,
    two_block_pair,
    uniform_box_pair,
    w_comparison_experiment,
)
from .io import read_edge_list, write_edge_list
from .mmd import (
    EnergyKernel,
    GaussianKernel,
    InverseMultiquadricKernel,
    KernelSpec,
    MmdEstimate,
    gram,
    kernel_eval,
    median_heuristic,
    mmd_population_oracle,
    u_statistic,
    v_statistic,
)
from .model import (
    DegreeCorrected,
    DirichletLatent,
    Graph,
    LatentDistribution,
    LogitNormalMixture,
    MomentDiagnostic,
    PointMassMixture,
    UniformBox,
    check_moment_assumption,
    edge_prob_matrix,
    sample_latent,
    sample_rdpg,
    sbm_to_latent,
    second_moment_matrix,
)
from .streams import substream
from .testing import (
    TestConfig,
    TestReport,
    p_value,
    permutation_null,
    preprocess,
    two_sample_point_test,
    two_sample_test,
)

__version__ = "0.1.0"
