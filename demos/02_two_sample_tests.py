"""Run the four two-sample test variants on simulated graph pairs.

Each test embeds both graphs, normalizes the embedded rows according to
the variant, and calibrates the kernel statistic with a permutation
bootstrap over the pooled rows.
"""

from rdpgtest import (
    DegreeCorrected,
    PointMassMixture,
    TestConfig,
    sample_latent,
    sample_rdpg,
    sbm_to_latent,
    substream,
    two_block_pair,
    two_sample_test,
)

rng = substream(2)


def graph_from(dist, n, sparsity=1.0):
    return sample_rdpg(sample_latent(dist, n, rng), sparsity, rng)


def show(title, report):
    print(f"{title}\n  statistic {report.statistic:.5f}  "
          f"p-value {report.p_value:.4f}  reject: {report.reject}")


# Identity variant: same distribution vs a shifted one.
f0, _ = two_block_pair(0.0)
_, f_shift = two_block_pair(0.1)
config = TestConfig(variant="identity", d=2, permutations=200, seed=10)
show("identity, null (same model):",
     two_sample_test(graph_from(f0, 300), graph_from(f0, 300), config))
show("identity, alternative (offset blocks):",
     two_sample_test(graph_from(f0, 300), graph_from(f_shift, 300), config))

# Scaling variant: one model is a globally rescaled copy of the other.
base = sbm_to_latent([[0.5, 0.2], [0.2, 0.5]], [0.4, 0.6])
shrunk = PointMassMixture(0.8 * base.atoms, base.weights)
config = TestConfig(variant="scaling", d=2, permutations=200, seed=11)
show("scaling, null (rescaled copy):",
     two_sample_test(graph_from(base, 300), graph_from(shrunk, 300), config))

# Projection variant: degree-corrected models share directions but not
# degree-correction laws. On the true positions the contrast is exact:
# the identity test sees the degree difference, the projection test does
# not. On embedded graphs the projection null is only asymptotic (rows
# with small degree factors embed more noisily, and the permutation test
# can pick that up at moderate n), so graph-level p-values vary more.
from rdpgtest import two_sample_point_test

directions = PointMassMixture([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])
dc_strong = DegreeCorrected(directions, theta_low=0.8, theta_high=1.0)
dc_weak = DegreeCorrected(directions, theta_low=0.5, theta_high=0.7)
x = sample_latent(dc_strong, 500, rng)
y = sample_latent(dc_weak, 500, rng)
show("identity on true degree-corrected positions (degree laws differ):",
     two_sample_point_test(x, y, TestConfig(variant="identity", d=2, seed=12)))
show("projection on the same positions (directions agree):",
     two_sample_point_test(x, y, TestConfig(variant="projection", d=2, seed=12)))
config = TestConfig(variant="projection", d=2, permutations=200, seed=12)
show("projection on embedded graphs of the same pair:",
     two_sample_test(graph_from(dc_strong, 500), graph_from(dc_weak, 500), config))

# Sparse variant: both graphs subsampled with known factors.
config = TestConfig(variant="sparse", d=2, permutations=200, seed=13,
                    sparsity_x=0.5, sparsity_y=0.7)
show("sparse, null (known sparsity factors 0.5 and 0.7):",
     two_sample_test(graph_from(f0, 400, 0.5), graph_from(f0, 400, 0.7), config))
