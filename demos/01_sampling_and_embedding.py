"""Sample a random dot product graph and recover its latent positions.

A two-block stochastic blockmodel is converted to its latent-position
form (a two-atom point-mass mixture), a graph is sampled from it, and the
spectral embedding of the adjacency matrix is compared against the true
positions with an orthogonal Procrustes alignment.
"""

import numpy as np

from rdpgtest import (
    ase,
    check_moment_assumption,
    procrustes_align,
    sample_latent,
    sample_rdpg,
    sbm_to_latent,
    substream,
)

rng = substream(1)

# Within-block probability 0.5, cross-block 0.2, blocks of 40% / 60%.
dist = sbm_to_latent([[0.5, 0.2], [0.2, 0.5]], [0.4, 0.6])
print("latent atoms (one per block):")
print(np.round(dist.atoms, 4))

n = 400
latent = sample_latent(dist, n, rng)
graph = sample_rdpg(latent, 1.0, rng)
print(f"\nsampled graph: {graph.n} vertices, {graph.edge_count} edges")

# The embedding needs the population second moment to have distinct
# eigenvalues; the diagnostic flags trouble instead of failing later.
diag = check_moment_assumption(latent)
print(f"second-moment eigenvalues: {np.round(diag.eigenvalues, 4)}, gap {diag.gap:.4f}"
      f"{' (FLAGGED)' if diag.flagged else ''}")

embedding = ase(graph, d=2)
aligned = procrustes_align(embedding.coordinates, latent)
print(f"\nembedding spectrum: {np.round(embedding.eigenvalues, 2)}")
print(f"Procrustes residual: Frobenius {aligned.frobenius_error:.4f}, "
      f"worst row {aligned.two_to_infinity_error:.4f}")

# The same embedding applied to the noiseless edge-probability matrix
# recovers the positions essentially exactly.
from rdpgtest import edge_prob_matrix

noiseless = ase(edge_prob_matrix(latent), d=2)
exact = procrustes_align(noiseless.coordinates, latent)
print(f"noiseless-input residual: {exact.frobenius_error:.2e}")
