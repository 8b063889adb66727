"""Nonparametric two-sample hypothesis tests for random dot product graphs.

Sample graphs whose edge probabilities are inner products of latent
positions, estimate the positions by spectral embedding of the adjacency
matrix, and test whether two graphs share a generating distribution
(exactly, up to scaling, or up to projection) using kernel two-sample
statistics calibrated by a permutation bootstrap.
"""

from .embed import *  # noqa: F401,F403  (each module's __all__ is its public API)
from .harness import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .mmd import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .streams import *  # noqa: F401,F403
from .testing import *  # noqa: F401,F403

__version__ = "0.1.0"
