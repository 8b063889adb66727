"""Adjacency spectral embedding and alignment diagnostics.

The spectral embedding of a symmetric matrix ``M`` into ``R^d`` keeps the
``d`` eigenpairs of largest absolute eigenvalue and returns
``U |S|^(1/2)``, one row per vertex. Because eigenvectors are determined
only up to sign, a fixed sign convention is applied so that independent
runs (and independently embedded graphs) produce commensurate coordinates.
"""

from dataclasses import dataclass

import numpy as np

from .streams import as_points, check_count

__all__ = [
    "Embedding",
    "AlignmentResult",
    "fix_signs",
    "ase",
    "procrustes_align",
    "two_to_infinity",
    "second_moment_rotation",
]

_SIGN_TOL = 1e-12


@dataclass(eq=False)
class Embedding:
    """Estimated latent positions with the retained spectrum.

    ``coordinates`` is ``n x d``; ``eigenvalues`` holds the corresponding
    eigenvalues, each with its sign, in descending order of absolute value.
    A negative one marks a column that the nuisance group O(p, q), not
    O(d), acts on.
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray


@dataclass(eq=False)
class AlignmentResult:
    """Orthogonal alignment of one point configuration onto another."""

    rotation: np.ndarray
    frobenius_error: float
    two_to_infinity_error: float


def fix_signs(u):
    """Return ``u`` with each column's sign fixed deterministically.

    Each column's entry sum is made positive; a column whose entry sum is
    within 1e-12 of zero has its first entry of largest magnitude made
    positive instead, and a zero column is left untouched. Idempotent, and
    invariant to pre-multiplying any column by -1.
    """
    u = as_points(u, "u")
    flips = np.ones(u.shape[1])
    sums = u.sum(axis=0)
    for k in range(u.shape[1]):
        if abs(sums[k]) > _SIGN_TOL:
            flips[k] = 1.0 if sums[k] > 0 else -1.0
        else:
            lead = u[np.argmax(np.abs(u[:, k])), k]
            if lead < 0:
                flips[k] = -1.0
    return u * flips


def ase(m, d):
    """Spectral embedding of a symmetric matrix into ``R^d``.

    Computes the full symmetric eigendecomposition of ``m``, keeps the
    ``d`` eigenpairs of largest absolute eigenvalue (ties prefer the
    positive eigenvalue, then the lower index in descending eigenvalue
    order), and returns ``U |S|^(1/2)`` with sign-fixed eigenvectors,
    along with the retained eigenvalues ``S``, signs kept.
    Accepts any symmetric real matrix, so a noiseless edge-probability
    matrix can be embedded as an oracle alongside sampled adjacencies.

    Parameters
    ----------
    m : (n, n) array_like
        Symmetric matrix, such as a :class:`~rdpgtest.model.Graph`;
        asymmetry beyond 1e-12 raises.
    d : int
        Embedding dimension, ``1 <= d <= n``.

    Returns
    -------
    Embedding
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    asym = _asymmetry(m) if n else 0.0
    if asym > 1e-12:
        raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3g})")
    check_dimension(d, n)
    vals, vecs = np.linalg.eigh(m)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    order = np.lexsort((np.arange(n), -np.sign(vals), -np.abs(vals)))
    top = order[:d]
    lam = vals[top]
    return Embedding(fix_signs(vecs[:, top]) * np.sqrt(np.abs(lam)), lam)


def _asymmetry(m):
    """``max |M - M^T|`` of a nonempty square matrix, in one temporary that
    is freed before the caller goes on."""
    diff = m - m.T
    return float(np.max(np.abs(diff, out=diff)))


def check_dimension(d, n):
    """The one embedding-size rule: ``d`` is a count (``streams.check_count``) and ``d <= n``."""
    if check_count(d, "d") > n:
        raise ValueError(f"need 1 <= d <= n: d={d} exceeds the graph size n={n}")


def procrustes_align(xhat, x):
    """Best orthogonal map of ``xhat`` onto ``x``.

    Solves ``min_W ||xhat W - x||_F`` over orthogonal ``W`` (reflections
    allowed) via the singular value decomposition of ``xhat^T x``, and
    reports the residual in Frobenius and maximum-row-norm form. Requires a
    known row correspondence, so this is a simulation diagnostic.
    """
    xhat = as_points(xhat, "xhat")
    x = as_points(x, "x")
    if xhat.shape != x.shape:
        raise ValueError(f"shape mismatch: {xhat.shape} vs {x.shape}")
    u, _, vt = np.linalg.svd(xhat.T @ x)
    w = u @ vt
    resid = xhat @ w - x
    return AlignmentResult(
        rotation=w,
        frobenius_error=float(np.linalg.norm(resid)),
        two_to_infinity_error=two_to_infinity(resid),
    )


def two_to_infinity(m):
    """Maximum Euclidean row norm of a matrix."""
    m = as_points(m, "m")
    if m.size == 0:
        return 0.0
    return float(np.sqrt((m * m).sum(axis=1).max()))


def second_moment_rotation(x):
    """Sign-fixed eigenvector matrix of ``X^T X`` (descending eigenvalues).

    For two graphs with latent positions ``X`` and ``Y``, the product
    ``second_moment_rotation(Y) @ second_moment_rotation(X).T`` is the
    orthogonal matrix that makes the true-position statistic comparable to
    the one computed from the two spectral embeddings.
    """
    x = as_points(x, "x")
    n, d = x.shape
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    return _descending_frame(x.T @ x)


def _descending_frame(moment):
    """Sign-fixed eigenvectors of the symmetric ``moment``, by descending eigenvalue."""
    return fix_signs(np.linalg.eigh(moment)[1][:, ::-1])
