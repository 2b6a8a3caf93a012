"""Dense symmetric / PSD matrix primitives shared by the whole package.

Everything here is a pure function on small dense matrices (design envelope
d <= ~2000, double precision). ``eigh`` is the package's one
eigendecomposition: it sorts the eigenvalues and checks the reconstruction,
and keeps the eigenvector signs LAPACK returns. Every spectral function
here returns U f(w) U', in which a negated column of U cancels exactly, so
the roots and the nuclear-ball projection do not depend on those signs.

``sym``, ``eigh`` and ``project_psd_nuclear_ball`` also take a (..., d, d)
stack of matrices and give each slice the bits of a 2-D call (LAPACK and
BLAS work slice by slice, and every array keeps a 2-D call's memory layout
in each slice), so a solver can step a stack of independent programs with
one LAPACK call per operation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotPSD",
    "EigenSolverError",
    "EigenDecomposition",
    "sym",
    "eigh",
    "psd_roots",
    "spectral_norm",
    "project_psd_nuclear_ball",
]


class NotPSD(ValueError):
    """Matrix violates a positive-(semi)definiteness precondition."""


class EigenSolverError(RuntimeError):
    """Eigendecomposition failed or did not meet the reconstruction tolerance."""


def sym(X) -> np.ndarray:
    """Symmetrize by averaging (each slice of a stack); returns a float ndarray."""
    X = np.asarray(X, dtype=float)
    return 0.5 * (X + X.swapaxes(-1, -2))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in non-increasing order; eigenvectors as columns (of
    each slice, for a stack)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(X) -> EigenDecomposition:
    """Symmetric eigendecomposition of sym(X), or of each slice of a stack:
    eigenvalues sorted non-increasing (stable, so ties keep LAPACK's order),
    eigenvectors with the signs LAPACK returned.

    Raises EigenSolverError (carrying the residual) if LAPACK fails to
    converge or a reconstruction misses the 1e-9 relative tolerance.
    """
    Xs = sym(X)
    try:
        w, U = np.linalg.eigh(Xs)
    except np.linalg.LinAlgError as e:
        raise EigenSolverError(f"eigensolver did not converge: {e}") from e
    if (w[..., 1:] > w[..., :-1]).all():  # no tie: the sort reverses LAPACK's order
        w, U = w[..., ::-1], U[..., ::-1]
    else:
        order = np.argsort(-w, axis=-1, kind="stable")
        w = np.take_along_axis(w, order, -1)
        U = np.take_along_axis(U, order[..., None, :], -1)
    # contiguous eigenvalues, and columns contiguous in each slice: the layout
    # a 2-D fancy index U[:, order] leaves, on which BLAS products depend
    w, U = w.copy(), _T(_T(U).copy())
    # squared Frobenius norms: residual <= 1e-9 max(1, |Xs|) in each slice
    resid2 = _frobenius2((U * w[..., None, :]) @ _T(U) - Xs)
    tol2 = 1e-18 * np.maximum(1.0, _frobenius2(Xs))
    if not (resid2 <= tol2).all():  # a NaN residual misses too
        k = np.unravel_index(np.argmin(resid2 <= tol2), resid2.shape)
        raise EigenSolverError(
            f"eigendecomposition residual {np.sqrt(resid2[k]):.3e} exceeds "
            f"tolerance {np.sqrt(tol2[k]):.3e}"
        )
    return EigenDecomposition(eigenvalues=w, eigenvectors=U)


def _T(X) -> np.ndarray:
    """The transpose of each slice (a view)."""
    return X.swapaxes(-1, -2)


def _frobenius2(X):
    """Squared Frobenius norm of each slice."""
    return (X * X).sum((-2, -1))


def psd_roots(X) -> tuple[np.ndarray, np.ndarray]:
    """(X^{1/2}, X^{-1/2}) of a positive definite matrix from one
    eigendecomposition; raises NotPSD unless every eigenvalue exceeds
    1e-10 * max(1, |X|_max)."""
    return _roots(X, eigh(X))


def _roots(X, dec: EigenDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """psd_roots(X) from its eigendecomposition ``dec`` = eigh(X)."""
    w = dec.eigenvalues
    X = np.asarray(X, float)
    t = 1e-10 * max(1.0, float(np.max(np.abs(X))) if X.size else 0.0)
    if w.size == 0 or w.min() <= t:
        raise NotPSD(f"matrix not positive definite (min eigenvalue {w.min(initial=0.0):.6e})")
    U, r = dec.eigenvectors, np.sqrt(w)
    return sym((U * r) @ U.T), sym((U / r) @ U.T)


def spectral_norm(X) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    Xs = sym(X)
    if not Xs.size:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(Xs))))


def _simplex_cap_project(v: np.ndarray, radius) -> np.ndarray:
    """Euclidean projection of a nonnegative vector, or of each row of a
    stack, onto {x >= 0, sum x <= radius}; ``radius`` is one float or one
    per row."""
    r = np.asarray(radius, dtype=float)[..., None]
    over = v.sum(-1, keepdims=True) > r
    if not over.any():
        return v
    u = np.sort(v)[..., ::-1]
    j = np.arange(1, v.shape[-1] + 1)
    theta = (u.cumsum(-1) - r) / j  # the shift if the top j entries stay positive
    rho = ((u - theta > 0) * j).max(-1, keepdims=True)  # the last such j
    theta = np.where(j == rho, theta, 0.0).sum(-1, keepdims=True)  # exact: one term
    x = np.maximum(v - theta, 0.0)
    return x if over.all() else np.where(over, x, v)


def project_psd_nuclear_ball(X, radius) -> np.ndarray:
    """Euclidean (Frobenius) projection onto {P PSD, trace(P) <= radius}, of
    X or of each slice of a stack (``radius`` one float or one per slice).

    Eigendecompose, clamp eigenvalues at zero, then water-fill the clamped
    eigenvalues onto the capped simplex. Exact projection because the
    constraint set is unitarily invariant.
    """
    if (np.asarray(radius) <= 0).any():
        raise ValueError("radius must be positive")
    dec = eigh(X)
    w, U = dec.eigenvalues, dec.eigenvectors
    v = _simplex_cap_project(np.maximum(w, 0.0), radius)
    return sym((U * v[..., None, :]) @ _T(U))
