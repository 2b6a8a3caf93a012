"""Dense symmetric / PSD matrix primitives shared by the whole package.

Everything here is a pure function on small dense matrices (design envelope
d <= ~2000, double precision). Decompositions are made deterministic by a
sign convention on eigenvectors, so downstream solvers and tests are
reproducible bit-for-bit.
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
    "psd_sqrt",
    "psd_inv_sqrt",
    "spectral_norm",
    "project_psd_nuclear_ball",
]


class NotPSD(ValueError):
    """Matrix violates a positive-(semi)definiteness precondition."""


class EigenSolverError(RuntimeError):
    """Eigendecomposition failed or did not meet the reconstruction tolerance."""


def sym(X) -> np.ndarray:
    """Symmetrize by averaging; returns a float ndarray."""
    X = np.asarray(X, dtype=float)
    return 0.5 * (X + X.T)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in non-increasing order; eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        U, w = self.eigenvectors, self.eigenvalues
        return (U * w) @ U.T


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: first component of each eigenvector that
    is clearly nonzero is made positive."""
    U = U.copy()
    d = U.shape[0]
    for j in range(U.shape[1]):
        col = U[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        k = idx[0] if idx.size else int(np.argmax(np.abs(col)))
        if col[k] < 0:
            U[:, j] = -col
    return U


def eigh(X) -> EigenDecomposition:
    """Symmetric eigendecomposition, eigenvalues sorted non-increasing.

    Raises EigenSolverError (carrying the residual) if LAPACK fails to
    converge or the reconstruction misses the 1e-9 relative tolerance.
    """
    Xs = sym(X)
    try:
        w, U = np.linalg.eigh(Xs)
    except np.linalg.LinAlgError as e:
        raise EigenSolverError(f"eigensolver did not converge: {e}") from e
    order = np.argsort(-w, kind="stable")
    w, U = w[order], _fix_signs(U[:, order])
    resid = np.linalg.norm((U * w) @ U.T - Xs)
    tol = 1e-9 * max(1.0, np.linalg.norm(Xs))
    if resid > tol:
        raise EigenSolverError(
            f"eigendecomposition residual {resid:.3e} exceeds tolerance {tol:.3e}"
        )
    return EigenDecomposition(eigenvalues=w, eigenvectors=U)


def _clamp_tol(X: np.ndarray, tol) -> float:
    if tol is not None:
        return float(tol)
    scale = float(np.max(np.abs(X))) if X.size else 0.0
    return 1e-10 * max(1.0, scale)


def psd_sqrt(X, tol=None) -> np.ndarray:
    """Symmetric PSD square root.

    Eigenvalues within ``tol`` below zero are clamped to 0 (floating point
    produces those routinely); anything below -tol raises NotPSD. Default
    tol is 1e-10 * max(1, |X|_max).
    """
    dec = eigh(X)
    w = dec.eigenvalues
    t = _clamp_tol(np.asarray(X, float), tol)
    if w.min(initial=0.0) < -t:
        raise NotPSD(f"eigenvalue {w.min():.6e} below -{t:.2e}")
    w = np.maximum(w, 0.0)
    U = dec.eigenvectors
    return sym((U * np.sqrt(w)) @ U.T)


def psd_inv_sqrt(X, tol=None) -> np.ndarray:
    """Inverse symmetric square root of a positive definite matrix."""
    dec = eigh(X)
    w = dec.eigenvalues
    t = _clamp_tol(np.asarray(X, float), tol)
    if w.size == 0 or w.min() <= t:
        raise NotPSD(f"matrix not positive definite (min eigenvalue {w.min(initial=0.0):.6e})")
    U = dec.eigenvectors
    return sym((U / np.sqrt(w)) @ U.T)


def spectral_norm(X) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    Xs = sym(X)
    if not Xs.size:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(Xs))))


def _simplex_cap_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a nonnegative vector onto {x >= 0, sum x <= radius}."""
    if v.sum() <= radius:
        return v
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = int(np.max(j[u - (css - radius) / j > 0]))
    theta = (css[rho - 1] - radius) / rho
    return np.maximum(v - theta, 0.0)


def project_psd_nuclear_ball(X, radius: float) -> np.ndarray:
    """Euclidean (Frobenius) projection onto {P PSD, trace(P) <= radius}.

    Eigendecompose, clamp eigenvalues at zero, then water-fill the clamped
    eigenvalues onto the capped simplex. Exact projection because the
    constraint set is unitarily invariant.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    dec = eigh(X)
    v = _simplex_cap_project(np.maximum(dec.eigenvalues, 0.0), float(radius))
    U = dec.eigenvectors
    return sym((U * v) @ U.T)
