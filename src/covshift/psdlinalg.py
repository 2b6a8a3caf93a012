"""Dense symmetric / PSD matrix primitives shared by the whole package.

Everything here is a pure function on small dense matrices (design envelope
d <= ~2000, double precision). Decompositions from ``eigh`` are made
deterministic by a sign convention on eigenvectors, so downstream solvers
and tests are reproducible bit-for-bit. The nuclear-ball projection, which
the dual solver calls every iteration, returns U f(w) U' and so does not
depend on those signs: it skips the convention but keeps the
reconstruction check.
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
    "psd_roots",
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


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: first component of each eigenvector that
    is clearly nonzero (the largest one if none is) is made positive."""
    if not U.size:
        return U.copy()
    big = np.abs(U) > 1e-12
    k = np.where(big.any(axis=0), big.argmax(axis=0), np.abs(U).argmax(axis=0))
    flip = U[k, np.arange(U.shape[1])] < 0
    return np.where(flip, -U, U)


def _eigh_unsigned(X) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (non-increasing) and eigenvectors of sym(X), with the
    eigenvector signs LAPACK returned.

    Enough for any spectral function U f(w) U': negating a column of U
    negates both factors of each of its terms, which leaves the product
    bit for bit unchanged. Raises EigenSolverError (carrying the residual)
    if LAPACK fails to converge or the reconstruction misses the 1e-9
    relative tolerance.
    """
    Xs = sym(X)
    try:
        w, U = np.linalg.eigh(Xs)
    except np.linalg.LinAlgError as e:
        raise EigenSolverError(f"eigensolver did not converge: {e}") from e
    order = np.argsort(-w, kind="stable")
    w, U = w[order], U[:, order]
    resid = np.linalg.norm((U * w) @ U.T - Xs)
    tol = 1e-9 * max(1.0, np.linalg.norm(Xs))
    if resid > tol:
        raise EigenSolverError(
            f"eigendecomposition residual {resid:.3e} exceeds tolerance {tol:.3e}"
        )
    return w, U


def eigh(X) -> EigenDecomposition:
    """Symmetric eigendecomposition, eigenvalues sorted non-increasing,
    eigenvectors under the deterministic sign convention of _fix_signs.

    Raises EigenSolverError (carrying the residual) if LAPACK fails to
    converge or the reconstruction misses the 1e-9 relative tolerance.
    """
    w, U = _eigh_unsigned(X)
    return EigenDecomposition(eigenvalues=w, eigenvectors=_fix_signs(U))


def _clamp_tol(X: np.ndarray) -> float:
    scale = float(np.max(np.abs(X))) if X.size else 0.0
    return 1e-10 * max(1.0, scale)


def psd_sqrt(X) -> np.ndarray:
    """Symmetric PSD square root.

    Eigenvalues within tol = 1e-10 * max(1, |X|_max) below zero are clamped
    to 0 (floating point produces those routinely); anything below -tol
    raises NotPSD.
    """
    dec = eigh(X)
    w = dec.eigenvalues
    t = _clamp_tol(np.asarray(X, float))
    if w.min(initial=0.0) < -t:
        raise NotPSD(f"eigenvalue {w.min():.6e} below -{t:.2e}")
    w = np.maximum(w, 0.0)
    U = dec.eigenvectors
    return sym((U * np.sqrt(w)) @ U.T)


def psd_inv_sqrt(X) -> np.ndarray:
    """Inverse symmetric square root of a positive definite matrix; raises
    NotPSD unless every eigenvalue exceeds 1e-10 * max(1, |X|_max)."""
    return psd_roots(X)[1]


def psd_roots(X) -> tuple[np.ndarray, np.ndarray]:
    """(psd_sqrt(X), psd_inv_sqrt(X)) of a positive definite matrix, bit for
    bit, from one eigendecomposition; raises NotPSD as psd_inv_sqrt does."""
    return _roots(X, eigh(X))


def _roots(X, dec: EigenDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """psd_roots(X) from its eigendecomposition ``dec`` = eigh(X)."""
    w = dec.eigenvalues
    t = _clamp_tol(np.asarray(X, float))
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
    w, U = _eigh_unsigned(X)
    v = _simplex_cap_project(np.maximum(w, 0.0), float(radius))
    return sym((U * v) @ U.T)
