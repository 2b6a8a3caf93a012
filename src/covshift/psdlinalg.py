"""Dense symmetric / PSD matrix primitives shared by the whole package.

Everything here is a pure function on small dense matrices (design envelope
d <= ~2000, double precision). ``eigh`` is the package's one
eigendecomposition: it sorts the eigenvalues and checks the reconstruction,
and keeps the eigenvector signs LAPACK returns. Every spectral function
here returns U f(w) U', in which a negated column of U cancels exactly, so
the roots and the nuclear-ball projection do not depend on those signs.
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
    """Symmetrize by averaging; returns a float ndarray."""
    X = np.asarray(X, dtype=float)
    return 0.5 * (X + X.T)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in non-increasing order; eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(X) -> EigenDecomposition:
    """Symmetric eigendecomposition of sym(X): eigenvalues sorted
    non-increasing (stable, so ties keep LAPACK's order), eigenvectors with
    the signs LAPACK returned.

    Raises EigenSolverError (carrying the residual) if LAPACK fails to
    converge or the reconstruction misses the 1e-9 relative tolerance.
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
    return EigenDecomposition(eigenvalues=w, eigenvectors=U)


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
    w, U = dec.eigenvalues, dec.eigenvectors
    v = _simplex_cap_project(np.maximum(w, 0.0), float(radius))
    return sym((U * v) @ U.T)
