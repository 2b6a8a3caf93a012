"""Problem instances for linear regression under covariate shift.

An instance bundles the source covariance S, target covariance T, the
constraint metric M (admissible ground truths live in the ellipsoid
w' M w <= 1), the ground truth w* and the noise variance sigma2. The data
law is the Gaussian design: x ~ N(0, S) and y = x'w* + eps with
eps ~ N(0, sigma2), so the fourth-moment constant is ProblemInstance.psi = 3.
Whitening by M^{-1/2} produces the matrices
S' = M^{-1/2} S M^{-1/2} and T' = M^{-1/2} T M^{-1/2} in which the minimax
problem is naturally stated. Each instance decomposes S and M once each, at
construction, and keeps what the package reads of S's eigenbasis and M's
roots.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .psdlinalg import (
    EigenDecomposition,
    NotPSD,
    _roots,
    eigh,
    spectral_norm,
    sym,
)

__all__ = [
    "ProblemInstance",
    "SpectralTriple",
    "PowerLawSpec",
    "Samples",
    "make_power_law_instance",
    "whiten",
    "excess_risk",
    "sample_source",
    "instance_to_json",
    "instance_from_json",
]

# Rows per matrix product in sample_source: BLAS picks kernels and splits
# rows between workers by shape, so every product has this one shape (the
# last tile zero-padded) and a row gets the same bits wherever a draw ends.
SAMPLE_TILE = 256


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Immutable problem description. Arrays are never mutated after init.
    Derived: ``c_finite`` = |S'|, the finite-initial-risk constant;
    ``M_sqrt`` = M^{1/2} and ``M_inv_sqrt`` = M^{-1/2}, from the one
    eigendecomposition of M that also checks M positive definite;
    ``eig_S`` = eigh(S), S = V diag(lam) V'; ``T_tilde`` = V' T V; and
    ``source_factor``, the root V diag(sqrt(lam)) V' of S, or its diagonal
    as a vector when S and the root are exactly diagonal (any nonzero
    off-diagonal entry, however small, keeps the matrix)."""

    S: np.ndarray
    T: np.ndarray
    M: np.ndarray
    w_star: np.ndarray
    sigma2: float
    psi = 3.0
    """Fourth-moment constant of the Gaussian design x ~ N(0, S): for every
    PSD A, E[x x' A x x'] = 2 S A S + tr(SA) S <= 3 tr(SA) S."""
    c_finite: float = field(init=False)
    M_sqrt: np.ndarray = field(init=False, repr=False)
    M_inv_sqrt: np.ndarray = field(init=False, repr=False)
    eig_S: EigenDecomposition = field(init=False, repr=False)
    T_tilde: np.ndarray = field(init=False, repr=False)
    source_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        S, T, M = sym(self.S), sym(self.T), sym(self.M)
        w = np.asarray(self.w_star, dtype=float).reshape(-1)
        d = S.shape[0]
        if not (T.shape == (d, d) and M.shape == (d, d) and w.shape == (d,)):
            raise ValueError("S, T, M, w_star dimensions disagree")
        if not all(np.isfinite(X).all() for X in (S, T, M, w)):
            raise ValueError("S, T, M and w_star must have finite entries")
        if not 0 <= self.sigma2 < np.inf:
            raise ValueError("sigma2 must be finite and >= 0")
        eig_S, eig_M = eigh(S), eigh(M)
        for name, eigs in (("S", eig_S.eigenvalues), ("M", eig_M.eigenvalues)):
            if not eigs.min() > 0:
                raise NotPSD(f"{name} must be positive definite (min eig {eigs.min():.3e})")
        eigs = np.linalg.eigvalsh(T)
        if not eigs.min() >= -1e-12 * max(1.0, np.abs(eigs).max()):
            raise NotPSD(f"T must be PSD (min eig {eigs.min():.3e})")
        norm2 = float(w @ M @ w)
        if not norm2 <= 1 + 1e-9:
            raise ValueError(f"w_star outside the constraint ellipsoid: |w|_M^2 = {norm2}")
        M_sqrt, M_inv_sqrt = _roots(M, eig_M)
        V = eig_S.eigenvectors
        # S^{1/2} from eig_S, as psd_roots(S)[0] computes it
        root = sym((V * np.sqrt(eig_S.eigenvalues)) @ V.T)
        diagonal = _is_diagonal(S) and _is_diagonal(root)
        object.__setattr__(self, "M_sqrt", M_sqrt)
        object.__setattr__(self, "M_inv_sqrt", M_inv_sqrt)
        object.__setattr__(self, "c_finite", spectral_norm(M_inv_sqrt @ S @ M_inv_sqrt))
        object.__setattr__(self, "eig_S", eig_S)
        object.__setattr__(self, "T_tilde", V.T @ T @ V)
        object.__setattr__(self, "source_factor", np.diag(root) if diagonal else root)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "w_star", w)
        object.__setattr__(self, "sigma2", float(self.sigma2))

    @property
    def d(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralTriple:
    """Whitened covariances S' and T'."""

    S_prime: np.ndarray
    T_prime: np.ndarray

    @property
    def d(self) -> int:
        return self.S_prime.shape[0]

    def ridged(self, eps: float) -> "SpectralTriple":
        """This triple with T' replaced by T' + eps I; itself when eps <= 0."""
        if not eps > 0:
            return self
        return replace(self, T_prime=self.T_prime + eps * np.eye(self.d))


@dataclass(frozen=True)
class PowerLawSpec:
    """Power-law instance family: source eigenvalues i^-a, constraint metric
    diag(lambda_i^{1-s}), target diagonal i^{-(1+r)a} (nu=0), rank-one
    T = v v' with v_i = i^{-(1+r)a/2} (nu=1), or the plateau variant
    diag(max(i, d0)^{-(1+r)a}) when d0 is set."""

    d: int
    a: float
    s: float
    r: float
    nu: int = 0
    d0: int = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not self.a > 1:
            raise ValueError("a must be > 1")
        if self.nu not in (0, 1):
            raise ValueError("only nu = 0 (diagonal T) and nu = 1 (rank-one T) are supported")
        if self.d0 is not None and not (1 <= self.d0 <= self.d):
            raise ValueError("d0 must lie in [1, d]")


@dataclass(frozen=True, eq=False)
class Samples:
    """A batch of n samples; X has shape (n, d), y shape (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __len__(self):
        return self.X.shape[0]


# =====================================================================
# construction
# =====================================================================

def _check_shell(spec: PowerLawSpec, w_profile: str):
    """ValueError unless make_power_law_instance can use this w* profile."""
    if w_profile not in ("spread", "tail"):
        raise ValueError(f"unknown w_profile {w_profile!r}")
    if w_profile == "tail" and spec.d0 is None:
        raise ValueError("w_profile='tail' needs d0")


def make_power_law_instance(
    spec: PowerLawSpec,
    seed: int,
    sigma2: float = 1.0,
    w_profile: str = "spread",
) -> ProblemInstance:
    """Build the canonical synthetic instance for a power-law spec.

    The ground truth is placed deterministically (given seed) on the shell
    |w*|_M = 1. Profile "spread" uses coordinate magnitudes
    ~ m_i^{-1/2} i^{-1/2-0.01} with random signs, spreading mass across the
    whole spectrum. Profile "tail" (requires d0) puts mass only on
    coordinates i >= d0 with magnitudes ~ m_i^{-1/2} i^{-1/2}: nothing the
    learner resolves before the d0-th direction carries risk, so the risk
    curve holds a plateau, and the remaining tail is calibrated so that
    resolving up to direction k leaves Sum_{i>k} t_ii w_i^2 ~ t_kk k — the
    worst-case profile whose post-plateau decay follows the power-law rate.
    """
    _check_shell(spec, w_profile)
    d, a, s, r = spec.d, spec.a, spec.s, spec.r
    i = np.arange(1, d + 1, dtype=float)
    lam = i ** (-a)
    m = lam ** (1 - s)
    if spec.nu == 1:
        v = i ** (-(1 + r) * a / 2)
        T = np.outer(v, v)
    elif spec.d0 is not None:
        T = np.diag(np.maximum(i, spec.d0) ** (-(1 + r) * a))
    else:
        T = np.diag(i ** (-(1 + r) * a))

    rng = np.random.default_rng(seed)
    if w_profile == "tail":
        mags = m ** -0.5 * i ** -0.5
        mags[: min(int(spec.d0), d) - 1] = 0.0
    else:
        mags = m ** -0.5 * i ** (-0.5 - 0.01)
    w = rng.choice([-1.0, 1.0], size=d) * mags
    w *= 1.0 / np.sqrt(np.sum(m * w * w))  # not /=, which rounds otherwise
    return ProblemInstance(
        S=np.diag(lam), T=T, M=np.diag(m), w_star=w, sigma2=sigma2
    )


def whiten(inst: ProblemInstance) -> SpectralTriple:
    """Whitened covariances S' = M^{-1/2} S M^{-1/2}, T' likewise, with the
    instance's M^{-1/2}; no eigendecomposition is made."""
    M_inv_sqrt = inst.M_inv_sqrt
    S_prime = sym(M_inv_sqrt @ inst.S @ M_inv_sqrt)
    T_prime = sym(M_inv_sqrt @ inst.T @ M_inv_sqrt)
    return SpectralTriple(S_prime=S_prime, T_prime=T_prime)


def excess_risk(inst: ProblemInstance, w) -> float:
    """Target-domain excess risk (w - w*)' T (w - w*)."""
    diff = np.asarray(w, dtype=float).reshape(-1) - inst.w_star
    return float(diff @ inst.T @ diff)


# =====================================================================
# sampling
# =====================================================================

def _is_diagonal(A: np.ndarray) -> bool:
    """Every off-diagonal entry is exactly zero (no tolerance)."""
    return not np.any(A[~np.eye(A.shape[0], dtype=bool)])


def sample_source(inst: ProblemInstance, n: int, seed) -> Samples:
    """Draw n i.i.d. source samples x ~ N(0, S), y = x'w* + eps.

    ``seed`` is an int or a ``np.random.Generator``, which is advanced in
    place. Each sample consumes exactly d+1 standard normals from the PCG64
    stream (column d is the noise channel), and rows are transformed in
    full SAMPLE_TILE-row products, the last tile zero-padded. A row's bits
    thus depend only on its normals: the first m rows of an n-row draw are
    the m-row draw, and drawing one stream in consecutive blocks whose
    lengths are multiples of SAMPLE_TILE (the last may be shorter)
    reproduces one whole draw bit for bit.

    X is the tile product Z @ root.T with ``inst.source_factor``, or
    Z * factor element by element when the factor is a vector (S exactly
    diagonal): each entry of the tile product then has one nonzero term, so
    the bits are the same and no BLAS product is made.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factor = inst.source_factor
    d = inst.d
    rng = np.random.default_rng(seed)
    Z = np.empty((-(-n // SAMPLE_TILE) * SAMPLE_TILE, d + 1))
    rng.standard_normal(out=Z[:n])
    Z[n:] = 0.0
    if factor.ndim == 1:
        X = Z[:, :d] * factor
    else:
        X = np.empty((len(Z), d))
    y = np.empty(len(Z))
    for a in range(0, len(Z), SAMPLE_TILE):
        if factor.ndim == 2:
            X[a : a + SAMPLE_TILE] = Z[a : a + SAMPLE_TILE, :d] @ factor.T
        y[a : a + SAMPLE_TILE] = X[a : a + SAMPLE_TILE] @ inst.w_star
    return Samples(X=X[:n], y=y[:n] + np.sqrt(inst.sigma2) * Z[:n, d])


# =====================================================================
# serialization
# =====================================================================

# The keys of each instance description type, as (kind, default) for
# experiments._walk. Either type may state the Gaussian design.
_LAW = {"psi": ((ProblemInstance.psi,), ProblemInstance.psi), "noise": (("gaussian",), "gaussian")}
POWER_LAW_KEYS = {
    "type": (("powerlaw",), "powerlaw"), "d": (int, ...), "a": (float, ...), "s": (float, 1.0),
    "r": (float, 0.0), "nu": (int, 0), "d0": (int, None), "seed": (int, 0),
    "sigma2": (float, 1.0), "w_profile": (str, "spread"), **_LAW,
}
EXPLICIT_KEYS = {
    "type": (("explicit",), ...), "d": (int, None), "S": ([[float]], ...),
    "T": ([[float]], ...), "M": ([[float]], ...), "w_star": ([float], ...),
    "sigma2": (float, ...), **_LAW,
}


def instance_to_json(inst: ProblemInstance) -> dict:
    """The "explicit" instance description that specs and the CLI read."""
    return {
        "type": "explicit",
        "d": inst.d,
        "S": inst.S.tolist(),
        "T": inst.T.tolist(),
        "M": inst.M.tolist(),
        "w_star": inst.w_star.tolist(),
        "sigma2": inst.sigma2,
    }


def instance_from_json(doc) -> ProblemInstance:
    """The instance of an explicit description (a dict or its JSON text); an
    ``ExperimentSpec`` checks the whole description against EXPLICIT_KEYS."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    return ProblemInstance(
        S=np.array(doc["S"], dtype=float),
        T=np.array(doc["T"], dtype=float),
        M=np.array(doc["M"], dtype=float),
        w_star=np.array(doc["w_star"], dtype=float),
        sigma2=float(doc["sigma2"]),
    )
