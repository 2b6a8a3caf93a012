"""Problem instances for linear regression under covariate shift.

An instance bundles the source covariance S, target covariance T, the
constraint metric M (admissible ground truths live in the ellipsoid
w' M w <= 1), the ground truth w*, the noise second moment sigma2 and the
fourth-moment constant psi. Whitening by M^{-1/2} produces the matrices
S' = M^{-1/2} S M^{-1/2} and T' = M^{-1/2} T M^{-1/2} in which the minimax
problem is naturally stated.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .psdlinalg import (
    EigenDecomposition,
    NotPSD,
    eigh,
    psd_inv_sqrt,
    psd_sqrt,
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
    "spec_to_json",
    "spec_from_json",
]

NOISE_KINDS = ("gaussian", "rademacher")

# Rows per matrix product in sample_source: BLAS picks kernels and splits
# rows between workers by shape, so only products of one fixed shape give a
# row the same bits wherever a draw is cut (at multiples of this).
SAMPLE_TILE = 256


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Immutable problem description. Arrays are never mutated after init."""

    S: np.ndarray
    T: np.ndarray
    M: np.ndarray
    w_star: np.ndarray
    sigma2: float
    psi: float = 3.0
    noise: str = "gaussian"
    c_finite: float = None  # ||S'||, the finite-initial-risk constant
    flags: tuple = ()

    def __post_init__(self):
        S, T, M = sym(self.S), sym(self.T), sym(self.M)
        w = np.asarray(self.w_star, dtype=float).reshape(-1)
        d = S.shape[0]
        if not (T.shape == (d, d) and M.shape == (d, d) and w.shape == (d,)):
            raise ValueError("S, T, M, w_star dimensions disagree")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        if self.psi < 1:
            raise ValueError("psi must be >= 1")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}")
        for name, X, strict in (("S", S, True), ("M", M, True), ("T", T, False)):
            wmin = float(np.linalg.eigvalsh(X).min())
            lim = 1e-12 * max(1.0, spectral_norm(X))
            if strict and wmin <= 0:
                raise NotPSD(f"{name} must be positive definite (min eig {wmin:.3e})")
            if not strict and wmin < -lim:
                raise NotPSD(f"{name} must be PSD (min eig {wmin:.3e})")
        norm2 = float(w @ M @ w)
        if norm2 > 1 + 1e-9:
            raise ValueError(f"w_star outside the constraint ellipsoid: |w|_M^2 = {norm2}")
        Minv_sqrt = psd_inv_sqrt(M)
        s_prime_norm = spectral_norm(Minv_sqrt @ S @ Minv_sqrt)
        if self.c_finite is None:
            object.__setattr__(self, "c_finite", s_prime_norm)
        elif s_prime_norm > self.c_finite + 1e-10 * max(1.0, self.c_finite):
            raise ValueError(
                f"|S'| = {s_prime_norm} exceeds declared c_finite = {self.c_finite}"
            )
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "w_star", w)
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "psi", float(self.psi))
        object.__setattr__(self, "flags", tuple(self.flags))

    @property
    def d(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralTriple:
    """Whitened covariances plus the factors used to build them."""

    S_prime: np.ndarray
    T_prime: np.ndarray
    eig_S_prime: EigenDecomposition
    M_sqrt: np.ndarray
    M_inv_sqrt: np.ndarray

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
        if self.a <= 1:
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

def make_power_law_instance(
    spec: PowerLawSpec,
    seed: int,
    rho: float = 1.0,
    sigma2: float = 1.0,
    noise: str = "gaussian",
    psi: float = 3.0,
    w_profile: str = "spread",
) -> ProblemInstance:
    """Build the canonical synthetic instance for a power-law spec.

    The ground truth is placed deterministically (given seed) on the shell
    |w*|_M = rho. Profile "spread" uses coordinate magnitudes
    ~ m_i^{-1/2} i^{-1/2-0.01} with random signs, spreading mass across the
    whole spectrum. Profile "tail" (requires d0) puts mass only on
    coordinates i >= d0 with magnitudes ~ m_i^{-1/2} i^{-1/2}: nothing the
    learner resolves before the d0-th direction carries risk, so the risk
    curve holds a plateau, and the remaining tail is calibrated so that
    resolving up to direction k leaves Sum_{i>k} t_ii w_i^2 ~ t_kk k — the
    worst-case profile whose post-plateau decay follows the power-law rate.

    Exponent combinations with r <= max(1/a - 2, -s) fall outside the region
    where the tuned method is known to be rate-optimal; the instance is still
    produced, with an "outside_optimal_region" flag.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must be in (0, 1]")
    if w_profile not in ("spread", "tail"):
        raise ValueError(f"unknown w_profile {w_profile!r}")
    if w_profile == "tail" and spec.d0 is None:
        raise ValueError("w_profile='tail' needs d0")
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
    w *= rho / np.sqrt(np.sum(m * w * w))

    flags = ()
    if r <= max(1 / a - 2, -s) + 1e-12:
        flags = ("outside_optimal_region",)
    return ProblemInstance(
        S=np.diag(lam), T=T, M=np.diag(m), w_star=w,
        sigma2=sigma2, psi=psi, noise=noise, flags=flags,
    )


def whiten(inst: ProblemInstance) -> SpectralTriple:
    """Whitened covariances S' = M^{-1/2} S M^{-1/2}, T' likewise."""
    M_sqrt = psd_sqrt(inst.M)
    M_inv_sqrt = psd_inv_sqrt(inst.M)
    S_prime = sym(M_inv_sqrt @ inst.S @ M_inv_sqrt)
    T_prime = sym(M_inv_sqrt @ inst.T @ M_inv_sqrt)
    return SpectralTriple(
        S_prime=S_prime,
        T_prime=T_prime,
        eig_S_prime=eigh(S_prime),
        M_sqrt=M_sqrt,
        M_inv_sqrt=M_inv_sqrt,
    )


def excess_risk(inst: ProblemInstance, w) -> float:
    """Target-domain excess risk (w - w*)' T (w - w*)."""
    diff = np.asarray(w, dtype=float).reshape(-1) - inst.w_star
    return float(diff @ inst.T @ diff)


# =====================================================================
# sampling
# =====================================================================

def sample_source(inst: ProblemInstance, n: int, seed, s_sqrt=None) -> Samples:
    """Draw n i.i.d. source samples x ~ N(0, S), y = x'w* + eps.

    ``seed`` is an int or a ``np.random.Generator``, which is advanced in
    place. Each sample consumes exactly d+1 standard normals from the PCG64
    stream (column d is the noise channel), and rows are transformed in
    SAMPLE_TILE-row products, so drawing one stream in consecutive blocks
    whose lengths are multiples of SAMPLE_TILE (the last may be shorter)
    reproduces one whole draw bit for bit. eps is N(0, sigma2) for gaussian
    noise and sigma * sign(z) for rademacher.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s_sqrt is None:
        s_sqrt = psd_sqrt(inst.S)
    d = inst.d
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, d + 1))
    X = np.empty((n, d))
    y = np.empty(n)
    for a in range(0, n, SAMPLE_TILE):
        X[a : a + SAMPLE_TILE] = Z[a : a + SAMPLE_TILE, :d] @ s_sqrt.T
        y[a : a + SAMPLE_TILE] = X[a : a + SAMPLE_TILE] @ inst.w_star
    sigma = np.sqrt(inst.sigma2)
    if inst.noise == "gaussian":
        eps = sigma * Z[:, d]
    else:  # rademacher
        z = Z[:, d]
        eps = sigma * np.where(z >= 0, 1.0, -1.0)
    return Samples(X=X, y=y + eps)


# =====================================================================
# serialization
# =====================================================================

def instance_to_json(inst: ProblemInstance) -> dict:
    return {
        "d": inst.d,
        "S": inst.S.tolist(),
        "T": inst.T.tolist(),
        "M": inst.M.tolist(),
        "w_star": inst.w_star.tolist(),
        "sigma2": inst.sigma2,
        "psi": inst.psi,
    }


def instance_from_json(doc) -> ProblemInstance:
    if isinstance(doc, str):
        doc = json.loads(doc)
    return ProblemInstance(
        S=np.array(doc["S"], dtype=float),
        T=np.array(doc["T"], dtype=float),
        M=np.array(doc["M"], dtype=float),
        w_star=np.array(doc["w_star"], dtype=float),
        sigma2=float(doc["sigma2"]),
        psi=float(doc.get("psi", 3.0)),
        noise=doc.get("noise", "gaussian"),
    )


def spec_to_json(spec: PowerLawSpec) -> dict:
    return {
        "kind": "powerlaw",
        "d": spec.d,
        "a": spec.a,
        "s": spec.s,
        "r": spec.r,
        "nu": spec.nu,
        "d0": spec.d0,
    }


def spec_from_json(doc) -> PowerLawSpec:
    if isinstance(doc, str):
        doc = json.loads(doc)
    if doc.get("kind") != "powerlaw":
        raise ValueError(f"not a power-law spec: kind={doc.get('kind')!r}")
    return PowerLawSpec(
        d=int(doc["d"]), a=float(doc["a"]), s=float(doc["s"]), r=float(doc["r"]),
        nu=int(doc.get("nu", 0)), d0=None if doc.get("d0") is None else int(doc["d0"]),
    )
