"""Exact per-eigendirection dynamics for the staged accelerated SGD.

In the eigenbasis of S, the method's population dynamics decouple into
independent 2-state linear systems: with h = (w - w*, u - w*) components
along eigendirection i, one step in a stage with steps (delta, gamma) maps

    h <- A(lambda_i) h,   A(lambda) = [[0, 1 - delta*lambda],
                                       [-c, 1 + c - q*lambda]]

where c = alpha(1-beta) and q = alpha*delta + (1-alpha)*gamma with the
config's alpha = 1/(1+beta), so (q - c*delta)/(1 - c) = (gamma+delta)/2.
This module implements that matrix family (eigenvalues and regimes), the
closed-form per-stage stationary second-moment matrices U and Q of the
driven recursion, and the semi-stochastic risk oracle ``semi_stochastic``:
one pass over the stages returns the exact bias of the noiseless dynamics
and the exact variance of the noise-driven 2x2 second-moment recursion,
whose sum predicts the algorithm's risk without Monte Carlo.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asgd import ASGDConfig, effective_dimension
from .model import ProblemInstance

__all__ = [
    "StationaryPair",
    "DivergentStationaryState",
    "eig_pair_pm",
    "spectral_radius",
    "lambda_dagger",
    "lambda_ddagger",
    "stationary_U",
    "SemiStochastic",
    "semi_stochastic",
    "semi_stochastic_variance_bound",
]


class DivergentStationaryState(ArithmeticError):
    """The driven 2x2 recursion has no finite stationary point (U22*lambda >= 1)."""


def eig_pair_pm(c, q, delta, lam):
    """Eigenvalues of A(lambda) in the minus/plus-branch convention,
    vectorized, as complex arrays: x_{1,2} = (tr -+ sqrt(tr^2 - 4 det))/2
    with tr = 1+c-q*lam and det = c(1-delta*lam)."""
    tr = np.asarray(1.0 + c - q * lam, dtype=complex)
    det = np.asarray(c * (1.0 - delta * lam), dtype=complex)
    root = np.sqrt(tr * tr - 4.0 * det)
    return (tr - root) / 2.0, (tr + root) / 2.0


def spectral_radius(c, q, delta, lam):
    x1, x2 = eig_pair_pm(c, q, delta, lam)
    return np.maximum(np.abs(x1), np.abs(x2))


def _check_breakpoint_args(c, q, delta):
    if np.any(q <= c * delta) or np.any(q < delta):
        raise ValueError("need q > c*delta and q >= delta")


def lambda_dagger(c, q, delta):
    """Lower regime breakpoint (1-c)^2/(sqrt(q-c*delta)+sqrt(c(q-delta)))^2,
    vectorized."""
    _check_breakpoint_args(c, q, delta)
    return (1.0 - c) ** 2 / (np.sqrt(q - c * delta) + np.sqrt(c * (q - delta))) ** 2


def lambda_ddagger(c, q, delta):
    """Upper regime breakpoint (1-c)^2/(sqrt(q-c*delta)-sqrt(c(q-delta)))^2,
    vectorized; +inf where the two square roots coincide (c = 1)."""
    _check_breakpoint_args(c, q, delta)
    denom = np.sqrt(q - c * delta) - np.sqrt(c * (q - delta))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, (1.0 - c) ** 2 / denom**2, np.inf)[()]


@dataclass(frozen=True, eq=False)
class StationaryPair:
    """Stationary second-moment matrices of the one-direction recursion
    driven by unit-variance noise entering as -(delta, q) per step:
    U solves U = A U A' - G U G' + N with N = lam [[d^2, dq],[dq, q^2]],
    G = [[0, d*lam],[0, q*lam]]; Q = sum_k A^k N A'^k = U/(1 - U22 lam)."""

    U: np.ndarray
    Q: np.ndarray


def stationary_U(lam: float, c: float, q: float, delta: float) -> StationaryPair:
    """Closed-form stationary matrices. Denominator
    D = 2(1 - c^2 + c lam (q + c delta)) must be positive; the geometric
    series behind Q additionally needs U22 * lam < 1, else the recursion is
    divergent at this eigenvalue and DivergentStationaryState is raised."""
    D = 2.0 * (1.0 - c * c + c * lam * (q + c * delta))
    if D <= 0:
        raise ValueError("stationary denominator not positive; recursion unstable")
    U22 = delta / 2.0 + (1.0 + c) * (q - delta) / D
    U11 = (1.0 - 2.0 * delta * lam) * U22 + delta * delta * lam
    U12 = (
        (1.0 + c - lam * (q + c * delta)) * (q - c * delta)
        + delta * lam * (q + c * delta)
    ) / D
    if U22 * lam >= 1.0:
        raise DivergentStationaryState(
            f"U22*lambda = {U22 * lam:.6f} >= 1; no finite stationary state"
        )
    U = np.array([[U11, U12], [U12, U22]])
    return StationaryPair(U=U, Q=U / (1.0 - U22 * lam))


# =====================================================================
# semi-stochastic risk oracle
# =====================================================================

@dataclass(frozen=True, eq=False)
class SemiStochastic:
    """One half of ``semi_stochastic``: per_direction holds each direction's
    diagonal contribution t_ii * (component)^2; total adds the cross terms
    of a T dense in S's eigenbasis (bias only; the variance recursion is
    exactly block-diagonal, so its total is the plain sum)."""

    per_direction: np.ndarray
    total: float


def semi_stochastic(inst: ProblemInstance,
                    cfg: ASGDConfig) -> tuple[SemiStochastic, SemiStochastic]:
    """Exact (bias, variance) after the full schedule, per direction of S's
    eigenbasis, from one pass over the stages. Each step multiplies
    h = (w - w*, u - w*), from (-w*_i, -w*_i), by the stage matrix
    A(lambda_i): the bias, which matches a full-gradient run to rounding
    error. It also maps the 2x2 second moment C, from C = 0, to
    A C A' + sigma2 lam [[d^2, dq],[dq, q^2]]: the variance, t_ii * C11 per
    direction, block-diagonal, so its total is the sum even for dense T."""
    lam, V = inst.eig_S.eigenvalues, inst.eig_S.eigenvectors
    h1 = -(V.T @ inst.w_star)  # w - w* components
    h2 = h1.copy()  # u - w* components
    C11, C12, C22 = np.zeros((3, lam.size))
    c = cfg.c
    for ell in range(1, cfg.stages + 1):
        delta, _, q = cfg.stage_steps(ell)
        b = 1.0 - delta * lam          # A[0,1]
        e = 1.0 + c - q * lam          # A[1,1]
        n11 = inst.sigma2 * lam * delta * delta
        n12 = inst.sigma2 * lam * delta * q
        n22 = inst.sigma2 * lam * q * q
        # per-stage coefficient products, grouped as the step's left-to-right
        # evaluation grouped them, so hoisting them changes no bit
        bb, cb, eb = b * b, -c * b, e * b
        cc, ce, ee = c * c, 2.0 * c * e, e * e
        for _ in range(cfg.stage_len):
            h1, h2 = b * h2, -c * h1 + e * h2
            C11, C12, C22 = (
                bb * C22 + n11,
                cb * C12 + eb * C22 + n12,
                cc * C11 - ce * C12 + ee * C22 + n22,
            )
    t_diag = np.diag(inst.T_tilde)
    variance = t_diag * C11
    return (SemiStochastic(t_diag * h1**2, float(h1 @ inst.T_tilde @ h1)),
            SemiStochastic(variance, float(variance.sum())))


def semi_stochastic_variance_bound(inst: ProblemInstance, cfg: ASGDConfig) -> float:
    """Closed-form cap on the semi-stochastic variance total:

        sigma2 [ sum_{i<=k*} t_ii/(2 K lambda_i)
                 + (128/15) K ((gamma + delta)/2)^2 sum_{i>k*} lambda_i t_ii ],

    where (gamma + delta)/2 = (q - c delta)/(1 - c) without dividing by 1 - c.
    """
    lam = inst.eig_S.eigenvalues
    t_diag = np.maximum(np.diag(inst.T_tilde), 0.0)
    K = cfg.stage_len
    k_star = effective_dimension(cfg, lam)
    head = np.arange(lam.size) < k_star
    ratio = (cfg.gamma0 + cfg.delta0) / 2.0
    return inst.sigma2 * (
        float(np.sum(t_diag[head] / (2.0 * K * lam[head])))
        + (128.0 / 15.0) * K * ratio**2 * float(np.sum(lam[~head] * t_diag[~head]))
    )
