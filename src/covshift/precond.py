"""Optimal preconditioner selection.

The one-shot estimator w_A = (1/n) M^{-1/2} A M^{1/2} S^{-1} sum x_i y_i has
worst-case (over the ellipsoid) excess-risk bound

    bias_coeff * |(I-A)' T' (I-A)|_op  +  noise_coeff * <T', A S'^{-1} A'>

in whitened coordinates. This module minimizes that bound over A:

* ``solve_diagonal`` — exact water-filling closed form when S, T, M are
  simultaneously diagonal: a single scalar threshold tau, found by a
  prefix-sum scan over the breakpoints, determines every diagonal entry of A.
* ``solve_general`` — arbitrary PD S, M and PSD T. Strong duality gives

    min_A obj(A) = sup { <T', (F^{-1} + S'/noise_coeff)^{-1}> :
                         F PSD, trace F <= bias_coeff },

  so the solver maximizes the dual (reusing the lower-bound machinery, which
  solves diagonal programs in closed form), recovers a primal A from the
  dual optimum, and certifies the duality gap, with a Polyak subgradient
  polish to close the last digits. The dual certificate is returned with the
  preconditioner.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import _require_pd, _upper_objective, eval_upper_objective
from .lowerbound import LowerBoundCertificate, MaxIterationsError, _water_level, maximize_F
from .model import SpectralTriple
from .psdlinalg import eigh, sym

__all__ = [
    "PrecondProgram",
    "Preconditioner",
    "DiagonalSolution",
    "MaxIterationsError",
    "solve_diagonal",
    "solve_general",
    "recover_A_from_F",
    "precond_to_json",
]


@dataclass(frozen=True, eq=False)
class PrecondProgram:
    """Objective data: whitened triple plus the two bound coefficients.

    bias_coeff multiplies the operator-norm bias term (1/pi^2 for the
    lower-bound-matching program); noise_coeff multiplies the variance trace
    (sigma2/n, or the inflated finite-sample (2 sigma2 + 2 psi |S'|)/n).
    epsilon_reg = None asks the solver to pick a ridge for singular T'.
    """

    triple: SpectralTriple
    bias_coeff: float
    noise_coeff: float
    epsilon_reg: float | None = None

    def __post_init__(self):
        if not self.bias_coeff > 0:
            raise ValueError("bias_coeff must be positive")
        if self.noise_coeff < 0:
            raise ValueError("noise_coeff must be nonnegative")
        if self.epsilon_reg is not None and self.epsilon_reg < 0:
            raise ValueError("epsilon_reg must be nonnegative")


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """A minimizer A of the program with its objective terms, the
    coefficients they were evaluated at, the relative duality ``gap`` and
    the dual ``certificate`` that gap is measured to."""

    A: np.ndarray
    objective_value: float
    bias_term: float
    variance_term: float
    bias_coeff: float
    noise_coeff: float
    gap: float
    certificate: LowerBoundCertificate


@dataclass(frozen=True, eq=False)
class DiagonalSolution:
    """Water-filling solution: threshold tau, shrinkage factors a (diagonal of
    A), the active coordinate set, and the attained objective value."""

    tau: float
    a: np.ndarray
    active_set: np.ndarray
    value: float


def solve_diagonal(lam, m, t, bias_coeff: float, noise_coeff: float) -> DiagonalSolution:
    """Exact solution when S = diag(lam), M = diag(m), T = diag(t).

    In whitened coordinates the objective of a diagonal A = diag(a) is

        bias_coeff * max_i t_w_i (1 - a_i)^2  +  noise_coeff * sum_i a_i^2 t_i / lam_i

    with t_w_i = t_i / m_i. For a fixed bias level tau^2 the best a is the
    soft shrinkage a_i = max(0, 1 - tau / s_i), s_i = sqrt(t_w_i), so the
    problem reduces to a convex C^1 function of tau,

        g(tau) = b tau^2 + v sum_{s_i > tau} c_i (1 - tau / s_i)^2

    with b = bias_coeff, v = noise_coeff and c_i = t_i / lam_i, whose
    minimizer tau lowerbound._water_level finds with one sort and two prefix
    sums (maximize_F's diagonal optimum uses the same tau).
    """
    lam = np.asarray(lam, dtype=float).reshape(-1)
    m = np.asarray(m, dtype=float).reshape(-1)
    t = np.asarray(t, dtype=float).reshape(-1)
    if not (lam.size == m.size == t.size):
        raise ValueError("lam, m, t must have equal length")
    if np.any(lam <= 0) or np.any(m <= 0):
        raise ValueError("lam and m must be positive")
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    if not bias_coeff > 0:
        raise ValueError("bias_coeff must be positive")
    if noise_coeff < 0:
        raise ValueError("noise_coeff must be nonnegative")

    s = np.sqrt(t / m)
    c = t / lam
    tau = _water_level(s, c, bias_coeff, noise_coeff)

    active = s > tau
    a = np.where(active, 1.0 - tau / np.where(active, s, 1.0), 0.0)
    value = float(bias_coeff * tau**2 + noise_coeff * np.sum(a**2 * c))
    return DiagonalSolution(tau=tau, a=a, active_set=np.flatnonzero(active), value=value)


def recover_A_from_F(triple: SpectralTriple, F, noise_coeff: float) -> np.ndarray:
    """Primal preconditioner induced by a dual variable F:

        A = I - S'^{-1} (I + S' F / noise_coeff)^{-1} S'.

    This is the KKT stationarity map of the duality above; at the dual
    optimum it attains the dual value (zero gap).
    """
    d = triple.d
    I = np.eye(d)
    Sp = triple.S_prime
    inner = np.linalg.solve(I + Sp @ sym(np.asarray(F, dtype=float)) / noise_coeff, Sp)
    return I - np.linalg.solve(Sp, inner)


def _subgradient(T_eff, A, Sp, bias_coeff, noise_coeff):
    d = A.shape[0]
    R = np.eye(d) - A
    B = sym(R.T @ T_eff @ R)
    dec = eigh(B)
    u = dec.eigenvectors[:, 0]
    Tu = T_eff @ (R @ u)
    g_bias = -2.0 * bias_coeff * np.outer(Tu, u)
    g_noise = 2.0 * noise_coeff * (T_eff @ np.linalg.solve(Sp, A.T).T)
    return g_bias + g_noise


def _target_scale(T_prime) -> tuple[float, bool]:
    """(|T'|_op, singular): T' counts as singular when its smallest
    eigenvalue is below 1e-10 |T'|_op."""
    t_eigs = np.linalg.eigvalsh(sym(T_prime))
    t_norm = float(np.max(np.abs(t_eigs)))
    return t_norm, float(t_eigs.min()) < 1e-10 * t_norm


def _preconditioner(prog, A, val, gap, cert) -> Preconditioner:
    """Package A, its ObjectiveValue ``val`` and its certificate."""
    return Preconditioner(
        A=A,
        objective_value=val.objective,
        bias_term=val.bias_term,
        variance_term=val.variance_term,
        bias_coeff=prog.bias_coeff,
        noise_coeff=prog.noise_coeff,
        gap=gap,
        certificate=cert,
    )


def solve_general(
    prog: PrecondProgram,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    dual_max_iter: int = 5000,
) -> Preconditioner:
    """Minimize the preconditioner objective for arbitrary PD S', PSD T'.

    Pipeline: the dual solve of maximize_F for a certified floor, primal
    recovery from the dual optimum, a closed-form warm start when S' and T'
    commute, then Polyak-stepped subgradient descent until the relative
    duality gap is below ``tol``. The returned preconditioner carries that
    floor as ``certificate`` (the exact zero floor for the degenerate
    programs T' = 0 and noise_coeff = 0), so callers read the dual value
    instead of solving the dual again. Raises MaxIterationsError (carrying
    the best preconditioner, with its certificate, and its gap) if the
    budget runs out first.

    Singular T' is ridged to T' + eps I with eps = epsilon_reg, defaulting
    to 1e-8 |T'|_op; the reported objective is for the ridged program.
    """
    triple = prog.triple
    d = triple.d
    I = np.eye(d)
    t_norm, singular = _target_scale(triple.T_prime)

    # -------- degenerate programs: A = 0 (T' = 0) or I (no noise) meets the zero floor
    if t_norm == 0.0 or prog.noise_coeff == 0.0:
        A = np.zeros((d, d)) if t_norm == 0.0 else I
        val = eval_upper_objective(triple, A, prog.noise_coeff, prog.bias_coeff)
        return _preconditioner(prog, A, val, 0.0, LowerBoundCertificate.zero_floor(d))

    eps = prog.epsilon_reg
    if eps is None:
        eps = 1e-8 * t_norm if singular else 0.0
    triple_eff = triple.ridged(eps)
    T_eff = triple_eff.T_prime

    # -------- certified dual floor --------
    try:
        cert = maximize_F(
            triple_eff,
            sigma2=prog.noise_coeff,
            n=1,
            radius=prog.bias_coeff,
            max_iter=dual_max_iter,
        )
    except MaxIterationsError as err:  # keep the best floor we got
        cert = err.best
    lower = cert.value
    Sp = triple_eff.S_prime
    _require_pd(Sp)  # S' is fixed for the whole solve: check it once

    def objective(A):
        return _upper_objective(triple_eff, A, prog.noise_coeff, prog.bias_coeff)

    # -------- primal candidates --------
    candidates = [recover_A_from_F(triple_eff, cert.F, prog.noise_coeff)]
    comm = np.linalg.norm(Sp @ T_eff - T_eff @ Sp)
    scale = np.linalg.norm(Sp) * np.linalg.norm(T_eff)
    if comm <= 1e-10 * max(scale, 1.0):
        # simultaneously diagonalizable: rotate to S' eigenbasis, already
        # whitened there (m = 1), and reuse the exact water-filling solution
        dec = eigh(Sp)
        U, lam_w = dec.eigenvectors, dec.eigenvalues
        t_diag = np.maximum(np.einsum("ij,jk,ki->i", U.T, T_eff, U), 0.0)
        diag = solve_diagonal(
            lam_w, np.ones(d), t_diag, prog.bias_coeff, prog.noise_coeff
        )
        candidates.append(sym(U @ (diag.a[:, None] * U.T)))
    candidates.extend([np.zeros((d, d)), I])

    scored = [(objective(A).objective, float(np.linalg.norm(A)), A) for A in candidates]
    scored.sort(key=lambda item: (item[0], item[1]))
    best_val, _, best_A = scored[0]

    def rel_gap(val):
        return (val - lower) / max(lower, 1e-300)

    # -------- Polyak subgradient polish toward the certified floor --------
    A = best_A.copy()
    val = best_val
    it = 0
    while rel_gap(best_val) > tol and it < max_iter:
        it += 1
        G = _subgradient(T_eff, A, Sp, prog.bias_coeff, prog.noise_coeff)
        g2 = float(np.sum(G * G))
        if g2 == 0.0:
            break
        step = (val - lower) / g2
        if step <= 0:
            break
        A = A - step * G
        val = objective(A).objective
        if val < best_val or (
            val == best_val and np.linalg.norm(A) < np.linalg.norm(best_A)
        ):
            best_val, best_A = val, A.copy()

    gap = rel_gap(best_val)
    prec = _preconditioner(prog, best_A, objective(best_A), float(max(gap, 0.0)), cert)
    if gap > tol:
        raise MaxIterationsError(
            f"duality gap {gap:.3e} above tol {tol:.1e} after {it} polish steps",
            best=prec,
            gap=float(gap),
        )
    return prec


def precond_to_json(prec: Preconditioner) -> dict:
    return {
        "A": prec.A.tolist(),
        "objective": prec.objective_value,
        "bias_term": prec.bias_term,
        "variance_term": prec.variance_term,
        "bias_coeff": prec.bias_coeff,
        "noise_coeff": prec.noise_coeff,
        "gap": prec.gap,
    }
