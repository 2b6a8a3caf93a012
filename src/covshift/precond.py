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
  solves diagonal programs in closed form), recovers the primal A from the
  dual optimum through the KKT map, and reports the signed relative duality
  gap with the dual certificate; the caller judges it. A singular T' is
  solved as given; a caller that wants a ridged target passes
  ``triple.ridged(eps)`` (the duality study's ladder).
* ``solve_stack`` — solve_general on a list of programs, their duals
  maximized in one lockstep stack; each result has the bits of its own
  solve_general.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import _require_pd, _upper_objective, eval_upper_objective
from .lowerbound import LowerBoundCertificate, _maximize_stack, _water_level, maximize_F
from .model import SpectralTriple
from .psdlinalg import eigh, sym

__all__ = [
    "PrecondProgram",
    "Preconditioner",
    "DiagonalSolution",
    "solve_diagonal",
    "solve_general",
    "solve_stack",
    "recover_A_from_F",
    "precond_to_json",
]


@dataclass(frozen=True, eq=False)
class PrecondProgram:
    """The program as solved: whitened triple plus the two bound coefficients.

    bias_coeff multiplies the operator-norm bias term (1/pi^2 for the
    lower-bound-matching program); noise_coeff multiplies the variance trace
    (sigma2/n, or the inflated finite-sample (2 sigma2 + 6 |S'|)/n of the
    Gaussian design, whose fourth-moment constant psi is 3). A singular T'
    is not ridged.
    """

    triple: SpectralTriple
    bias_coeff: float
    noise_coeff: float

    def __post_init__(self):
        if not self.bias_coeff > 0:
            raise ValueError("bias_coeff must be positive")
        if self.noise_coeff < 0:
            raise ValueError("noise_coeff must be nonnegative")


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """A minimizer A of the program with its objective terms, the
    coefficients they were evaluated at, the dual ``certificate`` and the
    relative duality ``gap`` (objective - floor) / floor to its value. The
    gap is signed: rounding can put the objective a few ulps below the
    floor, and a reader judges abs(gap)."""

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
    """Water-filling solution: the shrinkage factors a (the diagonal of A,
    zero off the active set) and the attained objective value."""

    a: np.ndarray
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
    return DiagonalSolution(a=a, value=value)


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


def solve_general(prog: PrecondProgram) -> Preconditioner:
    """Minimize the preconditioner objective for arbitrary PD S', PSD T'.

    Pipeline: the dual solve of maximize_F for a certified floor, primal
    recovery from the dual optimum, and the water-filling closed form as a
    second candidate when S' and T' commute. The candidate with the smaller
    objective (then the smaller norm) is returned with that floor as its
    ``certificate`` (the exact zero floor for the degenerate programs T' = 0
    and noise_coeff = 0), so callers read the dual value instead of solving
    the dual again. Nothing is raised for a large gap: the result reports
    its signed relative ``gap`` (and the certificate its stop reason, a
    "budget" one included), for the caller to judge. The program is solved
    as given, a singular T' included.
    """
    prec = _degenerate(prog)
    if prec is None:
        cert = maximize_F(prog.triple, prog.noise_coeff, 1, radius=prog.bias_coeff)
        prec = _from_floor(prog, cert)
    return prec


def solve_stack(progs) -> list[Preconditioner]:
    """solve_general on each program of ``progs``, the preconditioners in
    order, with every dual maximized in one lockstep stack
    (lowerbound._maximize_stack). Each preconditioner and certificate has
    the bits of its own solve_general, whatever the grouping or order of
    the list: each result's ``gap`` is signed, and a dual whose budget
    (lowerbound.MAX_ITER) ran out gives its "budget" certificate as the
    floor.
    """
    results = [_degenerate(prog) for prog in progs]  # None until solved
    duals = [k for k, r in enumerate(results) if r is None]
    certs = _maximize_stack(
        [(progs[k].triple, progs[k].noise_coeff, progs[k].bias_coeff) for k in duals]
    )
    for k, cert in zip(duals, certs):
        results[k] = _from_floor(progs[k], cert)
    return results


def _degenerate(prog: PrecondProgram) -> Preconditioner | None:
    """The finished Preconditioner of a degenerate program, T' = 0 or no
    noise, where A = 0 or I meets the zero floor; None for any other."""
    triple = prog.triple
    d = triple.d
    zero_target = not triple.T_prime.any()
    if not (zero_target or prog.noise_coeff == 0.0):
        return None
    A = np.zeros((d, d)) if zero_target else np.eye(d)
    val = eval_upper_objective(triple, A, prog.noise_coeff, prog.bias_coeff)
    return _preconditioner(prog, A, val, 0.0, LowerBoundCertificate.zero_floor(d))


def _from_floor(prog: PrecondProgram, cert) -> Preconditioner:
    """The preconditioner of ``prog`` recovered from its dual certificate
    ``cert``, with its signed relative duality gap."""
    triple = prog.triple
    d = triple.d
    T_prime = triple.T_prime
    Sp = triple.S_prime
    _require_pd(Sp)  # S' is fixed for the whole solve: check it once

    # -------- primal candidates --------
    candidates = [recover_A_from_F(triple, cert.F, prog.noise_coeff)]
    comm = np.linalg.norm(Sp @ T_prime - T_prime @ Sp)
    scale = np.linalg.norm(Sp) * np.linalg.norm(T_prime)
    if comm <= 1e-10 * max(scale, 1.0):
        # simultaneously diagonalizable: rotate to S' eigenbasis, already
        # whitened there (m = 1), and reuse the exact water-filling solution
        dec = eigh(Sp)
        U, lam_w = dec.eigenvectors, dec.eigenvalues
        t_diag = np.maximum(np.einsum("ij,jk,ki->i", U.T, T_prime, U), 0.0)
        diag = solve_diagonal(
            lam_w, np.ones(d), t_diag, prog.bias_coeff, prog.noise_coeff
        )
        candidates.append(sym(U @ (diag.a[:, None] * U.T)))

    # each candidate scored once; ties go to the smaller norm, then list order
    val, A = min(
        ((_upper_objective(triple, C, prog.noise_coeff, prog.bias_coeff), C)
         for C in candidates),
        key=lambda item: (item[0].objective, float(np.linalg.norm(item[1]))),
    )
    gap = (val.objective - cert.value) / max(cert.value, 1e-300)
    return _preconditioner(prog, A, val, float(gap), cert)


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
