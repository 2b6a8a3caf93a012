"""Information-theoretic lower bound for covariate-shifted linear regression.

The minimax target excess risk over the ellipsoid w'Mw <= 1 is bounded below
by the Bayesian Cramer-Rao (van Trees) construction: for any PSD matrix F
with trace at most 1/pi^2,

    value(F) = < T' , (F^{-1} + (n/sigma2) S')^{-1} >

is an achievable risk floor, realized by a product prior of cos^2 densities
on a box inscribed in the ellipsoid. This module evaluates the objective in
one form, a linear solve that is defined for singular F too, maximizes it
(in closed form by water-filling when S' and T' are exactly diagonal, else
by an accelerated proximal ascent) with a linear-gap stopping certificate,
and implements the matching prior family (sampler + information matrix).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SpectralTriple, _is_diagonal
from .psdlinalg import eigh, project_psd_nuclear_ball, psd_roots, sym

__all__ = [
    "DEFAULT_RADIUS",
    "LowerBoundCertificate",
    "CosSquaredPrior",
    "DegeneratePrior",
    "MaxIterationsError",
    "eval_lower_objective",
    "maximize_F",
    "prior_information_matrix",
    "sample_prior",
    "prior_from_certificate",
]

DEFAULT_RADIUS = 1.0 / math.pi**2

GAP_TOL = 1e-12
"""maximize_F stops once its linear optimality gap is at most
GAP_TOL * max(1, value); in practice the stall rule usually stops it first."""

STALL_TOL = 1e-17
"""maximize_F counts a round as stalled unless it ascends by more than
STALL_TOL * max(1, value); three stalled rounds in a row stop it (the
numerical floor of the objective, below the rounding of its evaluation)."""

MIN_PRIOR_WIDTH = 1e-8
"""prior_from_certificate collapses cos^2 widths below this to point masses."""


class DegeneratePrior(ValueError):
    """Prior has a zero-width coordinate; its information diverges."""


class MaxIterationsError(RuntimeError):
    """A solver stopped short of its tolerance (an iteration budget ran out,
    or a duality gap exceeds tol); carries the best iterate found (``best``)
    and, where meaningful, the residual ``gap``."""

    def __init__(self, message, best=None, gap=None):
        super().__init__(message)
        self.best = best
        self.gap = gap


@dataclass(frozen=True, eq=False)
class LowerBoundCertificate:
    """Feasible dual variable F with its objective value and solver telemetry.

    ``gap`` is the linear optimality gap at F (an upper bound on how far
    ``value`` is below the maximum) and ``stop_reason`` says why the solver
    stopped: "converged" (gap within GAP_TOL), "stalled" (three rounds
    without measurable ascent) or "budget" (iterations ran out; only on
    ``MaxIterationsError.best``).
    """

    F: np.ndarray
    value: float
    iterations: int
    gap: float
    stop_reason: str

    @classmethod
    def zero_floor(cls, d: int) -> "LowerBoundCertificate":
        """The exact floor F = 0, value 0 of a program with nothing to bound."""
        return cls(F=np.zeros((d, d)), value=0.0, iterations=0, gap=0.0,
                   stop_reason="converged")


def eval_lower_objective(triple: SpectralTriple, F, sigma2: float, n: int) -> float:
    """Risk-floor objective at F, computed as <T', G> with

        G = (I + F S' / nu)^{-1} F,   nu = sigma2 / n,

    which equals the resolvent form (F^{-1} + S'/nu)^{-1} whenever F is
    invertible and is defined for every PSD F, singular ones included
    (I + F S'/nu has the eigenvalues of I + F^{1/2} S' F^{1/2}/nu). It is
    also defined at the slightly indefinite points FISTA extrapolates to.
    """
    if sigma2 == 0:
        return 0.0
    F = np.asarray(F, dtype=float)
    return _floor_value(triple.T_prime, triple.S_prime, F, sigma2 / n, np.eye(len(F)))


def _floor_value(Tp, Sp, F, nu: float, I) -> float:
    """eval_lower_objective's formula on its parts, I = eye(d); FISTA's
    evaluations call it with maximize_F's own nu and I."""
    return float(np.sum(Tp * np.linalg.solve(I + F @ Sp / nu, F)))


def _water_level(s, c, bias_coeff: float, noise_coeff: float) -> float:
    """Minimizer tau >= 0 of the convex C^1 function

        g(tau) = b tau^2 + v sum_{s_i > tau} c_i (1 - tau / s_i)^2

    (b = bias_coeff, v = noise_coeff, s, c >= 0). Between consecutive
    breakpoints s_i, g is a quadratic whose stationary point over the top-k
    active set is

        tau_k = v sum c_i/s_i / (b + v sum c_i/s_i^2),

    and the minimizer is the first tau_k (scanning from the largest s) that
    lies at or above the next breakpoint: one sort and two prefix sums.
    """
    live = s > 0
    if noise_coeff == 0 or not live.any():
        return 0.0
    order = np.argsort(-s[live], kind="stable")
    s_desc, c_desc = s[live][order], c[live][order]
    tau_k = (noise_coeff * np.cumsum(c_desc / s_desc)) / (
        bias_coeff + noise_coeff * np.cumsum(c_desc / s_desc**2)
    )
    # tau_K >= 0 always holds, so the scan stops by the last interval
    k = int(np.argmax(tau_k >= np.append(s_desc[1:], 0.0)))
    return float(tau_k[k])


def _water_filled(lam, t, nu: float, radius: float):
    """Diagonal of the optimal F of the separable program

        max sum_i t_i f_i nu / (nu + lam_i f_i)  over  f >= 0, sum f <= radius,

    f_i = (nu / lam_i)(s_i / tau - 1)_+ with s = sqrt(t) and tau the water
    level of the primal program with (bias_coeff, noise_coeff) = (radius, nu);
    None when no coordinate lies above it.

    On the active set f is affine in 1/tau. Where s_i is close to tau and
    nu / lam_i is large, one ulp of tau moves f_i far more than its rounding
    (up to 1e-8 of the trace at lam_i = 1e-8), so 1/tau takes one more step
    along that line that puts the trace back at radius.
    """
    s = np.sqrt(t)
    tau = _water_level(s, t / lam, radius, nu)
    live = s > tau
    if not live.any():
        return None
    f = np.where(live, (nu / lam) * ((s - tau) / tau), 0.0)
    slope = np.where(live, s / lam, 0.0)  # d f / d(1/tau), over nu
    return np.maximum(f - (f.sum() - radius) * (slope / slope.sum()), 0.0)


def maximize_F(
    triple: SpectralTriple,
    sigma2: float,
    n: int,
    radius: float = DEFAULT_RADIUS,
    max_iter: int = 5000,
) -> LowerBoundCertificate:
    """Maximize the risk-floor objective over {F PSD, trace F <= radius}.

    When S' and T' are both exactly diagonal (every off-diagonal entry zero,
    no tolerance), the program separates into scalar ones with the
    water-filling optimum

        F = diag((nu / lam_i) (sqrt(t_i) / tau - 1)_+),

    lam_i and t_i the diagonals of S' and T', tau the water level of the
    primal program with (bias_coeff, noise_coeff) = (radius, nu), the one
    precond.solve_diagonal finds (see _water_filled). Its certificate is
    measured as below and reports one iteration; if that gap misses the
    tolerance, or T' has no positive entry, the general method runs instead.

    Otherwise: accelerated projected gradient ascent (FISTA with adaptive
    restart and backtracked curvature estimate). The objective is concave and
    smooth on the feasible set; its gradient at F is

        H T' H'   with   H = (I + S' F / nu)^{-1},  nu = sigma2 / n,

    which is well defined even for singular F. Stops once the linear
    optimality gap

        max_{G feasible} <grad, G - F>  =  radius * lam_max(grad) - <grad, F>

    certifies that the objective is within ``GAP_TOL * max(1, value)`` of its
    maximum (the gap upper-bounds the suboptimality of a concave objective).
    Raises MaxIterationsError carrying the best certificate if the budget
    runs out first; any returned value is a valid lower bound either way.
    """
    d = triple.d
    if sigma2 == 0:
        return LowerBoundCertificate.zero_floor(d)
    if not radius > 0:
        raise ValueError("radius must be positive")
    nu = sigma2 / n
    I = np.eye(d)
    Sp, Tp = triple.S_prime, triple.T_prime

    def gradient(F):
        H = np.linalg.solve(I + Sp @ F / nu, I)
        return sym(H @ Tp @ H.T)

    def linear_gap(F, grad):
        return radius * float(np.linalg.eigvalsh(grad)[-1]) - float(np.sum(grad * F))

    if _is_diagonal(Sp) and _is_diagonal(Tp):
        f = _water_filled(np.diag(Sp), np.maximum(np.diag(Tp), 0.0), nu, radius)
        if f is not None:
            F = np.diag(f)
            gap = linear_gap(F, gradient(F))
            value = eval_lower_objective(triple, F, sigma2, n)
            if gap <= GAP_TOL * max(1.0, abs(value)):
                return LowerBoundCertificate(F=F, value=value, iterations=1,
                                             gap=gap, stop_reason="converged")

    F = (radius / d) * I
    val = _floor_value(Tp, Sp, F, nu, I)
    F_prev = F
    t_mom = 1.0
    momentum = False
    L = max(1.0, float(np.linalg.norm(Tp)))
    stall = 0
    gap = math.inf
    gap_at = None  # the iterate gap was measured at
    it = 0
    for it in range(1, max_iter + 1):
        if gap_at is not F:  # a restart or a stall that kept F keeps its grad
            grad = gradient(F)
            gap, gap_at = linear_gap(F, grad), F
        if gap <= GAP_TOL * max(1.0, abs(val)):
            break
        if momentum:
            beta = (t_mom - 1.0) / (0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom**2)))
            Y = F + beta * (F - F_prev)
            try:
                gY, fY = gradient(Y), _floor_value(Tp, Sp, Y, nu, I)
            except np.linalg.LinAlgError:
                momentum, t_mom, Y, gY, fY = False, 1.0, F, grad, val
        else:
            Y, gY, fY = F, grad, val
        accepted = False
        for _ in range(120):
            F_cand = project_psd_nuclear_ball(Y + gY / L, radius)
            diff = F_cand - Y
            val_cand = _floor_value(Tp, Sp, F_cand, nu, I)
            majorized = (
                fY
                + float(np.sum(gY * diff))
                - 0.5 * L * float(np.sum(diff * diff))
                - 1e-15 * max(1.0, abs(fY))
            )
            if val_cand >= majorized:
                accepted = True
                break
            L *= 2.0
        if momentum and (not accepted or val_cand < val):
            # extrapolation overshot: restart the momentum sequence
            momentum, t_mom = False, 1.0
            continue
        if not accepted or val_cand <= val + STALL_TOL * max(1.0, abs(val)):
            stall += 1
            momentum, t_mom = False, 1.0
            if accepted and val_cand > val:
                F_prev, F, val = F, F_cand, val_cand
            if stall >= 3:
                break  # numerical floor: no measurable ascent remains
            continue
        stall = 0
        F_prev, F, val = F, F_cand, val_cand
        t_mom = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom**2))
        momentum = True
        L *= 0.7  # probe a longer step next round; backtracking re-grows it
    if gap_at is not F:  # the last stall or the last budgeted step moved F
        gap = linear_gap(F, gradient(F))
    if gap <= GAP_TOL * max(1.0, abs(val)):  # val is the objective at F
        reason = "converged"
    elif stall >= 3:
        reason = "stalled"
    else:
        reason = "budget"
    cert = LowerBoundCertificate(F=F, value=val, iterations=it, gap=gap,
                                 stop_reason=reason)
    if reason == "budget":
        raise MaxIterationsError(
            f"optimality gap {gap:.3e} after {max_iter} iterations",
            best=cert,
            gap=gap,
        )
    return cert


# =====================================================================
# the matching prior family: products of cos^2 bumps on an inscribed box
# =====================================================================

@dataclass(frozen=True, eq=False)
class CosSquaredPrior:
    """Product prior on w = M^{-1/2} U z where each z_i has density
    cos^2(pi z / (2 g_i)) / g_i on [-g_i, g_i]. With |g|_2 <= 1 the support
    lies inside the constraint ellipsoid. g_i = 0 marks a collapsed
    (point-mass) coordinate."""

    U: np.ndarray
    g: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        g = np.asarray(self.g, dtype=float).reshape(-1)
        d = g.size
        if U.shape != (d, d):
            raise ValueError("U must be d x d with d = len(g)")
        if np.linalg.norm(U.T @ U - np.eye(d)) > 1e-10:
            raise ValueError("U must be orthogonal")
        if np.any(g < 0) or np.any(g > 1 + 1e-12):
            raise ValueError("g entries must lie in [0, 1]")
        if np.linalg.norm(g) > 1 + 1e-12:
            raise ValueError("|g|_2 must be <= 1 so the support fits the ellipsoid")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "M", sym(self.M))

    @property
    def d(self) -> int:
        return self.g.size


def prior_information_matrix(prior: CosSquaredPrior) -> np.ndarray:
    """Closed-form prior information: pi^2 M^{1/2} U diag(1/g_i^2) U' M^{1/2}."""
    if np.any(prior.g == 0):
        raise DegeneratePrior("prior has a zero-width coordinate")
    m_sqrt = psd_roots(prior.M)[0]
    core = (prior.U / prior.g**2) @ prior.U.T
    return math.pi**2 * sym(m_sqrt @ core @ m_sqrt)


_TAIL_EXACT = 3e-3
"""Tail depth e below which the quantile's series start is already exact to
rounding (relative error 0.07 e^4) and a Newton step would only add the
cancellation of e - sin(pi e)/pi, which is about 4.5e-17 / e in e."""


def _cos2_quantile(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Quantiles z in [-g, g] of the density cos^2(pi z/(2g))/g at levels u.

    With m = min(u, 1 - u) and e in [0, 1] the depth of z from its nearer
    end in units of g, the tail mass is h(e) = e/2 - sin(pi e)/(2 pi) = m.
    h is convex on [0, 1] and h(e) = pi^2 e^3/12 (1 - pi^2 e^2/20 + ...),
    so the start e = c (1 + pi^2 c^2/60), c = (12 m/pi^2)^(1/3), inverts
    the series to relative error 0.07 e^4; four Newton steps with
    h'(e) = (1 - cos pi e)/2 finish it where e > _TAIL_EXACT. Then
    z = g(e - 1) for u <= 1/2 and -g(e - 1) otherwise, so z(u) = -z(1 - u)
    exactly whenever 1 - (1 - u) = u. Works in place on four buffers of
    u's shape.
    """
    m2 = np.subtract(1.0, u)
    np.minimum(u, m2, out=m2)
    m2 *= 2.0  # 2h(e) = e - sin(pi e)/pi = 2m
    e = np.multiply(m2, 6.0 / math.pi**2)
    np.cbrt(e, out=e)
    a = np.multiply(e, e)
    a *= math.pi**2 / 60.0
    a += 1.0
    e *= a
    deep = e > _TAIL_EXACT
    r = np.empty_like(e)
    for _ in range(4):
        np.multiply(e, math.pi, out=a)
        np.sin(a, out=r)
        np.cos(a, out=a)
        r /= -math.pi
        r += e
        r -= m2  # 2(h(e) - m)
        np.subtract(1.0, a, out=a)  # 2h'(e)
        np.divide(r, a, out=r, where=deep)
        np.subtract(e, r, out=e, where=deep)
    np.clip(e, 0.0, 1.0, out=e)
    e -= 1.0
    e *= g
    np.negative(e, out=e, where=u > 0.5)
    return e


def sample_prior(prior: CosSquaredPrior, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws, shape (n, d). Inverse-CDF per coordinate: uniform
    levels through _cos2_quantile, a Newton solve of the closed-form CDF
    t/(2g) + 1/2 + sin(pi t/g)/(2 pi) from a series start; coordinates
    with g = 0 are exactly zero. Every draw satisfies |w|_M <= 1."""
    rng = np.random.default_rng(seed)
    g = prior.g
    live = g > 0
    z = np.zeros((n, prior.d))
    if live.any():
        z[:, live] = _cos2_quantile(rng.random((n, live.sum())), g[live])
    m_inv_sqrt = psd_roots(prior.M)[1]
    return z @ prior.U.T @ m_inv_sqrt.T


def prior_from_certificate(F, M) -> CosSquaredPrior:
    """Map a feasible dual variable F to the prior whose information matrix
    matches it: U = eigenvectors of F, g_i = pi sqrt(eig_i(F)), clamped into
    [0, 1], with widths below MIN_PRIOR_WIDTH collapsed to point masses."""
    dec = eigh(F)
    g = math.pi * np.sqrt(np.maximum(dec.eigenvalues, 0.0))
    g = np.minimum(g, 1.0)
    g[g < MIN_PRIOR_WIDTH] = 0.0
    return CosSquaredPrior(U=dec.eigenvectors, g=g, M=M)
