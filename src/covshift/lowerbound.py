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

The ascent is one FISTA loop, written for one program (``_fista``) and run
in lockstep (``_lockstep``) over any number of programs: each
round serves one operation, for all the programs that ask for it, with one
LAPACK call on the stack of their matrices, and every program gets the
bits it gets alone. ``maximize_F`` solves one program; ``_maximize_stack``
solves a study's list of them. Neither raises for a stop short of the
tolerance: each certificate reports its gap and why the ascent stopped.
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
    "maximize_F",
    "prior_information_matrix",
    "sample_prior",
    "prior_from_certificate",
]

DEFAULT_RADIUS = 1.0 / math.pi**2

GAP_TOL = 1e-12
"""maximize_F stops once its linear optimality gap is at most
GAP_TOL * max(1, value); in practice the stall rule usually stops it first."""

MAX_ITER = 5000
"""maximize_F's FISTA budget: a program still short of GAP_TOL after
MAX_ITER iterations stops with a "budget" certificate."""

STALL_TOL = 1e-17
"""maximize_F counts a round as stalled unless it ascends by more than
STALL_TOL * max(1, value); three stalled rounds in a row stop it (the
numerical floor of the objective, below the rounding of its evaluation)."""

MIN_PRIOR_WIDTH = 1e-8
"""prior_from_certificate collapses cos^2 widths below this to point masses."""


class DegeneratePrior(ValueError):
    """Prior has a zero-width coordinate; its information diverges."""


class MaxIterationsError(RuntimeError):
    """A solver stopped short of its tolerance, carrying the best iterate
    found (``best``). Nothing in the package raises it: maximize_F and the
    preconditioner solves report a "budget" stop and their gap instead."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True, eq=False)
class LowerBoundCertificate:
    """Feasible dual variable F with its objective value and solver telemetry.

    ``gap`` is the linear optimality gap at F (an upper bound on how far
    ``value`` is below the maximum) and ``stop_reason`` says why the solver
    stopped: "converged" (gap within GAP_TOL), "stalled" (three rounds
    without measurable ascent) or "budget" (MAX_ITER iterations ran out).
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


# =====================================================================
# the dual program and its lockstep ascent
# =====================================================================

class _DualProgram:
    """The constants of one dual program (d x d matrices, float scalars), or
    of a stack of B programs of one size ((B, d, d) matrices; nu shaped
    (B, 1, 1) and radius (B,) to broadcast). Every operation below takes
    either, and gives each program of a stack the bits of its own call."""

    __slots__ = ("Sp", "Tp", "nu", "radius", "I")

    def __init__(self, Sp, Tp, nu, radius):
        self.Sp, self.Tp, self.nu, self.radius = Sp, Tp, nu, radius
        self.I = np.eye(Sp.shape[-1])

    @classmethod
    def stack(cls, programs):
        """The stack of ``programs``, which share one size d."""
        return cls(np.stack([p.Sp for p in programs]), np.stack([p.Tp for p in programs]),
                   np.array([p.nu for p in programs])[:, None, None],
                   np.array([p.radius for p in programs]))

    def take(self, ks):
        """The sub-stack of the programs ``ks`` of this stack."""
        return _DualProgram(self.Sp[ks], self.Tp[ks], self.nu[ks], self.radius[ks])


def _inner(A, B):
    """<A, B> of each slice, summed as np.sum sums one matrix."""
    return (A * B).sum((-2, -1))


def _gradient(p, F):
    """H T' H' with H = (I + S' F / nu)^{-1} (inv is the solve against I)."""
    H = np.linalg.inv(p.I + p.Sp @ F / p.nu)
    return sym(H @ p.Tp @ H.swapaxes(-1, -2))


def _value(p, F):
    """(the objective at F,), computed as <T', G> with

        G = (I + F S' / nu)^{-1} F,

    which equals the resolvent form (F^{-1} + S'/nu)^{-1} whenever F is
    invertible and is defined for every PSD F, singular ones included
    (I + F S'/nu has the eigenvalues of I + F^{1/2} S' F^{1/2}/nu). It is
    also defined at the slightly indefinite points FISTA extrapolates to."""
    return (_inner(p.Tp, np.linalg.solve(p.I + F @ p.Sp / p.nu, F)),)


def _grad_gap(p, F):
    """(gradient at F, linear optimality gap at F)"""
    grad = _gradient(p, F)
    lam_max = np.linalg.eigvalsh(grad)[..., -1]
    return grad, p.radius * lam_max - _inner(grad, F)


def _extrapolate(p, Y):
    """(gradient at Y, objective at Y); raises LinAlgError where either
    system is singular."""
    return _gradient(p, Y), _value(p, Y)[0]


def _trial(p, Z):
    """(the projection of Z onto the feasible set, the objective there)"""
    F = project_psd_nuclear_ball(Z, p.radius)
    return F, _value(p, F)[0]


_STEPS = ("_value", "_grad_gap", "_extrapolate", "_trial")
"""The operations of a FISTA iteration, by name, in the order it asks for them."""


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
    Nothing is raised when the MAX_ITER budget runs out first: the
    certificate's ``stop_reason`` reads "budget" and its ``gap`` says how
    far it may be from the maximum; its value is a valid lower bound either
    way.

    This is the one-program case of ``_maximize_stack``, which steps many
    programs in lockstep and gives each the bits of this call.
    """
    return _maximize_stack([(triple, sigma2 / n, radius)])[0]


def _maximize_stack(programs) -> list:
    """The floor certificate of each program (triple, nu, radius) in
    ``programs``, in order, nu the noise level sigma2 / n (maximize_F
    passes sigma2 / n, precond.solve_stack each program's noise_coeff).
    Zero-noise (nu == 0) and water-filled programs are finished one by
    one; the rest run one FISTA each (``_fista``), in lockstep
    (``_lockstep``) with the others of their size: a round makes one
    stacked LAPACK call for the programs that ask for the same operation, and each program keeps its own curvature estimate,
    momentum, restarts, stall count and iteration count, and leaves the
    stack when it stops. Each certificate has the bits of the program's own
    maximize_F, whatever the stack's grouping or order. A program still
    short of GAP_TOL after MAX_ITER iterations gives its "budget"
    certificate; an exception that a program's FISTA does not catch stops
    the whole stack.
    """
    certs = [None] * len(programs)
    fistas = {}
    for k, (triple, nu, radius) in enumerate(programs):
        if nu == 0:
            certs[k] = LowerBoundCertificate.zero_floor(triple.d)
            continue
        if not radius > 0:
            raise ValueError("radius must be positive")
        p = _DualProgram(triple.S_prime, triple.T_prime, nu, radius)
        certs[k] = _water_filled_certificate(p)
        if certs[k] is None:
            fistas[k] = p
    by_size = {}
    for k, p in fistas.items():
        by_size.setdefault(len(p.I), []).append(k)
    for ks in by_size.values():
        for k, cert in zip(ks, _lockstep([fistas[k] for k in ks])):
            certs[k] = cert
    return certs


def _water_filled_certificate(p: _DualProgram):
    """The closed-form certificate of the diagonal program ``p`` (see
    maximize_F), or None where it does not apply or misses the tolerance."""
    if not (_is_diagonal(p.Sp) and _is_diagonal(p.Tp)):
        return None
    f = _water_filled(np.diag(p.Sp), np.maximum(np.diag(p.Tp), 0.0), p.nu, p.radius)
    if f is None:
        return None
    F = np.diag(f)
    gap = float(_grad_gap(p, F)[1])
    value = float(_value(p, F)[0])
    if gap > GAP_TOL * max(1.0, abs(value)):
        return None
    return LowerBoundCertificate(F=F, value=value, iterations=1, gap=gap,
                                 stop_reason="converged")


def _lockstep(programs) -> list:
    """Run ``_fista`` on every program (all of one size) in lockstep, the
    certificates in order.

    Each round collects the request (operation, matrix) of every running
    program and serves the operation that most of them ask for (ties go to
    the earliest step of an iteration, _STEPS), in one call on the stack of
    their matrices (a lone program's call goes in unstacked). The others
    wait, so programs that drift apart fall back into step. Where a stacked
    call raises LinAlgError, each of its programs is called alone, and the
    error goes to the programs whose own call raises, as it would without
    the stack.
    """
    everyone = _DualProgram.stack(programs) if len(programs) > 1 else None
    fistas = [_fista(p) for p in programs]
    certs = [None] * len(fistas)
    asks = {k: next(fista) for k, fista in enumerate(fistas)}
    while asks:
        groups = {}
        for k, (op, _) in asks.items():
            groups.setdefault(op, []).append(k)
        op, ks = max(groups.items(), key=lambda g: (len(g[1]), -_STEPS.index(g[0].__name__)))
        if len(ks) == 1:
            stack = programs[ks[0]]
        else:
            stack = everyone if len(ks) == len(programs) else everyone.take(ks)
        answers = _answer(op, stack, [programs[k] for k in ks], [asks[k][1] for k in ks])
        for k, answer in zip(ks, answers):
            try:
                if isinstance(answer, np.linalg.LinAlgError):
                    asks[k] = fistas[k].throw(answer)
                else:
                    asks[k] = fistas[k].send(answer)
            except StopIteration as stop:
                certs[k] = stop.value
                del asks[k]
    return certs


def _answer(op, stack, programs, Xs):
    """op's results for each of ``programs`` (stacked in ``stack``, or
    ``stack`` itself when alone) at its matrix in ``Xs``, or the LinAlgError
    that program's own call raises."""
    if len(programs) == 1:
        try:
            return [op(stack, Xs[0])]
        except np.linalg.LinAlgError as err:
            return [err]
    try:
        return list(zip(*op(stack, np.stack(Xs))))
    except np.linalg.LinAlgError:
        return [_answer(op, p, [p], [X])[0] for p, X in zip(programs, Xs)]


def _fista(p: _DualProgram):
    """FISTA on one program as a generator: it yields each operation it
    needs as (op, matrix), receives op's results (or, thrown in, the
    LinAlgError op raised), and returns the certificate, "budget" if its
    MAX_ITER iterations ran out."""
    d = len(p.I)
    radius = p.radius
    F = (radius / d) * p.I
    (val,) = yield _value, F
    F_prev = F
    t_mom = 1.0
    momentum = False
    L = max(1.0, float(np.linalg.norm(p.Tp)))
    stall = 0
    gap = math.inf
    gap_at = None  # the iterate gap was measured at
    it = 0
    for it in range(1, MAX_ITER + 1):
        if gap_at is not F:  # a restart or a stall that kept F keeps its grad
            grad, gap = yield _grad_gap, F
            gap_at = F
        if gap <= GAP_TOL * max(1.0, abs(val)):
            break
        if momentum:
            beta = (t_mom - 1.0) / (0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom**2)))
            Y = F + beta * (F - F_prev)
            try:
                gY, fY = yield _extrapolate, Y
            except np.linalg.LinAlgError:
                momentum, t_mom, Y, gY, fY = False, 1.0, F, grad, val
        else:
            Y, gY, fY = F, grad, val
        accepted = False
        for _ in range(120):
            F_cand, val_cand = yield _trial, Y + gY / L
            diff = F_cand - Y
            majorized = (
                fY
                + float((gY * diff).sum())
                - 0.5 * L * float((diff * diff).sum())
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
        _, gap = yield _grad_gap, F
    if gap <= GAP_TOL * max(1.0, abs(val)):  # val is the objective at F
        reason = "converged"
    elif stall >= 3:
        reason = "stalled"
    else:
        reason = "budget"
    return LowerBoundCertificate(F=F, value=float(val), iterations=it, gap=float(gap),
                                 stop_reason=reason)


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
