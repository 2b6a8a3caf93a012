"""Acceptance suite: ten end-to-end checks with pinned tolerances.

Each criterion is a function returning (passed, detail); ``run_all`` prints
one PASS/FAIL line per criterion and is what ``covshift verify`` runs. The
test module tests/test_acceptance.py executes the same functions and also
enforces the per-criterion wall-clock budgets in CAPS_SECONDS.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import experiments
from .asgd import ASGDConfig, run
from .estimators import DEFAULT_BIAS_COEFF
from .lowerbound import (
    CosSquaredPrior,
    MaxIterationsError,
    prior_information_matrix,
    sample_prior,
)
from .model import (
    PowerLawSpec,
    ProblemInstance,
    excess_risk,
    make_power_law_instance,
    sample_source,
    whiten,
)
from .precond import PrecondProgram, solve_diagonal, solve_general
from .psdlinalg import psd_roots
from .riskoracle import (
    eig_pair_pm,
    lambda_dagger,
    lambda_ddagger,
    momentum_power,
    semi_stochastic_bias,
    spectral_radius,
    stationary_U,
)

CAPS_SECONDS = {
    1: 1.0,
    2: 300.0,
    3: 30.0,
    4: 10.0,
    5: 60.0,
    6: 600.0,
    7: 30.0,
    8: 30.0,
    9: 120.0,
    10: 15.0,
}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    detail: str


def _rand_pd(rng, d, scale=1.0):
    G = rng.standard_normal((d, d))
    return scale * (G @ G.T / d + 0.1 * np.eye(d))


def _rand_orth(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


# ---------------------------------------------------------------- 1
def criterion_1():
    """d=1: both optimizers hit the closed form t' sigma2/(n s' + pi^2 sigma2)."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(5):
        s, t, m = rng.uniform(0.2, 2.0, size=3)
        sigma2 = rng.uniform(0.2, 2.0)
        n = int(rng.integers(8, 512))
        sp, tp = s / m, t / m
        closed = tp * sigma2 / (n * sp + math.pi**2 * sigma2)
        inst = ProblemInstance(
            S=np.array([[s]]),
            T=np.array([[t]]),
            M=np.array([[m]]),
            w_star=np.zeros(1),
            sigma2=sigma2,
        )
        prec = solve_general(
            PrecondProgram(whiten(inst), DEFAULT_BIAS_COEFF, sigma2 / n), tol=1e-10
        )
        lower = prec.certificate.value
        worst = max(
            worst,
            abs(lower - closed) / closed,
            abs(prec.objective_value - closed) / closed,
        )
    return worst <= 1e-8, f"worst relative error {worst:.3e} (tol 1e-8)"


# ---------------------------------------------------------------- 2
def criterion_2():
    """50 random PD instances, d in {2,5,10,20}: relative duality gap <= 1e-4."""
    rng = np.random.default_rng(202)
    dims = (2, 5, 10, 20)
    worst = 0.0
    for i in range(50):
        d = dims[i % len(dims)]
        inst = ProblemInstance(
            S=_rand_pd(rng, d),
            T=_rand_pd(rng, d, scale=rng.uniform(0.5, 1.5)),
            M=_rand_pd(rng, d),
            w_star=np.zeros(d),
            sigma2=rng.uniform(0.2, 2.0),
        )
        n = int(rng.integers(16, 1024))
        try:
            prec = solve_general(
                PrecondProgram(whiten(inst), DEFAULT_BIAS_COEFF, inst.sigma2 / n),
                tol=1e-5,
            )
        except MaxIterationsError as err:
            prec = err.best
        lower = prec.certificate.value
        gap = (prec.objective_value - lower) / lower
        worst = max(worst, abs(gap))
        if abs(gap) > 1e-4:
            return False, f"instance {i} (d={d}): gap {gap:.3e} > 1e-4"
    return True, f"50 instances, worst relative gap {worst:.3e} (tol 1e-4)"


# ---------------------------------------------------------------- 3
def criterion_3():
    """Commuting instances: general solver == diagonal water-filling, 1e-6."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(10):
        d = int(rng.integers(3, 16))
        lam = rng.uniform(0.1, 2.0, size=d)
        m = rng.uniform(0.3, 3.0, size=d)
        t = rng.uniform(0.05, 2.0, size=d)
        Q = _rand_orth(rng, d)
        inst = ProblemInstance(
            S=Q @ np.diag(lam) @ Q.T,
            T=Q @ np.diag(t) @ Q.T,
            M=Q @ np.diag(m) @ Q.T,
            w_star=np.zeros(d),
            sigma2=rng.uniform(0.2, 2.0),
        )
        n = int(rng.integers(16, 1024))
        bias, noise = DEFAULT_BIAS_COEFF, inst.sigma2 / n
        diag_value = solve_diagonal(lam, m, t, bias, noise).value
        try:
            prec = solve_general(PrecondProgram(whiten(inst), bias, noise), tol=1e-8)
        except MaxIterationsError as err:
            prec = err.best
        rel = abs(prec.objective_value - diag_value) / diag_value
        worst = max(worst, rel)
        if rel > 1e-6:
            return False, f"instance {i}: relative mismatch {rel:.3e} > 1e-6"
    return True, f"10 commuting instances, worst relative mismatch {worst:.3e} (tol 1e-6)"


# ---------------------------------------------------------------- 4
def criterion_4():
    """gamma = delta: the method's w-iterates match an independent SGD loop."""
    n, d, seed = 2**12, 50, 7
    inst = make_power_law_instance(PowerLawSpec(d=d, a=2.0, s=1.0, r=0.0), seed=1)
    step = 1.0 / (inst.psi * float(np.trace(inst.S)))
    cfg = ASGDConfig(n=n, delta0=step, gamma0=step, alpha=0.7, beta=0.3)
    traj = run(inst, cfg, seed=seed, record_iterates=True)

    samples = sample_source(inst, n, seed)
    w = np.zeros(d)
    drift = 0.0
    t = 0
    for ell in range(cfg.stages):
        delta = step / 4.0**ell
        for _ in range(cfg.stage_len):
            x = samples.X[t]
            w = w - delta * ((x @ w - samples.y[t]) * x)
            drift = max(drift, float(np.max(np.abs(w - traj.iterates[t]))))
            t += 1
    return drift <= 1e-12, f"max iterate drift {drift:.3e} over {t} steps (tol 1e-12)"


# ---------------------------------------------------------------- 5
def criterion_5():
    """Full-gradient runs reproduce the exact bias recursion, 20 configs."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(3, 51))
        n = int(rng.integers(64, 1025))
        M = _rand_pd(rng, d)
        w = rng.standard_normal(d)
        w = w / math.sqrt(w @ M @ w) * rng.uniform(0.3, 1.0)
        inst = ProblemInstance(
            S=_rand_pd(rng, d),
            T=_rand_pd(rng, d),
            M=M,
            w_star=w,
            sigma2=1.0,
        )
        beta = rng.uniform(0.05, 1.0)
        gamma0 = rng.uniform(0.2, 0.9) / float(np.trace(inst.S))
        delta0 = gamma0 * rng.uniform(0.3, 1.0)
        cfg = ASGDConfig(
            n=n, delta0=delta0, gamma0=gamma0, alpha=1.0 / (1.0 + beta), beta=beta
        )
        traj = run(inst, cfg, population=True)
        mc = excess_risk(inst, traj.final_w)
        oracle = semi_stochastic_bias(inst, cfg).total
        rel = abs(mc - oracle) / max(1.0, abs(oracle))
        worst = max(worst, rel)
        if rel > 1e-10:
            return False, f"config {i} (d={d}, n={n}): |run - oracle| {rel:.3e} > 1e-10"
    return True, f"20 configs, worst |run - oracle| {worst:.3e} (tol 1e-10)"


# ---------------------------------------------------------------- 6
BOUND_CHECK_SPEC = experiments.ExperimentSpec(
    kind="bound_check",
    instance={"type": "powerlaw", "d": 100, "a": 2.0, "s": 1.0, "r": 0.0,
              "sigma2": 1.0, "seed": 0},
    n_grid=(2**8, 2**10, 2**12),
    seeds=200,
)


def criterion_6():
    """Mean Monte-Carlo risk <= closed-form bound at every n."""
    rep = experiments.run_bound_check(BOUND_CHECK_SPEC)
    lines = [
        f"n={row['n']}: risk {row['mc_mean']:.4e} <= bound {row['bound_total']:.4e}"
        for row in rep.rows
    ]
    return rep.ok, "; ".join(lines)


# ---------------------------------------------------------------- 7
RATE_SWEEP_SPEC = experiments.ExperimentSpec(
    kind="rate_sweep",
    instance={"type": "powerlaw", "d": 100, "a": 2.0, "s": 1.0, "r": 0.0,
              "sigma2": 1.0, "seed": 0},
    n_grid=tuple(2**k for k in range(8, 15)),
    seeds=100,
)


def criterion_7():
    """Deflated log-log slope within +-0.15 of -2/3."""
    rep = experiments.run_rate_sweep(RATE_SWEEP_SPEC)
    return rep.ok, (
        f"deflated slope {rep.fit_deflated.slope:+.4f} vs predicted "
        f"{rep.predicted_exponent:+.4f} (gap {rep.fit_deflated.gap:.3f}, tol 0.15; "
        f"raw slope {rep.fit_raw.slope:+.4f}, r2 {rep.fit_deflated.r2:.3f})"
    )


# ---------------------------------------------------------------- 8
EMERGENCE_SPEC = experiments.ExperimentSpec(
    kind="emergence",
    instance={"type": "powerlaw", "d": 256, "a": 2.0, "s": 1.0, "r": 0.0,
              "d0": 8, "sigma2": 0.005, "seed": 0, "w_profile": "tail"},
    n_grid=tuple(2**k for k in range(3, 14)),
    seeds=64,
    params={"step_base": 0.5, "step_n_ref": 1024},
)


def criterion_8():
    """Plateau, knee within an octave of d0^(a+1) = 512, then the drop."""
    rep = experiments.run_emergence(EMERGENCE_SPEC)
    return rep.ok, (
        f"knee n={rep.knee_n} (target {rep.knee_target:.0f}, ok={rep.knee_ok}); "
        f"plateau ratio {rep.plateau_ratio:.3f} (ok={rep.plateau_ok}); "
        f"drop ratio {rep.drop_ratio:.3f} (ok={rep.drop_ok}); "
        f"nonincreasing={rep.isotonic_ok}"
    )


# ---------------------------------------------------------------- 9
def _draw_params(rng, size, c_lo=0.0):
    c = rng.uniform(c_lo, 0.98, size)
    delta = rng.uniform(1e-4, 0.5, size)
    q = delta * rng.uniform(1.0, 6.0, size)
    return c, q, delta


def criterion_9():
    """2x2 momentum-matrix property suite, >= 1e4 draws per property."""
    rng = np.random.default_rng(909)
    N = 10_000

    # regime I1: real eigenvalues, explicit contraction bound
    c, q, delta = _draw_params(rng, N)
    dag = lambda_dagger(c, q, delta)
    lam = dag * rng.uniform(0.0, 1.0, N)
    _, x2 = eig_pair_pm(c, q, delta, lam)
    bound = 1.0 - lam * (q - c * delta) / (1.0 - c)
    if not np.all(np.abs(x2) <= bound + 1e-12):
        return False, "regime I1 contraction bound violated"

    # regime I2: complex pair of modulus sqrt(c(1 - delta lam))
    c, q, delta = _draw_params(rng, N, c_lo=0.05)
    dag, ddag = lambda_dagger(c, q, delta), lambda_ddagger(c, q, delta)
    hi = np.minimum(ddag, (1.0 + c) / q)
    lam = dag + (hi - dag) * rng.uniform(0.05, 0.95, N)
    inside = (lam > dag) & (lam < ddag)
    x1, x2 = eig_pair_pm(c, q, delta, lam)
    modulus = np.sqrt(c * (1.0 - delta * lam))
    err_i2 = np.max(
        np.abs(np.abs(x2[inside]) - modulus[inside])
        + np.abs(np.abs(x1[inside]) - modulus[inside])
    )
    if not (inside.sum() >= N // 2 and err_i2 <= 1e-12):
        return False, f"regime I2 modulus mismatch {err_i2:.2e} ({inside.sum()} draws)"

    # regime I3: small real root bounded by c delta / q
    c, q, delta = _draw_params(rng, N, c_lo=0.05)
    q = delta * rng.uniform(1.0, 1.3, N)  # keep ddag below the stability edge
    ddag = lambda_ddagger(c, q, delta)
    cap = (1.0 + c) / q
    ok_draw = ddag < cap
    lam = np.where(ok_draw, ddag + (cap - ddag) * rng.uniform(0.0, 1.0, N), ddag)
    _, x2 = eig_pair_pm(c[ok_draw], q[ok_draw], delta[ok_draw], lam[ok_draw])
    viol = np.max(x2.real - (c[ok_draw] * delta[ok_draw] / q[ok_draw]) - 1e-12)
    if not (ok_draw.sum() >= N // 4 and viol <= 0):
        return False, f"regime I3 bound violated by {viol:.2e} ({ok_draw.sum()} draws)"

    # Frobenius norm of powers: |A^k|_F <= sqrt(6) k rho^(k-1)
    c, q, delta = _draw_params(rng, N, c_lo=0.01)
    lam = rng.uniform(0.0, 1.0, N) * (1.0 + c) / q
    ks = rng.integers(1, 51, N)
    rho = spectral_radius(c, q, delta, lam)
    ok = True
    for k in np.unique(ks):
        sel = ks == k
        Ak = momentum_power(c[sel], q[sel], delta[sel], lam[sel], int(k))
        fro = np.sqrt(np.sum(Ak**2, axis=(-2, -1)))
        cap_k = math.sqrt(6.0) * k * np.maximum(rho[sel], 1e-300) ** (k - 1)
        ok = ok and bool(np.all(fro <= cap_k * (1 + 1e-9) + 1e-12))
    if not ok:
        return False, "Frobenius power bound violated"

    # bias-vector bound: |(A^k (1,1)')_2| <= 2 for k <= 1e3, q lam <= 1+c
    c, q, delta = _draw_params(rng, N)
    lam = rng.uniform(0.0, 1.0, N) * (1.0 + c) / q
    worst_bias = 0.0
    for k in (1, 2, 3, 5, 10, 50, 100, 500, 1000):
        Ak = momentum_power(c, q, delta, lam, k)
        comp2 = Ak[..., 1, 0] + Ak[..., 1, 1]
        worst_bias = max(worst_bias, float(np.max(np.abs(comp2))))
    if worst_bias > 2.0 + 1e-12:
        return False, f"bias-vector bound violated: {worst_bias:.6f} > 2"

    # transformed contraction: |P^-1 A P| <= 1 for lam <= (1-c)^2/(q - c delta)
    c, q, delta = _draw_params(rng, N)
    lam = rng.uniform(0.0, 1.0, N) * (1.0 - c) ** 2 / (q - c * delta)
    A = np.zeros((N, 2, 2))
    A[:, 0, 1] = 1.0 - delta * lam
    A[:, 1, 0] = -c
    A[:, 1, 1] = 1.0 + c - q * lam
    P = np.stack([np.array([[1.0, -1.0], [1.0, -cc]]) for cc in c])
    Pinv = np.linalg.inv(P)
    op = np.linalg.svd(Pinv @ A @ P, compute_uv=False)[:, 0]
    if not np.all(op <= 1.0 + 1e-12):
        return False, f"transformed contraction violated: {op.max():.12f}"

    # stationary matrices: closed forms vs direct solve, Q fixed point
    c, q, delta = _draw_params(rng, N, c_lo=0.0)
    lam = rng.uniform(1e-4, 1.0, N) * (1.0 + c) / q
    checked = 0
    worst_fp = 0.0
    for j in range(N):
        D = 2.0 * (1.0 - c[j] ** 2 + c[j] * lam[j] * (q[j] + c[j] * delta[j]))
        if D <= 1e-8 or spectral_radius(c[j], q[j], delta[j], lam[j]) >= 0.999:
            continue
        try:
            pair = stationary_U(float(lam[j]), float(c[j]), float(q[j]), float(delta[j]))
        except ArithmeticError:
            continue
        A1 = np.array(
            [[0.0, 1.0 - delta[j] * lam[j]], [-c[j], 1.0 + c[j] - q[j] * lam[j]]]
        )
        Nmat = lam[j] * np.array(
            [[delta[j] ** 2, delta[j] * q[j]], [delta[j] * q[j], q[j] ** 2]]
        )
        G = np.array([[0.0, delta[j] * lam[j]], [0.0, q[j] * lam[j]]])
        K4 = np.eye(4) - np.kron(A1, A1) + np.kron(G, G)
        U_direct = np.linalg.solve(K4, Nmat.reshape(-1)).reshape(2, 2)
        if np.abs(pair.U - U_direct).max() > 1e-9 * max(1.0, np.abs(U_direct).max()):
            return False, f"stationary U closed form mismatch at draw {j}"
        fp = A1 @ pair.Q @ A1.T + Nmat
        worst_fp = max(
            worst_fp,
            float(np.abs(fp - pair.Q).max() / max(1.0, np.abs(pair.Q).max())),
        )
        checked += 1
    if not (checked >= N // 2 and worst_fp <= 1e-10):
        return False, f"Q fixed-point residual {worst_fp:.2e} over {checked} draws"

    return True, (
        f"regimes, power bounds, contraction, and stationary identities hold "
        f"({N} draws per property; {checked} stationary cases)"
    )


# ---------------------------------------------------------------- 10
def criterion_10():
    """Prior sampler support (1e6 draws) and information-matrix quadrature."""
    rng = np.random.default_rng(1010)
    d = 5
    U = _rand_orth(rng, d)
    g = rng.uniform(0.1, 1.0, d)
    g = g / np.linalg.norm(g) * 0.95
    M = _rand_pd(rng, d)
    prior = CosSquaredPrior(U=U, g=g, M=M)
    W = sample_prior(prior, 1_000_000, seed=11)
    norms = np.einsum("nd,de,ne->n", W, M, W)
    max_norm = float(norms.max())
    if max_norm > 1.0 + 1e-9:
        return False, f"support violated: max |w|_M^2 = {max_norm:.12f}"

    nodes, weights = np.polynomial.legendre.leggauss(64)
    worst = 0.0
    for dd in (1, 2):
        Ud = _rand_orth(rng, dd)
        gd = rng.uniform(0.3, 0.9, dd)
        gd = gd / max(1.0, np.linalg.norm(gd) / 0.95)
        Md = _rand_pd(rng, dd)
        p = CosSquaredPrior(U=Ud, g=gd, M=Md)
        closed = prior_information_matrix(p)

        # coordinate Fisher information by 64-node Gauss-Legendre quadrature:
        # the z_i are independent, so the information matrix is
        # M^{1/2} U diag(I_i) U' M^{1/2} with
        # I_i = int_{-g}^{g} (pi/g tan(pi z/(2g)))^2 cos^2(pi z/(2g))/g dz
        fishers = []
        for gi in gd:
            z = gi * nodes
            integrand = (
                (math.pi / gi * np.tan(math.pi * z / (2 * gi))) ** 2
                * np.cos(math.pi * z / (2 * gi)) ** 2
                / gi
            )
            fishers.append(gi * float(weights @ integrand))
        m_sqrt = psd_roots(Md)[0]
        quad_info = m_sqrt @ (Ud * np.array(fishers)) @ Ud.T @ m_sqrt
        rel = np.abs(quad_info - closed).max() / np.abs(closed).max()
        worst = max(worst, float(rel))
    ok = worst <= 1e-6
    return ok, (
        f"support max |w|_M^2 = {max_norm:.9f} over 1e6 draws; "
        f"quadrature vs closed form worst rel {worst:.3e} (tol 1e-6)"
    )


CRITERIA = (
    (1, "scalar duality closed form", criterion_1),
    (2, "random-instance duality gap", criterion_2),
    (3, "diagonal water-filling equivalence", criterion_3),
    (4, "SGD collapse of the momentum iteration", criterion_4),
    (5, "population-dynamics equivalence", criterion_5),
    (6, "closed-form risk bound validity", criterion_6),
    (7, "power-law rate exponent", criterion_7),
    (8, "emergence curve shape", criterion_8),
    (9, "momentum-matrix property suite", criterion_9),
    (10, "prior sampler and information matrix", criterion_10),
)


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            start = time.perf_counter()
            passed, detail = fn()
            elapsed = time.perf_counter() - start
            return CriterionResult(num, name, passed, elapsed, detail)
    raise ValueError(f"no criterion {number}")


def run_all(selected=None) -> bool:
    all_ok = True
    for num, name, _ in CRITERIA:
        if selected is not None and num not in selected:
            continue
        res = run_criterion(num)
        status = "PASS" if res.passed else "FAIL"
        budget = CAPS_SECONDS[num]
        print(
            f"{status} criterion {num:>2} [{res.seconds:7.2f}s / {budget:.0f}s] "
            f"{name}: {res.detail}"
        )
        all_ok = all_ok and res.passed and res.seconds < budget
    return all_ok
