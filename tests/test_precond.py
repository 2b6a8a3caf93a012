import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covshift.estimators import eval_upper_objective
from covshift.lowerbound import MaxIterationsError, maximize_F
from covshift.model import ProblemInstance, whiten
from covshift.precond import (
    PrecondProgram,
    precond_to_json,
    recover_A_from_F,
    solve_diagonal,
    solve_general,
)
from covshift.psdlinalg import NotPSD, spectral_norm

B = 1.0 / math.pi**2


def rand_pd(rng, d, scale=1.0):
    G = rng.normal(size=(d, d))
    return scale * (G @ G.T / d + 0.1 * np.eye(d))


def make_triple(S, T, sigma2=0.25):
    d = S.shape[0]
    inst = ProblemInstance(S=S, T=T, M=np.eye(d), w_star=np.zeros(d), sigma2=sigma2)
    return whiten(inst)


def diag_objective(a, lam, m, t, bias_coeff, noise_coeff):
    t_w = t / m
    bias = bias_coeff * np.max(t_w * (1.0 - a) ** 2)
    noise = noise_coeff * float(np.sum(a**2 * t / lam))
    return bias + noise


# ---------------------------------------------------------------- diagonal


def test_diagonal_no_noise_returns_identity():
    sol = solve_diagonal([1.0, 0.5], [1.0, 1.0], [1.0, 0.3], bias_coeff=B, noise_coeff=0.0)
    assert sol.tau == 0.0
    assert np.allclose(sol.a, 1.0)
    assert sol.value == 0.0


def test_diagonal_zero_target_returns_zero():
    sol = solve_diagonal([1.0, 0.5], [1.0, 1.0], [0.0, 0.0], bias_coeff=B, noise_coeff=0.1)
    assert np.allclose(sol.a, 0.0)
    assert sol.value == 0.0
    assert sol.active_set.size == 0


def test_diagonal_shrinkage_structure():
    rng = np.random.default_rng(0)
    lam = rng.uniform(0.1, 2.0, 6)
    m = rng.uniform(0.5, 2.0, 6)
    t = rng.uniform(0.0, 1.0, 6)
    sol = solve_diagonal(lam, m, t, bias_coeff=B, noise_coeff=0.02)
    t_w = t / m
    assert np.all(sol.a >= 0) and np.all(sol.a < 1)
    active = t_w > sol.tau**2
    assert np.array_equal(np.flatnonzero(active), sol.active_set)
    assert np.allclose(sol.a[active], 1.0 - sol.tau / np.sqrt(t_w[active]), atol=1e-12)
    assert np.all(sol.a[~active] == 0.0)
    # reported value is the objective at the reported point
    assert sol.value == pytest.approx(
        diag_objective(sol.a, lam, m, t, B, 0.02), rel=1e-10
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_diagonal_beats_random_competitors(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    lam = rng.uniform(0.05, 3.0, d)
    m = rng.uniform(0.3, 3.0, d)
    t = rng.uniform(0.0, 1.5, d)
    bias_coeff = float(rng.uniform(0.01, 1.0))
    noise_coeff = float(rng.uniform(0.0, 0.5))
    sol = solve_diagonal(lam, m, t, bias_coeff, noise_coeff)
    for _ in range(25):
        a = rng.uniform(-0.2, 1.2, d)
        assert sol.value <= diag_objective(a, lam, m, t, bias_coeff, noise_coeff) + 1e-9


def kkt_residual(sol, lam, m, t, bias_coeff, noise_coeff):
    """d/dtau of b tau^2 + v sum_active c (1 - tau/s)^2 at the solution, and
    the size of its two sides."""
    s = np.sqrt(t / m)[sol.active_set]
    c = (t / lam)[sol.active_set]
    pull = noise_coeff * np.sum(c / s)
    resid = 2 * bias_coeff * sol.tau - 2 * noise_coeff * np.sum(c / s * (1 - sol.tau / s))
    return resid, bias_coeff * sol.tau + pull


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_diagonal_threshold_is_exact_stationary_point(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 60))
    lam = rng.uniform(0.05, 3.0, d)
    m = 2.0 ** rng.integers(-2, 3, d)  # powers of two: t / m recovers t_w exactly
    t_w = rng.uniform(0.0, 1.5, d)
    t_w[rng.random(d) < 0.2] = 0.0
    if rng.random() < 0.5:
        t_w = rng.choice(t_w, d)  # tied breakpoints
    t = t_w * m
    bias_coeff = float(rng.uniform(0.01, 1.0))
    noise_coeff = float(rng.uniform(0.0, 0.5))
    sol = solve_diagonal(lam, m, t, bias_coeff, noise_coeff)
    resid, scale = kkt_residual(sol, lam, m, t, bias_coeff, noise_coeff)
    assert abs(resid) <= 1e-13 * scale
    assert sol.value == pytest.approx(
        diag_objective(sol.a, lam, m, t, bias_coeff, noise_coeff), rel=1e-13, abs=1e-300
    )


def test_diagonal_scalar_matches_closed_form():
    # d = 1: a = b t_w / (b t_w + v c) and value = b t_w v c / (b t_w + v c)
    lam, m, t, b, v = 0.7, 1.3, 0.9, B, 0.04
    t_w, c = t / m, t / lam
    sol = solve_diagonal([lam], [m], [t], b, v)
    assert sol.a[0] == pytest.approx(b * t_w / (b * t_w + v * c), rel=1e-14)
    assert sol.value == pytest.approx(b * t_w * v * c / (b * t_w + v * c), rel=1e-14)
    assert list(sol.active_set) == [0]


def test_diagonal_tied_breakpoints():
    # three coordinates share t_w = 0.5, so two breakpoint intervals are empty
    lam = np.array([1.0, 0.5, 0.25, 2.0, 0.8])
    m = np.ones(5)
    t = np.array([0.5, 0.5, 0.5, 0.1, 0.9])
    sol = solve_diagonal(lam, m, t, B, 0.05)
    resid, scale = kkt_residual(sol, lam, m, t, B, 0.05)
    assert abs(resid) <= 1e-13 * scale
    tied = sol.a[:3]
    assert np.all(tied == tied[0])
    assert sol.value == pytest.approx(diag_objective(sol.a, lam, m, t, B, 0.05), rel=1e-13)


def test_diagonal_validation():
    with pytest.raises(ValueError):
        solve_diagonal([1.0], [1.0, 1.0], [1.0], B, 0.1)
    with pytest.raises(ValueError):
        solve_diagonal([-1.0], [1.0], [1.0], B, 0.1)
    with pytest.raises(ValueError):
        solve_diagonal([1.0], [1.0], [-1.0], B, 0.1)
    with pytest.raises(ValueError):
        solve_diagonal([1.0], [1.0], [1.0], 0.0, 0.1)
    with pytest.raises(ValueError):
        solve_diagonal([1.0], [1.0], [1.0], B, -0.1)


# ----------------------------------------------------------------- general


# frozen from a convex-programming solve (SCS at eps=1e-11) of the dual SDP;
# same three instances pinned in the lower-bound tests
DUALITY_PINS = {2: 0.002486117649995383, 3: 0.027031556953976372, 5: 0.02265691740994115}


def test_general_matches_pinned_sdp_values():
    rng = np.random.default_rng(2024)
    v = 0.25 / 64
    for d, pinned in DUALITY_PINS.items():
        Sp = rand_pd(rng, d)
        Tp = rand_pd(rng, d, 0.7)
        prog = PrecondProgram(make_triple(Sp, Tp), bias_coeff=B, noise_coeff=v)
        prec = solve_general(prog, tol=1e-5)
        assert prec.objective_value == pytest.approx(pinned, rel=2e-5)
        assert prec.gap <= 1e-5


def test_general_sandwiches_dual_floor():
    rng = np.random.default_rng(1)
    triple = make_triple(rand_pd(rng, 5), rand_pd(rng, 5, 0.7))
    v = 0.01
    prog = PrecondProgram(triple, bias_coeff=B, noise_coeff=v)
    prec = solve_general(prog, tol=1e-5)
    floor = maximize_F(triple, sigma2=v, n=1, radius=B).value
    assert prec.objective_value >= floor - 1e-12
    assert prec.objective_value <= floor * (1 + 2e-5)


def test_general_agrees_with_diagonal_when_commuting():
    rng = np.random.default_rng(2)
    d = 6
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = np.sort(rng.uniform(0.1, 2.0, d))[::-1]
    t = rng.uniform(0.05, 1.0, d)
    S = Q @ np.diag(lam) @ Q.T
    T = Q @ np.diag(t) @ Q.T
    triple = make_triple(S, T)
    v = 0.05
    prec = solve_general(PrecondProgram(triple, bias_coeff=B, noise_coeff=v), tol=1e-6)
    diag = solve_diagonal(lam, np.ones(d), t, B, v)
    assert prec.objective_value == pytest.approx(diag.value, rel=1e-5)


def test_general_on_a_diagonal_program_meets_water_filling():
    # primal and dual KKT match: the exact dual optimum maps to the
    # water-filling preconditioner, so no polish step is needed
    lam = np.array([2.0, 1.0, 0.4, 0.1, 0.02])
    t = np.array([0.05, 0.9, 0.3, 0.3, 1e-3])
    v = 0.05
    triple = make_triple(np.diag(lam), np.diag(t))
    prec = solve_general(PrecondProgram(triple, B, v))
    assert prec.certificate.iterations == 1
    diag = solve_diagonal(lam, np.ones(5), t, B, v)
    A = recover_A_from_F(triple, prec.certificate.F, v)
    assert np.allclose(A, np.diag(diag.a), rtol=0.0, atol=1e-12)
    assert prec.objective_value == pytest.approx(diag.value, rel=1e-12)


def assert_zero_floor(cert, d):
    assert np.array_equal(cert.F, np.zeros((d, d)))
    assert (cert.value, cert.iterations) == (0.0, 0)
    assert (cert.gap, cert.stop_reason) == (0.0, "converged")


def test_general_degenerate_cases():
    rng = np.random.default_rng(3)
    d = 4
    S = rand_pd(rng, d)
    # zero target: doing nothing is free and optimal
    triple = make_triple(S, np.zeros((d, d)))
    prec = solve_general(PrecondProgram(triple, bias_coeff=B, noise_coeff=0.1))
    assert np.all(prec.A == 0.0) and prec.gap == 0.0
    assert_zero_floor(prec.certificate, d)
    # zero noise: the identity zeroes the bias at no cost
    triple = make_triple(S, rand_pd(rng, d, 0.7))
    prec = solve_general(PrecondProgram(triple, bias_coeff=B, noise_coeff=0.0))
    assert np.allclose(prec.A, np.eye(d)) and prec.gap == 0.0
    assert prec.objective_value == pytest.approx(0.0, abs=1e-15)
    assert_zero_floor(prec.certificate, d)


def program_dual(prog, eps=0.0, **kw):
    """The dual solve solve_general runs as its floor, called directly."""
    return maximize_F(
        prog.triple.ridged(eps), prog.noise_coeff, 1, radius=prog.bias_coeff, **kw
    )


@pytest.mark.parametrize("rank", [5, 2], ids=["dense", "singular_T"])
def test_general_returns_its_dual_certificate(rank):
    rng = np.random.default_rng(40 + rank)
    d = 5
    G = rng.normal(size=(d, rank))
    triple = make_triple(rand_pd(rng, d), G @ G.T)
    prog = PrecondProgram(triple, bias_coeff=B, noise_coeff=0.02)
    prec = solve_general(prog, tol=1e-5)
    # a rank-deficient target is ridged by the solver's default 1e-8 |T'|
    eps = 1e-8 * spectral_norm(triple.T_prime) if rank < d else 0.0
    cert = program_dual(prog, eps)
    assert np.array_equal(prec.certificate.F, cert.F)
    assert prec.certificate.iterations == cert.iterations
    assert prec.certificate.value == cert.value
    assert prec.gap == pytest.approx(
        (prec.objective_value - cert.value) / cert.value, rel=1e-12, abs=1e-15
    )
    # the recorded terms are the (ridged) program's objective at the returned A
    ref = eval_upper_objective(triple.ridged(eps), prec.A, 0.02, bias_coeff=B)
    assert (prec.objective_value, prec.bias_term, prec.variance_term) == (
        ref.objective, ref.bias_term, ref.variance_term
    )
    assert (prec.bias_coeff, prec.noise_coeff) == (B, 0.02)


@pytest.mark.parametrize("kind", ["dense", "commuting", "degenerate"])
def test_general_factors_S_prime_once(monkeypatch, kind):
    # S' is fixed for a solve: one Cholesky factorization checks that it is
    # positive definite, and the returned terms are eval_upper_objective's
    rng = np.random.default_rng(77)
    d = 6
    S = rand_pd(rng, d)
    if kind == "commuting":
        lam, U = np.linalg.eigvalsh(S), np.linalg.qr(rng.normal(size=(d, d)))[0]
        S, T = (U * lam) @ U.T, (U * lam[::-1]) @ U.T
    else:
        T = rand_pd(rng, d, 0.7)
    triple = make_triple(S, T)
    noise = 0.0 if kind == "degenerate" else 0.02
    factored = []
    real_cholesky = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        factored.append(np.array(a))
        return real_cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    prec = solve_general(PrecondProgram(triple, bias_coeff=B, noise_coeff=noise), tol=1e-5)
    assert len(factored) == 1 and np.array_equal(factored[0], triple.S_prime)
    ref = eval_upper_objective(triple, prec.A, noise, bias_coeff=B)
    assert (prec.objective_value, prec.bias_term, prec.variance_term) == (
        ref.objective, ref.bias_term, ref.variance_term
    )


def test_indefinite_S_prime_raises_not_psd():
    triple = make_triple(np.eye(3), np.eye(3))
    bad = type(triple)(S_prime=np.diag([1.0, -1.0, 1.0]), T_prime=triple.T_prime)
    with pytest.raises(NotPSD, match="S' is not positive definite"):
        eval_upper_objective(bad, np.eye(3), 0.1)


def test_general_handles_singular_target():
    rng = np.random.default_rng(4)
    d = 5
    G = rng.normal(size=(d, 2))
    T = G @ G.T  # rank 2
    triple = make_triple(rand_pd(rng, d), T)
    prec = solve_general(
        PrecondProgram(triple, bias_coeff=B, noise_coeff=0.02), tol=1e-5
    )
    assert prec.gap <= 1e-5


def test_general_raises_with_best_on_tiny_budget():
    rng = np.random.default_rng(5)
    triple = make_triple(rand_pd(rng, 8), rand_pd(rng, 8, 0.7))
    prog = PrecondProgram(triple, bias_coeff=B, noise_coeff=0.01)
    try:
        solve_general(prog, tol=1e-12, max_iter=1, dual_max_iter=3)
    except MaxIterationsError as err:
        assert err.best is not None
        assert err.best.gap == pytest.approx(err.gap)
        assert err.gap > 1e-12
        with pytest.raises(MaxIterationsError) as dual:
            program_dual(prog, max_iter=3)
        assert np.array_equal(err.best.certificate.F, dual.value.best.F)
        assert err.best.certificate.iterations == dual.value.best.iterations == 3
    else:
        pytest.skip("warm start already within tol on this instance")


def test_recover_A_attains_dual_value():
    rng = np.random.default_rng(6)
    triple = make_triple(rand_pd(rng, 4), rand_pd(rng, 4, 0.7))
    v = 0.02
    cert = maximize_F(triple, sigma2=v, n=1, radius=B)
    A = recover_A_from_F(triple, cert.F, v)
    val = eval_upper_objective(triple, A, v, bias_coeff=B)
    assert val.objective == pytest.approx(cert.value, rel=1e-6)


def test_precond_to_json_round_trip_fields():
    rng = np.random.default_rng(7)
    triple = make_triple(rand_pd(rng, 3), rand_pd(rng, 3, 0.7))
    prec = solve_general(PrecondProgram(triple, bias_coeff=B, noise_coeff=0.05), tol=1e-5)
    doc = precond_to_json(prec)
    assert sorted(doc) == [
        "A", "bias_coeff", "bias_term", "gap",
        "noise_coeff", "objective", "variance_term",
    ]
    assert np.allclose(np.array(doc["A"]), prec.A)
    assert doc["objective"] == prec.objective_value
    assert doc["gap"] == prec.gap
