import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from covshift import lowerbound
from covshift.lowerbound import (
    GAP_TOL,
    CosSquaredPrior,
    DegeneratePrior,
    MaxIterationsError,
    _cos2_quantile,
    _maximize_stack,
    maximize_F,
    prior_from_certificate,
    prior_information_matrix,
    sample_prior,
)
from covshift.model import ProblemInstance, SpectralTriple, whiten
from covshift.psdlinalg import eigh, project_psd_nuclear_ball, sym

RADIUS = 1.0 / math.pi**2


def rand_pd(rng, d, scale=1.0):
    G = rng.normal(size=(d, d))
    return scale * (G @ G.T / d + 0.1 * np.eye(d))


def make_triple(S, T, sigma2=0.25):
    d = S.shape[0]
    inst = ProblemInstance(S=S, T=T, M=np.eye(d), w_star=np.zeros(d), sigma2=sigma2)
    return whiten(inst)


def floor_value(triple, F, sigma2, n):
    """The dual objective at F, in the one form maximize_F evaluates."""
    return float(lowerbound._value(lowerbound._DualProgram.of(triple, sigma2, n, None), F)[0])


def budget(max_iter):
    """maximize_F's FISTA budget (MAX_ITER) set to max_iter in a with block."""
    return mock.patch.object(lowerbound, "MAX_ITER", max_iter)


def scalar_closed_form(s, t, m, sigma2, n):
    sp, tp = s / m, t / m
    return tp * sigma2 / (n * sp + math.pi**2 * sigma2)


def test_scalar_closed_form():
    for s, t, m, sigma2, n in [
        (1.0, 1.0, 1.0, 1.0, 10),
        (2.5, 0.3, 4.0, 0.5, 1000),
        (0.1, 7.0, 0.2, 2.0, 3),
    ]:
        inst = ProblemInstance(
            S=np.array([[s]]), T=np.array([[t]]), M=np.array([[m]]),
            w_star=np.zeros(1), sigma2=sigma2,
        )
        cert = maximize_F(whiten(inst), sigma2, n)
        assert cert.value == pytest.approx(scalar_closed_form(s, t, m, sigma2, n), rel=1e-9)


# values frozen from a convex-programming solve (SCS at eps=1e-11) of the
# equivalent SDP; same instances as the preconditioner duality checks
DUALITY_PINS = {2: 0.002486117649995383, 3: 0.027031556953976372, 5: 0.02265691740994115}


def test_pinned_values_match_sdp_solver():
    rng = np.random.default_rng(2024)
    for d, pinned in DUALITY_PINS.items():
        Sp = rand_pd(rng, d)
        Tp = rand_pd(rng, d, 0.7)
        cert = maximize_F(make_triple(Sp, Tp), 0.25, 64)
        assert cert.value == pytest.approx(pinned, abs=2e-9)


def test_certificate_feasible_and_consistent():
    rng = np.random.default_rng(0)
    for d in (2, 4, 7):
        Sp, Tp = rand_pd(rng, d), rand_pd(rng, d, 0.5)
        triple = make_triple(Sp, Tp)
        cert = maximize_F(triple, 0.25, 32)
        w = np.linalg.eigvalsh(cert.F)
        assert w.min() >= -1e-12
        assert w.sum() <= RADIUS + 1e-9
        assert cert.value > 0
        assert cert.value == pytest.approx(
            floor_value(triple, cert.F, 0.25, 32), rel=1e-10
        )


def test_value_decreases_with_n():
    rng = np.random.default_rng(1)
    triple = make_triple(rand_pd(rng, 4), rand_pd(rng, 4, 0.7))
    vals = [maximize_F(triple, 0.5, n).value for n in (4, 16, 64, 256)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_value_increases_with_radius():
    rng = np.random.default_rng(2)
    triple = make_triple(rand_pd(rng, 3), rand_pd(rng, 3, 0.7))
    small = maximize_F(triple, 0.25, 32, radius=RADIUS / 4).value
    big = maximize_F(triple, 0.25, 32, radius=RADIUS).value
    assert big > small


def test_zero_noise_gives_zero_bound():
    rng = np.random.default_rng(3)
    triple = make_triple(rand_pd(rng, 3), rand_pd(rng, 3, 0.7))
    cert = maximize_F(triple, 0.0, 32)
    assert cert.value == 0.0
    assert np.all(cert.F == 0.0)


def linear_gap(triple, F, sigma2, n, radius=RADIUS):
    """The Frank-Wolfe gap radius * lam_max(grad) - <grad, F> at F."""
    I = np.eye(triple.d)
    H = np.linalg.solve(I + triple.S_prime @ F / (sigma2 / n), I)
    grad = sym(H @ triple.T_prime @ H.T)
    return radius * float(np.linalg.eigvalsh(grad)[-1]) - float(np.sum(grad * F))


def test_certificate_reports_converged():
    # d = 1: the start F = radius is optimal, so the first gap is exactly 0
    triple = make_triple(np.array([[2.0]]), np.array([[0.5]]))
    cert = maximize_F(triple, 0.25, 16)
    assert (cert.stop_reason, cert.iterations) == ("converged", 1)
    assert cert.gap <= GAP_TOL * max(1.0, cert.value)
    # the exact zero floor of a noiseless program
    zero = maximize_F(triple, 0.0, 16)
    assert (zero.gap, zero.stop_reason) == (0.0, "converged")


def test_certificate_reports_stalled_with_gap_at_returned_F():
    # on this instance the last stalled round still moves F, so a gap
    # measured before that move (1.7e-9 here) is not the returned F's
    rng = np.random.default_rng(13)
    triple = make_triple(rand_pd(rng, 6), rand_pd(rng, 6, 0.7))
    cert = maximize_F(triple, 0.25, 64)
    assert cert.stop_reason == "stalled"
    assert cert.gap > GAP_TOL * max(1.0, cert.value)
    assert cert.gap == linear_gap(triple, cert.F, 0.25, 64)


def test_max_iterations_error_carries_best_iterate():
    rng = np.random.default_rng(4)
    triple = make_triple(rand_pd(rng, 6), rand_pd(rng, 6, 0.7))
    with budget(2), pytest.raises(MaxIterationsError) as exc_info:
        maximize_F(triple, 0.25, 64)
    err = exc_info.value
    assert err.best is not None and err.gap > 0
    assert (err.best.stop_reason, err.best.gap) == ("budget", err.gap)
    assert err.gap == linear_gap(triple, err.best.F, 0.25, 64)
    full = maximize_F(triple, 0.25, 64).value
    # the interrupted iterate is still a feasible point, so still a lower bound
    assert err.best.value <= full + 1e-12
    w = np.linalg.eigvalsh(err.best.F)
    assert w.min() >= -1e-12 and w.sum() <= RADIUS + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_maximizer_dominates_random_feasible_points(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    triple = make_triple(rand_pd(rng, d), rand_pd(rng, d, 0.7))
    cert = maximize_F(triple, 0.25, 32)
    G = rng.normal(size=(d, d))
    F = project_psd_nuclear_ball(G @ G.T / d, RADIUS * rng.uniform(0.1, 1.0))
    val = floor_value(triple, F, 0.25, 32)
    assert val >= 0
    assert val <= cert.value + 1e-9 * max(1.0, cert.value)


def square_root_form(triple, F, sigma2, n):
    """The floor as <T', R (I + (n/sigma2) R S' R)^{-1} R> with R = F^{1/2},
    eigenvalues of F clamped at zero: an independent evaluation."""
    dec = eigh(F)
    U = dec.eigenvectors
    R = sym((U * np.sqrt(np.maximum(dec.eigenvalues, 0.0))) @ U.T)
    C = np.eye(F.shape[0]) + (n / sigma2) * (R @ triple.S_prime @ R)
    G = R @ np.linalg.solve(sym(C), R)
    return float(np.sum(triple.T_prime * sym(G)))


@pytest.mark.parametrize("d", [1, 6, 20])
def test_lower_objective_matches_the_square_root_form(d):
    # full-rank, low-rank and zero F: the solve form needs no root of F
    rng = np.random.default_rng(40 + d)
    for sigma2, n in [(0.25, 32), (1.0, 1024), (2.0, 3)]:
        triple = make_triple(rand_pd(rng, d), rand_pd(rng, d, 0.7), sigma2)
        B = rng.normal(size=(d, max(1, d // 3)))
        for F in (RADIUS * rand_pd(rng, d) / d, RADIUS * B @ B.T / np.trace(B @ B.T),
                  np.zeros((d, d))):
            got = floor_value(triple, F, sigma2, n)
            ref = square_root_form(triple, F, sigma2, n)
            assert abs(got - ref) <= 1e-12 * abs(ref)


def triple_of(Sp, Tp):
    return SpectralTriple(S_prime=Sp, T_prime=Tp)


def diagonal_program(rng, d):
    """lam from 1e-8 to 1e2, sometimes clustered; t with zeros and ties
    (at least one positive); a random noise level and radius."""
    if rng.random() < 0.3:
        lam = 10.0 ** rng.uniform(-8, 2) * (1.0 + 1e-9 * rng.random(d))
    else:
        lam = 10.0 ** rng.uniform(-8, 2, d)
    t = rng.choice([0.0, 0.5, 1.0, rng.uniform(0.0, 3.0)], size=d) * rng.uniform(0.0, 3.0, d)
    ties = rng.random(d) < 0.3
    t[ties] = t[0]
    t[int(rng.integers(d))] = rng.uniform(0.1, 3.0)
    nu = 10.0 ** rng.uniform(-6, 1)
    radius = RADIUS * 10.0 ** rng.uniform(-2, 1)
    return lam, t, nu, radius


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(1)  # without the trace step: tr F = (1 + 4.7e-9) radius
@example(722)  # without it: the gap misses GAP_TOL and FISTA runs
def test_diagonal_program_is_solved_in_closed_form(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 31))
    lam, t, nu, radius = diagonal_program(rng, d)
    cert = maximize_F(triple_of(np.diag(lam), np.diag(t)), nu, 1, radius=radius)
    assert (cert.stop_reason, cert.iterations) == ("converged", 1)
    assert cert.gap <= GAP_TOL * max(1.0, cert.value)
    f = np.diag(cert.F)
    assert np.array_equal(cert.F, np.diag(f)) and f.min() >= 0.0
    assert f.sum() == pytest.approx(radius, rel=1e-12)
    # FISTA on the same program in a random eigenbasis. There its values and
    # gaps are only as good as solves with I + S'F/nu, whose condition number
    # reaches kappa = 1 + lam_max radius / nu (up to 1e8 here), and on these
    # spectra it often stalls or runs out of budget (any budget: a stopped
    # iterate is feasible and its gap still bounds the optimum). The closed
    # form lies between its value and its value plus its gap, up to rounding
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    rotated = triple_of(sym((Q * lam) @ Q.T), sym((Q * t) @ Q.T))
    with budget(500):
        ref = alone((rotated, nu, 1, radius))
    kappa = 1.0 + lam.max() * radius / nu
    slack = (1e-12 + np.finfo(float).eps * kappa) * max(1.0, ref.value)
    assert cert.value >= ref.value - slack
    assert cert.value <= ref.value + ref.gap + slack


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the nuclear-ball projection returns max(v - theta, 0), "
    "whose sum exceeds the radius by about u max(v)/radius when v reaches 1e4 "
    "against radius 0.214; FISTA's iterate then has tr F = (1 + 2.1e-11) radius "
    "and a value 1.9e-11 above the optimum",
)
def test_fista_iterate_stays_in_the_nuclear_ball():
    # the rotated program of the property above at seed 36267929: FISTA's
    # iterate must be feasible, so its value cannot pass the closed form
    rng = np.random.default_rng(36267929)
    d = int(rng.integers(1, 31))
    lam, t, nu, radius = diagonal_program(rng, d)
    exact = maximize_F(triple_of(np.diag(lam), np.diag(t)), nu, 1, radius=radius)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    rotated = triple_of(sym((Q * lam) @ Q.T), sym((Q * t) @ Q.T))
    with budget(500):
        ref = alone((rotated, nu, 1, radius))
    assert np.trace(ref.F) <= radius * (1 + 1e-13)
    assert ref.value <= exact.value * (1 + 1e-13)


def test_tiny_off_diagonal_entry_keeps_the_general_method():
    lam, t = np.array([1.0, 0.3, 0.05]), np.array([0.8, 0.5, 0.1])
    S = np.diag(lam)
    exact = maximize_F(triple_of(S, np.diag(t)), 0.25, 64)
    S[0, 1] = S[1, 0] = 1e-300
    nudged = maximize_F(triple_of(S, np.diag(t)), 0.25, 64)
    assert exact.iterations == 1 and nudged.iterations > 1
    assert nudged.value == pytest.approx(exact.value, rel=1e-9)


@pytest.mark.parametrize("radius", [0.0, -RADIUS])
def test_nonpositive_radius_is_rejected(radius):
    for S in (np.diag([1.0, 0.5]), np.array([[1.0, 0.2], [0.2, 0.5]])):
        with pytest.raises(ValueError):
            maximize_F(triple_of(S, np.diag([0.8, 0.3])), 0.25, 64, radius=radius)


def test_prior_validation():
    with pytest.raises(ValueError):
        CosSquaredPrior(U=np.ones((2, 2)), g=np.array([0.5, 0.5]), M=np.eye(2))
    with pytest.raises(ValueError):
        CosSquaredPrior(U=np.eye(2), g=np.array([1.5, 0.1]), M=np.eye(2))
    with pytest.raises(ValueError):
        # each entry fine but the euclidean norm exceeds 1
        CosSquaredPrior(U=np.eye(2), g=np.array([0.9, 0.9]), M=np.eye(2))


def test_prior_information_inverts_certificate():
    # with M = I the prior built from a strictly positive F has information
    # matrix exactly F^{-1}
    rng = np.random.default_rng(6)
    F = rand_pd(rng, 3, 0.01)
    F *= (0.9 * RADIUS) / np.trace(F)
    prior = prior_from_certificate(F, np.eye(3))
    info = prior_information_matrix(prior)
    assert np.allclose(info @ F, np.eye(3), atol=1e-9)


def test_degenerate_prior_has_no_information_matrix():
    prior = CosSquaredPrior(U=np.eye(2), g=np.array([0.5, 0.0]), M=np.eye(2))
    with pytest.raises(DegeneratePrior):
        prior_information_matrix(prior)


def test_sample_prior_support_and_point_mass():
    rng = np.random.default_rng(7)
    M = rand_pd(rng, 3, 2.0)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    g = np.array([0.6, 0.3, 0.0])
    prior = CosSquaredPrior(U=Q, g=g, M=M)
    W = sample_prior(prior, 5000, seed=0)
    norms = np.einsum("ij,jk,ik->i", W, M, W)
    assert norms.max() <= 1 + 1e-9
    # collapsed coordinate is zero in the prior's own basis (up to the
    # rounding of the reconstruction round-trip through M^{1/2})
    from covshift.psdlinalg import psd_roots

    Z = W @ psd_roots(M)[0] @ Q
    assert np.abs(Z[:, 2]).max() <= 1e-12
    assert np.abs(Z[:, 0]).max() <= g[0] + 1e-9
    assert np.abs(Z[:, 1]).max() <= g[1] + 1e-9


def test_sample_prior_second_moment():
    # E z^2 = (1/3 - 2/pi^2) g^2 for the squared-cosine density
    g = 0.7
    prior = CosSquaredPrior(U=np.eye(1), g=np.array([g]), M=np.eye(1))
    Z = sample_prior(prior, 400_000, seed=1)
    factor = 1.0 / 3.0 - 2.0 / math.pi**2
    assert Z.var() == pytest.approx(factor * g**2, rel=0.02)


def test_sample_prior_deterministic():
    prior = CosSquaredPrior(U=np.eye(2), g=np.array([0.5, 0.5]), M=np.eye(2))
    assert np.array_equal(sample_prior(prior, 100, seed=3), sample_prior(prior, 100, seed=3))


def cos2_tail_mass(e):
    """Mass of the cos^2 density within e*g of an end of [-g, g]:
    (x - sin x)/(2 pi) at x = pi e, summed as the Taylor series of x - sin x
    so the flat tail keeps its relative digits."""
    x = np.pi * np.asarray(e, dtype=float)
    term = x**3 / 6.0
    total = term.copy()
    for k in range(2, 16):  # the 15th term is below 1e-18 at x = pi
        term = term * (-(x * x) / ((2 * k) * (2 * k + 1)))
        total += term
    return total / (2.0 * np.pi)


def cos2_quantile_by_bisection(u, g):
    """60 bisection passes on t in [-g, g] for the CDF
    t/(2g) + 1/2 + sin(pi t/g)/(2 pi), compared as tail masses (left of 0:
    F(t) = mass(1 + t/g); right of it: 1 - F(t) = mass(1 - t/g)) so that
    neither tail loses its digits to the 1/2 offset."""
    u = np.asarray(u, dtype=float)
    lo = np.full(u.shape, -g)
    hi = np.full(u.shape, g)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = np.where(
            mid <= 0,
            cos2_tail_mass(1.0 + mid / g) < u,
            cos2_tail_mass(1.0 - mid / g) > 1.0 - u,
        )
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


EDGE_LEVELS = [0.0, 5e-324, 1e-300, 1e-20, 1e-12, 0.5, float(np.nextafter(1.0, 0.0))]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40),
    st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
)
def test_sample_prior_newton_matches_bisection(levels, g):
    u = np.array(EDGE_LEVELS + levels)
    z = _cos2_quantile(u, g)
    ref = cos2_quantile_by_bisection(u, g)
    assert np.all(np.abs(z - ref) <= 1e-12 * g)
    assert np.all(np.abs(z) <= g)
    # mirrored levels: for hi >= 1/2 both 1 - hi and 1 - (1 - hi) are exact
    hi = np.maximum(u, 1.0 - u)
    assert np.array_equal(_cos2_quantile(1.0 - hi, g), -_cos2_quantile(hi, g))


# ----------------------------------------------------------------- lockstep
# _maximize_stack steps many programs in one FISTA loop over stacked
# matrices; each program must come out with the bits of its own maximize_F.


def stack_programs(d=5, seed=21):
    """Six dual programs of one size: a rank-deficient target ridged three
    ways, at two n."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(d, d // 2))
    triple = make_triple(rand_pd(rng, d), G @ G.T)
    return [(triple.ridged(eps * float(np.linalg.norm(G @ G.T, 2))), 0.25, n, RADIUS)
            for n in (16, 256) for eps in (1e-4, 1e-6, 1e-8)]


def alone(program):
    """maximize_F of one program; the best certificate if the budget ran out."""
    try:
        return maximize_F(*program)
    except MaxIterationsError as err:
        return err.best


def assert_same_certificate(got, ref):
    assert np.array_equal(got.F, ref.F)
    assert (got.value, got.iterations, got.gap, got.stop_reason) == (
        ref.value, ref.iterations, ref.gap, ref.stop_reason)


def test_stacked_programs_keep_the_bits_of_their_own_solves():
    programs = stack_programs()
    diagonal = make_triple(np.diag([1.0, 0.5]), np.diag([0.3, 0.0]))
    other_size = make_triple(rand_pd(np.random.default_rng(2), 3), np.eye(3))
    programs += [(diagonal, 0.25, 64, RADIUS), (other_size, 0.25, 64, RADIUS),
                 (other_size, 0.0, 64, RADIUS)]
    refs = [alone(p) for p in programs]
    assert refs[-3].iterations == 1 and refs[-1].value == 0.0  # closed form, zero floor
    for order in (range(len(programs)), range(len(programs) - 1, -1, -1)):
        order = list(order)
        certs = _maximize_stack([programs[k] for k in order])
        for k, cert in zip(order, certs):
            assert_same_certificate(cert, refs[k])
    parts = _maximize_stack(programs[:2]) + _maximize_stack(programs[2:])
    for cert, ref in zip(parts, refs):
        assert_same_certificate(cert, ref)


def test_a_failed_extrapolation_restarts_only_its_program(monkeypatch):
    # the target's first extrapolated point is declared singular: the stacked
    # call raises, each program of it is called alone, and only the target
    # restarts its momentum, as it does when solved alone
    programs = stack_programs()
    triple, sigma2, n, _ = programs[4]
    d = triple.d
    refs = [alone(p) for p in programs]
    real = lowerbound._extrapolate
    singular = []

    @functools.wraps(real)
    def flaky(p, Y):
        slices = zip(p.Tp.reshape(-1, d, d), np.ravel(p.nu), Y.reshape(-1, d, d))
        for Tp, nu, y in slices:
            if np.array_equal(Tp, triple.T_prime) and nu == sigma2 / n:
                if not singular:
                    singular.append(y.copy())
                if np.array_equal(y, singular[0]):
                    raised.append(len(np.ravel(p.nu)))  # the size of the call
                    raise np.linalg.LinAlgError("Singular matrix")
        return real(p, Y)

    raised = []
    monkeypatch.setattr(lowerbound, "_extrapolate", flaky)
    restarted = [alone(p) for p in programs]
    assert raised == [1]
    assert not np.array_equal(restarted[4].F, refs[4].F)
    for k in (0, 1, 2, 3, 5):
        assert_same_certificate(restarted[k], refs[k])
    for cert, ref in zip(_maximize_stack(programs), restarted):
        assert_same_certificate(cert, ref)
    assert raised[1] > 1 and raised[2:] == [1]  # the stacked call, then its own


def test_a_program_out_of_budget_gives_its_budget_certificate():
    # the longest program runs out of iterations while the others stall or
    # converge: maximize_F raises for it alone, and the stack returns the
    # certificate that error carries
    programs = stack_programs()
    refs = [alone(p) for p in programs]
    iterations = [cert.iterations for cert in refs]
    longest = int(np.argmax(iterations))
    short = iterations[longest] - 1
    assert sorted(iterations)[-2] <= short
    with budget(short):
        with pytest.raises(MaxIterationsError) as raised:
            maximize_F(*programs[longest])
        certs = _maximize_stack(programs)
    assert certs[longest].stop_reason == "budget"
    assert_same_certificate(certs[longest], raised.value.best)
    for k, (cert, ref) in enumerate(zip(certs, refs)):
        if k != longest:
            assert_same_certificate(cert, ref)
