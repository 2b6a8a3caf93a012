import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covshift.asgd import ASGDConfig, choose_parameters, choose_rate_parameters, run
from covshift.model import PowerLawSpec, ProblemInstance, excess_risk, make_power_law_instance
from covshift.psdlinalg import eigh
from covshift.riskoracle import (
    DivergentStationaryState,
    eig_pair,
    eig_pair_pm,
    lambda_dagger,
    lambda_ddagger,
    momentum_power,
    semi_stochastic_bias,
    semi_stochastic_variance,
    semi_stochastic_variance_bound,
    spectral_radius,
    stationary_U,
)


def transition(lam, c, q, delta):
    """The one-direction momentum matrix A(lambda) as a 2x2 array."""
    return np.array([[0.0, 1 - delta * lam], [-c, 1 + c - q * lam]])


def kron_stationary(lam, c, q, delta):
    """Independent route: solve vec(U) from the 4x4 linear system."""
    A = transition(lam, c, q, delta)
    N = lam * np.array([[delta * delta, delta * q], [delta * q, q * q]])
    G = np.array([[0.0, delta * lam], [0.0, q * lam]])
    K = np.eye(4) - np.kron(A, A) + np.kron(G, G)
    return np.linalg.solve(K, N.reshape(-1)).reshape(2, 2), A, N


# ------------------------------------------------------------- 2x2 algebra


def test_eigenvalues_match_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = rng.uniform(0, 0.95)
        delta = rng.uniform(1e-3, 0.5)
        q = delta * rng.uniform(1.0, 5.0)
        lam = rng.uniform(1e-3, 1.5)
        x1, x2 = eig_pair(c, q, delta, lam)
        ref = np.sort_complex(np.linalg.eigvals(transition(lam, c, q, delta)))
        got = np.sort_complex(np.array([complex(x1), complex(x2)]))
        assert np.allclose(got, ref, atol=1e-10)
        assert spectral_radius(c, q, delta, lam) == pytest.approx(
            np.abs(ref).max(), abs=1e-10
        )


def test_regime_breakpoints_and_labels():
    c, q, delta = 0.5, 0.2, 0.1
    dag = lambda_dagger(c, q, delta)
    ddag = lambda_ddagger(c, q, delta)
    assert 0 < dag < ddag
    # below dag (I1) and above ddag (I3) the pair is real
    for lam in (dag * 0.5, ddag * 1.5):
        x1, x2 = eig_pair_pm(c, q, delta, lam)
        assert x1.imag == 0 and x2.imag == 0
    # at the lower breakpoint the discriminant vanishes: a double real root
    x1, x2 = eig_pair_pm(c, q, delta, dag)
    assert abs(x1 - x2) < 1e-8
    # strictly inside I2 the pair is complex with modulus sqrt(c(1-delta*lam))
    lam = (dag + ddag) / 2
    x1, x2 = eig_pair_pm(c, q, delta, lam)
    assert abs(x1.imag) > 0
    assert abs(x1) == pytest.approx(math.sqrt(c * (1 - delta * lam)), rel=1e-12)
    assert x2 == pytest.approx(np.conj(x1), rel=1e-12)


def test_breakpoint_validation_and_infinite_ddagger():
    with pytest.raises(ValueError):
        lambda_dagger(0.5, 0.04, 0.1)  # q < delta
    with pytest.raises(ValueError):
        lambda_dagger(0.9, 0.09, 0.1)  # q <= c*delta
    # c = 1 makes the two square roots cancel: no upper breakpoint
    assert lambda_ddagger(1.0, 0.2, 0.1) == math.inf


def test_breakpoints_vectorize_elementwise():
    rng = np.random.default_rng(3)
    c = np.append(rng.uniform(0.0, 0.98, 50), 1.0)  # c = 1: no upper breakpoint
    delta = rng.uniform(1e-4, 0.5, c.size)
    q = delta * rng.uniform(1.01, 6.0, c.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dag, ddag = lambda_dagger(c, q, delta), lambda_ddagger(c, q, delta)
        assert lambda_ddagger(1.0, 0.2, 0.1) == math.inf
    for j in range(c.size):
        args = float(c[j]), float(q[j]), float(delta[j])
        assert (dag[j], ddag[j]) == (lambda_dagger(*args), lambda_ddagger(*args))
    assert ddag[-1] == math.inf and np.all(np.isfinite(ddag[:-1]))
    with pytest.raises(ValueError):
        lambda_dagger(c, np.where(np.arange(c.size) == 7, 0.5 * delta, q), delta)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_momentum_power_matches_matrix_power(seed, k):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0, 0.95)
    delta = rng.uniform(1e-3, 0.5)
    q = delta * rng.uniform(1.0, 5.0)
    lam = rng.uniform(1e-3, 1.5)
    closed = momentum_power(c, q, delta, lam, k)
    brute = np.linalg.matrix_power(transition(lam, c, q, delta), k)
    assert np.allclose(closed, brute, atol=1e-8 * max(1.0, np.abs(brute).max()))


def test_momentum_power_vectorized():
    lam = np.array([0.1, 0.5, 1.0])
    out = momentum_power(0.4, 0.2, 0.1, lam, 7)
    assert out.shape == (3, 2, 2)
    for i, l in enumerate(lam):
        assert np.allclose(out[i], momentum_power(0.4, 0.2, 0.1, float(l), 7))


def test_momentum_power_double_root_branch():
    c, q, delta = 0.5, 0.2, 0.1
    dag = lambda_dagger(c, q, delta)  # discriminant exactly zero here
    closed = momentum_power(c, q, delta, dag, 12)
    brute = np.linalg.matrix_power(transition(dag, c, q, delta), 12)
    assert np.allclose(closed, brute, atol=1e-9)


# -------------------------------------------------------------- stationary


def test_stationary_pinned_values():
    # frozen from the 4x4 linear-system solve at (c, delta, q, lam) =
    # (0.6, 0.05, 0.12, 0.8)
    sp = stationary_U(0.8, 0.6, 0.12, 0.05)
    assert sp.U11 == pytest.approx(0.09735955056179806, rel=1e-12)
    assert sp.U12 == pytest.approx(0.09775280898876436, rel=1e-12)
    assert sp.U22 == pytest.approx(0.10365168539325877, rel=1e-12)
    assert sp.Q[0, 0] == pytest.approx(0.10616270521930934, rel=1e-12)
    assert sp.Q[1, 1] == pytest.approx(0.11302376868414644, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stationary_matches_linear_solve(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0, 0.95)
    delta = rng.uniform(1e-3, 0.3)
    q = delta * rng.uniform(1.0, 4.0)
    lam = rng.uniform(1e-3, 1.0)
    try:
        sp = stationary_U(lam, c, q, delta)
    except DivergentStationaryState:
        return
    U_ref, A, N = kron_stationary(lam, c, q, delta)
    assert sp.U11 == pytest.approx(U_ref[0, 0], abs=1e-10)
    assert sp.U12 == pytest.approx(U_ref[0, 1], abs=1e-10)
    assert sp.U22 == pytest.approx(U_ref[1, 1], abs=1e-10)
    # the closed-form identity tying the two diagonal entries together
    assert sp.U11 == pytest.approx((1 - 2 * delta * lam) * sp.U22 + delta**2 * lam, abs=1e-12)
    # Q is the fixed point of X -> A X A^T + N
    resid = sp.Q - (A @ sp.Q @ A.T + N)
    assert np.abs(resid).max() < 1e-10


def test_stationary_divergent_state_raises():
    with pytest.raises(DivergentStationaryState):
        stationary_U(1.2, 0.9, 3.0, 0.5)


# ---------------------------------------------------------- semi-stochastic


def test_semi_stochastic_bias_equals_population_run():
    inst = make_power_law_instance(
        PowerLawSpec(d=12, a=2.0, s=1.0, r=0.0), seed=4, sigma2=0.5
    )
    cfg = choose_rate_parameters(inst, 2**8)
    bias = semi_stochastic_bias(inst, cfg)
    traj = run(inst, cfg, population=True)
    assert bias.total == pytest.approx(excess_risk(inst, traj.final_w), abs=1e-12)
    assert bias.total == pytest.approx(float(np.sum(bias.per_direction)), rel=1e-10)
    assert np.all(bias.per_direction >= 0)


def test_semi_stochastic_bias_with_momentum_config():
    inst = make_power_law_instance(
        PowerLawSpec(d=8, a=2.0, s=1.0, r=0.0), seed=5, sigma2=0.0
    )
    beta = 0.2
    cfg = ASGDConfig(n=2**7, delta0=0.05, gamma0=0.25, alpha=1 / (1 + beta), beta=beta)
    bias = semi_stochastic_bias(inst, cfg)
    traj = run(inst, cfg, population=True)
    assert bias.total == pytest.approx(excess_risk(inst, traj.final_w), abs=1e-12)


def test_semi_stochastic_variance_decomposition_and_bound():
    inst = make_power_law_instance(
        PowerLawSpec(d=12, a=2.0, s=1.0, r=0.0), seed=6, sigma2=0.8
    )
    cfg = choose_rate_parameters(inst, 2**8)
    var = semi_stochastic_variance(inst, cfg)
    assert np.all(var.per_direction >= 0)
    assert var.total == pytest.approx(float(np.sum(var.per_direction)), rel=1e-10)
    assert var.total <= semi_stochastic_variance_bound(inst, cfg) + 1e-15


def test_semi_stochastic_variance_scales_with_noise():
    inst0 = make_power_law_instance(
        PowerLawSpec(d=10, a=2.0, s=1.0, r=0.0), seed=7, sigma2=0.0
    )
    inst1 = make_power_law_instance(
        PowerLawSpec(d=10, a=2.0, s=1.0, r=0.0), seed=7, sigma2=1.0
    )
    cfg = choose_rate_parameters(inst0, 2**7)
    v0 = semi_stochastic_variance(inst0, cfg)
    v1 = semi_stochastic_variance(inst1, cfg)
    assert v0.total == pytest.approx(0.0, abs=1e-15)
    assert v1.total > 0
    inst2 = make_power_law_instance(
        PowerLawSpec(d=10, a=2.0, s=1.0, r=0.0), seed=7, sigma2=2.0
    )
    v2 = semi_stochastic_variance(inst2, cfg)
    # the sigma^2-driven part is linear in the noise level
    assert v2.total == pytest.approx(2 * v1.total, rel=1e-10)


def variance_step_by_step(inst, cfg):
    """semi_stochastic_variance's per-direction C11 with every coefficient
    product formed inside the step, as the recursion reads."""
    dec = eigh(inst.S)
    lam, c = dec.eigenvalues, cfg.c
    C11 = np.zeros_like(lam)
    C12 = np.zeros_like(lam)
    C22 = np.zeros_like(lam)
    for ell in range(1, cfg.stages + 1):
        delta, _, q = cfg.stage_steps(ell)
        b, e = 1.0 - delta * lam, 1.0 + c - q * lam
        n11 = inst.sigma2 * lam * delta * delta
        n12 = inst.sigma2 * lam * delta * q
        n22 = inst.sigma2 * lam * q * q
        for _ in range(cfg.stage_len):
            C11, C12, C22 = (
                b * b * C22 + n11,
                -c * b * C12 + e * b * C22 + n12,
                c * c * C11 - 2.0 * c * e * C12 + e * e * C22 + n22,
            )
    return np.diag(dec.eigenvectors.T @ inst.T @ dec.eigenvectors) * C11


def test_semi_stochastic_variance_is_the_step_by_step_recursion():
    base = make_power_law_instance(PowerLawSpec(d=20, a=2.0, s=1.0, r=0.5), seed=3)
    Q, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(20, 20)))
    inst = ProblemInstance(
        S=Q @ base.S @ Q.T, T=Q @ base.T @ Q.T, M=Q @ base.M @ Q.T,
        w_star=Q @ base.w_star, sigma2=0.7,
    )
    cfg = choose_parameters(inst, 2**10, require_admissible=False)
    assert 0.0 < cfg.c < 1.0  # momentum is live
    got = semi_stochastic_variance(inst, cfg)
    assert np.array_equal(got.per_direction, variance_step_by_step(inst, cfg))


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the float64 second-moment recursion loses digits "
    "when 1 - c is tiny (here 9.5e-8); relative errors 7e-7 to 6e-6 against "
    "a 40-digit replay, up to 2.7% at n=2^16",
)
def test_semi_stochastic_variance_matches_extended_precision():
    mpmath = pytest.importorskip("mpmath")
    inst = make_power_law_instance(PowerLawSpec(d=100, a=2.0, s=1.0, r=0.0), seed=0)
    cfg = choose_parameters(inst, 2**12, require_admissible=False)
    got = semi_stochastic_variance(inst, cfg).per_direction
    dec = eigh(inst.S)
    lam, V = dec.eigenvalues, dec.eigenvectors
    t_diag = np.diag(V.T @ inst.T @ V)
    directions, ref = [0, 59, 99], []
    with mpmath.workdps(40):
        # the same recursion from the same float64 inputs, in 40 digits
        c, s2 = mpmath.mpf(cfg.c), mpmath.mpf(inst.sigma2)
        for i in directions:
            lam_i = mpmath.mpf(float(lam[i]))
            C11 = C12 = C22 = mpmath.mpf(0)
            for ell in range(1, cfg.stages + 1):
                delta, _, q = (mpmath.mpf(x) for x in cfg.stage_steps(ell))
                b, e = 1 - delta * lam_i, 1 + c - q * lam_i
                n11, n12, n22 = s2 * lam_i * delta**2, s2 * lam_i * delta * q, s2 * lam_i * q**2
                for _ in range(cfg.stage_len):
                    C11, C12, C22 = (
                        b * b * C22 + n11,
                        -c * b * C12 + e * b * C22 + n12,
                        c * c * C11 - 2 * c * e * C12 + e * e * C22 + n22,
                    )
            ref.append(float(mpmath.mpf(float(t_diag[i])) * C11))
    assert list(got[directions]) == pytest.approx(ref, rel=1e-8, abs=0)
