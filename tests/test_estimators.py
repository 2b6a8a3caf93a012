import numpy as np
import pytest

from covshift.estimators import (
    DEFAULT_BIAS_COEFF,
    _upper_objective,
    default_noise_coeff,
    estimate,
    eval_upper_objective,
    mc_risk,
)
from covshift.model import (
    PowerLawSpec,
    ProblemInstance,
    Samples,
    SpectralTriple,
    excess_risk,
    make_power_law_instance,
    sample_source,
    whiten,
)
from covshift.precond import PrecondProgram, solve_general
from covshift.psdlinalg import eigh, psd_roots, spectral_norm


def rand_instance(seed, d=4, sigma2=0.2):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d))
    S = G @ G.T / d + 0.1 * np.eye(d)
    G = rng.standard_normal((d, d))
    T = 0.7 * (G @ G.T / d + 0.1 * np.eye(d))
    G = rng.standard_normal((d, d))
    M = G @ G.T / d + 0.5 * np.eye(d)
    w = rng.standard_normal(d)
    w /= np.sqrt(w @ M @ w) * 1.25
    return ProblemInstance(S=S, T=T, M=M, w_star=w, sigma2=sigma2)


def test_consistency_identity_preconditioner():
    # noiseless, A = I, large n: the moment estimator recovers w_star and
    # the mean target risk is small relative to |T|
    inst = make_power_law_instance(
        PowerLawSpec(d=2, a=2.0, s=1.0, r=0.0), seed=3, sigma2=0.0
    )
    est = mc_risk(inst, np.eye(2), n=10_000, seeds=range(20))
    assert est.mean < 1e-2 * spectral_norm(inst.T)


def test_estimate_exact_on_exact_moments():
    # if X^T X / n = S exactly and y is noiseless, the one-pass moment
    # z = S^{-1} X^T y / n equals w_star, so the estimate is the whitened
    # sandwich applied to w_star with no sampling error at all
    inst = rand_instance(1, sigma2=0.0)
    d = inst.d
    R = psd_roots(inst.S)[0]
    X = np.sqrt(d) * R  # n = d rows, X^T X / n = S
    y = X @ inst.w_star
    samples = Samples(X=X, y=y)
    rng = np.random.default_rng(2)
    A = rng.standard_normal((d, d))
    w_hat = estimate(inst, A, samples)
    m_sqrt, m_inv_sqrt = psd_roots(inst.M)
    expected = m_inv_sqrt @ A @ m_sqrt @ inst.w_star
    assert np.allclose(w_hat, expected, atol=1e-10)
    # and A = I recovers w_star itself
    assert np.allclose(estimate(inst, np.eye(d), samples), inst.w_star, atol=1e-10)


def test_default_noise_coeff_formula():
    inst = rand_instance(5, sigma2=0.7)
    n = 128
    expected = (2 * 0.7 + 2 * inst.psi * inst.c_finite) / n
    assert default_noise_coeff(inst, n) == pytest.approx(expected, rel=1e-12)


def test_objective_terms_at_identity_and_zero():
    inst = rand_instance(6)
    triple = whiten(inst)
    v = 0.05
    at_I = eval_upper_objective(triple, np.eye(inst.d), v)
    # A = I kills the bias entirely; the variance is v * tr(T' S'^{-1})
    assert at_I.bias_term == pytest.approx(0.0, abs=1e-12)
    quad = float(np.trace(triple.T_prime @ np.linalg.inv(triple.S_prime)))
    assert at_I.variance_term == pytest.approx(v * quad, rel=1e-10)
    at_0 = eval_upper_objective(triple, np.zeros((inst.d, inst.d)), v)
    # A = 0 kills the variance; the bias is the full target norm
    assert at_0.variance_term == 0.0
    assert at_0.bias_term == pytest.approx(spectral_norm(triple.T_prime), rel=1e-10)


def test_objective_is_sum_of_terms():
    inst = rand_instance(7)
    triple = whiten(inst)
    rng = np.random.default_rng(8)
    for _ in range(5):
        A = rng.standard_normal((inst.d, inst.d))
        val = eval_upper_objective(triple, A, 0.03, bias_coeff=0.4)
        assert val.objective == pytest.approx(val.bias_term + val.variance_term, rel=1e-12)
        assert val.bias_term >= 0 and val.variance_term >= 0


def test_objective_scales_with_coefficients():
    inst = rand_instance(9)
    triple = whiten(inst)
    A = 0.3 * np.eye(inst.d)
    base = eval_upper_objective(triple, A, 0.02, bias_coeff=1.0)
    scaled = eval_upper_objective(triple, A, 0.04, bias_coeff=2.0)
    assert scaled.bias_term == pytest.approx(2 * base.bias_term, rel=1e-12)
    assert scaled.variance_term == pytest.approx(2 * base.variance_term, rel=1e-12)


@pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6])
@pytest.mark.parametrize("d", [6, 40])
def test_variance_term_matches_eigendecomposition(d, kappa):
    # <T', A S'^{-1} A'> by a linear solve against U diag(1/lam) U' from the
    # eigendecomposition of S', to rounding times the condition number
    rng = np.random.default_rng(d)
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    S_prime = (Q * np.geomspace(1.0, 1.0 / kappa, d)) @ Q.T
    S_prime = (S_prime + S_prime.T) / 2
    G = rng.standard_normal((d, d))
    triple = SpectralTriple(S_prime=S_prime, T_prime=G @ G.T / d)
    A = rng.standard_normal((d, d))
    dec = eigh(S_prime)
    U, lam = dec.eigenvectors, dec.eigenvalues
    ref = float(np.sum(triple.T_prime * (A @ (U / lam) @ U.T @ A.T)))
    val = _upper_objective(triple, A, 0.5, 1.0)
    assert abs(val.variance_term - 0.5 * ref) <= 1e-13 * kappa * 0.5 * ref


def test_make_preconditioner_records_terms():
    # solve_general is the one producer of a Preconditioner; the terms it
    # records are the objective evaluated at the A it returns
    inst = rand_instance(10)
    triple = whiten(inst)
    prec = solve_general(PrecondProgram(triple, DEFAULT_BIAS_COEFF, 0.01))
    ref = eval_upper_objective(triple, prec.A, 0.01, bias_coeff=DEFAULT_BIAS_COEFF)
    assert prec.objective_value == pytest.approx(ref.objective, rel=1e-12)
    assert prec.bias_term == pytest.approx(ref.bias_term, rel=1e-12)
    assert prec.variance_term == pytest.approx(ref.variance_term, rel=1e-12)
    assert prec.bias_coeff == DEFAULT_BIAS_COEFF
    assert prec.noise_coeff == 0.01
    assert 0 <= prec.gap <= 1e-6


def test_mc_risk_matches_estimate_loop():
    inst = rand_instance(11)
    A = 0.8 * np.eye(inst.d)
    seeds = range(10)
    est = mc_risk(inst, A, n=64, seeds=seeds)
    risks = []
    for seed in seeds:
        samples = sample_source(inst, n=64, seed=seed)
        risks.append(excess_risk(inst, estimate(inst, A, samples)))
    risks = np.array(risks)
    assert est.mean == pytest.approx(risks.mean(), rel=1e-12)
    assert est.median == pytest.approx(np.median(risks), rel=1e-12)
    assert est.stderr == pytest.approx(risks.std(ddof=1) / np.sqrt(len(risks)), rel=1e-9)


def test_mc_risk_deterministic():
    inst = rand_instance(12)
    a = mc_risk(inst, np.eye(inst.d), n=32, seeds=range(5))
    b = mc_risk(inst, np.eye(inst.d), n=32, seeds=range(5))
    assert a.mean == b.mean and a.stderr == b.stderr
