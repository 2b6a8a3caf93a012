import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covshift.model import (
    SAMPLE_TILE,
    PowerLawSpec,
    ProblemInstance,
    excess_risk,
    instance_from_json,
    instance_to_json,
    make_power_law_instance,
    sample_source,
    whiten,
)
from covshift.psdlinalg import NotPSD


def test_power_law_source_spectrum():
    inst = make_power_law_instance(PowerLawSpec(d=4, a=2.0, s=1.0, r=0.0), seed=0)
    assert np.allclose(inst.S, np.diag([1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0]))
    assert np.allclose(inst.M, np.eye(4))
    assert np.allclose(inst.T, inst.S)  # r=0 means no shift


def test_power_law_target_with_shift_and_knee():
    inst = make_power_law_instance(
        PowerLawSpec(d=3, a=2.0, s=1.0, r=1.0, d0=2), seed=0
    )
    # target decays as i^{-a(1+r)} with the head flattened at the d0 plateau
    assert np.allclose(inst.T, np.diag([1.0 / 16.0, 1.0 / 16.0, 1.0 / 81.0]))


def test_w_star_on_rho_shell():
    for rho in (0.3, 1.0):
        inst = make_power_law_instance(
            PowerLawSpec(d=10, a=2.0, s=1.0, r=0.5, d0=3), seed=7, rho=rho, sigma2=0.5
        )
        norm2 = float(inst.w_star @ inst.M @ inst.w_star)
        assert norm2 == pytest.approx(rho**2, rel=1e-12)


def test_w_star_deterministic_given_seed():
    spec = PowerLawSpec(d=6, a=1.5, s=1.0, r=0.0)
    a = make_power_law_instance(spec, seed=42)
    b = make_power_law_instance(spec, seed=42)
    assert np.array_equal(a.w_star, b.w_star)
    c = make_power_law_instance(spec, seed=43)
    assert not np.array_equal(a.w_star, c.w_star)


def test_tail_profile_zeroes_head_coordinates():
    inst = make_power_law_instance(
        PowerLawSpec(d=16, a=2.0, s=1.0, r=0.0, d0=4), seed=0, w_profile="tail"
    )
    assert np.all(inst.w_star[:3] == 0.0)
    assert np.all(inst.w_star[3:] != 0.0)


def test_tail_profile_requires_d0():
    with pytest.raises(ValueError):
        make_power_law_instance(
            PowerLawSpec(d=8, a=2.0, s=1.0, r=0.0), seed=0, w_profile="tail"
        )


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        make_power_law_instance(
            PowerLawSpec(d=8, a=2.0, s=1.0, r=0.0), seed=0, w_profile="blah"
        )


def rand_instance(seed, d=5, sigma2=0.3):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d))
    S = G @ G.T / d + 0.1 * np.eye(d)
    G = rng.standard_normal((d, d))
    T = 0.7 * (G @ G.T / d + 0.1 * np.eye(d))
    G = rng.standard_normal((d, d))
    M = G @ G.T / d + 0.5 * np.eye(d)
    w = rng.standard_normal(d)
    w /= np.sqrt(w @ M @ w) * 1.25  # keep |w|_M = 0.8, inside the ellipsoid
    return ProblemInstance(S=S, T=T, M=M, w_star=w, sigma2=sigma2)


def test_whiten_identities():
    inst = rand_instance(11)
    triple = whiten(inst)
    R = triple.M_inv_sqrt
    assert np.allclose(R @ inst.S @ R, triple.S_prime, atol=1e-10)
    assert np.allclose(R @ inst.T @ R, triple.T_prime, atol=1e-10)
    assert np.allclose(triple.M_sqrt @ R, np.eye(inst.d), atol=1e-10)
    assert inst.c_finite == pytest.approx(
        np.abs(np.linalg.eigvalsh(triple.S_prime)).max(), rel=1e-10
    )
    # eigendecomposition of S' is carried along, descending
    w, U = triple.eig_S_prime.eigenvalues, triple.eig_S_prime.eigenvectors
    assert np.all(np.diff(w) <= 0)
    assert np.allclose(U @ np.diag(w) @ U.T, triple.S_prime, atol=1e-10)


def test_whiten_identity_M_is_noop():
    inst = make_power_law_instance(PowerLawSpec(d=5, a=2.0, s=1.0, r=0.0), seed=0)
    triple = whiten(inst)
    assert np.allclose(triple.S_prime, inst.S, atol=1e-12)
    assert np.allclose(triple.T_prime, inst.T, atol=1e-12)


def test_excess_risk_quadratic_in_T():
    inst = rand_instance(12)
    w = np.zeros(inst.d)
    expected = float(inst.w_star @ inst.T @ inst.w_star)
    assert excess_risk(inst, w) == pytest.approx(expected, rel=1e-12)
    assert excess_risk(inst, inst.w_star) == pytest.approx(0.0, abs=1e-15)


def test_sample_source_shapes_and_determinism():
    inst = rand_instance(13)
    s1 = sample_source(inst, n=64, seed=5)
    s2 = sample_source(inst, n=64, seed=5)
    assert s1.X.shape == (64, inst.d) and s1.y.shape == (64,)
    assert np.array_equal(s1.X, s2.X) and np.array_equal(s1.y, s2.y)
    s3 = sample_source(inst, n=64, seed=6)
    assert not np.array_equal(s1.X, s3.X)


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal_S", "dense_S"])
@pytest.mark.parametrize("n", [SAMPLE_TILE - 3, 3 * SAMPLE_TILE + 1, 4 * SAMPLE_TILE + 77])
def test_sample_source_block_replay_reproduces_stream(dense, n):
    # one Generator drawn in blocks of whole tiles, with a ragged last block,
    # gives the bits of one whole draw from the same seed
    d = 100
    if dense:
        inst = rand_instance(17, d=d)
    else:
        inst = make_power_law_instance(PowerLawSpec(d=d, a=2.0, s=1.0, r=0.0), seed=0)
    whole = sample_source(inst, n, seed=3)
    for block in (SAMPLE_TILE, 2 * SAMPLE_TILE):
        gen = np.random.default_rng(3)
        parts = [
            sample_source(inst, min(block, n - a), gen) for a in range(0, n, block)
        ]
        assert np.array_equal(np.concatenate([p.X for p in parts]), whole.X)
        assert np.array_equal(np.concatenate([p.y for p in parts]), whole.y)


def test_sample_source_moments():
    inst = rand_instance(14)
    samples = sample_source(inst, n=200_000, seed=0)
    emp = samples.X.T @ samples.X / samples.X.shape[0]
    assert np.allclose(emp, inst.S, atol=0.05)
    resid = samples.y - samples.X @ inst.w_star
    assert np.var(resid) == pytest.approx(inst.sigma2, rel=0.05)


def test_noiseless_samples():
    inst = rand_instance(15, sigma2=0.0)
    samples = sample_source(inst, n=100, seed=1)
    assert np.allclose(samples.y, samples.X @ inst.w_star, atol=1e-12)


def test_instance_json_round_trip():
    inst = rand_instance(16)
    back = instance_from_json(instance_to_json(inst))
    assert np.array_equal(back.S, inst.S)
    assert np.array_equal(back.T, inst.T)
    assert np.array_equal(back.M, inst.M)
    assert np.array_equal(back.w_star, inst.w_star)
    assert back.sigma2 == inst.sigma2
    assert back.psi == inst.psi


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(S=np.eye(2), T=np.eye(3), M=np.eye(2), w_star=np.zeros(2), sigma2=1.0)
    with pytest.raises(ValueError):
        ProblemInstance(S=np.eye(2), T=np.eye(2), M=np.eye(2), w_star=np.zeros(2), sigma2=-1.0)
    with pytest.raises(NotPSD):
        ProblemInstance(
            S=np.diag([1.0, -1.0]), T=np.eye(2), M=np.eye(2), w_star=np.zeros(2), sigma2=1.0
        )
    with pytest.raises(ValueError):
        # w_star outside the unit M-ellipsoid
        ProblemInstance(
            S=np.eye(2), T=np.eye(2), M=np.eye(2), w_star=np.array([2.0, 0.0]), sigma2=1.0
        )


def test_declared_c_finite_checked():
    inst = rand_instance(17)
    with pytest.raises(ValueError):
        ProblemInstance(
            S=inst.S, T=inst.T, M=inst.M, w_star=inst.w_star, sigma2=0.1,
            c_finite=inst.c_finite / 10,
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.floats(1.1, 3.0), st.floats(0.0, 2.0))
def test_power_law_spectra_monotone(d, a, r):
    spec = PowerLawSpec(d=d, a=a, s=1.0, r=r, d0=max(1, d // 2))
    inst = make_power_law_instance(spec, seed=0)
    sdiag = np.diag(inst.S)
    tdiag = np.diag(inst.T)
    assert np.all(np.diff(sdiag) <= 1e-15)
    assert np.all(np.diff(tdiag) <= 1e-15)
    assert np.all(sdiag > 0) and np.all(tdiag > 0)
