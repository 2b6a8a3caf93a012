import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covshift import asgd, riskoracle
from covshift.estimators import estimate, mc_risk
from covshift.experiments import ExperimentSpec
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
from covshift.psdlinalg import NotPSD, eigh, psd_roots, sym


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


def test_rank_one_target_family():
    # nu = 1: T = v v' with v_i = i^(-(1+r)a/2), rank one
    d, a, r = 6, 2.0, 0.5
    inst = make_power_law_instance(PowerLawSpec(d=d, a=a, s=1.0, r=r, nu=1), seed=0)
    v = np.arange(1, d + 1, dtype=float) ** (-(1 + r) * a / 2)
    assert np.array_equal(inst.T, np.outer(v, v))
    assert np.linalg.matrix_rank(inst.T) == 1


def test_w_star_on_the_unit_shell():
    inst = make_power_law_instance(
        PowerLawSpec(d=10, a=2.0, s=1.0, r=0.5, d0=3), seed=7, sigma2=0.5
    )
    norm2 = float(inst.w_star @ inst.M @ inst.w_star)
    assert norm2 == pytest.approx(1.0, rel=1e-12)


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
    m_sqrt, R = psd_roots(inst.M)
    assert np.allclose(R @ inst.S @ R, triple.S_prime, atol=1e-10)
    assert np.allclose(R @ inst.T @ R, triple.T_prime, atol=1e-10)
    assert np.allclose(m_sqrt @ R, np.eye(inst.d), atol=1e-10)
    assert inst.c_finite == pytest.approx(
        np.abs(np.linalg.eigvalsh(triple.S_prime)).max(), rel=1e-10
    )


def counted_eighs(monkeypatch):
    """Every matrix np.linalg.eigh is called on from now on, in call order."""
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(X):
        calls.append(np.array(X))
        return real_eigh(X)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def test_whiten_reuses_the_instance_root(monkeypatch):
    inst = rand_instance(11)
    calls = counted_eighs(monkeypatch)
    triple = whiten(inst)
    assert calls == []  # M^{-1/2} comes from the instance, and S' is not decomposed
    monkeypatch.undo()
    R = psd_roots(inst.M)[1]
    assert np.array_equal(triple.S_prime, sym(R @ inst.S @ R))
    assert np.array_equal(triple.T_prime, sym(R @ inst.T @ R))


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal_S", "dense_S"])
def test_instance_keeps_the_eigenbasis_of_S(dense):
    if dense:
        inst = rand_instance(18, d=20)
    else:
        inst = make_power_law_instance(PowerLawSpec(d=20, a=2.0, s=1.0, r=0.5), seed=0)
    dec = eigh(inst.S)
    V = dec.eigenvectors
    assert np.array_equal(inst.eig_S.eigenvalues, dec.eigenvalues)
    assert np.array_equal(inst.eig_S.eigenvectors, V)
    assert np.array_equal(inst.T_tilde, V.T @ inst.T @ V)
    root = psd_roots(inst.S)[0]
    factor = root if dense else np.diag(root)
    assert inst.source_factor.ndim == factor.ndim
    assert np.array_equal(inst.source_factor, factor)


@pytest.mark.parametrize("dense", [False, True], ids=["identity_M", "dense_M"])
def test_instance_keeps_both_roots_of_M(dense):
    if dense:
        inst = rand_instance(18, d=20)
    else:
        inst = make_power_law_instance(PowerLawSpec(d=20, a=2.0, s=1.0, r=0.5), seed=0)
    m_sqrt, m_inv_sqrt = psd_roots(inst.M)
    assert np.array_equal(inst.M_sqrt, m_sqrt)
    assert np.array_equal(inst.M_inv_sqrt, m_inv_sqrt)


def test_construction_decomposes_M_once(monkeypatch):
    # the positive-definiteness check reads the eigh that gives both roots;
    # an eigvalsh of M for the check alone would be a second decomposition
    base = rand_instance(21, d=12)
    calls = counted_eighs(monkeypatch)
    real_eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(X):
        calls.append(np.array(X))
        return real_eigvalsh(X)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    inst = ProblemInstance(S=base.S, T=base.T, M=base.M, w_star=base.w_star,
                           sigma2=base.sigma2)
    assert sum(np.array_equal(X, inst.M) for X in calls) == 1
    M_sqrt, M_inv_sqrt = psd_roots(inst.M)
    assert np.array_equal(inst.M_sqrt, M_sqrt)
    assert np.array_equal(inst.M_inv_sqrt, M_inv_sqrt)


def test_estimators_read_the_roots_of_M_from_the_instance(monkeypatch):
    inst = rand_instance(20, d=12)
    A = 0.5 * np.eye(inst.d)
    samples = sample_source(inst, 64, 0)
    calls = counted_eighs(monkeypatch)
    estimate(inst, A, samples)
    mc_risk(inst, A, 64, [0, 1])
    assert len(calls) == 0


def test_bound_check_point_makes_no_eigendecomposition(monkeypatch):
    # a bound_check grid point reads S's eigenbasis from the instance: the
    # one eigh of S is made at construction, and none after it
    calls = counted_eighs(monkeypatch)
    inst = rand_instance(19, d=20)
    at_construction = calls[:]
    del calls[:]
    cfg = asgd.choose_parameters(inst, 256, require_admissible=False)
    asgd.run_batch(inst, cfg, [0, 1])
    asgd.risk_bound(inst, cfg)
    riskoracle.semi_stochastic(inst, cfg)
    assert len(calls) == 0
    assert sum(np.array_equal(X, inst.S) for X in at_construction) == 1


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


@pytest.mark.parametrize("n", [100, 769])
def test_sample_source_diagonal_path_matches_tiled_product(n):
    # diagonal S scales the normals element by element: the bits of the
    # full-tile Z @ s_sqrt.T, last tile zero-padded, that dense S uses
    d = 100
    inst = make_power_law_instance(PowerLawSpec(d=d, a=2.0, s=1.0, r=0.0), seed=0)
    s_sqrt = psd_roots(inst.S)[0]
    factor = inst.source_factor
    assert factor.ndim == 1 and np.array_equal(factor, np.diag(s_sqrt))
    padded = -(-n // SAMPLE_TILE) * SAMPLE_TILE
    Z = np.zeros((padded, d + 1))
    Z[:n] = np.random.default_rng(3).standard_normal((n, d + 1))
    X = np.concatenate([
        Z[a : a + SAMPLE_TILE, :d] @ s_sqrt.T for a in range(0, padded, SAMPLE_TILE)
    ])
    y = np.concatenate([
        X[a : a + SAMPLE_TILE] @ inst.w_star for a in range(0, padded, SAMPLE_TILE)
    ])[:n] + np.sqrt(inst.sigma2) * Z[:n, d]
    got = sample_source(inst, n, seed=3)
    assert np.array_equal(got.X, X[:n]) and np.array_equal(got.y, y)


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal_S", "dense_S"])
def test_sample_source_prefix_is_the_shorter_draw(dense):
    # every product is a full zero-padded tile, so a row's bits do not
    # depend on where the draw ends: an m-row draw is the first m rows of
    # an n-row draw from the same seed
    d, n = 100, 1101
    if dense:
        inst = rand_instance(17, d=d)
    else:
        inst = make_power_law_instance(PowerLawSpec(d=d, a=2.0, s=1.0, r=0.0), seed=0)
    assert inst.source_factor.ndim == (2 if dense else 1)
    whole = sample_source(inst, n, seed=3)
    for m in (1, 53, 100, 255, 256, 257, 769, 1100):
        part = sample_source(inst, m, seed=3)
        assert np.array_equal(part.X, whole.X[:m]), m
        assert np.array_equal(part.y, whole.y[:m]), m


def test_source_factor_diagonal_check_is_exact():
    def factor(S):
        return ProblemInstance(
            S=S, T=np.eye(3), M=np.eye(3), w_star=np.zeros(3), sigma2=1.0
        ).source_factor

    S = np.diag([1.0, 0.25, 0.5])
    assert factor(S).ndim == 1
    S[0, 1] = S[1, 0] = 1e-300  # below any tolerance, still off-diagonal
    assert factor(S).ndim == 2


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


def test_the_data_law_is_the_gaussian_design_and_not_settable():
    inst = rand_instance(17)
    assert inst.psi == ProblemInstance.psi == 3.0
    doc = instance_to_json(inst)
    assert doc["type"] == "explicit" and "psi" not in doc and "noise" not in doc
    with pytest.raises(TypeError):
        ProblemInstance(S=inst.S, T=inst.T, M=inst.M, w_star=inst.w_star, sigma2=1.0, psi=2.0)
    with pytest.raises(TypeError):
        make_power_law_instance(PowerLawSpec(d=3, a=2.0, s=1.0, r=0.0), seed=0,
                                noise="rademacher")
    for stated, message in (({"psi": 2.0}, "psi must be 3.0"), ({"noise": "rademacher"}, "noise")):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(kind="duality", instance={**doc, **stated}, n_grid=(8,), seeds=1)
    back = instance_from_json(json.dumps({**doc, "psi": 3, "noise": "gaussian"}))
    assert np.array_equal(sample_source(back, 8, 0).y, sample_source(inst, 8, 0).y)


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(S=np.eye(2), T=np.eye(3), M=np.eye(2), w_star=np.zeros(2), sigma2=1.0)
    with pytest.raises(ValueError):
        ProblemInstance(S=np.eye(2), T=np.eye(2), M=np.eye(2), w_star=np.zeros(2), sigma2=-1.0)
    with pytest.raises(NotPSD):
        ProblemInstance(
            S=np.diag([1.0, -1.0]), T=np.eye(2), M=np.eye(2), w_star=np.zeros(2), sigma2=1.0
        )
    with pytest.raises(NotPSD, match="M must be positive definite"):
        ProblemInstance(
            S=np.eye(2), T=np.eye(2), M=np.diag([1.0, -0.5]), w_star=np.zeros(2), sigma2=1.0
        )
    with pytest.raises(ValueError):
        # w_star outside the unit M-ellipsoid
        ProblemInstance(
            S=np.eye(2), T=np.eye(2), M=np.eye(2), w_star=np.array([2.0, 0.0]), sigma2=1.0
        )


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,value,message", [
    ("S", [[NAN, 0.0], [0.0, 1.0]], "finite entries"),
    ("T", [[1.0, NAN], [NAN, 1.0]], "finite entries"),
    ("M", [[1.0, 0.0], [0.0, INF]], "finite entries"),
    ("w_star", [NAN, 0.0], "finite entries"),
    ("sigma2", NAN, "sigma2 must be finite and >= 0"),
    ("sigma2", INF, "sigma2 must be finite and >= 0"),
], ids=["nan-S", "nan-T", "infinite-M", "nan-w_star", "nan-sigma2", "infinite-sigma2"])
def test_instance_refuses_nan_and_infinite_values(field, value, message):
    args = dict(S=np.eye(2), T=np.eye(2), M=np.eye(2), w_star=np.zeros(2), sigma2=1.0)
    args[field] = np.array(value) if field != "sigma2" else value
    with pytest.raises(ValueError, match=message):
        ProblemInstance(**args)


def test_power_law_spec_refuses_a_nan_exponent():
    with pytest.raises(ValueError, match="a must be > 1"):
        PowerLawSpec(d=4, a=NAN, s=1.0, r=0.0)


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
