import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covshift import asgd
from covshift.asgd import (
    ASGDConfig,
    InfeasibleSchedule,
    choose_parameters,
    choose_rate_parameters,
    effective_dimension,
    risk_bound,
    run,
    run_batch,
)
from covshift.model import (
    PowerLawSpec,
    ProblemInstance,
    make_power_law_instance,
    sample_source,
)


def power_law(d=100, n_seed=0, sigma2=1.0):
    return make_power_law_instance(
        PowerLawSpec(d=d, a=2.0, s=1.0, r=0.0), seed=n_seed, sigma2=sigma2
    )


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError):
        ASGDConfig(n=1, delta0=0.1, gamma0=0.1, alpha=0.5, beta=1.0)
    with pytest.raises(ValueError):
        ASGDConfig(n=64, delta0=0.0, gamma0=0.1, alpha=0.5, beta=1.0)
    with pytest.raises(ValueError):
        ASGDConfig(n=64, delta0=0.2, gamma0=0.1, alpha=0.5, beta=1.0)  # gamma < delta
    with pytest.raises(ValueError):
        ASGDConfig(n=64, delta0=0.1, gamma0=0.1, alpha=0.5, beta=0.0)
    with pytest.raises(ValueError):
        ASGDConfig(n=64, delta0=0.1, gamma0=0.1, alpha=1.5, beta=1.0)


def test_config_step_momentum_identity():
    # the exact identity (q - c delta)/(1 - c) = (gamma + delta)/2 holds in
    # two regimes: alpha = 1/(1+beta) with any step pair, or gamma = delta
    cfg = ASGDConfig(n=64, delta0=0.01, gamma0=0.5, alpha=1 / 1.25, beta=0.25)
    lhs = (cfg.q - cfg.c * cfg.delta0) / (1 - cfg.c)
    assert lhs == pytest.approx((cfg.gamma0 + cfg.delta0) / 2, abs=1e-15)
    cfg = ASGDConfig(n=64, delta0=0.3, gamma0=0.3, alpha=0.7, beta=0.3)
    assert cfg.vanilla_sgd
    # inconsistent constants are rejected
    with pytest.raises(ValueError):
        ASGDConfig(n=64, delta0=0.01, gamma0=0.5, alpha=0.9, beta=0.25)


def test_stage_ladder():
    cfg = ASGDConfig(n=2**8, delta0=0.08, gamma0=0.4, alpha=1 / 1.5, beta=0.5)
    assert cfg.stages == 8
    assert cfg.stage_len == 2**8 // 8
    for ell in (1, 2, 5):
        delta, gamma, q = cfg.stage_steps(ell)
        scale = 4.0 ** -(ell - 1)
        assert delta == pytest.approx(cfg.delta0 * scale, rel=1e-15)
        assert gamma == pytest.approx(cfg.gamma0 * scale, rel=1e-15)
        assert q == pytest.approx(cfg.q * scale, rel=1e-15)


def test_config_json_fields():
    cfg = ASGDConfig(n=2**6, delta0=0.1, gamma0=0.1, alpha=0.5, beta=1.0)
    doc = cfg.to_json()
    rebuilt = ASGDConfig(
        n=doc["n"], delta0=doc["delta0"], gamma0=doc["gamma0"],
        alpha=doc["alpha"], beta=doc["beta"],
    )
    assert rebuilt == cfg
    assert doc["stages"] == cfg.stages and doc["stage_len"] == cfg.stage_len


# -------------------------------------------------- parameter selection


def test_choose_parameters_pinned_values():
    # frozen from an independent flat recomputation of the schedule
    # constants at d=100, a=2, n=2^10, kappa_tilde=10
    inst = power_law()
    cfg = choose_parameters(inst, 2**10, kappa_tilde=10, require_admissible=False)
    assert cfg.delta0 == pytest.approx(1.344288508368828e-05, rel=1e-12)
    assert cfg.gamma0 == pytest.approx(0.00025791937066699873, rel=1e-12)
    assert cfg.beta == pytest.approx(5.72775583692933e-08, rel=1e-12)
    assert cfg.alpha == pytest.approx(1 / (1 + cfg.beta), rel=1e-15)
    assert cfg.stages == 10
    assert cfg.stage_len == 102


def test_choose_parameters_admissibility_gate():
    inst = power_law()
    with pytest.raises(InfeasibleSchedule) as exc_info:
        choose_parameters(inst, 2**10, kappa_tilde=10)
    assert exc_info.value.ratio == pytest.approx(1.6923452350336718e-06, rel=1e-9)


def test_admissible_property():
    # ratio n(1-c)/(log2 n * ln n) crosses the floor of 16 as n grows
    small = ASGDConfig(n=2**10, delta0=0.1, gamma0=0.1, alpha=0.5, beta=0.5)
    big = ASGDConfig(n=2**12, delta0=0.1, gamma0=0.1, alpha=0.5, beta=0.5)
    assert not small.admissible
    assert big.admissible


def test_choose_rate_parameters_schedule():
    inst = power_law(d=50)
    base = 1.0 / (inst.psi * np.trace(inst.S))
    cfg = choose_rate_parameters(inst, 2**11)  # a=2, s=1, r=0 -> exponent -1/3
    assert cfg.delta0 == cfg.gamma0
    assert cfg.delta0 == pytest.approx(base * (2**11 / 256) ** (-1 / 3), rel=1e-12)
    assert (cfg.alpha, cfg.beta) == (0.5, 1.0)
    # below n_ref the step saturates at base instead of extrapolating up
    cfg_small = choose_rate_parameters(inst, 2**6)
    assert cfg_small.delta0 == pytest.approx(base, rel=1e-12)
    # explicit overrides are honored
    cfg_o = choose_rate_parameters(inst, 2**11, base=0.01, exponent=-0.5, n_ref=512)
    assert cfg_o.delta0 == pytest.approx(0.01 * (2**11 / 512) ** -0.5, rel=1e-12)


# ------------------------------------------------------------- risk bound


def test_risk_bound_pinned_values():
    # frozen from the same flat recomputation as the parameter pins
    inst = power_law()
    cfg = choose_parameters(inst, 2**10, kappa_tilde=10, require_admissible=False)
    rb = risk_bound(inst, cfg)
    assert rb.k_star == 0
    assert rb.K == 102 and rb.stages == 10
    assert not rb.admissible
    assert rb.effective_variance == pytest.approx(0.00020811139872779975, rel=1e-10)
    assert rb.effective_bias == pytest.approx(4.0, rel=1e-12)
    assert rb.total == pytest.approx(4.000208111398728, rel=1e-10)


def test_risk_bound_is_sum_of_terms():
    inst = power_law(d=30)
    cfg = choose_parameters(inst, 2**9, kappa_tilde=5, require_admissible=False)
    rb = risk_bound(inst, cfg)
    assert rb.effective_variance == pytest.approx(
        rb.variance_head + rb.variance_tail, rel=1e-12
    )
    assert rb.effective_bias == pytest.approx(rb.bias_head + rb.bias_tail, rel=1e-12)
    assert rb.total == pytest.approx(rb.effective_variance + rb.effective_bias, rel=1e-12)
    assert rb.k_star == effective_dimension(cfg, np.diag(inst.S))


def test_risk_bound_dominates_population_run():
    inst = power_law(d=30)
    cfg = choose_parameters(inst, 2**9, kappa_tilde=5, require_admissible=False)
    rb = risk_bound(inst, cfg)
    traj = run(inst, cfg, population=True)
    assert traj.risks[-1] <= rb.total


def test_effective_dimension_monotone_in_steps():
    cfg_small = ASGDConfig(n=2**10, delta0=1e-4, gamma0=1e-4, alpha=0.5, beta=1.0)
    cfg_big = ASGDConfig(n=2**10, delta0=0.3, gamma0=0.3, alpha=0.5, beta=1.0)
    lam = np.arange(1, 40.0) ** -2.0
    assert effective_dimension(cfg_small, lam) <= effective_dimension(cfg_big, lam)
    k = effective_dimension(cfg_big, lam)
    thresh = 32 * math.log(2**10) / ((cfg_big.gamma0 + cfg_big.delta0) * cfg_big.stage_len)
    assert k == int(np.sum(lam > thresh))


# ------------------------------------------------------------------- runs


def test_vanilla_schedule_collapses_to_sgd():
    # gamma0 = delta0 forces v to track w exactly, so the two-sequence
    # recursion is bit-for-bit a plain SGD ladder regardless of alpha, beta
    inst = power_law(d=5)
    step = 1.0 / (inst.psi * np.trace(inst.S))
    cfg = ASGDConfig(n=2**6, delta0=step, gamma0=step, alpha=0.7, beta=0.3)
    traj = run(inst, cfg, seed=9)
    samples = sample_source(inst, cfg.n, 9)
    w = np.zeros(5)
    t = 0
    for ell in range(1, cfg.stages + 1):
        delta = step / 4 ** (ell - 1)
        for _ in range(cfg.stage_len):
            x = samples.X[t]
            w = w - delta * ((x @ w - samples.y[t]) * x)
            t += 1
    assert np.array_equal(traj.final_w, w)
    assert np.array_equal(traj.final_v, w)
    assert traj.n_used == t


def test_run_is_deterministic_and_seed_sensitive():
    inst = power_law(d=10)
    cfg = choose_rate_parameters(inst, 2**7)
    a = run(inst, cfg, seed=1)
    b = run(inst, cfg, seed=1)
    c = run(inst, cfg, seed=2)
    assert np.array_equal(a.final_w, b.final_w)
    assert not np.array_equal(a.final_w, c.final_w)


def test_population_run_matches_momentum_recursion():
    # noiseless exact-moment gradient: risk should decay monotonically at
    # stage granularity on an easy instance
    inst = power_law(d=10, sigma2=0.0)
    cfg = choose_rate_parameters(inst, 2**9)
    traj = run(inst, cfg, population=True, record_every=0)
    assert len(traj.risks) == cfg.stages
    assert traj.risks[-1] < traj.risks[0]
    assert traj.risks[-1] < 1e-2


def test_recording_controls():
    inst = power_law(d=6)
    cfg = choose_rate_parameters(inst, 2**6)
    only_final = run(inst, cfg, seed=0)
    assert len(only_final.steps) == 1 and only_final.steps[0] == only_final.n_used
    every_step = run(inst, cfg, seed=0, record_every=1, record_iterates=True)
    assert len(every_step.steps) == every_step.n_used
    assert every_step.iterates.shape == (every_step.n_used, 6)
    assert np.array_equal(every_step.iterates[-1], every_step.final_w)
    per_stage = run(inst, cfg, seed=0, record_every=0)
    assert len(per_stage.steps) == cfg.stages
    assert np.array_equal(per_stage.steps, np.cumsum([cfg.stage_len] * cfg.stages))
    # stage boundaries cover [0, n_used] in stage_len strides
    assert per_stage.stage_boundaries[0] == 0
    assert per_stage.stage_boundaries[-1] == per_stage.n_used
    assert len(per_stage.stage_boundaries) == cfg.stages + 1


def test_run_batch_matches_single_runs():
    inst = power_law(d=8)
    cfg = choose_rate_parameters(inst, 2**7)
    seeds = list(range(12))
    batch = run_batch(inst, cfg, seeds)
    singles = np.array([run(inst, cfg, seed=s).risks[-1] for s in seeds])
    assert np.array_equal(batch, singles)
    assert batch.shape == (12,)


def rotated(d, seed=0):
    base = power_law(d=d)
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    Q = Q * np.sign(np.diag(R))
    return ProblemInstance(
        S=Q @ base.S @ Q.T, T=Q @ base.T @ Q.T, M=Q @ base.M @ Q.T,
        w_star=Q @ base.w_star, sigma2=base.sigma2,
    )


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal_S", "dense_S"])
def test_run_batch_grouping_invariant(dense, monkeypatch):
    # rows never interact and every seed owns its sample stream, so neither
    # how the seeds are grouped into calls nor the time-block length the
    # sample budget implies may change a bit
    inst = rotated(12) if dense else power_law(d=12)
    cfg = ASGDConfig(n=1000, delta0=0.01, gamma0=0.05, alpha=1 / 1.01, beta=0.01)
    seeds = list(range(7))
    whole = run_batch(inst, cfg, seeds)
    parts = np.concatenate([run_batch(inst, cfg, p) for p in ([0, 1, 2], [3], [4, 5, 6])])
    assert np.array_equal(whole, parts)
    monkeypatch.setattr(asgd, "SAMPLE_BUDGET", 1)  # one sample tile per block
    assert np.array_equal(whole, run_batch(inst, cfg, seeds))
    assert run(inst, cfg, seed=4).risks[-1] == whole[4]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.1, 1.0), st.floats(0.05, 1.0))
def test_identity_holds_for_momentum_family(seed, beta, ratio):
    # alpha = 1/(1+beta) satisfies the schedule identity for any step pair
    rng = np.random.default_rng(seed)
    gamma0 = float(rng.uniform(0.01, 1.0))
    delta0 = gamma0 * ratio
    cfg = ASGDConfig(n=64, delta0=delta0, gamma0=gamma0, alpha=1 / (1 + beta), beta=beta)
    lhs = (cfg.q - cfg.c * cfg.delta0) / (1 - cfg.c)
    assert lhs == pytest.approx((cfg.gamma0 + cfg.delta0) / 2, abs=1e-13)
