import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covshift import asgd
from covshift.asgd import (
    ASGDConfig,
    InfeasibleSchedule,
    admissibility_ratio,
    choose_parameters,
    choose_rate_parameters,
    effective_dimension,
    risk_bound,
    run,
    run_batch,
    run_grid,
)
from covshift.model import (
    SAMPLE_TILE,
    PowerLawSpec,
    ProblemInstance,
    excess_risk,
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
        ASGDConfig(n=1, delta0=0.1, gamma0=0.1, beta=1.0)
    with pytest.raises(ValueError):
        ASGDConfig(n=64, delta0=0.0, gamma0=0.1, beta=1.0)
    with pytest.raises(ValueError):
        ASGDConfig(n=64, delta0=0.2, gamma0=0.1, beta=1.0)  # gamma < delta
    with pytest.raises(ValueError):
        ASGDConfig(n=64, delta0=0.1, gamma0=0.1, beta=0.0)
    with pytest.raises(ValueError):
        ASGDConfig(n=64, delta0=0.1, gamma0=0.1, beta=1.5)


def test_config_step_momentum_identity():
    # alpha is derived, so the exact identity
    # (q - c delta)/(1 - c) = (gamma + delta)/2 holds for any step pair
    cfg = ASGDConfig(n=64, delta0=0.01, gamma0=0.5, beta=0.25)
    lhs = (cfg.q - cfg.c * cfg.delta0) / (1 - cfg.c)
    assert lhs == pytest.approx((cfg.gamma0 + cfg.delta0) / 2, abs=1e-15)
    assert ASGDConfig(n=64, delta0=0.3, gamma0=0.3, beta=0.3).vanilla_sgd
    for beta in (0.25, 0.3, 5.72775583692933e-08, 1.0):
        assert ASGDConfig(n=64, delta0=0.01, gamma0=0.5, beta=beta).alpha == 1.0 / (1.0 + beta)
    # alpha is not a constructor argument
    with pytest.raises(TypeError, match="alpha"):
        ASGDConfig(n=64, delta0=0.01, gamma0=0.5, beta=0.25, **{"alpha": 0.8})


def threshold_from_momentum(cfg):
    # the form of k*'s threshold that reads c and q: equal to
    # 32 ln n / ((gamma0 + delta0) K) in exact arithmetic
    ln_n = math.log(cfg.n)
    return 16.0 * (1.0 - cfg.c) * ln_n / ((cfg.q - cfg.c * cfg.delta0) * cfg.stage_len)


def assert_threshold_forms_agree(inst, cfg):
    lam = inst.eig_S.eigenvalues
    assert effective_dimension(cfg, lam) == int(np.sum(lam > threshold_from_momentum(cfg)))


def test_choose_parameters_builds_consistent_configs_on_small_instances():
    # d = 8: beta ~ 4e-8, so 1 - c ~ 8e-8 divides the rounding of the
    # momentum form; both forms still count the same k* at every n
    inst = power_law(d=8, sigma2=0.5)
    for n in range(16, 300):
        assert_threshold_forms_agree(inst, choose_parameters(inst, n, require_admissible=False))


def test_effective_dimension_threshold_forms_agree_on_a_rotated_instance():
    inst = rotated(100)  # the bound benchmark's seed-0 instance
    for n in (2**12, 2**14, 2**16):
        assert_threshold_forms_agree(inst, choose_parameters(inst, n, require_admissible=False))


def test_stage_ladder():
    cfg = ASGDConfig(n=2**8, delta0=0.08, gamma0=0.4, beta=0.5)
    assert cfg.stages == 8
    assert cfg.stage_len == 2**8 // 8
    for ell in (1, 2, 5):
        delta, gamma, q = cfg.stage_steps(ell)
        scale = 4.0 ** -(ell - 1)
        assert delta == pytest.approx(cfg.delta0 * scale, rel=1e-15)
        assert gamma == pytest.approx(cfg.gamma0 * scale, rel=1e-15)
        assert q == pytest.approx(cfg.q * scale, rel=1e-15)


# -------------------------------------------------- parameter selection


def test_choose_parameters_pinned_values():
    # frozen from an independent flat recomputation of the schedule
    # constants at d=100, a=2, n=2^10, kappa-tilde min(10, d - 1) = 10
    inst = power_law()
    cfg = choose_parameters(inst, 2**10, require_admissible=False)
    assert cfg.delta0 == pytest.approx(1.344288508368828e-05, rel=1e-12)
    assert cfg.gamma0 == pytest.approx(0.00025791937066699873, rel=1e-12)
    assert cfg.beta == pytest.approx(5.72775583692933e-08, rel=1e-12)
    assert cfg.alpha == 1.0 / (1.0 + cfg.beta)
    assert cfg.stages == 10
    assert cfg.stage_len == 102


def test_choose_parameters_admissibility_gate():
    inst = power_law()
    ratio = admissibility_ratio(choose_parameters(inst, 2**10, require_admissible=False))
    assert ratio == pytest.approx(1.6923452350336718e-06, rel=1e-9)
    with pytest.raises(InfeasibleSchedule, match=f"admissibility ratio {ratio:.3e} < 16.0"):
        choose_parameters(inst, 2**10)


def test_admissible_property():
    # ratio n(1-c)/(log2 n * ln n) crosses the floor of 16 as n grows:
    # 9.85 at 2^10 and 27.4 at 2^12, with c = 1/3
    small = ASGDConfig(n=2**10, delta0=0.1, gamma0=0.1, beta=0.5)
    big = ASGDConfig(n=2**12, delta0=0.1, gamma0=0.1, beta=0.5)
    assert not small.admissible
    assert big.admissible


def test_choose_rate_parameters_schedule():
    inst = power_law(d=50)
    base = 1.0 / (inst.psi * np.trace(inst.S))
    cfg = choose_rate_parameters(inst, 2**11, n_ref=256, exponent=-1 / 3)
    assert cfg.delta0 == cfg.gamma0
    assert cfg.delta0 == pytest.approx(base * (2**11 / 256) ** (-1 / 3), rel=1e-12)
    assert (cfg.alpha, cfg.beta) == (0.5, 1.0)
    # below n_ref the step saturates at base instead of extrapolating up
    cfg_small = choose_rate_parameters(inst, 2**6, n_ref=256, exponent=-1 / 3)
    assert cfg_small.delta0 == pytest.approx(base, rel=1e-12)
    # an explicit base is honored
    cfg_o = choose_rate_parameters(inst, 2**11, base=0.01, exponent=-0.5, n_ref=512)
    assert cfg_o.delta0 == pytest.approx(0.01 * (2**11 / 512) ** -0.5, rel=1e-12)


def test_choose_parameters_refuses_one_direction():
    # kappa-tilde is min(10, d - 1): at d = 1 no direction is left for gamma'
    inst = make_power_law_instance(PowerLawSpec(d=1, a=2.0, s=1.0, r=0.0), seed=0)
    with pytest.raises(ValueError, match=r"the momentum schedule needs d >= 2, not d = 1"):
        choose_parameters(inst, 2**6, require_admissible=False)


@pytest.mark.parametrize("exponent", [1e12], ids=["overflow"])
def test_choose_rate_parameters_refuses_a_schedule_it_cannot_scale(exponent):
    # (64/16)^(1e12) overflows a float
    inst = power_law(d=10)
    with pytest.raises(ValueError, match="no rate schedule at n = 64, n_ref = 16: "):
        choose_rate_parameters(inst, 64, n_ref=16, exponent=exponent)


# ------------------------------------------------------------- risk bound


def test_risk_bound_pinned_values():
    # frozen from the same flat recomputation as the parameter pins
    inst = power_law()
    cfg = choose_parameters(inst, 2**10, require_admissible=False)
    rb = risk_bound(inst, cfg)
    assert rb.k_star == 0
    assert (cfg.stage_len, cfg.stages) == (102, 10)
    assert not cfg.admissible
    assert rb.effective_variance == pytest.approx(0.00020811139872779975, rel=1e-10)
    assert rb.effective_bias == pytest.approx(4.0, rel=1e-12)
    assert rb.total == pytest.approx(4.000208111398728, rel=1e-10)


def test_risk_bound_is_sum_of_terms():
    inst = power_law(d=30)
    cfg = choose_parameters(inst, 2**9, require_admissible=False)
    rb = risk_bound(inst, cfg)
    assert rb.total == pytest.approx(rb.effective_variance + rb.effective_bias, rel=1e-12)
    assert rb.k_star == effective_dimension(cfg, np.diag(inst.S))


def test_risk_bound_dominates_population_run():
    inst = power_law(d=30)
    cfg = choose_parameters(inst, 2**9, require_admissible=False)
    rb = risk_bound(inst, cfg)
    traj = run(inst, cfg, population=True)
    assert excess_risk(inst, traj.final_w) <= rb.total


def test_effective_dimension_monotone_in_steps():
    cfg_small = ASGDConfig(n=2**10, delta0=1e-4, gamma0=1e-4, beta=1.0)
    cfg_big = ASGDConfig(n=2**10, delta0=0.3, gamma0=0.3, beta=1.0)
    lam = np.arange(1, 40.0) ** -2.0
    assert effective_dimension(cfg_small, lam) <= effective_dimension(cfg_big, lam)
    k = effective_dimension(cfg_big, lam)
    thresh = 32 * math.log(2**10) / ((cfg_big.gamma0 + cfg_big.delta0) * cfg_big.stage_len)
    assert k == int(np.sum(lam > thresh))


# ------------------------------------------------------------------- runs


def test_vanilla_schedule_collapses_to_sgd():
    # gamma0 = delta0 forces v to track w exactly, so the two-sequence
    # recursion is bit-for-bit a plain SGD ladder regardless of beta
    inst = power_law(d=5)
    step = 1.0 / (inst.psi * np.trace(inst.S))
    cfg = ASGDConfig(n=2**6, delta0=step, gamma0=step, beta=0.3)
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


def test_two_sequence_recursion_keeps_v_equal_to_w_when_gamma_is_delta():
    # the kernel steps only w under plain SGD; the full u/v recursion, run
    # here, must keep v == w bit for bit and land on run()'s iterates
    inst = power_law(d=5)
    step = 1.0 / (inst.psi * np.trace(inst.S))
    cfg = ASGDConfig(n=2**8, delta0=step, gamma0=step, beta=0.3)
    traj = run(inst, cfg, seed=9, record_iterates=True)
    samples = sample_source(inst, cfg.n, 9)
    w = np.zeros(5)
    v = np.zeros(5)
    t = 0
    for ell in range(1, cfg.stages + 1):
        delta, gamma, _ = cfg.stage_steps(ell)
        for _ in range(cfg.stage_len):
            x = samples.X[t]
            u = w + (1.0 - cfg.alpha) * (v - w)
            g = (x @ u - samples.y[t]) * x
            w = u - delta * g
            v = (v + cfg.beta * (u - v)) - gamma * g
            t += 1
        assert np.array_equal(v, w)
        assert np.array_equal(traj.iterates[ell * cfg.stage_len - 1], w)
    assert traj.iterates.shape == (t, 5)
    assert np.array_equal(traj.final_w, w)


def test_plain_sgd_iterates_do_not_depend_on_beta():
    # gamma0 = delta0: beta (and alpha = 1/(1+beta)) only mix v into u, and
    # v equals w, so every iterate is the same bits for any beta
    inst = power_law(d=5)
    step = 1.0 / (inst.psi * np.trace(inst.S))
    a, b = (run(inst, ASGDConfig(n=2**8, delta0=step, gamma0=step, beta=beta), seed=9,
                record_iterates=True) for beta in (0.3, 1.0))
    assert np.array_equal(a.iterates, b.iterates)


def test_run_is_deterministic_and_seed_sensitive():
    inst = power_law(d=10)
    cfg = choose_rate_parameters(inst, 2**7, n_ref=256, exponent=-1 / 3)
    a = run(inst, cfg, seed=1)
    b = run(inst, cfg, seed=1)
    c = run(inst, cfg, seed=2)
    assert np.array_equal(a.final_w, b.final_w)
    assert not np.array_equal(a.final_w, c.final_w)


def test_population_run_matches_momentum_recursion():
    # noiseless exact-moment gradient: risk should decay monotonically at
    # stage granularity on an easy instance
    inst = power_law(d=10, sigma2=0.0)
    cfg = choose_rate_parameters(inst, 2**9, n_ref=256, exponent=-1 / 3)
    traj = run(inst, cfg, population=True, record_iterates=True)
    ends = traj.iterates[cfg.stage_len - 1 :: cfg.stage_len]
    risks = [excess_risk(inst, w) for w in ends]
    assert len(risks) == cfg.stages
    assert np.array_equal(ends[-1], traj.final_w)
    assert risks[-1] < risks[0]
    assert risks[-1] < 1e-2


def test_run_batch_matches_single_runs():
    inst = power_law(d=8)
    cfg = choose_rate_parameters(inst, 2**7, n_ref=256, exponent=-1 / 3)
    seeds = list(range(12))
    batch = run_batch(inst, cfg, seeds)
    singles = np.array([excess_risk(inst, run(inst, cfg, seed=s).final_w) for s in seeds])
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
def test_run_batch_grouping_invariant(dense):
    # rows never interact and every seed owns its sample stream, so how the
    # seeds are grouped into calls may not change a bit
    inst = rotated(12) if dense else power_law(d=12)
    cfg = ASGDConfig(n=1000, delta0=0.01, gamma0=0.05, beta=0.01)
    seeds = list(range(7))
    whole = run_batch(inst, cfg, seeds)
    parts = np.concatenate([run_batch(inst, cfg, p) for p in ([0, 1, 2], [3], [4, 5, 6])])
    assert np.array_equal(whole, parts)
    assert excess_risk(inst, run(inst, cfg, seed=4).final_w) == whole[4]


def test_parallel_tile_fill_changes_no_bit(monkeypatch):
    # diagonal S: the seeds are split into one block per worker of a thread
    # pool when every block gets POOL_MIN_SEEDS seeds, and each worker draws
    # and steps its block alone; n = 600 leaves a ragged tile
    inst = power_law(d=20)
    cfg = ASGDConfig(n=600, delta0=0.01, gamma0=0.05, beta=0.01)
    seeds = list(range(40))
    pools, submits, joined = [], [], []

    class RecordingPool(asgd.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

        def submit(self, fn, block, *args):
            submits.append(len(block))
            return super().submit(fn, block, *args)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            joined.append(wait)

    monkeypatch.setattr(asgd, "ThreadPoolExecutor", RecordingPool)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter between threads often
    try:
        for cores in (1, 4):
            monkeypatch.setattr(asgd.os, "sched_getaffinity",
                                lambda pid, k=cores: set(range(k)), raising=False)
            results[cores] = run_batch(inst, cfg, seeds)
    finally:
        sys.setswitchinterval(interval)
    # 1 core: inline; 4 cores: min(4, 40 // 16) = 2 workers, each handed
    # one block of 20 seeds for the whole call, joined when the call ends
    assert (pools, submits, joined) == ([2], [20, 20], [True])
    singles = np.array([excess_risk(inst, run(inst, cfg, seed=s).final_w) for s in seeds])
    assert np.array_equal(results[1], results[4])
    assert np.array_equal(results[4], singles)


def test_an_error_in_one_seed_block_raises_from_run_batch(monkeypatch):
    # the second of two 20-seed blocks fails in its draw; the caller must
    # see the worker's error, not rows with a block missing
    inst = power_law(d=20)
    cfg = choose_rate_parameters(inst, 300, n_ref=256, exponent=-1 / 3)
    failed_on = []

    def failing(inst, n, rng):
        if rng.bit_generator.seed_seq.entropy == 37:
            failed_on.append(threading.current_thread())
            raise RuntimeError("draw failed")
        return sample_source(inst, n, rng)

    monkeypatch.setattr(asgd, "sample_source", failing)
    monkeypatch.setattr(asgd.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    with pytest.raises(RuntimeError, match="draw failed"):
        run_batch(inst, cfg, range(40))
    assert len(failed_on) == 1 and failed_on[0] is not threading.main_thread()


# grids off and below SAMPLE_TILE, unsorted, with a repeated n, and one config
GRIDS = [
    (64, 100, 300, 769),
    (53, 69, 300, 769),
    (16, 61, 259, 517),
    (300, 1101),
    (40, 50),
    (769, 64, 300, 100),
    (300, 64, 300),
    (517,),
]


def grid_configs(inst, grid, schedule):
    if schedule == "sgd":
        return [choose_rate_parameters(inst, n, n_ref=min(grid), exponent=-1 / 3) for n in grid]
    if schedule == "momentum":
        return [choose_parameters(inst, n, require_admissible=False) for n in grid]
    # mixed: plain SGD and momentum schedules in one call
    return [
        choose_rate_parameters(inst, n, n_ref=min(grid), exponent=-1 / 3) if k % 2
        else choose_parameters(inst, n, require_admissible=False)
        for k, n in enumerate(grid)
    ]


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "-".join(map(str, g)))
@pytest.mark.parametrize("schedule", ["sgd", "momentum"])
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal_S", "dense_S"])
def test_run_grid_rows_are_run_batch_bits(dense, schedule, grid):
    # each schedule reads a prefix of the seeds' shared streams; its rows
    # must be the bits of run_batch for that schedule alone, also where its
    # own draw ends in a shorter tile than the shared one
    inst = rotated(100) if dense else power_law(d=100)
    cfgs = grid_configs(inst, grid, schedule)
    seeds = [3, 1, 4]
    got = run_grid(inst, cfgs, seeds)
    assert got.shape == (len(cfgs), len(seeds))
    for row, cfg in zip(got, cfgs):
        assert np.array_equal(row, run_batch(inst, cfg, seeds))


def test_run_grid_mixes_plain_and_momentum_schedules():
    inst = rotated(30)
    cfgs = grid_configs(inst, (64, 100, 300, 769), "mixed")
    assert {cfg.vanilla_sgd for cfg in cfgs} == {True, False}
    got = run_grid(inst, cfgs, range(4))
    for row, cfg in zip(got, cfgs):
        assert np.array_equal(row, run_batch(inst, cfg, range(4)))


def test_run_grid_pooled_fill_changes_no_bit(monkeypatch):
    # diagonal S with 40 seeds: two 20-seed blocks each run every schedule
    # on a 2-worker pool at 4 cores, and one inline kernel at 1; neither may
    # change a bit
    inst = power_law(d=20)
    cfgs = grid_configs(inst, (100, 300, 600), "momentum")
    seeds = list(range(40))
    submits = []

    class RecordingPool(asgd.ThreadPoolExecutor):
        def submit(self, fn, block, *args):
            submits.append(len(block))
            return super().submit(fn, block, *args)

    monkeypatch.setattr(asgd, "ThreadPoolExecutor", RecordingPool)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter between threads often
    try:
        for cores in (1, 4):
            monkeypatch.setattr(asgd.os, "sched_getaffinity",
                                lambda pid, k=cores: set(range(k)), raising=False)
            results[cores] = run_grid(inst, cfgs, seeds)
    finally:
        sys.setswitchinterval(interval)
    # one submit per block, for the whole grid
    assert submits == [20, 20]
    assert np.array_equal(results[1], results[4])
    for row, cfg in zip(results[4], cfgs):
        assert np.array_equal(row, run_batch(inst, cfg, seeds))


def test_run_grid_draws_the_largest_n_once_per_seed(monkeypatch):
    # each seed draws max n rows, in whole tiles: on n = 2^8..2^11 and on
    # criterion 8's grid 2^3..2^13, whose n below SAMPLE_TILE read a prefix
    # of the first tile; one run_batch per n would draw sum n rows
    drawn = []

    def counting(inst, n, seed):
        drawn.append(n)
        return sample_source(inst, n, seed)

    inst = power_law(d=100)
    seeds = [0, 1]
    monkeypatch.setattr(asgd, "sample_source", counting)
    for exponents in (range(8, 12), range(3, 14)):
        drawn.clear()
        cfgs = [choose_rate_parameters(inst, 2**k, n_ref=256, exponent=-1 / 3) for k in exponents]
        run_grid(inst, cfgs, seeds)
        n_max = 2 ** max(exponents)
        assert sum(drawn) == n_max * len(seeds)
        assert drawn == [SAMPLE_TILE] * (n_max // SAMPLE_TILE * len(seeds))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.1, 1.0), st.floats(0.05, 1.0))
def test_identity_holds_for_momentum_family(seed, beta, ratio):
    # the derived alpha = 1/(1+beta) satisfies the schedule identity for any
    # step pair
    rng = np.random.default_rng(seed)
    gamma0 = float(rng.uniform(0.01, 1.0))
    delta0 = gamma0 * ratio
    cfg = ASGDConfig(n=64, delta0=delta0, gamma0=gamma0, beta=beta)
    lhs = (cfg.q - cfg.c * cfg.delta0) / (1 - cfg.c)
    assert lhs == pytest.approx((cfg.gamma0 + cfg.delta0) / 2, abs=1e-13)
