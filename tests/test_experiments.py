import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covshift
from covshift import asgd, experiments, lowerbound, model
from covshift.estimators import DEFAULT_BIAS_COEFF, default_noise_coeff, eval_upper_objective
from covshift.lowerbound import MaxIterationsError, maximize_F
from covshift.experiments import (
    ExperimentSpec,
    resolve_instance,
    run_bound_check,
    run_duality,
    run_emergence,
    run_rate_sweep,
    spec_from_json,
    spec_hash,
    spec_to_json,
)
from covshift.model import instance_to_json, make_power_law_instance, PowerLawSpec, whiten
from covshift.precond import PrecondProgram, solve_general, solve_stack


def powerlaw_desc(**over):
    desc = {"type": "powerlaw", "d": 8, "a": 2.0, "s": 1.0, "r": 0.0, "sigma2": 0.5, "seed": 0}
    desc.update(over)
    return desc


# ------------------------------------------------------------------- specs


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(kind="nope", instance=powerlaw_desc(), n_grid=(8, 16), seeds=2)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="duality", instance=powerlaw_desc(), n_grid=(16, 8), seeds=2)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="duality", instance=powerlaw_desc(), n_grid=(), seeds=2)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="duality", instance=powerlaw_desc(), n_grid=(8,), seeds=0)
    for path in (1, True, 5):  # open() would take an int for a file descriptor
        with pytest.raises(ValueError, match="output_path must be a string"):
            ExperimentSpec(kind="duality", instance=powerlaw_desc(), n_grid=(8,), seeds=1,
                           output_path=path)
    obj = spec_to_json(ExperimentSpec(kind="duality", instance=powerlaw_desc(), n_grid=(8,),
                                      seeds=1))
    with pytest.raises(ValueError, match=r"the spec has keys nothing reads: \['parmas'\]"):
        spec_from_json({**obj, "parmas": {"tol": 0.5}})  # not run with the default tol


def test_walking_a_dense_explicit_spec_checks_a_row_at_a_time(monkeypatch):
    # the bound benchmark's spec: the power-law d = 100 instance in a random
    # eigenbasis, 30,000 matrix entries. Its setup makes this spec, so the
    # walker passes a row of finite floats in one _check call (323 calls),
    # not one call per entry (about 30 ms more)
    base = make_power_law_instance(PowerLawSpec(d=100, a=2.0, s=1.0, r=0.0), seed=0)
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((100, 100)))
    desc = {"type": "explicit", "d": 100, **{key: (Q @ getattr(base, key) @ Q.T).tolist()
                                             for key in ("S", "T", "M")},
            "w_star": (Q @ base.w_star).tolist(), "sigma2": base.sigma2, "psi": base.psi}
    calls = []
    check = experiments._check

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(experiments, "_check", counting)
    ExperimentSpec(kind="bound_check", instance=desc, n_grid=(2**12, 2**14, 2**16), seeds=4,
                   params={"seed_base": 0})
    assert 300 < len(calls) < 1000


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        kind="bound_check",
        instance=powerlaw_desc(d=12),
        n_grid=(2**4, 2**6),
        seeds=3,
        output_path="out.csv",
        params={"seed_base": 7},
    )
    back = spec_from_json(spec_to_json(spec))
    assert back == spec


def test_spec_hash_ignores_output_path_only():
    base = dict(kind="duality", instance=powerlaw_desc(), n_grid=(8, 16), seeds=2)
    a = ExperimentSpec(**base)
    b = ExperimentSpec(**base, output_path="/tmp/x.csv")
    assert spec_hash(a) == spec_hash(b)
    c = ExperimentSpec(**{**base, "seeds": 3})
    d = ExperimentSpec(**{**base, "instance": powerlaw_desc(d=9)})
    assert spec_hash(c) != spec_hash(a)
    assert spec_hash(d) != spec_hash(a)
    assert len(spec_hash(a)) == 12


STUDIES = {"duality": run_duality, "bound_check": run_bound_check,
           "rate_sweep": run_rate_sweep, "emergence": run_emergence}
READS = {
    "duality": ("tol",),
    "bound_check": ("seed_base",),
    "rate_sweep": ("tol", "seed_base"),
    "emergence": ("seed_base", "step_base", "step_n_ref"),
}


@pytest.mark.parametrize("kind", sorted(STUDIES))
def test_study_runs_only_its_own_kind_with_params_it_reads(monkeypatch, kind):
    # a CSV's spec_hash must name the spec that produced its rows: a study
    # refuses a spec of another kind, and any params key it would ignore
    class Checked(Exception):
        pass

    def stop(spec):
        raise Checked

    monkeypatch.setattr(experiments, "resolve_instance", stop)
    run = STUDIES[kind]

    def spec(kind=kind, **params):
        return ExperimentSpec(kind=kind, instance=powerlaw_desc(d0=2),
                              n_grid=(2**6, 2**7, 2**8, 2**9), seeds=2, params=params)

    with pytest.raises(Checked):
        run(spec(**dict.fromkeys(READS[kind], 1)))
    for other in set(STUDIES) - {kind}:
        with pytest.raises(ValueError, match=f"a {kind} study got a '{other}' spec"):
            run(spec(kind=other))
    nowhere = {"sigma2", "kappa_tilde", "step_exponent"}  # keys no study reads
    for key in set().union(*READS.values(), nowhere) - set(READS[kind]):
        with pytest.raises(ValueError, match=f"params has keys nothing reads: \\['{key}'\\]"):
            run(spec(**{key: 1}))


def test_resolve_instance_powerlaw_and_explicit():
    spec = ExperimentSpec(kind="duality", instance=powerlaw_desc(), n_grid=(8,), seeds=1)
    inst = resolve_instance(spec)
    ref = make_power_law_instance(
        PowerLawSpec(d=8, a=2.0, s=1.0, r=0.0), seed=0, sigma2=0.5
    )
    assert np.array_equal(inst.S, ref.S) and np.array_equal(inst.w_star, ref.w_star)
    doc = instance_to_json(ref)
    spec2 = ExperimentSpec(kind="duality", instance=doc, n_grid=(8,), seeds=1)
    inst2 = resolve_instance(spec2)
    assert np.array_equal(inst2.S, ref.S) and inst2.sigma2 == ref.sigma2
    with pytest.raises(ValueError):
        resolve_instance(
            ExperimentSpec(kind="duality", instance={"type": "mystery"}, n_grid=(8,), seeds=1)
        )


@pytest.mark.parametrize("desc", [powerlaw_desc(), instance_to_json(
    make_power_law_instance(PowerLawSpec(d=8, a=2.0, s=1.0, r=1.0), seed=3, sigma2=0.5))],
    ids=["powerlaw", "explicit"])
def test_stating_the_gaussian_law_builds_the_same_instance(desc):
    def build(instance):
        inst = resolve_instance(ExperimentSpec(kind="duality", instance=instance,
                                               n_grid=(8,), seeds=1))
        return inst, model.sample_source(inst, 300, 5)

    (inst, draw), (stated, stated_draw) = build(desc), build(
        dict(desc, psi=3.0, noise="gaussian"))
    for key in ("S", "T", "M", "w_star", "sigma2", "psi"):
        assert np.array_equal(getattr(stated, key), getattr(inst, key))
    assert np.array_equal(stated_draw.X, draw.X) and np.array_equal(stated_draw.y, draw.y)


def test_the_benchmark_specs_are_accepted(monkeypatch):
    # a description key the checks refuse would fail every benchmark operation
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    specs = [workloads.Sweep(0).inputs(0), workloads.Bound(0).inputs(0)]
    specs += [spec for r in range(3) for _, spec, _ in workloads.Certify(0).inputs(r)]
    assert len(specs) == 2 + 3 * 14
    for spec in specs:
        assert resolve_instance(spec).d == spec.instance["d"]


# ----------------------------------------------------------------- duality


def test_run_duality_small_instance(tmp_path):
    out = tmp_path / "duality.csv"
    spec = ExperimentSpec(
        kind="duality",
        instance=powerlaw_desc(d=3),
        n_grid=(16, 64),
        seeds=1,
        output_path=str(out),
    )
    rep = run_duality(spec)
    assert rep.ok and rep.worst_gap <= 1e-4
    assert len(rep.rows) == 2
    h = spec_hash(spec)
    for row in rep.rows:
        assert row["spec_hash"] == h
        assert row["upper_value"] >= row["lower_value"] - 1e-12
        assert row["stop_reason"] in ("converged", "stalled")
        assert 0 <= row["dual_gap"] < 1e-6
    # CSV artifact: two comment lines + column note, then header + rows
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ") and lines[1] == f"# spec_hash={h}"
    assert lines[2].startswith("# n,") or lines[2].startswith("# n ")
    assert len(lines) == 3 + 1 + len(rep.rows)
    header = lines[3].split(",")
    assert "dual_gap" in header and "stop_reason" in header
    reasons = [line.split(",")[header.index("stop_reason")] for line in lines[4:]]
    assert reasons == [row["stop_reason"] for row in rep.rows]


def test_run_duality_singular_target_uses_ladder():
    # rank-1 target: the program is solved down a decreasing ridge ladder
    # and the ridged objectives must decrease monotonically
    inst = make_power_law_instance(PowerLawSpec(d=3, a=2.0, s=1.0, r=0.0), seed=0)
    doc = instance_to_json(inst)
    T = np.zeros((3, 3))
    T[0, 0] = 1.0
    doc["T"] = T.tolist()
    spec = ExperimentSpec(kind="duality", instance=doc, n_grid=(32,), seeds=1)
    rep = run_duality(spec)
    assert rep.ladder_monotone and rep.ok
    eps = [row["epsilon"] for row in rep.rows]
    assert len(eps) == 7 and all(a > b for a, b in zip(eps, eps[1:]))
    uppers = [row["upper_value"] for row in rep.rows]
    assert all(a >= b * (1 - 1e-9) for a, b in zip(uppers, uppers[1:]))


def test_run_duality_on_the_rank_one_target_family():
    # nu = 1 makes T' singular: every n takes the epsilon-ladder
    spec = ExperimentSpec(kind="duality", instance=powerlaw_desc(d=16, nu=1),
                          n_grid=(16, 64), seeds=1)
    rep = run_duality(spec)
    assert rep.ok and rep.ladder_monotone and rep.worst_gap <= 1e-9
    assert len(rep.rows) == 14
    assert {row["stop_reason"] for row in rep.rows} == {"converged"}
    assert [row["n"] for row in rep.rows] == [16] * 7 + [64] * 7


def test_run_duality_certifies_a_dense_d100_instance():
    # the dimension of the SGD studies: S, T and M have the geometric
    # spectrum 2 ... 0.1 in independent random eigenbases
    d = 100
    rng = np.random.default_rng(0)
    spectrum = np.geomspace(2.0, 0.1, d)

    def rotated():
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return (Q * spectrum) @ Q.T

    S, T, M = rotated(), rotated(), rotated()
    doc = {"type": "explicit", "d": d, "S": S.tolist(), "T": T.tolist(),
           "M": M.tolist(), "w_star": [0.0] * d, "sigma2": 1.0, "psi": 3.0}
    rep = run_duality(ExperimentSpec(kind="duality", instance=doc,
                                     n_grid=(64, 1024), seeds=1))
    assert rep.ok and rep.worst_gap <= 1e-4
    assert [row["n"] for row in rep.rows] == [64, 1024]
    for row in rep.rows:
        assert row["epsilon"] == 0.0
        assert row["upper_value"] >= row["lower_value"] > 0


def certify_instance(kind, d, seed):
    """An explicit instance as the certify benchmark draws them: S, M and T
    with the spectrum 2 ... 0.1 in random eigenbases; a rank-d/2 target for
    kind "rank_deficient"."""
    rng = np.random.default_rng(seed)
    spectrum = np.geomspace(2.0, 0.1, d)

    def rotated(eigenvalues):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return (Q * eigenvalues) @ Q.T

    t = spectrum.copy()
    if kind == "rank_deficient":
        t[d // 2:] = 0.0
    S, M, T = rotated(spectrum), rotated(spectrum), rotated(t)
    return {"type": "explicit", "d": d, "S": S.tolist(), "T": T.tolist(),
            "M": M.tolist(), "w_star": [0.0] * d, "sigma2": 1.0, "psi": 3.0}


def record_solve_stack(monkeypatch):
    """Every preconditioner run_duality's solve_stack call returns, in order."""
    solved = []
    real = experiments.solve_stack

    def recording(progs):
        solved.extend(real(progs))
        return solved[-len(progs):]

    monkeypatch.setattr(experiments, "solve_stack", recording)
    return solved


@pytest.mark.parametrize("kind,d", [("rank_deficient", 10), ("dense", 20)])
def test_run_duality_rows_equal_one_solve_general_per_program(monkeypatch, kind, d):
    # the (n, epsilon) programs, each with its triple ridged by the study,
    # are solved in one lockstep stack; every row and certificate keeps the
    # bits of that program's own solve_general
    spec = ExperimentSpec(kind="duality", instance=certify_instance(kind, d, seed=3),
                          n_grid=(64, 1024), seeds=1)
    solved = record_solve_stack(monkeypatch)
    rep = run_duality(spec)
    assert len(rep.rows) == len(solved) == (14 if kind == "rank_deficient" else 2)
    inst = resolve_instance(spec)
    triple = whiten(inst)
    for row, prec in zip(rep.rows, solved):
        prog = PrecondProgram(triple.ridged(row["epsilon"]), DEFAULT_BIAS_COEFF,
                              inst.sigma2 / row["n"])
        try:
            ref = solve_general(prog, tol=1e-4)
        except MaxIterationsError as err:
            ref = err.best
        assert np.array_equal(prec.A, ref.A) and np.array_equal(
            prec.certificate.F, ref.certificate.F)
        cert = ref.certificate
        assert (row["lower_value"], row["upper_value"], row["iterations"], row["dual_gap"],
                row["stop_reason"]) == (cert.value, ref.objective_value, cert.iterations,
                                        cert.gap, cert.stop_reason)
        assert row["relative_gap"] == (ref.objective_value - cert.value) / cert.value


def test_solve_stack_solves_singular_targets_as_given():
    # no ridge: certify's rank-deficient targets (noise sigma2/n and the CLI's
    # moment coefficient) and the rank-one nu = 1 family, each within a
    # relative gap of 1e-6, with the objective of the program as given
    progs = []
    for seed in range(3):
        for d in (2, 5, 10, 20):
            inst = model.instance_from_json(certify_instance("rank_deficient", d, seed))
            for n in (64, 1024):
                progs += [PrecondProgram(whiten(inst), DEFAULT_BIAS_COEFF, noise)
                          for noise in (inst.sigma2 / n, default_noise_coeff(inst, n))]
    for d in (4, 16, 40):
        inst = make_power_law_instance(PowerLawSpec(d=d, a=2.0, s=1.0, r=0.0, nu=1), seed=0)
        progs += [PrecondProgram(whiten(inst), DEFAULT_BIAS_COEFF, inst.sigma2 / n)
                  for n in (64, 1024, 2**14)]
    for prog, prec in zip(progs, solve_stack(progs)):
        assert np.linalg.matrix_rank(prog.triple.T_prime) < prog.triple.d
        assert prec.gap <= 1e-6
        ref = eval_upper_objective(prog.triple, prec.A, prog.noise_coeff, DEFAULT_BIAS_COEFF)
        assert prec.objective_value == ref.objective


def test_run_duality_floors_a_program_out_of_budget_with_its_budget_certificate(monkeypatch):
    # the ladder's longest dual runs out of iterations inside the stack; its
    # row reads the "budget" certificate maximize_F raises with, the others
    # are unchanged
    spec = ExperimentSpec(kind="duality", instance=certify_instance("rank_deficient", 5, 4),
                          n_grid=(64,), seeds=1)
    full = run_duality(spec).rows
    iterations = [row["iterations"] for row in full]
    longest = int(np.argmax(iterations))
    budget = iterations[longest] - 1
    assert sorted(iterations)[-2] <= budget  # the others stop within it
    monkeypatch.setattr(lowerbound, "MAX_ITER", budget)
    rows = run_duality(spec).rows
    inst = resolve_instance(spec)
    row = full[longest]
    with pytest.raises(MaxIterationsError) as raised:
        maximize_F(whiten(inst).ridged(row["epsilon"]), inst.sigma2 / row["n"], 1,
                   radius=DEFAULT_BIAS_COEFF)
    best = raised.value.best
    assert (rows[longest]["lower_value"], rows[longest]["iterations"],
            rows[longest]["dual_gap"], rows[longest]["stop_reason"]) == (
        best.value, budget, best.gap, "budget")
    for k, (got, ref) in enumerate(zip(rows, full)):
        if k != longest:
            assert got == ref


# ------------------------------------------------------------- bound check


def test_run_bound_check_rows_and_ok():
    spec = ExperimentSpec(
        kind="bound_check",
        instance=powerlaw_desc(d=20, sigma2=1.0),
        n_grid=(2**7, 2**8),
        seeds=8,
    )
    rep = run_bound_check(spec)
    assert rep.ok
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert row["mc_mean"] <= row["bound_total"]
        assert row["bound_total"] == pytest.approx(
            row["bound_variance"] + row["bound_bias"], rel=1e-12
        )
        assert row["semi_bias"] >= 0 and row["semi_variance"] >= 0
        assert row["spec_hash"] == spec_hash(spec)


def test_run_bound_check_reproducible_bit_for_bit():
    spec = ExperimentSpec(
        kind="bound_check",
        instance=powerlaw_desc(d=10),
        n_grid=(2**6,),
        seeds=4,
    )
    a = run_bound_check(spec)
    b = run_bound_check(spec)
    assert a.rows == b.rows


def test_run_bound_check_seed_base_shifts_draws():
    base = dict(
        kind="bound_check", instance=powerlaw_desc(d=10), n_grid=(2**6,), seeds=4
    )
    a = run_bound_check(ExperimentSpec(**base))
    b = run_bound_check(ExperimentSpec(**base, params={"seed_base": 100}))
    assert a.rows[0]["mc_mean"] != b.rows[0]["mc_mean"]


# -------------------------------------------------------------- rate sweep


def test_run_rate_sweep_structure():
    spec = ExperimentSpec(
        kind="rate_sweep",
        instance=powerlaw_desc(d=30, sigma2=1.0),
        n_grid=(2**6, 2**7, 2**8, 2**9),
        seeds=6,
    )
    rep = run_rate_sweep(spec)
    assert rep.predicted_exponent == pytest.approx(-2.0 / 3.0)
    assert len(rep.rows) == 4
    for fit in (rep.fit_raw, rep.fit_deflated, rep.fit_lower):
        assert np.isfinite(fit.slope) and np.isfinite(fit.intercept)
        assert 0 <= fit.r2 <= 1
    assert rep.fit_deflated.gap == pytest.approx(
        abs(rep.fit_deflated.slope - rep.predicted_exponent)
    )
    # risks fall with n even on a short grid
    means = [row["mc_mean"] for row in rep.rows]
    assert means[-1] < means[0]
    # the minimax floor sits below the achieved risk and falls with n
    lowers = [row["lower_value"] for row in rep.rows]
    assert all(lo <= row["mc_mean"] for lo, row in zip(lowers, rep.rows))
    assert all(a > b for a, b in zip(lowers, lowers[1:]))
    # deterministic: same spec, same rows
    again = run_rate_sweep(spec)
    assert again.rows == rep.rows


@pytest.mark.parametrize("kind", ["rate_sweep", "emergence"])
def test_study_runs_its_grid_in_one_call_with_run_batch_bits(monkeypatch, kind):
    # one run_grid call per study; each grid point's Monte-Carlo summary is
    # the one its own run_batch gives (n = 8 and 16 read a prefix of a
    # longer tile)
    if kind == "rate_sweep":
        spec = ExperimentSpec(kind=kind, instance=powerlaw_desc(d=30),
                              n_grid=(2**6, 2**7, 2**8, 2**9), seeds=5)
        run = run_rate_sweep
    else:
        spec = ExperimentSpec(
            kind=kind,
            instance=powerlaw_desc(d=16, d0=2, sigma2=0.01, w_profile="tail"),
            n_grid=(8, 16, 300), seeds=5, params={"step_base": 0.5},
        )
        run = run_emergence
    calls, cfgs = [], []

    def recording(inst, grid_cfgs, seeds):
        calls.append(len(grid_cfgs))
        cfgs.extend(grid_cfgs)
        return asgd.run_grid(inst, grid_cfgs, seeds)

    monkeypatch.setattr(experiments, "run_grid", recording)
    rows = run(spec).rows
    assert calls == [len(spec.n_grid)]
    inst = resolve_instance(spec)
    for row, cfg in zip(rows, cfgs):
        risks = asgd.run_batch(inst, cfg, range(spec.seeds))
        assert (row["n"], row["mc_mean"], row["mc_median"]) == (
            cfg.n, float(risks.mean()), float(np.median(risks))
        )


def test_run_rate_sweep_needs_three_octaves():
    spec = ExperimentSpec(
        kind="rate_sweep",
        instance=powerlaw_desc(d=30),
        n_grid=(2**6, 2**7),
        seeds=2,
    )
    with pytest.raises(ValueError):
        run_rate_sweep(spec)


@pytest.mark.parametrize("over, exponent, predicted, log_exp", [
    (dict(nu=1), 0.0, -2.0 / 3.0, 1.5),
    (dict(s=0.5, r=0.5), -0.5, -1.0, 3.0),
], ids=["rank-one-target-is-flat", "diagonal-target"])
def test_sweep_plan_holds_the_rate_theory(over, exponent, predicted, log_exp):
    # b = (1 + r)a: steps scale as n^((a-b+nu-1)/(b-nu+1)) from the grid's
    # first n, the prediction is -(r+s)a/(sa+1) and each n's deflation
    # factor (ln n)^(3(b-1)/a); at a = 2, r = 0 a rank-one target (nu = 1)
    # keeps the base step at every n
    spec = ExperimentSpec(kind="rate_sweep", instance=powerlaw_desc(d=20, **over),
                          n_grid=(2**4, 2**8, 2**12, 2**16), seeds=1)
    inst = resolve_instance(spec)
    _, cfgs, plan_predicted, plan_log_exp, factors = experiments._sweep_plan(spec, inst)
    assert (plan_predicted, plan_log_exp) == (predicted, log_exp)
    base = 1.0 / (inst.psi * np.trace(inst.S))
    for n, cfg, factor in zip(spec.n_grid, cfgs, factors):
        assert cfg.delta0 == cfg.gamma0 == pytest.approx(base * (n / 2**4) ** exponent,
                                                         rel=1e-12)
        assert factor == math.log(n) ** log_exp


@pytest.mark.parametrize("kind", ["rate_sweep", "emergence"])
def test_power_law_studies_refuse_an_explicit_instance(kind):
    # the predicted exponent and the plateau width are read from a power-law
    # description; the explicit form of (a, s, r) = (3, 0.5, 0.5), whose
    # exponent -(r+s)a/(sa+1) is -1.2, carries neither
    grid = (2**6, 2**7, 2**8, 2**9)
    desc = powerlaw_desc(d=12, a=3.0, s=0.5, r=0.5)
    power_law = ExperimentSpec(kind="rate_sweep", instance=desc, n_grid=grid, seeds=2)
    explicit = ExperimentSpec(kind=kind, instance=instance_to_json(resolve_instance(power_law)),
                              n_grid=grid, seeds=2)
    with pytest.raises(ValueError, match="not a power-law instance"):
        (run_rate_sweep if kind == "rate_sweep" else run_emergence)(explicit)
    if kind == "rate_sweep":
        assert run_rate_sweep(power_law).predicted_exponent == pytest.approx(-1.2)


# --------------------------------------------------------------- emergence


def brute_force_nonincreasing_fit(y):
    """Least-squares nonincreasing fit by search: the optimum is constant on
    contiguous blocks at the block means, so try every block partition."""
    best, best_sse = None, np.inf
    for cuts in range(2 ** (len(y) - 1)):
        bounds = [0] + [i + 1 for i in range(len(y) - 1) if cuts >> i & 1] + [len(y)]
        means = [y[lo:hi].mean() for lo, hi in zip(bounds, bounds[1:])]
        if any(b > a for a, b in zip(means, means[1:])):
            continue
        fit = np.repeat(means, np.diff(bounds))
        sse = float(np.sum((fit - y) ** 2))
        if sse < best_sse:
            best, best_sse = fit, sse
    return best


def test_pava_pools_violators_to_the_least_squares_fit():
    rng = np.random.default_rng(7)
    pooled = 0
    for _ in range(300):
        y = rng.standard_normal(int(rng.integers(2, 9)))
        fit = experiments._pava_nonincreasing(y)
        assert np.abs(fit - brute_force_nonincreasing_fit(y)).max() <= 1e-12
        pooled += not np.array_equal(fit, y)
    assert pooled > 250  # the pooling branch ran


def test_run_emergence_requires_d0():
    spec = ExperimentSpec(
        kind="emergence", instance=powerlaw_desc(d=16), n_grid=(8, 16), seeds=2
    )
    with pytest.raises(ValueError):
        run_emergence(spec)


def test_run_emergence_degenerate_d0():
    # d0 = 1 has no plateau to detect: the plateau/drop gates are vacuous
    # and the curve is just a power law
    spec = ExperimentSpec(
        kind="emergence",
        instance=powerlaw_desc(d=16, d0=1, sigma2=0.01, w_profile="tail"),
        n_grid=tuple(2**k for k in range(3, 10)),
        seeds=8,
        params={"step_base": 0.5},
    )
    rep = run_emergence(spec)
    assert rep.knee_target == pytest.approx(1.0)
    assert rep.plateau_ratio == 1.0 and rep.drop_ratio == 0.0
    assert rep.plateau_ok and rep.drop_ok and rep.knee_ok
    assert rep.ok == rep.isotonic_ok
    means = [row["mc_mean"] for row in rep.rows]
    assert means[-1] < means[0]


def test_run_emergence_small_plateau():
    # d0 = 4 at a = 1: knee at d0^2 = 16 inside a short grid
    spec = ExperimentSpec(
        kind="emergence",
        instance=powerlaw_desc(d=64, a=1.5, d0=4, sigma2=0.005, w_profile="tail"),
        n_grid=tuple(2**k for k in range(2, 11)),
        seeds=16,
        params={"step_base": 0.5},
    )
    rep = run_emergence(spec)
    assert rep.knee_target == pytest.approx(4.0**2.5)
    assert len(rep.rows) == 9
    assert rep.drop_ratio < 1.0
    for row in rep.rows:
        assert row["spec_hash"] == spec_hash(spec)


# ------------------------------------------------------- reproducibility

SWEEP_ROWS = """
from covshift.experiments import ExperimentSpec, run_rate_sweep
spec = ExperimentSpec(
    kind="rate_sweep",
    instance={"type": "powerlaw", "d": 100, "a": 2.0, "s": 1.0, "r": 0.0,
              "sigma2": 1.0, "seed": 0},
    n_grid=(2**8, 2**9, 2**10, 2**11),
    seeds=40,
)
print(repr(run_rate_sweep(spec).rows))
"""


def test_power_law_sweep_is_the_same_under_one_and_two_blas_threads():
    # results are bit for bit for one BLAS thread count; on diagonal S no
    # product depends on that count, so a power-law study agrees across counts
    src = str(Path(covshift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    rows = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", SWEEP_ROWS], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        rows.append(out.stdout)
    assert "mc_mean" in rows[0]
    assert rows[0] == rows[1]
