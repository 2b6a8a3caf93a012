import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covshift
from covshift import asgd, experiments
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
from covshift.model import instance_to_json, make_power_law_instance, PowerLawSpec


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


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        kind="bound_check",
        instance=powerlaw_desc(d=12),
        n_grid=(2**4, 2**6),
        seeds=3,
        output_path="out.csv",
        params={"kappa_tilde": 4, "seed_base": 7},
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


# ------------------------------------------------------------- bound check


def test_run_bound_check_rows_and_ok():
    spec = ExperimentSpec(
        kind="bound_check",
        instance=powerlaw_desc(d=20, sigma2=1.0),
        n_grid=(2**7, 2**8),
        seeds=8,
        params={"kappa_tilde": 5},
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
