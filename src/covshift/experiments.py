"""Experiment harness: reproducible, CSV-emitting studies.

Four study kinds, all driven by a JSON-serializable ExperimentSpec and fully
determined by (spec, seed policy = seeds 0..n_seeds-1):

* duality      — certified lower bound vs. preconditioner objective per n,
                 with an epsilon-ladder when the whitened target is singular;
* bound_check  — Monte-Carlo risk of the staged method vs. the closed-form
                 bound, with the semi-stochastic decomposition for diagnosis;
* rate_sweep   — log-log slope of mean risk over an n-grid against the
                 predicted power-law exponent (raw and log-deflated);
* emergence    — risk-vs-n curve for a plateau target, with knee detection
                 (most negative discrete second difference of log risk) and
                 plateau/drop assertions.

CSV artifacts carry a gnuplot-friendly '#' header and a spec-hash column so
every row can be traced to the exact configuration that produced it.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .asgd import (
    choose_parameters,
    choose_rate_parameters,
    risk_bound,
    run_batch,
    run_grid,
)
from .estimators import DEFAULT_BIAS_COEFF
from .lowerbound import MaxIterationsError, maximize_F
from .model import ProblemInstance, whiten
from .precond import PrecondProgram, _target_scale, solve_general
from .riskoracle import semi_stochastic_bias, semi_stochastic_variance

__all__ = [
    "ExperimentSpec",
    "RateFit",
    "DualityReport",
    "BoundCheckReport",
    "RateSweepReport",
    "EmergenceReport",
    "spec_hash",
    "spec_to_json",
    "spec_from_json",
    "resolve_instance",
    "run_duality",
    "run_bound_check",
    "run_rate_sweep",
    "run_emergence",
]

KINDS = ("duality", "rate_sweep", "emergence", "bound_check")


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: a study kind, an instance description (power-law family
    or explicit matrices; the noise level sigma2 is an instance key), the
    sample-size grid, and the seed count. Extra numeric knobs (step_base,
    tol, kappa_tilde, seed_base, ...) ride in params.
    """

    kind: str
    instance: dict
    n_grid: tuple
    seeds: int
    output_path: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        grid = tuple(int(n) for n in self.n_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be sorted strictly ascending")
        if not grid:
            raise ValueError("n_grid must be nonempty")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        object.__setattr__(self, "n_grid", grid)


def spec_to_json(spec: ExperimentSpec) -> dict:
    return {
        "kind": spec.kind,
        "instance": spec.instance,
        "n_grid": list(spec.n_grid),
        "seeds": spec.seeds,
        "output_path": spec.output_path,
        "params": spec.params,
    }


def spec_from_json(obj: dict) -> ExperimentSpec:
    return ExperimentSpec(
        kind=obj["kind"],
        instance=obj["instance"],
        n_grid=tuple(obj["n_grid"]),
        seeds=int(obj["seeds"]),
        output_path=obj.get("output_path"),
        params=obj.get("params", {}),
    )


def spec_hash(spec: ExperimentSpec) -> str:
    """12-hex digest of the canonical spec JSON (output_path excluded, so
    relocating artifacts does not change identities)."""
    payload = spec_to_json(spec)
    payload.pop("output_path")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _power_law_spec(desc: dict) -> model.PowerLawSpec:
    """The PowerLawSpec of a {"type": "powerlaw", ...} instance description
    (the type defaults to "powerlaw"); ValueError for any other type."""
    kind = desc.get("type", "powerlaw")
    if kind != "powerlaw":
        raise ValueError(f"not a power-law instance: type {kind!r}")
    return model.PowerLawSpec(
        d=int(desc["d"]),
        a=float(desc["a"]),
        s=float(desc.get("s", 1.0)),
        r=float(desc.get("r", 0.0)),
        nu=int(desc.get("nu", 0)),
        d0=desc.get("d0"),
    )


def resolve_instance(spec: ExperimentSpec) -> ProblemInstance:
    """Materialize the instance description: {"type": "powerlaw", ...} maps
    to the power-law family (deterministic given its "seed" entry, default
    0); {"type": "explicit", ...} carries the matrices verbatim."""
    desc = spec.instance
    if desc.get("type") == "explicit":
        return model.instance_from_json(desc)
    return model.make_power_law_instance(
        _power_law_spec(desc),
        seed=int(desc.get("seed", 0)),
        rho=float(desc.get("rho", 1.0)),
        sigma2=float(desc.get("sigma2", 1.0)),
        noise=desc.get("noise", "gaussian"),
        psi=float(desc.get("psi", 3.0)),
        w_profile=desc.get("w_profile", "spread"),
    )


def _write_csv(path: str, title: str, spec: ExperimentSpec, rows: list[dict]):
    if not rows:
        return
    fields = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        fh.write(f"# {title}\n")
        fh.write(f"# spec_hash={spec_hash(spec)}\n")
        fh.write("# " + " ".join(fields) + "\n")
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _seed_range(spec: ExperimentSpec) -> range:
    base = int(spec.params.get("seed_base", 0))
    return range(base, base + spec.seeds)


def _mc_summary(risks) -> dict:
    """Mean, standard error (0 for one seed) and median of per-seed risks."""
    k = len(risks)
    return {
        "mc_mean": float(risks.mean()),
        "mc_stderr": float(risks.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0,
        "mc_median": float(np.median(risks)),
    }


def _ols(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log2(risk) against log2(n) and its distance to the
    predicted power-law exponent."""

    slope: float
    intercept: float
    r2: float
    predicted_exponent: float
    gap: float


def _fit(n_grid, values, predicted):
    slope, intercept, r2 = _ols(np.log2(n_grid), np.log2(values))
    return RateFit(
        slope=slope,
        intercept=intercept,
        r2=r2,
        predicted_exponent=predicted,
        gap=abs(slope - predicted),
    )


# =====================================================================
# duality
# =====================================================================

EPSILON_LADDER = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)


@dataclass(frozen=True, eq=False)
class DualityReport:
    rows: list
    worst_gap: float
    ladder_monotone: bool
    ok: bool


def run_duality(spec: ExperimentSpec) -> DualityReport:
    """Certify that the preconditioner objective meets the lower-bound value
    (coefficients 1/pi^2 and sigma2/n) on each n of the grid. For a singular
    whitened target the program is solved along a decreasing epsilon-ladder
    of ridges and the values must decrease monotonically toward the limit.

    Each row's lower value, iteration count, ``dual_gap`` and
    ``stop_reason`` come from the dual certificate that ``solve_general``
    computed as its floor, the same program as
    maximize_F(triple.ridged(eps), sigma2, n).
    """
    inst = resolve_instance(spec)
    tol = float(spec.params.get("tol", 1e-4))
    triple = whiten(inst)
    t_norm, singular = _target_scale(triple.T_prime)
    h = spec_hash(spec)
    rows = []
    worst = 0.0
    ladder_monotone = True
    for n in spec.n_grid:
        noise_coeff = inst.sigma2 / n
        ladder = [e * t_norm for e in EPSILON_LADDER] if singular else [0.0]
        prev_upper = math.inf
        for eps in ladder:
            try:
                prec = solve_general(
                    PrecondProgram(
                        triple, DEFAULT_BIAS_COEFF, noise_coeff, epsilon_reg=eps
                    ),
                    tol=tol,
                )
            except MaxIterationsError as err:
                prec = err.best
            cert = prec.certificate
            gap = (prec.objective_value - cert.value) / max(cert.value, 1e-300)
            worst = max(worst, abs(gap))
            if prec.objective_value > prev_upper * (1 + 1e-9):
                ladder_monotone = False
            prev_upper = prec.objective_value
            rows.append(
                {
                    "n": n,
                    "epsilon": eps,
                    "lower_value": cert.value,
                    "upper_value": prec.objective_value,
                    "relative_gap": gap,
                    "iterations": cert.iterations,
                    "dual_gap": cert.gap,
                    "stop_reason": cert.stop_reason,
                    "spec_hash": h,
                }
            )
    if spec.output_path:
        _write_csv(spec.output_path, "duality certification", spec, rows)
    return DualityReport(
        rows=rows,
        worst_gap=worst,
        ladder_monotone=ladder_monotone,
        ok=(worst <= tol) and ladder_monotone,
    )


# =====================================================================
# bound check
# =====================================================================

@dataclass(frozen=True, eq=False)
class BoundCheckReport:
    rows: list
    ok: bool


def run_bound_check(spec: ExperimentSpec) -> BoundCheckReport:
    """Mean Monte-Carlo excess risk of the staged method against the
    closed-form bound at each n, with the exact semi-stochastic bias and
    variance alongside for diagnosis. Fails if any mean exceeds its bound.
    """
    inst = resolve_instance(spec)
    h = spec_hash(spec)
    kappa_tilde = spec.params.get("kappa_tilde")
    seeds = _seed_range(spec)
    rows = []
    ok = True
    for n in spec.n_grid:
        cfg = choose_parameters(
            inst, n, kappa_tilde=kappa_tilde, require_admissible=False
        )
        mc = _mc_summary(run_batch(inst, cfg, seeds))
        bound = risk_bound(inst, cfg)
        row = {
            "n": n,
            **mc,
            "bound_total": bound.total,
            "bound_variance": bound.effective_variance,
            "bound_bias": bound.effective_bias,
            "k_star": bound.k_star,
            "semi_bias": semi_stochastic_bias(inst, cfg).total,
            "semi_variance": semi_stochastic_variance(inst, cfg).total,
            "admissible": bound.admissible,
            "spec_hash": h,
        }
        rows.append(row)
        ok = ok and (mc["mc_mean"] <= bound.total)
    if spec.output_path:
        _write_csv(spec.output_path, "risk bound check", spec, rows)
    return BoundCheckReport(rows=rows, ok=ok)


# =====================================================================
# rate sweep
# =====================================================================

@dataclass(frozen=True, eq=False)
class RateSweepReport:
    rows: list
    fit_raw: RateFit
    fit_deflated: RateFit
    fit_lower: RateFit
    predicted_exponent: float
    ok: bool


def run_rate_sweep(spec: ExperimentSpec) -> RateSweepReport:
    """Fit the log-log slope of mean Monte-Carlo risk across the n-grid and
    compare with the predicted exponent -(r+s)a/(sa+1); the deflated fit
    divides out the (ln n)^(3((1+r)a-1)/a) factor that rides on the rate.
    The certified lower-bound value is fitted on the same grid for scale.
    The whole grid runs in one ``run_grid`` call, on one sample stream per
    seed; each grid point's risks are the bits of its own ``run_batch``.
    Needs a power-law instance (ValueError otherwise): the prediction reads
    its (a, s, r, nu).
    """
    pl = _power_law_spec(spec.instance)
    a, s, r = pl.a, pl.s, pl.r
    inst = resolve_instance(spec)
    if len(spec.n_grid) < 4 or spec.n_grid[-1] < 8 * spec.n_grid[0]:
        raise ValueError("rate sweep needs an n-grid spanning >= 3 octaves")
    predicted = -(r + s) * a / (s * a + 1.0)
    log_exp = 3.0 * ((1.0 + r) * a - 1.0) / a
    tol = float(spec.params.get("tol", 0.15))
    base = spec.params.get("step_base")
    triple = whiten(inst)
    h = spec_hash(spec)
    rows = []
    means, lowers = [], []
    cfgs = [
        choose_rate_parameters(
            inst, n, a=a, r=r, nu=pl.nu, n_ref=spec.n_grid[0], base=base
        )
        for n in spec.n_grid
    ]
    risks = run_grid(inst, cfgs, _seed_range(spec))
    for n, cfg, mc_risks in zip(spec.n_grid, cfgs, risks):
        mc = _mc_summary(mc_risks)
        try:
            lower = maximize_F(triple, inst.sigma2, n, max_iter=2000).value
        except MaxIterationsError as err:
            lower = err.best.value
        means.append(mc["mc_mean"])
        lowers.append(lower)
        rows.append(
            {
                "n": n,
                **mc,
                "deflated_mean": mc["mc_mean"] / math.log(n) ** log_exp,
                "lower_value": lower,
                "step": cfg.delta0,
                "spec_hash": h,
            }
        )
    grid = np.array(spec.n_grid, dtype=float)
    fit_raw = _fit(grid, np.array(means), predicted)
    deflated = np.array(means) / np.log(grid) ** log_exp
    fit_deflated = _fit(grid, deflated, predicted)
    fit_lower = _fit(grid, np.array(lowers), predicted)
    if spec.output_path:
        _write_csv(spec.output_path, "rate sweep", spec, rows)
    return RateSweepReport(
        rows=rows,
        fit_raw=fit_raw,
        fit_deflated=fit_deflated,
        fit_lower=fit_lower,
        predicted_exponent=predicted,
        ok=fit_deflated.gap <= tol,
    )


# =====================================================================
# emergence
# =====================================================================

def _pava_nonincreasing(y):
    """L2 pool-adjacent-violators fit of a nonincreasing sequence."""
    levels = [-v for v in np.asarray(y, dtype=float)]  # fit nondecreasing on -y
    weights = [1] * len(levels)
    i = 0
    while i < len(levels) - 1:
        if levels[i] > levels[i + 1]:
            levels[i] = (levels[i] * weights[i] + levels[i + 1] * weights[i + 1]) / (
                weights[i] + weights[i + 1]
            )
            weights[i] += weights[i + 1]
            del levels[i + 1], weights[i + 1]
            if i > 0:
                i -= 1
        else:
            i += 1
    return -np.repeat(levels, weights)


@dataclass(frozen=True, eq=False)
class EmergenceReport:
    rows: list
    knee_n: int
    knee_target: float
    plateau_ratio: float
    drop_ratio: float
    isotonic_ok: bool
    plateau_ok: bool
    drop_ok: bool
    knee_ok: bool
    ok: bool


def run_emergence(spec: ExperimentSpec) -> EmergenceReport:
    """Risk-vs-n curve for a plateau target (leading d0 directions all need
    precision d0^-(1+r)a). The curve should hold a plateau while
    n < d0^(a+1), then drop at the power-law rate:

    * plateau: risk at n = d0^(a+1)/8 within a factor 2 of risk at d0^(a+1)/64;
    * drop: risk at 8 d0^(a+1) at most 0.25x the plateau level;
    * knee: most negative discrete second difference of log2 risk lands
      within one octave of d0^(a+1);
    * sanity: the curve is nonincreasing up to Monte-Carlo noise (each
      isotonic-fit residual within 2 stderr).

    As in ``run_rate_sweep``, the grid runs in one ``run_grid`` call. Needs
    a power-law instance with a plateau width d0 (ValueError otherwise).
    """
    pl = _power_law_spec(spec.instance)
    if pl.d0 is None:
        raise ValueError("emergence needs a plateau width d0")
    a, d0 = pl.a, int(pl.d0)
    inst = resolve_instance(spec)
    n_knee = d0 ** (a + 1.0)
    base = spec.params.get("step_base")
    exponent = float(spec.params.get("step_exponent", -1.0 / (a + 1.0)))
    # anchor the schedule at the theoretical knee: constant base step while
    # n < n_ref (the plateau has nothing more to resolve), decaying after
    n_ref = int(spec.params.get("step_n_ref", round(n_knee)))
    h = spec_hash(spec)
    rows = []
    means, stderrs = [], []
    cfgs = [
        choose_rate_parameters(inst, n, n_ref=n_ref, base=base, exponent=exponent)
        for n in spec.n_grid
    ]
    risks = run_grid(inst, cfgs, _seed_range(spec))
    for n, cfg, mc_risks in zip(spec.n_grid, cfgs, risks):
        mc = _mc_summary(mc_risks)
        means.append(mc["mc_mean"])
        stderrs.append(mc["mc_stderr"])
        rows.append(
            {
                "n": n,
                **mc,
                "step": cfg.delta0,
                "spec_hash": h,
            }
        )
    means_arr = np.array(means)
    grid = np.array(spec.n_grid, dtype=float)
    log_risk = np.log2(means_arr)
    if len(grid) >= 3:
        second = log_risk[2:] - 2.0 * log_risk[1:-1] + log_risk[:-2]
        knee_n = int(grid[1 + int(np.argmin(second))])
    else:
        knee_n = int(grid[0])
    knee_ok = (d0 == 1) or (n_knee / 2.0 <= knee_n <= n_knee * 2.0)

    def risk_at(n_target):
        j = int(np.argmin(np.abs(grid - n_target)))
        return means_arr[j]

    if d0 > 1:
        plateau_lo = risk_at(n_knee / 64.0)
        plateau_hi = risk_at(n_knee / 8.0)
        plateau_ratio = plateau_hi / plateau_lo
        plateau_ok = 0.5 <= plateau_ratio <= 2.0
        drop_ratio = risk_at(8.0 * n_knee) / plateau_hi
        drop_ok = drop_ratio <= 0.25
    else:
        plateau_ratio, plateau_ok = 1.0, True
        drop_ratio, drop_ok = 0.0, True
    fit = _pava_nonincreasing(means_arr)
    isotonic_ok = bool(
        np.all(np.abs(fit - means_arr) <= 2.0 * np.maximum(np.array(stderrs), 1e-300))
    )
    if spec.output_path:
        _write_csv(spec.output_path, "emergence curve", spec, rows)
    return EmergenceReport(
        rows=rows,
        knee_n=knee_n,
        knee_target=n_knee,
        plateau_ratio=float(plateau_ratio),
        drop_ratio=float(drop_ratio),
        isotonic_ok=isotonic_ok,
        plateau_ok=plateau_ok,
        drop_ok=drop_ok,
        knee_ok=knee_ok,
        ok=bool(plateau_ok and drop_ok and knee_ok and isotonic_ok),
    )
