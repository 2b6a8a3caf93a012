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

``_STUDIES`` registers each kind: the params it reads, its CSV title, and
what a spec must satisfy before any work starts. Every ``run_<kind>(spec)``
is one call of ``_run``, which checks the spec (ValueError), resolves the
instance, runs the study's body, ends every row with the spec's hash, and
writes the CSV: a gnuplot-friendly '#' header, then the rows.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
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
from .precond import PrecondProgram, solve_stack
from .riskoracle import semi_stochastic

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


@dataclass(frozen=True)
class _Study:
    reads: dict  # the params keys the study reads, each to int or float (any real)
    title: str  # the first line of its CSV
    min_n: int  # the smallest n of a grid it can run
    needs: tuple = ()  # checks that raise ValueError for a spec it cannot run


def _sweep_grid(spec):
    _power_law_spec(spec.instance)
    if len(spec.n_grid) < 4 or spec.n_grid[-1] < 8 * spec.n_grid[0]:
        raise ValueError("rate sweep needs an n-grid spanning >= 3 octaves")


def _plateau(spec):
    if _power_law_spec(spec.instance).d0 is None:
        raise ValueError("emergence needs a plateau width d0")


_STUDIES = {
    "duality": _Study({"tol": float}, "duality certification", 1),
    "rate_sweep": _Study({"tol": float, "seed_base": int, "step_base": float},
                         "rate sweep", 2, (_sweep_grid,)),
    "emergence": _Study({"seed_base": int, "step_base": float, "step_exponent": float,
                         "step_n_ref": int}, "emergence curve", 2, (_plateau,)),
    "bound_check": _Study({"seed_base": int, "kappa_tilde": int}, "risk bound check", 16),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: a study kind, an instance description (power-law family
    or explicit matrices; the noise level sigma2 is an instance key), the
    sample-size grid, and the seed count. Extra numeric knobs ride in
    params; each study accepts only the keys it reads (_STUDIES).
    """

    kind: str
    instance: dict
    n_grid: tuple
    seeds: int
    output_path: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _STUDIES:
            raise ValueError(f"kind must be one of {tuple(_STUDIES)}")
        grid = tuple(int(_value(n, "an n_grid entry", integer=True)) for n in self.n_grid)
        seeds = int(_value(self.seeds, "seeds", integer=True))
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be sorted strictly ascending")
        if not grid or grid[0] < 1:
            raise ValueError("n_grid must be nonempty, with every n >= 1")
        if seeds < 1:
            raise ValueError("seeds must be >= 1")
        _check_instance(self.instance)
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "seeds", seeds)


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
        seeds=obj["seeds"],
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


def _check_study(spec: ExperimentSpec, kind: str):
    """ValueError unless spec is a `kind` spec, the study reads every one of
    its params (so that a row's spec_hash names the spec behind it), each
    an integer or a finite real number as the study reads it (_value), and
    the study can run its grid and instance."""
    study = _STUDIES[kind]
    unread = sorted(set(spec.params) - set(study.reads))
    if spec.kind != kind or unread:
        raise ValueError(f"a {kind} study got a {spec.kind!r} spec, unread params {unread}")
    for key, value in spec.params.items():
        _value(value, f"params {key}", integer=study.reads[key] is int)
    if spec.n_grid[0] < study.min_n:
        raise ValueError(f"{kind} needs every n >= {study.min_n}")
    for need in study.needs:
        need(spec)


def _run(kind: str, spec: ExperimentSpec, body):
    """The frame of every study: check the spec, resolve its instance, run
    ``body(spec, inst)``, end each row of its report with the spec's hash,
    and write the CSV to ``spec.output_path`` when one is set."""
    _check_study(spec, kind)
    inst = resolve_instance(spec)
    h = spec_hash(spec)
    rep = body(spec, inst)
    for row in rep.rows:
        row["spec_hash"] = h
    if spec.output_path:
        fields = list(rep.rows[0])
        with open(spec.output_path, "w", newline="") as fh:
            fh.write(f"# {_STUDIES[kind].title}\n# spec_hash={h}\n# {' '.join(fields)}\n")
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rep.rows)
    return rep


def _number(desc: dict, key: str, default, integer: bool = False):
    """desc[key] (``default`` when absent), checked by _value."""
    return _value(desc.get(key, default), key, integer)


def _value(value, name: str, integer: bool = False):
    """``value``; ValueError unless it is an integer (``integer``) or a
    finite real number. A bool is neither, nor is a string that spells a
    number, NaN or an infinity: a spec's numbers are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        what = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {what}, not {value!r}")
    if not (integer or isinstance(value, int) or math.isfinite(value)):  # ints are finite
        raise ValueError(f"{name} must be finite, not {value!r}")
    return value


def _power_law_spec(desc: dict) -> model.PowerLawSpec:
    """The PowerLawSpec of a {"type": "powerlaw", ...} instance description
    (the type defaults to "powerlaw"); ValueError for any other type, and
    unless d, nu and d0 (when set) are integers and a, s and r finite real
    numbers (_number)."""
    kind = desc.get("type", "powerlaw")
    if kind != "powerlaw":
        raise ValueError(f"not a power-law instance: type {kind!r}")
    return model.PowerLawSpec(
        d=int(_number(desc, "d", None, integer=True)),
        a=float(_number(desc, "a", None)),
        s=float(_number(desc, "s", 1.0)),
        r=float(_number(desc, "r", 0.0)),
        nu=int(_number(desc, "nu", 0, integer=True)),
        d0=None if desc.get("d0") is None else int(_number(desc, "d0", None, integer=True)),
    )


def _power_law_args(desc: dict) -> dict:
    """make_power_law_instance's arguments for a power-law description;
    ValueError for a value it would refuse, a seed that is not an integer
    or a rho or sigma2 that is not a finite real number."""
    spec, seed = _power_law_spec(desc), int(_number(desc, "seed", 0, integer=True))
    rho, w_profile = float(_number(desc, "rho", 1.0)), desc.get("w_profile", "spread")
    model._check_shell(spec, rho, w_profile)
    return dict(spec=spec, seed=seed, rho=rho, sigma2=float(_number(desc, "sigma2", 1.0)),
                w_profile=w_profile)


# the keys an instance description may hold, by type: those resolve_instance
# reads, and "psi" and "noise", which may state the law (model._check_law)
_INSTANCE_KEYS = {
    "explicit": {"type", "d", "S", "T", "M", "w_star", "sigma2", "psi", "noise"},
    "powerlaw": {"type", "d", "a", "s", "r", "sigma2", "seed", "nu", "d0", "rho",
                 "w_profile", "psi", "noise"},
}


def _check_instance(desc):
    """ValueError, before any matrix is built, unless ``resolve_instance``
    can build the description and reads all of it: an explicit one has the
    keys it reads, square S, T and M of one size d (the integer "d" it
    states, if any) and a w_star of length d, every entry a finite real
    number (_value); any other makes the arguments make_power_law_instance
    accepts (_power_law_args); each holds only keys of its type
    (_INSTANCE_KEYS), states no law but the Gaussian design's, and has a
    finite real number sigma2 >= 0 (_number)."""
    if not isinstance(desc, dict):
        raise ValueError("an instance description is a JSON object")
    explicit = desc.get("type") == "explicit"
    needs = ("S", "T", "M", "w_star", "sigma2") if explicit else ("d", "a")
    missing = [key for key in needs if key not in desc]
    if missing:
        raise ValueError(f"the instance description lacks the keys {missing}")
    try:
        if explicit:  # lengths only: no matrix is built here
            d = len(desc["S"])
            square = all(len(desc[key]) == d and all(len(row) == d for row in desc[key])
                         for key in ("S", "T", "M"))
            if not square or len(desc["w_star"]) != d:
                raise ValueError("S, T, M, w_star dimensions disagree")
            if _number(desc, "d", d, integer=True) != d:
                raise ValueError(f"the instance states d = {desc['d']!r}, its S is {d} x {d}")
            for key in ("S", "T", "M", "w_star"):
                rows = [desc[key]] if key == "w_star" else desc[key]
                for x in (x for row in rows for x in row):
                    _value(x, f"an entry of {key}")
        else:
            _power_law_args(desc)
        unread = sorted(set(desc) - _INSTANCE_KEYS["explicit" if explicit else "powerlaw"])
        if unread:
            raise ValueError(f"the instance description has keys nothing reads: {unread}")
        model._check_law(desc)
        if not _number(desc, "sigma2", 1.0) >= 0:
            raise ValueError("sigma2 must be >= 0")
    except TypeError as err:  # e.g. "S": null or "w_star": 0
        raise ValueError(f"the instance description has a bad value: {err}") from err


def resolve_instance(spec: ExperimentSpec) -> ProblemInstance:
    """Materialize the instance description: {"type": "powerlaw", ...} maps
    to the power-law family (deterministic given its "seed" entry, default
    0); {"type": "explicit", ...} carries the matrices verbatim."""
    desc = spec.instance
    if desc.get("type") == "explicit":
        return model.instance_from_json(desc)
    return model.make_power_law_instance(**_power_law_args(desc))


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
    whitened target the study ridges the triple itself, T' + eps I along a
    decreasing epsilon-ladder (the solvers take a program as given), and the
    values must decrease monotonically toward the limit.

    Every (n, epsilon) program is solved in one ``solve_stack`` call, which
    steps all their dual programs in lockstep; each row has the bits of that
    program's own ``solve_general``. Each row's lower value, iteration
    count, ``dual_gap`` and ``stop_reason`` come from the dual certificate
    that was the preconditioner's floor, the same program as
    maximize_F(triple.ridged(eps), sigma2, n) (its "budget" certificate
    where the iterations ran out).
    """
    return _run("duality", spec, _duality)


def _duality(spec, inst):
    tol = float(spec.params.get("tol", 1e-4))
    triple = whiten(inst)
    t_eigs = np.linalg.eigvalsh(triple.T_prime)  # singular: min below 1e-10 |T'|
    t_norm = float(np.abs(t_eigs).max())
    ladder = [e * t_norm for e in EPSILON_LADDER] if t_eigs.min() < 1e-10 * t_norm else [0.0]
    grid = [(n, eps) for n in spec.n_grid for eps in ladder]
    precs = solve_stack([
        PrecondProgram(triple.ridged(eps), DEFAULT_BIAS_COEFF, inst.sigma2 / n)
        for n, eps in grid
    ])
    rows = []
    worst = 0.0
    ladder_monotone = True
    prev_upper = {}  # the last rung's upper value at each n
    for (n, eps), prec in zip(grid, precs):
        cert = prec.certificate
        gap = (prec.objective_value - cert.value) / max(cert.value, 1e-300)
        worst = max(worst, abs(gap))
        if prec.objective_value > prev_upper.get(n, math.inf) * (1 + 1e-9):
            ladder_monotone = False
        prev_upper[n] = prec.objective_value
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
            }
        )
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
    closed-form bound at each n, with ``semi_stochastic``'s exact bias and
    variance alongside for diagnosis. Fails if any mean exceeds its bound.
    """
    return _run("bound_check", spec, _bound_check)


def _bound_check(spec, inst):
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
        semi_bias, semi_variance = semi_stochastic(inst, cfg)
        row = {
            "n": n,
            **mc,
            "bound_total": bound.total,
            "bound_variance": bound.effective_variance,
            "bound_bias": bound.effective_bias,
            "k_star": bound.k_star,
            "semi_bias": semi_bias.total,
            "semi_variance": semi_variance.total,
            "admissible": cfg.admissible,
        }
        rows.append(row)
        ok = ok and (mc["mc_mean"] <= bound.total)
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
    Needs a power-law instance, whose (a, s, r, nu) the prediction reads,
    and a grid spanning >= 3 octaves (ValueError otherwise).
    """
    return _run("rate_sweep", spec, _rate_sweep)


def _rate_sweep(spec, inst):
    pl = _power_law_spec(spec.instance)
    a, s, r = pl.a, pl.s, pl.r
    predicted = -(r + s) * a / (s * a + 1.0)
    log_exp = 3.0 * ((1.0 + r) * a - 1.0) / a
    tol = float(spec.params.get("tol", 0.15))
    base = spec.params.get("step_base")
    triple = whiten(inst)
    rows = []
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
            lower = maximize_F(triple, inst.sigma2, n).value
        except MaxIterationsError as err:
            lower = err.best.value
        rows.append(
            {
                "n": n,
                **mc,
                "deflated_mean": mc["mc_mean"] / math.log(n) ** log_exp,
                "lower_value": lower,
                "step": cfg.delta0,
            }
        )
    grid = np.array(spec.n_grid, dtype=float)
    means = np.array([row["mc_mean"] for row in rows])
    fit_raw = _fit(grid, means, predicted)
    fit_deflated = _fit(grid, means / np.log(grid) ** log_exp, predicted)
    fit_lower = _fit(grid, np.array([row["lower_value"] for row in rows]), predicted)
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
    return _run("emergence", spec, _emergence)


def _emergence(spec, inst):
    pl = _power_law_spec(spec.instance)
    a, d0 = pl.a, int(pl.d0)
    n_knee = d0 ** (a + 1.0)
    base = spec.params.get("step_base")
    exponent = float(spec.params.get("step_exponent", -1.0 / (a + 1.0)))
    # anchor the schedule at the theoretical knee: constant base step while
    # n < n_ref (the plateau has nothing more to resolve), decaying after
    n_ref = int(spec.params.get("step_n_ref", round(n_knee)))
    cfgs = [
        choose_rate_parameters(inst, n, n_ref=n_ref, base=base, exponent=exponent)
        for n in spec.n_grid
    ]
    risks = run_grid(inst, cfgs, _seed_range(spec))
    rows = [{"n": n, **_mc_summary(mc_risks), "step": cfg.delta0}
            for n, cfg, mc_risks in zip(spec.n_grid, cfgs, risks)]
    means_arr = np.array([row["mc_mean"] for row in rows])
    stderrs = np.array([row["mc_stderr"] for row in rows])
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
        np.all(np.abs(fit - means_arr) <= 2.0 * np.maximum(stderrs, 1e-300))
    )
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
