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

A spec is checked when it is made, by one walker over declarative tables
(``_walk``). ``_STUDIES`` registers each kind: the table of params it reads,
its CSV title, its plan and what a spec must satisfy before any work. Every
``run_<kind>(spec)`` is one call of ``_run``, which checks the spec,
resolves the instance, plans (each may raise ValueError), runs the study's
body, ends every row with the spec's hash, and writes the CSV: a
gnuplot-friendly '#' header, then the rows.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import reprlib
import sys
from collections.abc import Callable
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

# The tables map each key to (kind, default), ... for a key a description
# must hold. Rules that need several keys or a built matrix are the model's.
_WHAT = {int: "an integer >= 0", float: "a finite real number", str: "a string",
         dict: "a JSON object"}


def _refuse(name, what, value):
    raise ValueError(f"{name} must be {what}, not {reprlib.repr(value)}")


def _check(kind, value, name):
    """ValueError unless ``value`` is of ``kind``: int, float (finite: no
    larger than the largest float), str, dict, a tuple of the values it may
    take, [kind] (a nonempty list of kind, whose length it returns; a list
    of lists is square) or a function that checks it. No bool is any."""
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple)) or not value:
            _refuse(name, "a nonempty list", value)
        for i, x in enumerate(value):  # the fast path passes a finite float
            if kind[0] is not float or type(x) is not float or not math.isfinite(x):
                if _check(kind[0], x, f"{name}[{i}]") not in (None, len(value)):
                    _refuse(name, "a square matrix", value)
        return len(value)
    if isinstance(kind, tuple):
        ok = value in kind
    elif kind is int:
        ok = isinstance(value, numbers.Integral) and value >= 0
    elif kind is float:
        ok = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    elif kind in _WHAT:
        ok = isinstance(value, kind)
    else:
        return kind(value, name)
    if type(value) is bool or not ok:
        _refuse(name, _WHAT.get(kind) or " or ".join(map(repr, kind)), value)


def _count(value, name):
    if type(value) is bool or not isinstance(value, numbers.Integral) or value < 1:
        _refuse(name, "an integer >= 1", value)
    if value > sys.float_info.max:  # the studies divide by n and n_ref
        _refuse(name, "at most the largest float", value)


def _grid(value, name):
    _check([_count], value, name)
    if any(b <= a for a, b in zip(value, value[1:])):
        _refuse(name, "sorted strictly ascending", value)


def _walk(table, desc, name):
    """ValueError, before anything is built, unless description ``desc``
    (at path ``name``, "" for a spec) is a dict with every key ``table``
    requires and no other, each value of its kind or null where the
    default is None."""
    _check(dict, desc, name or "the spec")
    unknown = [key for key in desc if key not in table]
    missing = [key for key, (_, default) in table.items() if default is ... and key not in desc]
    if unknown or missing:
        raise ValueError(f"{name or 'the spec'} has keys nothing reads: {unknown}" if unknown
                         else f"{name or 'the spec'} lacks the keys {missing}")
    for key, (kind, default) in table.items():
        if key in desc and not (desc[key] is None and default is None):
            _check(kind, desc[key], f"{name}.{key}" if name else key)


def _read(table, desc):
    return {key: desc.get(key, default) for key, (_, default) in table.items()}


_INSTANCES = {"powerlaw": model.POWER_LAW_KEYS, "explicit": model.EXPLICIT_KEYS}


def _instance(desc, name):
    """Walk the table of its type (power-law if it states none); then S, T,
    M, w_star and d agree in size, or the PowerLawSpec passes _check_shell."""
    _check(dict, desc, name)
    kind = desc.get("type", "powerlaw")
    _check(tuple(_INSTANCES), kind, f"{name}.type")
    _walk(_INSTANCES[kind], desc, name)
    if kind == "explicit":
        sizes = {key: desc[key] if key == "d" else len(desc[key])
                 for key in ("d", "S", "T", "M", "w_star") if desc.get(key) is not None}
        if len(set(sizes.values())) > 1:
            raise ValueError(f"{name} sizes disagree: {sizes}")
    else:
        model._check_shell(_power_law_spec(desc), _read(model.POWER_LAW_KEYS, desc)["w_profile"])


def _power_law_spec(desc: dict) -> model.PowerLawSpec:
    """The PowerLawSpec (a, s, r, nu, d0) of a power-law description;
    ValueError for any other type."""
    kind = desc.get("type", "powerlaw")
    if kind != "powerlaw":
        raise ValueError(f"not a power-law instance: type {kind!r}")
    read = _read(model.POWER_LAW_KEYS, desc)
    return model.PowerLawSpec(
        d=int(read["d"]), a=float(read["a"]), s=float(read["s"]), r=float(read["r"]),
        nu=int(read["nu"]), d0=None if read["d0"] is None else int(read["d0"]))


@dataclass(frozen=True)
class _Study:
    """A study kind; its needs and then its plan refuse what it cannot run."""

    reads: dict  # the table of the params it reads
    title: str  # the first line of its CSV
    plan: Callable  # plan(spec, inst): what its body computes with
    needs: tuple = ()  # checks of the spec before the instance is built


def _sweep_grid(spec):
    _power_law_spec(spec.instance)
    if len(spec.n_grid) < 4 or spec.n_grid[-1] < 8 * spec.n_grid[0]:
        raise ValueError("rate sweep needs an n-grid spanning >= 3 octaves")


def _plateau(spec):
    if _power_law_spec(spec.instance).d0 is None:
        raise ValueError("emergence needs a plateau width d0")


EPSILON_LADDER = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)


def _duality_plan(spec, inst):
    triple = whiten(inst)
    t_eigs = np.linalg.eigvalsh(triple.T_prime)  # singular: min below 1e-10 |T'|
    t_norm = float(np.abs(t_eigs).max())
    ladder = [e * t_norm for e in EPSILON_LADDER] if t_eigs.min() < 1e-10 * t_norm else [0.0]
    return [(n, eps, PrecondProgram(triple.ridged(eps), DEFAULT_BIAS_COEFF, inst.sigma2 / n))
            for n in spec.n_grid for eps in ladder]


def _bound_plan(spec, inst):
    return inst, [choose_parameters(inst, n, require_admissible=False) for n in spec.n_grid]


def _sweep_plan(spec, inst):
    """Steps scaling as n^((a-b+nu-1)/(b-nu+1)), b = (1+r)a, from the grid's
    first n; the predicted exponent -(r+s)a/(sa+1); e = 3(b-1)/a and each
    n's deflation factor (ln n)^e. ValueError at a pole of a rate exponent,
    or where a step or a factor is not a positive finite float."""
    pl = _power_law_spec(spec.instance)
    a, s, r, nu = pl.a, pl.s, pl.r, pl.nu
    b = (1.0 + r) * a
    if b - nu + 1.0 == 0.0 or s * a + 1.0 == 0.0:
        raise ValueError(f"a rate exponent has a pole at a = {a}, s = {s}, r = {r}, nu = {nu}")
    exponent = (a - b + nu - 1.0) / (b - nu + 1.0)
    predicted = -(r + s) * a / (s * a + 1.0)
    cfgs = [choose_rate_parameters(inst, n, spec.n_grid[0], exponent) for n in spec.n_grid]
    log_exp = 3.0 * ((1.0 + r) * a - 1.0) / a
    try:
        factors = [math.log(n) ** log_exp for n in spec.n_grid]
    except OverflowError:
        factors = [math.inf]
    if not all(0.0 < f < math.inf for f in factors):
        raise ValueError(f"a deflation factor (ln n)^{log_exp} on n_grid {list(spec.n_grid)} "
                         "is not a positive finite float")
    return inst, cfgs, predicted, log_exp, factors


def _emergence_plan(spec, inst):
    """The knee d0^(a+1), and steps that hold while n < n_ref (the plateau
    has nothing more to resolve) and decay as n^(-1/(a+1)) after."""
    pl = _power_law_spec(spec.instance)
    try:
        n_knee = pl.d0 ** (pl.a + 1.0)
    except OverflowError:
        raise ValueError(f"the knee d0^(a+1) = {pl.d0}^{pl.a + 1.0} overflows a float") from None
    n_ref = int(_param(spec, "step_n_ref", round(n_knee)))
    base, exponent = _param(spec, "step_base"), -1.0 / (pl.a + 1.0)
    return inst, n_knee, [choose_rate_parameters(inst, n, n_ref=n_ref, base=base,
                                                 exponent=exponent) for n in spec.n_grid]


# None: choose_rate_parameters' stability cap as step_base, and the knee
# d0^(a+1), rounded, as step_n_ref
_STUDIES = {
    "duality": _Study({"tol": (float, 1e-4)}, "duality certification", _duality_plan),
    "rate_sweep": _Study({"tol": (float, 0.15), "seed_base": (int, 0)}, "rate sweep",
                         _sweep_plan, (_sweep_grid,)),
    "emergence": _Study({"seed_base": (int, 0), "step_base": (float, None),
                         "step_n_ref": (_count, None)},
                        "emergence curve", _emergence_plan, (_plateau,)),
    "bound_check": _Study({"seed_base": (int, 0)}, "risk bound check", _bound_plan),
}
_SPEC = {"kind": (tuple(_STUDIES), ...), "instance": (_instance, ...),
         "n_grid": (_grid, ...), "seeds": (_count, ...),
         "output_path": (str, None), "params": (dict, {})}


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: a study kind, an instance description (power-law family
    or explicit matrices; the noise level sigma2 is an instance key), the
    sample-size grid, the seed count, and the study's params. Making one
    walks _SPEC, the instance's table and the study's params table, with
    ValueError for what they do not admit; the dicts are kept as given."""

    kind: str
    instance: dict
    n_grid: tuple
    seeds: int
    output_path: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _walk(_SPEC, vars(self), "")
        _walk(_STUDIES[self.kind].reads, self.params, "params")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "seeds", int(self.seeds))


def spec_to_json(spec: ExperimentSpec) -> dict:
    return {**vars(spec), "n_grid": list(spec.n_grid)}


def spec_from_json(obj: dict) -> ExperimentSpec:
    """The spec of a JSON object; ValueError for anything _SPEC refuses."""
    _walk({**_SPEC, "instance": (dict, ...)}, obj, "")  # its keys: no TypeError below
    return ExperimentSpec(**obj)  # which walks the instance


def spec_hash(spec: ExperimentSpec) -> str:
    """12-hex digest of the canonical spec JSON (output_path excluded, so
    relocating artifacts does not change identities)."""
    payload = spec_to_json(spec)
    payload.pop("output_path")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _check_study(spec: ExperimentSpec, kind: str):
    """ValueError unless spec is a `kind` spec, whose params the study
    reads (so a row's spec_hash names the spec behind it), and it meets the
    study's needs, checked before the instance is built."""
    if spec.kind != kind:
        raise ValueError(f"a {kind} study got a {spec.kind!r} spec")
    for need in _STUDIES[kind].needs:
        need(spec)


def _param(spec: ExperimentSpec, key: str, derived=None):
    """params[key], else the study's default, else (None) ``derived``."""
    value = spec.params.get(key, _STUDIES[spec.kind].reads[key][1])
    return derived if value is None else value


def _run(kind: str, spec: ExperimentSpec, body):
    """The frame of every study: check the spec, resolve its instance and
    plan (each ValueError before any Monte-Carlo or dual work), run
    ``body(spec, plan)``, end each row of its report with the spec's hash,
    and write the CSV to ``spec.output_path`` when one is set."""
    _check_study(spec, kind)
    plan = _STUDIES[kind].plan(spec, resolve_instance(spec))
    h = spec_hash(spec)
    rep = body(spec, plan)
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


def resolve_instance(spec: ExperimentSpec) -> ProblemInstance:
    """Materialize the instance description: {"type": "powerlaw", ...} maps
    to the power-law family (deterministic given its "seed" entry, default
    0); {"type": "explicit", ...} carries the matrices verbatim."""
    desc = spec.instance
    if desc.get("type") == "explicit":
        return model.instance_from_json(desc)
    read = _read(model.POWER_LAW_KEYS, desc)
    return model.make_power_law_instance(
        _power_law_spec(desc), seed=int(read["seed"]), sigma2=float(read["sigma2"]),
        w_profile=read["w_profile"])


def _seed_range(spec: ExperimentSpec) -> range:
    base = int(_param(spec, "seed_base"))
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


def _duality(spec, plan):
    tol = float(_param(spec, "tol"))
    precs = solve_stack([prog for _, _, prog in plan])
    rows = []
    worst = 0.0
    ladder_monotone = True
    prev_upper = {}  # the last rung's upper value at each n
    for (n, eps, _), prec in zip(plan, precs):
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


def _bound_check(spec, plan):
    inst, cfgs = plan
    seeds = _seed_range(spec)
    rows = []
    ok = True
    for n, cfg in zip(spec.n_grid, cfgs):
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
    Needs a power-law instance and a grid spanning >= 3 octaves on which
    ``_sweep_plan`` finds the rate theory finite (ValueError otherwise).
    """
    return _run("rate_sweep", spec, _rate_sweep)


def _rate_sweep(spec, plan):
    inst, cfgs, predicted, log_exp, factors = plan
    tol = float(_param(spec, "tol"))
    triple = whiten(inst)
    rows = []
    risks = run_grid(inst, cfgs, _seed_range(spec))
    for n, cfg, mc_risks, factor in zip(spec.n_grid, cfgs, risks, factors):
        mc = _mc_summary(mc_risks)
        try:
            lower = maximize_F(triple, inst.sigma2, n).value
        except MaxIterationsError as err:
            lower = err.best.value
        rows.append(
            {
                "n": n,
                **mc,
                "deflated_mean": mc["mc_mean"] / factor,
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
    a power-law instance with a plateau width d0 and a knee d0^(a+1) that a
    float holds (ValueError otherwise).
    """
    return _run("emergence", spec, _emergence)


def _emergence(spec, plan):
    inst, n_knee, cfgs = plan
    d0 = _power_law_spec(spec.instance).d0
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
