"""Benchmark workloads: inputs made from the workload seed, one round of
library calls, and the checks on what those calls return.

Each workload is built so that one ROADMAP optimisation does most of its work
there and little or none in the others:

* ``sweep`` — criterion 7's rate sweep. Plain SGD (gamma = delta) on a
  diagonal S: both ASGD fast paths (skip the V-sequence, element-wise sample
  scaling) apply. Never touches the risk oracle or the prior sampler.
* ``bound`` — a bound check on the d=100 power-law instance rotated by a
  seeded orthogonal matrix (S dense) with the momentum schedule of
  ``choose_parameters`` (gamma0 > delta0): bypasses both ASGD fast paths, and
  large n with few seeds gives the exact oracle's O(n d) loops a real share.
* ``certify`` — duality studies plus prior draws on generated explicit
  instances: the dual solver, ``eigh``, the preconditioner solvers and the
  prior sampler. Never samples data or runs ASGD.

Studies are called with their library defaults (no ``threads`` or other
knob), so the benchmark measures whatever the default does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from covshift import asgd, experiments, lowerbound, model

KNOWN_DEFECTS = {
    # run_duality compares consecutive epsilon-ladder upper values with a
    # 1e-9 slack, but solve_general stops within its 1e-4 gap, so the values
    # can rise by ~1e-7 between rungs although every gap is within tol.
    "ladder_not_monotone",
}

SEED_STRIDE = 1000  # rounds per workload seed before seed blocks could overlap
WARMUP_ROUND = SEED_STRIDE - 1  # inputs of a round index no run reaches


@dataclass
class Op:
    """One operation: a grid point of a study or one certified instance.
    ``values`` is empty when the operation raised."""

    label: str
    values: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


@dataclass
class Round:
    """One round: its time, the time of each study in it, its operations."""

    seconds: float
    studies: list
    ops: list


def _finite_failures(values: dict) -> list:
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    return [f"non_finite ({', '.join(bad)})"] if bad else []


class GridUnits:
    """Labels tracer spans with (round, grid index) inside a study: the study
    asks for each grid point's schedule once, at the start of that point."""

    HOOKED = ("choose_parameters", "choose_rate_parameters")

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def install(self):
        for name in self.HOOKED:
            original = getattr(experiments, name)
            setattr(experiments, name, self._hook(original))
            self._saved.append((name, original))
        return self

    def uninstall(self):
        for name, original in self._saved:
            setattr(experiments, name, original)
        self._saved.clear()

    def _hook(self, fn):
        def hook(*args, **kwargs):
            r, i = self.tracer.unit
            self.tracer.unit = (r, 0 if i is None else i + 1)
            return fn(*args, **kwargs)

        return hook


def _study_ops(rows, fields):
    ops = []
    for row in rows:
        values = {k: float(row[k]) for k in fields}
        ops.append(Op(f"n={row['n']}", values, _finite_failures(values)))
    return ops


def _raised(labels, err):
    reason = f"raised {type(err).__name__}: {err}"
    return [Op(label, {}, [reason]) for label in labels]


def _rand_orth(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def _mc_steps(spec) -> int:
    """Seed-steps of one study: seeds x stages x stage_len over the n-grid."""
    total = 0
    for n in spec.n_grid:
        stages = int(math.floor(math.log2(n)))
        total += spec.seeds * stages * (n // stages)
    return total


# =====================================================================
# sweep
# =====================================================================

class Sweep:
    """Criterion 7's rate sweep: power-law d=100, a=2, n = 2^8..2^14,
    100 seeds; each round uses a fresh block of seeds."""

    name = "sweep"
    min_rounds = 1
    ROUND_S = 17.0  # nominal round time on a 2-vCPU x86-64 VM
    tail_q = 1.0  # one study a run: too few for a percentile with 10 beyond
    SEEDS = 100
    SLOPE_TOL = 0.15  # run_rate_sweep's default tol

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, r):
        return experiments.ExperimentSpec(
            kind="rate_sweep",
            instance={"type": "powerlaw", "d": 100, "a": 2.0, "s": 1.0,
                      "r": 0.0, "sigma2": 1.0, "seed": 0},
            n_grid=tuple(2**k for k in range(8, 15)),
            seeds=self.SEEDS,
            params={"seed_base": self.SEEDS * (SEED_STRIDE * self.seed + r)},
        )

    def setup(self):
        model.whiten(experiments.resolve_instance(self.inputs(0)))

    def warmup(self):
        pass

    def run_round(self, r, spec, unit, log):
        unit((r, None))
        t0 = perf_counter()
        try:
            rep = experiments.run_rate_sweep(spec)
        except Exception as err:  # an operation that raises is a failure
            seconds = perf_counter() - t0
            return Round(seconds, [seconds], _raised([f"n={n}" for n in spec.n_grid], err))
        seconds = perf_counter() - t0
        gap = rep.fit_deflated.gap
        log(f"sweep round {r}: deflated slope {rep.fit_deflated.slope:+.4f}, "
            f"gap {gap:.4f} vs tol {self.SLOPE_TOL} (margin {self.SLOPE_TOL - gap:+.4f}; "
            "statistical, not counted as a failure)")
        ops = _study_ops(rep.rows, ("mc_mean", "mc_stderr", "lower_value"))
        return Round(seconds, [seconds], ops)

    def detail(self, wall_s, ops_per_s):
        return {"mc_steps_per_s": _mc_steps(self.inputs(0)) / wall_s}


# =====================================================================
# bound
# =====================================================================

class Bound:
    """bound_check on the d=100 power-law instance rotated by a seeded
    orthogonal matrix, n in {2^12, 2^14, 2^16}, 4 seeds a round: short
    rounds, so a run's median is taken over several of them."""

    name = "bound"
    min_rounds = 2
    ROUND_S = 4.0
    tail_q = 0.75  # a run has too few studies for a percentile with 10 beyond
    SEEDS = 4

    def __init__(self, seed: int):
        self.seed = seed
        self._instance = None

    def _rotated_instance(self) -> dict:
        if self._instance is None:
            base = model.make_power_law_instance(
                model.PowerLawSpec(d=100, a=2.0, s=1.0, r=0.0), seed=0
            )
            Q = _rand_orth(np.random.default_rng(self.seed), base.d)
            self._instance = {
                "type": "explicit",
                "d": base.d,
                "S": (Q @ base.S @ Q.T).tolist(),
                "T": (Q @ base.T @ Q.T).tolist(),
                "M": (Q @ base.M @ Q.T).tolist(),
                "w_star": (Q @ base.w_star).tolist(),
                "sigma2": base.sigma2,
                "psi": base.psi,
            }
        return self._instance

    def inputs(self, r):
        return experiments.ExperimentSpec(
            kind="bound_check",
            instance=self._rotated_instance(),
            n_grid=(2**12, 2**14, 2**16),
            seeds=self.SEEDS,
            params={"seed_base": self.SEEDS * (SEED_STRIDE * self.seed + r)},
        )

    def setup(self):
        model.whiten(experiments.resolve_instance(self.inputs(0)))

    def warmup(self):
        pass

    def run_round(self, r, spec, unit, log):
        unit((r, None))
        t0 = perf_counter()
        try:
            rep = experiments.run_bound_check(spec)
        except Exception as err:
            seconds = perf_counter() - t0
            return Round(seconds, [seconds], _raised([f"n={n}" for n in spec.n_grid], err))
        seconds = perf_counter() - t0
        ops = _study_ops(rep.rows, ("mc_mean", "bound_total", "semi_bias", "semi_variance"))
        for op in ops:
            if not op.values["mc_mean"] <= op.values["bound_total"]:
                op.failures.append("mean_above_bound")
        return Round(seconds, [seconds], ops)

    def detail(self, wall_s, ops_per_s):
        spec = self.inputs(0)
        inst = experiments.resolve_instance(spec)
        cfg = asgd.choose_parameters(inst, spec.n_grid[0], require_admissible=False)
        off = inst.S - np.diag(np.diag(inst.S))
        return {
            "mc_steps_per_s": _mc_steps(spec) / wall_s,
            "gamma0_over_delta0": cfg.gamma0 / cfg.delta0,
            "S_offdiag_frobenius_share": float(np.linalg.norm(off) / np.linalg.norm(inst.S)),
        }


# =====================================================================
# certify
# =====================================================================

def _rotated(rng, eigenvalues):
    """Q diag(eigenvalues) Q' for a uniformly random orthogonal Q."""
    Q = _rand_orth(rng, len(eigenvalues))
    return (Q * eigenvalues) @ Q.T


def _explicit(S, T, M) -> dict:
    d = S.shape[0]
    return {"type": "explicit", "d": d, "S": S.tolist(), "T": T.tolist(),
            "M": M.tolist(), "w_star": [0.0] * d, "sigma2": 1.0, "psi": 3.0}


class Certify:
    """Generated explicit instances, d in {2, 5, 10, 20, 40}, three kinds:

    * dense — S, T, M with fixed geometric spectra in independent random
      eigenbases;
    * rank_deficient — the same but with a rank-d/2 target, which runs the
      7-rung epsilon-ladder; stops at d=20, because one such instance at
      d=40 takes 5-11 s, longer than a whole round of the others;
    * commuting — a power-law spectrum (S = i^-2, M = i^-1, T = i^-2) in
      one random eigenbasis, which takes solve_general's water-filling
      branch.

    The seed draws only eigenbases, so instances of one kind and size cost
    about the same on every seed. Each instance runs a duality study over a
    two-point n-grid, then draws from the prior its certificate defines and
    checks every draw's support.
    """

    name = "certify"
    min_rounds = 3
    ROUND_S = 7.0
    tail_q = 0.75  # at least 10 of the >= 42 instances (studies) lie beyond it
    DIMS = (2, 5, 10, 20, 40)
    N_GRID = (64, 1024)
    DRAWS = 2048
    GAP_TOL = 1e-4  # run_duality's default tol

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, r):
        rng = np.random.default_rng([self.seed, r])
        out = []
        for kind in ("dense", "rank_deficient", "commuting"):
            for d in self.DIMS:
                if kind == "rank_deficient" and d > 20:
                    continue
                spectrum = np.geomspace(2.0, 0.1, d)
                if kind == "commuting":
                    i = np.arange(1.0, d + 1.0)
                    Q = _rand_orth(rng, d)
                    S, M, T = ((Q * e) @ Q.T for e in (i**-2.0, i**-1.0, i**-2.0))
                else:
                    S, M = _rotated(rng, spectrum), _rotated(rng, spectrum)
                    t = spectrum.copy()
                    if kind == "rank_deficient":
                        t[max(1, d // 2):] = 0.0
                    T = _rotated(rng, t)
                spec = experiments.ExperimentSpec(
                    kind="duality",
                    instance=_explicit(S, T, M),
                    n_grid=self.N_GRID,
                    seeds=1,
                )
                out.append((f"{kind} d={d}", spec, int(rng.integers(2**31))))
        return out

    def setup(self):
        for _, spec, _ in self.inputs(0):
            model.whiten(experiments.resolve_instance(spec))

    def warmup(self):
        """Certify the d <= 5 instances of a round that is never timed, so
        first-call costs (lazy scipy imports, caches) fall outside round 0."""
        for label, spec, prior_seed in self.inputs(WARMUP_ROUND):
            if spec.instance["d"] <= 5:
                self._certify(label, spec, prior_seed, lambda msg: None)

    def run_round(self, r, instances, unit, log):
        ops, studies = [], []
        for i, (label, spec, prior_seed) in enumerate(instances):
            unit((r, i))
            t0 = perf_counter()
            ops.append(self._certify(label, spec, prior_seed, log))
            studies.append(perf_counter() - t0)
        unit(None)
        return Round(sum(studies), studies, ops)

    def _certify(self, label, spec, prior_seed, log):
        """One instance: duality study, then prior draws from its certificate.
        The support check on the draws is timed with the instance."""
        try:
            rep = experiments.run_duality(spec)
            inst = experiments.resolve_instance(spec)
            triple = model.whiten(inst)
            try:
                cert = lowerbound.maximize_F(triple, inst.sigma2, spec.n_grid[-1])
            except lowerbound.MaxIterationsError as err:  # best is still a valid bound
                cert = err.best
            prior = lowerbound.prior_from_certificate(cert.F, inst.M)
            W = lowerbound.sample_prior(prior, self.DRAWS, seed=prior_seed)
        except Exception as err:
            return _raised([label], err)[0]
        norms = np.einsum("nd,de,ne->n", W, inst.M, W)
        values = {}
        for j, row in enumerate(rep.rows):
            values[f"lower_{j}"] = float(row["lower_value"])
            values[f"upper_{j}"] = float(row["upper_value"])
        values["prior_max_norm"] = float(norms.max())
        failures = _finite_failures(values)
        if not np.isfinite(W).all():
            failures.append("non_finite (prior draws)")
        if not rep.worst_gap <= self.GAP_TOL:
            failures.append(f"gap_above_tol ({rep.worst_gap:.3e})")
        if not rep.ladder_monotone:
            failures.append("ladder_not_monotone")
            log(f"certify {label}: ladder_not_monotone, worst upper-value rise "
                f"{_worst_rise(rep.rows):.3e}, worst gap {rep.worst_gap:.3e} "
                f"(tol {self.GAP_TOL})")
        if not values["prior_max_norm"] <= 1.0 + 1e-9:
            failures.append("prior_outside_support")
        return Op(label, values, failures)

    def detail(self, wall_s, ops_per_s):
        return {"certs_per_s": ops_per_s}


def _worst_rise(rows) -> float:
    """Largest relative increase of the upper value along one n's ladder."""
    worst = 0.0
    for prev, row in zip(rows, rows[1:]):
        if prev["n"] == row["n"]:
            rise = (row["upper_value"] - prev["upper_value"]) / prev["upper_value"]
            worst = max(worst, rise)
    return worst


WORKLOADS = {cls.name: cls for cls in (Sweep, Bound, Certify)}
