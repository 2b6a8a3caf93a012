"""Command-line interface.

Every subcommand runs a study from a JSON spec file, prints a short report,
and exits 0 exactly when all of that study's assertions pass. Every value is
determined by the spec and the seed.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace

import click

from . import acceptance, experiments
from .estimators import DEFAULT_BIAS_COEFF, default_noise_coeff
from .model import whiten
from .precond import MaxIterationsError, PrecondProgram, precond_to_json, solve_general


def _load_spec(path, out, kind=None, tol=None, seed=None) -> experiments.ExperimentSpec:
    """The spec at ``path`` with the command-line overrides applied; a spec
    that is malformed, or not a ``kind`` study when ``kind`` is given, is a
    usage error (exit 2), not a failed study."""
    with open(path) as fh:
        obj = json.load(fh)
    if "kind" not in obj:  # bare instance description: wrap it
        inst = obj.get("instance", obj)
        obj = {"kind": "duality", "instance": inst, "n_grid": [256], "seeds": 1}
    try:
        spec = experiments.spec_from_json(obj)
        params = dict(spec.params)
        if tol is not None:
            params["tol"] = tol
        if seed is not None:
            params["seed_base"] = seed
        spec = replace(spec, params=params, output_path=out or spec.output_path)
        if kind is not None:
            experiments._check_study(spec, kind)
    except (KeyError, ValueError) as err:
        raise click.UsageError(f"spec {path}: {err}") from err
    return spec


def _finish(ok: bool):
    click.echo("OK" if ok else "FAILED")
    sys.exit(0 if ok else 1)


# Each subcommand takes only the options its study reads: --tol where the
# study reads params["tol"], --seed where it draws Monte-Carlo seeds.
spec_option = click.option(
    "--spec", "spec_path", required=True, type=click.Path(exists=True)
)
out_option = click.option("--out", default=None, type=click.Path())
tol_option = click.option("--tol", default=None, type=float)
seed_option = click.option("--seed", default=None, type=int)


@click.group()
def main():
    """Minimax-optimal linear regression under covariate shift: lower
    bounds, optimal preconditioners, and staged accelerated SGD."""


@main.command()
@spec_option
@out_option
@tol_option
def duality(spec_path, out, tol):
    """Certify lower-bound value == preconditioner objective per n."""
    spec = _load_spec(spec_path, out, "duality", tol=tol)
    rep = experiments.run_duality(spec)
    for row in rep.rows:
        click.echo(
            f"n={row['n']:>6} eps={row['epsilon']:.1e} "
            f"lower={row['lower_value']:.10e} upper={row['upper_value']:.10e} "
            f"gap={row['relative_gap']:.3e}"
        )
    click.echo(f"worst gap {rep.worst_gap:.3e}; ladder monotone: {rep.ladder_monotone}")
    _finish(rep.ok)


@main.command()
@spec_option
@out_option
@tol_option
def precondition(spec_path, out, tol):
    """Solve the preconditioner program; write the certified A as JSON."""
    spec = _load_spec(spec_path, out, tol=tol)
    inst = experiments.resolve_instance(spec)
    n = int(spec.n_grid[0])
    prog = PrecondProgram(
        whiten(inst), DEFAULT_BIAS_COEFF, default_noise_coeff(inst, n)
    )
    gap_tol = spec.params.get("tol", 1e-4)
    ok = True
    try:
        prec = solve_general(prog, tol=gap_tol)
    except MaxIterationsError as err:
        prec, ok = err.best, False
    click.echo(
        f"objective={prec.objective_value:.10e} gap={prec.gap:.3e} "
        f"(bias {prec.bias_term:.3e} + variance {prec.variance_term:.3e})"
    )
    if out:
        with open(out, "w") as fh:
            json.dump({**precond_to_json(prec), "n": n}, fh, indent=2)
        click.echo(f"wrote {out}")
    _finish(ok)


@main.command()
@spec_option
@out_option
@seed_option
@click.option("--n", "n_override", default=None, type=int)
@click.option("--seeds", "seeds_override", default=None, type=int)
def asgd(spec_path, out, seed, n_override, seeds_override):
    """Monte-Carlo risk of the staged method vs. the closed-form bound."""
    spec = _load_spec(spec_path, out, "bound_check", seed=seed)
    if n_override is not None:
        spec = replace(spec, n_grid=(n_override,))
    if seeds_override is not None:
        spec = replace(spec, seeds=seeds_override)
    rep = experiments.run_bound_check(spec)
    for row in rep.rows:
        click.echo(
            f"n={row['n']:>6} risk={row['mc_mean']:.6e} (+-{row['mc_stderr']:.1e}) "
            f"bound={row['bound_total']:.6e} k*={row['k_star']} "
            f"semi={row['semi_bias'] + row['semi_variance']:.6e}"
        )
    _finish(rep.ok)


@main.command()
@spec_option
@out_option
@tol_option
@seed_option
def sweep(spec_path, out, tol, seed):
    """Rate sweep: fitted log-log slope vs. the predicted exponent."""
    spec = _load_spec(spec_path, out, "rate_sweep", tol=tol, seed=seed)
    rep = experiments.run_rate_sweep(spec)
    click.echo(
        f"predicted exponent {rep.predicted_exponent:+.4f}; "
        f"raw slope {rep.fit_raw.slope:+.4f} (r2 {rep.fit_raw.r2:.3f}); "
        f"deflated slope {rep.fit_deflated.slope:+.4f} "
        f"(gap {rep.fit_deflated.gap:.3f}); "
        f"lower-bound slope {rep.fit_lower.slope:+.4f}"
    )
    _finish(rep.ok)


@main.command()
@spec_option
@out_option
@seed_option
def emergence(spec_path, out, seed):
    """Plateau/knee/drop shape of the risk curve for a plateau target."""
    spec = _load_spec(spec_path, out, "emergence", seed=seed)
    rep = experiments.run_emergence(spec)
    click.echo(
        f"knee at n={rep.knee_n} (target {rep.knee_target:.0f}, "
        f"ok={rep.knee_ok}); plateau ratio {rep.plateau_ratio:.3f} "
        f"(ok={rep.plateau_ok}); drop ratio {rep.drop_ratio:.3f} "
        f"(ok={rep.drop_ok}); nonincreasing={rep.isotonic_ok}"
    )
    _finish(rep.ok)


@main.command()
@click.option("--only", default=None, type=str, help="comma-separated criterion numbers")
def verify(only):
    """Run the full acceptance suite (one line per criterion)."""
    selected = None
    if only:
        selected = [int(tok) for tok in only.split(",")]
    ok = acceptance.run_all(selected=selected)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
