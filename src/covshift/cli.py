"""Command-line interface.

Every subcommand runs a study from a JSON spec file, prints a short report,
and exits 0 when all of that study's assertions pass, 1 when one fails, and
2 on a usage or spec error, before any work. Every value is determined by
the spec and the seed.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace

import click

from . import acceptance, experiments
from .estimators import DEFAULT_BIAS_COEFF, default_noise_coeff
from .model import whiten
from .precond import PrecondProgram, precond_to_json, solve_stack


def _load_spec(path, out, kind, n=None, seeds=None, **params):
    """The spec at ``path`` with the command-line overrides applied (each
    of ``params`` that is not None sets that params key), and its instance.
    A spec that its tables, its ``kind`` study, building the instance or
    the study's plan refuses (ValueError) is a usage error (exit 2), not a
    failed study."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if isinstance(obj, dict) and "kind" not in obj:  # bare instance description
            inst = obj.get("instance", obj)
            obj = {"kind": "duality", "instance": inst, "n_grid": [256], "seeds": 1}
        spec = experiments.spec_from_json(obj)
        params = {**spec.params, **{k: v for k, v in params.items() if v is not None}}
        spec = replace(spec, params=params, output_path=out or spec.output_path,
                       n_grid=spec.n_grid if n is None else (n,),
                       seeds=spec.seeds if seeds is None else seeds)
        experiments._check_study(spec, kind)
        inst = experiments.resolve_instance(spec)
        experiments._STUDIES[kind].plan(spec, inst)
        return spec, inst
    except ValueError as err:
        raise click.UsageError(f"spec {path}: {err}") from err


def _finish(ok: bool):
    click.echo("OK" if ok else "FAILED")
    sys.exit(0 if ok else 1)


spec_option = click.option(
    "--spec", "spec_path", required=True, type=click.Path(exists=True)
)
out_option = click.option("--out", type=click.Path())
tol_option = click.option("--tol", type=float)
PARAM_OPTIONS = {"tol": tol_option, "seed_base": click.option("--seed", "seed_base", type=int)}


@click.group()
def main():
    """Minimax-optimal linear regression under covariate shift: lower
    bounds, optimal preconditioners, and staged accelerated SGD."""


# subcommand -> the study kind it runs
STUDY_COMMANDS = {"duality": "duality", "asgd": "bound_check", "sweep": "rate_sweep",
                  "emergence": "emergence"}


def study_command(*options):
    """Make the decorated function, from a study's report to the lines it
    prints, the subcommand of its name (its docstring is the help) that
    loads a spec of its study kind, applies the overrides, runs, prints and
    exits. Of --tol and --seed, it takes those whose params its study reads;
    ``options`` are its own."""

    def register(lines):
        kind = STUDY_COMMANDS[lines.__name__]
        reads = experiments._STUDIES[kind].reads
        options_read = [option for key, option in PARAM_OPTIONS.items() if key in reads]

        def command(spec_path, out, **overrides):
            spec, _ = _load_spec(spec_path, out, kind, **overrides)
            rep = getattr(experiments, f"run_{kind}")(spec)
            click.echo("\n".join(lines(rep)))
            _finish(rep.ok)

        for option in reversed([spec_option, out_option, *options_read, *options]):
            command = option(command)
        return main.command(lines.__name__, help=lines.__doc__)(command)

    return register


@study_command()
def duality(rep):
    """Certify lower-bound value == preconditioner objective per n."""
    for row in rep.rows:
        yield (f"n={row['n']:>6} eps={row['epsilon']:.1e} "
               f"lower={row['lower_value']:.10e} upper={row['upper_value']:.10e} "
               f"gap={row['relative_gap']:.3e}")
    yield f"worst gap {rep.worst_gap:.3e}; ladder monotone: {rep.ladder_monotone}"


@study_command(click.option("--n", type=int), click.option("--seeds", type=int))
def asgd(rep):
    """Monte-Carlo risk of the staged method vs. the closed-form bound."""
    for row in rep.rows:
        yield (f"n={row['n']:>6} risk={row['mc_mean']:.6e} (+-{row['mc_stderr']:.1e}) "
               f"bound={row['bound_total']:.6e} k*={row['k_star']} "
               f"semi={row['semi_bias'] + row['semi_variance']:.6e}")


@study_command()
def sweep(rep):
    """Rate sweep: fitted log-log slope vs. the predicted exponent."""
    yield (f"predicted exponent {rep.predicted_exponent:+.4f}; "
           f"raw slope {rep.fit_raw.slope:+.4f} (r2 {rep.fit_raw.r2:.3f}); "
           f"deflated slope {rep.fit_deflated.slope:+.4f} (gap {rep.fit_deflated.gap:.3f}); "
           f"lower-bound slope {rep.fit_lower.slope:+.4f}")


@study_command()
def emergence(rep):
    """Plateau/knee/drop shape of the risk curve for a plateau target."""
    yield (f"knee at n={rep.knee_n} (target {rep.knee_target:.0f}, ok={rep.knee_ok}); "
           f"plateau ratio {rep.plateau_ratio:.3f} (ok={rep.plateau_ok}); "
           f"drop ratio {rep.drop_ratio:.3f} (ok={rep.drop_ok}); "
           f"nonincreasing={rep.isotonic_ok}")


@main.command()
@spec_option
@out_option
@tol_option
def precondition(spec_path, out, tol):
    """Write the certified preconditioner of a duality spec's first n as JSON."""
    spec, inst = _load_spec(spec_path, out, "duality", tol=tol)
    n = int(spec.n_grid[0])
    prog = PrecondProgram(
        whiten(inst), DEFAULT_BIAS_COEFF, default_noise_coeff(inst, n)
    )
    [prec] = solve_stack([prog])
    click.echo(
        f"objective={prec.objective_value:.10e} gap={prec.gap:.3e} "
        f"(bias {prec.bias_term:.3e} + variance {prec.variance_term:.3e})"
    )
    if out:
        with open(out, "w") as fh:
            json.dump({**precond_to_json(prec), "n": n}, fh, indent=2)
        click.echo(f"wrote {out}")
    _finish(abs(prec.gap) <= experiments._param(spec, "tol"))


@main.command()
@click.option("--only", default=None, type=str, help="comma-separated criterion numbers")
def verify(only):
    """Run the full acceptance suite (one line per criterion)."""
    try:
        selected = None if only is None else [int(tok) for tok in only.split(",")]
        acceptance.selected_criteria(selected)
    except ValueError as err:
        raise click.UsageError(f"--only {only}: {err}") from err
    sys.exit(0 if acceptance.run_all(selected=selected) else 1)


if __name__ == "__main__":
    main()
