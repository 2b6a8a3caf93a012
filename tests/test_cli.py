import json
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from covshift import acceptance, cli, experiments, model
from covshift.cli import main
from covshift.experiments import (
    ExperimentSpec,
    run_bound_check,
    run_duality,
    run_emergence,
    run_rate_sweep,
    spec_hash,
    spec_to_json,
)
from covshift.estimators import default_noise_coeff, eval_upper_objective
from covshift.model import PowerLawSpec, instance_to_json, make_power_law_instance, whiten


def write_spec(path, **kw):
    path.write_text(json.dumps(kw))
    return str(path)


def duality_spec(tmp_path, d=3):
    return write_spec(
        tmp_path / "duality.json",
        kind="duality",
        instance={"type": "powerlaw", "d": d, "a": 2.0, "s": 1.0, "r": 0.0,
                  "sigma2": 0.5, "seed": 0},
        n_grid=[16, 64],
        seeds=1,
    )


def test_duality_ok_and_csv(tmp_path):
    spec = duality_spec(tmp_path)
    out = tmp_path / "rows.csv"
    res = CliRunner().invoke(main, ["duality", "--spec", spec, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "OK" in res.output and "worst gap" in res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "# duality certification"
    assert lines[1].startswith("# spec_hash=")


def test_duality_fails_on_impossible_tol(tmp_path):
    spec = duality_spec(tmp_path)
    res = CliRunner().invoke(main, ["duality", "--spec", spec, "--tol", "1e-16"])
    assert res.exit_code == 1
    assert "FAILED" in res.output


def test_bare_instance_is_wrapped(tmp_path):
    # a spec file holding only an instance description defaults to a
    # one-point duality study
    spec = write_spec(
        tmp_path / "bare.json",
        type="powerlaw", d=2, a=2.0, s=1.0, r=0.0, sigma2=0.5, seed=0,
    )
    res = CliRunner().invoke(main, ["duality", "--spec", spec])
    assert res.exit_code == 0, res.output
    assert "n=   256" in res.output


def test_duality_reads_a_written_instance(tmp_path):
    # the output of instance_to_json is a bare "explicit" instance spec
    inst = make_power_law_instance(PowerLawSpec(d=2, a=2.0, s=1.0, r=0.0), seed=0)
    spec = write_spec(tmp_path / "inst.json", **instance_to_json(inst))
    res = CliRunner().invoke(main, ["duality", "--spec", spec])
    assert res.exit_code == 0, res.output
    assert "n=   256" in res.output


def test_precondition_writes_json(tmp_path):
    spec = duality_spec(tmp_path)
    out = tmp_path / "A.json"
    res = CliRunner().invoke(main, ["precondition", "--spec", spec, "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert sorted(doc) == [
        "A", "bias_coeff", "bias_term", "gap", "n",
        "noise_coeff", "objective", "variance_term",
    ]
    assert len(doc["A"]) == 3
    assert doc["n"] == 16  # the first n of the spec's grid, which was solved


def test_precondition_solves_a_singular_target_as_given(tmp_path):
    # the rank-one nu = 1 target: no ridge, so the reported objective is the
    # given program's at the written A
    instance = {"type": "powerlaw", "d": 8, "a": 2.0, "nu": 1, "sigma2": 0.5}
    spec = write_spec(tmp_path / "rank_one.json", kind="duality", instance=instance,
                      n_grid=[64], seeds=1)
    out = tmp_path / "A.json"
    res = CliRunner().invoke(main, ["precondition", "--spec", spec, "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    inst = make_power_law_instance(PowerLawSpec(d=8, a=2.0, s=1.0, r=0.0, nu=1), seed=0,
                                   sigma2=0.5)
    triple = whiten(inst)
    assert np.linalg.matrix_rank(triple.T_prime) == 1
    assert doc["noise_coeff"] == default_noise_coeff(inst, 64)
    ref = eval_upper_objective(triple, np.array(doc["A"]), doc["noise_coeff"],
                               doc["bias_coeff"])
    assert doc["objective"] == ref.objective and doc["gap"] <= 1e-6


def test_asgd_overrides_and_bound(tmp_path):
    spec = write_spec(
        tmp_path / "asgd.json",
        kind="bound_check",
        instance={"type": "powerlaw", "d": 10, "a": 2.0, "s": 1.0, "r": 0.0,
                  "sigma2": 1.0, "seed": 0},
        n_grid=[2**5],
        seeds=2,
    )
    res = CliRunner().invoke(
        main, ["asgd", "--spec", spec, "--n", "64", "--seeds", "4"]
    )
    assert res.exit_code == 0, res.output
    assert "n=    64" in res.output and "bound=" in res.output
    assert "OK" in res.output


def test_asgd_seed_option_changes_draws(tmp_path):
    spec = write_spec(
        tmp_path / "asgd.json",
        kind="bound_check",
        instance={"type": "powerlaw", "d": 10, "a": 2.0, "s": 1.0, "r": 0.0,
                  "sigma2": 1.0, "seed": 0},
        n_grid=[2**6],
        seeds=3,
    )
    runner = CliRunner()
    a = runner.invoke(main, ["asgd", "--spec", spec, "--seed", "0"])
    b = runner.invoke(main, ["asgd", "--spec", spec, "--seed", "100"])
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.output != b.output


def test_sweep_exit_code_tracks_report(tmp_path):
    payload = dict(
        kind="rate_sweep",
        instance={"type": "powerlaw", "d": 20, "a": 2.0, "s": 1.0, "r": 0.0,
                  "sigma2": 1.0, "seed": 0},
        n_grid=[2**6, 2**7, 2**8, 2**9],
        seeds=4,
    )
    spec = write_spec(tmp_path / "sweep.json", **payload)
    res = CliRunner().invoke(main, ["sweep", "--spec", spec])
    expected = run_rate_sweep(ExperimentSpec(**payload))
    assert res.exit_code == (0 if expected.ok else 1)
    assert "predicted exponent" in res.output and "deflated slope" in res.output


def test_emergence_runs(tmp_path):
    spec = write_spec(
        tmp_path / "em.json",
        kind="emergence",
        instance={"type": "powerlaw", "d": 16, "a": 2.0, "s": 1.0, "r": 0.0,
                  "d0": 1, "sigma2": 0.01, "seed": 0, "w_profile": "tail"},
        n_grid=[2**k for k in range(3, 10)],
        seeds=8,
        params={"step_base": 0.5},
    )
    res = CliRunner().invoke(main, ["emergence", "--spec", spec])
    assert res.exit_code == 0, res.output
    assert "knee at n=" in res.output


POWER_LAW = {"type": "powerlaw", "d": 20, "a": 2.0, "s": 1.0, "r": 0.0,
             "sigma2": 0.5, "seed": 0}
OUT_STUDIES = {
    "duality": ("duality certification", run_duality,
                dict(kind="duality", instance=POWER_LAW, n_grid=[16, 64], seeds=1)),
    "asgd": ("risk bound check", run_bound_check,
             dict(kind="bound_check", instance=POWER_LAW, n_grid=[32, 64], seeds=2)),
    "sweep": ("rate sweep", run_rate_sweep,
              dict(kind="rate_sweep", instance=POWER_LAW,
                   n_grid=[16, 32, 64, 128], seeds=2)),
    "emergence": ("emergence curve", run_emergence,
                  dict(kind="emergence", instance=dict(POWER_LAW, d0=2, w_profile="tail"),
                       n_grid=[8, 16, 32], seeds=2, params={"step_base": 0.5})),
}


@pytest.mark.parametrize("command", sorted(OUT_STUDIES))
def test_out_writes_the_study_csv(tmp_path, command):
    title, study, payload = OUT_STUDIES[command]
    out = tmp_path / "rows.csv"
    spec = write_spec(tmp_path / "spec.json", **payload)
    res = CliRunner().invoke(main, [command, "--spec", spec, "--out", str(out)])
    rep = study(ExperimentSpec(**payload))
    assert res.exit_code == (0 if rep.ok else 1), res.output
    h = spec_hash(ExperimentSpec(**payload))
    fields = list(rep.rows[0])
    lines = out.read_text().splitlines()
    assert lines[:4] == [f"# {title}", f"# spec_hash={h}", "# " + " ".join(fields),
                         ",".join(fields)]
    body = [line.split(",") for line in lines[4:]]
    assert [int(cols[0]) for cols in body] == payload["n_grid"]
    assert {cols[fields.index("spec_hash")] for cols in body} == {h}


def test_verify_single_criterion():
    res = CliRunner().invoke(main, ["verify", "--only", "1"])
    assert res.exit_code == 0, res.output
    assert "PASS criterion  1" in res.output


@pytest.mark.parametrize("only, message", [
    ("11", "no criterion numbered [11]"),
    ("1,x", "invalid literal for int()"),
    ("", "invalid literal for int()"),
], ids=["unknown", "not-an-integer", "empty"])
def test_verify_selection_that_names_no_criterion_is_a_usage_error(monkeypatch, only, message):
    # a selection that would run nothing, or that is not a list of
    # criterion numbers, must not pass the gate vacuously or crash
    def ran(number):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(acceptance, "run_criterion", ran)
    res = CliRunner().invoke(main, ["verify", "--only", only])
    assert res.exit_code == 2, res.output
    assert f"--only {only}: " in res.output and message in res.output
    assert res.exc_info[0] is SystemExit
    with pytest.raises(ValueError, match=re.escape("no criterion numbered [0, 11]")):
        acceptance.run_all(selected=[1, 11, 0])


def test_options_a_study_does_not_read_are_rejected(tmp_path):
    spec = duality_spec(tmp_path)
    runner = CliRunner()
    for args in (["duality", "--spec", spec, "--seed", "7"],
                 ["emergence", "--spec", spec, "--tol", "1"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert "No such option" in res.output


def test_missing_spec_file_errors():
    res = CliRunner().invoke(main, ["duality", "--spec", "/no/such/file.json"])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "command, kind",
    [("asgd", "bound_check"), ("sweep", "rate_sweep"), ("emergence", "emergence"),
     ("duality", "duality"), ("precondition", "duality")],
)
def test_spec_of_another_kind_is_a_usage_error(tmp_path, command, kind):
    # exit 1 means a study ran and failed; a spec of another kind handed to
    # a study is a usage error, reported without a traceback
    other = "bound_check" if kind == "duality" else "duality"
    spec = write_spec(tmp_path / "spec.json", **dict(OUT_STUDIES["asgd"][2], kind=other))
    res = CliRunner().invoke(main, [command, "--spec", spec])
    assert res.exit_code == 2, res.output
    assert f"a {kind} study got a '{other}' spec" in res.output
    assert "Traceback" not in res.output and res.exc_info[0] is SystemExit


def test_study_commands_cover_the_study_kinds():
    # a new study kind cannot ship without a subcommand that runs it
    assert sorted(cli.STUDY_COMMANDS.values()) == sorted(experiments._STUDIES)
    assert set(cli.STUDY_COMMANDS) <= set(main.commands)


def test_malformed_spec_is_a_usage_error(tmp_path):
    spec = write_spec(tmp_path / "bad.json", kind="duality", instance={}, seeds=1)
    res = CliRunner().invoke(main, ["duality", "--spec", spec])
    assert res.exit_code == 2, res.output
    assert "n_grid" in res.output and res.exc_info[0] is SystemExit


@pytest.mark.parametrize("text", ['{"kind": "duality",', "[1, 2]"], ids=["truncated", "list"])
def test_spec_file_that_is_not_a_json_object_is_a_usage_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    res = CliRunner().invoke(main, ["duality", "--spec", str(path)])
    assert res.exit_code == 2, res.output
    assert f"spec {path}: " in res.output and res.exc_info[0] is SystemExit


def explicit(**entries):
    """A 2 x 2 explicit instance description with ``entries`` replaced."""
    eye = [[1, 0], [0, 1]]
    return dict({"type": "explicit", "S": eye, "T": eye, "M": eye, "w_star": [0, 0],
                 "sigma2": 1.0}, **entries)


UNRUNNABLE = {
    "sweep-3-point-grid": ("sweep", dict(kind="rate_sweep", n_grid=[16, 32, 128]),
                           "rate sweep needs an n-grid spanning >= 3 octaves"),
    "emergence-without-d0": ("emergence", dict(kind="emergence", n_grid=[8, 16, 32]),
                             "emergence needs a plateau width d0"),
    "duality-n-0": ("duality", dict(kind="duality", n_grid=[0, 16]),
                    "n_grid[0] must be an integer >= 1, not 0"),
    # instance descriptions that cannot be built
    "duality-powerlaw-without-a": ("duality", dict(kind="duality", n_grid=[16],
                                                   instance={"type": "powerlaw", "d": 3}),
                                   "instance lacks the keys ['a']"),
    "precondition-powerlaw-without-a": ("precondition",
                                        dict(kind="duality", n_grid=[16],
                                             instance={"type": "powerlaw", "d": 3}),
                                        "instance lacks the keys ['a']"),
    "asgd-a-below-1": ("asgd", dict(kind="bound_check", n_grid=[16],
                                    instance=dict(POWER_LAW, a=0.5)),
                       "a must be > 1"),
    "duality-unknown-type": ("duality", dict(kind="duality", n_grid=[16],
                                             instance=dict(POWER_LAW, type="powrlaw")),
                             "instance.type must be 'powerlaw' or 'explicit', not 'powrlaw'"),
    "duality-explicit-without-matrices": (
        "duality", dict(kind="duality", n_grid=[16], instance={"type": "explicit", "d": 2}),
        "instance lacks the keys ['S', 'T', 'M', 'w_star', 'sigma2']"),
    # every key present, a value the instance would refuse
    "duality-unknown-noise": ("duality", dict(kind="duality", n_grid=[16],
                                              instance=dict(POWER_LAW, noise="gauss")),
                              "instance.noise must be 'gaussian', not 'gauss'"),
    "duality-rademacher-noise": ("duality", dict(kind="duality", n_grid=[16],
                                                 instance=dict(POWER_LAW, noise="rademacher")),
                                 "instance.noise must be 'gaussian', not 'rademacher'"),
    "duality-psi-below-1": ("duality", dict(kind="duality", n_grid=[16],
                                            instance=dict(POWER_LAW, psi=0.5)),
                            "instance.psi must be 3.0, not 0.5"),
    "duality-psi-2": ("duality", dict(kind="duality", n_grid=[16],
                                      instance=dict(POWER_LAW, psi=2)),
                      "instance.psi must be 3.0, not 2"),
    "duality-misspelled-sigma2": ("duality", dict(kind="duality", n_grid=[16],
                                                  instance=dict(POWER_LAW, sigma=0.25)),
                                  "instance has keys nothing reads: ['sigma']"),
    "duality-explicit-d-disagrees": (
        "duality", dict(kind="duality", n_grid=[16],
                        instance={"type": "explicit", "d": 7, "S": [[1, 0], [0, 1]],
                                  "T": [[1, 0], [0, 1]], "M": [[1, 0], [0, 1]],
                                  "w_star": [0, 0], "sigma2": 1.0}),
        "instance sizes disagree: {'d': 7, 'S': 2, 'T': 2, 'M': 2, 'w_star': 2}"),
    # params of a type the study cannot read
    "asgd-fractional-kappa-tilde": ("asgd", dict(kind="bound_check", n_grid=[16],
                                                 params={"kappa_tilde": 2.5}),
                                    "params has keys nothing reads: ['kappa_tilde']"),
    # params no study reads any more: kappa-tilde is min(10, d - 1), the
    # sweep's base step the stability cap, emergence's exponent -1/(a + 1)
    "asgd-kappa-tilde-50": ("asgd", dict(kind="bound_check", n_grid=[16],
                                         params={"kappa_tilde": 50}),
                            "params has keys nothing reads: ['kappa_tilde']"),
    "sweep-negative-step-base": ("sweep", dict(kind="rate_sweep", n_grid=[16, 32, 64, 128],
                                               params={"step_base": -1.0}),
                                 "params has keys nothing reads: ['step_base']"),
    "emergence-step-exponent": ("emergence", dict(kind="emergence", n_grid=[8, 16, 32],
                                                  instance=dict(POWER_LAW, d0=2),
                                                  params={"step_exponent": -0.5}),
                                "params has keys nothing reads: ['step_exponent']"),
    "duality-huge-n": ("duality", dict(kind="duality", n_grid=[10**400]),
                       "n_grid[0] must be at most the largest float, not 1000"),
    "duality-string-tol": ("duality", dict(kind="duality", n_grid=[16], params={"tol": "loose"}),
                           "params.tol must be a finite real number, not 'loose'"),
    "duality-explicit-w-star-too-long": (
        "duality", dict(kind="duality", n_grid=[16],
                        instance={"type": "explicit", "d": 2, "S": [[1, 0], [0, 1]],
                                  "T": [[1, 0], [0, 1]], "M": [[1, 0], [0, 1]],
                                  "w_star": [0, 0, 0], "sigma2": 1.0}),
        "instance sizes disagree: {'d': 2, 'S': 2, 'T': 2, 'M': 2, 'w_star': 3}"),
    "duality-d-null": ("duality", dict(kind="duality", n_grid=[16],
                                       instance=dict(POWER_LAW, d=None)),
                       "instance.d must be an integer >= 0, not None"),
    # w* is on the boundary |w*|_M = 1: no key scales it
    "duality-rho-2": ("duality", dict(kind="duality", n_grid=[16],
                                      instance=dict(POWER_LAW, rho=2)),
                      "instance has keys nothing reads: ['rho']"),
    # power-law values make_power_law_instance would refuse
    "duality-unknown-w-profile": ("duality", dict(kind="duality", n_grid=[16],
                                                  instance=dict(POWER_LAW, w_profile="flat")),
                                  "unknown w_profile 'flat'"),
    "duality-tail-without-d0": ("duality", dict(kind="duality", n_grid=[16],
                                                instance=dict(POWER_LAW, w_profile="tail")),
                                "w_profile='tail' needs d0"),
    "duality-string-seed": ("duality", dict(kind="duality", n_grid=[16],
                                            instance=dict(POWER_LAW, seed="abc")),
                            "instance.seed must be an integer >= 0, not 'abc'"),
    # power-law values of the wrong type, refused rather than coerced
    "duality-fractional-d": ("duality", dict(kind="duality", n_grid=[16],
                                             instance=dict(POWER_LAW, d=4.7)),
                             "instance.d must be an integer >= 0, not 4.7"),
    "duality-string-d": ("duality", dict(kind="duality", n_grid=[16],
                                         instance=dict(POWER_LAW, d="4")),
                         "instance.d must be an integer >= 0, not '4'"),
    "duality-bool-d": ("duality", dict(kind="duality", n_grid=[16],
                                       instance=dict(POWER_LAW, d=True)),
                       "instance.d must be an integer >= 0, not True"),
    "duality-fractional-nu": ("duality", dict(kind="duality", n_grid=[16],
                                              instance=dict(POWER_LAW, nu=0.5)),
                              "instance.nu must be an integer >= 0, not 0.5"),
    "emergence-fractional-d0": ("emergence", dict(kind="emergence", n_grid=[8, 16, 32],
                                                  instance=dict(POWER_LAW, d0=4.5)),
                                "instance.d0 must be an integer >= 0, not 4.5"),
    "duality-string-a": ("duality", dict(kind="duality", n_grid=[16],
                                         instance=dict(POWER_LAW, a="2")),
                         "instance.a must be a finite real number, not '2'"),
    "duality-string-sigma2": ("duality", dict(kind="duality", n_grid=[16],
                                              instance=dict(POWER_LAW, sigma2="1")),
                              "instance.sigma2 must be a finite real number, not '1'"),
    "duality-bool-s": ("duality", dict(kind="duality", n_grid=[16],
                                       instance=dict(POWER_LAW, s=True)),
                       "instance.s must be a finite real number, not True"),
    "duality-explicit-string-sigma2": (
        "duality", dict(kind="duality", n_grid=[16],
                        instance={"type": "explicit", "d": 2, "S": [[1, 0], [0, 1]],
                                  "T": [[1, 0], [0, 1]], "M": [[1, 0], [0, 1]],
                                  "w_star": [0, 0], "sigma2": "1"}),
        "instance.sigma2 must be a finite real number, not '1'"),
    "duality-explicit-fractional-d": (
        "duality", dict(kind="duality", n_grid=[16],
                        instance={"type": "explicit", "d": 2.0, "S": [[1, 0], [0, 1]],
                                  "T": [[1, 0], [0, 1]], "M": [[1, 0], [0, 1]],
                                  "w_star": [0, 0], "sigma2": 1.0}),
        "instance.d must be an integer >= 0, not 2.0"),
    # matrix entries, grid entries, seed counts and numbers that are not
    # finite reals or integers, refused rather than coerced
    "duality-explicit-string-entry": (
        "duality", dict(kind="duality", n_grid=[16], instance=explicit(S=[["1", 0], [0, 1]])),
        "instance.S[0][0] must be a finite real number, not '1'"),
    "duality-explicit-bool-entry": (
        "duality", dict(kind="duality", n_grid=[16], instance=explicit(T=[[1, 0], [0, True]])),
        "instance.T[1][1] must be a finite real number, not True"),
    "duality-explicit-nan-entry": (
        "duality", dict(kind="duality", n_grid=[16],
                        instance=explicit(M=[[1, 0], [0, float("nan")]])),
        "instance.M[1][1] must be a finite real number, not nan"),
    "duality-explicit-string-w-star": (
        "duality", dict(kind="duality", n_grid=[16], instance=explicit(w_star=[0, "0"])),
        "instance.w_star[1] must be a finite real number, not '0'"),
    "duality-explicit-infinite-sigma2": (
        "duality", dict(kind="duality", n_grid=[16], instance=explicit(sigma2=float("inf"))),
        "instance.sigma2 must be a finite real number, not inf"),
    "duality-fractional-n": ("duality", dict(kind="duality", n_grid=[64.7]),
                             "n_grid[0] must be an integer >= 1, not 64.7"),
    "duality-string-n": ("duality", dict(kind="duality", n_grid=["64"]),
                         "n_grid[0] must be an integer >= 1, not '64'"),
    "duality-bool-n": ("duality", dict(kind="duality", n_grid=[True]),
                       "n_grid[0] must be an integer >= 1, not True"),
    "duality-fractional-seeds": ("duality", dict(kind="duality", n_grid=[16], seeds=2.5),
                                 "seeds must be an integer >= 1, not 2.5"),
    "duality-string-seeds": ("duality", dict(kind="duality", n_grid=[16], seeds="2"),
                             "seeds must be an integer >= 1, not '2'"),
    "duality-infinite-sigma2": ("duality", dict(kind="duality", n_grid=[16],
                                                instance=dict(POWER_LAW, sigma2=float("inf"))),
                                "instance.sigma2 must be a finite real number, not inf"),
    "duality-nan-a": ("duality", dict(kind="duality", n_grid=[16],
                                      instance=dict(POWER_LAW, a=float("nan"))),
                      "instance.a must be a finite real number, not nan"),
    "duality-infinite-tol": ("duality", dict(kind="duality", n_grid=[16],
                                             params={"tol": float("inf")}),
                             "params.tol must be a finite real number, not inf"),
    # precondition checks params as the duality study does
    "precondition-string-tol": ("precondition", dict(kind="duality", n_grid=[16],
                                                     params={"tol": "loose"}),
                                "params.tol must be a finite real number, not 'loose'"),
    "precondition-unread-param": ("precondition", dict(kind="duality", n_grid=[16],
                                                       params={"tolerance": 1e-3}),
                                  "params has keys nothing reads: ['tolerance']"),
}


@pytest.mark.parametrize("case", sorted(UNRUNNABLE))
def test_spec_a_study_cannot_run_is_refused_before_any_work(tmp_path, monkeypatch, case):
    # the library raises ValueError and the CLI exits 2, both before the
    # instance is resolved
    command, payload, message = UNRUNNABLE[case]
    payload = dict(dict(instance=POWER_LAW, seeds=2), **payload)

    def resolve(spec):
        raise AssertionError("the study started")

    monkeypatch.setattr(experiments, "resolve_instance", resolve)
    res = CliRunner().invoke(main, [command, "--spec", write_spec(tmp_path / "s.json", **payload)])
    assert res.exit_code == 2, res.output
    assert message in res.output and res.exc_info[0] is SystemExit
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(experiments, f"run_{payload['kind']}")(ExperimentSpec(**payload))


UNPLANNABLE = {
    "asgd-n-8": ("asgd", dict(kind="bound_check", n_grid=[8]),
                 "the momentum schedule needs n >= 16, not n = 8"),
    "asgd-d-1": ("asgd", dict(kind="bound_check", n_grid=[16], instance=dict(POWER_LAW, d=1)),
                 "the momentum schedule needs d >= 2, not d = 1"),
    "emergence-n-1": ("emergence", dict(kind="emergence", n_grid=[1, 16, 32],
                                        instance=dict(POWER_LAW, d0=2)),
                      "n must be an integer >= 2, not 1"),
    "emergence-knee-overflow": ("emergence", dict(kind="emergence", n_grid=[8, 16, 32],
                                                  instance=dict(POWER_LAW, d=8, d0=8, a=350)),
                                "the knee d0^(a+1) = 8^351.0 overflows a float"),
    "emergence-negative-step-base": ("emergence", dict(kind="emergence", n_grid=[8, 16, 32],
                                                       instance=dict(POWER_LAW, d0=2),
                                                       params={"step_base": -1.0}),
                                     "need gamma0 >= delta0 > 0"),
    "sweep-n-1": ("sweep", dict(kind="rate_sweep", n_grid=[1, 2, 4, 8]),
                  "n must be an integer >= 2, not 1"),
    # the sweep's rate theory: the step exponent's pole (1 + r)a = nu - 1,
    # the prediction's pole sa = -1, and deflation factors (ln n)^3001.5
    # that overflow at n = 16 and underflow to 0 at n = 2
    "sweep-rate-exponent-pole": ("sweep", dict(kind="rate_sweep", n_grid=[16, 32, 64, 128],
                                               instance=dict(POWER_LAW, r=-1.5)),
                                 "a rate exponent has a pole at a = 2.0, s = 1.0, r = -1.5"),
    "sweep-predicted-exponent-pole": ("sweep", dict(kind="rate_sweep", n_grid=[16, 32, 64, 128],
                                                    instance=dict(POWER_LAW, s=-0.5)),
                                      "a rate exponent has a pole at a = 2.0, s = -0.5, r = 0.0"),
    "sweep-deflation-overflow": ("sweep", dict(kind="rate_sweep", n_grid=[16, 32, 64, 128],
                                               instance=dict(POWER_LAW, r=1000)),
                                 "a deflation factor (ln n)^3001.5 on n_grid [16, 32, 64, 128] "
                                 "is not a positive finite float"),
    "sweep-deflation-underflow": ("sweep", dict(kind="rate_sweep", n_grid=[2, 4, 8, 16],
                                                instance=dict(POWER_LAW, r=1000)),
                                  "a deflation factor (ln n)^3001.5 on n_grid [2, 4, 8, 16] "
                                  "is not a positive finite float"),
}


@pytest.mark.parametrize("case", sorted(UNPLANNABLE))
def test_spec_a_study_cannot_plan_is_refused_before_any_work(tmp_path, monkeypatch, case):
    # the plan builds every schedule from the spec and the instance, so the
    # code that owns a schedule rule refuses the spec (ValueError, exit 2)
    # before any Monte-Carlo or dual work
    command, payload, message = UNPLANNABLE[case]
    payload = dict(dict(instance=POWER_LAW, seeds=2), **payload)

    def work(*args):
        raise AssertionError("the study started")

    for name in ("run_batch", "run_grid", "solve_stack"):
        monkeypatch.setattr(experiments, name, work)
    res = CliRunner().invoke(main, [command, "--spec", write_spec(tmp_path / "s.json", **payload)])
    assert res.exit_code == 2, res.output
    assert message in res.output and res.exc_info[0] is SystemExit
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(experiments, f"run_{payload['kind']}")(ExperimentSpec(**payload))


@pytest.mark.parametrize("instance, message", [
    (explicit(S=[[1, 0], [0, -1]]), "S must be positive definite"),
    (explicit(M=[[1, 0], [0, 0]]), "M must be positive definite"),
    (explicit(T=[[1, 0], [0, -1]]), "T must be PSD"),
    (explicit(w_star=[2, 0]), "w_star outside the constraint ellipsoid"),
    (dict(POWER_LAW, seed=-1), "instance.seed must be an integer >= 0, not -1"),
], ids=["S-not-positive-definite", "M-not-positive-definite", "T-not-psd",
        "w-star-outside-the-ellipsoid", "negative-power-law-seed"])
@pytest.mark.parametrize("command", ["duality", "precondition"])
def test_an_instance_that_cannot_be_built_is_a_usage_error(tmp_path, command, instance, message):
    # the load step builds the instance, so what only the model refuses
    # exits 2 like every other spec error, without a traceback
    spec = write_spec(tmp_path / "s.json", kind="duality", instance=instance, n_grid=[16],
                      seeds=1)
    res = CliRunner().invoke(main, [command, "--spec", spec])
    assert res.exit_code == 2, res.output
    assert message in res.output and res.exc_info[0] is SystemExit


def json_values():
    """Arbitrary JSON values, with the numbers a float cannot hold."""
    scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
               | st.sampled_from([10**400, -10**400, 2**63, -(2**63)]))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                        max_leaves=8)


FUZZ_BASES = {  # a valid spec of each instance type, every optional key stated
    "sweep": dict(kind="rate_sweep", n_grid=[16, 32, 64, 128], seeds=2, output_path=None,
                  instance=dict(POWER_LAW, d=8, nu=0, d0=2, w_profile="spread",
                                psi=3, noise="gaussian"),
                  params={"tol": 0.15, "seed_base": 0}),
    "duality": dict(kind="duality", n_grid=[16], seeds=1,
                    instance=explicit(d=2, w_star=[0.5, -0.5], psi=3.0, noise="gaussian"),
                    params={"tol": 1e-4}),
}


def json_paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_paths(item, path + (key,))


def with_value(base, path, value):
    """FUZZ_BASES[base] with the value at ``path`` replaced."""
    spec = json.loads(json.dumps(FUZZ_BASES[base]))
    if not path:
        return value
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return spec


@st.composite
def malformed_specs(draw):
    base = draw(st.sampled_from(sorted(FUZZ_BASES)))
    path = draw(st.sampled_from(list(json_paths(FUZZ_BASES[base]))))
    return with_value(base, path, draw(json_values()))


HUGE = 10**400


@settings(max_examples=300, deadline=None)
@given(obj=malformed_specs(), via_cli=st.just(False))
@example(obj=with_value("sweep", ("kind",), {"a": 1}), via_cli=False)
@example(obj=with_value("sweep", ("n_grid",), 64), via_cli=False)
@example(obj=with_value("sweep", ("params",), []), via_cli=False)
@example(obj=with_value("duality", ("output_path",), 1), via_cli=False)
@example(obj=with_value("duality", ("instance", "S", 0, 0), HUGE), via_cli=False)
@example(obj=with_value("sweep", ("instance", "a"), HUGE), via_cli=False)
@example(obj=with_value("sweep", ("instance", "s"), HUGE), via_cli=False)
@example(obj=with_value("sweep", ("instance", "r"), -HUGE), via_cli=False)
@example(obj=with_value("sweep", ("instance", "d0"), HUGE), via_cli=True)
@example(obj=with_value("sweep", ("instance", "sigma2"), HUGE), via_cli=True)
@example(obj=with_value("sweep", ("instance", "seed"), -1), via_cli=True)
@example(obj=with_value("duality", ("instance", "w_star"), [2, 0]), via_cli=True)
@example(obj=with_value("duality", ("instance", "S"), [[1, 0], [0, -1]]), via_cli=True)
@example(obj=with_value("duality", ("n_grid", 0), HUGE), via_cli=True)
@example(obj=with_value("sweep", ("n_grid", 3), HUGE), via_cli=False)
@example(obj=with_value("sweep", ("instance", "r"), -1.5), via_cli=True)
@example(obj=with_value("sweep", ("instance", "r"), -1.5 + 1e-12), via_cli=False)
@example(obj=with_value("sweep", ("n_grid", 0), 1), via_cli=False)
def test_a_spec_with_one_malformed_value_is_refused_or_built(obj, via_cli):
    # one path of a valid spec holds an arbitrary JSON value: the checks,
    # the build and the study's plan either raise ValueError or make the
    # instance and the plan (a d above 64 is admitted but not built here: it
    # may ask numpy for terabytes); the CLI exits 2 on what they refuse
    try:
        spec = experiments.spec_from_json(obj)
        experiments._check_study(spec, spec.kind)
        assert spec.output_path is None or isinstance(spec.output_path, str)  # not a descriptor
        if (spec.instance.get("d") or 0) <= 64:
            inst = experiments.resolve_instance(spec)
            assert isinstance(inst, model.ProblemInstance)
            experiments._STUDIES[spec.kind].plan(spec, inst)
        return
    except ValueError:
        if not via_cli:
            return
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("spec.json", "w") as fh:
            json.dump(obj, fh)
        command = {"duality": "duality", "rate_sweep": "sweep"}[obj["kind"]]
        res = runner.invoke(main, [command, "--spec", "spec.json"])
    assert res.exit_code == 2, res.output
    assert res.exc_info[0] is SystemExit
