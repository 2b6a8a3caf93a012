import json

from click.testing import CliRunner

from covshift.cli import main
from covshift.experiments import ExperimentSpec, run_rate_sweep, spec_hash, spec_to_json


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


def test_verify_single_criterion():
    res = CliRunner().invoke(main, ["verify", "--only", "1"])
    assert res.exit_code == 0, res.output
    assert "PASS criterion  1" in res.output


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
