"""Checks of the benchmark tracer: python3 -m pytest perfbench/test_tracer.py"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from covshift import asgd, experiments, lowerbound, precond  # noqa: E402
from covshift.estimators import DEFAULT_BIAS_COEFF  # noqa: E402
from covshift.model import ProblemInstance, whiten  # noqa: E402
from tracer import Span, Tracer, layer_metrics  # noqa: E402


def _span(name, parent, start, end, work=0):
    s = Span(name, parent, (0, 0))
    s.start, s.end, s.work = start, end, work
    if parent is not None:
        parent.child_s += end - start
    return s


def test_nested_run_batch_counts_splits_and_no_double_time():
    outer = _span("asgd.run_batch", None, 0.0, 10.0, work=400)
    left = _span("asgd.run_batch", outer, 0.0, 4.0, work=200)
    right = _span("asgd.run_batch", outer, 4.0, 9.0, work=200)
    sample = _span("model.sample_source", left, 0.0, 1.0, work=7)
    m = layer_metrics([outer, left, right, sample])
    assert m["asgd.run_batch.calls"] == 1
    assert m["asgd.run_batch.splits"] == 2
    assert m["asgd.run_batch.self_s"] == 9.0  # 1 (outer) + 3 + 5
    assert m["asgd.run_batch.seed_steps_per_s"] == 400 / 9.0
    assert m["model.sample_source.self_s"] == 1.0


def test_wrappers_reach_names_bound_in_other_modules_and_are_removed():
    original, original_F = asgd.run_batch, lowerbound.maximize_F
    with Tracer() as tracer:
        assert experiments.run_batch is not original
        assert asgd.run_batch is experiments.run_batch
        assert experiments.maximize_F is not original_F
        assert experiments.maximize_F is precond.maximize_F is lowerbound.maximize_F
    assert experiments.run_batch is original
    assert asgd.run_batch is original
    assert precond.maximize_F is original_F
    assert tracer.spans == []


def test_dual_solves_and_iterations_from_a_real_solve():
    inst = ProblemInstance(
        S=np.diag([1.0, 0.5]), T=np.array([[1.0, 0.3], [0.3, 0.5]]),
        M=np.eye(2), w_star=np.zeros(2), sigma2=1.0,
    )
    triple = whiten(inst)
    with Tracer() as tracer:
        tracer.unit = (0, 0)
        prec = precond.solve_general(
            precond.PrecondProgram(triple, DEFAULT_BIAS_COEFF, 1.0 / 64)
        )
        cert = lowerbound.maximize_F(triple, 1.0, 64)
    m = layer_metrics(tracer.spans)
    assert np.isfinite(prec.objective_value)
    assert m["precond.solve_general.calls"] == 1
    assert m["precond.solve_general.dual_solves"] == 1
    assert m["lowerbound.maximize_F.calls"] == 2
    assert m["lowerbound.maximize_F.iterations"] >= cert.iterations > 0
    assert m["psdlinalg.eigh.calls"] > 0
    assert all(s.end >= s.start for s in tracer.spans)
