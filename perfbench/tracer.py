"""Span tracer for the covshift layers, installed from outside the package.

Every public function (a name in ``__all__`` defined by that module) of the
traced layers is replaced by a wrapper that records one span per call: name,
start, end, parent span and the unit id the benchmark is working on (a grid
point or an instance). The wrapper is installed under every name that any
``covshift`` module bound to the function, because the study code imports
``run_batch``, ``maximize_F``, ``eigh`` and others by name; patching only the
defining module would miss those calls.

Self time of a span is its duration minus the durations of its direct
children, so nested calls (including ``run_batch`` calling itself to cap its
sample block) are never counted twice. Spans stay in memory until the run
ends.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "model",
    "asgd",
    "riskoracle",
    "lowerbound",
    "psdlinalg",
    "precond",
    "estimators",
    "experiments",
)


SPAN_FIELDS = ["name", "parent", "unit", "start", "end", "self_s", "work", "error"]


class Span:
    __slots__ = ("name", "parent", "unit", "start", "end", "child_s", "error", "work")

    def __init__(self, name, parent, unit):
        self.name = name
        self.parent = parent
        self.unit = unit
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.error = None
        self.work = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


# ---------------------------------------------------------------- probes
# A probe turns a call's arguments and result into the span's work count.

def _bound_args(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _probe_sample_source(fn, args, kwargs, result, err):
    a = _bound_args(fn, args, kwargs)
    return int(a["n"]) * (a["inst"].d + 1)  # standard normals drawn


def _probe_run_batch(fn, args, kwargs, result, err):
    a = _bound_args(fn, args, kwargs)
    cfg = a["cfg"]
    return len(a["seeds"]) * cfg.stages * cfg.stage_len  # seed-steps


def _probe_maximize_F(fn, args, kwargs, result, err):
    cert = result if err is None else getattr(err, "best", None)
    return 0 if cert is None else int(cert.iterations)


def _probe_sample_prior(fn, args, kwargs, result, err):
    a = _bound_args(fn, args, kwargs)
    return int(a["n"]) * int((a["prior"].g > 0).sum())  # draws x live coords


PROBES = {
    "model.sample_source": _probe_sample_source,
    "asgd.run_batch": _probe_run_batch,
    "lowerbound.maximize_F": _probe_maximize_F,
    "lowerbound.sample_prior": _probe_sample_prior,
}


def _close(span, stack):
    span.end = perf_counter()
    stack.pop()
    if span.parent is not None:
        span.parent.child_s += span.end - span.start


class Tracer:
    """Collects spans from wrapped covshift functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit = None
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.unit)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                _close(span, stack)
                span.error = type(err).__name__
                if probe is not None:
                    span.work = probe(fn, args, kwargs, None, err)
                raise
            _close(span, stack)
            if probe is not None:
                span.work = probe(fn, args, kwargs, result, None)
            return result

        return wrapper

    def install(self):
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"covshift.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "covshift" and not modname.startswith("covshift."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))
        return self

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    @staticmethod
    def write(path, spans):
        """Write spans as gzipped JSON lines: a header naming the fields,
        then one array per span, with the parent given by its line index."""
        index = {id(s): i for i, s in enumerate(spans)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for s in spans:
                fh.write(json.dumps([
                    s.name, index.get(id(s.parent)), s.unit, s.start, s.end,
                    s.self_s, s.work, s.error,
                ]) + "\n")


# ---------------------------------------------------------------- metrics

def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer self times, counts and rates from finished spans.

    ``asgd.run_batch.calls`` counts only outermost calls; nested calls are
    ``asgd.run_batch.splits`` and only the innermost ones (which run the
    lockstep loop) contribute seed-steps.
    """
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    errors = defaultdict(int)
    module_self = defaultdict(float)
    splits = dual_solves = 0
    split_parents = set()
    for s in spans:
        self_s[s.name] += s.self_s
        module_self[s.name.split(".", 1)[0]] += s.self_s
        if s.error == "MaxIterationsError":
            errors[s.name] += 1
        parent_name = s.parent.name if s.parent is not None else None
        if s.name == "asgd.run_batch" and parent_name == "asgd.run_batch":
            splits += 1
            split_parents.add(id(s.parent))
        else:
            calls[s.name] += 1
        if s.name == "lowerbound.maximize_F" and parent_name == "precond.solve_general":
            dual_solves += 1
    for s in spans:
        if s.name != "asgd.run_batch" or id(s) not in split_parents:
            work[s.name] += s.work

    rb_self = self_s["asgd.run_batch"]
    mf_self = self_s["lowerbound.maximize_F"]
    mf_iters = work["lowerbound.maximize_F"]
    m = {
        "model.sample_source.self_s": self_s["model.sample_source"],
        "model.sample_source.normals_per_s": _rate(
            work["model.sample_source"], self_s["model.sample_source"]
        ),
        "model.whiten.self_s": self_s["model.whiten"],
        "asgd.run_batch.self_s": rb_self,
        "asgd.run_batch.seed_steps_per_s": _rate(work["asgd.run_batch"], rb_self),
        "asgd.run_batch.calls": calls["asgd.run_batch"],
        "asgd.run_batch.splits": splits,
        "asgd.risk_bound.self_s": self_s["asgd.risk_bound"],
        "riskoracle.semi_stochastic_bias.self_s": self_s["riskoracle.semi_stochastic_bias"],
        "riskoracle.semi_stochastic_variance.self_s": self_s[
            "riskoracle.semi_stochastic_variance"
        ],
        "lowerbound.maximize_F.calls": calls["lowerbound.maximize_F"],
        "lowerbound.maximize_F.self_s": mf_self,
        "lowerbound.maximize_F.iterations": mf_iters,
        "lowerbound.maximize_F.us_per_iter": 1e6 * mf_self / mf_iters if mf_iters else 0.0,
        "lowerbound.maximize_F.max_iter_errors": errors["lowerbound.maximize_F"],
        "lowerbound.sample_prior.self_s": self_s["lowerbound.sample_prior"],
        "lowerbound.sample_prior.draws_per_s": _rate(
            work["lowerbound.sample_prior"], self_s["lowerbound.sample_prior"]
        ),
        "psdlinalg.eigh.calls": calls["psdlinalg.eigh"],
        "psdlinalg.eigh.self_s": self_s["psdlinalg.eigh"],
        "psdlinalg.project_psd_nuclear_ball.calls": calls["psdlinalg.project_psd_nuclear_ball"],
        "psdlinalg.project_psd_nuclear_ball.self_s": self_s[
            "psdlinalg.project_psd_nuclear_ball"
        ],
        "precond.solve_general.calls": calls["precond.solve_general"],
        "precond.solve_general.self_s": self_s["precond.solve_general"],
        "precond.solve_general.max_iter_errors": errors["precond.solve_general"],
        "precond.solve_general.dual_solves": dual_solves,
        "precond.solve_diagonal.self_s": self_s["precond.solve_diagonal"],
        "estimators.eval_upper_objective.calls": calls["estimators.eval_upper_objective"],
        "estimators.eval_upper_objective.self_s": self_s["estimators.eval_upper_objective"],
        "experiments.self_s": module_self["experiments"],
    }
    for layer in LAYERS:
        if layer != "experiments":
            m[f"{layer}.self_s"] = module_self[layer]
    m["trace.spans"] = len(spans)
    return m
