"""covshift benchmark: one workload, one fresh process, one JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 20 --trace 0

Runs a fixed number of rounds of the workload (see workloads.py): as many
as fit in ``--seconds`` at the workload's nominal round time ``ROUND_S``,
never fewer than its ``min_rounds``. The count depends only on ``--seconds``, not
on how fast this run goes, so every run of one seed does the same operations
and reports the same ``attempted`` and ``failed``. It then prints a
provenance/detail JSON line and, as the last line, the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation. With ``--trace 1``
every public function of the covshift layers is wrapped (tracer.py) and the
metrics are per-layer self times, counts and rates over the first
``min_rounds`` rounds, which are the same work on every run of a seed.

Set-up time is the median wall time of fresh interpreter processes that each
import covshift and build and whiten the workload's first inputs.

``--write-reference`` records the first ``min_rounds`` rounds' outputs at
the reference seed into reference.json; later runs at that seed count any
output that differs from them as a failed operation.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-9  # absorbs reduction-order rounding, not a changed algorithm
SETUP_REPEATS = 5
OUT_DIR = HERE / "out"


def _log(msg: str):
    print(msg, flush=True)


# ---------------------------------------------------------------- provenance

def _blas() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                info["threads"] = int(getter())
                return info
    return info


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "covshift").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------- set-up

def _setup_in_children(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait (a wait with timeout polls, which quantizes the time)
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


# ---------------------------------------------------------------- checks

def _reference_failures(name, rounds, wl) -> list[tuple]:
    """(round, op, reason) for prefix outputs that differ from reference.json."""
    if not REFERENCE.is_file():
        return []
    ref = json.loads(REFERENCE.read_text()).get(name)
    if ref is None:
        return []
    out = []
    for r in range(wl.min_rounds):
        for i, op in enumerate(rounds[r].ops):
            if not op.values:
                continue  # already failed by raising
            if r >= len(ref) or i >= len(ref[r]):
                out.append((r, i, "differs_from_reference (no reference row)"))
                continue
            want = ref[r][i]
            diffs = [k for k, v in want["values"].items()
                     if not math.isclose(op.values.get(k, math.nan), v,
                                         rel_tol=REFERENCE_RTOL)]
            if want["label"] != op.label or diffs:
                out.append((r, i, f"differs_from_reference ({', '.join(diffs) or 'label'})"))
    return out


def _write_reference(name, rounds, wl):
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref[name] = [
        [{"label": op.label, "values": op.values} for op in rounds[r].ops]
        for r in range(wl.min_rounds)
    ]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- main

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "bound", "certify"))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.write_reference and args.seed != REFERENCE_SEED:
        p.error(f"--write-reference needs --seed {REFERENCE_SEED}")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "covshift" / "__init__.py").is_file():
        print(f"covshift sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed).setup()
        return 0

    setup_times = _setup_in_children(args)

    from tracer import Tracer, layer_metrics
    from workloads import KNOWN_DEFECTS, WORKLOADS, GridUnits

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    wl.warmup()
    tracer = grid = None
    if args.trace:
        tracer = Tracer()
        grid = GridUnits(tracer).install()
        tracer.install()

    def unit(u):
        if tracer is not None:
            tracer.unit = u

    rounds = []
    for r in range(round_count(wl, args.seconds)):
        rounds.append(wl.run_round(r, wl.inputs(r), unit, _log))
        unit(None)
    if tracer is not None:
        tracer.uninstall()
        grid.uninstall()

    # ---- checks
    failures = [(r, i, reason) for r, rnd in enumerate(rounds)
                for i, op in enumerate(rnd.ops) for reason in op.failures]
    if args.seed == REFERENCE_SEED and not args.write_reference:
        failures += _reference_failures(wl.name, rounds, wl)
    if args.write_reference:
        _write_reference(wl.name, rounds, wl)
    for r, i, reason in failures:
        _log(f"FAIL {wl.name} round {r} op {i} ({rounds[r].ops[i].label}): {reason}")
    attempted = sum(len(rnd.ops) for rnd in rounds)
    failed = len({(r, i) for r, i, _ in failures})
    unknown = {reason.split(" ")[0] for _, _, reason in failures} - KNOWN_DEFECTS
    correct = not unknown

    # ---- metrics
    studies = sorted(s for rnd in rounds for s in rnd.studies)
    round_s = [rnd.seconds for rnd in rounds]
    wall_s = typical_round_s(rounds)
    ops_per_s = sum(bool(op.values) for rnd in rounds for op in rnd.ops) / len(rounds) / wall_s
    detail = {
        "provenance": provenance(args),
        "rounds": len(rounds),
        "round_s": round_s,
        "study_s": [rnd.studies for rnd in rounds],
        "setup_runs_s": setup_times,
        "studies_timed": len(studies),
        "tail_percentile": 100 * wl.tail_q,
        "failure_reasons": sorted({reason.split(" ")[0] for _, _, reason in failures}),
        **wl.detail(wall_s, ops_per_s),
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "study_p50_ms": (1e3 * _quantile(studies, 0.5), "ms"),
            "study_tail_ms": (1e3 * _quantile(studies, wl.tail_q), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        prefix = [s for s in tracer.spans
                  if s.unit is not None and s.unit[0] < wl.min_rounds]
        metrics = {k: (v, _unit(k)) for k, v in layer_metrics(prefix).items()}
        metrics["trace.prefix_wall_s"] = (sum(round_s[: wl.min_rounds]), "s")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        tracer.write(path, prefix)
        detail["spans_file"] = str(path.relative_to(ROOT))

    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def round_count(wl, seconds) -> int:
    """Rounds in one run: as many as fit in ``seconds`` at the nominal
    round time, at least ``min_rounds``."""
    return max(wl.min_rounds, math.floor(seconds / wl.ROUND_S))


def typical_round_s(rounds) -> float:
    """Time of one round: the sum over the round's studies of each study's
    median time across rounds (the median round time when a round is one
    study). Rounds hold the same kinds of study in the same order."""
    return sum(statistics.median(times) for times in zip(*(rnd.studies for rnd in rounds)))


def _quantile(sorted_values, q) -> float:
    """Linear-interpolation quantile of an ascending list (0 if empty)."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def _unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_iter"):
        return "us"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
