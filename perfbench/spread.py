"""Run-to-run spread of the benchmark metrics across seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads sweep bound certify --seeds 1 10
    python3 perfbench/spread.py --workloads certify --seeds 1 5 --trace 1 --out perfbench/baseline.json

Runs run.py once per (workload, seed), one process at a time, with the
``run_seconds`` of BENCHMARK.json. For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread (Q3 - Q1) / median next to the metric's bound. With ``--out`` the
summary is merged into that JSON file under ``untraced`` or ``traced``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=["sweep", "bound", "certify"])
    p.add_argument("--seeds", nargs=2, type=int, default=[1, 10], metavar=("FIRST", "LAST"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, bench["run_seconds"], args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                             if k in bounds and bounds[k] is not None),
                  flush=True)
            runs.append(run)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values)
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"  bound {bound:.2f} ({'ok' if metrics[name]['spread'] <= bound / 3 else 'WIDE'})")
            print(f"  {name:45s} median {metrics[name]['median']:.6g} "
                  f"spread {metrics[name]['spread']:.4f}{flag}")
        summary[workload] = {
            "seeds": list(seeds),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "correct": all(r["result"]["correct"] for r in runs),
            "provenance": runs[0]["detail"]["provenance"],
            "metrics": metrics,
        }
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
        doc.setdefault("traced" if args.trace else "untraced", {}).update(summary)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
