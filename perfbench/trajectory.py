"""Record one point of the performance trajectory.

Usage (from the root of a checkout)::

    python3 perfbench/trajectory.py --label <name> [--workloads programs ...]

Runs every workload ten times untraced, with seeds 1 to 10, plus one
traced run with seed 1, and writes ``perfbench/trajectory/<label>.json``:
per workload and end-to-end metric the ten values, their median and
quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``), and the traced run's per-layer
metrics.  ``--workloads`` re-records only the named workloads of an
existing point and keeps the others.  Compare two points by medians,
against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, check=True,
                          cwd=HERE.parent, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record a trajectory point")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    args = parser.parse_args(argv)
    out = HERE / "trajectory" / f"{args.label}.json"
    point: dict = {"label": args.label, "run_seconds": BENCHMARK["run_seconds"],
                   "workloads": {}}
    if out.exists():
        point["workloads"] = json.loads(out.read_text())["workloads"]
    for workload in args.workloads:
        results = [run(workload, seed, 0) for seed in SEEDS]
        traced = run(workload, SEEDS[0], 1)
        entry = {
            "seeds": SEEDS,
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            entry["end_to_end"][name] = {
                "unit": metric["unit"],
                **summarize([r["metrics"][name]["value"] for r in results]),
            }
            cell = entry["end_to_end"][name]
            flag = "" if cell["spread"] <= metric["bound"] else "  OVER BOUND"
            print(f"{workload:9s} {name:13s} median {cell['median']:10.4g} "
                  f"spread {cell['spread']:.3f} (bound {metric['bound']}){flag}",
                  file=sys.stderr, flush=True)
        point["workloads"][workload] = entry
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
