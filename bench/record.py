#!/usr/bin/env python3
"""Record one trajectory point: every workload over ten seeds, plus one
traced run each, written to ``bench/trajectory/<name>.json``.

    python3 bench/record.py --name 00-seed

Runs ``bench/run.py`` once at a time, as separate processes, with the
``run_seconds`` of BENCHMARK.json.  For each end-to-end metric it stores
the median, the quartiles and the spread (quartile distance over median),
next to every run's result line, so a later point can be compared with
this one metric by metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))  # every point uses the same seeds, so points compare run by run


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (result line, summary line)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread_of(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--name", required=True, help="file name of the point, without .json")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    point = {"name": args.name, "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result, summary = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "result": result, "summary": summary})
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        traced, _ = run(workload, SEEDS[0], seconds, 1)
        stats = {m["name"]: {**spread_of([r["result"]["metrics"][m["name"]]["value"] for r in runs]),
                             "unit": m["unit"], "bound": m["bound"]}
                 for m in spec["end_to_end"]}
        for name, s in stats.items():
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
        point["workloads"][workload] = {
            "end_to_end": stats,
            "all_correct": all(r["result"]["correct"] for r in runs) and traced["correct"],
            "runs": runs,
            "traced": traced,
        }
    point["machine"] = runs[0]["summary"].get("machine")
    out = BENCH / "trajectory" / f"{args.name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
