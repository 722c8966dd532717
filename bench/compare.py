#!/usr/bin/env python3
"""Compare two trajectory points metric by metric.

    python3 bench/compare.py bench/trajectory/00-seed.json other.json

For each workload and end-to-end metric it prints both medians, the
change of the second against the first as a share of the first (positive
is worse, whichever way the metric is better), the metric's bound, and
each point's spread.  The exit status is 1 when some change is worse than
its bound, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, second = (json.loads(Path(p).read_text()) for p in argv)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        for name, sign in better.items():
            a = first["workloads"][workload]["end_to_end"][name]
            b = second["workloads"][workload]["end_to_end"][name]
            change = (b["median"] - a["median"]) / a["median"]
            if sign == "higher":
                change = -change
            over = change > a["bound"]
            worse |= over
            print(f"{workload:15s} {name:12s} {a['median']:10.5g} -> {b['median']:10.5g} "
                  f"{a['unit']:6s} worse by {change:+.4f} (bound {a['bound']}) "
                  f"spreads {a['spread']:.4f} / {b['spread']:.4f}{'  OVER' if over else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
