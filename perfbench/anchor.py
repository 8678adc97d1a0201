"""Per-layer split of the ROADMAP re-anchor rows, compared with its table.

    python3 perfbench/anchor.py [--out FILE]

Runs `sosgraphs cliques`, `sunflowers` and `table parameters` once each on
E7 k=4, E8 k=3 and E8 k=4 (no sunflowers on E8 k=4, as in the table), every
command traced in its own fresh process, checks the outputs against the
pins and prints each stage next to the ROADMAP value. A stage disagrees
when it falls outside the ROADMAP value (or range) by more than the 30%
the ROADMAP allows for its single runs. Takes about two minutes on one
core; E8 k=4 counting dominates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict

import run

TOLERANCE = 0.30
# ROADMAP re-anchor table, seconds; a pair is a measured range.
ROADMAP = {
    ("E7", 4): {"vertex_set": 0.13, "weyl_orbits": 0.05, "omega": 0.10, "total": 0.28,
                "sunflowers": 3.1, "build_gamma": 1.2},
    ("E8", 3): {"vertex_set": 0.34, "weyl_orbits": 0.12, "omega": 0.39, "total": 1.4,
                "sunflowers": 28.7, "build_gamma": 2.3},
    ("E8", 4): {"vertex_set": 1.35, "weyl_orbits": 0.27, "omega": 10.5, "total": (45.0, 60.0),
                "build_gamma": (10.4, 12.0)},
}
# Which span each ROADMAP column reads, and from which command's process.
STAGES = {
    "vertex_set": ("cliques", ["sos.vertex_set"], []),
    "weyl_orbits": ("cliques", ["graph.weyl_orbit_labels"], []),
    "omega": ("cliques", ["clique.clique_number"], []),
    "total": ("cliques", ["clique.count_maximum_cliques"], ["clique.clique_number"]),
    "sunflowers": ("sunflowers", ["sunflower.count_sunflower_max_cliques"], []),
    "build_gamma": ("parameters", ["graph.build_gamma"], []),
}


def traced_row(command: str, system: str, k: int, pins: dict) -> tuple[dict, list[str]]:
    """Busy seconds per span name for one row in a fresh process, and its mismatches."""
    run.OUT_DIR.mkdir(exist_ok=True)
    path = run.OUT_DIR / f"anchor-{command}-{system}-{k}.json"
    report = run.run_pass(command, [(system, k)], time.monotonic() + 900, trace_path=path)
    busy: dict = defaultdict(float)
    for name, t0, t1, *_ in json.loads(path.read_text())["spans"]:
        busy[name] += t1 - t0
    return busy, run.check_row(command, report["rows"][0], pins)


def compare(measured: float, pinned) -> tuple[float, bool]:
    lo, hi = pinned if isinstance(pinned, tuple) else (pinned, pinned)
    ratio = measured / (lo if measured < lo else hi) if not lo <= measured <= hi else 1.0
    return ratio, (1 - TOLERANCE) <= ratio <= (1 + TOLERANCE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="also write the comparison as JSON")
    args = parser.parse_args(argv)
    pins = run.load_pins()
    rows, failures = [], []
    for (system, k), table in ROADMAP.items():
        busy = {}
        for command in dict.fromkeys(STAGES[stage][0] for stage in table):
            busy[command], bad = traced_row(command, system, k, pins)
            failures += [f"{command} {system} k={k}: {why}" for why in bad]
        for stage, pinned in table.items():
            command, plus, minus = STAGES[stage]
            seconds = sum(busy[command][n] for n in plus) - sum(busy[command][n] for n in minus)
            ratio, within = compare(seconds, pinned)
            rows.append({"row": f"{system} k={k}", "stage": stage, "measured_s": seconds,
                         "roadmap_s": pinned, "ratio": ratio, "within_30pct": within})
            print(f"{system} k={k} {stage:12s} {seconds:8.3f} s  roadmap {pinned}  "
                  f"{'ok' if within else 'DISAGREES'} (x{ratio:.2f})")
    for failure in failures:
        print("FAILED", failure, file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": run.environment(), "tolerance": TOLERANCE,
                       "stages": rows, "failures": failures}, fh, indent=1)
            fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
