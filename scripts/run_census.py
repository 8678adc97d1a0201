#!/usr/bin/env python3
"""Reproduce the full census end to end and write the three report tables.

Tier 1 covers the small graphs (seconds); tier 2 adds the E7 k>=4 and
E8 k>=3 parameter rows and every E8 clique and sunflower count. Graph
parameters come from the Weyl-orbit quotient (`graph.stats`), so no row
builds edges.

Usage:
    python scripts/run_census.py --tier 2 --out-dir reports/
"""

from __future__ import annotations

import argparse
import csv
import json
import time
from pathlib import Path

from sosgraphs import clique as cliquemod
from sosgraphs import sunflower as sunmod
from sosgraphs.graph import membership_graph, stats
from sosgraphs.roots import build_root_system

TIER1_PARAMS = [
    ("G2", 1), ("G2", 2),
    ("F4", 1), ("F4", 2), ("F4", 3), ("F4", 4),
    ("E6", 1), ("E6", 2), ("E6", 3), ("E6", 4),
    ("E7", 1), ("E7", 2), ("E7", 3), ("E7", 7),
    ("E8", 1), ("E8", 2),
]
TIER2_PARAMS = [("E7", 4), ("E7", 5), ("E7", 6), ("E8", 3), ("E8", 4),
                ("E8", 5), ("E8", 6), ("E8", 7), ("E8", 8)]

ALL_LEVELS = {"G2": 2, "F4": 4, "E6": 4, "E7": 7, "E8": 8}
TIER_COUNT_LIMITS = {1: {("E8", k) for k in range(3, 9)}, 2: set()}


def write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--tier", type=int, choices=[1, 2], default=1)
    parser.add_argument("--out-dir", default="reports")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    param_rows = []
    jobs = list(TIER1_PARAMS)
    if args.tier >= 2:
        jobs += TIER2_PARAMS
    for label, k in jobs:
        t = time.time()
        s = stats(membership_graph(build_root_system(label), k))
        param_rows.append([label, k, s.n, s.m, s.min_degree, s.max_degree,
                           s.component_count])
        print(f"parameters {label} k={k}: n={s.n} m={s.m} [{time.time()-t:.1f}s]")
    param_rows.sort(key=lambda r: (list(ALL_LEVELS).index(r[0]), r[1]))
    write_csv(out / "parameters.csv",
              ["system", "k", "n", "m", "min_degree", "max_degree", "components"],
              param_rows)

    skip = TIER_COUNT_LIMITS[args.tier]
    omega_rows, count_rows, sunflower_rows = [], [], []
    for label, kmax in ALL_LEVELS.items():
        rs = build_root_system(label)
        for k in range(1, kmax + 1):
            if (label, k) in skip:
                continue
            t = time.time()
            g = membership_graph(rs, k)
            census = cliquemod.count_maximum_cliques(g)
            omega_rows.append([label, k, census.omega])
            count_rows.append([label, k, census.total_maximum_cliques])
            if census.omega > 1:
                sf = sunmod.count_sunflower_max_cliques(g, rs, census)
                sunflower_rows.append([
                    label, k, sf.total_maximum_cliques, sf.sunflower_cliques,
                    sf.percentage_str(),
                ])
            print(f"census {label} k={k}: omega={census.omega} "
                  f"total={census.total_maximum_cliques} [{time.time()-t:.1f}s]")
    write_csv(out / "clique_numbers.csv", ["system", "k", "omega"], omega_rows)
    write_csv(out / "maximum_clique_counts.csv", ["system", "k", "total"], count_rows)
    write_csv(out / "sunflowers.csv",
              ["system", "k", "maximum_cliques", "sunflowers", "percentage"],
              sunflower_rows)

    summary = {
        "tier": args.tier,
        "elapsed_seconds": round(time.time() - started, 1),
        "rows": {
            "parameters": len(param_rows),
            "clique_numbers": len(omega_rows),
            "maximum_clique_counts": len(count_rows),
            "sunflowers": len(sunflower_rows),
        },
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
