#!/usr/bin/env python3
"""Reproduce the full census end to end and write the report tables.

Every row (system, k) gets its graph parameters, clique number, maximum-
clique total and sunflower count. Graph parameters come from the
Weyl-orbit quotient (`graph.stats`), so no row builds edges.

Usage:
    python scripts/run_census.py --out-dir reports/
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

ALL_LEVELS = {"G2": 2, "F4": 4, "E6": 4, "E7": 7, "E8": 8}


def write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="reports")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    param_rows, omega_rows, count_rows, sunflower_rows = [], [], [], []
    for label, kmax in ALL_LEVELS.items():
        rs = build_root_system(label)
        for k in range(1, kmax + 1):
            t = time.time()
            g = membership_graph(rs, k)
            s = stats(g)
            param_rows.append([label, k, s.n, s.m, s.min_degree, s.max_degree,
                               s.component_count])
            census = cliquemod.count_maximum_cliques(g)
            omega_rows.append([label, k, census.omega])
            count_rows.append([label, k, census.total_maximum_cliques])
            if census.omega > 1:
                sf = sunmod.count_sunflower_max_cliques(g, rs, census)
                sunflower_rows.append([
                    label, k, sf.total_maximum_cliques, sf.sunflower_cliques,
                    sf.percentage_str(),
                ])
            print(f"{label} k={k}: n={s.n} m={s.m} omega={census.omega} "
                  f"total={census.total_maximum_cliques} [{time.time()-t:.1f}s]")
    write_csv(out / "parameters.csv",
              ["system", "k", "n", "m", "min_degree", "max_degree", "components"],
              param_rows)
    write_csv(out / "clique_numbers.csv", ["system", "k", "omega"], omega_rows)
    write_csv(out / "maximum_clique_counts.csv", ["system", "k", "total"], count_rows)
    write_csv(out / "sunflowers.csv",
              ["system", "k", "maximum_cliques", "sunflowers", "percentage"],
              sunflower_rows)

    summary = {
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
