#!/usr/bin/env python3
"""Reproduce the full census end to end and write the report tables.

Every row (system, k) gets its graph parameters, clique number, maximum-
clique total and sunflower count. The rows are those of the CLI's `table`
kinds, written by its CSV writer, so `parameters.csv` and
`clique_numbers.csv` are what `sosgraphs table parameters|cliques --format
csv` prints, and `sunflowers.csv` is `table sunflowers` without the rows
where omega <= 1. One maximum-clique census per row gives the clique
number, the total and the census the sunflower count starts from.

Usage:
    python scripts/run_census.py --out-dir reports/
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from sosgraphs import cli
from sosgraphs.clique import count_maximum_cliques
from sosgraphs.graph import membership_graph
from sosgraphs.roots import build_root_system

ALL_LEVELS = {"G2": 2, "F4": 4, "E6": 4, "E7": 7, "E8": 8}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="reports")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    parameters, cliques, sunflowers = (
        cli.TABLES[which] for which in ("parameters", "cliques", "sunflowers")
    )
    columns = {
        "parameters": parameters.columns,
        "clique_numbers": cliques.columns,
        "maximum_clique_counts": ("system", "k", "total"),
        "sunflowers": sunflowers.columns,
    }
    rows = {name: [] for name in columns}
    for label, kmax in ALL_LEVELS.items():
        rs = build_root_system(label)
        for k in range(1, kmax + 1):
            t = time.time()
            g = membership_graph(rs, k)
            params = parameters.row(rs, k, g)
            census = count_maximum_cliques(g)
            rows["parameters"].append(params)
            rows["clique_numbers"].append(cliques.row(rs, k, g, census))
            rows["maximum_clique_counts"].append([label, k, census.total_maximum_cliques])
            if census.omega > 1:
                rows["sunflowers"].append(sunflowers.row(rs, k, g, census))
            n, m = params[2:4]
            print(f"{label} k={k}: n={n} m={m} omega={census.omega} "
                  f"total={census.total_maximum_cliques} [{time.time()-t:.1f}s]")
            del g  # so the next row's graph is not built beside this one
    for name, table in rows.items():
        path = out / f"{name}.csv"
        path.write_text(cli.csv_text(columns[name], table), encoding="utf-8", newline="")
        print(f"wrote {path}")

    summary = {
        "elapsed_seconds": round(time.time() - started, 1),
        "rows": {name: len(table) for name, table in rows.items()},
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
