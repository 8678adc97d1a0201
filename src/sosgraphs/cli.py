"""Command-line pipeline: build graphs into a cache, report stats, run the
clique and sunflower censuses, verify structural properties, and emit the
census tables in CSV, JSON or LaTeX.

Exit codes: 0 success, 1 failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from sosgraphs import clique as cliquemod
from sosgraphs import graph as graphmod
from sosgraphs import iso as isomod
from sosgraphs import sunflower as sunmod
from sosgraphs.roots import RootSystemError, parse_label

CACHE_ENV = "SOSGRAPHS_CACHE"
DEFAULT_CACHE = ".sosgraphs_cache"
SYSTEM_ORDER = ["G2", "F4", "E6", "E7", "E8"]


def cache_dir(args) -> Path:
    raw = args.cache_dir or os.environ.get(CACHE_ENV) or DEFAULT_CACHE
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cache_path(args, label: str, k: int) -> Path:
    return cache_dir(args) / f"{label}_k{k}.sosg"


def load_or_build(args, label: str, k: int, *, force: bool = False) -> graphmod.SOSGraph:
    rs = parse_label(label)
    path = cache_path(args, rs.label, k)
    if path.exists() and not force:
        try:
            g = graphmod.deserialize(path)
            if g.label == rs.label and g.k == k:
                return g
        except graphmod.GraphFileError:
            pass
    g = graphmod.build_gamma(rs, k)
    graphmod.serialize(g, path)
    return g


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _system(args):
    """The root system named by --system; warns when --k leaves the graph empty."""
    rs = parse_label(args.system)
    if args.k > rs.max_sos_size:
        print(
            f"warning: k={args.k} exceeds max SOS size {rs.max_sos_size} for {rs.label}; "
            "graph is empty",
            file=sys.stderr,
        )
    return rs


def cmd_build(args) -> int:
    rs = _system(args)
    path = cache_path(args, rs.label, args.k)
    try:
        before = graphmod.file_checksum(path) if path.exists() else None
    except graphmod.GraphFileError:
        before = None
    g = load_or_build(args, args.system, args.k, force=args.force)
    checksum = graphmod.file_checksum(path)
    print(json.dumps({
        "path": str(path),
        "checksum": checksum,
        "reused": before == checksum and not args.force,
        "n": g.n,
        "m": g.edge_count,
    }))
    return 0


def cmd_stats(args) -> int:
    g = load_or_build(args, args.system, args.k)
    s = graphmod.stats(g)
    payload = {
        "system": g.label,
        "k": g.k,
        "n": s.n,
        "m": s.m,
        "min_degree": s.min_degree,
        "max_degree": s.max_degree,
        "is_regular": s.is_regular,
        "component_count": s.component_count,
        "isolated_vertex_count": s.isolated_vertex_count,
        "orbit_sizes": g.orbit_sizes(),
        "graph_checksum": graphmod.file_checksum(cache_path(args, g.label, g.k)),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if args.dot:
        Path(args.dot).write_text(graphmod.to_dot(g), encoding="utf-8")
    return 0


def cmd_cliques(args) -> int:
    rs = _system(args)
    g = graphmod.membership_graph(rs, args.k)
    census = cliquemod.count_maximum_cliques(g)
    payload = {
        "system": rs.label,
        "k": args.k,
        "omega": census.omega,
        "per_orbit": [{"orbit_size": n_i, "cliques_per_vertex": c_i} for n_i, c_i in census.per_orbit],
        "total_maximum_cliques": census.total_maximum_cliques,
    }
    if args.brute_force:
        cliques = cliquemod.brute_force_maximum_cliques(g)
        payload["brute_force_total"] = len(cliques)
        payload["brute_force_agrees"] = len(cliques) == census.total_maximum_cliques
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["system", "k", "omega", "n_i", "c_i", "total"])
        for n_i, c_i in census.per_orbit:
            writer.writerow([rs.label, args.k, census.omega, n_i, c_i, census.total_maximum_cliques])
        _emit(buf.getvalue(), args.out)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_sunflowers(args) -> int:
    rs = _system(args)
    g = graphmod.membership_graph(rs, args.k)
    census = sunmod.count_sunflower_max_cliques(g, rs)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["system", "k", "maximum_cliques", "sunflowers", "percentage"])
        writer.writerow([
            rs.label, args.k, census.total_maximum_cliques,
            census.sunflower_cliques, census.percentage_str(),
        ])
        _emit(buf.getvalue(), args.out)
    else:
        _emit(json.dumps({
            "system": rs.label,
            "k": args.k,
            "omega": census.omega,
            "maximum_cliques": census.total_maximum_cliques,
            "sunflowers": census.sunflower_cliques,
            "percentage": census.percentage_str(),
        }, indent=2) + "\n", args.out)
    return 0


def _verification_checks(args):
    e6, e7, e8 = parse_label("E6"), parse_label("E7"), parse_label("E8")
    f4, g2 = parse_label("F4"), parse_label("G2")
    seed = args.seed

    def scaling():
        return {
            "E6 1->4": isomod.check_scaling_isomorphism(e6, 1, 4),
            "E8 2->8": isomod.check_scaling_isomorphism(e8, 2, 8),
            "E7 1->7 is not a scaling": not isomod.check_scaling_isomorphism(e7, 1, 7),
        }

    yield "scaling_isomorphisms", scaling

    def mod8():
        out = {}
        for rs in (e6, e7, e8):
            rep = isomod.check_mod8(rs, seed=seed)
            out[f"{rs.label} k={rs.max_sos_size} ({rep['mode']}, {rep['pairs']} pairs)"] = rep["ok"]
        return out

    yield "mod8_top_level", mod8

    def edgeless():
        g = load_or_build(args, "E7", 7)
        return {"E7 k=7 has 0 edges": g.edge_count == 0}

    yield "top_level_edgeless_E7", edgeless

    def degrees():
        return {
            f"{rs.label} degree 2(h-2)": isomod.check_degree_formula(rs)
            for rs in (e6, e7, e8)
        }

    yield "level1_degree_formula", degrees

    def weyl():
        out = {}
        for label, k in [("G2", 1), ("F4", 3), ("E6", 2), ("E7", 2), ("E8", 2)]:
            g = load_or_build(args, label, k)
            rep = isomod.check_weyl_automorphism(
                g, parse_label(label), sample_pairs=args.sample_pairs, seed=seed
            )
            key = f"{label} k={k} ({rep['mode']}"
            if rep["mode"] == "sampled":
                key += f", seed={rep['seed']}, pairs={rep['sample_pairs']}"
            out[key + ")"] = rep["ok"]
        return out

    yield "weyl_automorphism_action", weyl

    def small_iso():
        gf4 = load_or_build(args, "F4", 4)
        gd41 = load_or_build(args, "D4", 1)
        ok, mapping = isomod.check_graph_isomorphism_small(gf4, gd41)
        ge61 = load_or_build(args, "E6", 1)
        ge64 = load_or_build(args, "E6", 4)
        ok2, _ = isomod.check_graph_isomorphism_small(ge61, ge64)
        return {
            "F4 k=4 iso D4 k=1 with explicit bijection": ok and mapping is not None,
            "E6 k=1 iso E6 k=4": ok2,
            "F4 k=4 vertex/adjacency structure": isomod.check_f4k4_structure(gf4),
            "Aut(F4 k=4) order 1152": isomod.count_automorphisms_small(gf4) == 1152,
        }

    yield "small_graph_isomorphisms", small_iso

    def side_counts():
        gf1 = load_or_build(args, "F4", 1)
        by_size = cliquemod.count_maximal_cliques_by_size(gf1)
        rows = cliquemod.induced_bitrows(gf1, np.arange(gf1.n))
        size5 = [
            c
            for c in cliquemod.enumerate_maximal_cliques(rows, (1 << gf1.n) - 1)
            if len(c) == 5
        ]
        sf5 = sunmod.count_sunflowers_direct(gf1, size5)
        out = {
            "F4 k=1 has 336 size-5 maximal cliques": by_size.get(5) == 336,
            "16 of them are sunflowers": sf5 == 16,
        }
        ge74 = graphmod.membership_graph(e7, 4)
        profile = cliquemod.count_maximal_cliques_by_size(ge74)
        out["E7 k=4 has 3,870,720 non-maximum maximal cliques"] = (
            sum(v for s, v in profile.items() if s < 7) == 3870720
        )
        return out

    yield "maximal_clique_side_counts", side_counts


def cmd_verify(args) -> int:
    report = {"seed": args.seed, "sample_pairs": args.sample_pairs, "checks": []}
    all_ok = True
    for name, runner in _verification_checks(args):
        try:
            results = runner()
            ok = all(results.values())
        except Exception as exc:  # pragma: no cover - surfaced in the report
            results = {"error": repr(exc)}
            ok = False
        all_ok &= ok
        report["checks"].append({"name": name, "ok": ok, "detail": results})
        print(f"{'PASS' if ok else 'FAIL'} {name}", file=sys.stderr)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if all_ok else 1


def _parse_k_range(text: str) -> tuple[int, int]:
    """K or LO-HI with LO <= HI; ValueError otherwise."""
    lo, dash, hi = text.partition("-")
    try:
        bounds = int(lo), int(hi if dash else lo)
    except ValueError:
        raise ValueError(f"--k-range {text!r}: expected K or LO-HI with integer bounds") from None
    if bounds[0] > bounds[1]:
        raise ValueError(f"--k-range {text!r}: lower bound exceeds upper bound")
    return bounds


def _table_rows(args):
    lo, hi = _parse_k_range(args.k_range)
    for label in args.systems:
        rs = parse_label(label)
        for k in range(max(lo, 1), min(hi, rs.max_sos_size) + 1):
            yield rs, k


def cmd_table(args) -> int:
    rows = []
    for rs, k in _table_rows(args):
        g = graphmod.membership_graph(rs, k)
        if args.which == "parameters":
            s = graphmod.stats(g)
            rows.append({
                "system": rs.label, "k": k, "n": s.n, "m": s.m,
                "min_degree": s.min_degree, "max_degree": s.max_degree,
                "components": s.component_count,
            })
        elif args.which == "cliques":
            rows.append({
                "system": rs.label, "k": k,
                "omega": cliquemod.clique_number(g),
            })
        else:
            census = sunmod.count_sunflower_max_cliques(g, rs)
            rows.append({
                "system": rs.label, "k": k,
                "maximum_cliques": census.total_maximum_cliques,
                "sunflowers": census.sunflower_cliques,
                "percentage": census.percentage_str(),
            })
    text = _format_table(args.which, rows, args.format)
    _emit(text, args.out)
    return 0


def _format_table(which: str, rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"table": which, "rows": rows}, indent=2) + "\n"
    columns = {
        "parameters": ["system", "k", "n", "m", "min_degree", "max_degree", "components"],
        "cliques": ["system", "k", "omega"],
        "sunflowers": ["system", "k", "maximum_cliques", "sunflowers", "percentage"],
    }[which]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)
        return buf.getvalue()
    lines = [" & ".join(columns) + r" \\"]
    for row in rows:
        lines.append(" & ".join(str(row[c]) for c in columns) + r" \\")
    return "\n".join(lines) + "\n"


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--cache-dir", default=None, help=f"graph cache (or ${CACHE_ENV})")
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sosgraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a graph into the cache")
    p.add_argument("--system", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--force", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="graph parameters")
    p.add_argument("--system", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dot", default=None, help="also write a DOT export")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("cliques", help="maximum-clique census")
    p.add_argument("--system", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p)
    p.set_defaults(func=cmd_cliques)

    p = sub.add_parser("sunflowers", help="sunflower census")
    p.add_argument("--system", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p)
    p.set_defaults(func=cmd_sunflowers)

    p = sub.add_parser("verify", help="structural property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-pairs", type=int, default=isomod.SAMPLE_PAIRS)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="emit census tables")
    p.add_argument("which", choices=["parameters", "cliques", "sunflowers"])
    p.add_argument("--systems", default=",".join(SYSTEM_ORDER),
                   type=lambda s: [x.strip() for x in s.split(",") if x.strip()])
    p.add_argument("--k-range", default="1-8")
    p.add_argument("--format", choices=["csv", "json", "latex"], default="csv")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RootSystemError, graphmod.GraphFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
