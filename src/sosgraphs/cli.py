"""Command-line pipeline: build graphs into a cache, report stats, run the
clique and sunflower censuses, verify structural properties, and emit the
census tables in CSV, JSON or LaTeX.

Exit codes: 0 success, 1 failure (printed as `error: ...`), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from sosgraphs import clique as cliquemod
from sosgraphs import graph as graphmod
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


def load_or_build(
    args, label: str, k: int, *, force: bool = False
) -> tuple[graphmod.SOSGraph, str, bool]:
    """The graph, its file's payload CRC32, and whether the cached file was
    reused. A reused file is read in one streamed CRC pass, and its blocks
    are read-only views of the mapped file; a built graph is written once,
    its CRC computed as it is written."""
    rs = parse_label(label)
    path = cache_path(args, rs.label, k)
    if path.exists() and not force:
        try:
            g, checksum = graphmod.deserialize(path)
            if g.label == rs.label and g.k == k:
                return g, checksum, True
        except graphmod.GraphFileError:
            pass
    g = graphmod.build_gamma(rs, k)
    return g, graphmod.serialize(g, path), False


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def csv_text(columns, rows) -> str:
    """A header and rows in CSV, with the csv module's \\r\\n line ends: the
    one CSV writer of every command and of `scripts/run_census.py`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


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
    g, checksum, reused = load_or_build(args, rs.label, args.k, force=args.force)
    _emit(json.dumps({
        "path": str(cache_path(args, rs.label, args.k)),
        "checksum": checksum,
        "reused": reused,
        "n": g.n,
        "m": g.edge_count,
    }) + "\n", args.out)
    return 0


def cmd_stats(args) -> int:
    rs = _system(args)
    g, checksum, _ = load_or_build(args, rs.label, args.k)
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
        "graph_checksum": checksum,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if args.dot:
        Path(args.dot).write_text(graphmod.to_dot(g), encoding="utf-8")
    return 0


def cmd_cliques(args) -> int:
    if args.brute_force and args.format == "csv":
        args.usage_error("--brute-force reports in JSON only, not with --format csv")
    rs = _system(args)
    g = graphmod.membership_graph(rs, args.k)
    census = cliquemod.count_maximum_cliques(g)
    if args.format == "csv":
        _emit(csv_text(
            ["system", "k", "omega", "n_i", "c_i", "total"],
            [[rs.label, args.k, census.omega, n_i, c_i, census.total_maximum_cliques]
             for n_i, c_i in census.per_orbit],
        ), args.out)
        return 0
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
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_sunflowers(args) -> int:
    rs = _system(args)
    g = graphmod.membership_graph(rs, args.k)
    if args.format == "csv":
        rows = [TABLES["sunflowers"].row(rs, args.k, g)]
        _emit(_format_table("sunflowers", rows, "csv"), args.out)
        return 0
    census = sunmod.count_sunflower_max_cliques(g, rs)
    _emit(json.dumps({
        "system": rs.label,
        "k": args.k,
        "omega": census.omega,
        "maximum_cliques": census.total_maximum_cliques,
        "sunflowers": census.sunflower_cliques,
        "percentage": census.percentage_str(),
    }, indent=2) + "\n", args.out)
    return 0


def _verification_checks():
    """The structural suite, every check exact, on graphs with no edge list."""
    # Imported here: only `verify` needs it, and every other command would
    # pay for compiling it where no bytecode is cached.
    from sosgraphs import iso as isomod

    e6, e7, e8 = parse_label("E6"), parse_label("E7"), parse_label("E8")

    def graph(label: str, k: int) -> graphmod.MembershipGraph:
        return graphmod.membership_graph(parse_label(label), k)

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
            rep = isomod.check_mod8(rs)
            out[f"{rs.label} k={rs.max_sos_size} ({rep['pairs']} pairs)"] = rep["ok"]
        return out

    yield "mod8_top_level", mod8

    def edgeless():
        return {"E7 k=7 has 0 edges": graphmod.stats(graphmod.membership_graph(e7, 7)).m == 0}

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
            rs = parse_label(label)
            out[f"{label} k={k}"] = isomod.check_weyl_automorphism(graph(label, k), rs)["ok"]
        return out

    yield "weyl_automorphism_action", weyl

    def small_iso():
        gf4 = graph("F4", 4)
        ok, mapping = isomod.check_graph_isomorphism_small(gf4, graph("D4", 1))
        ok2, _ = isomod.check_graph_isomorphism_small(graph("E6", 1), graph("E6", 4))
        return {
            "F4 k=4 iso D4 k=1 with explicit bijection": ok and mapping is not None,
            "E6 k=1 iso E6 k=4": ok2,
            "F4 k=4 vertex/adjacency structure": isomod.check_f4k4_structure(gf4),
            "Aut(F4 k=4) order 1152": isomod.count_automorphisms_small(gf4) == 1152,
        }

    yield "small_graph_isomorphisms", small_iso

    def side_counts():
        gf1 = graph("F4", 1)
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
        profile = cliquemod.count_maximal_cliques_by_size(graph("E7", 4))
        out["E7 k=4 has 3,870,720 non-maximum maximal cliques"] = (
            sum(v for s, v in profile.items() if s < 7) == 3870720
        )
        return out

    yield "maximal_clique_side_counts", side_counts


def cmd_verify(args) -> int:
    report = {"checks": []}
    all_ok = True
    for name, runner in _verification_checks():
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
    """K or LO-HI with 1 <= LO <= HI; ValueError otherwise."""
    lo, dash, hi = text.partition("-")
    try:
        bounds = int(lo), int(hi if dash else lo)
    except ValueError:
        raise ValueError(f"--k-range {text!r}: expected K or LO-HI with integer bounds") from None
    if bounds[0] < 1:
        raise ValueError(f"--k-range {text!r}: k must be >= 1")
    if bounds[0] > bounds[1]:
        raise ValueError(f"--k-range {text!r}: lower bound exceeds upper bound")
    return bounds


def _table_rows(args) -> list:
    """(root system, k) per row; k above a system's max SOS size is
    skipped, and a repeated system or a range that leaves no row at all
    is an error."""
    lo, hi = _parse_k_range(args.k_range)
    if not args.systems:
        raise ValueError("--systems: no system given")
    systems = [parse_label(label) for label in args.systems]
    labels = [rs.label for rs in systems]
    repeated = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
    if repeated:
        raise ValueError(f"--systems: {repeated} is given more than once")
    rows = [(rs, k) for rs in systems for k in range(lo, min(hi, rs.max_sos_size) + 1)]
    if not rows:
        sizes = ", ".join(f"{rs.label} {rs.max_sos_size}" for rs in systems)
        raise ValueError(f"--k-range {args.k_range!r}: no row, every k exceeds the max SOS size "
                         f"({sizes})")
    return rows


class Table(NamedTuple):
    """A census table: its columns, and its row at (root system, k, graph).
    The cliques and sunflowers rows also take the graph's maximum-clique
    census, where the caller has computed it already."""

    columns: tuple[str, ...]
    row: Callable[..., list]


def _parameters_row(rs, k, g) -> list:
    s = graphmod.stats(g)
    return [rs.label, k, s.n, s.m, s.min_degree, s.max_degree, s.component_count]


def _cliques_row(rs, k, g, census=None) -> list:
    return [rs.label, k, cliquemod.clique_number(g) if census is None else census.omega]


def _sunflowers_row(rs, k, g, census=None) -> list:
    sf = sunmod.count_sunflower_max_cliques(g, rs, census)
    return [rs.label, k, sf.total_maximum_cliques, sf.sunflower_cliques, sf.percentage_str()]


TABLES = {
    "parameters": Table(
        ("system", "k", "n", "m", "min_degree", "max_degree", "components"), _parameters_row
    ),
    "cliques": Table(("system", "k", "omega"), _cliques_row),
    "sunflowers": Table(
        ("system", "k", "maximum_cliques", "sunflowers", "percentage"), _sunflowers_row
    ),
}


def cmd_table(args) -> int:
    row = TABLES[args.which].row
    rows = [row(rs, k, graphmod.membership_graph(rs, k)) for rs, k in _table_rows(args)]
    _emit(_format_table(args.which, rows, args.format), args.out)
    return 0


def _format_table(which: str, rows: list[list], fmt: str) -> str:
    columns = TABLES[which].columns
    if fmt == "json":
        rows = [dict(zip(columns, row)) for row in rows]
        return json.dumps({"table": which, "rows": rows}, indent=2) + "\n"
    if fmt == "csv":
        return csv_text(columns, rows)
    # LaTeX takes a bare "_" only in math mode; the data rows have none.
    lines = [" & ".join(c.replace("_", r"\_") for c in columns) + r" \\"]
    for row in rows:
        lines.append(" & ".join(map(str, row)) + r" \\")
    return "\n".join(lines) + "\n"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: building
    the six subcommands costs about a millisecond, as much as a small
    census row. Options that several subcommands take are declared once,
    in a parent parser."""
    row = argparse.ArgumentParser(add_help=False)
    row.add_argument("--system", required=True)
    row.add_argument("--k", type=int, required=True)
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache-dir", default=None, help=f"graph cache (or ${CACHE_ENV})")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["json", "csv"], default="json")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to a file instead of stdout")

    parser = argparse.ArgumentParser(prog="sosgraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[*parents, out])
        p.set_defaults(func=func)
        return p

    p = command("build", cmd_build, "build a graph into the cache", row, cache)
    p.add_argument("--force", action="store_true")
    p = command("stats", cmd_stats, "graph parameters", row, cache)
    p.add_argument("--dot", default=None, help="also write a DOT export")
    p = command("cliques", cmd_cliques, "maximum-clique census", row, fmt)
    p.add_argument("--brute-force", action="store_true", help="also count by brute force (JSON)")
    p.set_defaults(usage_error=p.error)
    command("sunflowers", cmd_sunflowers, "sunflower census", row, fmt)
    command("verify", cmd_verify, "structural property suite")
    p = command("table", cmd_table, "emit census tables")
    p.add_argument("which", choices=list(TABLES))
    p.add_argument("--systems", default=",".join(SYSTEM_ORDER),
                   type=lambda s: [x.strip() for x in s.split(",") if x.strip()])
    p.add_argument("--k-range", default="1-8")
    p.add_argument("--format", choices=["csv", "json", "latex"], default="csv")
    p.add_argument("--cache-dir", default=None,
                   help="accepted for the benchmark worker; no table reads a graph file")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (RootSystemError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
