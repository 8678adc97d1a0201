import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import pytest

from sosgraphs.cli import main

from test_acceptance import TABLE1
from test_graph import (
    BAD_INDPTR,
    TIER1,
    corrupted_headers,
    with_indptr_entry_moved,
    with_swapped_orbit_ids,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_and_reuse(cli_cache, capsys):
    code, out, _ = run(capsys, "build", "--system", "F4", "--k", "4")
    assert code == 0
    first = json.loads(out)
    assert first["n"] == 24 and first["m"] == 96 and not first["reused"]
    code, out, _ = run(capsys, "build", "--system", "F4", "--k", "4")
    second = json.loads(out)
    assert second["reused"] and second["checksum"] == first["checksum"]


def test_build_out_writes_the_line_build_prints(cli_cache, capsys, tmp_path):
    """`build --out FILE` writes the one JSON line that `build` prints, and
    prints nothing."""
    argv = ["build", "--system", "G2", "--k", "1", "--force"]
    code, printed, _ = run(capsys, *argv)
    target = tmp_path / "build.json"
    code_out, out, _ = run(capsys, *argv, "--out", str(target))
    assert code == code_out == 0 and out == ""
    assert target.read_text() == printed and printed.count("\n") == 1


# Every option is read by its command, except one: the benchmark worker
# passes `table parameters --cache-dir` on every row, so `table` accepts
# the option, which no table reads, until the benchmark stops passing it.
UNREAD = {("table", "cache_dir")}


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").setdefault("_reads", set())
        reads.add(name)
        return object.__getattribute__(self, name)


def test_every_command_reads_every_option(cli_cache, capsys, tmp_path):
    """Each subcommand, parsed into a namespace that records reads and then
    run, reads every option its parser defines: no option is accepted and
    then ignored."""
    from sosgraphs import cli

    argv = {
        "build": ["--system", "G2", "--k", "1"],
        "stats": ["--system", "G2", "--k", "1", "--dot", str(tmp_path / "g2.dot")],
        "cliques": ["--system", "G2", "--k", "1", "--brute-force"],
        "sunflowers": ["--system", "G2", "--k", "2"],
        "verify": [],
        "table": ["cliques", "--systems", "G2"],
    }
    parser = cli._parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == set(argv)
    for name, sub in commands.choices.items():
        args = parser.parse_args(
            [name, *argv[name], "--out", str(tmp_path / name)], namespace=_ReadRecorder()
        )
        reads = vars(args)["_reads"]
        reads.clear()
        assert args.func(args) == 0, name
        options = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        assert options - reads <= {dest for cmd, dest in UNREAD if cmd == name}, name
    capsys.readouterr()


def test_brute_force_with_csv_is_a_usage_error(cli_cache, capsys, monkeypatch):
    """`cliques --brute-force --format csv` would drop the oracle's result,
    so it is refused as a usage error that names both options, before any
    census or oracle runs."""
    from sosgraphs import clique as cliquemod
    from sosgraphs import graph as graphmod

    def refuse(*args):
        raise AssertionError("a census ran")

    for module, name in ((graphmod, "membership_graph"),
                         (cliquemod, "count_maximum_cliques"),
                         (cliquemod, "brute_force_maximum_cliques")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(SystemExit) as usage:
        main(["cliques", "--system", "G2", "--k", "1", "--brute-force", "--format", "csv"])
    captured = capsys.readouterr()
    assert usage.value.code == 2 and captured.out == ""
    assert "--brute-force" in captured.err and "--format csv" in captured.err


def test_build_rebuilds_a_corrupted_cache_file(cli_cache, capsys):
    """A cache file whose header declares 2**40 vertices, or whose label is
    not UTF-8, is rebuilt: build exits 0, reports that it did not reuse the
    file, and writes the same file again."""
    argv = ["build", "--system", "G2", "--k", "1"]
    path = Path(json.loads(run(capsys, *argv)[1])["path"])
    data = path.read_bytes()
    for bad in corrupted_headers(data).values():
        path.write_bytes(bad)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and not json.loads(out)["reused"]
        assert path.read_bytes() == data


def test_stats_rebuilds_a_file_whose_orbit_ids_disagree_with_its_rows(cli_cache, capsys):
    """Two orbit ids swapped in an E7 k=3 file, its CRC recomputed: the
    action built as the file is read refuses it, so stats rebuilds the
    file, exits 0 and reports what it reported before."""
    argv = ["--system", "E7", "--k", "3"]
    path = Path(json.loads(run(capsys, "build", *argv)[1])["path"])
    data = path.read_bytes()
    want = json.loads(run(capsys, "stats", *argv)[1])
    path.write_bytes(with_swapped_orbit_ids(data))
    code, out, _ = run(capsys, "stats", *argv)
    assert code == 0 and json.loads(out) == want
    assert path.read_bytes() == data


def test_stats_rebuilds_a_file_whose_last_row_is_one_entry_longer(cli_cache, capsys):
    """An F4 k=3 file whose last row takes one entry from the row before
    it, its CRC recomputed: the row offsets give one W-orbit two degrees,
    so stats rebuilds the file, exits 0 and prints the pinned values."""
    argv = ["--system", "F4", "--k", "3"]
    path = Path(json.loads(run(capsys, "build", *argv)[1])["path"])
    data = path.read_bytes()
    entry, delta, _ = BAD_INDPTR["longer_last_row"]
    path.write_bytes(with_indptr_entry_moved(data, entry, delta))
    code, out, _ = run(capsys, "stats", *argv)
    got = json.loads(out)
    assert code == 0 and got["graph_checksum"] == f"{zlib.crc32(data[:-4]):08x}"
    assert (got["n"], got["m"], got["min_degree"], got["max_degree"],
            got["component_count"]) == TIER1[("F4", 3)]
    assert path.read_bytes() == data


# The child reports its own VmHWM: its ru_maxrss would start from the
# resident size of the test process that spawned it, 1.7 GB late in a run.
_PEAK = """
import contextlib, io, json, sys
from sosgraphs.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "out": out.getvalue(), "peak_kb": peak_kb}))
"""


def _fresh_peak(*argv) -> tuple[str, float]:
    """The output of a CLI command run in a fresh process, and its VmHWM
    in MB; the command must exit 0."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _PEAK, *argv], env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout)
    assert report["exit"] == 0
    return report["out"], report["peak_kb"] / 1024


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_warm_graph_commands_hold_only_what_they_touch(cli_cache):
    """A warm build and a warm stats at E8 k=5, a 178 MB file, each peak
    below 100 MB in a fresh process: the CRC is streamed and the blocks
    are mapped, so neither holds the edge block."""

    def fresh(*argv):
        out, peak_mb = _fresh_peak(*argv, "--system", "E8", "--k", "5")
        return json.loads(out), peak_mb

    cold, _ = fresh("build")
    assert not cold["reused"] and Path(cold["path"]).stat().st_size > 170 * 10**6
    n, m = TABLE1[("E8", 5)][:2]
    warm, build_mb = fresh("build")
    assert warm["reused"] and (warm["n"], warm["m"]) == (n, m)
    stats, stats_mb = fresh("stats")
    assert (stats["n"], stats["m"], stats["graph_checksum"]) == (n, m, cold["checksum"])
    assert build_mb < 100 and stats_mb < 100, (build_mb, stats_mb)


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_whole_table_holds_one_row_at_a_time():
    """The 25-row parameter table peaks below 70 MB in a fresh process: no
    row's vertex set outlives its row, so the peak is the largest row's,
    not the sum of all rows."""
    out, peak_mb = _fresh_peak("table", "parameters", "--format", "csv")
    assert len(out.splitlines()) == 26 and peak_mb < 70, peak_mb


@pytest.mark.parametrize("label,k", [("E7", 4), ("E8", 3)])
def test_census_commands_take_no_cartan_product_of_the_vertices(
    cli_cache, capsys, monkeypatch, label, k
):
    """cliques, sunflowers and table parameters read every Cartan integer
    of the vertex rows from the closure's walk: a spy on
    roots._cartan_integers, wherever it is bound, sees no call on them."""
    from sosgraphs import graph as graphmod
    from sosgraphs import roots as rootsmod
    from sosgraphs import sos as sosmod
    from sosgraphs import sunflower as sunmod

    real, sizes = rootsmod._cartan_integers, []

    def spy(rows, roots):
        sizes.append(len(rows))
        return real(rows, roots)

    for module in (rootsmod, sosmod, graphmod, sunmod):
        monkeypatch.setattr(module, "_cartan_integers", spy)
    for argv in (["cliques", "--system", label, "--k", str(k)],
                 ["sunflowers", "--system", label, "--k", str(k)],
                 ["table", "parameters", "--systems", label, "--k-range", str(k)]):
        assert run(capsys, *argv)[0] == 0
    n = len(sosmod.vertex_set(rootsmod.parse_label(label), k))
    assert sizes and max(sizes) < n


def test_build_and_stats_read_the_file_once(cli_cache, capsys, monkeypatch):
    """A cold build, a warm build and stats report the file's CRC from the
    one write or read of the file, with no separate checksum pass."""
    from sosgraphs import graph as graphmod

    def refuse(path):
        raise AssertionError("the graph file was read again for its checksum")

    monkeypatch.setattr(graphmod, "file_checksum", refuse)
    argv = ["--system", "F4", "--k", "3"]
    cold = json.loads(run(capsys, "build", *argv)[1])
    warm = json.loads(run(capsys, "build", *argv)[1])
    stats = json.loads(run(capsys, "stats", *argv)[1])
    data = Path(cold["path"]).read_bytes()
    crc = zlib.crc32(data[:-4])
    assert data[-4:] == crc.to_bytes(4, "little")
    assert cold["checksum"] == warm["checksum"] == stats["graph_checksum"] == f"{crc:08x}"
    assert not cold["reused"] and warm["reused"]


def test_build_warns_beyond_max_sos(cli_cache, capsys):
    code, out, err = run(capsys, "build", "--system", "E6", "--k", "5")
    assert code == 0
    assert "exceeds max SOS size 4" in err
    assert json.loads(out)["n"] == 0


def test_stats_warns_beyond_max_sos(cli_cache, capsys):
    code, out, err = run(capsys, "stats", "--system", "E6", "--k", "5")
    assert code == 0
    assert err == "warning: k=5 exceeds max SOS size 4 for E6; graph is empty\n"
    assert json.loads(out)["n"] == 0


@pytest.mark.parametrize("command", ["cliques", "sunflowers"])
def test_census_warns_beyond_max_sos(cli_cache, capsys, command):
    code, out, err = run(capsys, command, "--system", "E6", "--k", "5")
    assert code == 0
    assert err == "warning: k=5 exceeds max SOS size 4 for E6; graph is empty\n"
    payload = json.loads(out)
    assert payload["omega"] == 0 and payload["k"] == 5


@pytest.mark.parametrize("k_range", ["3-1", "x", "1-", "2-y", "0", "0-2"])
def test_table_rejects_bad_k_range(cli_cache, capsys, k_range):
    code, out, err = run(capsys, "table", "cliques", "--systems", "G2", "--k-range", k_range)
    assert code == 1 and out == ""
    assert err.startswith(f"error: --k-range {k_range!r}: ")


def test_table_rejects_a_range_with_no_row(cli_cache, capsys):
    code, out, err = run(capsys, "table", "sunflowers", "--systems", "E6,F4", "--k-range", "5")
    assert code == 1 and out == ""
    assert err == ("error: --k-range '5': no row, every k exceeds the max SOS size "
                   "(E6 4, F4 4)\n")


def test_table_clips_a_partly_covered_range_silently(cli_cache, capsys):
    code, out, err = run(capsys, "table", "cliques", "--systems", "G2,F4", "--k-range", "2-8")
    assert code == 0 and err == ""
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
        ["G2", "2"], ["F4", "2"], ["F4", "3"], ["F4", "4"],
    ]


@pytest.mark.parametrize("systems", [",,", ""])
def test_table_rejects_empty_systems(cli_cache, capsys, systems):
    code, out, err = run(capsys, "table", "parameters", "--systems", systems)
    assert code == 1 and out == ""
    assert err == "error: --systems: no system given\n"


@pytest.mark.parametrize("systems,repeated", [("E8,E8", "E8"), ("G2,F4, G2", "G2")])
def test_table_rejects_a_repeated_system(cli_cache, capsys, systems, repeated):
    """A system named twice would print its rows twice; it is refused by name."""
    code, out, err = run(capsys, "table", "cliques", "--systems", systems, "--k-range", "1")
    assert code == 1 and out == ""
    assert err == f"error: --systems: {repeated} is given more than once\n"


def test_parser_is_built_once_and_reused(cli_cache, capsys):
    """After a usage error, calls of two subcommands in the same process
    print what fresh calls print, and the parser is built once."""
    from sosgraphs import cli

    calls = [("cliques", "--system", "F4", "--k", "2"),
             ("table", "parameters", "--systems", "G2", "--format", "json")]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as usage:
        main(["cliques", "--system", "F4"])
    assert usage.value.code == 2 and "--k" in capsys.readouterr().err
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert cli._parser.cache_info().misses == 1


def test_stats_output(cli_cache, capsys, tmp_path):
    dot = tmp_path / "f4k4.dot"
    code, out, _ = run(capsys, "stats", "--system", "F4", "--k", "4", "--dot", str(dot))
    assert code == 0
    payload = json.loads(out)
    assert payload["min_degree"] == payload["max_degree"] == 8
    assert payload["is_regular"] and payload["component_count"] == 1
    assert dot.read_text().count(" -- ") == 96


def test_stats_dot_into_missing_directory_prints_no_report(cli_cache, capsys, tmp_path):
    """The DOT file is written before the report, so a DOT path that cannot
    be written fails the run with nothing on stdout."""
    dot = tmp_path / "missing" / "x.dot"
    code, out, err = run(capsys, "stats", "--system", "G2", "--k", "1", "--dot", str(dot))
    assert code == 1 and out == ""
    assert any(line.startswith("error: ") and str(dot) in line for line in err.splitlines())


def test_refused_build_makes_no_cache_directory(capsys, tmp_path):
    """k = 0 is refused before any graph is written, and the cache
    directory is made only when one is."""
    fresh = tmp_path / "new"
    code, out, err = run(capsys, "build", "--system", "E7", "--k", "0", "--cache-dir", str(fresh))
    assert code == 1 and out == "" and "k must be >= 1" in err
    assert not fresh.exists()


def test_cliques_json_and_csv(cli_cache, capsys):
    code, out, _ = run(capsys, "cliques", "--system", "G2", "--k", "1", "--brute-force")
    assert code == 0
    payload = json.loads(out)
    assert payload["omega"] == 3
    assert payload["total_maximum_cliques"] == 20
    assert payload["brute_force_agrees"]
    code, out, _ = run(capsys, "cliques", "--system", "G2", "--k", "1", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "system,k,omega,n_i,c_i,total"
    assert len(lines) == 3  # two orbits


def test_sunflowers_csv(cli_cache, capsys):
    code, out, _ = run(capsys, "sunflowers", "--system", "F4", "--k", "4", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1] == "F4,4,96,64,66.7"


def test_table_parameters_g2(cli_cache, capsys):
    code, out, _ = run(capsys, "table", "parameters", "--systems", "G2")
    assert code == 0
    assert out.splitlines()[1:] == ["G2,1,12,30,4,6,1", "G2,2,6,6,2,2,1"]


def test_table_cliques_row(cli_cache, capsys):
    code, out, _ = run(capsys, "table", "cliques", "--systems", "E6", "--format", "csv")
    assert code == 0
    omegas = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
    assert omegas == ["5", "3", "5", "5"]


def test_table_sunflowers_json_ignores_pair_budget(cli_cache, capsys):
    """Census tables have no budget: every row is computed."""
    code, out, _ = run(
        capsys, "table", "sunflowers", "--systems", "G2,F4", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert not any(r.get("skipped") for r in rows)
    by_key = {(r["system"], r["k"]): r for r in rows}
    assert by_key[("G2", 2)]["sunflowers"] == 6
    assert by_key[("F4", 3)]["sunflowers"] == 896


def test_table_cliques_ignores_memory_budget(cli_cache, capsys):
    code, out, _ = run(capsys, "table", "cliques", "--systems", "F4")
    assert code == 0
    assert "SKIPPED" not in out


def test_table_latex_format(cli_cache, capsys):
    code, out, _ = run(capsys, "table", "cliques", "--systems", "G2", "--format", "latex")
    assert code == 0
    assert r"G2 & 1 & 3 \\" in out


@pytest.mark.parametrize("which", ["parameters", "cliques", "sunflowers"])
def test_table_latex_escapes_underscores(cli_cache, capsys, which):
    """LaTeX takes a bare "_" only in math mode, so every header escapes it."""
    code, out, _ = run(capsys, "table", which, "--systems", "G2", "--format", "latex")
    assert code == 0
    assert re.search(r"(?<!\\)_", out) is None
    if which != "cliques":
        assert r"\_" in out.splitlines()[0]


@pytest.mark.slow
def test_table_parameters_has_no_budget(cli_cache, capsys):
    """E8 k=6/7, once skipped by an edge-build budget, come out in full."""
    code, out, _ = run(
        capsys, "table", "parameters", "--systems", "E8", "--k-range", "6-7",
        "--format", "json",
    )
    assert code == 0
    got = [tuple(r.values()) for r in json.loads(out)["rows"]]
    assert got == [("E8", 6, 60480, 81950400, 2710, 2710, 1),
                   ("E8", 7, 69120, 67737600, 1960, 1960, 1)]


def test_table_parameters_never_builds_edges(cli_cache, capsys, monkeypatch):
    from sosgraphs import graph as graphmod

    def refuse(*args, **kwargs):
        raise AssertionError("table parameters built an edge list")

    monkeypatch.setattr(graphmod, "build_gamma", refuse)
    code, out, _ = run(capsys, "table", "parameters", "--systems", "G2,F4,E6")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 2 + 4 + 4
    assert not list(cli_cache.glob("*.sosg"))


def test_deterministic_outputs(cli_cache, capsys):
    _, first, _ = run(capsys, "table", "sunflowers", "--systems", "G2", "--format", "csv")
    _, second, _ = run(capsys, "table", "sunflowers", "--systems", "G2", "--format", "csv")
    assert first == second


def test_unknown_system_errors(cli_cache, capsys):
    code, _, err = run(capsys, "build", "--system", "B3", "--k", "1")
    assert code == 1
    assert "error" in err


def test_key_dimension_limit_errors(cli_cache, capsys):
    for argv in (["build", "--system", "D10", "--k", "1"],
                 ["cliques", "--system", "A9", "--k", "2"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "at most 9" in err


def test_a_huge_rank_is_refused_before_any_root_is_built(cli_cache, capsys, monkeypatch):
    """A100000000000 and D100000000000 need an ambient dimension far past
    the key limit: it is checked before a root is listed, so the command
    exits 1 naming the limit and allocates nothing large."""
    from sosgraphs import roots as rootsmod

    def refuse(rank):
        raise AssertionError(f"the roots of rank {rank} were listed")

    monkeypatch.setattr(rootsmod, "_a_roots", refuse)
    monkeypatch.setattr(rootsmod, "_d_roots", refuse)
    for system in ("A100000000000", "D100000000000"):
        tracemalloc.start()
        code, out, err = run(capsys, "cliques", "--system", system, "--k", "1")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "at most 9" in err
        assert peak < 1 << 20


def test_verify_is_exact_and_writes_no_graph_files(cli_cache, capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["checks"]
    assert len(report["checks"]) == 7
    for check in report["checks"]:
        assert check["ok"] and all(v is True for v in check["detail"].values()), check
    weyl = next(c for c in report["checks"] if c["name"] == "weyl_automorphism_action")
    assert list(weyl["detail"]) == ["G2 k=1", "F4 k=3", "E6 k=2", "E7 k=2", "E8 k=2"]
    assert err.count("PASS ") == 7
    assert not list(cli_cache.glob("*.sosg"))


@pytest.mark.parametrize("command", [
    ["cliques", "--system", "G2", "--k", "1"],
    ["sunflowers", "--system", "G2", "--k", "1"],
    ["verify"],
], ids=["cliques", "sunflowers", "verify"])
def test_cache_dir_only_where_a_cache_is_read(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err


def test_out_into_missing_directory_errors(cli_cache, capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "cliques", "--system", "G2", "--k", "1", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(target) in err


def test_cache_dir_that_is_a_file_errors(capsys, tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    code, out, err = run(capsys, "build", "--system", "G2", "--k", "1", "--cache-dir", str(blocker))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(blocker) in err


def test_brute_force_builds_graph_once(cli_cache, capsys, monkeypatch):
    from sosgraphs import graph as graphmod

    calls = []
    real = graphmod.membership_graph
    monkeypatch.setattr(graphmod, "membership_graph", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, "cliques", "--system", "F4", "--k", "4", "--brute-force")
    assert code == 0 and json.loads(out)["brute_force_agrees"]
    assert len(calls) == 1


def test_cache_dir_flag_overrides_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOSGRAPHS_CACHE", str(tmp_path / "env"))
    explicit = tmp_path / "flag"
    code, out, _ = run(
        capsys, "build", "--system", "G2", "--k", "2", "--cache-dir", str(explicit)
    )
    assert code == 0
    assert json.loads(out)["path"].startswith(str(explicit))
    assert not (tmp_path / "env").exists()


_IMPORTS_NUMPY_MA = """
import contextlib, io, sys
import numpy
if 'numpy.ma' in sys.modules:
    print('preloaded')
    raise SystemExit
from sosgraphs.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(['cliques', '--system', 'E7', '--k', '3'])
    main(['sunflowers', '--system', 'F4', '--k', '3'])
    main(['table', 'parameters', '--systems', 'E6', '--k-range', '2'])
print('numpy.ma' in sys.modules)
"""


def test_census_rows_do_not_import_numpy_ma(cli_cache):
    """A plain np.unique imports numpy.ma (about 10-24 ms), which would land
    in the first row of every process; the census rows never call one."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTS_NUMPY_MA], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    if done.stdout.strip() == "preloaded":
        pytest.skip("importing numpy alone loads numpy.ma here")
    assert done.stdout.strip() == "False"


_LOADS_ISO = """
import contextlib, io, sys
from sosgraphs.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(['sunflowers', '--system', 'G2', '--k', '2'])
print('sosgraphs.iso' in sys.modules)
"""


def test_census_commands_do_not_load_iso():
    """Only `verify` uses the isomorphism checks, so importing the CLI and
    running a census row leaves `sosgraphs.iso` unloaded (and uncompiled)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _LOADS_ISO], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert done.stdout.strip() == "False"
