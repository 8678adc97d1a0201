"""Files outside the package that run against it: the census script and
the benchmark tracer, loaded from their paths."""

import csv
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sosgraphs import cli
from sosgraphs.graph import MembershipGraph

from test_acceptance import SUNFLOWERS, TABLE1, TABLE2, TABLE3

ROOT = Path(__file__).resolve().parent.parent


def _load(relative: str):
    spec = importlib.util.spec_from_file_location(Path(relative).stem, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    """Every function the benchmark tracer wraps by name still exists; a
    missing one would break every traced benchmark pass."""
    tracer = _load("perfbench/tracer.py")
    for name, module_name, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), name
    assert callable(MembershipGraph.neighbors)


def test_benchmark_rows_parse_with_the_cli():
    """Every workload's row command line, as the benchmark worker builds
    it, parses with the CLI's parser; a CLI change that breaks it would
    otherwise fail every benchmark pass."""
    worker = _load("perfbench/worker.py")
    for command in ("cliques", "sunflowers", "parameters"):
        argv = worker.row_argv(command, "E8", 3, "cache")
        assert cli._parser().parse_args(argv).command == argv[0], command


@pytest.mark.parametrize("command", ["cliques", "sunflowers", "parameters"])
def test_traced_benchmark_pass_runs(command, tmp_path):
    """One traced benchmark pass per workload, on one small row, in its own
    process: the tracer wraps its targets, every row exits 0, and spans are
    written. A wrapped function that broke would fail here."""
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench/worker.py"), "--command", command,
         "--rows", "G2:1", "--trace", str(trace), "--cache-dir", str(tmp_path / "cache")],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout.splitlines()[-1])["rows"]
    assert rows and all(row["exit"] == 0 and row["error"] is None for row in rows), rows
    assert json.loads(trace.read_text())["spans"]


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_run_census_writes_the_pinned_tables(tmp_path, monkeypatch, capsys):
    script = _load("scripts/run_census.py")
    levels = {"G2": 2, "F4": 4}
    monkeypatch.setattr(script, "ALL_LEVELS", levels)
    monkeypatch.setattr(sys, "argv", ["run_census.py", "--out-dir", str(tmp_path)])
    assert script.main() == 0
    rows = [(label, k) for label, kmax in levels.items() for k in range(1, kmax + 1)]

    def body(name: str) -> list[list[str]]:
        return _read(tmp_path / name)[1:]

    assert body("parameters.csv") == [[l, str(k), *map(str, TABLE1[(l, k)])] for l, k in rows]
    assert body("clique_numbers.csv") == [[l, str(k), str(TABLE2[l][k - 1])] for l, k in rows]
    assert body("maximum_clique_counts.csv") == [[l, str(k), str(TABLE3[(l, k)])] for l, k in rows]
    assert body("sunflowers.csv") == [[l, str(k), *map(str, SUNFLOWERS[(l, k)])] for l, k in rows]


def test_run_census_writes_what_the_cli_tables_print(tmp_path, monkeypatch, capsys):
    """The script and `table` share one row path and one writer: over G2,
    F4 and E7, parameters.csv and clique_numbers.csv are byte for byte what
    `table parameters|cliques --format csv` prints, and sunflowers.csv is
    `table sunflowers` without its rows where omega <= 1 (E7 k=7 alone)."""
    script = _load("scripts/run_census.py")
    monkeypatch.setattr(script, "ALL_LEVELS", {"G2": 2, "F4": 4, "E7": 7})
    monkeypatch.setattr(sys, "argv", ["run_census.py", "--out-dir", str(tmp_path)])
    assert script.main() == 0
    capsys.readouterr()

    def table(which: str) -> str:
        argv = ["table", which, "--systems", "G2,F4,E7", "--format", "csv"]
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    assert (tmp_path / "parameters.csv").read_bytes() == table("parameters").encode()
    omegas = table("cliques")
    assert (tmp_path / "clique_numbers.csv").read_bytes() == omegas.encode()
    lines = table("sunflowers").splitlines(keepends=True)
    small = {tuple(row[:2]) for row in csv.reader(omegas.splitlines()[1:]) if int(row[2]) <= 1}
    assert small == {("E7", "7")}
    kept = [line for line in lines if tuple(line.split(",")[:2]) not in small]
    assert (tmp_path / "sunflowers.csv").read_bytes() == "".join(kept).encode()
