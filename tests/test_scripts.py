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
