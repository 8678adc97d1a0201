import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from sosgraphs.cli import main


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


@pytest.mark.parametrize("systems", [",,", ""])
def test_table_rejects_empty_systems(cli_cache, capsys, systems):
    code, out, err = run(capsys, "table", "parameters", "--systems", systems)
    assert code == 1 and out == ""
    assert err == "error: --systems: no system given\n"


def test_stats_output(cli_cache, capsys, tmp_path):
    dot = tmp_path / "f4k4.dot"
    code, out, _ = run(capsys, "stats", "--system", "F4", "--k", "4", "--dot", str(dot))
    assert code == 0
    payload = json.loads(out)
    assert payload["min_degree"] == payload["max_degree"] == 8
    assert payload["is_regular"] and payload["component_count"] == 1
    assert dot.read_text().count(" -- ") == 96


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
