"""Self-tests of the census benchmark on small G2 and F4 rows.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SMOKE_ROWS = {"G2": 2, "F4": 4}


def smoke(command, trace, pins=None):
    return run.measure(f"smoke-{command}", 0, 0, trace, min_passes=1,
                       workload=(command, SMOKE_ROWS), pins=pins)


@pytest.fixture(scope="module")
def pins():
    return run.load_pins()


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(pins, trace):
    result = smoke("cliques", trace, pins)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1) * 6
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_wrong_expected_value_fails_the_row_not_the_run(pins):
    wrong = {key: dict(value) for key, value in pins.items()}
    wrong["cliques", "F4", 3]["omega"] += 1
    result = smoke("cliques", False, wrong)
    assert not result["correct"]
    assert result["attempted"] == 6 and result["failed"] == 1
    assert result["failures"][0]["system"] == "F4" and result["failures"][0]["k"] == 3
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_rows_that_raise_or_exit_nonzero_fail():
    row = {"system": "F4", "k": 1, "exit": None, "output": "",
           "error": "Traceback ...\nArithmeticError: not divisible\n"}
    assert run.check_row("cliques", row, {}) == ["raised: ArithmeticError: not divisible"]
    row.update(error=None, exit=2)
    assert run.check_row("parameters", row, {}) == ["exit code 2"]


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9].
    spans = [
        ("cli.root", 0.0, 10.0, -1, 0, 0),
        ("sos.a", 1.0, 4.0, 0, 0, 100),
        ("clique.a1", 2.0, 3.0, 1, 0, 100),
        ("graph.b", 5.0, 9.0, 0, 100, 100),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert run.peak_raised_by(spans) == "clique.a1"
    # Layer self times plus cli.self_s account for the traced wall time.
    children = [(n, t0, t1, p - 1, r0, r1) for n, t0, t1, p, r0, r1 in spans[1:]]
    m = run.layer_metrics({"spans": children, "counters": {}}, {"window": [0.0, 10.0]})
    assert (m["sos.self_s"], m["clique.self_s"], m["graph.self_s"]) == (2.0, 1.0, 4.0)
    assert m["cli.self_s"] == 3.0 and m["trace.wall_s"] == 10.0
    assert sum(m[f"{layer}.self_s"] for layer in run.LAYERS) + m["cli.self_s"] == 10.0


# Metrics that must be non-zero when each smoke workload is traced; each one
# fails if its wrapper is missing from the namespace the caller uses.
USED = {
    "cliques": ["roots.build_root_system.s", "sos.vertex_set.calls",
                "graph.weyl_orbit_labels.s", "graph.neighbors.calls",
                "clique.induced_bitrows.calls", "clique.max_clique_size_bitset.calls",
                "clique.count_cliques_of_size_bitset.calls"],
    "sunflowers": ["sos.vertex_set.calls", "graph.weyl_orbit_labels.s",
                   "graph.neighbors.calls", "clique.induced_bitrows.calls",
                   "clique.max_clique_size_bitset.calls",
                   "clique.collect_cliques_of_size.calls",
                   "sunflower.perm_orbit_labels.s",
                   "sunflower.count_sunflower_max_cliques.self_s"],
    "parameters": ["sos.vertex_set.calls", "graph.weyl_orbit_labels.s",
                   "graph.build_gamma.self_s", "graph.stats.s", "graph.serialize.bytes",
                   "graph.file_checksum.s"],
}


@pytest.mark.parametrize("command", sorted(USED))
def test_traced_run_records_every_layer_the_workload_uses(pins, command):
    result = smoke(command, True, pins)
    assert result["correct"]
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert [name for name in USED[command] if not values[name] > 0] == []
    assert values["graph.deserialize.calls"] == 0
    # Both cli and graph call vertex_set once per parameters row: two namespaces.
    if command == "parameters":
        assert values["sos.vertex_set.calls"] == 2 * 6
    layer_sum = sum(values[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layer_sum + values["cli.self_s"] == pytest.approx(values["trace.wall_s"])
