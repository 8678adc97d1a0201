"""Census benchmark: time the `sosgraphs` CLI on pinned census rows.

    python3 perfbench/run.py --workload cliques --seed 1 --seconds 36 --trace 0

Every pass runs in a fresh single-threaded process (`worker.py`) that calls
`sosgraphs.cli.main` once per (system, k) row, closed loop: a row starts
when the previous one returns. The seed only permutes the order of the
systems; rows of one system stay together in ascending k, because
`vertex_set` caches every depth <= k of a system inside the process.
Passes repeat until `--seconds` is used up (at least MIN_PASSES), and each
timing is the median over the passes. Every row's output is checked against
the pins in `tests/test_acceptance.py`.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and it carries the
per-layer metrics. Full results, the environment stamp and the span
records go to `.perfbench_out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
PINS_FILE = ROOT / "tests" / "test_acceptance.py"

# Highest k per system; every workload runs k = 1..kmax of each system. The
# heavier pinned rows (E8 k=4 counting, E8 k=3 sunflowers, the E8 k=4 and
# k=8 parameter rows, ...) are left out so that a pass takes about 5 s and
# one run holds several passes; see README.md.
WORKLOADS = {
    "cliques": ("cliques", {"G2": 2, "F4": 4, "E6": 4, "E7": 7, "E8": 3}),
    "sunflowers": ("sunflowers", {"G2": 2, "F4": 4, "E6": 4, "E7": 4, "E8": 1}),
    "parameters": ("parameters", {"G2": 2, "F4": 4, "E6": 4, "E7": 4, "E8": 3}),
}
MIN_PASSES = 3
SETUP_PROBES = 3
# Every pass must end by then, so that a run exits within 180 s.
DEADLINE_S = 170.0
LAYERS = ("roots", "sos", "graph", "clique", "sunflower")

END_TO_END = {"wall_s": "s", "slowest_row_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "roots.build_root_system.s": "s",
    "sos.vertex_set.s": "s",
    "sos.vertex_set.calls": "count",
    "sos.sos_enumerated": "count",
    "sos.vertices": "count",
    "sos.dedup_ratio": "1",
    "sos.peak_rss_mb": "MB",
    "graph.weyl_orbit_labels.s": "s",
    "graph.weyl_orbits": "count",
    "graph.neighbors.s": "s",
    "graph.neighbors.calls": "count",
    "graph.neighbors.lookups": "count",
    "graph.neighbors.hit_ratio": "1",
    "graph.build_gamma.self_s": "s",
    "graph.vertex_pairs": "count",
    "graph.edges": "count",
    "graph.edge_hit_ratio": "1",
    "graph.build_gamma.peak_rss_mb": "MB",
    "graph.stats.s": "s",
    "graph.serialize.s": "s",
    "graph.serialize.bytes": "bytes",
    "graph.file_checksum.s": "s",
    "graph.deserialize.calls": "count",
    "clique.induced_bitrows.s": "s",
    "clique.induced_bitrows.calls": "count",
    "clique.induced_bitrows.pairs": "count",
    "clique.max_clique_size_bitset.s": "s",
    "clique.max_clique_size_bitset.calls": "count",
    "clique.count_cliques_of_size_bitset.s": "s",
    "clique.count_cliques_of_size_bitset.calls": "count",
    "clique.collect_cliques_of_size.s": "s",
    "clique.collect_cliques_of_size.calls": "count",
    "clique.collect_cliques_of_size.cliques": "count",
    "sunflower.perm_orbit_labels.s": "s",
    "sunflower.perm_orbits": "count",
    "sunflower.count_sunflower_max_cliques.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "process.cpu_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong census value)."""


# ---------------------------------------------------------------- pins


def load_pins(path: Path = PINS_FILE) -> dict:
    """Expected values per (command, system, k), imported from the test pins."""
    if not path.is_file():
        raise BenchError(f"pin file {path} not found")
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("_census_pins", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    totals = {**mod.TABLE3, **getattr(mod, "TABLE3_STRETCH", {})}
    pins: dict = defaultdict(dict)
    for (label, k), (n, m, dmin, dmax, comps) in mod.TABLE1.items():
        pins["parameters", label, k].update(
            n=n, m=m, min_degree=dmin, max_degree=dmax, components=comps)
    for label, omegas in mod.TABLE2.items():
        for k, omega in enumerate(omegas, start=1):
            pins["cliques", label, k]["omega"] = omega
            pins["sunflowers", label, k]["omega"] = omega
    for (label, k), total in totals.items():
        pins["cliques", label, k]["total_maximum_cliques"] = total
        pins["sunflowers", label, k]["maximum_cliques"] = total
    for (label, k), (total, sun, pct) in mod.SUNFLOWERS.items():
        pins["sunflowers", label, k].update(maximum_cliques=total, sunflowers=sun,
                                            percentage=pct)
    return dict(pins)


def check_row(command: str, row: dict, pins: dict) -> list[str]:
    """Mismatches of one worker row against every pin for it; [] when correct."""
    if row["error"]:
        return ["raised: " + row["error"].strip().splitlines()[-1]]
    if row["exit"] != 0:
        return [f"exit code {row['exit']}"]
    expected = pins.get((command, row["system"], row["k"]))
    if not expected:
        return ["no pin for this row"]
    try:
        got = json.loads(row["output"])
    except json.JSONDecodeError:
        return ["output is not JSON"]
    if command == "parameters":
        got = got["rows"][0] if len(got.get("rows", [])) == 1 else {}
    return [f"{key}: got {got.get(key)!r}, pinned {want!r}"
            for key, want in sorted(expected.items()) if got.get(key) != want]


# ---------------------------------------------------------------- passes


def pass_rows(workload: tuple, rng: random.Random) -> list[tuple[str, int]]:
    systems = list(workload[1])
    rng.shuffle(systems)
    return [(s, k) for s in systems for k in range(1, workload[1][s] + 1)]


def run_pass(command: str, rows, deadline: float, *, trace_path: Path | None = None,
             setup_only: bool = False) -> dict:
    """Spawn one worker, wait for it, and return its report plus setup_s."""
    argv = [sys.executable, str(WORKER), "--command", command,
            "--rows", ",".join(f"{s}:{k}" for s, k in rows)]
    cache = None
    if command == "parameters" and not setup_only:
        cache = OUT_DIR / f"cache-{os.getpid()}"
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
        argv += ["--cache-dir", str(cache)]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {timeout:.0f} s and was killed") from exc
    finally:
        if cache is not None:
            shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["t_first_row"] - t_spawn
    report["wall_s"] = report["window"][1] - report["window"][0]
    return report


# ---------------------------------------------------------------- metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, report: dict) -> dict:
    """Per-layer numbers from one traced pass (see README.md for definitions)."""
    spans = trace["spans"]
    counters = defaultdict(int, trace["counters"])
    busy, own, layer_self = defaultdict(float), defaultdict(float), defaultdict(float)
    peak_kb = defaultdict(int)
    lo, hi = report["window"]
    for span, self_s in zip(spans, tracer.self_times(spans)):
        name, t0, t1, _, rss0, rss1 = span
        busy[name] += t1 - t0
        own[name] += self_s
        if rss1 > rss0:
            peak_kb[name] = max(peak_kb[name], rss1)
        if lo <= t0 and t1 <= hi:
            layer_self[name.split(".")[0]] += self_s
    wall = hi - lo
    m = {name: busy[name[:-2]] for name in PER_LAYER if name.endswith(".s")}
    m.update({name: counters[name] for name in PER_LAYER
              if name.endswith(".calls") or PER_LAYER[name] in ("count", "bytes")})
    m["sos.dedup_ratio"] = _ratio(counters["sos.vertices"], counters["sos.sos_enumerated"])
    m["sos.peak_rss_mb"] = peak_kb["sos.vertex_set"] / 1024
    m["graph.neighbors.hit_ratio"] = _ratio(counters["graph.neighbors.hits"],
                                            counters["graph.neighbors.lookups"])
    m["graph.build_gamma.self_s"] = own["graph.build_gamma"]
    m["graph.edge_hit_ratio"] = _ratio(counters["graph.edges"], counters["graph.vertex_pairs"])
    m["graph.build_gamma.peak_rss_mb"] = peak_kb["graph.build_gamma"] / 1024
    m["sunflower.count_sunflower_max_cliques.self_s"] = own["sunflower.count_sunflower_max_cliques"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["cli.self_s"] = wall - sum(layer_self.values())
    m["trace.wall_s"] = wall
    return m


def peak_raised_by(spans) -> str:
    """Innermost span that raised ru_maxrss to its final value, or 'cli'."""
    if not spans:
        return "cli"
    top = max(s[5] for s in spans)
    raisers = [s for s in spans if s[5] == top and s[4] < top]
    return min(raisers, key=lambda s: s[2] - s[1])[0] if raisers else "cli"


# ---------------------------------------------------------------- environment


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def load_sample() -> dict:
    """Load average and steal ticks, read-only from /proc."""
    stat = _read("/proc/stat").split("\n", 1)[0].split()
    return {"loadavg": _read("/proc/loadavg").split()[:3],
            "steal_ticks": int(stat[8]) if len(stat) > 8 else None}


def environment() -> dict:
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = git("status", "--porcelain", "--untracked-files=no") if sha else None
    models = [line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
              if line.startswith("model name")]
    import numpy

    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if dirty is None else bool(dirty),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor(),
    }


# ---------------------------------------------------------------- runs


def measure(name: str, seed: int, seconds: float, trace: bool, *,
            min_passes: int = MIN_PASSES, workload: tuple | None = None,
            pins: dict | None = None) -> dict:
    """One benchmark run; returns the result record (metrics and details)."""
    workload = workload or WORKLOADS[name]
    command = workload[0]
    pins = load_pins() if pins is None else pins
    OUT_DIR.mkdir(exist_ok=True)
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    before = load_sample()
    setups: list[float] = []
    passes: list[dict] = []
    traced: list[tuple[dict, dict]] = []

    if not trace:
        first = pass_rows(workload, rng)
        for _ in range(SETUP_PROBES):
            setups.append(run_pass(command, first, deadline, setup_only=True)["setup_s"])
    last = 0.0
    # A traced run alternates untraced and traced passes: one pair is enough.
    need = 1 if trace else min_passes
    while len(passes) < need or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        rows = pass_rows(workload, rng)
        passes.append(run_pass(command, rows, deadline))
        if trace:
            path = OUT_DIR / f"trace-{name}-seed{seed}-{len(traced)}.json"
            report = run_pass(command, rows, deadline, trace_path=path)
            traced.append((report, json.loads(path.read_text())))
        last = time.monotonic() - t0

    reports = passes + [r for r, _ in traced]
    failures = []
    for report in reports:
        for row in report["rows"]:
            bad = check_row(command, row, pins)
            if bad:
                failures.append({"system": row["system"], "k": row["k"], "why": bad})
    attempted = sum(len(r["rows"]) for r in reports)

    median = statistics.median
    if trace:
        per_pass = [layer_metrics(t, r) for r, t in traced]
        metrics = {key: median([p[key] for p in per_pass]) for key in PER_LAYER
                   if key not in ("trace.overhead_s", "process.cpu_s")}
        metrics["trace.overhead_s"] = (median([r["wall_s"] for r, _ in traced])
                                       - median([r["wall_s"] for r in passes]))
        metrics["process.cpu_s"] = median([r["cpu_s"] for r in passes])
        units = PER_LAYER
        extra = {"peak_raised_by": [peak_raised_by(t["spans"]) for _, t in traced]}
    else:
        setups += [r["setup_s"] for r in passes]
        metrics = {
            "wall_s": median([r["wall_s"] for r in passes]),
            "slowest_row_s": median([max(row["t1"] - row["t0"] for row in r["rows"])
                                     for r in passes]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["maxrss_kb"] / 1024 for r in passes]),
        }
        units = END_TO_END
        extra = {"setup_samples_s": setups}

    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "passes": [{"wall_s": r["wall_s"], "setup_s": r["setup_s"], "cpu_s": r["cpu_s"],
                    "maxrss_kb": r["maxrss_kb"],
                    "rows": [[row["system"], row["k"], row["t1"] - row["t0"]]
                             for row in r["rows"]]}
                   for r in reports],
        "failures": failures,
        "environment": {**environment(), "before": before, "after": load_sample()},
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sosgraphs" / "cli.py").is_file():
        print(f"error: no sosgraphs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{args.workload} failed_ratio = {result['failed_ratio']:.6g} 1 "
          f"({result['failed']}/{result['attempted']} rows, {len(result['passes'])} passes)",
          file=sys.stderr)
    for failure in result["failures"]:
        print(f"FAILED {failure['system']} k={failure['k']}: {failure['why']}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
