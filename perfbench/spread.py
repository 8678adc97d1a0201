"""Run one workload on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload cliques [--runs 10] [--seconds 36]
                                [--first-seed 1] [--out FILE]

Spread is the distance between the first and third quartile of the runs'
values (`statistics.quantiles(values, n=4)`) as a share of their median;
a metric is steady when its spread is below a third of its bound in
BENCHMARK.json. Runs are sequential, one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="also write the summary as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])

    summary = {}
    for key, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median
        bound = bounds.get(key)
        summary[key] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        verdict = "" if bound is None else ("steady" if spread < bound / 3 else "NOT STEADY")
        print(f"{args.workload} {key}: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
              f"spread {spread:.4f} (bound {bound}) {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
