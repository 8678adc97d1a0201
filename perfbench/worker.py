"""One benchmark pass in a fresh process: set up, run the rows, report.

Run by `run.py`, never by hand:

    python3 perfbench/worker.py --command cliques --rows E7:1,E7:2 [--trace FILE]

Set-up is the imports plus `build_root_system` for each system of the pass;
the pass then calls `sosgraphs.cli.main` once per (system, k) row, in the
given order, with the CLI's stdout captured. Outputs are returned raw and
checked by the parent, so checking costs nothing inside the timed window.
The last stdout line is one JSON object; with `--setup-only` the rows are
skipped and only the set-up time is reported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def row_argv(command: str, system: str, k: int, cache_dir: str | None) -> list[str]:
    if command == "parameters":
        return ["table", "parameters", "--systems", system, "--k-range", str(k),
                "--format", "json", "--cache-dir", cache_dir]
    return [command, "--system", system, "--k", str(k)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True,
                        choices=["cliques", "sunflowers", "parameters"])
    parser.add_argument("--rows", required=True, help="comma-separated SYSTEM:K")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace", default=None, help="write spans and counters here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    rows = [(s, int(k)) for s, k in (item.split(":") for item in args.rows.split(","))]

    from sosgraphs import cli
    from sosgraphs.roots import build_root_system

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
        build_root_system = sys.modules["sosgraphs.roots"].build_root_system
    for system in dict.fromkeys(s for s, _ in rows):
        build_root_system(system)

    results = []
    t_first = time.monotonic()
    p_first = time.perf_counter()
    if not args.setup_only:
        for system, k in rows:
            out = io.StringIO()
            code, error = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(row_argv(args.command, system, k, args.cache_dir))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                error = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            results.append({"system": system, "k": k, "t0": t0, "t1": t1, "exit": code,
                            "error": error, "output": out.getvalue()})
    p_last = time.perf_counter()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "t_first_row": t_first,
        "window": [p_first, p_last],
        "rows": results,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if recorder is not None:
        Path(args.trace).write_text(json.dumps(recorder.dump()))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
