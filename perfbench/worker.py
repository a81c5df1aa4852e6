"""One CLI command in a fresh process, timed from call to return.

Started by run.py, once per command of a round, so that every command pays
what a user's `benford-xy` invocation pays after start-up (first-touch page
faults, allocator growth). Imports benford_xy.cli from the checkout's src/,
optionally wraps the package with tracing.instrument(), runs cli.main on the
arguments after `--`, and writes wall and CPU time, peak RSS, the exit code
and (when traced) the per-layer totals to the --result file.

    python3 perfbench/worker.py --trace 0 --result r.json -- scan --gamma 1 --out d
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--round", type=int, default=0, help="run id recorded in every span")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(SRC))
    import benford_xy
    from benford_xy import cli

    if SRC.resolve() not in Path(benford_xy.__file__).resolve().parents:
        print(f"benford_xy imported from {benford_xy.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.instrument()
        tracer.run = args.round

    wall0, cpu0 = time.perf_counter(), _cpu_s()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0

    result = {"rc": rc, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = tracing.layer_totals(tracer.spans)
        tracer.dump(args.result.with_suffix(".spans.jsonl"))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
