"""Benchmark of the benford-xy CLI, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan_mz_t0 --seed 0 --seconds 10 --trace 0

Workloads are listed in workloads.py and described in perfbench/README.md.
A run times set-up (fresh interpreters importing benford_xy.cli) and runs
whole rounds of the workload's CLI commands, each command in a fresh
worker.py process, until --seconds have passed. Every round's outputs are
checked against reference.py and against properties the method must have;
the scan workloads also probe the package's T = 0 observables next to
lambda = 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
setup_s, wall_s, cpu_s and peak_rss_mb (medians over rounds where a run has
several); with --trace 1 they are the per-layer metrics of tracing.py, per
traced round, and the tracing overhead against the run's untraced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is timed this many times, half before the rounds and half after,
# so that one run samples the machine's load over its whole length.
SETUP_REPEATS = 10
# Every run ends within 180 s: no round starts that could end past
# ROUND_DEADLINE_S, and a command still running at KILL_AFTER_S is stopped.
ROUND_DEADLINE_S = 140.0
KILL_AFTER_S = 165.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"self_s": "s", "cells_per_s": "1/s", "values_per_s": "1/s",
                   "overhead_pct": "%"}
T0 = time.perf_counter()


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(repeats: int) -> list[float]:
    """Times for a fresh interpreter to import benford_xy.cli."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import benford_xy.cli"],
                       cwd=ROOT, env=_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_command(argv: list[str], out: Path, result: Path, traced: bool, k: int) -> dict:
    """One CLI command of round k in a fresh worker process."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--trace", str(int(traced)),
           "--result", str(result), "--round", str(k), "--", *argv, "--out", str(out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, KILL_AFTER_S - (time.perf_counter() - T0)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: run exceeded its time limit")
    if rc != 0:
        raise SystemExit(f"perfbench: worker exited with {rc}")
    return json.loads(result.read_text())


def run_round(commands, out: Path, k: int, traced: bool) -> dict:
    """All of a workload's commands once, as round k; times add up, memory
    is the peak."""
    rec = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "traced": traced,
           "failed_commands": [], "layers": {}}
    (out / f"round{k}").mkdir(parents=True)
    for label, argv in commands:
        r = run_command(argv, out / f"round{k}" / label, out / f"round{k}.{label}.json",
                        traced, k)
        rec["wall_s"] += r["wall_s"]
        rec["cpu_s"] += r["cpu_s"]
        rec["peak_rss_mb"] = max(rec["peak_rss_mb"], r["peak_rss_mb"])
        if r["rc"] != 0:
            rec["failed_commands"].append(label)
        for name, v in r.get("layers", {}).items():
            rec["layers"][name] = rec["layers"].get(name, 0.0) + v
    return rec


def run_rounds(commands, out: Path, seconds: float, trace: bool) -> list[dict]:
    """Whole rounds until `seconds` have passed.

    A traced run starts with an untraced warm-up round (a run's first
    round tends to be its slowest, traced or not) and then alternates traced
    and untraced rounds, so the overhead compares like with like.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        rec = run_round(commands, out, k, traced=trace and k % 2 == 1)
        rec["warmup"] = trace and k == 0
        rounds.append(rec)
        if trace and k < 2:
            continue
        now = time.perf_counter()
        longest = max(r["wall_s"] for r in rounds)
        if now - start >= seconds or now - T0 + 1.5 * longest > ROUND_DEADLINE_S:
            return rounds


def layer_metrics(rounds: list[dict]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not (r["traced"] or r["warmup"])]
    keys = traced[0]["layers"]
    totals = {k: statistics.median(r["layers"][k] for r in traced) for k in keys}
    out = tracing.with_rates(totals)
    base = statistics.median(r["wall_s"] for r in untraced)
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(r["wall_s"] for r in traced) / base - 1.0)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "benford_xy" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'benford_xy'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import benford_xy

    if SRC.resolve() not in Path(benford_xy.__file__).resolve().parents:
        print(f"perfbench: benford_xy imported from {benford_xy.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out = OUT / args.workload
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)

    setup = [] if args.trace else measure_setup(SETUP_REPEATS // 2)
    commands = workload.commands(args.seed)
    rounds = run_rounds(commands, out, args.seconds, bool(args.trace))
    if not args.trace:
        setup += measure_setup(SETUP_REPEATS - len(setup))

    attempted = failed = 0
    correct = True
    report = []
    expected = ({lam: workloads.reference.ising_observables(lam)
                 for lam in workloads.probe_lambdas()} if workload.probes else {})
    digests = []
    for k, rec in enumerate(rounds):
        round_dir = out / f"round{k}"
        attempted += len(commands)
        failed += len(rec["failed_commands"])
        if not rec["failed_commands"]:
            try:
                checks = workload.check(round_dir, args.seed)
            except (OSError, LookupError, ValueError) as exc:
                checks = [workloads.Check("outputs readable", False, repr(exc))]
            digests.append(workloads.digest(round_dir))
            correct &= all(c.ok for c in checks)
            if k == 0:
                report += checks
        for lam, exp in expected.items():
            c = workloads.probe(benford_xy, lam, exp)
            attempted += 1
            failed += not c.ok
            if k == 0:
                report.append(c)

    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} round(s)")
    for c in report:
        print(f"  {'PASS' if c.ok else 'FAIL'}  {c.name}: {c.detail}")
    if digests:
        same = "" if len(set(digests)) == 1 else " (rounds differ!)"
        print(f"  sha256 of data files: {digests[0]}{same}")

    if args.trace:
        metrics = {
            name: {"value": v, "unit": PER_LAYER_UNITS.get(name.split(".", 1)[1], "count")}
            for name, v in layer_metrics(rounds).items()
        }
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    print(f"  attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
