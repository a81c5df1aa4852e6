"""Command-line frontend.

Subcommands: digits (first-digit report for a CSV column or a generator),
scan (violation curve over lambda), scale (finite-size transition estimates
and the shift-exponent fit), crossover (finite-temperature ridge lines).

Every run writes a JSON manifest naming the command, the fully resolved
configuration, the tool version, a timestamp, and every output file, so a
run can be reproduced from its manifest alone. Bulk data goes to CSV by
default (or JSON with --format json); floats are written with repr, which
round-trips exactly.

Exit codes: 0 success, 2 degenerate data, 3 configuration/input error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import enum
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, criticality
from .errors import (
    BenfordXYError,
    ConfigurationError,
    DegenerateWindowError,
    EmptyHistogramError,
    NoTransitionError,
)
from .firstdigit import DistKind, ReferenceDistribution, histogram, probabilities
from .violation import Metric, violations
from .windowscan import Observable, ScanConfig, scan, scan_chains

OUTPUT_DIR_ENV = "BENFORD_XY_OUT"

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

_DEGENERATE_ERRORS = (DegenerateWindowError, EmptyHistogramError)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # degenerate data and uses 3 for configuration problems
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# Flag types. argparse applies them to the flag text and to string defaults,
# and reports an ArgumentTypeError as a usage error naming the flag.

def _lambda_range(text: str) -> tuple[float, float, float]:
    try:
        a, b, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects start:stop:step, got {text!r}") from None
    return a, b, step


def _positive(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"expects a positive finite number, got {text!r}")
    return x


def _t_tilde(text: str) -> float:
    """Reduced temperature; 'zero' is exactly T = 0."""
    return 0.0 if text == "zero" else _positive(text)


def _n_sites(text: str) -> int | None:
    if text.lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer or 'none', got {text!r}") from None


def _nonnegative_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expects an integer >= 0, got {text!r}")
    return n


def _comma_list(convert, what: str):
    def parse(text: str) -> list:
        try:
            values = [convert(p) for p in text.split(",") if p.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"expects comma-separated {what}, got {text!r}")
        return values

    return parse


def _n_list(text: str) -> list[int]:
    """Chain lengths for scale: at least 3, distinct, each even and >= 4."""
    sizes = _comma_list(int, "integers")(text)
    if len(sizes) < 3 or len(set(sizes)) < len(sizes) or any(n < 4 or n % 2 for n in sizes):
        raise argparse.ArgumentTypeError(
            f"expects at least 3 distinct even integers >= 4, got {text!r}")
    return sizes


def _dist(text: str) -> ReferenceDistribution:
    """Reference law: benford, uniform, or poisson:KAPPA."""
    name, colon, kappa = text.partition(":")
    try:
        return ReferenceDistribution(DistKind(name), _positive(kappa) if colon else None)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects benford, uniform or poisson:KAPPA, got {text!r}") from None
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _json_default(value):
    """json.dumps hook for the values the json module does not know."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, ReferenceDistribution):
        # the --dist spelling, kappa in repr, which reproduces the law
        return value.kind.value + ("" if value.kappa is None else f":{value.kappa!r}")
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _finish(args, config: dict, tables: dict, blocks: dict) -> None:
    """Write the command's outputs and its manifest, then name them on stdout.

    tables maps a file stem to (header, rows), written in --format; blocks
    maps a file name to a JSON value. The manifest's config is the resolved
    flags overlaid with config, the values the command derived from them;
    its outputs name the files in write order, tables first.
    """
    outdir = Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    if tables and args.format == "json":
        blocks = {
            f"{stem}.json": [dict(zip(header, row)) for row in rows]
            for stem, (header, rows) in tables.items()
        } | blocks
        tables = {}
    outputs = []
    for stem, (header, rows) in tables.items():
        outputs.append(f"{stem}.csv")
        with open(outdir / outputs[-1], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    for name, block in blocks.items():
        outputs.append(name)
        (outdir / name).write_text(json.dumps(block, indent=2, default=_json_default) + "\n")
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    manifest = {
        "command": args.command,
        "config": flags | config,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    path = outdir / f"{args.command}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=_json_default) + "\n")
    print(f"wrote {', '.join(str(outdir / o) for o in outputs)} and {path}")


_GENERATOR_RE = re.compile(r"^logmantissa:(\d+)$")


def _load_values(spec: str, seed: int) -> np.ndarray:
    """CSV column (first column; its first row that is not blank may be a
    header) or a generator spec; a cell that is not a finite number is
    rejected with its file and line.

    logmantissa:N draws N values 10^u with u uniform on [0, 1); their first
    digits follow the Benford law exactly in distribution.
    """
    m = _GENERATOR_RE.match(spec)
    if m:
        rng = np.random.default_rng(seed)
        return 10.0 ** rng.random(int(m.group(1)))
    values, first = [], 0
    try:
        # utf-8-sig: a byte-order mark would otherwise glue onto the first cell
        with open(spec, newline="", encoding="utf-8-sig") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or not row[0].strip():
                    continue
                cell, first = row[0].strip(), first or lineno
                try:
                    value = float(cell)
                except ValueError:
                    if lineno == first:
                        continue  # the first row that is not blank: a header
                    raise ConfigurationError(
                        f"{spec}:{lineno}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ConfigurationError(f"{spec}:{lineno}: not a finite number: {cell!r}")
                values.append(value)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {spec}: {exc}") from exc
    if not values:
        raise ConfigurationError(f"{spec}: no numeric data found")
    return np.asarray(values)


def cmd_digits(args) -> int:
    values = _load_values(args.input, args.seed)
    if values.size < 10:
        raise ConfigurationError(f"need at least 10 values, got {values.size}")
    if values.size and np.all(values == values.flat[0]):
        raise DegenerateWindowError("input column is constant")
    counts = histogram(values)
    total = int(counts.sum())
    skipped = values.size - total
    probs = probabilities(args.dist)
    scores = {metric.value: float(violations(counts, args.dist, metric)[0]) for metric in Metric}
    report = {
        "input": args.input,
        "values": int(values.size),
        "counts": counts.tolist(),
        "total": total,
        "skipped": skipped,
        "distribution": args.dist.label(),
        "probabilities": probs,
        "violations": scores,
    }
    freq = counts / total
    print(f"digits of {values.size} values ({skipped} skipped):")
    print("digit  count  observed  expected")
    for d in range(9):
        print(f"    {d + 1}  {counts[d]:>5}  {freq[d]:8.5f}  {probs[d]:8.5f}")
    for name, value in scores.items():
        print(f"{name}: {value!r}")
    _finish(args, {}, {}, {"digits_report.json": report})
    return EXIT_OK


def _scan_config(args, observable: Observable, n_sites: int | None) -> ScanConfig:
    a, b, step = args.lambda_range
    return ScanConfig(
        observable=observable,
        gamma=args.gamma,
        lambda_range=(a, b),
        lambda_step=step,
        window_width=args.window,
        samples_per_window=args.samples,
        dist=args.dist,
        metric=Metric(args.metric),
        t_tilde=args.t,
        n_sites=n_sites,
    )


def _config_echo(config: ScanConfig) -> dict:
    """The scan settings in the library's terms, where they differ from the flags."""
    return {
        "lambda_range": list(config.lambda_range),
        "lambda_step": config.lambda_step,
        "window_width": config.window_width,
        "samples_per_window": config.samples_per_window,
        "t_tilde": config.t_tilde,
        "lattice_stride": config.lattice.stride,
        "lattice_spacing": config.lattice.spacing,
        "window_span": config.lattice.span,
    }


def cmd_scan(args) -> int:
    config = _scan_config(args, Observable(args.observable), args.n_sites)
    result = scan(config)
    print(f"scan: {result.lambdas.size} points, {result.degenerate_windows.size} degenerate")
    _finish(
        args,
        _config_echo(config) | {"degenerate_windows": result.degenerate_windows},
        {"scan": (["lambda_mid", "delta"],
                  np.column_stack((result.lambdas, result.deltas)).tolist())},
        {},
    )
    return EXIT_OK


def cmd_scale(args) -> int:
    # built as a finite chain: the infinite lattice at T = 0 rejects a gamma the chains take
    config = _scan_config(args, Observable.MZ, args.n_list[0])
    estimates = []
    for result in scan_chains(config, args.n_list):
        try:
            fit_range = criticality.auto_fit_range(
                result, fit_half=args.fit_half, smooth_half=args.smooth_half
            )
            estimates.append(criticality.locate_transition(result, fit_range))
        except (NoTransitionError, ConfigurationError) as exc:
            raise NoTransitionError(f"n_sites={result.config.n_sites}: {exc}") from exc
    lambda_c_n = [e.lambda_c_n for e in estimates]
    fit = criticality.scaling_exponent(args.n_list, lambda_c_n)
    # the locator the law picked; either derivative extremum reads "derivative"
    minimum = estimates[0].signature is criticality.Signature.MINIMUM
    signature = "minimum" if minimum else "derivative"
    fit_block = dataclasses.asdict(fit) | {
        "lambda_c": criticality.LAMBDA_C,
        "signature": signature,
        "estimates": [
            {
                "n_sites": n,
                "lambda_c_n": e.lambda_c_n,
                "signature": e.signature,
                "fit_range": list(e.fit_range),
                "fit_rms_residual": e.fit.rms_residual,
            }
            for n, e in zip(args.n_list, estimates)
        ],
    }
    print(f"scale: exponent = {fit.exponent!r}, prefactor = {fit.prefactor!r}")
    _finish(
        args,
        _config_echo(config) | {"signature": signature},
        {"scale": (["n_sites", "lambda_c_n"], zip(args.n_list, lambda_c_n))},
        {"scale_fit.json": fit_block},
    )
    return EXIT_OK


def cmd_crossover(args) -> int:
    quantities = (
        [criticality.CrossoverQuantity(args.quantity)]
        if args.quantity != "both"
        else list(criticality.CrossoverQuantity)
    )
    tables, lines_block = {}, {}
    for quantity in quantities:
        lines = criticality.crossover_lines(
            quantity,
            args.gamma,
            args.t_list,
            span=args.span,
            step=args.step,
            window_ratio=args.window_ratio,
            samples=args.samples,
            dist=args.dist,
            metric=Metric(args.metric),
        )
        tables[f"crossover_{quantity.value}"] = (
            ["t_tilde", "lambda", "branch"],
            [(t, lam, branch)
             for t, lams in zip(lines.t_tilde.tolist(), lines.ridge.T.tolist())
             for branch, lam in zip(criticality.BRANCHES, lams) if not math.isnan(lam)],
        )
        lines_block[quantity.value] = {
            "left": dataclasses.asdict(lines.left),
            "right": dataclasses.asdict(lines.right),
            "warnings": list(lines.warnings),
        }
        print(
            f"crossover {quantity.value}: left slope {lines.left.slope!r}, "
            f"right slope {lines.right.slope!r}"
        )
    _finish(args, {}, tables, {"crossover_lines.json": lines_block})
    return EXIT_OK


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help=f"output directory (or ${OUTPUT_DIR_ENV})")


def _add_dist_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", type=_dist, default="benford",
                   help="reference law: benford, uniform or poisson:KAPPA")


def _add_window_scoring_flags(p: argparse.ArgumentParser) -> None:
    """Flags of the commands that score windows with one metric and write tables."""
    _add_dist_flag(p)
    p.add_argument("--metric", choices=[m.value for m in Metric], default="mean")
    _add_out_flag(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv", help="table format")


def _add_scan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--t", type=_t_tilde, default="zero", help="reduced temperature or 'zero'")
    p.add_argument("--lambda", dest="lambda_range", type=_lambda_range,
                   default=f"0.8:1.2:{ScanConfig.lambda_step!r}", help="start:stop:step")
    p.add_argument("--window", type=float, default=ScanConfig.window_width,
                   help="window width in lambda")
    p.add_argument("--samples", type=int, default=ScanConfig.samples_per_window,
                   help="samples per window")
    _add_window_scoring_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="benford-xy", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digits", help="first-digit report for a data column")
    p.add_argument("input", help="CSV path or generator spec like logmantissa:10000")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="generator seed")
    _add_dist_flag(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_digits)

    p = sub.add_parser("scan", help="violation curve over a lambda range")
    p.add_argument("--observable", choices=[o.value for o in Observable], default="mz")
    p.add_argument("--n-sites", type=_n_sites, default="none",
                   help="even chain length or 'none'")
    _add_scan_flags(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("scale", help="finite-size transitions of Mz and shift exponent")
    _add_scan_flags(p)
    p.add_argument("--n-list", type=_n_list, default="14,20,24,30,34,40",
                   help="comma-separated chain lengths: at least 3, distinct, even, >= 4")
    p.add_argument("--fit-half", type=_positive, default=criticality.FIT_HALF_WIDTH)
    p.add_argument("--smooth-half", type=_positive, default=criticality.SMOOTH_HALF_WIDTH)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("crossover", help="finite-temperature crossover lines")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument(
        "--t-list",
        type=_comma_list(_positive, "positive numbers"),
        default=",".join(repr(float(t)) for t in np.linspace(1e-4, 5e-4, 25)),
        help="comma-separated reduced temperatures",
    )
    p.add_argument(
        "--quantity",
        choices=["both"] + [q.value for q in criticality.CrossoverQuantity],
        default="both",
    )
    p.add_argument("--span", type=_positive, default=criticality.RIDGE_SPAN,
                   help="lambda grid half-width in units of t")
    p.add_argument("--step", type=_positive, default=criticality.RIDGE_STEP,
                   help="lambda grid step in units of t")
    p.add_argument("--window-ratio", type=_positive, default=criticality.RIDGE_WINDOW_RATIO,
                   help="violation window width in units of t")
    p.add_argument("--samples", type=int, default=criticality.RIDGE_SAMPLES)
    _add_window_scoring_flags(p)
    p.set_defaults(func=cmd_crossover)

    return parser


def _fix_heap_thresholds() -> None:
    """Keep what one kernel call frees on glibc's heap for the next call,
    instead of trimming it and faulting it in again: mmap threshold 1 MiB
    (above the 480 KB rows of a scale walk), then trim threshold 64 MiB,
    which alone would freeze the mmap threshold at 128 KB. Needs glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
    if mallopt(-3, 1 << 20) == 1:
        mallopt(-1, 64 << 20)


def main(argv=None) -> int:
    _fix_heap_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DEGENERATE_ERRORS as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ConfigurationError, MemoryError) as exc:
        # a grid or window too large to allocate is a configuration problem
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BenfordXYError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
