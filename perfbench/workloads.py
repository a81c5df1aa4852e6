"""The benchmark's workloads: CLI command lines made from a seed, and the
checks of each round's outputs against references made apart from the
package (reference.py) or against properties the method must have.

Seed 0 gives the canonical configurations. Other seeds shift the lambda
grid by a fraction of one step and pick three crossover temperatures from
the CLI's default 25-point list, one from each third.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

LAMBDA_RANGE = (0.8, 1.2)
LAMBDA_STEP = 0.002
WINDOW = 0.02

# Paper's shift exponents by anisotropy, and lambda_c^30 at gamma = 0.5.
# gamma = 1 (paper: -2.10) is not a workload command: its lambda_c^N jump
# with the phase of the lambda grid (lambda_c^20 = 0.991 at seed 0, 0.947 at
# seed 2), so alpha lands anywhere in -1.92...-3.06 depending on the seed.
PAPER_ALPHA = {0.1: -2.14, 0.5: -2.06}
ALPHA_TOL = 0.20
LAMBDA_C30 = 0.983
LAMBDA_C30_TOL = 0.004

CENTER_TOL = 0.01
PROBE_OFFSETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
PROBE_TOL = 1e-10

# The CLI's default crossover temperature list.
CROSSOVER_TS = [repr(float(t)) for t in np.linspace(1e-4, 5e-4, 25)]
CROSSOVER_TS_SEED0 = ("1e-4", "3e-4", "5e-4")
# Fresh samples per violation window. The CLI default (12 000) costs about
# 35 s per temperature on two cores; a round must stay well under a minute.
CROSSOVER_SAMPLES = 3000
DMZDT_SLOPE_RTOL = 0.005
RIDGE_GAP_TOL = 0.01


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list[tuple[str, list[str]]]]
    check: Callable[[Path, int], list[Check]]
    probes: bool = False


def lambda_flag(seed: int) -> str:
    """--lambda start:stop:step, shifted by a seeded fraction of one step."""
    phase = 0.0 if seed == 0 else random.Random(seed).random()
    a, b = (x + phase * LAMBDA_STEP for x in LAMBDA_RANGE)
    return f"{a!r}:{b!r}:{LAMBDA_STEP!r}"


def crossover_temperatures(seed: int) -> tuple[str, ...]:
    if seed == 0:
        return CROSSOVER_TS_SEED0
    rng = random.Random(seed)
    thirds = (range(0, 8), range(8, 17), range(17, 25))
    return tuple(CROSSOVER_TS[rng.choice(part)] for part in thirds)


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _line_slope(xs, ys) -> float:
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    dx = x - x.mean()
    return float((dx * (y - y.mean())).sum() / (dx * dx).sum())


# --- scale_finite -------------------------------------------------------------

SCALE_GAMMAS = tuple(PAPER_ALPHA)


def scale_commands(seed: int):
    lam = lambda_flag(seed)
    return [(f"gamma{g}", ["scale", "--gamma", repr(g), "--lambda", lam]) for g in SCALE_GAMMAS]


def scale_check(out: Path, seed: int) -> list[Check]:
    checks = []
    for g in SCALE_GAMMAS:
        d = out / f"gamma{g}"
        fit = json.loads((d / "scale_fit.json").read_text())
        pairs = [(int(n), float(v)) for n, v in _read_rows(d / "scale.csv")]
        alpha = fit["exponent"]
        checks.append(Check(
            f"alpha(gamma={g})", abs(alpha - PAPER_ALPHA[g]) <= ALPHA_TOL,
            f"{alpha:.4f} vs paper {PAPER_ALPHA[g]} +- {ALPHA_TOL}"))
        below = all(v < 1.0 for _, v in pairs)
        checks.append(Check(
            f"lambda_c^N < 1 (gamma={g})", below,
            ", ".join(f"{n}:{v:.5f}" for n, v in pairs)))
        # the exponent is the slope of ln(1 - lambda_c^N) against ln N
        if below:
            refit = _line_slope([math.log(n) for n, _ in pairs],
                                [math.log(1.0 - v) for _, v in pairs])
            checks.append(Check(
                f"alpha refit (gamma={g})", abs(refit - alpha) <= 1e-9 * abs(alpha),
                f"{refit!r} from scale.csv vs {alpha!r}"))
        if g == 0.5:
            lc30 = dict(pairs).get(30, math.nan)
            checks.append(Check(
                "lambda_c^30(gamma=0.5)", abs(lc30 - LAMBDA_C30) <= LAMBDA_C30_TOL,
                f"{lc30:.4f} vs {LAMBDA_C30} +- {LAMBDA_C30_TOL}"))
    return checks


# --- scan_mz_t0 / scan_czz_t0 ---------------------------------------------------

def scan_commands(observable: str):
    def commands(seed: int):
        return [("scan", ["scan", "--gamma", "1", "--observable", observable,
                          "--lambda", lambda_flag(seed)])]
    return commands


def scan_check(out: Path, seed: int) -> list[Check]:
    rows = [(float(a), float(b)) for a, b in _read_rows(out / "scan" / "scan.csv")]
    a, b = (float(x) for x in lambda_flag(seed).split(":")[:2])
    center = reference.steepest_center(
        [r[0] for r in rows], [r[1] for r in rows], (a, b), WINDOW)
    return [Check("steepest-slope centre", abs(center - 1.0) <= CENTER_TOL,
                  f"{center:.4f} vs lambda_c = 1 +- {CENTER_TOL}")]


def probe_lambdas() -> list[float]:
    return [1.0 + s * d for d in PROBE_OFFSETS for s in (-1.0, 1.0)]


def probe(package, lam: float, expected: dict[str, float]) -> Check:
    """Mz, Cxx, Cyy, Czz at gamma = 1, T = 0 from the package's public API
    against the independent references."""
    mz = package.mz_infinite(package.ModelParams(gamma=1.0, lam=lam))
    cxx, cyy, czz = package.diagonal_correlators(lam, 1.0)
    got = {"mz": mz, "cxx": cxx, "cyy": cyy, "czz": czz}
    err = {k: abs(got[k] - expected[k]) for k in expected}
    worst = max(err, key=err.get)
    return Check(f"probe lambda={lam!r}", err[worst] <= PROBE_TOL,
                 f"max |error| {err[worst]:.2e} ({worst}), tol {PROBE_TOL:g}")


# --- crossover_bvp ---------------------------------------------------------------

def crossover_commands(seed: int):
    return [("crossover", ["crossover", "--gamma", "1", "--quantity", "both",
                           "--t-list", ",".join(crossover_temperatures(seed)),
                           "--samples", str(CROSSOVER_SAMPLES)])]


def crossover_check(out: Path, seed: int) -> list[Check]:
    d = out / "crossover"
    lines = json.loads((d / "crossover_lines.json").read_text())
    target = reference.ridge_slope()
    checks = []
    ridges = {}
    for q in ("dmzdt", "bvp"):
        block = lines[q]
        pts = [(float(t), float(lam), br) for t, lam, br in _read_rows(d / f"crossover_{q}.csv")]
        ridges[q] = {(t, br): lam for t, lam, br in pts}
        for br in ("left", "right"):
            side = [(lam, t) for t, lam, b in pts if b == br]
            slope = block[br]["slope"]
            refit = _line_slope([p[0] for p in side], [p[1] for p in side])
            checks.append(Check(
                f"{q} {br} refit", abs(refit - slope) <= 1e-9 * abs(slope),
                f"{refit!r} from crossover_{q}.csv vs {slope!r}"))
        sl, sr = block["left"]["slope"], block["right"]["slope"]
        checks.append(Check(f"{q} warnings", not block["warnings"],
                            "; ".join(block["warnings"]) or "every extremum bracketed"))
        sides = all((lam < 1.0) == (br == "left") for _, lam, br in pts)
        detail = "left points below 1, right above"
        if q == "bvp":
            # At CROSSOVER_SAMPLES single violation-ridge points scatter by a
            # good part of the grid, so neither the paper's bands nor the
            # slope signs hold for every temperature triple: reported only.
            detail += f"; slopes {sl:+.4f}/{sr:+.4f} not checked (paper -0.546/+0.567)"
        checks.append(Check(f"{q} sides", sides, detail))
        if q == "dmzdt":
            ok = all(abs(s - want) <= DMZDT_SLOPE_RTOL * target
                     for s, want in ((sl, -target), (sr, target)))
            checks.append(Check(
                "dmzdt slopes", ok,
                f"{sl:+.4f}/{sr:+.4f} vs closed form -/+{target:.6f} (tol {DMZDT_SLOPE_RTOL:.1%})"))
    keys = set(ridges["dmzdt"]) & set(ridges["bvp"])
    gap = max(abs(ridges["bvp"][k] - ridges["dmzdt"][k]) / ridges["dmzdt"][k] for k in keys)
    checks.append(Check("ridge gap", len(keys) == 6 and gap <= RIDGE_GAP_TOL,
                        f"{gap:.3%} of lambda over {len(keys)} shared points (tol {RIDGE_GAP_TOL:.0%})"))
    return checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scale_finite", scale_commands, scale_check),
        Workload("scan_mz_t0", scan_commands("mz"), scan_check, probes=True),
        Workload("scan_czz_t0", scan_commands("czz"), scan_check, probes=True),
        Workload("crossover_bvp", crossover_commands, crossover_check),
    )
}


def digest(out: Path) -> str:
    """SHA-256 over the data files of one round (manifests carry a timestamp)."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name.endswith("_manifest.json"):
            continue
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
