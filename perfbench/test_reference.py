"""Fast tests of the benchmark's references and bookkeeping; no benford_xy."""

import math

import numpy as np
import pytest

import reference
import tracing
import workloads


def test_elliptic_integrals_known_values():
    assert reference.ellipk_ellipe(0.0) == pytest.approx((math.pi / 2, math.pi / 2), abs=1e-16)
    k, e = reference.ellipk_ellipe(0.5)
    assert k == pytest.approx(1.8540746773013719, abs=4e-16)
    assert e == pytest.approx(1.3506438810476755, abs=4e-16)
    k, e = reference.ellipk_ellipe(0.99)
    assert k == pytest.approx(3.6956373629898747, abs=2e-15)
    assert e == pytest.approx(1.0159935450252239, abs=4e-16)


def test_critical_point_values():
    # at lam = 1: Mz = 2/pi, G(-1) = -2/pi, G(+1) = 2/(3 pi)
    assert reference.ising_mz(1.0) == 2.0 / math.pi
    mz, g_minus, g_plus = reference.ising_quadrature(1.0)
    assert mz == pytest.approx(2.0 / math.pi, abs=1e-15)
    assert g_minus == pytest.approx(-2.0 / math.pi, abs=1e-15)
    assert g_plus == pytest.approx(2.0 / (3.0 * math.pi), abs=1e-15)


@pytest.mark.parametrize("lam", [0.5, 0.9, 1 - 1e-5, 1 + 1e-5, 1 - 1e-2, 1.1, 2.0])
def test_closed_forms_match_graded_quadrature(lam):
    mz, g_minus, _ = reference.ising_quadrature(lam)
    assert abs(reference.ising_mz(lam) - mz) < 2e-15
    assert abs(reference.ising_g_minus(lam) - g_minus) < 2e-15


def test_paramagnetic_limit():
    # deep in the paramagnet the chain is polarised along the field
    obs = reference.ising_observables(1e4)
    assert obs["mz"] == pytest.approx(1.0, abs=1e-8)
    assert abs(obs["cxx"]) < 1e-4 and abs(obs["cyy"]) < 1e-4


def test_ridge_slope():
    assert reference.ridge_v_star() == pytest.approx(0.8412585, abs=1e-7)
    assert reference.ridge_slope() == pytest.approx(0.594348, abs=1e-6)


def test_steepest_center_finds_the_step():
    lams = np.arange(0.8, 1.2 + 1e-9, 0.002)
    deltas = np.tanh((lams - 1.004) / 0.01)
    assert reference.steepest_center(lams, deltas, (0.8, 1.2), 0.02) == pytest.approx(1.004)


def test_seed_zero_is_the_canonical_configuration():
    assert workloads.lambda_flag(0) == "0.8:1.2:0.002"
    assert workloads.crossover_temperatures(0) == ("1e-4", "3e-4", "5e-4")


@pytest.mark.parametrize("seed", [1, 2, 3, 17])
def test_other_seeds(seed):
    a, b, step = (float(x) for x in workloads.lambda_flag(seed).split(":"))
    assert 0.8 < a < 0.802 and b - a == pytest.approx(0.4) and step == 0.002
    ts = workloads.crossover_temperatures(seed)
    idx = [workloads.CROSSOVER_TS.index(t) for t in ts]
    assert idx[0] < 8 <= idx[1] < 17 <= idx[2]
    assert ts == workloads.crossover_temperatures(seed)


def test_self_time_subtracts_other_layers():
    s = tracing.Span
    spans = [
        s(0, "windowscan", "scan", None, 0, 0.0, 10.0),
        s(1, "xy_exact", "mz_infinite_many", 0, 0, 1.0, 7.0, samples=100, nodes=256),
        s(2, "numerics", "gauss_nodes", 1, 0, 1.0, 2.0, nodes=256),
        s(3, "firstdigit", "histogram", 0, 0, 7.0, 9.0, values=100),
        s(4, "firstdigit", "digits_of", 3, 0, 7.5, 8.5, values=100),
    ]
    m = tracing.with_rates(tracing.layer_totals(spans))
    assert m["windowscan.self_s"] == pytest.approx(2.0)
    assert m["xy_exact.self_s"] == pytest.approx(5.0)
    assert m["numerics.self_s"] == pytest.approx(1.0)
    assert m["firstdigit.self_s"] == pytest.approx(2.0)
    # nested spans of one layer count once
    assert m["firstdigit.values"] == 100
    assert m["xy_exact.cells"] == 25600
    assert m["numerics.nodes"] == 256
    assert m["xy_exact.cells_per_s"] == pytest.approx(25600 / 5.0)
