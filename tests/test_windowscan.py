import math
import random
import threading
from dataclasses import replace

import numpy as np
import pytest

from benford_xy import cli, windowscan, xy_exact
from benford_xy.errors import ConfigurationError
from benford_xy.firstdigit import (
    ReferenceDistribution,
    histogram,
    rescale_unit,
    rising_counts,
    unit_histograms,
)
from benford_xy.violation import Metric, violations
from benford_xy.windowscan import (
    Observable,
    ScanConfig,
    WindowLattice,
    evaluate,
    scan,
    scan_chains,
    window_centers,
    window_histograms,
)


def small_config(**overrides):
    base = dict(
        observable=Observable.MZ,
        gamma=0.5,
        lambda_range=(0.9, 1.1),
        lambda_step=0.01,
        window_width=0.02,
        samples_per_window=200,
        n_sites=8,
    )
    base.update(overrides)
    return ScanConfig(**base)


class TestScanConfig:
    def test_defaults(self):
        c = ScanConfig(observable=Observable.MZ, gamma=1.0, lambda_range=(0.8, 1.2))
        assert c.lambda_step == 0.002
        assert c.window_width == 0.02
        assert c.samples_per_window == 10_000
        assert c.dist == ReferenceDistribution.benford()
        assert c.metric is Metric.MEAN_DEVIATION
        assert c.t_tilde == 0.0 and c.n_sites is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lambda_range": (1.2, 0.8)},
            {"lambda_range": (0.8, math.inf)},
            {"lambda_range": (0.8, 2e12), "lambda_step": 1e11, "window_width": 1e11},
            {"lambda_step": 0.0},
            {"window_width": 0.0},
            {"window_width": 0.5},
            {"samples_per_window": 1},
            {"t_tilde": -0.5},
            {"n_sites": 7},
            {"n_sites": 2},
            {"gamma": 0.0},
            {"lambda_step": math.inf},
            # lattices of more points than one numpy array can hold
            {"lambda_step": 1e-300},
            {"window_width": 1e-300},
            {"samples_per_window": 10**18},
            {"samples_per_window": 10**400},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigurationError):
            small_config(**overrides)

    def test_indexable_grid_accepted_unevaluated(self):
        # 2e14 windows: numpy can index them; only building them runs out of memory
        assert small_config(lambda_step=1e-15).lattice.stride == 1

    @pytest.mark.parametrize("t_tilde", [1e-320, 5e-324])
    def test_t_tilde_whose_reciprocal_overflows_rejected(self, t_tilde):
        # 1 / t_tilde is inf, which must not read as T = 0
        with pytest.raises(ConfigurationError, match="below which 1/t_tilde overflows"):
            small_config(t_tilde=t_tilde, n_sites=None)

    def test_correlator_config_rejected_when_built(self):
        # evaluate() takes a config without going through scan()
        with pytest.raises(ConfigurationError):
            ScanConfig(observable=Observable.CXX, gamma=1.0, lambda_range=(0.9, 1.1),
                       n_sites=8)

    @pytest.mark.parametrize("observable", [Observable.CXX, Observable.CYY, Observable.CZZ])
    def test_correlators_only_at_zero_temperature_infinite_chain(self, observable):
        with pytest.raises(ConfigurationError):
            scan(small_config(observable=observable))  # n_sites set
        with pytest.raises(ConfigurationError):
            scan(small_config(observable=observable, n_sites=None, t_tilde=0.01))


class TestWindowCenters:
    def test_standard_grid_has_201_points(self):
        c = ScanConfig(observable=Observable.MZ, gamma=1.0, lambda_range=(0.8, 1.2))
        centers = window_centers(c)
        assert centers.size == 201
        assert centers[0] == pytest.approx(0.8)
        assert centers[-1] == pytest.approx(1.2)

    def test_step_not_dividing_range_keeps_last_center_inside(self):
        c = small_config(lambda_range=(0.9, 1.1), lambda_step=0.03)
        centers = window_centers(c)
        assert centers[-1] <= 1.1 + 1e-12
        assert np.allclose(np.diff(centers), 0.03)


class TestWindowLattice:
    @pytest.mark.parametrize("rows", [1, 2])
    def test_range_without_points_gives_zero_counts_unevaluated(self, rows):
        def evaluate(x):
            raise AssertionError("evaluated a point outside [lo, hi)")

        # 21 windows of 200 points, 100 apart, cover lattice points 0..2199:
        # none of them lies in [500, 500) or [2200, 2300)
        lattice = WindowLattice(0.01, 0.02, 200)
        for lo, hi in [(500, 500), (2200, 2300)]:
            counts = lattice.histograms(21, evaluate, rows, lo, hi)
            assert counts.shape == (rows, 21, 9) and counts.dtype == np.int64
            assert not counts.any()

    def test_stride_spacing_and_span_at_the_defaults(self):
        lattice = WindowLattice(step=0.002, width=0.02, samples=10_000)
        assert lattice.stride == 1000
        assert lattice.spacing == pytest.approx(2e-6, rel=1e-12)
        assert lattice.span == pytest.approx(0.019998, rel=1e-12)

    def test_few_samples_give_narrower_windows(self):
        # fewer than width / (2 step) = 5 samples round to stride 0, which
        # becomes 1: 4 samples span 3 grid steps, not the 10 of the width
        lattice = WindowLattice(step=0.002, width=0.02, samples=4)
        assert lattice.stride == 1
        assert lattice.span == pytest.approx(0.006, rel=1e-12)

    # the lattice walk takes Czz; Mz at T = 0 is counted from its crossings
    # (TestRisingCounts)
    @staticmethod
    def windows(monkeypatch, config):
        """The lambda points of each window, in grid order, as the streamed
        scan hands them on (with the observable replaced by lambda itself)."""
        seen = []

        def spy(values, starts, stops):
            # copies: values is a buffer that the next batch refills
            seen.extend(values[s:e].copy() for s, e in zip(starts, stops))
            return np.zeros((len(starts), 9), dtype=np.int64)

        monkeypatch.setattr(windowscan, "evaluate", lambda config, lams: lams.copy())
        monkeypatch.setattr(windowscan, "unit_histograms", spy)
        mids, counts = window_histograms([config])
        assert mids.shape == (len(seen),) and counts.shape == (1, len(seen), 9)
        return seen

    def test_windows_are_symmetric_about_their_centers(self, monkeypatch):
        config = small_config(observable=Observable.CZZ, n_sites=None)
        h = config.lattice.spacing
        windows = self.windows(monkeypatch, config)
        centers = window_centers(config)
        interior = [(c, w) for c, w in zip(centers, windows) if w.size == 200]
        assert len(interior) == 19
        for c, w in interior:
            assert np.allclose(np.diff(w), h, rtol=1e-9, atol=0)
            assert np.allclose(w - c, (c - w)[::-1], rtol=0, atol=1e-12)
            assert w[-1] - w[0] == pytest.approx(199 * h, rel=1e-9)

    def test_clipped_windows_lie_inside_the_range(self, monkeypatch):
        # a grid whose ends fall between lattice points
        config = small_config(observable=Observable.CZZ, lambda_range=(0.90037, 1.10037),
                              n_sites=None)
        windows = self.windows(monkeypatch, config)
        a, b = config.lambda_range
        assert all(w.min() >= a and w.max() <= b for w in windows)
        # the end windows keep the half of their points inside the range
        assert windows[0].size == windows[-1].size == 100

    def test_each_lattice_point_evaluated_once(self, monkeypatch):
        config = small_config(observable=Observable.CZZ, n_sites=None)
        evaluated = []
        monkeypatch.setattr(
            windowscan, "evaluate", lambda config, lams: evaluated.append(lams) or lams
        )
        window_histograms([config])
        points = np.concatenate(evaluated)
        # 0.2 / 1e-4 lattice points lie inside the range, none twice, and no
        # call holds more than one window of them
        assert points.size == np.unique(points).size == 2000
        assert all(lams.size <= config.lattice.samples for lams in evaluated)

    def test_points_between_windows_are_not_evaluated(self, monkeypatch):
        # 100 samples a window, 1e-5 apart, on a grid 2e-3 apart: stride 200,
        # so half the lattice points fall in no window
        config = small_config(observable=Observable.CZZ, window_width=0.001,
                              samples_per_window=100, lambda_step=0.002, n_sites=None)
        assert config.lattice.stride == 200
        evaluated = []
        monkeypatch.setattr(
            windowscan, "evaluate", lambda config, lams: evaluated.append(lams) or lams
        )
        window_histograms([config])
        assert sum(lams.size for lams in evaluated) == 99 * 100 + 2 * 50
        assert all(lams.size <= 100 for lams in evaluated)

    @pytest.mark.parametrize(
        "lattice, count, lo, hi",
        [
            (WindowLattice(0.01, 0.02, 200), 21, 0, None),
            # stride 200 > 100 samples: windows leave gaps
            (WindowLattice(0.002, 0.001, 100), 30, 0, None),
            # the end windows keep half their points
            (WindowLattice(0.01, 0.02, 200), 21, 100, 2100),
        ],
        ids=["overlapping", "gapped", "clipped"],
    )
    def test_two_rows_equal_one_row_walks(self, lattice, count, lo, hi):
        observables = (lambda x: np.cos(40.0 * x), lambda x: np.exp(3.0 * x) - x * x)
        calls = []

        def both(x):
            calls.append(x.size)
            return np.stack([f(x) for f in observables])

        rows = lattice.histograms(count, both, 2, lo, hi)
        assert rows.shape == (2, count, 9)
        assert max(calls) <= lattice.samples
        for row, f in zip(rows, observables):
            assert row.any(axis=1).all()
            assert np.array_equal(row, lattice.histograms(count, f, 1, lo, hi)[0])


class TestScan:
    def test_midpoints_increasing_and_edges_clipped(self):
        r = scan(small_config())
        mids = r.lambdas
        assert np.all(np.diff(mids) > 0)
        # edge windows are clipped to the scan range, shifting their midpoint
        assert mids[0] == pytest.approx(0.9 + 0.02 / 4)
        assert mids[-1] == pytest.approx(1.1 - 0.02 / 4)
        interior = mids[(mids > 0.91) & (mids < 1.09)]
        assert np.allclose(interior, np.round(interior / 0.01) * 0.01)

    def test_deltas_finite_and_nonnegative(self):
        r = scan(small_config())
        d = r.deltas
        assert np.all(np.isfinite(d)) and np.all(d >= 0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--gamma", "0.5", "--n-sites", "8", "--lambda", "0.9:1.1:0.01"],
            ["scale", "--gamma", "0.5", "--lambda", "0.9:1.06:0.005", "--n-list", "20,24,30"],
        ],
        ids=["scan", "scale"],
    )
    def test_any_worker_count_evaluates_on_the_calling_thread(self, tmp_path, monkeypatch, argv):
        threads = set()
        evaluate = windowscan.evaluate

        def spy(config, lams):
            threads.add(threading.get_ident())
            return evaluate(config, lams)

        monkeypatch.setattr(windowscan, "evaluate", spy)
        argv = argv + ["--samples", "200", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert threads == {threading.get_ident()}

    def test_scale_kernel_calls_do_not_depend_on_the_chain_count(self, tmp_path, monkeypatch):
        # thermal chains share one walk of the lattice
        mode_sum = xy_exact.mz_finite_many
        calls = []

        def spy(lams, *args):
            calls.append(lams.size)
            return mode_sum(lams, *args)

        monkeypatch.setattr(xy_exact, "mz_finite_many", spy)
        argv = ["scale", "--gamma", "0.5", "--lambda", "0.9:1.06:0.005", "--samples", "200",
                "--t", "1e-3"]
        counts = []
        for i, chains in enumerate(["20,24,30", "20,24,28,30,34,40"]):
            calls.clear()
            assert cli.main(argv + ["--n-list", chains, "--out", str(tmp_path / str(i))]) == 0
            counts.append(len(calls))
            assert max(calls) <= 200
        assert counts[0] == counts[1] > 0

    def test_flat_observable_marks_windows_degenerate(self, monkeypatch):
        monkeypatch.setattr(
            windowscan, "evaluate", lambda config, lams: np.zeros_like(lams)
        )
        r = scan(small_config(observable=Observable.CZZ, n_sites=None))
        assert r.lambdas.size == r.deltas.size == 0
        assert len(r.degenerate_windows) == 21

    def test_windows_flat_below_one_are_degenerate(self, monkeypatch):
        # the observable max(lambda, 1) is flat in every window that lies
        # wholly at lambda <= 1, and rises in every other one
        monkeypatch.setattr(windowscan, "evaluate", lambda config, lams: np.maximum(lams, 1.0))
        config = small_config(observable=Observable.CZZ, n_sites=None)
        lattice, (a, b), half = config.lattice, config.lambda_range, config.window_width / 2
        flat, scored = [], []
        for i, c in enumerate(window_centers(config)):
            lams = a + lattice.at(i * lattice.stride + np.arange(lattice.samples))
            lams = lams[(lams >= a) & (lams <= b)]
            mid = 0.5 * (max(a, c - half) + min(b, c + half))
            (flat if lams.max() <= 1.0 else scored).append(mid)
        r = scan(config)
        assert len(flat) == 10 and len(scored) == 11
        assert r.lambdas.dtype == r.deltas.dtype == r.degenerate_windows.dtype == np.float64
        assert r.degenerate_windows.tolist() == flat
        assert r.lambdas.tolist() == scored
        assert np.all(np.isfinite(r.deltas)) and np.all(r.deltas >= 0)

    def test_windows_that_do_not_overlap_match_per_window_evaluation(self):
        # scan --window 0.001 --samples 100 at the default range and step:
        # stride 200 lattice points, of which each window holds the first 100
        config = ScanConfig(
            observable=Observable.MZ, gamma=1.0, lambda_range=(0.8, 1.2),
            window_width=0.001, samples_per_window=100,
        )
        lattice = config.lattice
        a, b = config.lambda_range
        result = scan(config)
        assert result.degenerate_windows.size == 0
        assert result.deltas.size == window_centers(config).size == 201
        for i, delta in enumerate(result.deltas):
            lams = a + lattice.at(i * lattice.stride + np.arange(lattice.samples))
            values = windowscan.evaluate([config], lams[(lams >= a) & (lams <= b)])
            counts = histogram(rescale_unit(values))
            assert delta == violations(counts, config.dist, config.metric)[0]

    def test_correlator_scan_runs(self):
        for observable in (Observable.CXX, Observable.CYY, Observable.CZZ):
            r = scan(small_config(observable=observable, n_sites=None))
            assert r.deltas.size == 21
            assert np.all(r.deltas >= 0)

    # the rows of mz_and_correlators_many are Mz, G(-1) = Cxx and G(+1) = Cyy
    @pytest.mark.parametrize("observable, row", [(Observable.CXX, 1), (Observable.CYY, 2)])
    def test_correlator_windows_are_their_row_of_the_kernel(self, observable, row):
        config = small_config(observable=observable, n_sites=None)
        lams = config.lambda_range[0] + config.lattice.at(np.arange(config.lattice.samples))
        want = xy_exact.mz_and_correlators_many(lams, config.gamma)[row]
        assert np.array_equal(windowscan.evaluate([config], lams), want)

    def test_thermal_scan_runs(self):
        r = scan(small_config(t_tilde=0.02, n_sites=None, samples_per_window=50))
        assert r.deltas.size == 21

    def test_doubling_samples_changes_deltas_below_one_percent(self):
        base = ScanConfig(
            observable=Observable.MZ,
            gamma=0.5,
            lambda_range=(0.9, 1.06),
            lambda_step=0.005,
            samples_per_window=10_000,
            n_sites=30,
        )
        doubled = ScanConfig(
            observable=Observable.MZ,
            gamma=0.5,
            lambda_range=(0.9, 1.06),
            lambda_step=0.005,
            samples_per_window=20_000,
            n_sites=30,
        )
        d1 = scan(base).deltas
        d2 = scan(doubled).deltas
        assert np.max(np.abs(d2 - d1) / d1) < 0.01


class TestScanChains:
    @pytest.mark.parametrize(
        "lattice",
        [{}, {"window_width": 0.001, "samples_per_window": 2000}],
        ids=["default", "gapped"],
    )
    def test_each_chain_has_the_bits_of_its_own_scan(self, lattice):
        n_list = cli.build_parser().parse_args(["scale"]).n_list
        base = ScanConfig(Observable.MZ, 0.5, (0.8, 1.2), n_sites=n_list[0], **lattice)
        # stride 4000 lattice points, of which each gapped window holds the first 2000
        assert base.lattice.stride == (1000 if not lattice else 4000)
        results = scan_chains(base, n_list)
        assert len(results) == len(n_list) == 6
        for n, got in zip(n_list, results):
            config = replace(base, n_sites=n)
            want = scan(config)
            assert got.config == config
            for name in ("lambdas", "deltas", "degenerate_windows"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()
            assert got.deltas.size == 201

    def test_infinite_lattice_config_takes_the_chain_lengths(self):
        # the chains replace the config's n_sites, whatever it was
        base = ScanConfig(Observable.MZ, 0.5, (0.9, 1.1), lambda_step=0.01, samples_per_window=200)
        got = scan_chains(base, [8, 12])
        assert [r.config for r in got] == [replace(base, n_sites=n) for n in (8, 12)]

    @pytest.mark.parametrize("n_list", [[], [14, None]], ids=["empty", "none"])
    def test_missing_chain_length_rejected(self, n_list):
        base = ScanConfig(Observable.MZ, 0.5, (0.8, 1.2), n_sites=14)
        with pytest.raises(ConfigurationError, match="one or more chain lengths, not None"):
            scan_chains(base, n_list)

    @pytest.mark.parametrize("n_list", [[14, 15], [2]], ids=["odd", "short"])
    def test_chain_lengths_checked_as_any_config(self, n_list):
        base = ScanConfig(Observable.MZ, 0.5, (0.8, 1.2), n_sites=14)
        with pytest.raises(ConfigurationError, match="n_sites must be an even integer"):
            scan_chains(base, n_list)

    def test_correlator_has_no_chains(self):
        base = ScanConfig(Observable.CXX, 0.5, (0.8, 1.2))
        with pytest.raises(ConfigurationError, match="requires the infinite lattice"):
            scan_chains(base, [14, 20])


def _shifted_grid(seed):
    """The benchmark's --lambda at a seed: the default range shifted by a
    seeded fraction of one step."""
    phase = 0.0 if seed == 0 else random.Random(seed).random()
    return (0.8 + phase * 0.002, 1.2 + phase * 0.002)


def _walked(configs):
    """Each config's counts from one walk of the whole lattice, and the
    values the walk evaluated, as (rows x points) in lattice order."""
    config = configs[0]
    a, b = config.lambda_range
    lattice = config.lattice
    count = window_centers(config).size
    lams = a + lattice.at(np.arange((count - 1) * lattice.stride + lattice.samples))
    inside = np.flatnonzero((lams >= a) & (lams <= b))
    seen = []

    def walk(x):
        # (rows x points); the lattice's kernel gives points alone
        seen.append(np.atleast_2d(evaluate(configs, a + x)))
        return seen[-1]

    counts = lattice.histograms(count, walk, len(configs), inside[0], inside[-1] + 1)
    return counts, np.concatenate(seen, axis=1)


_N_LIST = (14, 20, 24, 30, 34, 40)


class TestRisingCounts:
    """Mz at T = 0, of a chain or of the infinite lattice, that is proved to
    rise is counted from its threshold crossings; its counts must equal the
    lattice walk's, bit for bit, and the proof must hold on the values the
    walk evaluates."""

    @pytest.mark.parametrize(
        "gamma, grid, n_list",
        [(g, {"lambda_range": _shifted_grid(seed)}, _N_LIST)
         for seed in range(10) for g in (0.1, 0.5, 1.0)]
        + [
            (0.5, {"window_width": 0.001, "samples_per_window": 2000}, _N_LIST),
            (0.5, {"lambda_range": (0.80037, 1.20037)}, _N_LIST),
            (0.5, {"samples_per_window": 200}, _N_LIST),
            (0.5, {"samples_per_window": 1000}, _N_LIST),
            (0.5, {"samples_per_window": 2500}, _N_LIST),
            (0.5, {"samples_per_window": 40_000}, _N_LIST),
            (0.5, {"lambda_range": (-1.2, -0.8)}, _N_LIST),
            (0.5, {"lambda_range": (-0.2, 0.2)}, _N_LIST),
            (2.0, {}, (4, 6, 40)),
            (1e-3, {}, _N_LIST),
        ]
        # the infinite lattice
        + [(g, {"lambda_range": _shifted_grid(seed)}, (None,))
           for seed in range(10) for g in (0.1, 0.5, 1.0)]
        + [
            (1.0, {"window_width": 0.001, "samples_per_window": 2000}, (None,)),
            (1.0, {"lambda_range": (0.80037, 1.20037)}, (None,)),
            (1.0, {"samples_per_window": 200}, (None,)),
            (1.0, {"samples_per_window": 1000}, (None,)),
            (1.0, {"samples_per_window": 2500}, (None,)),
            (1.0, {"samples_per_window": 40_000}, (None,)),
            (0.5, {"lambda_range": (-1.2, -0.8)}, (None,)),
            (0.5, {"lambda_range": (-0.2, 0.2)}, (None,)),
            (0.5, {"lambda_range": (-3.0, -2.6)}, (None,)),
            (0.5, {"lambda_range": (-1.1, 1.1), "lambda_step": 0.01}, (None,)),
            (2.0, {}, (None,)),
            (-0.5, {}, (None,)),
            (1e-2, {}, (None,)),
        ],
        ids=[f"seed{seed}-gamma{g}" for seed in range(10) for g in (0.1, 0.5, 1.0)]
        + ["gapped", "ends-between-points", "samples200", "samples1000", "samples2500",
           "samples40000", "negative-lambda", "zero-lambda", "gamma2", "gamma1e-3"]
        + [f"lattice-seed{seed}-gamma{g}" for seed in range(10) for g in (0.1, 0.5, 1.0)]
        + [f"lattice-{name}" for name in
           ["gapped", "ends-between-points", "samples200", "samples1000", "samples2500",
            "samples40000", "through-minus-one", "through-zero", "below-zero", "through-all",
            "gamma2", "gamma-0.5", "gamma0.01"]],
    )
    def test_crossing_counts_equal_the_lattice_walk(self, monkeypatch, gamma, grid, n_list):
        base = ScanConfig(Observable.MZ, gamma, **{"lambda_range": (0.8, 1.2), **grid})
        configs = [replace(base, n_sites=n) for n in n_list]
        a, b, h = *base.lambda_range, base.lattice.spacing
        assert all(xy_exact.mz_rises(a, b, h, gamma, n_sites=n) for n in n_list)
        walks = []
        monkeypatch.setattr(windowscan, "unit_histograms",
                            lambda *args: walks.append(1) or unit_histograms(*args))
        mids, got = window_histograms(configs)
        assert walks == []
        monkeypatch.undo()
        want, values = _walked(configs)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
        # the proof holds on the values themselves
        assert (np.diff(values, axis=1) > 0).all()

    @staticmethod
    def kernel_calls(monkeypatch, configs):
        """window_histograms(configs) and the (chains, lambda count) of each
        kernel call it made."""
        calls = []
        kernel = xy_exact.mz_finite_many

        def spy(lams, gamma, chains, t_tilde=0.0):
            calls.append((tuple(chains), np.size(lams)))
            return kernel(lams, gamma, chains, t_tilde)

        monkeypatch.setattr(xy_exact, "mz_finite_many", spy)
        counts = window_histograms(configs)[1]
        monkeypatch.undo()
        return counts, calls

    def test_unproved_chain_takes_the_lattice_walk(self, monkeypatch):
        # at gamma = 1e-6 the slope of Mz_14 is below its rounding on the
        # default grid: every lattice point is evaluated, one window a call
        config = ScanConfig(Observable.MZ, 1e-6, (0.8, 1.2), n_sites=14)
        assert not xy_exact.mz_rises(0.8, 1.2, config.lattice.spacing, 1e-6, n_sites=14)
        got, calls = self.kernel_calls(monkeypatch, [config])
        assert sum(size for _, size in calls) == 200_000
        assert max(size for _, size in calls) <= 10_000
        assert got.tobytes() == _walked([config])[0].tobytes()

    def test_each_chain_takes_its_own_path(self, monkeypatch):
        # at gamma = 4e-5 Mz_14 is proved to rise on the default grid, Mz_40 is not
        base = ScanConfig(Observable.MZ, 4e-5, (0.8, 1.2))
        spacing = base.lattice.spacing
        assert xy_exact.mz_rises(0.8, 1.2, spacing, 4e-5, n_sites=14)
        assert not xy_exact.mz_rises(0.8, 1.2, spacing, 4e-5, n_sites=40)
        configs = [replace(base, n_sites=n) for n in (14, 40)]
        got, calls = self.kernel_calls(monkeypatch, configs)
        assert {chains for chains, _ in calls} == {(14,), (40,)}
        assert sum(size for chains, size in calls if chains == (40,)) == 200_000
        assert sum(size for chains, size in calls if chains == (14,)) < 50_000
        want = [_walked([c])[0][0] for c in configs]
        assert got.tobytes() == np.stack(want).tobytes()

    @staticmethod
    def paths(monkeypatch, config):
        """window_histograms([config])'s counts, and whether it took the
        crossings and the walk."""
        rising, walks = [], []
        monkeypatch.setattr(windowscan, "rising_counts",
                            lambda *args: rising.append(1) or rising_counts(*args))
        monkeypatch.setattr(windowscan, "unit_histograms",
                            lambda *args: walks.append(1) or unit_histograms(*args))
        counts = window_histograms([config])[1]
        monkeypatch.undo()
        return counts, bool(rising), bool(walks)

    @pytest.mark.parametrize(
        "config",
        [
            ScanConfig(Observable.CZZ, 1.0, (0.8, 1.2)),
            ScanConfig(Observable.MZ, 0.5, (0.9, 1.1), lambda_step=0.01, samples_per_window=200,
                       t_tilde=1e-3),
        ],
        ids=["czz", "thermal"],
    )
    def test_correlator_and_thermal_lattice_take_the_walk(self, monkeypatch, config):
        assert self.paths(monkeypatch, config)[1:] == (False, True)

    @pytest.mark.parametrize("n_sites", [None, 20])
    def test_coarse_lattice_takes_the_walk(self, monkeypatch, n_sites):
        # --lambda 0.8:1.2:0.0001 puts 50 lattice points in a grid step, fewer
        # than min(200, samples // 10): the walk is the faster path there,
        # though the proof holds
        config = ScanConfig(Observable.MZ, 1.0, (0.8, 1.2), lambda_step=1e-4, n_sites=n_sites)
        assert config.lattice.stride == 50
        assert xy_exact.mz_rises(0.8, 1.2, config.lattice.spacing, 1.0)
        assert xy_exact.mz_rises(0.8, 1.2, config.lattice.spacing, 1.0, n_sites=20)
        assert self.paths(monkeypatch, config)[1:] == (False, True)

    @pytest.mark.parametrize("step, stride, crossings",
                             [(2e-4, 2, False), (2e-3, 20, True)])
    def test_stride_rule_at_few_samples(self, monkeypatch, step, stride, crossings):
        # 200 samples: the crossings from 200 // 10 = 20 points a grid step
        config = ScanConfig(Observable.MZ, 1.0, (0.8, 1.2), lambda_step=step,
                            samples_per_window=200)
        assert config.lattice.stride == stride
        counts, rising, walked = self.paths(monkeypatch, config)
        assert (rising, walked) == (crossings, not crossings)
        assert counts.tobytes() == _walked([config])[0].tobytes()

    def test_thermal_chain_takes_the_lattice_walk(self, tmp_path, monkeypatch):
        rising, walks = [], []
        monkeypatch.setattr(windowscan, "rising_counts", lambda *args: rising.append(1))
        monkeypatch.setattr(windowscan, "unit_histograms",
                            lambda *args: walks.append(1) or unit_histograms(*args))
        argv = ["scan", "--gamma", "0.5", "--n-sites", "8", "--t", "1e-3",
                "--lambda", "0.9:1.1:0.01", "--samples", "200", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert walks and rising == []
