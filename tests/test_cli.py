import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benford_xy import cli, xy_exact
from benford_xy.windowscan import Observable, ScanConfig


def run_cli(argv):
    return cli.main(argv)


def write_csv(path, rows, header=None):
    lines = ([header] if header else []) + [str(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestDigits:
    def test_log_mantissa_generator_matches_benford(self, tmp_path, capsys):
        code = run_cli(["digits", "logmantissa:20000", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "digits_report.json").read_text())
        assert report["total"] == 20000
        assert report["violations"]["mean"] < 0.3
        manifest = json.loads((tmp_path / "digits_manifest.json").read_text())
        assert manifest["command"] == "digits"
        assert "digits_report.json" in manifest["outputs"]
        assert "digit  count  observed  expected" in capsys.readouterr().out

    def test_seed_changes_sample(self, tmp_path):
        run_cli(["digits", "logmantissa:500", "--out", str(tmp_path / "a")])
        run_cli(["digits", "logmantissa:500", "--seed", "1", "--out", str(tmp_path / "b")])
        ra = json.loads((tmp_path / "a" / "digits_report.json").read_text())
        rb = json.loads((tmp_path / "b" / "digits_report.json").read_text())
        assert ra["counts"] != rb["counts"]

    def test_csv_column_with_header(self, tmp_path):
        src = write_csv(tmp_path / "in.csv", [1.0] * 100 + [2.5] * 50, header="value")
        code = run_cli(["digits", src, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "digits_report.json").read_text())
        assert report["counts"][0] == 100 and report["counts"][1] == 50

    # the header is the first row that is not blank, wherever it falls
    @pytest.mark.parametrize("lead", ["", "\n", "\n  \n,x\n"],
                             ids=["line1", "after_blank_line", "after_blank_cells"])
    def test_header_counts_as_no_row(self, tmp_path, lead):
        values = [1.0] * 100 + [2.5] * 50 + [7.0] * 3
        reports = []
        for name, text in [("plain", ""), ("headed", lead + "value\n")]:
            src = tmp_path / f"{name}.csv"
            src.write_text(text + "\n".join(map(str, values)) + "\n")
            assert run_cli(["digits", str(src), "--out", str(tmp_path / name)]) == 0
            reports.append(json.loads((tmp_path / name / "digits_report.json").read_text()))
        assert reports[0]["counts"] == reports[1]["counts"] == [100, 50, 0, 0, 0, 0, 3, 0, 0]
        assert reports[0]["values"] == reports[1]["values"] == 153

    # a byte-order mark once glued onto the first cell, which then read as a
    # header and was dropped
    @pytest.mark.parametrize("header", ["", "value\n"], ids=["bare", "headed"])
    def test_byte_order_mark_counts_every_value(self, tmp_path, header):
        values = [1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 12.0]
        text = header + "\n".join(map(str, values)) + "\n"
        reports = []
        for name, bom in [("plain", b""), ("bom", b"\xef\xbb\xbf")]:
            src = tmp_path / f"{name}.csv"
            src.write_bytes(bom + text.encode())
            assert run_cli(["digits", str(src), "--out", str(tmp_path / name)]) == 0
            reports.append(json.loads((tmp_path / name / "digits_report.json").read_text()))
        assert reports[0]["counts"] == reports[1]["counts"] == [2, 1, 1, 1, 1, 1, 1, 1, 1]
        assert reports[0]["values"] == reports[1]["values"] == 10

    # bytes that are not UTF-8 once escaped main as a UnicodeDecodeError
    def test_file_that_is_not_utf8_is_configuration_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_bytes("temp\xe9rature\n".encode("latin-1") + b"1\n2\n3\n4\n5\n6\n7\n8\n9\n12\n")
        out = tmp_path / "out"
        assert run_cli(["digits", str(src), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read {src}: ") and "Traceback" not in err
        assert not out.exists()

    def test_header_alone_is_no_data(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("\nvalue\n\n")
        out = tmp_path / "out"
        assert run_cli(["digits", str(src), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"configuration error: {src}: no numeric data found\n"
        assert not out.exists()

    def test_uniform_digit_column_scores_against_benford(self, tmp_path):
        values = [float(d) for d in range(1, 10)] * 100
        src = write_csv(tmp_path / "in.csv", values)
        assert run_cli(["digits", src, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "digits_report.json").read_text())
        assert report["violations"]["mean"] == pytest.approx(5.836457, abs=1e-5)

    def test_constant_column_is_degenerate(self, tmp_path, capsys):
        src = write_csv(tmp_path / "in.csv", [7.0] * 64)
        assert run_cli(["digits", src, "--out", str(tmp_path)]) == 2

    def test_bad_cell_names_line(self, tmp_path, capsys):
        src = write_csv(tmp_path / "in.csv", [1.0, 2.0, "oops", 4.0], header="v")
        assert run_cli(["digits", src, "--out", str(tmp_path)]) == 3
        assert ":4: not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_nonfinite_cell_names_line(self, tmp_path, capsys, token):
        src = write_csv(tmp_path / "in.csv", [1.0, 2.0, token] + [4.0] * 20, header="v")
        assert run_cli(["digits", src, "--out", str(tmp_path)]) == 3
        assert f":4: not a finite number: '{token}'" in capsys.readouterr().err

    def test_subnormal_values_counted(self, tmp_path):
        src = write_csv(tmp_path / "in.csv", ["5e-324", "1e-320"] + [2.0] * 20)
        assert run_cli(["digits", src, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "digits_report.json").read_text())
        assert report["counts"] == [0, 20, 0, 1, 0, 0, 0, 0, 1]  # 4.94e-324, 9.99989e-321

    def test_exact_zeros_are_skipped(self, tmp_path, capsys):
        values = [0.0, 3.5, -0.0, 12.0, 0.0, 7.25] + [1.5] * 10 + [0.0] * 4
        src = write_csv(tmp_path / "in.csv", values)
        assert run_cli(["digits", src, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "digits_report.json").read_text())
        assert report["values"] == 20
        assert report["skipped"] == 7
        assert report["total"] == 20 - 7 == sum(report["counts"])
        assert report["counts"] == [11, 0, 1, 0, 0, 0, 1, 0, 0]
        assert "digits of 20 values (7 skipped):" in capsys.readouterr().out

    def test_too_few_values(self, tmp_path):
        src = write_csv(tmp_path / "in.csv", [1.0, 2.0, 3.0])
        assert run_cli(["digits", src, "--out", str(tmp_path)]) == 3

    def test_missing_file(self, tmp_path):
        assert run_cli(["digits", str(tmp_path / "no.csv"), "--out", str(tmp_path)]) == 3

    def test_poisson_requires_kappa(self, tmp_path, capsys):
        assert run_cli(["digits", "logmantissa:100", "--dist", "poisson",
                        "--out", str(tmp_path)]) == 3
        assert "argument --dist: poisson reference requires" in capsys.readouterr().err

    def test_kappa_only_for_poisson(self, tmp_path, capsys):
        assert run_cli(["digits", "logmantissa:100", "--dist", "benford:5",
                        "--out", str(tmp_path)]) == 3
        assert "argument --dist: kappa is only meaningful" in capsys.readouterr().err

    def test_unknown_law(self, tmp_path, capsys):
        assert run_cli(["digits", "logmantissa:100", "--dist", "normal",
                        "--out", str(tmp_path)]) == 3
        assert "argument --dist: expects benford, uniform or poisson:KAPPA" in (
            capsys.readouterr().err)

    def test_poisson_report(self, tmp_path):
        code = run_cli(["digits", "logmantissa:200", "--dist", "poisson:5",
                        "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "digits_report.json").read_text())
        assert report["distribution"] == "poisson(kappa=5)"

    @pytest.mark.parametrize("kappa", ["inf", "nan"])
    def test_infinite_kappa_is_configuration_error(self, tmp_path, capsys, kappa):
        assert run_cli(["digits", "logmantissa:1000", "--dist", f"poisson:{kappa}",
                        "--out", str(tmp_path)]) == 3
        assert "argument --dist: expects a positive finite number" in capsys.readouterr().err

    # a digit probability of 0.0 made every mean deviation inf, with exit 0
    @pytest.mark.parametrize("kappa", ["1e-300", "1e300"])
    @pytest.mark.parametrize("command", [["digits", "logmantissa:1000"],
                                         ["scan", "--gamma", "1"], ["scale"]],
                             ids=["digits", "scan", "scale"])
    def test_kappa_whose_digit_probabilities_underflow(self, tmp_path, capsys, command, kappa):
        out = tmp_path / "out"
        assert run_cli(command + ["--dist", f"poisson:{kappa}", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "argument --dist" in err and "probability below 1e-300" in err
        assert not out.exists()

    def test_manifest_law_reproduces_the_run(self, tmp_path):
        # the manifest spells the law as the flag, kappa in repr
        assert run_cli(["digits", "logmantissa:500", "--dist", "poisson:5.123456789",
                        "--out", str(tmp_path / "a")]) == 0
        dist = json.loads((tmp_path / "a" / "digits_manifest.json").read_text())["config"]["dist"]
        assert dist == "poisson:5.123456789"
        assert run_cli(["digits", "logmantissa:500", "--dist", dist,
                        "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "digits_report.json").read_bytes() == (
            tmp_path / "b" / "digits_report.json").read_bytes()

    def test_output_dir_env_honoured(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "env_out"))
        assert run_cli(["digits", "logmantissa:100"]) == 0
        assert (tmp_path / "env_out" / "digits_report.json").exists()


SCAN_ARGS = [
    "scan", "--gamma", "0.5", "--n-sites", "8", "--lambda", "0.9:1.1:0.01",
    "--samples", "200",
]


class TestScan:
    def test_writes_curve_and_manifest(self, tmp_path):
        assert run_cli(SCAN_ARGS + ["--out", str(tmp_path)]) == 0
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "lambda_mid,delta"
        assert len(lines) == 22
        mid, delta = lines[1].split(",")
        assert float(mid) == pytest.approx(0.905)
        assert float(delta) >= 0
        manifest = json.loads((tmp_path / "scan_manifest.json").read_text())
        assert manifest["config"]["observable"] == "mz"
        assert manifest["config"]["n_sites"] == 8
        assert manifest["config"]["degenerate_windows"] == []
        assert manifest["outputs"] == ["scan.csv"]
        assert manifest["tool_version"]

    def test_reruns_are_byte_identical(self, tmp_path):
        run_cli(SCAN_ARGS + ["--out", str(tmp_path / "a")])
        run_cli(SCAN_ARGS + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "scan.csv").read_bytes() == (
            tmp_path / "b" / "scan.csv"
        ).read_bytes()

    def test_manifest_records_the_lattice(self, tmp_path):
        assert run_cli(SCAN_ARGS + ["--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "scan_manifest.json").read_text())["config"]
        assert config["lattice_stride"] == 100
        assert config["lattice_spacing"] == pytest.approx(1e-4, rel=1e-12)
        assert config["window_span"] == pytest.approx(0.0199, rel=1e-12)
        assert config["window_width"] == 0.02

    @pytest.mark.parametrize(
        "flags",
        [
            ["--gamma", "1", "--lambda", "0.9:1.1:0.01", "--samples", "200"],
            ["--gamma", "0.5", "--n-sites", "8", "--lambda", "0.9:1.1:0.01", "--samples", "200"],
            ["--gamma", "1", "--t", "0.01", "--lambda", "0.9:1.1:0.01", "--samples", "200"],
        ],
        ids=["t0", "finite_n", "thermal"],
    )
    def test_rerun_does_not_change_bytes(self, tmp_path, flags):
        csvs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert run_cli(["scan", *flags, "--out", str(out)]) == 0
            csvs.append((out / "scan.csv").read_bytes())
        assert len(csvs[0].splitlines()) == 22
        assert csvs[0] == csvs[1]

    def test_json_format(self, tmp_path):
        assert run_cli(SCAN_ARGS + ["--format", "json", "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "scan.json").read_text())
        assert len(rows) == 21
        assert set(rows[0]) == {"lambda_mid", "delta"}

    def test_correlator_at_finite_temperature_rejected(self, tmp_path):
        code = run_cli(["scan", "--observable", "cxx", "--t", "1e-4",
                        "--lambda", "0.9:1.1:0.01", "--samples", "100",
                        "--out", str(tmp_path)])
        assert code == 3

    def test_correlator_on_finite_chain_rejected(self, tmp_path):
        code = run_cli(["scan", "--observable", "cxx", "--n-sites", "8",
                        "--lambda", "0.9:1.1:0.01", "--samples", "100",
                        "--out", str(tmp_path)])
        assert code == 3

    def test_malformed_lambda_range(self, tmp_path):
        assert run_cli(["scan", "--lambda", "0.9:1.1", "--out", str(tmp_path)]) == 3

    def test_negative_lambda_range_needs_the_equals_form(self, tmp_path, capsys):
        # argparse takes "-1.2:..." after a space for a flag
        assert run_cli(["scan", "--lambda", "-1.2:-0.8:0.002", "--out", str(tmp_path)]) == 3
        assert "expected one argument" in capsys.readouterr().err
        assert run_cli(["scan", "--lambda=-1.2:-0.8:0.002", "--out", str(tmp_path)]) == 0
        points = np.loadtxt(tmp_path / "scan.csv", delimiter=",", skiprows=1)
        assert points.shape == (201, 2)
        config = json.loads((tmp_path / "scan_manifest.json").read_text())["config"]
        assert config["lambda_range"] == [-1.2, -0.8]
        # the transition at lambda = -1: the curve's steepest step
        steepest = np.argmax(np.abs(np.diff(points[:, 1])))
        assert points[steepest, 0] == pytest.approx(-1.0, abs=0.01)

    def test_negative_temperature(self, tmp_path):
        assert run_cli(SCAN_ARGS + ["--t", "-3", "--out", str(tmp_path)]) == 3

    # 1 / 1e-320 is inf, which must not read as T = 0: a correlator scan at
    # this nonzero temperature is refused too
    @pytest.mark.parametrize("observable", ["mz", "czz"])
    def test_temperature_whose_reciprocal_overflows(self, tmp_path, capsys, observable):
        out = tmp_path / "out"
        code = run_cli(["scan", "--observable", observable, "--t", "1e-320",
                        "--lambda", "0.9:1.1:0.01", "--samples", "100", "--out", str(out)])
        assert code == 3 and not out.exists()
        assert "below which 1/t_tilde overflows" in capsys.readouterr().err

    def test_manifest_temperature_is_the_flag(self, tmp_path):
        # 1 / (1 / t) is not t for this t
        t = "1.1666666666666667e-4"
        assert run_cli(["scan", "--t", t, "--lambda", "0.99:1.01:0.01", "--samples", "100",
                        "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "scan_manifest.json").read_text())["config"]
        assert config["t_tilde"] == float(t)

    # the T = 0 kernel takes |gamma| >= 1e-30; the finite chain and T > 0 do not need it
    @pytest.mark.parametrize(
        "flags, code",
        [([], 3), (["--n-sites", "8"], 0), (["--t", "1e-3"], 0)],
        ids=["t0", "finite_n", "thermal"],
    )
    def test_least_anisotropy(self, tmp_path, capsys, flags, code):
        out = tmp_path / "out"
        argv = ["scan", "--gamma", "1e-31", "--lambda", "0.9:1.1:0.01", "--samples", "200"]
        assert run_cli(argv + flags + ["--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert capsys.readouterr().err.startswith("configuration error: ")

    # the T = 0 kernel takes |gamma| <= 1e20; the finite chain and T > 0 take more
    @pytest.mark.parametrize(
        "flags, code",
        [([], 3), (["--observable", "cxx"], 3), (["--n-sites", "8"], 0), (["--t", "1e-3"], 0)],
        ids=["t0", "cxx", "finite_n", "thermal"],
    )
    def test_largest_anisotropy(self, tmp_path, capsys, flags, code):
        out = tmp_path / "out"
        argv = ["scan", "--gamma", "1e30", "--lambda", "0.9:1.1:0.01", "--samples", "200"]
        assert run_cli(argv + flags + ["--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "needs |gamma| >= 1e-30 and <= 1e+20" in capsys.readouterr().err

    # no path takes a gamma whose square overflows
    @pytest.mark.parametrize("flags", [[], ["--n-sites", "8"], ["--t", "1e-3"]],
                             ids=["t0", "finite_n", "thermal"])
    def test_anisotropy_whose_square_overflows(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        argv = ["scan", "--gamma", "1e200", "--lambda", "0.9:1.1:0.01", "--samples", "200"]
        assert run_cli(argv + flags + ["--out", str(out)]) == 3
        assert not out.exists()
        assert "|gamma| <= 1e+150" in capsys.readouterr().err

    # a lambda past 1e12 is rejected before any kernel call: from 2**44 a
    # float step of lambda is wider than a thermal bin, and at 1e200 every
    # kernel overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", [[], ["--n-sites", "14"]], ids=["lattice", "chain"])
    def test_lambda_past_the_bound(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        argv = ["scan", "--gamma", "1", "--lambda", "1e200:1.2e200:2e197", "--window", "1e198",
                "--samples", "200"]
        assert run_cli(argv + flags + ["--out", str(out)]) == 3
        assert not out.exists()
        assert "|lambda| <= 1e+12" in capsys.readouterr().err

    def test_defaults_are_scan_configs(self):
        for command in ("scan", "scale"):
            args = cli.build_parser().parse_args([command])
            assert cli._scan_config(args, Observable.MZ, None) == ScanConfig(
                Observable.MZ, 1.0, (0.8, 1.2))

    def test_odd_n_sites(self, tmp_path):
        assert run_cli(["scan", "--n-sites", "9", "--lambda", "0.9:1.1:0.01",
                        "--samples", "100", "--out", str(tmp_path)]) == 3

    def test_unknown_flag(self, tmp_path, capsys):
        assert run_cli(SCAN_ARGS + ["--bogus", "1"]) == 3

    def test_missing_subcommand(self, capsys):
        assert run_cli([]) == 3


SCALE_ARGS = [
    "scale", "--gamma", "0.5", "--lambda", "0.9:1.06:0.005", "--samples", "4000",
    "--n-list", "20,24,30",
]


class TestScale:
    def test_fit_outputs(self, tmp_path):
        assert run_cli(SCALE_ARGS + ["--out", str(tmp_path)]) == 0
        lines = (tmp_path / "scale.csv").read_text().splitlines()
        assert lines[0] == "n_sites,lambda_c_n"
        assert len(lines) == 4
        assert [int(l.split(",")[0]) for l in lines[1:]] == [20, 24, 30]
        fit = json.loads((tmp_path / "scale_fit.json").read_text())
        assert fit["exponent"] < 0
        assert fit["prefactor"] < 0
        assert fit["signature"].startswith("derivative")
        assert list(fit) == ["exponent", "prefactor", "intercept", "rms_residual",
                             "lambda_c", "signature", "estimates"]
        assert [e["n_sites"] for e in fit["estimates"]] == [20, 24, 30]
        assert all(e["lambda_c_n"] < 1.0 for e in fit["estimates"])
        # the exponent is the slope of ln(1 - lambda_c^N) against ln N
        pairs = [(int(n), float(v)) for n, v in (l.split(",") for l in lines[1:])]
        slope = np.polyfit([math.log(n) for n, _ in pairs],
                           [math.log(1.0 - v) for _, v in pairs], 1)[0]
        assert fit["exponent"] == pytest.approx(slope, rel=1e-9)

    def test_reruns_are_byte_identical(self, tmp_path):
        run_cli(SCALE_ARGS + ["--out", str(tmp_path / "a")])
        run_cli(SCALE_ARGS + ["--out", str(tmp_path / "b")])
        for name in ("scale.csv", "scale_fit.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    # the law picks the locator: the uniform law's dip, every other law's
    # steepness flip, here a maximum of the derivative on each chain
    @pytest.mark.parametrize("dist, label, found", [
        ("benford", "derivative", "derivative-max"),
        ("uniform", "minimum", "minimum"),
        ("poisson:5", "derivative", "derivative-max"),
    ])
    def test_signature_follows_dist(self, tmp_path, dist, label, found):
        code = run_cli(SCALE_ARGS + ["--dist", dist, "--out", str(tmp_path)])
        assert code == 0
        fit = json.loads((tmp_path / "scale_fit.json").read_text())
        assert fit["signature"] == label
        assert [e["signature"] for e in fit["estimates"]] == [found] * 3
        manifest = json.loads((tmp_path / "scale_manifest.json").read_text())
        assert manifest["config"]["signature"] == label

    def test_wrong_side_range_fails_numerically(self, tmp_path, capsys):
        # scanning above the transition puts every estimate on the wrong side
        code = run_cli(["scale", "--gamma", "0.5", "--lambda", "1.2:1.36:0.005",
                        "--samples", "2000", "--n-list", "20,24,30",
                        "--out", str(tmp_path)])
        assert code == 4
        assert "lambda_c_n >= lambda_c" in capsys.readouterr().err

    def test_failed_location_names_chain_length(self, tmp_path, capsys):
        # too few interior windows to centre a fit range on
        code = run_cli(["scale", "--gamma", "0.5", "--lambda", "0.99:1.02:0.01",
                        "--samples", "200", "--n-list", "20,24,30",
                        "--out", str(tmp_path)])
        assert code == 4
        assert "n_sites=20" in capsys.readouterr().err

    def test_empty_n_list(self, tmp_path):
        assert run_cli(SCALE_ARGS[:-1] + [",", "--out", str(tmp_path)]) == 3


class TestCrossover:
    def test_dmzdt_quick(self, tmp_path):
        code = run_cli([
            "crossover", "--quantity", "dmzdt", "--t-list", "1e-4,2e-4,5e-4",
            "--span", "3", "--step", "0.05", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "crossover_dmzdt.csv").read_text().splitlines()
        assert lines[0] == "t_tilde,lambda,branch"
        assert len(lines) == 7
        block = json.loads((tmp_path / "crossover_lines.json").read_text())
        assert block["dmzdt"]["left"]["slope"] == pytest.approx(-0.594, abs=0.05)
        assert block["dmzdt"]["right"]["slope"] == pytest.approx(+0.594, abs=0.05)
        manifest = json.loads((tmp_path / "crossover_manifest.json").read_text())
        assert manifest["config"]["t_list"] == [1e-4, 2e-4, 5e-4]

    # at t_tilde = 0.05 and 0.1 the left extremum lies beyond the grid's
    # span of 1.75 t_tilde: the writers leave those two points out
    def test_partly_bracketed_ridge_omits_and_warns(self, tmp_path):
        flags = ["crossover", "--quantity", "dmzdt", "--span", "1.75",
                 "--t-list", "1e-4,1e-3,1e-2,0.05,0.1"]
        assert run_cli(flags + ["--out", str(tmp_path / "c")]) == 0
        assert run_cli(flags + ["--format", "json", "--out", str(tmp_path / "j")]) == 0
        with open(tmp_path / "c" / "crossover_dmzdt.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["t_tilde", "lambda", "branch"]
        assert [(t, b) for t, _, b in rows] == [
            (t, b) for t in ("0.0001", "0.001", "0.01") for b in ("left", "right")
        ] + [("0.05", "right"), ("0.1", "right")]
        records = json.loads((tmp_path / "j" / "crossover_dmzdt.json").read_text())
        assert [[repr(r["t_tilde"]), repr(r["lambda"]), r["branch"]] for r in records] == rows
        for out in ("c", "j"):
            block = json.loads((tmp_path / out / "crossover_lines.json").read_text())["dmzdt"]
            assert block["warnings"] == [
                "t_tilde=0.05: left extremum not bracketed; point omitted",
                "t_tilde=0.1: left extremum not bracketed; point omitted",
            ]
            assert math.isfinite(block["left"]["slope"])

    def test_two_temperatures_fail_numerically(self, tmp_path, capsys):
        code = run_cli([
            "crossover", "--quantity", "dmzdt", "--t-list", "1e-4,2e-4",
            "--span", "3", "--step", "0.05", "--out", str(tmp_path),
        ])
        assert code == 4

    # a ridge grid with no centre on one side of lambda = 1 once exited 1
    # with a ValueError from nanargmax / nanargmin
    @pytest.mark.parametrize("flags", [["--quantity", "dmzdt", "--step", "10"],
                                       ["--span", "0.01", "--step", "0.025"]], ids=" ".join)
    def test_side_without_centres_fails_numerically(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        code = run_cli(["crossover", "--t-list", "1e-4,2e-4,3e-4", "--out", str(out)] + flags)
        err = capsys.readouterr().err
        assert code == 4 and not out.exists()
        assert err.startswith("numerical failure:") and "Traceback" not in err

    def test_flat_bvp_window_exits_degenerate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(xy_exact, "mz_infinite_many",
                            lambda lams, gamma, t_tilde: np.full(np.size(lams), 0.3))
        out = tmp_path / "out"
        code = run_cli(["crossover", "--quantity", "bvp", "--t-list", "1e-4,2e-4,5e-4",
                        "--samples", "600", "--out", str(out)])
        assert code == 2 and not out.exists()

    # at t_tilde = 1e-17 every centre 1 + t_tilde * u rounds to 1.0
    @pytest.mark.parametrize("quantity", ["dmzdt", "bvp"])
    def test_collapsed_ridge_grid_is_configuration_error(self, tmp_path, capsys, quantity):
        out = tmp_path / "out"
        code = run_cli(["crossover", "--quantity", quantity, "--t-list", "1e-17,2e-17,3e-17",
                        "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3 and not out.exists()
        assert err.startswith("configuration error: t_tilde=1e-17") and "Traceback" not in err

    # a repeated temperature once exited 4 ("all x values identical"), or 0
    # with each branch's 3 points on 2 temperatures
    @pytest.mark.parametrize("t_list", ["1e-4,1e-4,1e-4", "1e-4,2e-4,2e-4"])
    def test_repeated_temperature_is_configuration_error(self, tmp_path, capsys, t_list):
        out = tmp_path / "out"
        code = run_cli(["crossover", "--quantity", "dmzdt", "--t-list", t_list, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3 and not out.exists()
        assert err.startswith("configuration error: t_grid repeats a temperature")

    # 1 + 1e160 * span overflowed the kernels' squares, and exited 4
    @pytest.mark.filterwarnings("error")
    def test_grid_past_the_largest_lambda_is_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["crossover", "--quantity", "dmzdt", "--t-list", "1e160,2e160,3e160",
                        "--out", str(out)])
        assert code == 3 and not out.exists()
        assert "|lambda| <= 1e+12" in capsys.readouterr().err

    def test_dmzdt_ridge_next_to_zero_temperature(self, tmp_path):
        # at t_tilde <= 1e-11 the ridge is narrower than any Chebyshev spacing
        # of its bin; interpolated, it read 0 and no ridge point was found
        code = run_cli(["crossover", "--quantity", "dmzdt", "--t-list", "1e-12,2e-12,3e-12",
                        "--out", str(tmp_path)])
        assert code == 0
        lines = json.loads((tmp_path / "crossover_lines.json").read_text())["dmzdt"]
        assert lines["left"]["slope"] == pytest.approx(-0.594348, rel=5e-3)
        assert lines["right"]["slope"] == pytest.approx(+0.594348, rel=5e-3)

    def test_bad_t_list(self, tmp_path):
        assert run_cli(["crossover", "--t-list", "a,b", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "flags",
        [
            ["--window-ratio", "0"],
            ["--step", "0"],
            ["--step", "-0.025"],
            ["--span", "0"],
            ["--gamma", "nan"],
            ["--gamma", "0"],
            ["--samples", "0"],
            ["--samples", "1"],
            ["--t-list", ","],
            ["--t-list", "1e-4,2e-4,inf"],
        ],
        ids=" ".join,
    )
    def test_bad_input_is_configuration_error(self, tmp_path, flags):
        argv = ["crossover", "--t-list", "1e-4,2e-4,5e-4", "--out", str(tmp_path)]
        assert run_cli(argv + flags) == 3

    def test_bvp_quick_and_rerun_identical(self, tmp_path):
        csvs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = run_cli([
                "crossover", "--quantity", "bvp", "--t-list", "1e-4,2e-4,5e-4",
                "--samples", "600", "--out", str(out),
            ])
            assert code == 0
            csvs.append((out / "crossover_bvp.csv").read_bytes())
        rows = csvs[0].decode().splitlines()[1:]
        assert sorted(r.rsplit(",", 1)[1] for r in rows) == ["left"] * 3 + ["right"] * 3
        assert csvs[0] == csvs[1]


# Grids too large for numpy to index (rejected by ScanConfig or
# crossover_lines) or to allocate (a MemoryError), each far above 2**48 bytes.
OVERSIZED_GRIDS = [
    SCAN_ARGS + ["--lambda", "0.8:1.2:1e-300"],
    SCAN_ARGS + ["--window", "1e-300"],
    ["crossover", "--t-list", "1e-4,2e-4,3e-4", "--step", "1e-300"],
    ["crossover", "--t-list", "1e-4,2e-4,3e-4", "--window-ratio", "1e-300"],
    ["crossover", "--t-list", "1e-4,2e-4,3e-4", "--step", "1e-15"],
]


class TestWorkers:
    # flags no command reads: --workers (every command runs on one thread),
    # digits --metric (the report holds every metric) and --format (it writes
    # no table), scale --n-sites (--n-list gives each chain) and --observable
    # (a finite chain has Mz alone), --kappa (--dist poisson:KAPPA holds it),
    # scale --signature (--dist gives it) and --lambda-c (the exact 1)
    @pytest.mark.parametrize(
        "argv",
        [
            ["digits", "logmantissa:100", "--workers", "1"],
            ["digits", "logmantissa:100", "--metric", "sd"],
            ["digits", "logmantissa:100", "--format", "json"],
            SCAN_ARGS + ["--workers", "1"],
            SCALE_ARGS + ["--workers", "1"],
            SCALE_ARGS + ["--n-sites", "8"],
            SCALE_ARGS + ["--observable", "mz"],
            ["crossover", "--t-list", "1e-4,2e-4,5e-4", "--samples", "600", "--workers", "1"],
            SCAN_ARGS + ["--kappa", "5"],
            SCALE_ARGS + ["--signature", "minimum"],
            SCALE_ARGS + ["--lambda-c", "1"],
        ],
        ids=["digits-workers", "digits-metric", "digits-format", "scan-workers",
             "scale-workers", "scale-n-sites", "scale-observable", "crossover-workers",
             "scan-kappa", "scale-signature", "scale-lambda-c"],
    )
    def test_removed_flag_rejected_before_computing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 3
        assert not out.exists()
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            SCAN_ARGS + ["--lambda", "0.9:1.1"],
            SCAN_ARGS + ["--t", "-3"],
            SCAN_ARGS + ["--n-sites", "x"],
            SCALE_ARGS + ["--n-list", "14,x"],
            ["crossover", "--t-list", "a,b"],
            SCAN_ARGS + ["--dist", "poisson"],
            SCALE_ARGS + ["--dist", "benford:5"],
            SCALE_ARGS + ["--fit-half", "-0.05"],
            SCALE_ARGS + ["--fit-half", "0"],
            SCALE_ARGS + ["--fit-half", "nan"],
            SCALE_ARGS + ["--smooth-half", "-1"],
            SCALE_ARGS + ["--n-list", "14,14,20"],
            SCALE_ARGS + ["--n-list", "14,20"],
            SCALE_ARGS + ["--n-list", "14,15,20"],
            ["digits", "logmantissa:100", "--seed", "-1"],
            ["digits", "logmantissa:100", "--seed", "x"],
            ["crossover", "--t-list", "inf,1e-4,2e-4"],
            ["crossover", "--t-list", "nan,1e-4,2e-4"],
            ["crossover", "--t-list", "1e-4,0,2e-4"],
            ["crossover", "--t-list", "1e-4,2e-4,3e-4", "--span", "nan"],
            ["crossover", "--t-list", "1e-4,2e-4,3e-4", "--step", "0"],
            ["crossover", "--t-list", "1e-4,2e-4,3e-4", "--window-ratio", "-1"],
            *OVERSIZED_GRIDS,
        ],
        ids=["lambda", "t", "n-sites", "n-list", "t-list", "dist-poisson", "dist-benford-kappa",
             "fit-half-negative", "fit-half-zero", "fit-half-nan", "smooth-half", "n-list-repeated",
             "n-list-two", "n-list-odd", "seed-negative", "seed-text",
             "t-list-inf", "t-list-nan", "t-list-zero", "span-nan", "step-zero",
             "window-ratio-negative", "lambda-step-unindexable", "window-unindexable", "ridge-step-unindexable",
             "window-ratio-unindexable", "ridge-step-unallocatable"],
    )
    def test_malformed_flag_rejected_before_computing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        if argv in OVERSIZED_GRIDS:
            # parsed flags, but a grid that cannot be built: no traceback
            assert err.startswith("configuration error: ") and "Traceback" not in err
        else:
            flag = argv[-2]
            assert f"argument {flag}" in err


def test_settable_values_per_command():
    # the count CI prints, walked the same way: every action a subcommand
    # declares except -h
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    counts = {name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
              for name, p in sub.choices.items()}
    assert counts == {"digits": 4, "scan": 11, "scale": 12, "crossover": 11}


class TestManifest:
    """Each command's manifest echoes the resolved flags and the values derived
    from them, and names its data files in the order they were written."""

    CROSSOVER_ARGS = [
        "crossover", "--quantity", "both", "--t-list", "1e-4,2e-4,5e-4",
        "--span", "3", "--step", "0.05", "--samples", "600",
    ]
    # the flags of scan and scale in common, and the scan settings derived from them
    WINDOW_KEYS = [
        "gamma", "t", "lambda_range", "window", "samples", "dist", "metric",
        "out", "format", "lambda_step", "window_width", "samples_per_window", "t_tilde",
        "lattice_stride", "lattice_spacing", "window_span",
    ]
    CASES = {
        "digits": (
            ["digits", "logmantissa:500", "--dist", "poisson:5"],
            ["input", "seed", "dist", "out"],
            {"input": "logmantissa:500", "seed": 0, "dist": "poisson:5.0"},
            ["digits_report.json"],
        ),
        "scan": (
            SCAN_ARGS,
            WINDOW_KEYS + ["observable", "n_sites", "degenerate_windows"],
            {"observable": "mz", "n_sites": 8, "degenerate_windows": [],
             "lambda_range": [0.9, 1.1], "lambda_step": 0.01, "lattice_stride": 100,
             "window_width": 0.02, "samples_per_window": 200, "dist": "benford",
             "t_tilde": 0.0, "t": 0.0},
            ["scan.csv"],
        ),
        "scale": (
            SCALE_ARGS + ["--format", "json"],
            WINDOW_KEYS + ["n_list", "fit_half", "smooth_half", "signature"],
            {"n_list": [20, 24, 30], "signature": "derivative",
             "lambda_range": [0.9, 1.06], "lambda_step": 0.005, "format": "json"},
            ["scale.json", "scale_fit.json"],
        ),
        "crossover": (
            CROSSOVER_ARGS,
            ["gamma", "t_list", "span", "step", "window_ratio", "samples", "dist",
             "metric", "quantity", "out", "format"],
            {"t_list": [1e-4, 2e-4, 5e-4], "span": 3.0, "step": 0.05, "samples": 600,
             "dist": "benford", "quantity": "both"},
            ["crossover_dmzdt.csv", "crossover_bvp.csv", "crossover_lines.json"],
        ),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_config_and_outputs(self, tmp_path, command):
        argv, keys, pinned, outputs = self.CASES[command]
        assert run_cli(argv + ["--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / f"{command}_manifest.json").read_text())
        assert manifest["command"] == command
        config = manifest["config"]
        assert set(config) == set(keys)
        assert {k: config[k] for k in pinned} == pinned
        assert config["out"] == str(tmp_path)
        assert manifest["outputs"] == outputs
        assert all((tmp_path / name).is_file() for name in outputs)

    def test_unknown_type_is_not_serialized(self):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            json.dumps({"x": object()}, default=cli._json_default)


class TestOutputPlumbing:
    # --out naming a regular file fails in mkdir, an OSError, after the computation
    def test_out_path_collides_with_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        for argv in (["digits", "logmantissa:100"], SCAN_ARGS):
            assert run_cli(argv + ["--out", str(blocker)]) == 3
            assert capsys.readouterr().err.startswith("i/o error:")
        assert blocker.read_text() == ""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0

    def test_csv_floats_round_trip(self, tmp_path):
        run_cli(SCAN_ARGS + ["--out", str(tmp_path)])
        lines = (tmp_path / "scan.csv").read_text().splitlines()[1:]
        for line in lines:
            mid, delta = line.split(",")
            assert repr(float(mid)) == mid
            assert repr(float(delta)) == delta


GLIBC = hasattr(os, "confstr") and bool(os.confstr("CS_GNU_LIBC_VERSION"))


class TestHeapThresholds:
    @pytest.mark.skipif(not GLIBC, reason="glibc's mallopt")
    @pytest.mark.parametrize(
        "kernel",
        [
            "xy_exact.mz_and_correlators_many(lams, 1.0)",
            "xy_exact.mz_finite_many(lams, 0.5, [14, 20, 24, 30, 34, 40])",
        ],
        ids=["t0_correlators", "finite_chains"],
    )
    def test_one_window_calls_reuse_the_heap(self, kernel):
        # at glibc's default thresholds each call's freed temporaries are
        # trimmed and faulted in again by the next: thousands of faults. A
        # fresh process, as the CLI runs in, since the thresholds glibc
        # adjusts by itself depend on what the process allocated before.
        code = (
            "import resource\nimport numpy as np\nfrom benford_xy import cli, xy_exact\n"
            "cli._fix_heap_thresholds()\nlams = np.linspace(0.99, 1.01, 10_000)\n"
            f"{kernel}\nbefore = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"for _ in range(10):\n    {kernel}\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert int(out.stdout) < 100

    @pytest.mark.parametrize(
        "libc, calls",
        [("no glibc", []), ("no mallopt", []), (0, [(-3, 1 << 20)]),
         (1, [(-3, 1 << 20), (-1, 64 << 20)])],
        ids=["no_glibc", "no_mallopt", "mallopt_fails", "mallopt_succeeds"],
    )
    def test_commands_run_whatever_mallopt_does(self, tmp_path, monkeypatch, libc, calls):
        made = []

        class Libc:
            if isinstance(libc, int):
                @staticmethod
                def mallopt(param, value):
                    made.append((param, value))
                    return libc

        if libc == "no glibc":
            def confstr(name):
                raise ValueError(name)
            monkeypatch.setattr(cli.os, "confstr", confstr, raising=False)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
        assert run_cli(["digits", "logmantissa:1000", "--out", str(tmp_path)]) == 0
        assert made == calls


class TestImports:
    def test_cli_import_leaves_scipy_out(self):
        # the package needs numpy only; scipy.special alone would add about
        # 0.4 s and 25 MB to every command's start-up, and numpy.polynomial
        # about 1.8 MB of peak RSS
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            "import sys, benford_xy.cli; print(sorted(m for m in sys.modules"
            " if (m + '.').startswith(('scipy.', 'numpy.polynomial.'))))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_fits_and_thermal_kernels_leave_polynomial_and_fft_out(self, tmp_path):
        # numpy.polynomial costs every scale and crossover run about 4.6 ms
        # and 0.9 MB of peak RSS, and the first use of numpy.fft 0.47 MB
        src = str(Path(cli.__file__).resolve().parents[1])
        runs = [
            ["scale", "--gamma", "0.5", "--n-list", "14,20,24", "--out", str(tmp_path / "a")],
            ["crossover", "--t-list", "1e-4,2e-4,5e-4", "--samples", "600",
             "--out", str(tmp_path / "b")],
        ]
        code = (
            f"import sys; from benford_xy import cli\nfor argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules"
            " if (m + '.').startswith(('numpy.polynomial.', 'numpy.fft.'))))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "[]"
