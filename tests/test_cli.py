"""Command-line interface and configuration files: outputs, overrides,
exit codes, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loopdet
from loopdet.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DOMAIN, EXIT_OK, main
from loopdet.config import load_config
from loopdet.errors import ConfigError
from loopdet.postselect import ACCEPT_RULES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigFiles:
    def test_full_config(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(
            "[device]\nt0 = 0.9\ntl = 0.93\nr = 0.4\n"
            "[source]\nkind = poissonian\nmu = 2.5\n"
            "[simulation]\nseed = 7\nn_trials = 1000\nworkers = 2\n"
            "[output]\nformat = json\nreference_plane = detected\n")
        cfg = load_config(p)
        assert cfg.device.t0 == 0.9 and cfg.device.tl == 0.93
        assert cfg.device.coupler.r == 0.4
        assert cfg.source.kind == "poissonian" and cfg.source.mu == 2.5
        assert (cfg.seed, cfg.n_trials, cfg.workers) == (7, 1000, 2)
        assert cfg.out_format == "json"
        assert cfg.reference_plane == "detected"

    def test_defaults_without_sections(self, tmp_path):
        p = tmp_path / "empty.ini"
        p.write_text("[device]\n")
        cfg = load_config(p)
        assert cfg.device.coupler.r == pytest.approx(0.446)
        assert cfg.source is None and cfg.seed is None

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[detector]\nt0 = 0.9\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[device]\nt_zero = 0.9\n")
        with pytest.raises(ConfigError):
            load_config(p)

    @pytest.mark.parametrize("text", ["[DEFAULT]\nbogus = 1\n",
                                      "[DEFAULT]\nt0 = 0.5\n[device]\n"])
    def test_default_section_keys_rejected(self, capsys, tmp_path, text):
        p = tmp_path / "default.ini"
        p.write_text(text)
        with pytest.raises(ConfigError, match="DEFAULT"):
            load_config(p)
        code, _, err = run(capsys, "channels", "--config", str(p))
        assert code == EXIT_CONFIG and "config error" in err

    def test_empty_default_section_accepted(self, tmp_path):
        p = tmp_path / "default.ini"
        p.write_text("[DEFAULT]\n[device]\nt0 = 0.5\n")
        assert load_config(p).device.t0 == 0.5

    def test_r_and_tij_conflict(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[device]\nr = 0.4\nt13 = 0.4\nt14 = 0.6\n"
                     "t23 = 0.6\nt24 = 0.4\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_incomplete_tij(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[device]\nt13 = 0.4\nt14 = 0.6\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_fock_and_custom_sources(self, tmp_path):
        p = tmp_path / "fock.ini"
        p.write_text("[source]\nkind = fock\nn = 2\n")
        assert load_config(p).source.n == 2
        p.write_text("[source]\nkind = custom\npmf = 0.5, 0.5\n")
        assert load_config(p).source.pmf == pytest.approx([0.5, 0.5])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_integer_keys_parsed_exactly(self, tmp_path):
        # 2**53 + 1 does not survive a trip through float.
        p = tmp_path / "run.ini"
        p.write_text("[simulation]\nseed = 9007199254740993\n"
                     "n_trials = 123456789\nmax_channels = 64\n")
        cfg = load_config(p)
        assert (cfg.seed, cfg.n_trials, cfg.sim.max_channels) == \
            (9007199254740993, 123456789, 64)

    @pytest.mark.parametrize("section,key", [
        ("simulation", "seed"), ("simulation", "n_trials"),
        ("simulation", "n_bins"), ("simulation", "workers"),
        ("simulation", "max_channels"), ("source", "n")])
    def test_non_integer_keys_rejected(self, tmp_path, section, key):
        p = tmp_path / "bad.ini"
        extra = "kind = fock\n" if section == "source" else ""
        p.write_text(f"[{section}]\n{extra}{key} = 1.7\n")
        with pytest.raises(ConfigError, match="not an integer"):
            load_config(p)

    @pytest.mark.parametrize("line", [
        "seed = -1", "seed = 18446744073709551616", "workers = 0",
        "workers = -3"])
    def test_out_of_range_keys_rejected(self, tmp_path, line):
        p = tmp_path / "bad.ini"
        p.write_text(f"[simulation]\n{line}\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_undecodable_file(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_bytes(b"[device]\nt0 = \xff\n")
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(p)

    def test_percent_sign_is_literal(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[output]\npath = run%1.csv\n")
        assert load_config(p).out_path == "run%1.csv"


COMMANDS = {
    "channels": ["channels", "--n-channels", "4"],
    "sweep": ["channels", "--r-sweep", "0.3:0.5:3", "--n-channels", "3"],
    "optimize": ["optimize"],
    "cm-curve": ["cm-curve", "--mu-grid", "0.5,2"],
    "simulate-tof": ["simulate-tof", "--seed", "1", "--mu", "1",
                     "--trials", "10"],
    "calibrate": ["calibrate", "--channels",
                  "0.39,0.42,0.13,0.04,0.012,0.004,0.0013"],
    "postselect": ["postselect", "--mu-grid", "0.5,2"],
}


def label_or_int(cell):
    return cell if cell == "tail" else int(cell)


#: Columns that are not floating-point numbers; every other column is.
CELL_TYPES = {"k": label_or_int, "bin_index": int, "count": int}


class TestCsvCells:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_cell_parses_as_its_column_type(self, capsys, tmp_path,
                                                  command):
        out = tmp_path / "out.csv"
        code, _, _ = run(capsys, *COMMANDS[command], "--out", str(out))
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows
        for row in rows:
            assert len(row) == len(header)
            for column, cell in zip(header, row):
                CELL_TYPES.get(column, float)(cell)

    def test_histogram_probability_is_count_over_trials(self, capsys,
                                                        tmp_path):
        out = tmp_path / "tof.csv"
        code, _, _ = run(capsys, *COMMANDS["simulate-tof"], "--out", str(out))
        assert code == EXIT_OK
        rows = read_csv(out)
        assert list(rows[0].values()) == ["0", "0", "0", "0.0"]
        assert all(float(r["probability"]) == int(r["count"]) / 10
                   for r in rows)


class TestInvalidSimulationValues:
    """SimSettings is built when the file is loaded, so an invalid
    [simulation] value fails every command, like an invalid [device] one."""

    @pytest.mark.parametrize("line", [
        "n_bins = 0", "max_channels = 0", "time_offset_ns = -5",
        "time_offset_ns = nan"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_domain_error_at_load(self, capsys, tmp_path, line, command):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[simulation]\n{line}\n")
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, *COMMANDS[command], "--config", str(ini),
                           "--out", str(out))
        assert code == EXIT_DOMAIN
        assert "domain error" in err
        assert not out.exists()


class TestChannelsCommand:
    def test_table(self, capsys, tmp_path):
        out = tmp_path / "ch.csv"
        code, _, _ = run(capsys, "channels", "--r", "0.446",
                         "--n-channels", "4", "--out", str(out))
        assert code == EXIT_OK
        rows = read_csv(out)
        assert [r["k"] for r in rows] == ["1", "2", "3", "4", "tail"]
        assert float(rows[0]["h_k"]) == pytest.approx(
            0.92 * 0.955 * 0.446 * 0.6, rel=1e-9)

    def test_sweep(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "channels", "--r-sweep", "0.3:0.5:5",
                         "--n-channels", "3", "--out", str(out))
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 5
        for row in rows:
            total = sum(float(row[c]) for c in ("H_1", "H_2", "H_3", "H_rest"))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "ch.json"
        code, _, _ = run(capsys, "channels", "--format", "json",
                         "--out", str(out))
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data[0]["k"] == 1

    @pytest.mark.parametrize("command", [
        ["channels"], ["cm-curve", "--mu-grid", "1"],
        ["postselect", "--mu-grid", "1"]])
    def test_no_channels_is_usage_error(self, capsys, command):
        code, _, err = run(capsys, *command, "--n-channels", "0")
        assert code == EXIT_CONFIG
        assert "--n-channels" in err

    @pytest.mark.parametrize("command", [
        ["channels"], ["channels", "--r-sweep", "0.3:0.6:3"],
        ["cm-curve", "--mu-grid", "1"], ["postselect", "--mu-grid", "1"]])
    def test_more_than_thirty_channels(self, capsys, tmp_path, command):
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, *command, "--n-channels", "31",
                           "--out", str(out))
        assert (code, err) == (EXIT_OK, "")
        rows = read_csv(out)
        if "--r-sweep" in command:
            for row in rows:
                H = [float(row[f"H_{k}"]) for k in range(1, 32)]
                assert sum(H) + float(row["H_rest"]) == pytest.approx(1.0, abs=1e-12)
        elif command == ["channels"]:
            assert [r["k"] for r in rows] == [*map(str, range(1, 32)), "tail"]

    def test_bad_sweep_grid(self, capsys):
        code, _, err = run(capsys, "channels", "--r-sweep", "oops")
        assert code == EXIT_CONFIG
        assert "grid" in err


class TestOptimizeCommand:
    def test_prints_optimum(self, capsys):
        code, out, _ = run(capsys, "optimize")
        assert code == EXIT_OK
        r_star = float(out.splitlines()[0].split("=")[1])
        assert r_star == pytest.approx(0.446, abs=0.010)

    def test_scan_output(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "optimize", "--out", str(out_path))
        assert code == EXIT_OK
        rows = read_csv(out_path)
        assert len(rows) == 1001


class TestCmCurveCommand:
    def test_curve(self, capsys, tmp_path):
        out = tmp_path / "cm.csv"
        code, _, _ = run(capsys, "cm-curve", "--mu-grid", "0.5,4.26",
                         "--out", str(out))
        assert code == EXIT_OK
        rows = read_csv(out)
        assert float(rows[1]["cm_source"]) == pytest.approx(0.939, abs=1e-3)
        assert float(rows[1]["ratio"]) < 1.0

    def test_detected_plane(self, capsys, tmp_path):
        out = tmp_path / "cm.csv"
        code, _, _ = run(capsys, "cm-curve", "--mu-grid", "4.26",
                         "--reference-plane", "detected", "--out", str(out))
        assert code == EXIT_OK
        row = read_csv(out)[0]
        assert float(row["cm_source"]) < 0.939  # weaker detected-plane source

    def test_missing_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cm-curve"])
        assert exc.value.code == 2


class TestSimulateTofCommand:
    def test_writes_histogram(self, capsys, tmp_path):
        out = tmp_path / "tof.csv"
        code, msg, _ = run(capsys, "simulate-tof", "--seed", "3",
                           "--mu", "4.26", "--trials", "2000",
                           "--out", str(out))
        assert code == EXIT_OK
        assert "wrote" in msg
        rows = read_csv(out)
        assert len(rows) == 1024
        counts = np.array([int(r["count"]) for r in rows])
        assert counts[20] > 0 and counts[32] > 0  # channels 1 and 2

    def test_json_histogram_metadata(self, capsys, tmp_path):
        out = tmp_path / "tof.json"
        code, _, _ = run(capsys, "simulate-tof", "--seed", "3", "--mu", "1.0",
                         "--trials", "1000", "--format", "json",
                         "--out", str(out))
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["meta"]["seed"] == 3
        assert data["meta"]["params"]["tl"] == 0.94
        assert len(data["counts"]) == 1024

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, "simulate-tof", "--seed", "9",
                             "--mu", "2.0", "--trials", "3000",
                             "--out", str(out))
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_output(self, capsys, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
        for out, workers in ((a, "1"), (b, "4")):
            code, _, _ = run(capsys, "simulate-tof", "--seed", "5",
                             "--mu", "2.0", "--trials", "20000",
                             "--workers", workers, "--out", str(out))
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed(self, capsys):
        code, _, err = run(capsys, "simulate-tof", "--mu", "1.0")
        assert code == EXIT_CONFIG
        assert "seed" in err

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "simulate-tof", "--seed", "1")
        assert code == EXIT_CONFIG
        assert "source" in err

    @pytest.mark.parametrize("option", [
        ["--seed", "18446744073709551616"], ["--seed", "-1"],
        ["--workers", "0"], ["--workers", "-3"]])
    def test_out_of_range_option_is_usage_error(self, capsys, tmp_path, option):
        code, _, err = run(capsys, "simulate-tof", "--seed", "1", "--mu", "1.0",
                           "--trials", "10", "--out", str(tmp_path / "tof.csv"),
                           *option)
        assert code == EXIT_CONFIG
        assert option[0][2:] in err

    def test_out_of_range_ini_seed_is_usage_error(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[simulation]\nseed = 18446744073709551616\n")
        code, _, err = run(capsys, "simulate-tof", "--config", str(ini),
                           "--mu", "1.0", "--trials", "10",
                           "--out", str(tmp_path / "tof.csv"))
        assert code == EXIT_CONFIG
        assert "seed" in err

    def test_largest_seed_runs(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate-tof", "--seed", str(2 ** 64 - 1),
                         "--mu", "1.0", "--trials", "10",
                         "--out", str(tmp_path / "tof.csv"))
        assert code == EXIT_OK

    def test_config_file_drives_run(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        out = tmp_path / "tof.csv"
        ini.write_text(
            "[source]\nkind = poissonian\nmu = 1.0\n"
            "[simulation]\nseed = 4\nn_trials = 1000\n"
            f"[output]\npath = {out}\n")
        code, _, _ = run(capsys, "simulate-tof", "--config", str(ini))
        assert code == EXIT_OK
        assert out.exists()


class TestCalibrateCommand:
    def test_inline_channels(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--channels",
                           "0.39,0.42,0.13,0.04,0.012,0.004,0.0013")
        assert code == EXIT_OK
        values = dict(line.replace(" ", "").split("=")
                      for line in out.splitlines())
        assert float(values["tl_hat"].split("+-")[0]) == pytest.approx(
            0.94, abs=0.02)

    def test_csv_input(self, capsys, tmp_path):
        p = tmp_path / "ch.csv"
        p.write_text("k,H_k,sigma_k\n" + "\n".join(
            f"{k},{H},0.004" for k, H in enumerate(
                [0.39, 0.42, 0.13, 0.04, 0.012, 0.004, 0.0013], start=1)))
        code, out, _ = run(capsys, "calibrate", "--input", str(p))
        assert code == EXIT_OK
        assert "+-" in out

    def test_no_input_is_config_error(self, capsys):
        code, _, _ = run(capsys, "calibrate")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("option", [["--input", "missing.csv"],
                                        ["--channels", "0.4,x"]])
    def test_unusable_input_is_config_error(self, capsys, tmp_path, option):
        if option[0] == "--input":
            option = ["--input", str(tmp_path / option[1])]
        code, _, err = run(capsys, "calibrate", *option)
        assert code == EXIT_CONFIG and "config error" in err

    def test_bad_csv_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("foo,bar\n1,2\n")
        code, _, _ = run(capsys, "calibrate", "--input", str(p))
        assert code == EXIT_DATA

    def test_too_few_channels_is_data_error(self, capsys):
        code, _, _ = run(capsys, "calibrate", "--channels", "0.5,0.3")
        assert code == EXIT_DATA

    def test_nan_channel_is_named(self, capsys):
        code, _, err = run(capsys, "calibrate", "--channels", "nan,0.1,0.1")
        assert code == EXIT_DATA
        assert err == "data error: channel k=1 is not finite: H_k = nan, sigma_k = 0.0\n"

    def test_inconsistent_measurement_is_data_error(self, capsys):
        # A ratio statistic implying tl > 1 must be rejected, not clipped.
        code, _, _ = run(capsys, "calibrate", "--channels",
                         "0.2,0.3,0.4,0.5", "--theta", "0.5")
        assert code == EXIT_DATA


#: The README example, the same channels from a CSV with sigma_k, and a
#: zero channel that makes two pairs unusable.
CALIBRATE_H = "0.39,0.42,0.13,0.04,0.012,0.004,0.0013"
CALIBRATE_CSV = ("k,H_k,sigma_k\n1,0.39,0.004\n2,0.42,0.004\n3,0.13,0.002\n"
                 "4,0.04,0.001\n5,0.012,0.0005\n6,0.004,0.0002\n7,0.0013,0.0001\n")
CALIBRATE_ROWS = (
    "k,ratio,residual\n2,0.7936507936507937,-0.014323283554052768\n"
    "3,0.7889546351084813,-0.01901944209636519\n"
    "4,0.7692307692307692,-0.03874330797407732\n"
    "5,0.8547008547008547,0.046726777496008176\n"
    "6,0.8333333333333331,0.025359256128486662\n")
#: stdout, stderr and --out CSV, recorded from the per-k loop implementation.
CALIBRATE_BYTES = {
    "readme": (
        ["--channels", CALIBRATE_H],
        "ratio_stat = 0.8080 +- 0.0000\ntl_hat = 0.9466 +- 0.0000\n"
        "t0_hat = 0.9138 +- 0.0000\n", "", CALIBRATE_ROWS),
    "csv-sigma": (
        ["--input", "channels.csv"],
        "ratio_stat = 0.8080 +- 0.0214\ntl_hat = 0.9466 +- 0.0112\n"
        "t0_hat = 0.9138 +- 0.0134\n", "", CALIBRATE_ROWS),
    "zero-channel": (
        ["--channels", "0.39,0.42,0.13,0,0.012,0.004,0.0013"],
        "ratio_stat = 0.8272 +- 0.0000\ntl_hat = 0.9567 +- 0.0000\n"
        "t0_hat = 0.9020 +- 0.0000\n",
        "warning: channel pair (k=3, k+1=4) skipped: nonpositive probability\n"
        "warning: channel pair (k=4, k+1=5) skipped: nonpositive probability\n",
        "k,ratio,residual\n2,0.7936507936507937,-0.03357753357753335\n"
        "5,0.8547008547008547,0.027472527472527597\n"
        "6,0.8333333333333331,0.006105006105006083\n"),
}


@pytest.mark.parametrize("case", sorted(CALIBRATE_BYTES))
def test_calibrate_output_bytes(capsys, tmp_path, monkeypatch, case):
    argv, stdout, stderr, rows = CALIBRATE_BYTES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "channels.csv").write_text(CALIBRATE_CSV)
    assert run(capsys, "calibrate", *argv, "--out", "out.csv") == \
        (EXIT_OK, stdout, stderr)
    assert (tmp_path / "out.csv").read_bytes() == rows.encode()


class TestPostselectCommand:
    def test_curve(self, capsys, tmp_path):
        out = tmp_path / "wm.csv"
        code, _, _ = run(capsys, "postselect", "--mu-grid", "0.5:2:4",
                         "--out", str(out))
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(float(r["herald_rate"]) > 0 for r in rows)

    def test_bad_rule_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["postselect", "--mu-grid", "1", "--rule", "sometimes"])

    def test_empty_grid(self, capsys):
        code, _, _ = run(capsys, "postselect", "--mu-grid", ",")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", [["postselect", "--mu-grid", "1,inf"],
                                         ["cm-curve", "--mu-grid", "1,inf"],
                                         [*COMMANDS["simulate-tof"], "--mu", "inf"]])
    def test_infinite_mu_is_domain_error(self, capsys, tmp_path, command):
        code, _, err = run(capsys, *command, "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN and "domain error" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [
        ["postselect", "--mu-grid", "1e300:1e300:1"],
        ["postselect", "--mu-grid", "1,720"],
        [*COMMANDS["simulate-tof"], "--mu", "1e19"],
        [*COMMANDS["simulate-tof"], "--mu", "720"]])
    def test_photon_numbers_beyond_ceiling_are_domain_errors(
            self, capsys, tmp_path, command):
        # mu = 720 needs photon numbers up to 1009 > MAX_PHOTONS = 1000.
        code, _, err = run(capsys, *command, "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_DOMAIN and "MAX_PHOTONS" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("source,code", [
        ("kind = fock\nn = 1000", EXIT_OK),
        ("kind = fock\nn = 1001", EXIT_DOMAIN),
        ("kind = custom\npmf = " + ", ".join(["0"] * 1001 + ["1"]), EXIT_DOMAIN)],
        ids=["fock-1000", "fock-1001", "custom-1002"])
    def test_simulate_tof_photon_ceiling(self, capsys, tmp_path, source, code):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[source]\n{source}\n")
        assert run(capsys, "simulate-tof", "--config", str(ini), "--seed", "1",
                   "--trials", "2", "--out", str(tmp_path / "x.csv"))[0] == code

    def test_largest_tested_mu_runs(self, capsys, tmp_path):
        for command in (["postselect", "--mu-grid", "50"],
                        [*COMMANDS["simulate-tof"], "--mu", "50"]):
            assert run(capsys, *command, "--out", str(tmp_path / "x.csv"))[0] == EXIT_OK

    @pytest.mark.parametrize("out", ["no-such-dir/out.csv", "."])
    def test_unwritable_output_is_config_error(self, capsys, tmp_path, out):
        code, _, err = run(capsys, "postselect", "--mu-grid", "1",
                           "--out", str(tmp_path / out))
        assert code == EXIT_CONFIG and "config error" in err


class TestDivergentDeviceExitCode:
    def test_domain_error_exit(self, capsys, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[device]\ntheta = 1.0\ntl = 1.0\n"
                       "t13 = 0.5\nt14 = 0.5\nt23 = 1e-12\nt24 = 0.999999999999\n")
        code, _, err = run(capsys, "channels", "--config", str(ini))
        assert code == EXIT_DOMAIN
        assert "domain error" in err

    def test_coupler_creating_light_exit(self, capsys, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[device]\nt13 = 0.9\nt14 = 0.3\nt23 = 0.8\nt24 = 0.97\n")
        code, _, err = run(capsys, "channels", "--config", str(ini))
        assert code == EXIT_DOMAIN
        assert "domain error: coupler creates light" in err

    @pytest.mark.parametrize("line", ["dead_time_ns = nan", "bin_width_ns = nan",
                                      "bin_width_ns = inf"])
    def test_non_finite_device_value(self, capsys, tmp_path, line):
        ini = tmp_path / "nan.ini"
        ini.write_text(f"[device]\n{line}\n")
        out = tmp_path / "tof.csv"
        code, _, err = run(capsys, *COMMANDS["simulate-tof"], "--config",
                           str(ini), "--out", str(out))
        assert code == EXIT_DOMAIN
        assert "domain error" in err
        assert not out.exists()


NUMBERS = ["0", "1", "2", "-1", "0.5", "nan", "inf", "-inf", "1e400", "x", ""]
GRIDS = ["0.5,2", "0:1:3", "0:1:-1", "1:0:2", "1,nan", "inf", "-1", "a:b:c", ","]
#: Option -> values to draw.  ``--workers`` never exceeds 1 and
#: ``--trials`` stays small, so that no example starts a process pool or
#: runs a long simulation.
OPTION_VALUES = {
    "--config": ["good.ini", "nan.ini", "default.ini", "bytes.ini",
                 "missing.ini"],
    "--format": ["csv", "json", "xml"],
    "--out": ["out.csv", "out.json", "no-such-dir/out.csv", "."],
    "--seed": ["0", "3", "-1", "18446744073709551616", "x"],
    "--trials": ["1", "20", "0", "-1", "x"],
    "--workers": ["1", "0", "-1", "x"],
    "--mu": NUMBERS, "--r": NUMBERS, "--t-over-eta": NUMBERS,
    "--theta": NUMBERS, "--signal-transmission": NUMBERS,
    "--n-channels": ["1", "3", "31", "0", "-1", "x"],
    "--r-sweep": GRIDS, "--mu-grid": GRIDS,
    "--reference-plane": ["input", "detected", "x"],
    "--input": ["channels.csv", "bad.csv", "missing.csv"],
    "--channels": ["0.39,0.42,0.13,0.04,0.012", "0.5", "nan,0.1,0.1",
                   "0,0,0", "x"],
    "--rule": [*ACCEPT_RULES, "x"],
}
FLAGS = ["--normalized", "--help", "--version"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_fuzz")
    (d / "good.ini").write_text("[device]\nr = 0.4\n[source]\nkind = fock\n"
                                "n = 2\n[simulation]\nseed = 3\nn_trials = 50\n")
    (d / "nan.ini").write_text("[device]\ndead_time_ns = nan\n")
    (d / "default.ini").write_text("[DEFAULT]\nt0 = 0.5\n")
    (d / "bytes.ini").write_bytes(b"\xff\xfe[device]\n")
    (d / "channels.csv").write_text("k,H_k\n1,0.39\n2,0.42\n3,0.13\n4,0.04\n")
    (d / "bad.csv").write_text("x\n")
    return d


@st.composite
def argvs(draw) -> list[str]:
    """A working command line, or an unknown command, followed by options
    that may override, break or not belong to it."""
    argv = list(draw(st.sampled_from([*COMMANDS.values(), ["bogus"]])))
    for _ in range(draw(st.integers(0, 5))):
        option = draw(st.sampled_from(sorted(OPTION_VALUES) + FLAGS))
        argv.append(option)
        if option in OPTION_VALUES and draw(st.integers(0, 9)):
            argv.append(draw(st.sampled_from(OPTION_VALUES[option])))
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=argvs())
def test_command_line_fuzz_ends_in_documented_exit_code(fuzz_dir, argv):
    """Any command line ends in 0, 2, 3 or 4.  argparse signals a usage
    error (and --help/--version) by raising SystemExit itself."""
    cwd = os.getcwd()
    os.chdir(fuzz_dir)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in {EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_DATA}, argv


def test_cli_import_does_not_load_process_pool():
    # The process pool is imported only when a run asks for workers > 1,
    # so starting the CLI does not pay for multiprocessing and its imports.
    src = str(Path(loopdet.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, loopdet.cli; "
         "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True).stdout
    assert loaded.strip() == "[]"
