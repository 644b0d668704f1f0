"""Command-line interface and configuration files: outputs, overrides,
exit codes, reproducibility."""

import csv
import json

import numpy as np
import pytest

from loopdet.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DOMAIN, EXIT_OK, main
from loopdet.config import load_config
from loopdet.errors import ConfigError


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
        assert (cfg.seed, cfg.n_trials, cfg.max_channels) == \
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

    def test_bad_csv_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("foo,bar\n1,2\n")
        code, _, _ = run(capsys, "calibrate", "--input", str(p))
        assert code == EXIT_DATA

    def test_too_few_channels_is_data_error(self, capsys):
        code, _, _ = run(capsys, "calibrate", "--channels", "0.5,0.3")
        assert code == EXIT_DATA

    def test_inconsistent_measurement_is_data_error(self, capsys):
        # A ratio statistic implying tl > 1 must be rejected, not clipped.
        code, _, _ = run(capsys, "calibrate", "--channels",
                         "0.2,0.3,0.4,0.5", "--theta", "0.5")
        assert code == EXIT_DATA


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


class TestDivergentDeviceExitCode:
    def test_domain_error_exit(self, capsys, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[device]\ntheta = 1.0\ntl = 1.0\n"
                       "t13 = 0.5\nt14 = 0.5\nt23 = 1.0\nt24 = 1.0\n")
        code, _, err = run(capsys, "channels", "--config", str(ini))
        assert code == EXIT_DOMAIN
        assert "domain error" in err
