"""Command-line interface and configuration files: outputs, overrides,
exit codes, reproducibility."""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loopdet
from loopdet import (PhotonSource, channel_transmissions, multi_photon_content,
                     normalized_channels, poisson_click_distribution,
                     source_multi_photon_content, total_transmission)
from loopdet.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DOMAIN, EXIT_OK, main
from loopdet.config import RunConfig, load_config
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

    @pytest.mark.parametrize("content", [None, b"[device]\nt0 = \xff\n",
                                         b"[device]\nt0 = 0.5\x00\n", b"\x00[device]\n"],
                             ids=["directory", "undecodable", "nul-in-value", "nul-line"])
    def test_unusable_config_file_exits_2(self, capsys, tmp_path, content):
        p = tmp_path / "run.ini"
        if content is None:
            p.mkdir()
        else:
            p.write_bytes(content)
        code, _, err = run(capsys, "channels", "--config", str(p))
        assert code == EXIT_CONFIG and "config error" in err
        assert "Traceback" not in err

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


GENERAL_COUPLER = "[device]\nt13 = 0.5\nt14 = 0.45\nt23 = 0.2\nt24 = 0.75\n"


class TestSharedParser:
    """main parses with one parser, built when loopdet.cli is imported."""

    def test_calls_leave_no_state(self, capsys, tmp_path):
        divergent = tmp_path / "divergent.ini"
        divergent.write_text("[device]\ntheta = 1.0\ntl = 1.0\nt13 = 0.5\nt14 = 0.5\n"
                             "t23 = 1e-12\nt24 = 0.999999999999\n")

        def run_every_command():
            seen = {}
            for name, argv in COMMANDS.items():
                out = tmp_path / f"{name}.out"
                code, stdout, err = run(capsys, *argv, "--out", str(out))
                seen[name] = (code, stdout, err, out.read_bytes())
            return seen

        first = run_every_command()
        assert {code for code, *_ in first.values()} == {EXIT_OK}
        # Options that differ from every default, then each kind of failure.
        assert run(capsys, "channels", "--r", "0.2", "--n-channels", "9", "--format", "json",
                   "--out", str(tmp_path / "other.json"))[0] == EXIT_OK
        for argv in (["channels", "--n-channels", "x"], ["bogus"],
                     ["channels", "--r", "0.3", "--r-sweep", "0.3:0.6:3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_CONFIG
        assert run(capsys, "calibrate")[0] == EXIT_CONFIG
        assert run(capsys, "channels", "--config", str(divergent))[0] == EXIT_DOMAIN
        for argv in (["--help"], ["--version"], ["channels", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
        capsys.readouterr()
        assert run_every_command() == first

    def test_main_builds_no_parser(self, capsys, monkeypatch, tmp_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for name, argv in COMMANDS.items():
            assert main([*argv, "--out", str(tmp_path / f"{name}.out")]) == EXIT_OK
        for argv in (["--help"], ["channels", "--n-channels", "x"]):
            with pytest.raises(SystemExit):
                main(argv)
        assert built == []


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

    @pytest.mark.parametrize("n", [1, 6, 31])
    @pytest.mark.parametrize("config", [None, GENERAL_COUPLER], ids=["default", "general"])
    def test_sweep_rows_match_per_ratio_profiles(self, capsys, tmp_path, n, config):
        # Every row of the one-pass sweep against the profile of the device
        # with its coupler replaced by ideal(r), one r at a time.
        grid = [0.0, 0.05, 0.3, 0.446, 0.5, 0.77, 0.999, 1.0]
        argv = ["channels", "--r-sweep", ",".join(map(str, grid)), "--n-channels", str(n),
                "--out", str(tmp_path / "sweep.csv")]
        params = RunConfig().device
        if config:
            (tmp_path / "dev.ini").write_text(config)
            argv += ["--config", str(tmp_path / "dev.ini")]
            params = load_config(tmp_path / "dev.ini").device
        assert run(capsys, *argv) == (EXIT_OK, "", "")
        rows = read_csv(tmp_path / "sweep.csv")
        assert [float(row["r"]) for row in rows] == grid
        for row in rows:
            profile = channel_transmissions(params.with_ratio(float(row["r"])), n)
            np.testing.assert_allclose([float(row[f"H_{k}"]) for k in range(1, n + 1)],
                                       normalized_channels(profile), rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(float(row["H_rest"]),
                                       profile.remainder / profile.total, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("option,grid", [
        ("--r-sweep", "-0.1,0.5"), ("--r-sweep", "0.5,nan"), ("--r-sweep", "0.2,0.4,1.5"),
        ("--r-sweep", "0:1.2:4"), ("--r", "nan"), ("--r", "1.5")])
    def test_ratio_outside_unit_interval(self, capsys, tmp_path, option, grid):
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "channels", f"{option}={grid}", "--out", str(out))
        assert code == EXIT_DOMAIN
        assert "domain error: r must lie in [0, 1]" in err
        assert not out.exists()

    def test_sweep_through_lossless_loop(self, capsys, tmp_path):
        # theta = tl = 1: the loop series diverges as r -> 1.  At r = 1 no
        # light enters the loop, so that point alone is a finite profile.
        ini = tmp_path / "lossless.ini"
        ini.write_text("[device]\ntheta = 1\ntl = 1\n")
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "channels", "--config", str(ini), "--r-sweep",
                           "0.5,0.9999999999999,1", "--out", str(out))
        assert code == EXIT_DOMAIN and "does not converge" in err
        assert not out.exists()
        assert run(capsys, "channels", "--config", str(ini), "--r-sweep", "0.5:1:3",
                   "--n-channels", "3", "--out", str(out))[0] == EXIT_OK
        assert read_csv(out)[-1] == {"r": "1.0", "H_1": "1.0", "H_2": "0.0", "H_3": "0.0",
                                     "H_rest": "0.0"}

    def test_ratio_and_sweep_are_exclusive(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            main(["channels", "--r", "0.3", "--r-sweep", "0.3:0.6:3", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()


#: stdout and the SHA-256 of the --out CSV of ``optimize`` on the default
#: device, per extra option.  The tables were recorded from the golden-section
#: refinement, stdout from the two-pass scan, which moved r_star by 1e-6.
OPTIMIZE_BYTES = {
    "": ("r_star = 0.446260\ne_star = 0.955745 nats\n",
         "f93e7798de0a4a3dc4043ddc681adda947403dc990e4be5b06c590480d19312f"),
    "--normalized": ("r_star = 0.442663\ne_star = 1.262764 nats\n",
                     "f8fb06082b133c45eb3605f9dca31706aefdf8f5a12413ac1e2a76b47b027196"),
}


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

    @pytest.mark.parametrize("variant", sorted(OPTIMIZE_BYTES))
    def test_output_bytes(self, capsys, tmp_path, variant):
        stdout, table_sha256 = OPTIMIZE_BYTES[variant]
        out_path = tmp_path / "scan.csv"
        assert run(capsys, "optimize", *variant.split(), "--out", str(out_path)) == \
            (EXIT_OK, stdout, "")
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == table_sha256


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

    @pytest.mark.parametrize("plane", ["input", "detected"])
    def test_rows_match_per_mu_distributions(self, capsys, tmp_path, plane):
        # cm_device bit for bit; the source's closed form over the array
        # differs from the scalar one in the last digits only.  mu = 800
        # and 1e300 saturate to rows of 1.0, with no cut-off.
        grid = ",".join(map(repr, np.linspace(0.001, 40, 25).tolist() + [800.0, 1e300]))
        out = tmp_path / "cm.csv"
        assert run(capsys, "cm-curve", "--mu-grid", grid, "--reference-plane", plane,
                   "--out", str(out))[0] == EXIT_OK
        params = RunConfig().device
        profile = channel_transmissions(params, 15)
        scale = total_transmission(params) if plane == "detected" else 1.0
        rows = read_csv(out)
        assert len(rows) == 27
        for row in rows:
            mu = float(row["mu"])
            cm_dev = multi_photon_content(poisson_click_distribution(mu, profile))
            cm_src = source_multi_photon_content(PhotonSource.poissonian(mu * scale))
            assert row["cm_device"] == repr(cm_dev)
            np.testing.assert_allclose([float(row["cm_source"]), float(row["ratio"])],
                                       [cm_src, cm_dev / cm_src], rtol=1e-12, atol=0.0)
        assert [list(row.values())[1:] for row in rows[-2:]] == [["1.0"] * 3] * 2

    def test_vacuum_point_is_nan_row(self, capsys, tmp_path):
        # c_M is undefined at mu = 0; the point becomes a NaN row, as in
        # postselect, and the rest of the grid is written.
        for command in ("cm-curve", "postselect"):
            out = tmp_path / f"{command}.csv"
            code, _, err = run(capsys, command, "--mu-grid", "0:5:11", "--out", str(out))
            assert (code, err) == (EXIT_OK, "")
            rows = read_csv(out)
            assert len(rows) == 11 and rows[0]["mu"] == "0.0"
            assert all(math.isnan(float(v)) for k, v in rows[0].items() if k != "mu")
            assert all(math.isfinite(float(v)) for row in rows[1:] for v in row.values())

    def test_vanishing_source_content_gives_nan_ratio(self, capsys, tmp_path):
        # At mu = 1e-300 both contents round to 0, so their ratio is undefined.
        out = tmp_path / "cm.csv"
        assert run(capsys, "cm-curve", "--mu-grid", "1e-300,1", "--out", str(out)) == (
            EXIT_OK, "", "")
        first = read_csv(out)[0]
        assert (first["cm_device"], first["cm_source"], first["ratio"]) == ("0.0", "0.0", "nan")

    @pytest.mark.parametrize("grid", ["-1,1", "1,nan"])
    def test_bad_mu_still_fails_whole_grid(self, capsys, tmp_path, grid):
        out = tmp_path / "cm.csv"
        code, _, err = run(capsys, "cm-curve", f"--mu-grid={grid}", "--out", str(out))
        assert code == EXIT_DOMAIN and "mu must be finite and >= 0" in err
        assert not out.exists()

    def test_out_of_memory_names_the_grid(self, capsys, tmp_path, monkeypatch):
        # A grid too large for memory exits 3 with a hint at the grid, not
        # at --trials, which cm-curve does not have.
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(loopdet.cli, "_poisson_click_pmfs", no_memory)
        out = tmp_path / "cm.csv"
        code, _, err = run(capsys, "cm-curve", "--mu-grid", "0:1:5", "--out", str(out))
        assert code == EXIT_DOMAIN and "--mu-grid" in err and "--trials" not in err
        assert not out.exists()


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

    def test_csv_bytes(self, capsys, tmp_path):
        # The histogram goes through the one table writer, so its lines end in
        # LF like every other CLI table; its own writer used to end them in CR LF.
        # A declared change of the random stream re-records this pin too.
        out = tmp_path / "tof.csv"
        code, _, _ = run(capsys, "simulate-tof", "--seed", "3", "--mu", "4.26",
                         "--trials", "2000", "--out", str(out))
        assert code == EXIT_OK
        data = out.read_bytes()
        assert data.startswith(b"bin_index,time_ns,count,probability\n0,0,0,0.0\n")
        assert b"\r" not in data
        assert hashlib.sha256(data).hexdigest() == \
            "18da376cf1ac64f6a5b279ed59b77dc795e35d49ec56f426e84a548895bbc2de"

    def test_out_of_memory_is_domain_error(self, capsys, tmp_path, monkeypatch):
        # A run too large for memory exits 3 like one above MAX_TRIALS, not
        # with a traceback; the engine is patched, so nothing is allocated.
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(loopdet.cli, "run_simulation", no_memory)
        out = tmp_path / "tof.csv"
        code, _, err = run(capsys, "simulate-tof", "--seed", "3", "--mu", "1.0",
                           "--trials", "1000", "--out", str(out))
        assert code == EXIT_DOMAIN and "--trials" in err and not out.exists()

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


#: SHA-256 of the README postselect example's JSON stdout per rule, at unit
#: signal transmission and, to pin the binomial thinning, at 0.8; recorded
#: from the per-mu acceptance evaluation before the shared log-factorial table,
#: and the 0.8 ones again when thinning moved to Pascal's rule (29 of their
#: 150 values moved, by at most 2.5e-16 relative).
POSTSELECT_JSON_SHA256 = {
    ("exactly-one", "1"): "dfe8e211d29a68aa65819f51fe30dfedeb14d5fa2da3d244c635ec896ea2d5d3",
    ("one-or-more", "1"): "3e528dbb9fedf3a43f9c10729eb641ee1cffe44d5b5af82886402717b62c731c",
    ("first-channel-only", "1"):
        "c42ebe937c6a2dfb159cb2b601851560ee9e1f39661f6dbb2869e7d4d5950511",
    ("exactly-one", "0.8"): "5317208e44289175e29032896b1d73f054cf4c7f375dd4eda19207f897f4c61f",
    ("one-or-more", "0.8"): "7a05e876239f6463a4671b2e71b18c9cf895be568509ec3b922c203a37649c2f",
    ("first-channel-only", "0.8"):
        "5e6366dcc679633b78f36b9df5d595a7385821ea9edb5146c67f0d781bbccedf",
}


@pytest.mark.parametrize("rule,transmission", sorted(POSTSELECT_JSON_SHA256))
def test_postselect_output_bytes(capsys, rule, transmission):
    code, out, err = run(capsys, "postselect", "--mu-grid", "0.5:5:10", "--rule", rule,
                         "--signal-transmission", transmission, "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == POSTSELECT_JSON_SHA256[rule, transmission]


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
