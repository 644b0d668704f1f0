"""Command-line surface: one subcommand per experiment.

    loopdet channels      per-channel transmission table / division-ratio sweep
    loopdet optimize      entropy-optimal coupler ratio
    loopdet cm-curve      multi-photon content vs mean photon number
    loopdet simulate-tof  Monte Carlo time-of-flight histogram
    loopdet calibrate     loss calibration from measured channel probabilities
    loopdet postselect    heralded multi-photon reduction curve

Exit codes: 0 success, 2 configuration/usage error or a file that cannot be
opened, 3 model-domain error or a Monte Carlo run too large for memory (lower
``--trials``), 4 data error.

The parser is built once, at import, and every ``main`` call parses with it.
``channels --r-sweep`` and ``cm-curve`` each evaluate their whole grid in one
array pass; a cm-curve point where c_M is undefined (mu = 0) is a NaN row.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .calibrate import calibrate_from_channels, read_channel_csv
from .clickstats import (ACCEPT_RULES, ClickDistribution, PhotonSource, _poisson_click_pmfs,
                         multi_photon_content, source_multi_photon_content)
from .config import RunConfig, load_config
from .device import _normalized, _series, channel_transmissions, total_transmission
from .entropy import optimize_ratio
from .errors import ConfigError, DataError, DomainError, UndefinedContentError
from .montecarlo import accumulate_histogram, histogram_to_json, run_simulation
from .postselect import wm_curve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_DATA = 4


def _write_table(rows: list[list], columns: list[str], fmt: str, path) -> None:
    if fmt == "json":
        text = json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
        text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


#: Command-line option -> the RunConfig field it overrides.
_OVERRIDES = (("seed", "seed"), ("trials", "n_trials"), ("workers", "workers"),
              ("format", "out_format"), ("out", "out_path"),
              ("reference_plane", "reference_plane"))


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for arg, name in _OVERRIDES:
        if getattr(args, arg, None) is not None:
            setattr(cfg, name, getattr(args, arg))
    if getattr(args, "mu", None) is not None:
        cfg.source = PhotonSource.poissonian(args.mu)
    cfg.check("command line")
    if getattr(args, "n_channels", 1) < 1:
        raise ConfigError(f"--n-channels must be at least 1, got {args.n_channels}")
    return cfg


def _parse_grid(spec: str, what: str) -> np.ndarray:
    """Grid syntax: comma list '0.5,1,2' or range 'lo:hi:n' (n linear steps)."""
    try:
        if ":" in spec:
            lo, hi, n = spec.split(":")
            grid = np.linspace(float(lo), float(hi), int(n))
        else:
            grid = np.array([float(x) for x in spec.split(",") if x.strip()])
    except ValueError as exc:
        raise ConfigError(f"bad {what} grid {spec!r}") from exc
    if grid.size == 0:
        raise ConfigError(f"empty {what} grid")
    return grid


def cmd_channels(args) -> int:
    cfg = _load(args)
    n = args.n_channels
    r = _parse_grid(args.r_sweep, "r") if args.r_sweep else args.r
    h, remainder = _series(cfg.device, n, r)
    H, rest = _normalized(h, remainder)
    if args.r_sweep:
        columns = ["r"] + [f"H_{k}" for k in range(1, n + 1)] + ["H_rest"]
        rows = np.column_stack([r, H, rest]).tolist()
    else:
        columns = ["k", "h_k", "H_k"]
        rows = [[k + 1, *hH] for k, hH in enumerate(zip(h.tolist(), H.tolist()))]
        rows.append(["tail", float(remainder), float(rest)])
    _write_table(rows, columns, cfg.out_format, cfg.out_path)
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _load(args)
    scan = optimize_ratio(cfg.device, normalized=args.normalized)
    print(f"r_star = {scan.r_star:.6f}")
    print(f"e_star = {scan.e_star:.6f} nats")
    if cfg.out_path:
        rows = np.column_stack([scan.r_grid, scan.entropy]).tolist()
        _write_table(rows, ["r", "entropy"], cfg.out_format, cfg.out_path)
    return EXIT_OK


def cmd_cm_curve(args) -> int:
    cfg = _load(args)
    grid = _parse_grid(args.mu_grid, "mu")
    profile = channel_transmissions(cfg.device, args.n_channels)
    T = total_transmission(cfg.device) if cfg.reference_plane == "detected" else 1.0
    mus = [PhotonSource.poissonian(mu).mu for mu in grid.tolist()]
    rows = []
    for mu, pmf in zip(mus, _poisson_click_pmfs(grid, profile.h)):
        try:
            cm_dev = multi_photon_content(ClickDistribution(pmf))
            cm_src = source_multi_photon_content(PhotonSource.poissonian(mu * T))
        except UndefinedContentError:  # mu = 0: nothing clicks
            cm_dev = cm_src = math.nan
        rows.append([mu, cm_dev, cm_src, cm_dev / cm_src if cm_src > 0.0 else math.nan])
    _write_table(rows, ["mu", "cm_device", "cm_source", "ratio"],
                 cfg.out_format, cfg.out_path)
    return EXIT_OK


def cmd_simulate_tof(args) -> int:
    cfg = _load(args)
    if cfg.seed is None:
        raise ConfigError("simulate-tof needs a seed (config [simulation] or --seed)")
    if cfg.source is None:
        raise ConfigError("simulate-tof needs a source (config [source] or --mu)")
    result = run_simulation(cfg.source, cfg.device, cfg.n_trials, cfg.seed,
                            workers=cfg.workers, settings=cfg.sim)
    hist = accumulate_histogram(result)
    path = cfg.out_path or ("tof." + cfg.out_format)
    if cfg.out_format == "json":
        histogram_to_json(hist, path, seed=cfg.seed, params=cfg.device)
    else:
        rows = [[i, f"{i * hist.bin_width_ns:.6g}", count, repr(count / hist.n_trials)]
                for i, count in enumerate(hist.counts.tolist())]
        _write_table(rows, ["bin_index", "time_ns", "count", "probability"], "csv", path)
    print(f"wrote {path} ({hist.counts.sum()} in-window clicks, "
          f"{hist.overflow} overflow)")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = _load(args)
    if args.input:
        H, sigma = read_channel_csv(args.input)
    elif args.channels:
        H, sigma = _parse_grid(args.channels, "--channels"), None
    else:
        raise ConfigError("calibrate needs --input CSV or --channels list")
    result = calibrate_from_channels(H, T_over_eta=args.t_over_eta,
                                     theta=args.theta, sigma=sigma)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"ratio_stat = {result.ratio_stat:.4f} +- {result.ratio_sigma:.4f}")
    print(f"tl_hat = {result.tl_hat:.4f} +- {result.tl_sigma:.4f}")
    print(f"t0_hat = {result.t0_hat:.4f} +- {result.t0_sigma:.4f}")
    if cfg.out_path:
        rows = [[int(k), float(r), float(res)]
                for k, r, res in zip(result.used_k, result.ratios, result.residuals)]
        _write_table(rows, ["k", "ratio", "residual"], cfg.out_format,
                     cfg.out_path)
    return EXIT_OK


def cmd_postselect(args) -> int:
    cfg = _load(args)
    grid = _parse_grid(args.mu_grid, "mu")
    profile = channel_transmissions(cfg.device, args.n_channels)
    rows = wm_curve(grid, profile, rule=args.rule,
                    signal_transmission=args.signal_transmission)
    _write_table([list(row.values()) for row in rows], list(rows[0]),
                 cfg.out_format, cfg.out_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopdet",
        description="Fiber-loop multichannel click detector toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, mc=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="run-configuration file")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out", help="output path (default: stdout)")
        if mc:
            p.add_argument("--seed", type=int)
            p.add_argument("--trials", type=int)
            p.add_argument("--workers", type=int)
            p.add_argument("--mu", type=float,
                           help="Poissonian source mean (overrides config)")
        return p

    p = command("channels", cmd_channels, "channel transmission table")
    ratio = p.add_mutually_exclusive_group()
    ratio.add_argument("--r", type=float, help="ideal-coupler division ratio")
    ratio.add_argument("--r-sweep", help="sweep grid: comma list or lo:hi:n")
    p.add_argument("--n-channels", type=int, default=6)

    p = command("optimize", cmd_optimize, "entropy-optimal division ratio")
    p.add_argument("--normalized", action="store_true",
                   help="maximize entropy of normalized channel probabilities")

    p = command("cm-curve", cmd_cm_curve, "multi-photon content vs mu")
    p.add_argument("--mu-grid", required=True, help="comma list or lo:hi:n")
    p.add_argument("--n-channels", type=int, default=15)
    p.add_argument("--reference-plane", choices=("input", "detected"))

    command("simulate-tof", cmd_simulate_tof, "Monte Carlo time-of-flight histogram",
            mc=True)

    p = command("calibrate", cmd_calibrate, "loss calibration from channel data")
    p.add_argument("--input", help="CSV with columns k,H_k[,sigma_k]")
    p.add_argument("--channels", help="inline H_k list, e.g. 0.39,0.42,0.13")
    p.add_argument("--t-over-eta", type=float, default=0.78)
    p.add_argument("--theta", type=float, default=0.955)

    p = command("postselect", cmd_postselect, "heralded multi-photon reduction")
    p.add_argument("--mu-grid", required=True, help="comma list or lo:hi:n")
    p.add_argument("--rule", choices=ACCEPT_RULES, default="exactly-one")
    p.add_argument("--n-channels", type=int, default=15)
    p.add_argument("--signal-transmission", type=float, default=1.0)

    return parser


#: Built once at import; parsing leaves it unchanged, so every call shares it.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print("domain error: the run does not fit in memory; lower --trials", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
