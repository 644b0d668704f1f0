"""The benchmark's workloads: the inputs of each pass, the operations a pass
times, and the checks on their outputs.

Pass i of a run draws its inputs from numpy's default generator seeded with
[workload seed, i]: a coupler ratio and a loop transmission near the
reference device, a mu grid near the README's 0.5:5:10, and a Monte Carlo
seed.  No two passes share inputs, so a cache kept across calls cannot make
a later pass cheaper than a user's first call.  Pass 0 is the warm-up.

An operation is one CLI command (through ``loopdet.cli.main``, output
captured) or one library call.  It fails when it raises, when the CLI exits
non-zero, or when a check on its output fails.  Checks compare against
``oracle`` (computed apart from loopdet) or against properties the method
must have; they run after the pass timer stops.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math

import numpy as np

import oracle as O
import spans

#: The reference device of the README, spelled out so that the INI files and
#: the oracle use the same numbers without reading loopdet's defaults.
REFERENCE = dict(t0=0.92, theta=0.955, tl=0.94, eta=0.6, r=0.446,
                 dark_prob_per_bin=2e-7, afterpulse_prob=8e-3,
                 afterpulse_decay_ns=200.0, dead_time_ns=50.0,
                 loop_delay_ns=60.0, bin_width_ns=5.0, duty_factor_q=0.17)
N_BINS = 1024  # simulate-tof's default acquisition window
HERALD_CHANNELS = 15
RULES = ("exactly-one", "one-or-more", "first-channel-only")


class Failure:
    """Stands in for the output of an operation that raised or exited non-zero."""

    def __init__(self, message: str):
        self.message = message


def run_ops(ops) -> dict:
    """Run a pass's operations in order; this is the timed region."""
    results = {}
    for name, call, _ in ops:
        try:
            results[name] = call(results)
        except (Exception, SystemExit) as exc:
            results[name] = Failure(f"{type(exc).__name__}: {exc}")
    return results


def check_ops(ops, results) -> dict:
    """Problems per operation: {name: (message, wrong_output)}."""
    problems = {}
    for name, _, check in ops:
        value = results[name]
        if isinstance(value, Failure):
            problems[name] = (value.message, False)
            continue
        try:
            found = check(value, results)
        except Exception as exc:  # a check that cannot run is a failed check
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems[name] = ("; ".join(found), True)
    return problems


def close(value, expected, rel, what):
    """[] when value matches expected to relative tolerance rel, else a message."""
    value, expected = np.asarray(value, float), np.asarray(expected, float)
    if value.shape == expected.shape and np.allclose(value, expected, rtol=rel, atol=0.0):
        return []
    return [f"{what}: {value!r} != {expected!r}"]


def num(x) -> str:
    """A float as text that parses back to the same value."""
    return repr(float(x))


def sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


class Workload:
    """Base: per-pass device and file layout shared by all workloads."""

    name = ""

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        # By module path: the package attribute loopdet.postselect is the
        # function of that name, not the module.
        self.lp = {m: importlib.import_module(f"loopdet.{m}") for m in
                   ("cli", "device", "clickstats", "montecarlo", "postselect")}

    def rng(self, i):
        return np.random.default_rng([self.seed, i])

    def device(self, rng) -> dict:
        """Device of a pass: the reference with r and tl moved slightly."""
        dev = dict(REFERENCE)
        dev["r"] = REFERENCE["r"] + rng.uniform(-4e-3, 4e-3)
        dev["tl"] = REFERENCE["tl"] + rng.uniform(-2e-3, 2e-3)
        return dev

    def write_ini(self, dev) -> str:
        path = self.out / "device.ini"
        path.write_text("[device]\n" + "".join(f"{k} = {num(v)}\n" for k, v in dev.items()))
        return str(path)

    def params(self, dev):
        """loopdet DeviceParams of a device dict."""
        kw = {k: v for k, v in dev.items() if k != "r"}
        return self.lp["device"].reference_device(r=dev["r"], **kw)

    def h(self, dev, n):
        return O.channel_h(dev["t0"], dev["theta"], dev["tl"], dev["eta"], dev["r"], n)

    def cli(self, argv) -> str:
        """Run one CLI command; return its stdout, raise on a non-zero exit."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lp["cli"].main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def mu_grid(self, rng):
        return 0.5 + rng.uniform(-0.01, 0.01), 5.0 + rng.uniform(-0.05, 0.05)

    def herald_profile_op(self, dev, params):
        """Operation building the 15-channel herald profile, checked against h_k."""
        def call(_):
            return self.lp["device"].channel_transmissions(params).truncated(HERALD_CHANNELS)

        def check(profile, _):
            total = O.total_h(dev["t0"], dev["theta"], dev["tl"], dev["eta"], dev["r"])
            h = self.h(dev, HERALD_CHANNELS)
            return (close(profile.h, h, 1e-12, "h_k")
                    + close(profile.remainder, total - h.sum(), 1e-9, "remainder"))
        return ("profile", call, check)

    # Interface of a workload.
    def inputs(self, i) -> dict:
        raise NotImplementedError

    def operations(self, inp) -> list:
        raise NotImplementedError

    def fingerprint(self, inp, results) -> dict:
        """Digests of every output of a pass, for the reproducibility checks."""
        raise NotImplementedError

    def run(self, inp) -> dict:
        """Run one pass's operations outside the timed loop."""
        return run_ops(self.operations(inp))

    def repro_ops(self, inp, fingerprint) -> list:
        """Untimed reproducibility operations run once per run."""
        return []


class Tof(Workload):
    """simulate-tof at the README's size, then the empirical click pmf."""

    name = "tof"
    trials = 1_000_000

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        # The CLI does not return its SimulationResult; this hook keeps it so
        # that the empirical pmf is taken from the same run.  It looks
        # run_simulation up at call time, so a traced run goes through the
        # tracer's wrapper.
        self.captured = []
        mc = self.lp["montecarlo"]

        def run_and_keep(*args, **kwargs):
            result = mc.run_simulation(*args, **kwargs)
            self.captured.append(result)
            return result
        self.lp["cli"].run_simulation = run_and_keep

    def inputs(self, i):
        rng = self.rng(i)
        dev = self.device(rng)
        return dict(dev=dev, ini=self.write_ini(dev),
                    mu=2.13 + rng.uniform(-5e-3, 5e-3),
                    mc_seed=int(rng.integers(2 ** 32)),
                    json=str(self.out / "tof.json"))

    def operations(self, inp):
        self.captured.clear()
        argv = ["simulate-tof", "--config", inp["ini"], "--seed", str(inp["mc_seed"]),
                "--mu", num(inp["mu"]), "--trials", str(self.trials),
                "--workers", "1", "--format", "json", "--out", inp["json"]]

        def simulate(_):
            stdout = self.cli(argv)
            return stdout, self.captured.pop()

        def pmf(res):
            return self.lp["montecarlo"].empirical_click_distribution(
                res["simulate-tof"][1], n_channels=HERALD_CHANNELS)

        return [("simulate-tof", simulate, lambda v, _: self.check_events(inp, v[1])),
                ("empirical-pmf", pmf, lambda v, _: self.check_pmf(inp, v))]

    def allowance(self, dev, p_click):
        """Largest share of pulses whose channel-k click noise can suppress.

        A channel click is lost only if another click registered less than a
        dead time before it.  Other channel clicks sit a loop delay (> dead
        time) apart, so the culprit is a dark count (at most
        n_bins * p_dark per pulse) or an afterpulse of channel k - m, whose
        delay must lie in [max(dead, m*loop - dead), m*loop].
        """
        dark = N_BINS * dev["dark_prob_per_bin"]
        dead, loop, tau = dev["dead_time_ns"], dev["loop_delay_ns"], dev["afterpulse_decay_ns"]
        out = np.full(p_click.size, dark)
        for k in range(1, p_click.size):
            for m in range(1, k + 1):
                lo, hi = max(dead, m * loop - dead), m * loop
                out[k] += (dev["afterpulse_prob"] * p_click[k - m]
                           * (math.exp(-lo / tau) - math.exp(-hi / tau)))
        return out

    def check_events(self, inp, res):
        dev, n = inp["dev"], self.trials
        found = []
        with open(inp["json"]) as fh:
            hist = json.load(fh)
        counts = np.array(hist["counts"])
        if hist["meta"]["n_trials"] != n or hist["meta"]["seed"] != inp["mc_seed"]:
            found.append(f"histogram meta {hist['meta']}")
        if counts.sum() + hist["meta"]["overflow"] != res.origin.size:
            found.append(f"histogram holds {counts.sum()} + {hist['meta']['overflow']} "
                         f"clicks, run registered {res.origin.size}")
        bins = np.floor(res.time_ns / dev["bin_width_ns"]).astype(np.int64)
        if not np.array_equal(counts, np.bincount(bins[(bins >= 0) & (bins < N_BINS)],
                                                  minlength=N_BINS)):
            found.append("histogram counts differ from the binned click times")
        order = np.lexsort((res.time_ns, res.pulse))
        pulse, time = res.pulse[order], res.time_ns[order]
        gaps = np.diff(time)[pulse[1:] == pulse[:-1]]
        if gaps.size and gaps.min() < dev["dead_time_ns"]:
            found.append(f"two clicks of a pulse {gaps.min()} ns apart")
        # Channel-origin click rate per channel against 1 - exp(-mu h_k).
        h = self.h(dev, HERALD_CHANNELS)
        expect = -np.expm1(-inp["mu"] * h)
        rate = np.bincount(res.origin[res.origin > 0],
                           minlength=HERALD_CHANNELS + 1)[1:HERALD_CHANNELS + 1] / n
        sigma = np.sqrt(expect * (1.0 - expect) / n)
        low = expect - self.allowance(dev, expect) - O.N_SIGMA * sigma
        high = expect + O.N_SIGMA * sigma
        bad = np.nonzero((rate < low) | (rate > high))[0]
        if bad.size:
            found.append(f"channel rates {rate[bad]} outside [{low[bad]}, {high[bad]}] "
                         f"for k = {bad + 1}")
        return found

    def check_pmf(self, inp, emp):
        dev, n = inp["dev"], self.trials
        pmf = emp.distribution.p_click
        found = [] if pmf.size == HERALD_CHANNELS + 1 else [f"pmf has {pmf.size} entries"]
        found += close(pmf.sum(), 1.0, 1e-12, "pmf sum")
        # Only a dark count (or its afterpulse) can add an in-window click to
        # a pulse with no photon in channels 1..15, or hide its first photon.
        p0 = math.exp(-inp["mu"] * self.h(dev, HERALD_CHANNELS).sum())
        band = (N_BINS * dev["dark_prob_per_bin"]
                + O.N_SIGMA * math.sqrt(p0 * (1.0 - p0) / n))
        if not O.within(emp.p0, p0, band):
            found.append(f"empirical p0 {emp.p0} vs e^(-mu T15) = {p0} +- {band}")
        return found

    def fingerprint(self, inp, results):
        res = results["simulate-tof"][1]
        with open(inp["json"], "rb") as fh:
            histogram = fh.read()
        return {"events": sha(res.pulse, res.time_ns, res.origin, res.n_photons),
                "counts": spans.mc_counts([res]),
                "histogram": sha(histogram),
                "pmf": sha(results["empirical-pmf"].distribution.p_click)}

    def repro_ops(self, inp, fingerprint):
        """The README's promise: the event arrays do not depend on workers."""
        lp = self.lp

        def call(_):
            res = lp["montecarlo"].run_simulation(
                lp["clickstats"].PhotonSource.poissonian(inp["mu"]),
                self.params(inp["dev"]), self.trials, inp["mc_seed"], workers=2)
            return sha(res.pulse, res.time_ns, res.origin, res.n_photons)

        def check(digest, _):
            same = digest == fingerprint["events"]
            return [] if same else ["workers=2 events differ from workers=1"]
        return [("workers-2-identity", call, check)]


class Herald(Workload):
    """The README's postselect example for all three rules, plus the
    Poisson mixture through custom_click_distribution."""

    name = "herald"

    def inputs(self, i):
        rng = self.rng(i)
        dev = self.device(rng)
        lo, hi = self.mu_grid(rng)
        return dict(dev=dev, params=self.params(dev), ini=self.write_ini(dev),
                    grid=f"{num(lo)}:{num(hi)}:10", lo=lo, hi=hi,
                    mu_custom=4.26 + rng.uniform(-0.01, 0.01),
                    files={rule: str(self.out / f"{rule}.json") for rule in RULES})

    def operations(self, inp):
        ops = [self.herald_profile_op(inp["dev"], inp["params"])]
        for rule in RULES:
            argv = ["postselect", "--config", inp["ini"], "--mu-grid", inp["grid"],
                    "--rule", rule, "--format", "json", "--out", inp["files"][rule]]
            ops.append((f"postselect:{rule}", lambda _, a=argv: self.cli(a),
                        lambda v, res, r=rule: self.check_rule(inp, r)))
        cs = self.lp["clickstats"]
        ops.append(("custom", lambda res: cs.custom_click_distribution(
            cs.PhotonSource.poissonian(inp["mu_custom"]), res["profile"]),
            lambda v, _: self.check_custom(inp, v)))
        return ops

    def rows(self, inp, rule):
        with open(inp["files"][rule]) as fh:
            return json.load(fh)

    def check_rule(self, inp, rule):
        rows = self.rows(inp, rule)
        h = self.h(inp["dev"], HERALD_CHANNELS)
        found = close([r["mu"] for r in rows], np.linspace(inp["lo"], inp["hi"], 10),
                      1e-14, "mu grid")
        for row in rows:
            mu = row["mu"]
            pmf = O.poisson_pmf(mu, O.poisson_cutoff(mu))
            joint = pmf * O.acceptance(rule, h, pmf.size - 1)
            cm_in, cm_out = O.content(pmf), O.content(joint)
            found += close([row["cm_in"], row["cm_out"], row["w_M"], row["herald_rate"]],
                           [cm_in, cm_out, cm_out / cm_in, joint.sum()], 1e-9,
                           f"{rule} at mu = {mu}")
        if rule == "exactly-one":
            other = self.rows(inp, "one-or-more")
            if not all(a["cm_out"] < b["cm_out"] for a, b in zip(rows, other)):
                found.append("exactly-one cm_out not below one-or-more at every mu")
        return found

    def check_custom(self, inp, dist):
        c = -np.expm1(-inp["mu_custom"] * self.h(inp["dev"], HERALD_CHANNELS))
        expect = O.poisson_binomial(c)
        if dist.p_click.shape == expect.shape and np.abs(dist.p_click - expect).max() <= 1e-10:
            return []
        return [f"Poisson mixture {dist.p_click} != Poisson-binomial {expect}"]

    def fingerprint(self, inp, results):
        out = {}
        for rule in RULES:
            with open(inp["files"][rule], "rb") as fh:
                out[rule] = sha(fh.read())
        out["custom"] = sha(results["custom"].p_click)
        return out


class HeraldMC(Workload):
    """Monte Carlo herald acceptance (exactly-one) and postselection with
    that table over a mu grid."""

    name = "herald_mc"
    n_max = 20
    trials = 20_000

    def inputs(self, i):
        rng = self.rng(i)
        dev = self.device(rng)
        lo, hi = self.mu_grid(rng)
        return dict(dev=dev, params=self.params(dev), grid=np.linspace(lo, hi, 10),
                    mc_seed=int(rng.integers(2 ** 32)))

    def operations(self, inp):
        ps, cs = self.lp["postselect"], self.lp["clickstats"]
        ops = [self.herald_profile_op(inp["dev"], inp["params"]),
               ("acceptance-mc", lambda _: ps.herald_acceptance_from_mc(
                   inp["params"], self.n_max, "exactly-one", self.trials,
                   inp["mc_seed"], n_channels=HERALD_CHANNELS, workers=1),
                lambda v, _: self.check_acceptance(inp, v))]
        for j, mu in enumerate(inp["grid"]):
            ops.append((f"postselect[{j}]", lambda res, mu=mu: ps.postselect(
                cs.PhotonSource.poissonian(mu), res["profile"], rule="exactly-one",
                n_max=self.n_max, acceptance=res["acceptance-mc"]),
                lambda v, res, mu=mu: self.check_postselect(mu, v, res["acceptance-mc"])))
        return ops

    def check_acceptance(self, inp, acc):
        dev, n = inp["dev"], self.trials
        if acc.shape != (self.n_max + 1,):
            return [f"acceptance table has shape {acc.shape}"]
        h = self.h(dev, HERALD_CHANNELS)
        expect = O.acceptance("exactly-one", h, self.n_max)
        ns = np.arange(self.n_max + 1)
        # A pulse whose outcome noise changed holds a dark count (at most
        # n_bins * p_dark per pulse, each with at most one afterpulse) or an
        # afterpulse of one of its channel clicks in channels 1..15.
        clicks = (1.0 - (1.0 - h[:, None]) ** ns).sum(axis=0)
        noise = (N_BINS * dev["dark_prob_per_bin"] * (1.0 + dev["afterpulse_prob"])
                 + dev["afterpulse_prob"] * clicks)
        sigma = np.sqrt(np.maximum(expect * (1.0 - expect), 1.0 / n) / n)
        bad = np.nonzero(np.abs(acc - expect) > noise + O.N_SIGMA * sigma)[0]
        if bad.size:
            return [f"acceptance {acc[bad]} vs closed form {expect[bad]} at n = {bad}"]
        return []

    def check_postselect(self, mu, res, acc):
        pmf = O.poisson_pmf(mu, self.n_max)
        joint = pmf * acc
        cm_in, cm_out = O.content(pmf), O.content(joint)
        return close([res.cm_in, res.cm_out, res.w_M, res.herald_rate],
                     [cm_in, cm_out, cm_out / cm_in, joint.sum()], 1e-9,
                     f"postselect at mu = {mu}")

    def fingerprint(self, inp, results):
        out = {"acceptance": sha(results["acceptance-mc"])}
        for j in range(len(inp["grid"])):
            r = results[f"postselect[{j}]"]
            out[f"postselect[{j}]"] = sha(np.array([r.cm_in, r.cm_out, r.w_M, r.herald_rate]),
                                          r.conditioned_pmf)
        return out


class Design(Workload):
    """Many small CLI calls: channel table, ratio sweep, optimize, c_M curve
    and loss calibration."""

    name = "design"

    def inputs(self, i):
        rng = self.rng(i)
        dev = self.device(rng)
        lo, hi = self.mu_grid(rng)
        t0, theta, tl, eta, r = (dev[k] for k in ("t0", "theta", "tl", "eta", "r"))
        total = O.total_h(t0, theta, tl, eta, r)
        return dict(dev=dev, ini=self.write_ini(dev), lo=lo, hi=hi,
                    sweep=(0.3 + rng.uniform(-5e-3, 5e-3), 0.6 + rng.uniform(-5e-3, 5e-3)),
                    H=self.h(dev, 7) / total, total=total,
                    files={k: str(self.out / f"{k}.{ext}") for k, ext in
                           (("channels", "json"), ("sweep", "csv"),
                            ("cm-curve", "json"), ("calibrate", "csv"))})

    def operations(self, inp):
        f, ini, dev = inp["files"], inp["ini"], inp["dev"]
        commands = {
            "channels": ["channels", "--config", ini, "--n-channels", "6",
                         "--format", "json", "--out", f["channels"]],
            "sweep": ["channels", "--config", ini, "--n-channels", "6", "--r-sweep",
                      ":".join(map(num, inp["sweep"])) + ":31", "--out", f["sweep"]],
            "optimize": ["optimize", "--config", ini],
            "cm-curve": ["cm-curve", "--config", ini, "--mu-grid",
                         f"{num(inp['lo'])}:{num(inp['hi'])}:10", "--format", "json",
                         "--out", f["cm-curve"]],
            "calibrate": ["calibrate", "--channels", ",".join(map(num, inp["H"])),
                          "--t-over-eta", num(inp["total"] / dev["eta"]),
                          "--theta", num(dev["theta"]), "--out", f["calibrate"]],
        }
        checks = {"channels": self.check_channels, "sweep": self.check_sweep,
                  "optimize": self.check_optimize, "cm-curve": self.check_cm,
                  "calibrate": self.check_calibrate}
        return [(name, lambda _, a=argv: self.cli(a),
                 lambda out, _, c=checks[name]: c(inp, out))
                for name, argv in commands.items()]

    def losses(self, dev):
        return dev["t0"], dev["theta"], dev["tl"], dev["eta"]

    def check_channels(self, inp, _):
        with open(inp["files"]["channels"]) as fh:
            rows = json.load(fh)
        h = np.array([row["h_k"] for row in rows])
        expect = self.h(inp["dev"], 6)
        return (close(h[:-1], expect, 1e-12, "h_k")
                + close(h.sum(), inp["total"], 1e-12, "sum(h) + remainder")
                + close([row["H_k"] for row in rows[:-1]], expect / inp["total"], 1e-12, "H_k"))

    def check_sweep(self, inp, _):
        with open(inp["files"]["sweep"], newline="") as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        found = close([row["r"] for row in rows], np.linspace(*inp["sweep"], 31),
                      1e-14, "r grid")
        for row in rows:
            H = np.array([row[f"H_{k}"] for k in range(1, 7)])
            h = O.channel_h(*self.losses(inp["dev"]), row["r"], 6)
            total = O.total_h(*self.losses(inp["dev"]), row["r"])
            found += close(H, h / total, 1e-12, f"H_k at r = {row['r']}")
            found += close(H.sum() + row["H_rest"], 1.0, 1e-12, f"sum of H at r = {row['r']}")
        return found

    def check_optimize(self, inp, stdout):
        values = dict(line.split(" = ") for line in stdout.splitlines())
        r_star, e_star = float(values["r_star"]), float(values["e_star"].split()[0])
        r_scan, e_scan = O.entropy_argmax(*self.losses(inp["dev"]))
        found = []
        # The program refines to 1e-5 and prints 6 decimals.
        if not O.within(r_star, r_scan, 2e-5):
            found.append(f"r_star {r_star} vs dense scan {r_scan}")
        if not O.within(e_star, e_scan, 2e-6):
            found.append(f"e_star {e_star} vs dense scan {e_scan}")
        return found

    def check_cm(self, inp, _):
        with open(inp["files"]["cm-curve"]) as fh:
            rows = json.load(fh)
        h = self.h(inp["dev"], HERALD_CHANNELS)
        found = close([r["mu"] for r in rows], np.linspace(inp["lo"], inp["hi"], 10),
                      1e-14, "mu grid")
        for row in rows:
            mu = row["mu"]
            cm_dev, cm_src = O.poisson_cm(mu, h), O.source_cm(mu)
            found += close([row["cm_device"], row["cm_source"], row["ratio"]],
                           [cm_dev, cm_src, cm_dev / cm_src], 1e-10, f"c_M at mu = {mu}")
        return found

    def check_calibrate(self, inp, stdout):
        dev = inp["dev"]
        _, theta, tl, eta = self.losses(dev)
        H = inp["H"]
        # H_(k+1) / (H_k H_1) is rho / H_1 for every k >= 2 (rho = theta tl r);
        # the first-term model then gives tl_hat = (ratio + 1) / (2 theta),
        # which is tl plus the model's known bias.
        ratio = theta * tl * dev["r"] / H[0]
        tl_hat = (ratio + 1.0) / (2.0 * theta)
        t0_hat = inp["total"] / eta * tl_hat / (2.0 * tl_hat * theta - 1.0)
        values = {}
        for line in stdout.splitlines():
            key, _, rest = line.partition(" = ")
            values[key] = float(rest.split(" +- ")[0])
        found = []
        for key, expect in (("ratio_stat", ratio), ("tl_hat", tl_hat), ("t0_hat", t0_hat)):
            if not O.within(values.get(key, math.nan), expect, 6e-5):  # printed to 4 decimals
                found.append(f"{key} {values.get(key)} vs {expect}")
        with open(inp["files"]["calibrate"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        found += close([int(r["k"]) for r in rows], [2, 3, 4, 5, 6], 0.0, "calibration k")
        found += close([float(r["ratio"]) for r in rows], [ratio] * 5, 1e-9, "per-k ratio")
        return found

    def fingerprint(self, inp, results):
        out = {name: sha(results[name].encode()) for name in results}
        for name, path in inp["files"].items():
            with open(path, "rb") as fh:
                out[f"file:{name}"] = sha(fh.read())
        return out


WORKLOADS = {w.name: w for w in (Tof, Herald, HeraldMC, Design)}
