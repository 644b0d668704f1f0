"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions listed in ``LAYERS``.  It
finds every loopdet module attribute bound to such a function, so names a
module imported directly (``cli`` -> ``run_simulation``, ``postselect`` ->
``fock_click_distribution``, ``entropy`` -> ``channel_transmissions``) are
wrapped as well.  Each call records a span [name, start_ns, end_ns, parent
index]; spans stay in memory, one list per pass, and are written as JSON
when the run ends.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

LAYERS = {
    "cli": ("main",),
    "config": ("load_config",),
    "device": ("channel_transmissions",),
    "entropy": ("optimize_ratio", "shannon_entropy"),
    "clickstats": ("poisson_click_distribution", "fock_click_distribution",
                   "custom_click_distribution"),
    "postselect": ("wm_curve", "postselect", "acceptance_probability",
                   "herald_acceptance_from_mc"),
    "montecarlo": ("run_simulation", "empirical_click_distribution",
                   "accumulate_histogram", "histogram_to_json"),
    "calibrate": ("calibrate_from_channels",),
}

#: Inclusive time per pass of these spans, reported as "<span>_s".
TIMED = ("cli.main", "config.load_config", "device.channel_transmissions",
         "entropy.optimize_ratio", "clickstats.poisson_click_distribution",
         "clickstats.fock_click_distribution",
         "clickstats.custom_click_distribution", "postselect.wm_curve",
         "postselect.postselect", "postselect.acceptance_probability",
         "postselect.herald_acceptance_from_mc", "montecarlo.run_simulation",
         "montecarlo.empirical_click_distribution",
         "montecarlo.accumulate_histogram", "montecarlo.histogram_to_json",
         "calibrate.calibrate_from_channels")

#: Calls per pass of these spans, reported as "<span>_calls".
COUNTED = ("device.channel_transmissions", "entropy.shannon_entropy",
           "clickstats.poisson_click_distribution",
           "clickstats.fock_click_distribution",
           "postselect.acceptance_probability", "montecarlo.run_simulation")

MC_COUNTS = ("pulses", "photons", "clicks", "dark_clicks", "afterpulse_clicks",
             "noisy_pulses")


def mc_counts(results) -> dict:
    """Work counts of Monte Carlo runs, taken from their outputs."""
    out = dict.fromkeys(MC_COUNTS, 0)
    for res in results:
        noise = res.origin <= 0
        out["pulses"] += res.n_trials
        out["photons"] += int(res.n_photons.sum())
        out["clicks"] += int(res.origin.size)
        out["dark_clicks"] += int((res.origin == 0).sum())
        out["afterpulse_clicks"] += int((res.origin == -1).sum())
        out["noisy_pulses"] += int(np.unique(res.pulse[noise]).size)
    return out


class Tracer:
    def __init__(self):
        self.passes: list[list] = []   # spans of each traced pass
        self.spans: list[list] = []    # spans of the current pass
        self._stack: list[int] = []
        self._mc_results: list = []    # run_simulation outputs of the pass
        self._fock_n: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if name == "montecarlo.run_simulation":
                self._mc_results.append(out)
            elif name == "clickstats.fock_click_distribution":
                self._fock_n.append(int(args[0] if args else kwargs["n"]))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "loopdet" or key.startswith("loopdet.")]
        for layer, names in LAYERS.items():
            mod = sys.modules[f"loopdet.{layer}"]
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def end_pass(self) -> dict:
        """Close the current pass; return its per-layer values."""
        spans = list(self.spans)
        self.passes.append(spans)
        self.spans.clear()
        durations = dict.fromkeys(TIMED, 0.0)
        calls = dict.fromkeys(COUNTED, 0)
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if name in durations:
                durations[name] += (end - start) * 1e-9
            if name in calls:
                calls[name] += 1
            if parent >= 0:
                child_ns[parent] += end - start
        cli_self = sum(end - start - child_ns[i]
                       for i, (name, start, end, _) in enumerate(spans)
                       if name == "cli.main") * 1e-9
        values = {f"{name}_s": v for name, v in durations.items()}
        values.update({f"{name}_calls": v for name, v in calls.items()})
        values["cli.self_s"] = cli_self
        values["clickstats.fock_max_photons"] = max(self._fock_n, default=0)
        counts = mc_counts(self._mc_results)
        values.update({f"montecarlo.{k}": v for k, v in counts.items()})
        values["montecarlo.clicks_per_photon"] = (
            (counts["clicks"] - counts["dark_clicks"] - counts["afterpulse_clicks"])
            / counts["photons"] if counts["photons"] else 0.0)
        mc_s = durations["montecarlo.run_simulation"]
        values["montecarlo.pulses_per_s"] = counts["pulses"] / mc_s if mc_s else 0.0
        self._mc_results.clear()
        self._fock_n.clear()
        return values

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "passes": self.passes}, fh)


def is_count(metric: str) -> bool:
    """Counts are reported from the first traced pass, so they repeat
    exactly for a fixed seed; all other values are medians over passes."""
    return (metric.endswith("_calls") or metric == "clickstats.fock_max_photons"
            or metric.startswith("montecarlo.") and not metric.endswith("_s"))


def unit(metric: str) -> str:
    if metric == "montecarlo.pulses_per_s":
        return "1/s"
    if metric == "montecarlo.clicks_per_photon":
        return "ratio"
    return "s" if metric.endswith("_s") else "count"


def summarize(per_pass: list[dict]) -> dict:
    first = per_pass[0]
    return {m: (first[m] if is_count(m)
                else statistics.median(p[m] for p in per_pass))
            for m in first}
