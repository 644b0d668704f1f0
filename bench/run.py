"""loopdet benchmark: run one workload in this process and print its metrics.

    python3 bench/run.py --workload tof --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; loopdet is imported from the checkout's
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

import os

# Before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

#: Fresh interpreters started per run to time set-up; setup_s is their
#: median.  Half run before the warm-up and half after the timed passes:
#: between passes they would leave the next pass cold caches (measured:
#: herald_mc passes 1-9% slower).
SETUP_PROBES = 9

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def import_loopdet() -> float:
    """Import loopdet from the checkout's src/; return the import time."""
    if not (SRC / "loopdet" / "__init__.py").is_file():
        raise SystemExit(f"error: no loopdet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import loopdet
    elapsed = time.perf_counter() - start
    if Path(loopdet.__file__).resolve().parent != SRC / "loopdet":
        raise SystemExit(f"error: imported loopdet from {loopdet.__file__}, not {SRC}")
    return elapsed


def probe(args) -> None:
    """Child of a set-up measurement: get ready for pass 1, then report."""
    import_s = import_loopdet()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, OUT_DIR / "probe" / args.workload).inputs(1)
    print(f"ready {import_s!r}", flush=True)


def time_setup(args) -> tuple[float, float]:
    """Wall time from starting a fresh interpreter to ready, and its import time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or not line.startswith("ready "):
        raise SystemExit(f"error: set-up probe failed with exit code {code}")
    return elapsed, float(line.split()[1])


def fingerprint(wl, inp, results) -> dict:
    """Digests of a pass's outputs; a pass that failed gets none to match."""
    try:
        return wl.fingerprint(inp, results)
    except Exception as exc:
        return {"unavailable": f"{type(exc).__name__}: {exc}"}


def rerun(wl, i) -> dict:
    """Run pass i again, its input files written anew; return its fingerprint."""
    inp = wl.inputs(i)
    return fingerprint(wl, inp, wl.run(inp))


def trace_differences(traced: dict, untraced: dict, layer_values: dict) -> list:
    """Outputs of pass 1 that differ between the traced and untraced runs,
    and Monte Carlo counts where the tracer disagrees with the outputs."""
    found = [f"{key} differs with tracing off"
             for key in sorted(set(traced) | set(untraced))
             if traced.get(key) != untraced.get(key)]
    for name, count in untraced.get("counts", {}).items():
        if layer_values[f"montecarlo.{name}"] != count:
            found.append(f"traced montecarlo.{name} {layer_values[f'montecarlo.{name}']} "
                         f"!= {count} from the untraced outputs")
    return found


def pin_to_one_cpu() -> int:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Tally:
    """Attempted and failed operations of a run."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def add(self, ops, problems):
        """Count a round of operations and the problems check_ops found."""
        self.attempted += len(ops)
        self.failed += len(problems)
        for name, (message, wrong) in problems.items():
            self.wrong += wrong
            print(f"FAILED {name}: {message[:400]}", file=sys.stderr)


def quartile_spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tof", "herald", "herald_mc", "design"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args)
        return 0

    cpu = pin_to_one_cpu()
    import_loopdet()
    import spans
    import workloads

    setup = [time_setup(args) for _ in range(SETUP_PROBES // 2)]
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR / args.workload)
    tally = Tally()

    ops = wl.operations(wl.inputs(0))           # warm-up pass, untimed
    tally.add(ops, workloads.check_ops(ops, workloads.run_ops(ops)))

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    pass_s, layers = [], []
    start = time.perf_counter()
    i = 1
    while True:
        inp = wl.inputs(i)
        ops = wl.operations(inp)
        gc.collect()
        t0 = time.perf_counter()
        results = workloads.run_ops(ops)
        pass_s.append(time.perf_counter() - t0)
        if tracer:
            layers.append(tracer.end_pass())
        tally.add(ops, workloads.check_ops(ops, results))
        if i == 1:
            first_inp, first_fp = inp, fingerprint(wl, inp, results)
        del results, ops
        if time.perf_counter() - start >= args.seconds:
            break
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_PROBES:
        setup.append(time_setup(args))

    # Untimed reproducibility checks.
    repro = wl.repro_ops(first_inp, first_fp)
    if tracer:
        tracer.uninstall()
        repro.append(("trace-on-off-identity", lambda _: rerun(wl, 1),
                      lambda fp, _: trace_differences(first_fp, fp, layers[0])))
    tally.add(repro, workloads.check_ops(repro, workloads.run_ops(repro)))

    setup_s = statistics.median(s for s, _ in setup)
    print(f"workload {args.workload} seed {args.seed} cpu {cpu}: {len(pass_s)} passes, "
          f"pass_s median {statistics.median(pass_s):.6g} s, within-run spread "
          f"{quartile_spread(pass_s):.3%}; setup_s samples "
          f"{', '.join(f'{s:.4f}' for s, _ in setup)}")
    print("pass_s samples " + ", ".join(f"{t:.6f}" for t in pass_s))
    if tracer:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"spans written to {path}")
        values = spans.summarize(layers)
        values["setup.import_s"] = statistics.median(imp for _, imp in setup)
        metrics = {name: {"value": value, "unit": spans.unit(name)}
                   for name, value in values.items()}
    else:
        values = {"setup_s": setup_s, "pass_s": statistics.median(pass_s),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
