"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload tof --seeds 1-10 [--seconds 15] [--trace 0]

For each metric it prints the median over the runs and the distance
between the first and third quartiles as a share of the median, the
figure BENCHMARK.json's bounds are compared with.  Runs go one after
another, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import quartile_spread

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="range, e.g. 1-10")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: " + " ".join(l for l in lines if l.startswith("workload ")))
        print(f"  correct {result['correct']}, {result['failed']}/{result['attempted']} failed, "
              + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
                          if not args.trace == "1" or k.endswith("_s")), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"failed share over runs: {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if med:
            print(f"{name}: median {med:.6g}, quartile spread {quartile_spread(vals):.2%}, "
                  f"min {min(vals):.6g}, max {max(vals):.6g}")
        else:
            print(f"{name}: median {med:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
