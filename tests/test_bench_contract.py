"""The benchmark under bench/ still runs against this source tree.

One pass of each workload, with the Monte Carlo workloads shrunk, goes
through the benchmark's own ``run_ops`` and ``check_ops``, so a change to
the API the benchmark calls fails here and not only in a benchmark run.
"""

from pathlib import Path

import pytest

import loopdet.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: Class attributes that shrink a workload's Monte Carlo runs.
SMALL = {"tof": {"trials": 20_000}, "herald_mc": {"trials": 2_000}}


@pytest.mark.parametrize("name", ["tof", "herald", "herald_mc", "design"])
def test_one_pass_passes_its_checks(monkeypatch, tmp_path, name):
    # The tof workload replaces loopdet.cli.run_simulation with a hook that
    # keeps each result; monkeypatch puts the original back afterwards.
    monkeypatch.setattr(loopdet.cli, "run_simulation", loopdet.cli.run_simulation)
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    base = workloads.WORKLOADS[name]
    workload = type(base.__name__, (base,), SMALL.get(name, {}))(1, tmp_path)
    ops = workload.operations(workload.inputs(1))
    assert workloads.check_ops(ops, workloads.run_ops(ops)) == {}
