"""The benchmark under bench/ still runs against this source tree.

One pass of each workload, with the Monte Carlo workloads shrunk, goes
through the benchmark's own ``run_ops`` and ``check_ops``, so a change to
the API the benchmark calls fails here and not only in a benchmark run.
"""

import sys
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


def test_trace_mode_wraps_every_layer_and_restores_it(monkeypatch, tmp_path):
    # Only a traced run looks up the names in spans.LAYERS, so a function
    # that moves out of the module the bench names breaks --trace 1 alone.
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "loopdet"]
    before = [(m, attr, value) for m in modules for attr, value in vars(m).items()]
    tracer = spans.Tracer()
    try:  # an install that fails half way is undone too
        tracer.install()
        for layer, names in spans.LAYERS.items():
            module = sys.modules[f"loopdet.{layer}"]
            for name in names:
                assert hasattr(getattr(module, name), "__wrapped__"), f"{layer}.{name}"
        base = workloads.WORKLOADS["herald_mc"]
        workload = type(base.__name__, (base,), SMALL["herald_mc"])(1, tmp_path)
        ops = workload.operations(workload.inputs(1))
        assert workloads.check_ops(ops, workloads.run_ops(ops)) == {}
        assert "postselect.herald_acceptance_from_mc" in {span[0] for span in tracer.spans}
        assert tracer.end_pass()["postselect.herald_acceptance_from_mc_s"] > 0.0
    finally:
        tracer.uninstall()
    assert all(getattr(m, attr) is value for m, attr, value in before)
