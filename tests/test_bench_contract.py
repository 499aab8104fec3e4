"""The benchmark keeps working on the program.

perfbench/tracer.py wraps program functions by name from outside; a refactor
that renames or bypasses one of them leaves its span empty or breaks the
traced run. This checks that a traced run returns exactly the untraced
results and that the pipeline's main layers are all seen. perfbench/bench.py
calls the program's entry points by name too; a round of each workload's own
calls must pass the benchmark's output checks.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tetriqp import harness
from tetriqp.harness import ChainSim, ExperimentConfig
from tetriqp.noise import NoiseModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # bench.py's dataclasses look their module up
    spec.loader.exec_module(module)
    return module


bench = _perfbench_module("bench")


def _run():
    est = harness.logical_error_rate(3, 2, NoiseModel(0.02), 50, seed=1)
    cfg = ExperimentConfig(n=2, epsilon=0.02, gamma=1.0, trials=20, seed=3, L=3)
    return est, harness.end_to_end(cfg)


def test_traced_run_matches_untraced_and_enters_every_layer():
    # each run starts cold, with new simulators and so empty decode memos,
    # as the benchmark's traced pass does in its own interpreter; the cache
    # is cleared before install, whose wrapper of `build` has no cache_clear
    ChainSim.build.cache_clear()
    want = _run()
    ChainSim.build.cache_clear()
    tracer = _perfbench_module("tracer").Tracer().install()
    try:
        got = _run()
    finally:
        tracer.uninstall()
    assert got == want
    for span in ("surgery.split", "decoder.prep", "decoder.facet", "harness.trial"):
        assert tracer.calls[span] > 0, span


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_benchmark_round_passes_its_checks(workload):
    # round 0 at benchmark seed 1, set up and checked as the benchmark does
    bench.set_up(workload)
    reference = bench.load_reference()
    tally = bench.Tally()
    bench.run_round(bench.round_calls(workload, 1, 0), tally, reference)
    bench.check_totals(tally, reference)
    assert tally.attempted == len(bench.WORKLOADS[workload]["calls"])
    assert tally.failed == 0
