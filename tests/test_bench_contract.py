"""The benchmark's per-layer run keeps working on the program.

perfbench/tracer.py wraps program functions by name from outside; a refactor
that renames or bypasses one of them leaves its span empty or breaks the
traced run. This checks that a traced run returns exactly the untraced
results and that the pipeline's main layers are all seen.
"""

import importlib.util
from pathlib import Path

from tetriqp import harness
from tetriqp.harness import ChainSim, ExperimentConfig
from tetriqp.noise import NoiseModel

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    tracer = _tracer_module().Tracer().install()
    try:
        got = _run()
    finally:
        tracer.uninstall()
    assert got == want
    for span in ("surgery.split", "decoder.prep", "decoder.facet", "harness.trial"):
        assert tracer.calls[span] > 0, span
