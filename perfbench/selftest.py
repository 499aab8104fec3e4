"""Checks of the benchmark itself (not part of the repository's test suite).

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

They show that the output check rejects wrong values and that tracing
changes no result.
"""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
from tetriqp import harness  # noqa: E402
from tetriqp.noise import NoiseModel  # noqa: E402
from tracer import REPEAT_COUNTS, Tracer  # noqa: E402

REFERENCE = bench.load_reference()


def _expected_rate(call: dict) -> harness.RateEstimate:
    """A RateEstimate with every count at its reference mean."""
    ref = REFERENCE["rates"][bench.rate_key(call["L"], call["k"], call["epsilon"])]
    n = call["trials"]
    counts = {f: round(ref[f] * n / ref["trials"]) for f in bench.RATE_FIELDS}
    lo, hi = harness.wilson_interval(counts["failures"], n)
    return harness.RateEstimate(
        call["L"], call["k"], call["epsilon"], n, counts["failures"],
        counts["failures"] / n, lo, hi,
        counts["merge_noncorrectable"], counts["prep_noncorrectable"], counts["corrupted"],
    )


def _doubled(good: harness.RateEstimate) -> harness.RateEstimate:
    """good with exactly twice its failures: a decoder that doubles the rate."""
    fails = 2 * good.failures
    lo, hi = harness.wilson_interval(fails, good.trials)
    return dataclasses.replace(good, failures=fails, rate=fails / good.trials, ci_low=lo, ci_high=hi)


def test_rate_check_accepts_reference_and_rejects_wrong_values():
    for w in ("single_shot", "chain_k4"):
        for call in bench.round_calls(w, 1, 0):
            good = _expected_rate(call)
            assert bench.check(call, good, REFERENCE) == []
            assert any("failures" in p for p in bench.check(call, _doubled(good), REFERENCE)), call
            assert bench.check(call, dataclasses.replace(good, trials=1), REFERENCE)


def test_summed_counts_catch_what_single_calls_miss():
    # ten small calls at twice the L=5 failure rate: each passes on its own,
    # the run's total does not, and all ten count as failed
    call = bench.rate_call(5, 1, 0.005, 4000)
    tally = bench.Tally()
    for i in range(10):
        c = call | {"seed": i}
        broken = _doubled(_expected_rate(c))
        assert bench.check(c, broken, REFERENCE) == []
        bench.record(tally, c, broken, REFERENCE)
    assert tally.failed == 0
    bench.check_totals(tally, REFERENCE)
    assert tally.failed == 10

    tally = bench.Tally()
    for i in range(10):
        c = call | {"seed": i}
        bench.record(tally, c, _expected_rate(c), REFERENCE)
    bench.check_totals(tally, REFERENCE)
    assert tally.failed == 0


def test_host_clock_divides_by_the_probed_slowdown():
    call = bench.rate_call(3, 1, 0.005, 300) | {"seed": 5}
    plain = bench.as_record(bench.invoke(call))
    probe = bench.probe
    bench.probe = lambda: 2 * bench.PROBE_REF_S  # a host at half speed
    clock = bench.HostClock()
    try:
        tally = bench.Tally()
        bench.run_round([call], tally, REFERENCE, clock)
    finally:
        clock.uninstall()
        bench.probe = probe
    assert tally.records == [plain] and tally.failed == 0
    assert len(clock.probes) > 2
    assert abs(tally.busy_s - clock.wall_s / 2) < 1e-9


def test_e2e_check_rejects_wrong_values():
    call = bench.round_calls("e2e_tv", 1, 0)[0]
    result = bench.invoke(call)
    assert bench.check(call, result, REFERENCE) == []
    wrong = {"eps_bar": 0.5, "depth": 4, "tv": 1.0, "trials": 599}
    for field, value in wrong.items():
        problems = bench.check(call, dataclasses.replace(result, **{field: value}), REFERENCE)
        assert problems, field


def test_tracing_changes_no_result():
    e2e = bench.e2e_call(8, 1.0, 3, 0.015, 20, 5)
    calls = [
        bench.rate_call(3, 1, 0.02, 300) | {"seed": 5},
        e2e | {"seed": bench.circuit_seed(e2e, 9)},
    ]
    plain = [bench.as_record(bench.invoke(c)) for c in calls]
    tracer = Tracer().install()
    try:
        traced = [bench.as_record(bench.invoke(c)) for c in calls]
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = tracer.layer_metrics((0, 0.0, 0, 0.0))
    assert layers["harness.trial_calls"] == 300 + 20 * 8
    assert layers["harness.build_calls"] == 2
    assert layers["surgery.context_calls"] == 2
    assert layers["iqp.exact_calls"] >= 1
    assert all(layers[c] > 0 for c in REPEAT_COUNTS if c != "gf2.greedy_fallbacks")
    assert harness.ChainSim.__dict__["build"].__func__.__name__ == "build"


def test_manifest_is_current():
    import json

    import run

    assert json.loads((bench.ROOT / "BENCHMARK.json").read_text()) == run.manifest()


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
