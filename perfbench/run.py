"""tetriqp benchmark: one workload in one process, closed loop, workers=1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --manifest      # rewrite BENCHMARK.json

--trace 0 sets up in this process (and twice more in fresh interpreters, for
the median set-up time), then makes whole rounds of entry-point calls for
at most S seconds (at least one round), checking every result. It reports
trials_per_s (corrected for host speed, see bench.HostClock),
setup_s and peak_rss_mb.

--trace 1 runs round 0 three times, each in a fresh interpreter: traced,
untraced, traced again. It reports the per-layer metrics of the first traced
run and the traced runs' trials_per_s against the untraced run's, and fails
when the results differ between the three or the cited counts do not repeat.
It makes a fixed amount of work, so the counts compare across runs and
commits; --seconds does not apply.

The last line of standard output is the result as one JSON object; the line
before it holds provenance and diagnostics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
RUN_SECONDS = 25
SETUP_PROBES = 2  # fresh-interpreter set-ups besides this process's own
CHILD_BUDGET_S = 170.0  # every child together must end within this

END_TO_END = [
    ("trials_per_s", "trials/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
PER_LAYER = [
    "noise.sample_s", "noise.sample_calls", "noise.faults", "noise.propagate_s", "noise.twirl_s",
    "rng.make_s", "rng.make_calls",
    "harness.trial_s", "harness.trial_calls", "harness.trial_self_s", "harness.reference_s",
    "harness.build_s", "harness.build_calls", "harness.e2e_self_s",
    "decoder.prep_s", "decoder.prep_calls", "decoder.prep_nonzero",
    "decoder.cells_s", "decoder.cells_calls", "decoder.facet_s", "decoder.facet_calls",
    "gf2.explain_s", "gf2.explain_calls", "gf2.clusters", "gf2.greedy_fallbacks",
    "gf2.exact_share", "gf2.table_s",
    "surgery.split_s", "surgery.split_calls", "surgery.build_s",
    "surgery.context_s", "surgery.context_calls",
    "colex.build_s",
    "iqp.exact_s", "iqp.exact_calls", "iqp.tv_s", "iqp.circuit_s",
    "trace.trials", "trace.wall_s", "trace.trials_per_s", "trace.untraced_trials_per_s",
    "trace.slowdown",
]


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("trials_per_s"):
        return "trials/s", "higher"
    if name == "gf2.exact_share":
        return "ratio", "higher"
    if name == "trace.slowdown":
        return "ratio", "lower"
    if name.endswith("_s"):
        return "s", "lower"
    return "count", "lower"


def elapsed() -> float:
    return time.perf_counter() - T0


def rate(trials: int, seconds: float) -> float:
    return trials / seconds if seconds else 0.0  # 0 when every call raised


def untraced(args) -> tuple[dict, dict]:
    import bench

    bench.set_up(args.workload)
    samples = [elapsed()]
    for _ in range(SETUP_PROBES):
        samples.append(bench.child(["setup", args.workload], CHILD_BUDGET_S - elapsed())["setup_s"])
    reference = bench.load_reference()
    clock = bench.HostClock()
    tally = bench.Tally()
    round_rates = []  # trials per busy second of each round, a diagnostic
    start = time.perf_counter()
    while True:
        trials, busy_s, round_start = tally.trials, tally.busy_s, time.perf_counter()
        calls = bench.round_calls(args.workload, args.seed, len(round_rates))
        bench.run_round(calls, tally, reference, clock)
        if not round_rates:
            rss = bench.peak_rss_mb()  # set-up plus one round: the same work every run
        round_rates.append(rate(tally.trials - trials, tally.busy_s - busy_s))
        # whole rounds only, at least one: stop unless another ends within S seconds
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    clock.uninstall()
    bench.check_totals(tally, reference)
    info = {
        "round_trials_per_s": round_rates,
        "trials": tally.trials,
        "busy_s": tally.busy_s,
        "wall_s": clock.wall_s,  # busy_s before the host-speed correction
        "wall_trials_per_s": rate(tally.trials, clock.wall_s),
        "probe_s": statistics.quantiles(clock.probes, n=4),  # host speed, a diagnostic
        "setup_samples_s": samples,
        "e2e_calls": tally.extras,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "trials_per_s": {"value": rate(tally.trials, tally.busy_s), "unit": "trials/s"},
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return result, info


def traced(args) -> tuple[dict, dict]:
    import bench
    from tracer import REPEAT_COUNTS

    passes = []
    for flag in ("1", "0", "1"):  # the untraced pass between the traced ones
        budget = CHILD_BUDGET_S - elapsed()
        passes.append(bench.child(["pass", args.workload, str(args.seed), flag], budget))
    first, plain, second = passes
    same_results = plain["records"] == first["records"] == second["records"]
    mismatched = [c for c in REPEAT_COUNTS if first["layers"][c] != second["layers"][c]]
    if not same_results:
        print("benchmark: traced and untraced results differ", file=sys.stderr)
    if mismatched:
        print(f"benchmark: counts did not repeat: {mismatched}", file=sys.stderr)
    traced_tps = rate(first["trials"] + second["trials"], first["busy_s"] + second["busy_s"])
    untraced_tps = rate(plain["trials"], plain["busy_s"])
    values = dict(first["layers"])
    values.update({
        "trace.trials": first["trials"],
        "trace.wall_s": first["busy_s"],
        "trace.trials_per_s": traced_tps,
        "trace.untraced_trials_per_s": untraced_tps,
        "trace.slowdown": untraced_tps / traced_tps if traced_tps else 0.0,
    })
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0 and same_results and not mismatched,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": layer_unit(name)[0]} for name in PER_LAYER},
    }
    info = {
        "results_identical": same_results,
        "counts_repeat": not mismatched,
        "repeat_counts": {c: first["layers"][c] for c in REPEAT_COUNTS},
        "e2e_calls": first["extras"],
    }
    return result, info


def run_all(args) -> None:
    """Every workload, each in its own fresh process."""
    import bench

    summary = {}
    for name in bench.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"{name}: {line}" for line in lines[:-1]))
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    import bench

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in bench.WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": layer_unit(n)[0], "better": layer_unit(n)[1]} for n in PER_LAYER
        ],
    }


def main() -> None:
    import bench  # imports tetriqp: part of set-up, which T0 started timing

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*bench.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args()
    if args.manifest:
        (HERE.parent / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        run_all(args)
        return
    result, info = (traced if args.trace else untraced)(args)
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"provenance": bench.provenance(args.workload, args.seed, args.seconds, args.trace), **info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
