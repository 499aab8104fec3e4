"""Fresh-interpreter helpers of run.py; each prints one JSON line.

    python3 perfbench/child.py setup WORKLOAD
        Seconds from this script's start, through the tetriqp import, to the
        workload's simulators being built.
    python3 perfbench/child.py pass WORKLOAD SEED TRACED
        Set-up, then round 0 of the workload once, traced when TRACED is 1:
        the results, the trial count, the busy seconds and, when traced, the
        per-layer metrics of set-up plus the round.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> None:
    mode, workload = argv[0], argv[1]
    import bench

    if mode == "setup":
        bench.set_up(workload)
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return

    seed, traced = int(argv[2]), argv[3] == "1"
    calls = bench.round_calls(workload, seed, 0)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
    bench.set_up(workload)
    builds_before = tracer.builds() if tracer else None
    tally = bench.Tally()
    reference = bench.load_reference()
    bench.run_round(calls, tally, reference)
    bench.check_totals(tally, reference)
    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "trials": tally.trials,
        "busy_s": tally.busy_s,
        "records": tally.records,
        "extras": tally.extras,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(builds_before)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
