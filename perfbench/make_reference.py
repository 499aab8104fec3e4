"""Regenerate reference.json, the values the benchmark checks results against.

    python3 perfbench/make_reference.py

Rates come from long logical_error_rate runs; the TV band from end_to_end
runs on many circuits of the benchmark's shape. All seeds sit far from the
benchmark's own. Takes about ten minutes on one core.
"""

import json
import statistics
import sys
import time

import bench
from tetriqp import harness
from tetriqp.noise import NoiseModel

REF_SEED = 2**48
RATE_TRIALS = {  # (L, k, epsilon) -> trials
    (3, 1, 0.005): 200_000,
    (5, 1, 0.005): 400_000,
    (5, 4, 0.01): 16_000,
    (3, 5, 0.015): 60_000,  # chains of the e2e_tv workload
}
TV_CIRCUITS = 30


def main() -> None:
    out = {"rates": {}, "tv": {}}
    for i, ((L, k, eps), trials) in enumerate(RATE_TRIALS.items()):
        start = time.perf_counter()
        est = harness.logical_error_rate(L, k, NoiseModel(eps), trials, REF_SEED + i)
        out["rates"][bench.rate_key(L, k, eps)] = {
            "trials": trials, **{f: getattr(est, f) for f in bench.RATE_FIELDS}
        }
        print(f"{bench.rate_key(L, k, eps)}: {est} ({time.perf_counter() - start:.0f} s)", file=sys.stderr)
    for w in bench.WORKLOADS.values():
        for call in w["calls"]:
            if call["entry"] != "end_to_end":
                continue
            tvs = []
            for i in range(TV_CIRCUITS):
                seed = bench.circuit_seed(call, REF_SEED + 1000 * (i + 1))
                tvs.append(bench.invoke({**call, "seed": seed}).tv)
            key = f"n={call['n']},depth={call['depth']},trials={call['trials']}"
            out["tv"][key] = {
                "circuits": TV_CIRCUITS, "mean": statistics.mean(tvs), "sd": statistics.stdev(tvs)
            }
            print(f"{key}: {out['tv'][key]}", file=sys.stderr)
    (bench.HERE / "reference.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
