"""Workloads, set-up, output checks and provenance of the tetriqp benchmark.

Importing this module imports tetriqp from the checkout's ``src/`` directory
(never an installed copy), so the benchmark always measures the code it sits
next to. A checkout without ``src/tetriqp`` stops the import with an error.

A workload is a fixed list of entry-point calls, one *round*. Call ``i`` of
round ``r`` draws its seed from (benchmark seed, r, i), so the same benchmark
seed gives the same calls, and every round uses fresh random streams.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_INIT = ROOT / "src" / "tetriqp" / "__init__.py"
if not _INIT.is_file():
    raise SystemExit(f"benchmark: no tetriqp source at {_INIT.parent}")
sys.path.insert(0, str(_INIT.parent.parent))

import numpy as np  # noqa: E402

import tetriqp  # noqa: E402
from tetriqp import harness, iqp, surgery  # noqa: E402
from tetriqp.noise import NoiseModel  # noqa: E402

if Path(tetriqp.__file__).resolve() != _INIT.resolve():
    raise SystemExit(f"benchmark: imported tetriqp from {tetriqp.__file__}, not {_INIT}")

# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def rate_call(L: int, k: int, epsilon: float, trials: int) -> dict:
    return {"entry": "logical_error_rate", "L": L, "k": k, "epsilon": epsilon, "trials": trials}


def e2e_call(n: int, gamma: float, L: int, epsilon: float, trials: int, depth: int) -> dict:
    """end_to_end on an n-qubit circuit whose schedule depth (= chain length k)
    is fixed, so every seed runs the same pipeline shape."""
    return {
        "entry": "end_to_end", "n": n, "gamma": gamma, "L": L,
        "epsilon": epsilon, "trials": trials, "depth": depth,
    }


# Call sizes follow the program's own callers, as far as one run can hold a
# round: criterion 9 runs 100k trials per call at L=3 and L=5, criterion 11
# 2500 samples at n=8, and ExperimentConfig defaults to 1000 trials. Every
# call rebuilds its ChainSim, so the smaller a call, the more of its time is
# that rebuild; README.md gives the rebuild share at these sizes and at the
# callers' sizes.
WORKLOADS = {
    "single_shot": {
        "why": "k=1, eps=0.005 at L=3 and L=5 (criterion 9): per-trial Python overhead "
        "(fault sampling, generators, reference decode) dominates, decoder search is small",
        "sims": [(1, 3), (1, 5)],
        "calls": [rate_call(3, 1, 0.005, 25_000), rate_call(5, 1, 0.005, 25_000)],
    },
    "chain_k4": {
        "why": "k=4, L=5, eps=0.01 tetrahelix chain: the software split and its "
        "chain-syndrome explainer dominate; the only workload decoding 3 merges",
        "sims": [(4, 5)],
        "calls": [rate_call(5, 4, 0.01, 2500)],
    },
    "e2e_tv": {
        "why": "end_to_end with n=8, gamma=1, L=3, eps=0.015 (criterion 11): the only "
        "workload using iqp and running N chains of depth k=5 per sample",
        "sims": [(5, 3)],
        "calls": [e2e_call(8, 1.0, 3, 0.015, 2500, 5)],
    },
}

MAX_CIRCUIT_TRIES = 1000


def round_calls(workload: str, seed: int, r: int) -> list[dict]:
    """The calls of round r, each with its seed filled in."""
    calls = []
    for i, call in enumerate(WORKLOADS[workload]["calls"]):
        call_seed = seed * 1_000_000 + r * 1000 + i * 100
        if call["entry"] == "end_to_end":
            call_seed = circuit_seed(call, call_seed)
        calls.append({**call, "seed": call_seed})
    return calls


def circuit_seed(call: dict, start: int) -> int:
    """First seed from start on whose sampled circuit has the call's depth."""
    for s in range(start, start + MAX_CIRCUIT_TRIES):
        circuit = iqp.sample_circuit(call["n"], call["gamma"], s)
        if iqp.schedule_depth(circuit)[0] == call["depth"]:
            return s
    raise RuntimeError(f"no depth-{call['depth']} circuit in {MAX_CIRCUIT_TRIES} seeds from {start}")


def invoke(call: dict):
    """One entry-point call, exactly as the CLI's mc and e2e commands make it."""
    if call["entry"] == "logical_error_rate":
        return harness.logical_error_rate(
            call["L"], call["k"], NoiseModel(call["epsilon"]), call["trials"], call["seed"],
            workers=1,
        )
    cfg = harness.ExperimentConfig(
        n=call["n"], gamma=call["gamma"], L=call["L"], epsilon=call["epsilon"],
        trials=call["trials"], seed=call["seed"], workers=1, max_k=8,
    )
    return harness.end_to_end(cfg)


def set_up(workload: str) -> list:
    """Build the simulator of every (k, L) the workload uses, with the split
    context its first split would otherwise build lazily."""
    sims = [harness.ChainSim.build(k, L) for k, L in WORKLOADS[workload]["sims"]]
    for sim in sims:
        surgery.get_split_context(sim.t)
    return sims


def as_record(result) -> dict:
    """JSON-ready form of a RateEstimate or EndToEndResult (floats exact)."""
    return json.loads(json.dumps(dataclasses.asdict(result)))


# ---------------------------------------------------------------------------
# Output checks against reference.json
# ---------------------------------------------------------------------------

# A count x over n trials passes when |x - n*m| <= Z*sqrt(n*v*(1 + n/N)) + SLACK,
# m being the reference count per trial measured over N trials, and v the
# same with a reference count of 0 taken as 1 (so a rare event never seen in
# the reference still gets a tolerance). The n/N term is the reference's own
# error. Each call is checked, and so are the counts summed over all calls of
# a run per (L, k, epsilon), whose relative tolerance shrinks with the run's
# trials: that total is what catches a decoder that merely doubles a small
# failure rate. Z = 5 keeps false alarms near one in a million per check,
# and holds across a change of seeded streams, which changes the sample, not
# the rates.
Z = 5.0
SLACK = 3.0
RATE_FIELDS = ("failures", "merge_noncorrectable", "prep_noncorrectable", "corrupted")


def rate_key(L: int, k: int, epsilon: float) -> str:
    return f"L={L},k={k},eps={epsilon:g}"


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _count_problem(name: str, x: float, n: int, ref: dict, field: str) -> str | None:
    m = ref[field] / ref["trials"]
    v = max(ref[field], 1) / ref["trials"]
    tol = Z * math.sqrt(n * v * (1 + n / ref["trials"])) + SLACK
    if abs(x - n * m) > tol:
        return f"{name}: {x:g} outside {n * m:.1f} +- {tol:.1f} over {n} trials"
    return None


def counts(call: dict, result) -> tuple[str, dict]:
    """(reference key, {"trials": n, field: count}) of one call's result. An
    end_to_end call contributes its corrupted chains, trials * n of them,
    each a chain of length depth."""
    if call["entry"] == "logical_error_rate":
        key = rate_key(call["L"], call["k"], call["epsilon"])
        return key, {"trials": call["trials"], **{f: getattr(result, f) for f in RATE_FIELDS}}
    chains = call["trials"] * call["n"]
    key = rate_key(call["L"], call["depth"], call["epsilon"])
    return key, {"trials": chains, "corrupted": round(result.eps_bar * chains)}


def check_counts(key: str, got: dict, reference: dict) -> list[str]:
    """Problems with counts over got["trials"] trials against the reference."""
    ref = reference["rates"][key]
    problems = (
        _count_problem(f, got[f], got["trials"], ref, f) for f in RATE_FIELDS if f in got
    )
    return [p for p in problems if p]


def check(call: dict, result, reference: dict) -> list[str]:
    """Problems with one call's result; empty when it is right."""
    problems = []
    if call["entry"] == "logical_error_rate":
        want = (call["L"], call["k"], call["epsilon"], call["trials"])
        got = (result.L, result.k, result.epsilon, result.trials)
        if got != want:
            problems.append(f"echoed (L, k, epsilon, trials) {got} != {want}")
        if result.rate != result.failures / call["trials"]:
            problems.append(f"rate {result.rate} != failures / trials")
        # 1e-12: Wilson bounds at 0 or n failures carry float rounding
        if not result.ci_low - 1e-12 <= result.rate <= result.ci_high + 1e-12:
            problems.append(f"rate {result.rate} outside [{result.ci_low}, {result.ci_high}]")
        return problems + check_counts(*counts(call, result), reference)

    want = (call["n"], call["epsilon"], call["trials"], call["depth"])
    got = (result.n, result.epsilon, result.trials, result.depth)
    if got != want:
        problems.append(f"echoed (n, epsilon, trials, depth) {got} != {want}")
        return problems
    problems += check_counts(*counts(call, result), reference)
    tv_ref = reference["tv"][f"n={call['n']},depth={call['depth']},trials={call['trials']}"]
    if abs(result.tv - tv_ref["mean"]) > Z * tv_ref["sd"]:
        problems.append(f"tv {result.tv:.4f} outside {tv_ref['mean']:.4f} +- {Z * tv_ref['sd']:.4f}")
    if not 0.0 <= result.ci_low <= result.ci_high <= 1.0:
        problems.append(f"tv interval [{result.ci_low}, {result.ci_high}] malformed")
    return problems


# ---------------------------------------------------------------------------
# Running calls
# ---------------------------------------------------------------------------


# Host-speed correction. The shared host this runs on slows every process on
# it by up to 2x, in episodes from under a second to minutes, and the same
# call then takes up to twice as long. So during each entry-point call an
# interval timer interrupts the program every PROBE_PERIOD_S to run a short
# fixed probe; the signal handler runs between two bytecodes of the main
# thread, so the program draws the same numbers. Each stretch of program
# time between two probes is divided by the host slowdown around it: the
# median of the four nearest probes (robust to a probe that was itself
# pre-empted) over PROBE_REF_S, near the probe's time on a quiet 2-vCPU
# Xeon VM. The probes' own time is left out. The probe is a gauge, not a
# model: parts of the program slow by somewhat other factors than the probe,
# which README.md quantifies.
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 1.2e-3


def probe() -> float:
    """Seconds of a fixed piece of work that the program never changes: a
    Python loop and numpy generator construction, a trial's own mix."""
    start = time.perf_counter()
    x = 0
    for i in range(8000):
        x = (x * 31 + i) & 0xFFFF
    for j in range(20):
        x ^= int(np.random.default_rng(j).integers(0, 2, 32).sum())
    return time.perf_counter() - start


def corrected_seconds(stretches: list[float], probes: list[float]) -> float:
    """Stretch i ran between probes i and i+1; each is divided by the
    slowdown that the probes i-1 .. i+2 show."""
    total = 0.0
    for i, stretch in enumerate(stretches):
        near = statistics.median(probes[max(i - 1, 0):i + 3])
        total += stretch * PROBE_REF_S / near
    return total


class HostClock:
    """Host-speed corrected seconds of the entry-point calls (see above)."""

    def __init__(self):
        self.busy_s = 0.0  # corrected
        self.wall_s = 0.0  # as measured, probes left out
        self.probes = []  # every probe of the timed phase, a diagnostic
        self._stretches, self._call_probes = [], []
        self._mark = 0.0
        self._timing = False  # a call is being timed; the handler ignores a late signal otherwise
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> None:
        self._stretches, self._call_probes = [], [probe()]
        self._mark = time.perf_counter()
        self._timing = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> float:
        """Corrected seconds of the call since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._timing = False
        self._tick()
        self.probes += self._call_probes
        self.wall_s += sum(self._stretches)
        seconds = corrected_seconds(self._stretches, self._call_probes)
        self.busy_s += seconds
        return seconds

    def _on_alarm(self, _signum, _frame) -> None:
        if self._timing:
            self._timing = False  # no nested tick when a probe outlasts the period
            self._tick()
            self._timing = True

    def _tick(self) -> None:
        self._stretches.append(time.perf_counter() - self._mark)
        self._call_probes.append(probe())
        self._mark = time.perf_counter()


@dataclasses.dataclass
class Tally:
    """Closed-loop accounting: one caller, the next call after the last returns."""

    attempted: int = 0
    failed: int = 0
    trials: int = 0
    busy_s: float = 0.0  # summed seconds of the completed entry-point calls
    records: list = dataclasses.field(default_factory=list)
    extras: list = dataclasses.field(default_factory=list)  # per e2e call: seed, depth
    # reference key -> counts summed over the calls that passed their own check
    totals: dict = dataclasses.field(default_factory=dict)
    passed: dict = dataclasses.field(default_factory=dict)  # reference key -> such calls


def run_round(calls: list[dict], tally: Tally, reference: dict, clock: HostClock | None = None) -> None:
    """Make the calls; with a clock, busy_s counts host-speed corrected seconds."""
    for call in calls:
        tally.attempted += 1
        if clock:
            clock.start()
        start = time.perf_counter()
        try:
            result = invoke(call)
        except Exception:  # a failed operation; the loop goes on
            tally.failed += 1
            print(f"benchmark: call {call} raised\n{traceback.format_exc()}", file=sys.stderr)
            tally.records.append(None)
            if clock:
                clock.stop()
            continue
        if clock:
            tally.busy_s += clock.stop()
        else:
            tally.busy_s += time.perf_counter() - start
        record(tally, call, result, reference)


def record(tally: Tally, call: dict, result, reference: dict) -> None:
    """Account for one call's result and check it."""
    tally.trials += call["trials"]
    tally.records.append(as_record(result))
    if call["entry"] == "end_to_end":
        tally.extras.append({"seed": call["seed"], "depth": result.depth})
    problems = check(call, result, reference)
    if problems:
        tally.failed += 1
        print(f"benchmark: call {call} failed its check: {problems}", file=sys.stderr)
        return
    key, got = counts(call, result)
    total = tally.totals.setdefault(key, dict.fromkeys(got, 0))
    for field, x in got.items():
        total[field] += x
    tally.passed[key] = tally.passed.get(key, 0) + 1


def check_totals(tally: Tally, reference: dict) -> None:
    """Check the run's summed counts; the calls behind a total that fails
    count as failed, since no single one of them can be blamed."""
    for key, got in tally.totals.items():
        problems = check_counts(key, got, reference)
        if problems:
            tally.failed += tally.passed[key]
            print(f"benchmark: summed counts of {key} failed their check: {problems}", file=sys.stderr)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(args: list[str], timeout: float) -> dict:
    """Run child.py in a fresh interpreter and return its last output line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": {"sims": WORKLOADS[workload]["sims"], "round_0": round_calls(workload, seed, 0)},
        "tetriqp_version": tetriqp.__version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
