"""Per-layer spans and counters, patched around tetriqp's layers from outside.

Installing a Tracer replaces selected functions and methods of the program
with wrappers that time each call as a span and pass arguments and results
through untouched, so a traced run draws exactly the random numbers an
untraced run draws. Spans nest: a span's self time is its duration minus the
time of the spans opened inside it.

Where the program binds a function by name (``from .noise import propagate``)
the wrapper is installed in the importing module's namespace; where it looks
the name up at call time (``surgery.split_frame``, ``gf2.syndrome_table``,
``colex.build_tetrahedral_colex``, ``iqp.schedule_depth``) it is installed
in the defining module.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from tetriqp import colex, decoder, gf2, harness, iqp, noise, surgery


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # span name -> summed wall seconds
        self.self_time = defaultdict(float)  # span name -> seconds minus child spans
        self.calls = Counter()  # span name -> completed calls
        self.counts = Counter()  # counter name -> count
        self._stack = []  # open spans: [child seconds]
        self._patches = []  # (owner, attribute, original)
        self._reference_pending = False

    def wrap(self, name, fn, after=None):
        """fn timed as span `name` (a string, or a function giving the name
        at call time); after(args, result) runs once the span has closed."""
        total, self_time, calls, stack = self.total, self.self_time, self.calls, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name()
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                total[span] += dt
                self_time[span] += dt - child[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, after))
        else:
            replacement = self.wrap(name, original, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> "Tracer":
        sim = harness.ChainSim

        def count_faults(args, faults):
            self.counts["noise.faults"] += len(faults)

        def count_nonzero_prep(args, result):
            self.counts["decoder.prep_nonzero"] += args[1] != 0

        def reference_sampled(args, result):
            self._reference_pending = True

        def decode_name():
            # run_trial decodes the reference outcomes right after sampling them
            if self._reference_pending:
                self._reference_pending = False
                return "harness.reference_decode"
            return "harness.decode"

        self.patch(harness, "sample_iid_faults", "noise.sample", count_faults)
        self.patch(harness, "propagate", "noise.propagate")
        self.patch(harness, "twirl_mask", "noise.twirl")
        for module in (harness, noise, decoder):
            self.patch(module, "make_rng", "rng.make")
        self.patch(sim, "run_trial", "harness.trial")
        self.patch(sim, "sample_reference", "harness.reference_sample", reference_sampled)
        self.patch(sim, "_decode", decode_name)
        self.patch(sim, "build", "harness.build")
        self.patch(harness, "end_to_end", "harness.e2e")
        self.patch(decoder.BlockDecoder, "decode_prep", "decoder.prep", count_nonzero_prep)
        self.patch(decoder.BlockDecoder, "decode_cells", "decoder.cells")
        self.patch(decoder.FacetDecoder, "decode", "decoder.facet")
        self.patch(gf2.MinWeightExplainer, "solve", "gf2.explain")
        self.patch(gf2.MinWeightExplainer, "_solve_cluster", "gf2.cluster")
        self.patch(gf2.MinWeightExplainer, "_greedy", "gf2.greedy")
        self.patch(gf2, "syndrome_table", "gf2.table")
        self.patch(surgery, "split_frame", "surgery.split")
        self.patch(surgery.SplitContext, "__init__", "surgery.context")
        self.patch(harness, "build_tetrahelix", "surgery.build")
        self.patch(colex, "build_tetrahedral_colex", "colex.build")
        self.patch(harness, "exact_distribution", "iqp.exact")
        self.patch(harness, "empirical_tv", "iqp.tv")
        self.patch(harness, "sample_circuit", "iqp.circuit")
        self.patch(iqp, "schedule_depth", "iqp.circuit")
        return self

    def builds(self) -> tuple[int, float, int, float]:
        """(calls, seconds) of ChainSim.build, then of SplitContext, so far."""
        t, c = self.total, self.calls
        return c["harness.build"], t["harness.build"], c["surgery.context"], t["surgery.context"]

    def layer_metrics(self, builds_before: tuple[int, float, int, float]) -> dict[str, float]:
        """Per-layer numbers; harness.build_* and surgery.context_* count only
        the builds after builds_before was taken, that is inside the timed
        phase."""
        t, s, c = self.total, self.self_time, self.calls
        clusters, greedy = c["gf2.cluster"], c["gf2.greedy"]
        rebuilt = [now - before for now, before in zip(self.builds(), builds_before)]
        return {
            "noise.sample_s": t["noise.sample"],
            "noise.sample_calls": c["noise.sample"],
            "noise.faults": self.counts["noise.faults"],
            "noise.propagate_s": t["noise.propagate"],
            "noise.twirl_s": t["noise.twirl"],
            "rng.make_s": t["rng.make"],
            "rng.make_calls": c["rng.make"],
            "harness.trial_s": t["harness.trial"],
            "harness.trial_calls": c["harness.trial"],
            "harness.trial_self_s": s["harness.trial"],
            "harness.reference_s": t["harness.reference_sample"] + t["harness.reference_decode"],
            "harness.build_s": rebuilt[1],
            "harness.build_calls": rebuilt[0],
            "harness.e2e_self_s": s["harness.e2e"],
            "decoder.prep_s": t["decoder.prep"],
            "decoder.prep_calls": c["decoder.prep"],
            "decoder.prep_nonzero": self.counts["decoder.prep_nonzero"],
            "decoder.cells_s": t["decoder.cells"],
            "decoder.cells_calls": c["decoder.cells"],
            "decoder.facet_s": t["decoder.facet"],
            "decoder.facet_calls": c["decoder.facet"],
            "gf2.explain_s": t["gf2.explain"],
            "gf2.explain_calls": c["gf2.explain"],
            "gf2.clusters": clusters,
            "gf2.greedy_fallbacks": greedy,
            "gf2.exact_share": (clusters - greedy) / clusters if clusters else 0.0,
            "gf2.table_s": t["gf2.table"],
            "surgery.split_s": t["surgery.split"],
            "surgery.split_calls": c["surgery.split"],
            "surgery.build_s": s["surgery.build"],
            "surgery.context_s": rebuilt[3],
            "surgery.context_calls": rebuilt[2],
            "colex.build_s": t["colex.build"],
            "iqp.exact_s": t["iqp.exact"],
            "iqp.exact_calls": c["iqp.exact"],
            "iqp.tv_s": t["iqp.tv"],
            "iqp.circuit_s": t["iqp.circuit"],
        }


# Counts a later change may cite: they must repeat exactly for a fixed seed.
REPEAT_COUNTS = (
    "rng.make_calls",
    "noise.faults",
    "gf2.explain_calls",
    "gf2.clusters",
    "gf2.greedy_fallbacks",
    "harness.build_calls",
)
