"""Minimum-weight decoders for the prepare / merge / split-then-decode pipeline.

Every decoder here is a view on one gf2.SyndromeDecoder, shared by all users
of the same checks: minimum weight with deterministic (lowest-int) tie
breaks from a lookup table when there are at most 16 checks. Otherwise a
pruned depth-first search solves each syndrome cluster and returns the first
minimum-weight combination of its candidate columns in lexicographic order;
where a plain enumeration of those combinations would exceed its work budget
the cluster takes a deterministic greedy fallback instead: column by column,
the one that leaves the fewest violated checks, all columns scored at once
by a numpy popcount of their packed signatures. That budget is
kept only so that decodes stay bit-identical until an exact decoder replaces
the search (ROADMAP.md, item 1). Cluster decodes are memoised per decoder,
up to gf2.MEMO_MAX of them, by the simulator's memo rule (`gf2.remember`).
The joint data-plus-measurement preparation decode always searches.

Simulation runs in the Pauli difference frame: preparation decodes the face
syndrome of the faults, merges decode the pair word they flip, and a trial
fails when the decoded logical of the outcome flips is 1. A noiseless outcome
lies in ker(Hx) and adds no syndrome to any decoder, so the decoded logical is
affine in the outcomes, and that is the event that the noisy outcome decodes
differently from the noiseless one.
"""

from __future__ import annotations

from . import gf2
from .colex import FacetCode
from .rng import make_rng  # noqa: F401  perfbench/tracer.py patches decoder.make_rng
from .surgery import Block


class FacetDecoder:
    """Minimum-weight decoder for a triangular (2D color code) facet."""

    def __init__(self, fc: FacetCode):
        self.logical = fc.logical
        self.checks = gf2.SyndromeDecoder.of(
            tuple(gf2.vector_from_support(f) for f in fc.faces), fc.n
        )

    def decode(self, word: int) -> tuple[int, int]:
        """(logical bit, minimum-weight correction) for a measured pair word."""
        corr, _ = self.checks.decode(self.checks.syndrome(word))
        x = ((word ^ corr) & self.logical).bit_count() & 1
        return x, corr


class BlockDecoder:
    """Preparation (face syndrome) and final (cell syndrome) decoders."""

    def __init__(self, block: Block):
        code = block.code
        self.faces = gf2.SyndromeDecoder.of(code.hz.rows, code.n, meas_cols=True)
        self.cells = gf2.SyndromeDecoder.of(code.hx.rows, code.n)
        self.lx = code.logical_x

    def decode_prep(self, syndrome: int) -> tuple[int, int]:
        """Joint minimum-weight (data X pattern, measurement flips)."""
        return self.faces.decode(syndrome)

    def decode_cells(self, syndrome: int) -> int:
        """Minimum-weight Z-error hypothesis for violated cells."""
        zhat, _ = self.cells.decode(syndrome)
        return zhat
