"""Lattice-surgery merges of tetrahedral codes into tetrahelix chains.

A chain is k copies of one block. Merge j glues block j to block j + 1 along
their facets of color j mod 4 by the identity (a mirror image of the block is
the same complex, and the reflection fixes the shared facet pointwise): each
facet vertex v gives the pair (v, v), a weight-2 Z stabilizer on v of both
blocks, and each cell that meets the facet is fused with its copy. Facet
colors cycle so that consecutive pairings of a middle block share a lattice
edge; cells on those edges fuse across three blocks and cells on corners
across four. So k and the block colex fix a chain, and a chain file holds
just those two.

The split used at decode time is software-only: it applies a product of
pair stabilizers, merge by merge, that gives each block the cell syndrome of
its part of the chain decoder's hypothesis, so every block is left with an
error its own tetrahedral decoder can resolve.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from pathlib import Path

from . import gf2
from .colex import Colex, ColexParseError, colex_from_dict, colex_to_dict
from .csscode import CssCode, from_colex


class MergeError(ValueError):
    pass


@dataclass(frozen=True)
class Block:
    colex: Colex
    code: CssCode

    @classmethod
    def build(cls, colex: Colex, check: bool = True) -> "Block":
        return cls(colex, from_colex(colex, check=check))


@dataclass(frozen=True)
class Pairing:
    """Bijection between the merge facets of blocks j and j + 1 for merge j."""

    facet_color: int
    pairs: tuple[tuple[int, int], ...]  # (vertex in left block, vertex in right block)


@dataclass(frozen=True)
class TetrahelixCode:
    k: int
    blocks: tuple[Block, ...]
    pairings: tuple[Pairing, ...]
    fused_cells: tuple[tuple[tuple[int, int], ...], ...]  # classes of (block, cell)
    code: CssCode
    block_logical_x: tuple[int, ...]  # per-block X-bar in global coordinates
    merge_cell_maps: tuple[tuple[tuple[int, int], ...], ...]  # per merge: (left cell, right cell)

    @functools.cached_property
    def block_offsets(self) -> tuple[int, ...]:
        """Global index of each block's first qubit."""
        return tuple(itertools.accumulate((b.code.n for b in self.blocks[:-1]), initial=0))

    def qubit(self, block: int, local: int) -> int:
        return self.block_offsets[block] + local

    def block_offset(self, block: int) -> int:
        return self.block_offsets[block]

    def block_mask(self, block: int) -> int:
        m = self.blocks[block].code.n
        return ((1 << m) - 1) << self.block_offset(block)

    def block_slice(self, v: int, block: int) -> int:
        """Restrict a global bit row to a block, re-indexed locally."""
        m = self.blocks[block].code.n
        return (v >> self.block_offset(block)) & ((1 << m) - 1)

    def max_fusion_span(self) -> int:
        spans = [
            max(b for b, _ in cls) - min(b for b, _ in cls) + 1
            for cls in self.fused_cells
        ]
        return max(spans)

    def chain_logicals(self) -> tuple[int, int, tuple[int, ...]]:
        """(X-bar, Z-bar, per-block X-bar_i); X-bar is the XOR of the X-bar_i."""
        return self.code.logical_x, self.code.logical_z, self.block_logical_x

    @functools.cached_property
    def split_context(self) -> "SplitContext":
        """The software-split structure of this chain, built on first use."""
        return SplitContext(self)


def _identity_pairing(colex: Colex, facet_color: int) -> tuple[Pairing, tuple[int, ...]]:
    """Glue the color-`facet_color` facet of a block to that of its copy by
    the identity: (the pairing of each facet vertex v with v, the cells that
    meet the facet, each fused with its copy). Refuses a block in which two
    cells have the same trace on the facet, as an imported colex may."""
    facet = set(colex.facet(facet_color).vertices)
    traces = {}
    for ci, cell in enumerate(colex.cells):
        t = facet.intersection(cell.vertices)
        if t:
            traces[ci] = frozenset(t)
    if len(set(traces.values())) != len(traces):
        raise MergeError(f"block has duplicate color-{facet_color} facet traces")
    return Pairing(facet_color, tuple((v, v) for v in sorted(facet))), tuple(traces)


def build_tetrahelix(k: int, L: int, block: Block | None = None) -> TetrahelixCode:
    """Chain of k copies of one tetrahedral block; merge j glues facet j mod 4
    of block j to that of block j + 1 by the identity."""
    if k < 1:
        raise MergeError(f"k must be >= 1, got {k}")
    if block is None:
        from .colex import build_tetrahedral_colex

        block = Block.build(build_tetrahedral_colex(L))
    merges = [_identity_pairing(block.colex, j % 4) for j in range(k - 1)]
    m = block.code.n
    n = k * m

    def glob(b, row):
        """A block's bit row in global coordinates."""
        return row << (b * m)

    # union-find over (block, cell)
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for b in range(k):
        for ci in range(len(block.colex.cells)):
            parent.setdefault((b, ci), (b, ci))
    for j, (_, cells) in enumerate(merges):
        for ci in cells:
            union((j, ci), (j + 1, ci))

    classes = {}
    for key in parent:
        classes.setdefault(find(key), []).append(key)
    fused = tuple(
        tuple(sorted(members)) for _, members in sorted(classes.items())
    )

    hx_rows, hx_labels = [], []
    for cls in fused:
        row = 0
        for b, ci in cls:
            row ^= glob(b, block.code.hx.rows[ci])
        hx_rows.append(row)
        hx_labels.append(("cells", cls))

    hz_rows, hz_labels = [], []
    for b in range(k):
        for fi, row in enumerate(block.code.hz.rows):
            hz_rows.append(glob(b, row))
            hz_labels.append(("face", b, fi))
    for j, (pr, _) in enumerate(merges):
        for pi, (vl, vr) in enumerate(pr.pairs):
            hz_rows.append(glob(j, 1 << vl) | glob(j + 1, 1 << vr))
            hz_labels.append(("pair", j, pi))

    block_lx = tuple(glob(b, block.code.logical_x) for b in range(k))
    code = CssCode(
        n,
        gf2.BitMatrix.make(hx_rows, n, hx_labels),
        gf2.BitMatrix.make(hz_rows, n, hz_labels),
        functools.reduce(operator.xor, block_lx),
        block.code.logical_z,
    )
    maps = tuple(tuple((ci, ci) for ci in cells) for _, cells in merges)
    return TetrahelixCode(
        k, (block,) * k, tuple(pr for pr, _ in merges), fused, code, block_lx, maps
    )


# ---------------------------------------------------------------------------
# Software split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitResult:
    block_outcomes: tuple[int, ...]  # per-block outcome bits after the frame
    block_syndromes: tuple[int, ...]  # per-block cell values (bit set = -1)
    frame: tuple[int, ...]  # chosen pair subset per merge (mask over pairs)


class SplitContext:
    """Precomputed structure for the software split of one chain.

    Stores the decoder of the gauge-invariant chain stabilizers (the fused
    cells), `chain`, and the cell decoder of each block, `cells`, both shared
    with every code that has the same checks. For merge j, `merges[j]` holds
    one entry (row, rho, left, right) per cell of block j fused across that
    merge, in the order of `merge_cell_maps[j]`: the cell's row in block j,
    its dual pair pattern rho (a mask over the merge's pairs whose trace
    parity is odd on this cell and even on every other fused cell), and the
    outcome flips that rho makes on blocks j and j + 1.
    """

    def __init__(self, t: TetrahelixCode):
        self.chain = gf2.SyndromeDecoder.of(t.code.hx.rows, t.code.n)
        self.cells = tuple(
            gf2.SyndromeDecoder.of(b.code.hx.rows, b.code.n) for b in t.blocks
        )
        self.merges = []
        for j, pr in enumerate(t.pairings):
            rows = [t.blocks[j].code.hx.rows[ci] for ci, _ in t.merge_cell_maps[j]]
            traces = gf2.BitMatrix.make(
                [
                    gf2.vector_from_support(
                        pi for pi, (vl, _) in enumerate(pr.pairs) if row >> vl & 1
                    )
                    for row in rows
                ],
                len(pr.pairs),
            )
            rhos = gf2.unit_solutions(traces.rows, traces.cols)
            if any(traces.mul_vec(rho) != 1 << c for c, rho in enumerate(rhos)):
                raise MergeError(f"merge {j}: fused traces are linearly dependent")
            entries = []
            for row, rho in zip(rows, rhos):
                pairs = [pr.pairs[pi] for pi in gf2.support(rho)]
                left = gf2.vector_from_support(vl for vl, _ in pairs)
                right = gf2.vector_from_support(vr for _, vr in pairs)
                entries.append((row, rho, left, right))
            self.merges.append(tuple(entries))


def get_split_context(t: TetrahelixCode) -> SplitContext:
    return t.split_context


def split_frame(t: TetrahelixCode, outcomes: int) -> SplitResult:
    """Frame outcomes with pair stabilizers to re-enter per-block code spaces.

    The frame must not destroy error information, so the gauge sector is
    separated from genuine errors first: the chain's SyndromeDecoder gives a
    minimum-weight hypothesis for the (gauge-invariant) chain syndrome. Merge
    by merge, every cell of block j fused across merge j whose value differs
    from the one the hypothesis predicts gets its dual pair pattern; each
    pattern flips that cell alone, so the sectors are read first and the
    patterns XORed in any order. After the last merge, every block has the
    cell syndrome of its part of the hypothesis, which the tetrahedral
    decoders then resolve. Only pair products are ever applied, so the chain
    logical parity is untouched.
    """
    ctx = t.split_context
    k = t.k
    outs = [t.block_slice(outcomes, b) for b in range(k)]
    zhat, _ = ctx.chain.decode(ctx.chain.syndrome(outcomes))

    frames = []
    for j, cells in enumerate(ctx.merges):
        diff = outs[j] ^ t.block_slice(zhat, j)
        sigma = 0
        for row, rho, left, right in cells:
            if (diff & row).bit_count() & 1:
                sigma ^= rho
                outs[j] ^= left
                outs[j + 1] ^= right
        frames.append(sigma)

    syndromes = tuple(ctx.cells[b].syndrome(outs[b]) for b in range(k))
    return SplitResult(tuple(outs), syndromes, tuple(frames))


# ---------------------------------------------------------------------------
# File interchange
# ---------------------------------------------------------------------------


def chain_to_dict(t: TetrahelixCode) -> dict:
    """A chain as a file holds it: k and the block colex, the rest of the
    chain being derived from these by `build_tetrahelix`."""
    return {"k": t.k, "block_colex": colex_to_dict(t.blocks[0].colex)}


def chain_from_dict(d) -> TetrahelixCode:
    """Rebuild a chain from `chain_to_dict`'s two keys through
    `build_tetrahelix`, so an imported chain is consistent by construction.

    A missing or other key (such as the derived fields that earlier versions
    wrote), a k that is not an int >= 1, or a colex that cannot be read or
    merged raises ColexParseError. The block is built unchecked, so a colex
    that breaks the coloring axioms is left for `validate_colex` to report.
    """
    if not isinstance(d, dict):
        raise ColexParseError("chain file: not a JSON object")
    keys = {"k", "block_colex"}
    for what, names in (("unknown", set(d) - keys), ("missing", keys - set(d))):
        if names:
            raise ColexParseError(f"chain file: {what} keys: {', '.join(sorted(names))}")
    k = d["k"]
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ColexParseError(f"chain file: k must be an int >= 1, got {k!r}")
    if not isinstance(d["block_colex"], dict):
        raise ColexParseError("chain file: block_colex is not a JSON object")
    try:
        colex = colex_from_dict(d["block_colex"])
        return build_tetrahelix(k, colex.L, Block.build(colex, check=False))
    except (KeyError, TypeError, ValueError) as e:  # MergeError is a ValueError
        raise ColexParseError(f"chain file: {e}") from e


def export_chain(t: TetrahelixCode, path) -> None:
    Path(path).write_text(json.dumps(chain_to_dict(t), indent=1))


def import_chain(path) -> TetrahelixCode:
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ColexParseError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    return chain_from_dict(d)
