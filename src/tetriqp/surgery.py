"""Lattice-surgery merges of tetrahedral codes into tetrahelix chains.

A merge glues two blocks along a facet: the pair (v, phi(v)) of facet
vertices becomes a weight-2 Z stabilizer, and the X stabilizers whose traces
on the two facets correspond under phi are fused. Chains use mirror-image
copies glued by the identity pairing, with merge j along facet color j mod 4
so that consecutive pairings of a middle block share a lattice edge; cells on
those edges fuse across three blocks and cells on corners across four.

The split used at decode time is software-only: it chooses a product of pair
stabilizers that minimizes the number of per-block cell values equal to -1,
bringing every block back near its own tetrahedral code space.
"""

from __future__ import annotations

import functools
import itertools
import json
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
    """Bijection between the merge facets of two consecutive blocks."""

    block_left: int
    block_right: int
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
    merge_cell_maps: tuple[tuple[tuple[int, int], ...], ...] = ()  # per merge: (left cell, right cell)

    @property
    def L(self) -> int:
        return self.blocks[0].colex.L

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
        """(X-bar, Z-bar, per-block X-bar_i)."""
        xbar = 0
        for x in self.block_logical_x:
            xbar ^= x
        return xbar, self.code.logical_z, self.block_logical_x

    @functools.cached_property
    def split_context(self) -> "SplitContext":
        """The software-split structure of this chain, built on first use."""
        return SplitContext(self)


def mirror(c: Colex) -> tuple[Colex, tuple[int, ...]]:
    """Mirror image of a colex and the vertex bijection onto it.

    Combinatorially the mirror is the same complex; the reflection fixes the
    shared facet pointwise, so the bijection is the identity and the mirror's
    cell colors are unchanged, which is exactly the convention that makes
    merged X stabilizers share a color.
    """
    return c, tuple(range(c.n))


def _facet_traces(colex: Colex, facet_color: int):
    """(facet vertex tuple, {cell index: trace set}) for one facet."""
    fac = colex.facet(facet_color)
    fs = set(fac.vertices)
    traces = {}
    for ci, cell in enumerate(colex.cells):
        t = fs & set(cell.vertices)
        if t:
            traces[ci] = frozenset(t)
    return tuple(sorted(fac.vertices)), traces


def _match_pairing(left: Block, right: Block, facet_color: int, phi) -> tuple[Pairing, dict]:
    """Build the pairing and the fused-cell map for one merge.

    phi maps left-block vertex ids to right-block vertex ids; it must send
    the left facet onto the right facet of the same color, and each left cell
    trace onto exactly one right cell trace.
    """
    lverts, ltraces = _facet_traces(left.colex, facet_color)
    rverts, rtraces = _facet_traces(right.colex, facet_color)
    mapped = [phi[v] for v in lverts]
    if sorted(mapped) != list(rverts):
        raise MergeError(
            f"phi does not map the color-{facet_color} facet onto its mirror"
        )
    pairs = tuple((v, phi[v]) for v in lverts)
    rtrace_to_cell = {t: ci for ci, t in rtraces.items()}
    if len(rtrace_to_cell) != len(rtraces):
        raise MergeError("right block has duplicate facet traces")
    cell_map = {}
    for ci, t in ltraces.items():
        image = frozenset(phi[v] for v in t)
        partner = rtrace_to_cell.get(image)
        if partner is None:
            raise MergeError(f"left cell {ci} trace has no matching right cell")
        if left.colex.cells[ci].color != right.colex.cells[partner].color:
            raise MergeError(f"fused cells {ci}/{partner} differ in color")
        cell_map[ci] = partner
    return Pairing(0, 0, facet_color, pairs), cell_map


def _assemble(blocks, pairings, cell_maps) -> TetrahelixCode:
    k = len(blocks)
    sizes = [b.code.n for b in blocks]
    offsets = [sum(sizes[:i]) for i in range(k)]
    n = sum(sizes)

    def glob(b, v):
        return 1 << (offsets[b] + v)

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

    for b, blk in enumerate(blocks):
        for ci in range(len(blk.colex.cells)):
            parent.setdefault((b, ci), (b, ci))
    for j, cmap in enumerate(cell_maps):
        for ci, cj in cmap.items():
            union((j, ci), (j + 1, cj))

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
            for v in blocks[b].colex.cells[ci].vertices:
                row ^= glob(b, v)
        hx_rows.append(row)
        hx_labels.append(("cells", cls))

    hz_rows, hz_labels = [], []
    for b, blk in enumerate(blocks):
        for fi, f in enumerate(blk.colex.faces):
            row = 0
            for v in f.vertices:
                row ^= glob(b, v)
            hz_rows.append(row)
            hz_labels.append(("face", b, fi))
    for j, pr in enumerate(pairings):
        for pi, (vl, vr) in enumerate(pr.pairs):
            hz_rows.append(glob(j, vl) | glob(j + 1, vr))
            hz_labels.append(("pair", j, pi))

    block_lx = []
    for b, blk in enumerate(blocks):
        x = 0
        for v in gf2.support(blk.code.logical_x):
            x ^= glob(b, v)
        block_lx.append(x)
    lx = 0
    for x in block_lx:
        lx ^= x
    lz = 0
    for v in gf2.support(blocks[0].code.logical_z):
        lz ^= glob(0, v)

    code = CssCode(
        n,
        gf2.BitMatrix.make(hx_rows, n, hx_labels),
        gf2.BitMatrix.make(hz_rows, n, hz_labels),
        lx,
        lz,
    )
    pairings = tuple(
        Pairing(j, j + 1, pr.facet_color, pr.pairs) for j, pr in enumerate(pairings)
    )
    maps = tuple(tuple(sorted(cmap.items())) for cmap in cell_maps)
    return TetrahelixCode(k, tuple(blocks), pairings, fused, code, tuple(block_lx), maps)


def merge(left: Block, right: Block, facet_color: int, phi) -> TetrahelixCode:
    """Merge two blocks along a facet into a 2-tetrahelix code."""
    pairing, cmap = _match_pairing(left, right, facet_color, phi)
    return _assemble([left, right], [pairing], [cmap])


def build_tetrahelix(k: int, L: int, block: Block | None = None) -> TetrahelixCode:
    """Chain of k mirror-image tetrahedral blocks; merge j uses facet j mod 4."""
    if k < 1:
        raise MergeError(f"k must be >= 1, got {k}")
    if block is None:
        from .colex import build_tetrahedral_colex

        block = Block.build(build_tetrahedral_colex(L))
    blocks = [block] * k
    pairings, cell_maps = [], []
    for j in range(k - 1):
        mirrored, phi = mirror(block.colex)
        pairing, cmap = _match_pairing(block, Block(mirrored, block.code), j % 4, phi)
        pairings.append(Pairing(j, j + 1, j % 4, pairing.pairs))
        cell_maps.append(cmap)
    return _assemble(blocks, pairings, cell_maps)


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

    Holds the decoders of the gauge-invariant chain stabilizers (the fused
    cells) and of each block's cells, shared with every code that has the
    same checks, and for every merge a dual basis of pair patterns: rho[c]
    flips exactly the fused pair c (and no other) on both sides of the merge.
    """

    def __init__(self, t: TetrahelixCode):
        self.chain = gf2.SyndromeDecoder.of(t.code.hx.rows, t.code.n)
        self.cells = tuple(
            gf2.SyndromeDecoder.of(b.code.hx.rows, b.code.n) for b in t.blocks
        )
        # per merge: fused pairs in priority order (summits/edges first, then
        # bulk, ties by lowest block then cell id) with their dual patterns
        span_of = {}
        for cls in t.fused_cells:
            s = max(b for b, _ in cls) - min(b for b, _ in cls) + 1
            for member in cls:
                span_of[member] = s
        self.merges = []
        for j, pr in enumerate(t.pairings):
            cell_rows = t.blocks[j].code.hx.rows
            traces = []
            order = sorted(
                t.merge_cell_maps[j],
                key=lambda m: (-span_of[(j, m[0])], j, m[0]),
            )
            for ci, _ in order:
                mask = 0
                for pi, (vl, _) in enumerate(pr.pairs):
                    if cell_rows[ci] >> vl & 1:
                        mask |= 1 << pi
                traces.append(mask)
            m = gf2.BitMatrix.make(traces, len(pr.pairs))
            if gf2.rank(m) != len(traces):
                raise MergeError(
                    f"merge {j}: fused traces are linearly dependent"
                )
            rho = [gf2.solve(m, 1 << i) for i in range(len(traces))]
            self.merges.append((order, rho))


def get_split_context(t: TetrahelixCode) -> SplitContext:
    return t.split_context


def split_frame(t: TetrahelixCode, outcomes: int) -> SplitResult:
    """Frame outcomes with pair stabilizers to re-enter per-block code spaces.

    The frame must not destroy error information, so the gauge sector is
    separated from genuine errors first: the chain's SyndromeDecoder gives a
    minimum-weight hypothesis for the (gauge-invariant) chain syndrome, the
    cell values it predicts are subtracted, and the remaining consistent
    sector is driven to +1 merge by merge through the dual pair patterns of
    the chain's split context - summit and edge classes first, then bulk.
    Only pair products are ever applied, so the chain logical parity is
    untouched; what is left in each block is exactly the per-block image of
    the hypothesis, which the tetrahedral decoders then resolve.
    """
    ctx = t.split_context
    k = t.k
    outs = [t.block_slice(outcomes, b) for b in range(k)]
    zhat, _ = ctx.chain.decode(ctx.chain.syndrome(outcomes))
    zparts = [t.block_slice(zhat, b) for b in range(k)]

    frames = []
    for j, pr in enumerate(t.pairings):
        order, rho = ctx.merges[j]
        cell_rows = t.blocks[j].code.hx.rows
        sigma = 0
        for (ci, _), pattern in zip(order, rho):
            sector = ((outs[j] ^ zparts[j]) & cell_rows[ci]).bit_count() & 1
            if sector:
                sigma ^= pattern
        frames.append(sigma)
        for pi in range(len(pr.pairs)):
            if sigma >> pi & 1:
                vl, vr = pr.pairs[pi]
                outs[j] ^= 1 << vl
                outs[j + 1] ^= 1 << vr

    syndromes = tuple(ctx.cells[b].syndrome(outs[b]) for b in range(k))
    return SplitResult(tuple(outs), syndromes, tuple(frames))


# ---------------------------------------------------------------------------
# File interchange
# ---------------------------------------------------------------------------


def chain_to_dict(t: TetrahelixCode) -> dict:
    from .csscode import code_to_dict

    return {
        "k": t.k,
        "L": t.L,
        "block_colex": colex_to_dict(t.blocks[0].colex),
        "pairings": [
            {
                "block_left": p.block_left,
                "block_right": p.block_right,
                "facet_color": p.facet_color,
                "pairs": [list(x) for x in p.pairs],
            }
            for p in t.pairings
        ],
        "fused_cells": [[list(m) for m in cls] for cls in t.fused_cells],
        "code": code_to_dict(t.code),
        "block_logical_x": [gf2.to_bits(x, t.code.n) for x in t.block_logical_x],
        "merge_cell_maps": [[list(m) for m in cmap] for cmap in t.merge_cell_maps],
    }


def chain_from_dict(d: dict) -> TetrahelixCode:
    from .csscode import code_from_dict

    try:
        k = int(d["k"])
        block_colex = colex_from_dict(d["block_colex"])
        code, _ = code_from_dict(d["code"])
        pairings = tuple(
            Pairing(
                int(p["block_left"]),
                int(p["block_right"]),
                int(p["facet_color"]),
                tuple(tuple(x) for x in p["pairs"]),
            )
            for p in d["pairings"]
        )
        fused = tuple(
            tuple(tuple(m) for m in cls) for cls in d["fused_cells"]
        )
        block_lx = tuple(gf2.from_bits(s) for s in d["block_logical_x"])
        maps = tuple(
            tuple(tuple(m) for m in cmap) for cmap in d["merge_cell_maps"]
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ColexParseError(f"chain file: {e}") from e
    block = Block.build(block_colex, check=False)
    return TetrahelixCode(k, (block,) * k, pairings, fused, code, block_lx, maps)


def export_chain(t: TetrahelixCode, path) -> None:
    Path(path).write_text(json.dumps(chain_to_dict(t), indent=1))


def import_chain(path) -> TetrahelixCode:
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ColexParseError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    return chain_from_dict(d)
