"""Lattice-surgery merges of tetrahedral codes into tetrahelix chains.

A chain is k copies of one block. Merge j glues block j to block j + 1 along
their facets of color j mod 4 by the identity (a mirror image of the block is
the same complex, and the reflection fixes the shared facet pointwise): each
facet vertex v gives the pair (v, v), a weight-2 Z stabilizer on v of both
blocks, and each cell that meets the facet is fused with its copy. Facet
colors cycle so that consecutive merges of a middle block share a lattice
edge; cells on those edges fuse across three blocks and cells on corners
across four. So k and the block fix a chain: a TetrahelixCode stores the one
block, and derives each block's offset and X-bar and each merge's pairs from
it; a chain file holds just k and the block colex.

The split used at decode time is software-only: it applies a product of
pair stabilizers, merge by merge, that gives each block the cell syndrome of
its part of the chain decoder's hypothesis, so every block is left with an
error its own tetrahedral decoder can resolve.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

from . import gf2
from .colex import (
    Colex, ColexParseError, build_tetrahedral_colex, colex_from_dict, colex_to_dict, file_number
)
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
class TetrahelixCode:
    """k copies of `block`, block b on chain qubits [b·m, (b + 1)·m) for a
    block of m qubits. Pair p of merge j is (v, v), v being the p-th vertex
    of `merge_facet(j)`. `fused_cells` lists the classes of (block, cell)
    that form one cell check of `code`, in the order of its hx rows."""

    k: int
    block: Block
    fused_cells: tuple[tuple[tuple[int, int], ...], ...]
    code: CssCode

    def block_offset(self, block: int) -> int:
        """Global index of the block's first qubit."""
        return block * self.block.code.n

    def block_mask(self, block: int) -> int:
        return ((1 << self.block.code.n) - 1) << self.block_offset(block)

    def block_slice(self, v: int, block: int) -> int:
        """Restrict a global bit row to a block, re-indexed locally."""
        return (v >> self.block_offset(block)) & ((1 << self.block.code.n) - 1)

    def block_logical_x(self, block: int) -> int:
        """The block's X-bar in global coordinates; X-bar is their XOR."""
        return self.block.code.logical_x << self.block_offset(block)

    def merge_facet(self, j: int) -> tuple[int, ...]:
        """The ascending vertices of the facet that merge j glues."""
        return tuple(sorted(self.block.colex.facet(j % 4).vertices))

    @functools.cached_property
    def split_context(self) -> "SplitContext":
        """The software-split structure of this chain, built on first use."""
        return SplitContext(self)


def _identity_pairing(colex: Colex, facet_color: int) -> tuple[int, ...]:
    """The cells that meet the color-`facet_color` facet, each fused with its
    copy when the facet is glued to that of a copy of the block by the
    identity. Refuses a block in which two cells have the same trace on the
    facet, as an imported colex may."""
    facet = set(colex.facet(facet_color).vertices)
    traces = {}
    for ci, cell in enumerate(colex.cells):
        t = facet.intersection(cell.vertices)
        if t:
            traces[ci] = frozenset(t)
    if len(set(traces.values())) != len(traces):
        raise MergeError(f"block has duplicate color-{facet_color} facet traces")
    return tuple(traces)


def build_tetrahelix(k: int, L: int, block: Block | None = None) -> TetrahelixCode:
    """Chain of k copies of one tetrahedral block; merge j glues facet j mod 4
    of block j to that of block j + 1 by the identity."""
    if k < 1:
        raise MergeError(f"k must be >= 1, got {k}")
    if block is None:
        block = Block.build(build_tetrahedral_colex(L))
    fused_by = [set(_identity_pairing(block.colex, c)) for c in range(min(k - 1, 4))]
    m = block.code.n
    n = k * m

    # cell ci of blocks b..e-1 is one class when every merge between them
    # fuses it: the classes of ci end at each merge that does not
    fused = []
    for ci in range(len(block.colex.cells)):
        cuts = [j + 1 for j in range(k - 1) if ci not in fused_by[j % 4]]
        for b, e in zip([0, *cuts], [*cuts, k]):
            fused.append(tuple((x, ci) for x in range(b, e)))
    fused.sort()
    # blocks are disjoint, so a sum of shifted rows is their XOR
    hx_rows = [sum(block.code.hx.rows[ci] << b * m for b, ci in cls) for cls in fused]

    hz_rows, hz_labels = [], []
    for b in range(k):
        for fi, row in enumerate(block.code.hz.rows):
            hz_rows.append(row << b * m)
            hz_labels.append(("face", b, fi))
    for j in range(k - 1):
        for pi, v in enumerate(sorted(block.colex.facet(j % 4).vertices)):
            hz_rows.append((1 << v | 1 << v + m) << j * m)
            hz_labels.append(("pair", j, pi))

    code = CssCode(
        n,
        gf2.BitMatrix.make(hx_rows, n, [("cells", cls) for cls in fused]),
        gf2.BitMatrix.make(hz_rows, n, hz_labels),
        sum(block.code.logical_x << b * m for b in range(k)),
        block.code.logical_z,
    )
    return TetrahelixCode(k, block, tuple(fused), code)


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
    cells), `chain`, and the cell decoder of the block, `cells`, both shared
    with every code that has the same checks. For merge j, `merges[j]` holds
    one entry (row, rho, pattern) per cell that meets the merge facet, in
    cell order: the cell's row in the block, its dual pair pattern rho (a
    mask over the merge's pairs whose trace parity is odd on this cell and
    even on every other fused cell), and the outcome flips that rho makes on
    block j and, the pairs being (v, v), on block j + 1 alike.
    """

    def __init__(self, t: TetrahelixCode):
        code = t.block.code
        self.chain = gf2.SyndromeDecoder.of(t.code.hx.rows, t.code.n)
        self.cells = gf2.SyndromeDecoder.of(code.hx.rows, code.n)
        self.merges = []
        for j in range(t.k - 1):
            facet = t.merge_facet(j)
            rows = [code.hx.rows[ci] for ci in _identity_pairing(t.block.colex, j % 4)]
            traces = gf2.BitMatrix.make(
                [
                    gf2.vector_from_support(p for p, v in enumerate(facet) if row >> v & 1)
                    for row in rows
                ],
                len(facet),
            )
            rhos = gf2.unit_solutions(traces.rows, traces.cols)
            if any(traces.mul_vec(rho) != 1 << c for c, rho in enumerate(rhos)):
                raise MergeError(f"merge {j}: fused traces are linearly dependent")
            self.merges.append(tuple(
                (row, rho, gf2.vector_from_support(facet[p] for p in gf2.support(rho)))
                for row, rho in zip(rows, rhos)
            ))


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
        for row, rho, pattern in cells:
            if (diff & row).bit_count() & 1:
                sigma ^= rho
                outs[j] ^= pattern
                outs[j + 1] ^= pattern
        frames.append(sigma)

    syndromes = tuple(ctx.cells.syndrome(out) for out in outs)
    return SplitResult(tuple(outs), syndromes, tuple(frames))


# ---------------------------------------------------------------------------
# File interchange
# ---------------------------------------------------------------------------


def chain_to_dict(t: TetrahelixCode) -> dict:
    """A chain as a file holds it: k and the block colex, the rest of the
    chain being derived from these by `build_tetrahelix`."""
    return {"k": t.k, "block_colex": colex_to_dict(t.block.colex)}


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
    k = file_number(d["k"], "chain file: k")
    if k < 1:
        raise ColexParseError(f"chain file: k must be an int >= 1, got {k}")
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
