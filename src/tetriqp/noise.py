"""Local stochastic fault sampling over pipeline space-time locations.

Every location is independently faulty with probability epsilon (the i.i.d.
instance saturates the local stochastic bound Pr[A within faults] = eps^|A|),
and each fault draws a label from the channel mix. A Pauli label on a
measurement location, or a flip label on a data location, acts trivially.

The effect of each (location, label) fault is worked out once per chain, by
`stage_layout`, as one int of bit fields (see StageLayout), and the
propagation of a trial's faults is the XOR of their effects. The fields hold
every linear image that a trial reads (the preparation face syndromes, the
Z-bar parities, the pair outcomes that entering X patterns flip), so what a
trial computes itself is the decodes of those syndromes.

X-type faults sitting at the depth-1 diagonal layer do not propagate as
Pauli; they are replaced by X plus a Z with probability one half (Pauli
twirl). Propagation is deterministic and leaves that coin to the trial: the
effect holds the X pattern crossing the layer, and ChainSim.run_trial, which
ChainSim.run_batch calls for each faulty trial of a batch, draws one coin per
qubit of it with `twirl_mask`.

Faults are sampled a batch of BATCH trials at a time, over the flattened
(BATCH, locations) grid, from the positions of its faulty cells alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gf2
from .rng import bernoulli_positions, make_rng
from .surgery import TetrahelixCode


@dataclass(frozen=True)
class NoiseModel:
    epsilon: float
    mix_x: float = 0.25
    mix_z: float = 0.25
    mix_y: float = 0.25
    mix_meas: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        mix = (self.mix_x, self.mix_z, self.mix_y, self.mix_meas)
        if any(m < 0 for m in mix) or abs(sum(mix) - 1.0) > 1e-9:
            raise ValueError("channel mix must be nonnegative and sum to 1")

    @cached_property
    def cuts(self) -> np.ndarray:
        """Cumulative X, Z, Y shares: the label of a uniform draw u is
        _LABELS[cuts.searchsorted(u, side="right")]."""
        return np.cumsum([self.mix_x, self.mix_z, self.mix_y])


# location kinds
PREP_DATA = "prep_data"  # (block, local qubit): before the Z-stabilizer round
PREP_MEAS = "prep_meas"  # (block, face index)
MERGE_MEAS = "merge_meas"  # (merge index, pair index)
LAYER = "layer"  # (global qubit,): at the diagonal layer
FINAL_MEAS = "final_meas"  # (global qubit,)

_LABELS = ("X", "Z", "Y", "flip")


@dataclass(frozen=True)
class StageLayout:
    """Ordered space-time fault locations of the prepare/merge/layer/measure
    pipeline for one chain, and the effect of every fault.

    Location g < n is PREP_DATA on chain qubit g. Fault code 4 * i + j is
    location i with label _LABELS[j]; effects[code] is its deterministic
    effect, one int holding everything of it that a trial reads linearly.
    Its fields are, lowest bit first:

    - prep_syndrome, per block: the face syndrome of the preparation round,
      H_z x_b plus the face flips, for the X pattern x_b entering block b;
    - prep_logical: bit b is the parity of x_b against block b's Z-bar;
    - per merge j, pair_flips then pair_x: the flipped pair measurements,
      and the pair outcomes that the entering X patterns flip (bit p is
      x_j[vl] ^ x_{j+1}[vr] for pair p = (vl, vr));
    - layer_x: the X pattern crossing the diagonal layer, chain coordinates,
      the patterns entering preparation included (the trial twirls it);
    - outcome_flips: the Z-equivalent flips of the final outcomes.

    Each field is a (shift, mask) pair, read as `effect >> shift & mask`.
    The effect of a set of faults is the XOR of their effects, and so is
    that of a preparation correction: effects[4 * g] is the effect of an X
    on chain qubit g as it enters preparation.
    """

    locations: tuple[tuple, ...]
    effects: tuple[int, ...]
    prep_syndrome: tuple[tuple[int, int], ...]
    prep_logical: tuple[int, int]
    pair_flips: tuple[tuple[int, int], ...]
    pair_x: tuple[tuple[int, int], ...]
    layer_x: tuple[int, int]
    outcome_flips: tuple[int, int]

    @property
    def size(self) -> int:
        return len(self.locations)


def stage_layout(t: TetrahelixCode) -> StageLayout:
    """The locations of the chain `t` and the effect of each fault there.

    Z faults commute with the diagonal layer and flip one outcome bit. X
    faults before the layer enter the preparation round, where they meet
    the face checks, the block's Z-bar and the pair checks of its merges;
    at the layer they join the X pattern that the trial twirls; after the
    layer they leave Hadamard-basis outcomes unchanged. A Y fault acts as X
    and Z. Measurement flips stay local to their round. A Pauli on a
    measurement location or a flip on a data location acts trivially.
    """
    n, k = t.code.n, t.k
    block = t.block
    m, faces = block.code.n, len(block.colex.faces)
    facets = [t.merge_facet(j) for j in range(k - 1)]
    pairs = [len(facet) for facet in facets]
    face_at = [b * faces for b in range(k)]
    logical_at = k * faces
    merge_at = list(itertools.accumulate((2 * c for c in pairs), initial=logical_at + k))
    pair_at = merge_at[:-1]
    pair_x_at = [at + c for at, c in zip(pair_at, pairs)]
    layer_at = merge_at[-1]
    outcome_at = layer_at + n

    # the X image of every chain qubit entering preparation
    x_image = [1 << layer_at + g for g in range(n)]
    for b in range(k):
        g0 = t.block_offset(b)
        for f, row in enumerate(block.code.hz.rows):
            for q in gf2.support(row):
                x_image[g0 + q] ^= 1 << face_at[b] + f
        for q in gf2.support(block.code.logical_z):
            x_image[g0 + q] ^= 1 << logical_at + b
    for j, facet in enumerate(facets):
        for p, v in enumerate(facet):
            x_image[t.block_offset(j) + v] ^= 1 << pair_x_at[j] + p
            x_image[t.block_offset(j + 1) + v] ^= 1 << pair_x_at[j] + p

    locs, effects = [], []

    def add(loc, x=0, z=0, flip=0):
        locs.append(loc)
        effects.extend((x, z, x ^ z, flip))  # the order of _LABELS

    for g in range(n):
        add((PREP_DATA, *divmod(g, m)), x=x_image[g], z=1 << outcome_at + g)
    for b in range(k):
        for f in range(faces):
            add((PREP_MEAS, b, f), flip=1 << face_at[b] + f)
    for j, count in enumerate(pairs):
        for p in range(count):
            add((MERGE_MEAS, j, p), flip=1 << pair_at[j] + p)
    for q in range(n):
        add((LAYER, q), x=1 << layer_at + q, z=1 << outcome_at + q)
    for q in range(n):
        add((FINAL_MEAS, q), flip=1 << outcome_at + q)

    def fields(starts, widths):
        return tuple((at, (1 << w) - 1) for at, w in zip(starts, widths))

    return StageLayout(
        tuple(locs),
        tuple(effects),
        prep_syndrome=fields(face_at, [faces] * k),
        prep_logical=(logical_at, (1 << k) - 1),
        pair_flips=fields(pair_at, pairs),
        pair_x=fields(pair_x_at, pairs),
        layer_x=(layer_at, (1 << n) - 1),
        outcome_flips=(outcome_at, (1 << n) - 1),
    )


BATCH = 256  # trials per batch: one fault stream and one twirl stream each


@dataclass(frozen=True, eq=False)
class BatchFaults:
    """The faults of one batch of BATCH trials, in (trial, location) order:
    fault i hits location positions[i] % m of trial positions[i] // m, with
    m = layout.size, and carries label _LABELS[labels[i]]."""

    layout: StageLayout = field(repr=False)
    positions: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return len(self.positions)

    def by_trial(self, stop: int = BATCH):
        """(trial, fault codes) for every faulty trial below `stop`, in
        order; code 4 * i + j is location i with label _LABELS[j]."""
        m = self.layout.size
        n = self.positions.searchsorted(stop * m)
        trials, where = np.divmod(self.positions[:n], m)
        starts = np.flatnonzero(np.diff(trials, prepend=-1)).tolist()
        codes = (4 * where + self.labels[:n]).tolist()
        trials = trials.tolist()
        for a, b in zip(starts, starts[1:] + [n]):
            yield trials[a], codes[a:b]


def sample_iid_faults(model: NoiseModel, layout: StageLayout, seed) -> BatchFaults:
    """The faults of one batch: each location of each of BATCH trials is
    faulty independently with probability epsilon, and each fault draws its
    label from the channel mix.

    `seed` is anything make_rng takes. The generator first draws the faulty
    positions of the (BATCH, layout.size) grid, then one label per fault.
    """
    rng = make_rng(seed)
    positions = bernoulli_positions(rng, model.epsilon, BATCH * layout.size)
    labels = model.cuts.searchsorted(rng.random(len(positions)), side="right")
    return BatchFaults(layout, positions, labels)


def propagate(codes, layout: StageLayout) -> int:
    """The effect of a trial's faults: the XOR of the effects of its fault
    codes (see StageLayout)."""
    effects = layout.effects
    out = 0
    for code in codes:
        out ^= effects[code]
    return out


def twirl_mask(x_pattern: int, rng) -> int:
    """Z-flip pattern for an X pattern crossing the diagonal layer: each set
    bit, lowest first, contributes a Z with probability one half. The
    simulator passes its batch's twirl stream (seed, batch, 1), which the
    batch's faulty trials draw from in trial order. One scalar
    draw per set bit: the patterns are mostly one or two bits, for which an
    array draw costs more than the scalar draws it replaces."""
    out = 0
    for q in gf2.support(x_pattern):
        if rng.integers(0, 2):
            out |= 1 << q
    return out
