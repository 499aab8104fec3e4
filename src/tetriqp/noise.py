"""Local stochastic fault sampling over pipeline space-time locations.

Every location is independently faulty with probability epsilon (the i.i.d.
instance saturates the local stochastic bound Pr[A within faults] = eps^|A|),
and each fault draws a label from the channel mix. A Pauli label on a
measurement location, or a flip label on a data location, acts trivially.

X-type faults sitting at the depth-1 diagonal layer do not propagate as
Pauli; they are replaced by X plus a Z with probability one half (Pauli
twirl). Propagation is deterministic and leaves that coin to the trial: it
reports the X pattern crossing the layer, and ChainSim.run_trial draws one
coin per qubit of it with `twirl_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rng import make_rng
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
    pipeline for one chain."""

    locations: tuple[tuple, ...]

    @property
    def size(self) -> int:
        return len(self.locations)


def stage_layout(t: TetrahelixCode) -> StageLayout:
    locs = []
    for b in range(t.k):
        for q in range(t.blocks[b].code.n):
            locs.append((PREP_DATA, b, q))
    for b in range(t.k):
        for f in range(len(t.blocks[b].colex.faces)):
            locs.append((PREP_MEAS, b, f))
    for j, pr in enumerate(t.pairings):
        for p in range(len(pr.pairs)):
            locs.append((MERGE_MEAS, j, p))
    n = t.code.n
    for q in range(n):
        locs.append((LAYER, q))
    for q in range(n):
        locs.append((FINAL_MEAS, q))
    return StageLayout(tuple(locs))


@dataclass(frozen=True)
class FaultSet:
    """Sampled faults: (location, label) per faulty location."""

    faults: tuple[tuple[tuple, str], ...]

    def __len__(self):
        return len(self.faults)

    def locations(self):
        return tuple(loc for loc, _ in self.faults)


_NO_FAULTS = FaultSet(())


def sample_iid_faults(model: NoiseModel, layout: StageLayout, seed) -> FaultSet:
    """Each location is faulty independently with probability epsilon.

    `seed` is anything make_rng takes. Labels are drawn only when some
    location is faulty; the generator serves this one call, so skipping them
    for a fault-free draw changes no result.
    """
    rng = make_rng(seed)
    m = layout.size
    faulty = rng.random(m) < model.epsilon
    if not faulty.any():
        return _NO_FAULTS
    u_label = rng.random(m)
    idx = np.flatnonzero(faulty)
    labels = model.cuts.searchsorted(u_label[idx], side="right")
    locs = layout.locations
    return FaultSet(tuple(
        (locs[i], _LABELS[lab]) for i, lab in zip(idx.tolist(), labels.tolist())
    ))


@dataclass
class PropagationResult:
    """Deterministic image of a fault set at the final measurement.

    Z-type effects all reduce to outcome flips; X-type effects feed the
    preparation syndromes (prep stage) or, at the layer, the twirl.
    """

    prep_data_x: dict = field(default_factory=dict)  # block -> X pattern
    prep_meas: dict = field(default_factory=dict)  # block -> face flips
    pair_flips: dict = field(default_factory=dict)  # merge -> pair flips
    layer_x: int = 0  # global X pattern at the layer (run_trial twirls it)
    outcome_flips: int = 0  # global Z-equivalent flips on final outcomes

    def xor(self, other: "PropagationResult") -> "PropagationResult":
        out = PropagationResult()
        for name in ("prep_data_x", "prep_meas", "pair_flips"):
            a, b = getattr(self, name), getattr(other, name)
            merged = dict(a)
            for key, v in b.items():
                merged[key] = merged.get(key, 0) ^ v
            setattr(out, name, {k: v for k, v in merged.items() if v})
        out.layer_x = self.layer_x ^ other.layer_x
        out.outcome_flips = self.outcome_flips ^ other.outcome_flips
        return out


def propagate(faults: FaultSet, t: TetrahelixCode) -> PropagationResult:
    """Push every fault to its final-measurement effect.

    Z faults commute with the diagonal layer and flip one outcome bit. X
    faults before the layer enter the preparation round; at the layer they
    join the X pattern that the trial twirls; after the layer they leave
    Hadamard-basis outcomes unchanged. Measurement flips stay local to their
    round.
    """
    res = PropagationResult()
    for loc, label in faults.faults:
        kind = loc[0]
        if kind == PREP_DATA:
            _, b, q = loc
            g = 1 << t.qubit(b, q)
            if label in ("X", "Y"):
                res.prep_data_x[b] = res.prep_data_x.get(b, 0) ^ (1 << q)
            if label in ("Z", "Y"):
                res.outcome_flips ^= g
        elif kind == PREP_MEAS:
            _, b, f = loc
            if label == "flip":
                res.prep_meas[b] = res.prep_meas.get(b, 0) ^ (1 << f)
        elif kind == MERGE_MEAS:
            _, j, p = loc
            if label == "flip":
                res.pair_flips[j] = res.pair_flips.get(j, 0) ^ (1 << p)
        elif kind == LAYER:
            _, q = loc
            if label in ("X", "Y"):
                res.layer_x ^= 1 << q
            if label in ("Z", "Y"):
                res.outcome_flips ^= 1 << q
        elif kind == FINAL_MEAS:
            _, q = loc
            if label == "flip":
                res.outcome_flips ^= 1 << q
        else:
            raise ValueError(f"unknown location kind {kind!r}")
    return res


def twirl_mask(x_pattern: int, rng) -> int:
    """Z-flip pattern for an X pattern crossing the diagonal layer: each set
    bit contributes a Z with probability one half."""
    out = 0
    q = 0
    v = x_pattern
    while v:
        if v & 1 and int(rng.integers(0, 2)):
            out |= 1 << q
        v >>= 1
        q += 1
    return out
