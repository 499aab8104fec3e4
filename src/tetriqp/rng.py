"""Counter-based random streams keyed by seeds.

A seed is a nonnegative int, its own Philox key, or a spawn tuple
(root, i, j, ...) keyed by numpy's SeedSequence(root, spawn_key=(i, j, ...)).
With the root below 2^128 and the entries below 2^32, distinct tuples feed
distinct entropy words: (s,), (s, 0) and (s, 0, 0) are distinct keys.

make_rng(seed) runs Philox under the seed's key from counter 0. The batch
stream (seed, batch, tag) runs it under the same key from counter
(0, batch, tag, 1). Philox counts blocks in word 0, so no two batch streams
overlap, and none overlaps make_rng's stream (whose word 3 is 0), before
2^64 blocks. A batch's draws depend only on (seed, batch, tag), never on
how batches are chunked across workers or interleaved.

bernoulli_positions draws an i.i.d. Bernoulli pattern as geometric gaps;
faults (noise) and CS gates (iqp) are both drawn with it.
"""

from __future__ import annotations

import math

import numpy as np


def philox_key(seed) -> np.ndarray:
    """The Philox key, two uint64 words, of an int or spawn-tuple seed."""
    if isinstance(seed, (int, np.integer)):
        seed = int(seed)
        if not 0 <= seed < 1 << 128:
            raise ValueError(f"int seed must be in [0, 2^128), got {seed}")
        return np.array([seed & ((1 << 64) - 1), seed >> 64], dtype=np.uint64)
    root, *path = (int(x) for x in seed)
    if root >= 1 << 128 or any(x >= 1 << 32 for x in path):
        raise ValueError(f"seed {seed}: root must be below 2^128, entries below 2^32")
    return np.random.SeedSequence(root, spawn_key=path).generate_state(2, np.uint64)


def make_rng(seed) -> np.random.Generator:
    """Generator for an int or tuple seed; a Generator passes through as is."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(key=philox_key(seed)))


class TrialStreams:
    """The batch streams (seed, batch, tag), from one Philox re-keyed in
    place. The returned Generator is shared: it is valid until the next call."""

    MAX_KEYS = 64  # keys kept: above end_to_end's one seed per qubit (at most 24)

    def __init__(self):
        self._keys: dict = {}  # seed -> philox_key(seed)
        # built on first use, not with the simulator: numpy's first Philox costs RSS
        self._bitgen = self._gen = self._state = None

    def __call__(self, seed, batch: int, tag: int) -> np.random.Generator:
        key = self._keys.get(seed)
        if key is None:
            key = philox_key(seed)
            if len(self._keys) >= self.MAX_KEYS:
                del self._keys[next(iter(self._keys))]
            self._keys[seed] = key
        if self._gen is None:
            self._bitgen = np.random.Philox(key=0)
            self._state = self._bitgen.state  # empty buffer: the next draw starts a block
            self._state["state"]["counter"][3] = 1
            self._gen = np.random.Generator(self._bitgen)
        state = self._state["state"]
        state["key"] = key
        state["counter"][1:3] = batch, tag
        self._bitgen.state = self._state
        return self._gen


def bernoulli_positions(rng, p: float, size: int) -> np.ndarray:
    """Sorted positions of the ones among `size` i.i.d. Bernoulli(p) draws.
    The gap from one 1 to the next is geometric(p), so the draws cost
    O(size * p) time and memory instead of O(size)."""
    if p == 0:
        return np.empty(0, dtype=np.int64)
    chunk = int(size * p + 6 * math.sqrt(size * p) + 16)  # one round, nearly always
    parts, last = [], -1
    while True:
        # a gap above size leaves the grid from anywhere; clipping there keeps
        # the sums in int64 (numpy returns 2^63 - 1 for a gap beyond it)
        pos = last + np.minimum(rng.geometric(p, chunk), size + 1).cumsum()
        if pos[-1] >= size:
            parts.append(pos[: pos.searchsorted(size)])
            return np.concatenate(parts)
        parts.append(pos)
        last = int(pos[-1])
