"""Counter-based random streams keyed by seeds.

A seed is a nonnegative int, its own Philox key, or a spawn tuple
(root, i, j, ...) keyed by numpy's SeedSequence(root, spawn_key=(i, j, ...)).
With the root below 2^128 and the entries below 2^32, distinct tuples feed
distinct entropy words: (s,), (s, 0) and (s, 0, 0) are distinct keys.

make_rng(seed) runs Philox under the seed's key from counter 0. The trial
stream (seed, trial, tag) runs it under the same key from counter
(0, trial, tag, 1). Philox counts blocks in word 0, so no two trial streams
overlap, and none overlaps make_rng's stream (whose word 3 is 0), before
2^64 blocks. A trial's draws depend only on (seed, trial, tag), never on
how trials are chunked across workers or interleaved.
"""

from __future__ import annotations

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
    """The trial streams (seed, trial, tag), from one Philox re-keyed in
    place. The returned Generator is shared: it is valid until the next call."""

    MAX_KEYS = 64  # keys kept: above end_to_end's one seed per qubit (at most 24)

    def __init__(self):
        self._keys: dict = {}  # seed -> philox_key(seed)
        # built on first use, not with the simulator: numpy's first Philox costs RSS
        self._bitgen = self._gen = self._state = None

    def __call__(self, seed, trial: int, tag: int) -> np.random.Generator:
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
        state["counter"][1:3] = trial, tag
        self._bitgen.state = self._state
        return self._gen
