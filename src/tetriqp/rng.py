"""Counter-based random generators with order-independent derived seeds.

Every stochastic routine takes a seed that may be an int or a tuple of ints
(base seed, trial index, subsystem tag, ...). Tuples feed a SeedSequence, so
per-trial streams are identical no matter how trials are chunked across
workers.

`TrialStreams` gives the per-trial generators make_rng((seed, trial, tag))
without building a SeedSequence and a Philox per trial: it derives the Philox
keys of a whole block of trials at once with a vectorised copy of
SeedSequence's entropy mix, and re-keys one Philox in place per trial.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed) -> np.random.Generator:
    """Generator for an int or tuple seed; a Generator passes through as is."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        bitgen = np.random.Philox(key=int(seed) & ((1 << 128) - 1))
    else:
        entropy = tuple(int(x) for x in seed)
        bitgen = np.random.Philox(seed=np.random.SeedSequence(entropy))
    return np.random.Generator(bitgen)


# numpy.random.SeedSequence's constants (pool of 4 uint32 words)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence
    splits each entropy entry (0 is one word)."""
    n = int(n)
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    out = [n & _M32]
    n >>= 32
    while n:
        out.append(n & _M32)
        n >>= 32
    return out


def _hashes(count: int, init: int, mult: int) -> list[tuple[int, int]]:
    """(xor, multiplier) of SeedSequence's first `count` hashes: they depend
    only on how many hashes came before, never on the entropy."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _M32)
    return list(zip(h, h[1:]))


def _hashmix(value: np.ndarray, xor: int, mult: int) -> np.ndarray:
    value = (value ^ np.uint32(xor)) * np.uint32(mult)
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def philox_keys(seed: int, trials: np.ndarray, tag: int) -> np.ndarray:
    """Philox keys, shape (len(trials), 2) uint64, of make_rng((seed, t, tag))
    for every t in `trials`, which must all split into the same number of
    32-bit words (any range inside [0, 2^32), for one)."""
    trials = np.asarray(trials, dtype=np.uint64)
    n_trial = len(_words(int(trials.max())))
    if len(_words(int(trials.min()))) != n_trial:
        raise ValueError("trials must all have the same number of 32-bit words")
    cols = [np.full(len(trials), w, dtype=np.uint32) for w in _words(seed)]
    cols += [(trials >> np.uint64(32 * j)).astype(np.uint32) for j in range(n_trial)]
    cols += [np.full(len(trials), w, dtype=np.uint32) for w in _words(tag)]

    # SeedSequence.mix_entropy: fill the pool, mix it, fold in the rest
    n_hash = _POOL * _POOL + _POOL * max(len(cols) - _POOL, 0)
    hashes = iter(_hashes(n_hash, _INIT_A, _MULT_A))

    def hashmix(value):
        return _hashmix(value, *next(hashes))

    zero = np.zeros(len(trials), dtype=np.uint32)
    pool = [hashmix(cols[i] if i < len(cols) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for col in cols[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(col))

    # SeedSequence.generate_state(2, np.uint64): four words, paired little-endian
    out = [_hashmix(w, *h) for w, h in zip(pool, _hashes(_POOL, _INIT_B, _MULT_B))]
    keys = np.empty((len(trials), 2), dtype=np.uint64)
    keys[:, 0] = out[0] | out[1].astype(np.uint64) << np.uint64(32)
    keys[:, 1] = out[2] | out[3].astype(np.uint64) << np.uint64(32)
    return keys


class TrialStreams:
    """make_rng((seed, trial, tag)) for many trials, from one Philox re-keyed in
    place. The returned Generator is shared: it is valid until the next call."""

    BLOCK = 4096  # trials per key block; divides 2^32, so a block never straddles a word
    # key blocks kept, 64 KB each: more than the streams end_to_end interleaves,
    # a seed per qubit (at most iqp.EXACT_DISTRIBUTION_CAP = 24) x 2 tags
    MAX_BLOCKS = 64

    def __init__(self):
        self._keys: dict[tuple[int, int, int], np.ndarray] = {}  # (seed, tag, block) -> keys
        # built on first use, not with the simulator: numpy's first Philox costs RSS
        self._bitgen = self._gen = self._state = None

    def __call__(self, seed: int, trial: int, tag: int) -> np.random.Generator:
        block, i = divmod(trial, self.BLOCK)
        keys = self._keys.get((seed, tag, block))
        if keys is None:
            start = block * self.BLOCK
            keys = philox_keys(seed, np.arange(start, start + self.BLOCK, dtype=np.uint64), tag)
            if len(self._keys) >= self.MAX_BLOCKS:
                del self._keys[next(iter(self._keys))]
            self._keys[(seed, tag, block)] = keys
        if self._gen is None:
            self._bitgen = np.random.Philox(key=0)
            self._state = self._bitgen.state  # counter 0, empty buffer: a fresh stream
            self._gen = np.random.Generator(self._bitgen)
        self._state["state"]["key"] = keys[i]
        self._bitgen.state = self._state
        return self._gen
