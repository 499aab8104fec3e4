import numpy as np
import pytest

from tetriqp import harness
from tetriqp.noise import NoiseModel
from tetriqp.rng import TrialStreams, make_rng, philox_keys

SEEDS = (0, 1, 2**32 - 1, 2**32 + 7, 10**6 + 100, 2**70 + 3)
B = TrialStreams.BLOCK


def _draws(gen):
    return gen.random(4).tolist(), gen.integers(0, 2, 9).tolist(), gen.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_streams_equal_make_rng(seed):
    streams = TrialStreams()
    for tag in (0, 1, 2):
        for trial in (0, 1, B - 1, B, B + 1, 3 * B + 5):
            assert _draws(streams(seed, trial, tag)) == _draws(make_rng((seed, trial, tag)))


def test_philox_keys_equal_seed_sequence_across_trial_word_edge():
    # trials below 2^32 take one 32-bit entropy word, from 2^32 on two
    for lo in (2**32 - 3, 2**32):
        for seed in SEEDS:
            keys = philox_keys(seed, np.arange(lo, lo + 3, dtype=np.uint64), 2**33)
            for t, key in zip(range(lo, lo + 3), keys):
                want = np.random.SeedSequence((seed, t, 2**33)).generate_state(2, np.uint64)
                assert key.tolist() == want.tolist()
    with pytest.raises(ValueError):
        philox_keys(0, np.array([2**32 - 1, 2**32], dtype=np.uint64), 0)


@pytest.mark.parametrize("block, max_blocks", [(B, TrialStreams.MAX_BLOCKS), (8, 2), (1, 1)])
def test_streams_independent_of_blocks_and_interleaving(block, max_blocks):
    seeds = range(40, 48)
    trials = range(30)
    sequential = TrialStreams()
    want = {(s, t): _draws(sequential(s, t, 0)) for s in seeds for t in trials}
    interleaved = TrialStreams()
    interleaved.BLOCK, interleaved.MAX_BLOCKS = block, max_blocks
    for t in trials:
        for s in seeds:
            assert _draws(interleaved(s, t, 1)) == _draws(make_rng((s, t, 1)))
            assert _draws(interleaved(s, t, 0)) == want[(s, t)]


def test_make_rng_passes_a_generator_through():
    gen = make_rng((1, 2))
    assert make_rng(gen) is gen


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        make_rng((-1, 0, 0))
    with pytest.raises(ValueError):
        TrialStreams()(-1, 0, 0)
    with pytest.raises(ValueError):
        harness.logical_error_rate(3, 1, NoiseModel(0.01), 10, seed=-1)
