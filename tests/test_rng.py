import numpy as np
import pytest

from tetriqp import harness
from tetriqp.noise import NoiseModel
from tetriqp.rng import TrialStreams, bernoulli_positions, make_rng, philox_key

SEEDS = (0, 1, 2**32 - 1, 2**32 + 7, 10**6 + 100, 2**70 + 3)


def _draws(gen):
    return gen.random(4).tolist(), gen.integers(0, 2, 9).tolist(), gen.random()


def _start(gen):
    """The (key, counter) a generator's next draw starts from."""
    state = gen.bit_generator.state["state"]
    return tuple(state["key"].tolist()), tuple(state["counter"].tolist())


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_streams_equal_make_rng(seed):
    # the trial stream (seed, trial, tag) is make_rng(seed)'s Philox moved to
    # counter (0, trial, tag, 1), for int and spawn-tuple seeds alike
    streams = TrialStreams()
    for s in (seed, (seed,), (seed, 3, 5)):
        for tag in (0, 1, 2):
            for trial in (0, 1, 4095, 4096, 2**32, 2**64 - 1):
                gen = make_rng(s)
                assert _start(gen) == (tuple(philox_key(s).tolist()), (0, 0, 0, 0))
                state = gen.bit_generator.state
                state["state"]["counter"][:] = (0, trial, tag, 1)
                gen.bit_generator.state = state
                got = streams(s, trial, tag)
                assert _start(got) == _start(gen)
                assert _draws(got) == _draws(gen)


@pytest.mark.parametrize("chunk, max_keys", [(4096, TrialStreams.MAX_KEYS), (8, 2), (1, 1)])
def test_streams_independent_of_blocks_and_interleaving(chunk, max_keys):
    # one stream per (seed, trial, tag), whatever the chunks of trials, the
    # order the seeds and tags interleave in and the size of the key cache
    seeds = [*range(40, 44), *((40, q) for q in range(4))]
    trials = range(40)
    sequential = TrialStreams()
    want = {(s, t, tag): _draws(sequential(s, t, tag))
            for tag in (0, 1) for s in seeds for t in trials}
    for lo in range(0, len(trials), chunk):
        streams = TrialStreams()
        streams.MAX_KEYS = max_keys
        for t in trials[lo:lo + chunk]:
            for s in reversed(seeds):
                assert _draws(streams(s, t, 1)) == want[(s, t, 1)]
                assert _draws(streams(s, t, 0)) == want[(s, t, 0)]
        assert len(streams._keys) <= max_keys
    assert _draws(TrialStreams()(seeds[0], 7, 0)) == want[(seeds[0], 7, 0)]


def test_spawn_keys_are_not_zero_padded():
    # SeedSequence zero-pads a plain entropy tuple, so (s, t) and (s, t, 0)
    # were one stream; spawn keys keep every tuple length apart
    for s in (0, 44, 2**32 + 7, 2**128 - 1):
        keys = [philox_key(seed) for seed in (s, (s,), (s, 0), (s, 0, 0), (s, 1), (s, 0, 1))]
        assert len({tuple(k.tolist()) for k in keys}) == len(keys)
    assert _draws(make_rng((44, 0xE2E))) != _draws(make_rng((44, 0xE2E, 0)))


def test_seeds_out_of_range_rejected():
    # a root of 2^128 or more, or a spawn entry of 2^32 or more, would alias
    # another tuple's entropy words
    for seed in (2**128, (2**128, 1), (1, 2**32), (1, 0, 2**40)):
        with pytest.raises(ValueError):
            philox_key(seed)


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


def test_positions_continue_past_the_first_chunk():
    # gaps that fall short of the grid are followed by further chunks
    class UnitGaps:
        def geometric(self, p, size):
            return np.ones(size, dtype=np.int64)

    got = bernoulli_positions(UnitGaps(), 0.001, 1000)
    assert got.tolist() == list(range(1000))
