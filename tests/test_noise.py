import itertools
import math

import numpy as np
import pytest

from tetriqp import noise
from tetriqp.noise import BATCH, NoiseModel, propagate, sample_iid_faults, stage_layout
from tetriqp.rng import TrialStreams, make_rng
from tetriqp.surgery import build_tetrahelix


def _propagate_oracle(faults, t):
    """Push every (location, label) fault to its final-measurement effect
    by dispatch on the location kind: the oracle for the effect table of
    stage_layout. Returns the block -> X pattern, block -> face flips and
    merge -> pair flips dicts, then the layer X pattern and the outcome flips.
    """
    prep_data_x, prep_meas, pair_flips = {}, {}, {}
    layer_x = outcome_flips = 0
    for loc, label in faults:
        kind = loc[0]
        if kind == noise.PREP_DATA:
            _, b, q = loc
            if label in ("X", "Y"):
                prep_data_x[b] = prep_data_x.get(b, 0) ^ (1 << q)
            if label in ("Z", "Y"):
                outcome_flips ^= 1 << t.block_offset(b) + q
        elif kind == noise.PREP_MEAS:
            _, b, f = loc
            if label == "flip":
                prep_meas[b] = prep_meas.get(b, 0) ^ (1 << f)
        elif kind == noise.MERGE_MEAS:
            _, j, p = loc
            if label == "flip":
                pair_flips[j] = pair_flips.get(j, 0) ^ (1 << p)
        elif kind == noise.LAYER:
            _, q = loc
            if label in ("X", "Y"):
                layer_x ^= 1 << q
            if label in ("Z", "Y"):
                outcome_flips ^= 1 << q
        elif kind == noise.FINAL_MEAS:
            _, q = loc
            if label == "flip":
                outcome_flips ^= 1 << q
        else:
            raise ValueError(f"unknown location kind {kind!r}")
    return prep_data_x, prep_meas, pair_flips, layer_x, outcome_flips


def _pack(oracle, t, layout):
    """The oracle's result as one effect word in the layout's fields. The X
    pattern x_b entering block b is mapped here: H_z x_b joins the face
    flips, its Z-bar parity sets bit b of prep_logical, each pair (v, v)
    of merge j reads x_j[v] ^ x_{j+1}[v], and x_b joins the layer pattern
    in chain coordinates."""
    prep_data_x, prep_meas, pair_flips, layer_x, outcome_flips = oracle
    syndromes, logical = dict(prep_meas), 0
    for b, x in prep_data_x.items():
        code = t.block.code
        syndromes[b] = syndromes.get(b, 0) ^ code.z_syndrome(x)
        logical ^= ((x & code.logical_z).bit_count() & 1) << b
        layer_x ^= x << t.block_offset(b)
    pair_x = {}
    for j in range(t.k - 1):
        left, right = prep_data_x.get(j, 0), prep_data_x.get(j + 1, 0)
        for p, v in enumerate(t.merge_facet(j)):
            pair_x[j] = pair_x.get(j, 0) ^ ((left ^ right) >> v & 1) << p
    word = layer_x << layout.layer_x[0] ^ outcome_flips << layout.outcome_flips[0]
    word ^= logical << layout.prep_logical[0]
    for fields, parts in (
        (layout.prep_syndrome, syndromes), (layout.pair_flips, pair_flips),
        (layout.pair_x, pair_x),
    ):
        for i, v in parts.items():
            word ^= v << fields[i][0]
    return word


def _code(layout, loc, label):
    return 4 * layout.locations.index(loc) + noise._LABELS.index(label)


def _field(effect, field):
    shift, mask = field
    return effect >> shift & mask


@pytest.fixture(scope="module")
def chain2():
    return build_tetrahelix(2, 3)


@pytest.fixture(scope="module")
def layout(chain2):
    return stage_layout(chain2)


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(-0.1)
    with pytest.raises(ValueError):
        NoiseModel(0.1, mix_x=0.9, mix_z=0.9, mix_y=0.0, mix_meas=0.0)
    NoiseModel(0.0)


def test_layout_structure(chain2, layout):
    kinds = {}
    for loc in layout.locations:
        kinds[loc[0]] = kinds.get(loc[0], 0) + 1
    assert kinds[noise.PREP_DATA] == 30
    assert kinds[noise.PREP_MEAS] == 36
    assert kinds[noise.MERGE_MEAS] == 7
    assert kinds[noise.LAYER] == 30
    assert kinds[noise.FINAL_MEAS] == 30


@pytest.mark.parametrize("k, L", [(2, 3), (5, 3), (4, 5), (2, 7)])
def test_effects_match_the_oracle(k, L):
    t = build_tetrahelix(k, L)
    lay = stage_layout(t)
    pairs = [field for merge in zip(lay.pair_flips, lay.pair_x) for field in merge]
    fields = [*lay.prep_syndrome, lay.prep_logical, *pairs, lay.layer_x, lay.outcome_flips]
    # the fields tile the word from bit 0 up, in order, without overlap
    assert [shift for shift, _ in fields] == list(
        itertools.accumulate((mask.bit_length() for _, mask in fields[:-1]), initial=0)
    )
    assert len(lay.effects) == 4 * lay.size
    for i, loc in enumerate(lay.locations):
        for j, label in enumerate(noise._LABELS):
            assert lay.effects[4 * i + j] == _pack(_propagate_oracle([(loc, label)], t), t, lay)


def test_epsilon_extremes(layout):
    none = sample_iid_faults(NoiseModel(0.0), layout, 1)
    assert len(none) == 0 and list(none.by_trial()) == []
    # epsilon 1: every location of every trial, each exactly once
    full = sample_iid_faults(NoiseModel(1.0), layout, 1)
    assert len(full) == BATCH * layout.size
    assert full.positions.tolist() == list(range(BATCH * layout.size))
    trials = list(full.by_trial())
    assert [t for t, _ in trials] == list(range(BATCH))
    for _, codes in trials:
        assert tuple(layout.locations[c // 4] for c in codes) == layout.locations


def test_tiny_epsilon_stays_in_range(layout):
    # geometric gaps far beyond the grid must not overflow into it
    for seed in range(20):
        assert len(sample_iid_faults(NoiseModel(1e-300), layout, seed)) == 0


def _trial_sets(faults, stop=BATCH):
    return [(t, tuple(codes)) for t, codes in faults.by_trial(stop)]


def test_sampler_determinism(layout):
    model = NoiseModel(0.13)
    a = sample_iid_faults(model, layout, (5, 77, 0))
    b = sample_iid_faults(model, layout, (5, 77, 0))
    assert _trial_sets(a) == _trial_sets(b)
    c = sample_iid_faults(model, layout, (5, 78, 0))
    assert _trial_sets(a) != _trial_sets(c)


def test_by_trial_stops_at_the_truncation(layout):
    faults = sample_iid_faults(NoiseModel(0.02), layout, (5, 3))
    whole = _trial_sets(faults)
    for stop in (0, 1, 17, 100, BATCH):
        assert _trial_sets(faults, stop) == [(t, f) for t, f in whole if t < stop]


def test_batch_sampler_statistics(layout):
    # ~2000 batches at a non-uniform mix: every location is faulty with
    # frequency epsilon, per-trial fault counts are Binomial(m, epsilon) in
    # mean and variance, and labels follow the mix; all within 5 sd
    model = NoiseModel(0.05, mix_x=0.1, mix_z=0.2, mix_y=0.3, mix_meas=0.4)
    m, batches = layout.size, 2000
    eps, n = model.epsilon, batches * BATCH
    streams = TrialStreams()
    per_location = np.zeros(m, dtype=np.int64)
    per_trial = np.zeros(n, dtype=np.int64)
    labels = np.zeros(4, dtype=np.int64)
    for b in range(batches):
        faults = sample_iid_faults(model, layout, streams(8, b, 0))
        trial, where = np.divmod(faults.positions, m)
        assert np.all(np.diff(faults.positions) > 0)
        per_location += np.bincount(where, minlength=m)
        per_trial[b * BATCH:(b + 1) * BATCH] = np.bincount(trial, minlength=BATCH)
        labels += np.bincount(faults.labels, minlength=4)
    sd = math.sqrt(eps * (1 - eps) / n)
    assert np.all(np.abs(per_location / n - eps) < 5 * sd)
    mean, var = m * eps, m * eps * (1 - eps)
    assert abs(per_trial.mean() - mean) < 5 * math.sqrt(var / n)
    centred = per_trial - per_trial.mean()
    mu4 = float((centred**4).mean())
    assert abs(per_trial.var() - var) < 5 * math.sqrt((mu4 - var**2) / n)
    total = int(labels.sum())
    for count, share in zip(labels, (0.1, 0.2, 0.3, 0.4)):
        assert abs(count - total * share) < 5 * math.sqrt(total * share * (1 - share))


def test_local_stochastic_bound(layout):
    # i.i.d. locations: Pr[A subset F] = eps^|A| exactly; bound within 3 sigma
    model = NoiseModel(0.2)
    rng = make_rng(123)
    batches = 80
    trials = batches * BATCH
    subsets = []
    for _ in range(40):
        size = int(rng.integers(1, 4))
        subsets.append(tuple(int(x) for x in rng.choice(layout.size, size, replace=False)))
    hits = [0] * len(subsets)
    for b in range(batches):
        for _, codes in sample_iid_faults(model, layout, (9, b)).by_trial():
            idx = {code // 4 for code in codes}
            for s_i, sub in enumerate(subsets):
                if all(i in idx for i in sub):
                    hits[s_i] += 1
    for sub, h in zip(subsets, hits):
        p = model.epsilon ** len(sub)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert h / trials <= p + 4 * sigma


def test_propagate_z_is_outcome_flip(chain2, layout):
    res = propagate([_code(layout, (noise.LAYER, 7), "Z")], layout)
    assert _field(res, layout.outcome_flips) == 1 << 7
    assert _field(res, layout.layer_x) == 0
    res = propagate([_code(layout, (noise.PREP_DATA, 1, 3), "Z")], layout)
    assert _field(res, layout.outcome_flips) == 1 << chain2.block_offset(1) + 3


def test_propagate_x_after_layer_no_effect(layout):
    res = propagate([_code(layout, (noise.FINAL_MEAS, 4), "X")], layout)
    assert _field(res, layout.outcome_flips) == 0
    assert _field(res, layout.layer_x) == 0


def test_propagate_layer_twirl(layout):
    # propagation draws no twirl coin: a layer X only joins the X pattern
    # that the trial twirls, and a layer Y adds just its Z part
    res = propagate([_code(layout, (noise.LAYER, 4), "X")], layout)
    assert _field(res, layout.layer_x) == 1 << 4 and _field(res, layout.outcome_flips) == 0
    res = propagate([_code(layout, (noise.LAYER, 4), "Y")], layout)
    assert _field(res, layout.layer_x) == 1 << 4 and _field(res, layout.outcome_flips) == 1 << 4


def test_propagate_linearity(chain2, layout):
    model = NoiseModel(0.15)
    f1 = dict(sample_iid_faults(model, layout, (1, 0)).by_trial())[0]
    f2 = dict(sample_iid_faults(model, layout, (2, 0)).by_trial())[0]
    locs1 = {c // 4 for c in f1}
    only2 = [c for c in f2 if c // 4 not in locs1]
    joint = sorted(f1 + only2)
    a = propagate(f1, layout) ^ propagate(only2, layout)
    b = propagate(joint, layout)
    assert a == b
    faults = [(layout.locations[c // 4], noise._LABELS[c % 4]) for c in joint]
    assert b == _pack(_propagate_oracle(faults, chain2), chain2, layout)


def test_twirl_statevector_family_average():
    """Twirl model equals the exact coherent average over the T-exponent family.

    An X fault before T^m yields outcome distribution cos^2(m pi / 8) for the
    plus outcome; averaged over m uniform in 0..7 this is 1/2, matching the
    incoherent X -> {X, XZ} twirl. Per-exponent deviation is also bounded.
    """
    exact = []
    for m in range(8):
        # amplitudes of T^m X |+> in the Hadamard basis
        plus = abs(1 + np.exp(1j * np.pi * m / 4)) ** 2 / 4
        exact.append(plus)
    # twirl model: X|+> then Z^b with fair b, then T^m: distribution of
    # 0.5 * (dist(T^m|+>) + dist(T^m Z|+>)) -> plus probability 1/2 always
    assert np.mean(exact) == pytest.approx(0.5, abs=1e-12)
    assert max(abs(e - 0.5) for e in exact) <= 0.5 + 1e-12


def test_twirl_monte_carlo_average():
    rng = make_rng(7)
    trials = 100_000
    plus = 0
    for _ in range(trials):
        m = int(rng.integers(0, 8))
        b = int(rng.integers(0, 2))
        # outcome probability of + for Z^b T^m |+>  (X part dropped)
        amp = (1 + (-1) ** b * np.exp(1j * np.pi * m / 4)) / 2
        p_plus = abs(amp) ** 2
        plus += p_plus
    assert plus / trials == pytest.approx(0.5, abs=1e-2)


def _twirl_mask_per_bit(x_pattern, rng):
    """One scalar coin per bit position that is set, lowest first, scanning
    every position: the oracle for noise.twirl_mask's walk over the set bits."""
    out, q, v = 0, 0, x_pattern
    while v:
        if v & 1 and int(rng.integers(0, 2)):
            out |= 1 << q
        v >>= 1
        q += 1
    return out


def test_twirl_mask_matches_per_bit_draws():
    # the walk over set bits gives the position scan's coins on the trial
    # streams the simulator twirls from, and on a make_rng stream
    pick = np.random.default_rng(11)
    streams = TrialStreams()
    for trial in range(300):
        n = int(pick.integers(5, 701))
        x = int.from_bytes(pick.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
        x |= 1 << (n - 1)
        a = noise.twirl_mask(x, streams((7, 2), trial, 1))
        assert a == _twirl_mask_per_bit(x, streams((7, 2), trial, 1))
        b = noise.twirl_mask(x, make_rng((7, trial)))
        assert b == _twirl_mask_per_bit(x, make_rng((7, trial)))


def test_twirl_mask_determinism():
    a = noise.twirl_mask(0b1011, make_rng((3, 4)))
    b = noise.twirl_mask(0b1011, make_rng((3, 4)))
    assert a == b
    assert a & ~0b1011 == 0
