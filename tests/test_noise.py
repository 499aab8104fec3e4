import math

import numpy as np
import pytest

from tetriqp import noise
from tetriqp.noise import NoiseModel, propagate, sample_iid_faults, stage_layout
from tetriqp.rng import make_rng
from tetriqp.surgery import build_tetrahelix


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


def test_epsilon_extremes(layout):
    assert len(sample_iid_faults(NoiseModel(0.0), layout, 1)) == 0
    assert len(sample_iid_faults(NoiseModel(1.0), layout, 1)) == layout.size


def test_sampler_determinism(layout):
    model = NoiseModel(0.13)
    a = sample_iid_faults(model, layout, (5, 77, 0))
    b = sample_iid_faults(model, layout, (5, 77, 0))
    assert a == b
    c = sample_iid_faults(model, layout, (5, 78, 0))
    assert a != c


def test_local_stochastic_bound(layout):
    # i.i.d. locations: Pr[A subset F] = eps^|A| exactly; bound within 3 sigma
    model = NoiseModel(0.2)
    rng = make_rng(123)
    trials = 20000
    subsets = []
    for _ in range(40):
        size = int(rng.integers(1, 4))
        subsets.append(tuple(int(x) for x in rng.choice(layout.size, size, replace=False)))
    hits = [0] * len(subsets)
    for t in range(trials):
        fl = sample_iid_faults(model, layout, (9, t))
        idx = {layout.locations.index(loc) for loc, _ in fl.faults}
        for s_i, sub in enumerate(subsets):
            if all(i in idx for i in sub):
                hits[s_i] += 1
    for sub, h in zip(subsets, hits):
        p = model.epsilon ** len(sub)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert h / trials <= p + 4 * sigma


def test_propagate_z_is_outcome_flip(chain2):
    fs = noise.FaultSet((((noise.LAYER, 7), "Z"),))
    res = propagate(fs, chain2)
    assert res.outcome_flips == 1 << 7
    assert res.layer_x == 0
    fs = noise.FaultSet((((noise.PREP_DATA, 1, 3), "Z"),))
    res = propagate(fs, chain2)
    assert res.outcome_flips == 1 << chain2.qubit(1, 3)


def test_propagate_x_after_layer_no_effect(chain2):
    fs = noise.FaultSet((((noise.FINAL_MEAS, 4), "X"),))
    res = propagate(fs, chain2)
    assert res.outcome_flips == 0
    assert res.layer_x == 0


def test_propagate_layer_twirl(chain2):
    # propagation draws no twirl coin: a layer X only joins the X pattern
    # that the trial twirls, and a layer Y adds just its Z part
    fs = noise.FaultSet((((noise.LAYER, 4), "X"),))
    res = propagate(fs, chain2)
    assert res.layer_x == 1 << 4 and res.outcome_flips == 0
    fs = noise.FaultSet((((noise.LAYER, 4), "Y"),))
    res = propagate(fs, chain2)
    assert res.layer_x == 1 << 4 and res.outcome_flips == 1 << 4


def test_propagate_linearity(chain2, layout):
    model = NoiseModel(0.15)
    f1 = sample_iid_faults(model, layout, (1, 0))
    f2 = sample_iid_faults(model, layout, (2, 0))
    locs1 = set(f1.locations())
    joint = noise.FaultSet(
        tuple(sorted(
            [f for f in f1.faults]
            + [f for f in f2.faults if f[0] not in locs1],
            key=str,
        ))
    )
    only2 = noise.FaultSet(tuple(f for f in f2.faults if f[0] not in locs1))
    a = propagate(f1, chain2).xor(propagate(only2, chain2))
    b = propagate(joint, chain2)
    assert a.outcome_flips == b.outcome_flips
    assert a.layer_x == b.layer_x
    assert a.prep_data_x == b.prep_data_x
    assert a.prep_meas == b.prep_meas
    assert a.pair_flips == b.pair_flips


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


def test_twirl_mask_determinism():
    a = noise.twirl_mask(0b1011, make_rng((3, 4)))
    b = noise.twirl_mask(0b1011, make_rng((3, 4)))
    assert a == b
    assert a & ~0b1011 == 0
