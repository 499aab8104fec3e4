import itertools
import random

import pytest

from tetriqp import colex as cx
from tetriqp import decoder as dc
from tetriqp import gf2
from tetriqp.harness import ChainSim
from tetriqp.noise import PREP_DATA, NoiseModel, propagate
from tetriqp.surgery import Block, build_tetrahelix


@pytest.fixture(scope="module")
def block3():
    return Block.build(cx.build_tetrahedral_colex(3))


@pytest.fixture(scope="module")
def dec3(block3):
    return dc.BlockDecoder(block3)


@pytest.fixture(scope="module")
def chain2(block3):
    return build_tetrahelix(2, 3, block=block3)


@pytest.fixture(scope="module")
def sim2(chain2):
    return ChainSim(chain2)


@pytest.fixture(scope="module")
def sim1():
    return ChainSim.build(1, 3)


@pytest.fixture(scope="module")
def fc3(block3):
    return cx.facet_code(block3.colex, 0)


def test_2d_trivial_cases(fc3):
    fd = dc.FacetDecoder(fc3)
    assert fd.decode(0) == (0, 0)
    assert fd.decode(fc3.logical) == (1, 0)


def test_2d_lookup_true_min_weight(fc3):
    # exhaustive: for every 7-bit word the returned correction has minimum
    # weight among all corrections reaching a codeword
    fd = dc.FacetDecoder(fc3)
    stab = [gf2.vector_from_support(f) for f in fc3.faces]
    codewords = set()
    for mask in range(1 << len(stab)):
        w = 0
        for i in range(len(stab)):
            if mask >> i & 1:
                w ^= stab[i]
        codewords.add(w)
        codewords.add(w ^ fc3.logical)
    for word in range(1 << fc3.n):
        x, corr = fd.decode(word)
        assert (word ^ corr) in codewords
        best = min((word ^ cw).bit_count() for cw in codewords)
        assert corr.bit_count() == best


def test_2d_stabilizer_plus_flip(fc3):
    fd = dc.FacetDecoder(fc3)
    stab = gf2.vector_from_support(fc3.faces[0])
    for q in range(fc3.n):
        x, corr = fd.decode(stab ^ (1 << q))
        assert x == 0
        assert corr.bit_count() == 1


def test_2d_single_flip_corrected_l5():
    fc = cx.facet_code(cx.build_tetrahedral_colex(5), 2)
    fd = dc.FacetDecoder(fc)
    for q in range(fc.n):
        x, corr = fd.decode(fc.logical ^ (1 << q))
        assert x == 1 and corr == 1 << q


def test_lift_single_face(fc3, block3):
    # each facet face is the trace of its incident cell, which is what lets a
    # 2D merge decode act on the 3D block through that cell
    for fi in range(len(fc3.faces)):
        cell = gf2.vector_from_support(block3.colex.cells[fc3.face_cells[fi]].vertices)
        local = 0
        for pos, q in enumerate(fc3.qubits):
            if cell >> q & 1:
                local |= 1 << pos
        assert local == gf2.vector_from_support(fc3.faces[fi])
        # and the cell is a Z-stabilizer-commuting codeword
        assert block3.code.z_syndrome(cell) == 0


def test_lift_logical(fc3, block3):
    # the facet logical is the trace of the 3D X logical
    local = 0
    for pos, q in enumerate(fc3.qubits):
        if block3.code.logical_x >> q & 1:
            local |= 1 << pos
    assert local == fc3.logical


def test_prep_noiseless(dec3, sim2):
    assert dec3.decode_prep(0) == (0, 0)
    assert all(r.prep_noncorrectable == 0 for r in sim2.run_batch(NoiseModel(0.0), 9, 0))


def test_prep_single_measurement_flip(block3, dec3):
    # a single flipped face outcome is explained as a measurement error:
    # residual weight stays below the flipped stabilizer's weight
    for f in range(dec3.faces.checks.nrows):
        xhat, emhat = dec3.decode_prep(1 << f)
        assert xhat == 0 and emhat == 1 << f


def test_prep_single_data_fault_fully_corrected(dec3):
    for q in range(15):
        syn = dec3.faces.syndrome(1 << q)
        xhat, emhat = dec3.decode_prep(syn)
        assert xhat == 1 << q and emhat == 0


def _global_min_explanation(dec, syn, cap):
    # brute-force oracle over all data and measurement columns up to weight cap
    cols = [(dec.faces.syndrome(1 << q)) for q in range(15)] + [
        1 << f for f in range(dec.faces.checks.nrows)
    ]
    for w in range(cap + 1):
        for combo in itertools.combinations(range(len(cols)), w):
            s = 0
            for i in combo:
                s ^= cols[i]
            if s == syn:
                return w
    return None


def test_prep_explanation_always_valid(block3, dec3):
    rng = random.Random(5)
    for _ in range(200):
        e_d = 0
        for q in range(15):
            if rng.random() < 0.08:
                e_d |= 1 << q
        e_m = 0
        for f in range(18):
            if rng.random() < 0.08:
                e_m |= 1 << f
        syn = dec3.faces.syndrome(e_d) ^ e_m
        xhat, emhat = dec3.decode_prep(syn)
        # the explanation always reproduces the observed syndrome
        assert dec3.faces.syndrome(xhat) ^ emhat == syn


def test_prep_single_cluster_min_weight(block3, dec3):
    # faults confined to one syndrome cluster are decoded at exact minimum
    # weight: a data fault plus measurement flips on its own faces
    rng = random.Random(6)
    for q in range(15):
        faces = gf2.support(dec3.faces.sigs[q])
        for f in faces[:2]:
            syn = dec3.faces.syndrome(1 << q) ^ (1 << f)
            xhat, emhat = dec3.decode_prep(syn)
            assert dec3.faces.syndrome(xhat) ^ emhat == syn
            best = _global_min_explanation(dec3, syn, 2)
            assert xhat.bit_count() + emhat.bit_count() == best


def test_merge_noiseless(sim2, fc3):
    assert dc.FacetDecoder(fc3).decode(0) == (0, 0)
    for res in sim2.run_batch(NoiseModel(0.0), 2, 0):
        assert res.sector_flips == (0,)
        assert res.merge_noncorrectable == 0


def test_merge_single_flip_harmless(fc3):
    fd = dc.FacetDecoder(fc3)
    for p in range(7):
        x, corr = fd.decode(1 << p)
        assert x == 0 and corr == 1 << p


def test_merge_two_flips_can_err(fc3):
    # distance 3: some adversarial weight-2 flip pattern decodes to x = 1
    fd = dc.FacetDecoder(fc3)
    flipped = 0
    for a, b in itertools.combinations(range(7), 2):
        x, _ = fd.decode((1 << a) | (1 << b))
        flipped += x
    assert flipped > 0


def test_merge_residual_drives_word(monkeypatch, chain2):
    # a residual X error on a paired qubit flips the corresponding pair bit
    vl = chain2.merge_facet(0)[2]
    sim = ChainSim(chain2)  # its own, so that no memoised prep decode bypasses the patch
    fault = 4 * sim.layout.locations.index((PREP_DATA, 0, vl))  # label X
    # an idle preparation decoder leaves the fault as the residual
    monkeypatch.setattr(dc.BlockDecoder, "decode_prep", lambda self, syndrome: (0, 0))
    words = []
    decode = dc.FacetDecoder.decode

    def recording_decode(self, word):
        words.append(word)
        return decode(self, word)

    monkeypatch.setattr(dc.FacetDecoder, "decode", recording_decode)
    sim.correct(propagate([fault], sim.layout))
    assert words[0] == 1 << 2


def test_decode_tetrahedral_noiseless(sim1, block3):
    rng = random.Random(12)
    kb = gf2.kernel_basis(block3.code.hx.rows, 15)
    for _ in range(30):
        o = 0
        for v in kb:
            if rng.getrandbits(1):
                o ^= v
        want = (o & block3.code.logical_x).bit_count() & 1
        assert sim1._decode(o) == want


def test_decode_tetrahedral_single_flip(sim1, block3):
    rng = random.Random(13)
    kb = gf2.kernel_basis(block3.code.hx.rows, 15)
    for q in range(15):
        o = 0
        for v in kb:
            if rng.getrandbits(1):
                o ^= v
        want = (o & block3.code.logical_x).bit_count() & 1
        assert sim1._decode(o ^ (1 << q)) == want


def test_decode_tetrahedral_weight2_fails_sometimes(sim1, block3):
    fails = 0
    for a, b in itertools.combinations(range(15), 2):
        e = (1 << a) | (1 << b)
        if sim1._decode(e) != (e & block3.code.logical_x).bit_count() & 1:
            fails += 1
    assert fails > 0


def test_pipeline_noiseless(sim2, chain2):
    rng = random.Random(14)
    kb = gf2.kernel_basis(chain2.code.hx.rows, 30)
    for _ in range(25):
        o = 0
        for v in kb:
            if rng.getrandbits(1):
                o ^= v
        want = (o & chain2.code.logical_x).bit_count() & 1
        assert sim2._decode(o) == want


def test_pipeline_single_flip_exhaustive(sim2, chain2):
    rng = random.Random(15)
    kb = gf2.kernel_basis(chain2.code.hx.rows, 30)
    for q in range(30):
        o = 0
        for v in kb:
            if rng.getrandbits(1):
                o ^= v
        ref = sim2._decode(o)
        assert sim2._decode(o ^ (1 << q)) == ref


def test_pipeline_frame_invariance(sim2, chain2):
    # XORing any Hz row or pair row into the outcomes never changes the result
    rng = random.Random(16)
    kb = gf2.kernel_basis(chain2.code.hx.rows, 30)
    o = 0
    for v in kb:
        if rng.getrandbits(1):
            o ^= v
    base = sim2._decode(o)
    for row in chain2.code.hz.rows:
        assert sim2._decode(o ^ row) == base


def test_inter_block_strings_corrected(sim2, chain2):
    # error strings of weight < 2 per block jumping across the merge
    rng = random.Random(17)
    kb = gf2.kernel_basis(chain2.code.hx.rows, 30)
    for v in chain2.merge_facet(0):
        e = (1 << v) | (1 << chain2.block_offset(1) + v)
        # weight 1 per block: the chain hypothesis must keep the reference bit
        for _ in range(5):
            o = 0
            for v in kb:
                if rng.getrandbits(1):
                    o ^= v
            ref = sim2._decode(o)
            got = sim2._decode(o ^ e)
            assert got == ref


def test_merge_flags_zero_noise_and_noisy(sim2):
    assert sim2.run_batch(NoiseModel(0.0), 5, 0)[0].merge_noncorrectable == 0
    # heavy measurement noise produces wrong merge decodes eventually
    model = NoiseModel(0.4, mix_x=0, mix_z=0, mix_y=0, mix_meas=1.0)
    flagged = sum(r.merge_noncorrectable for b in (0, 1) for r in sim2.run_batch(model, 6, b))
    assert flagged > 0


def test_transversal_t_statevector_through_decoder(sim1, block3):
    """Exact check of the encoded T-gate through the whole stack.

    The encoded plus state is the uniform superposition over kernel(Hz);
    applying physical T-dagger on all 15 qubits (the all-minus partition)
    implements the logical T, so Hadamard-basis measurement plus tetrahedral
    decoding must reproduce the bare T|+> outcome statistics exactly.
    """
    import cmath
    import math

    kb = gf2.kernel_basis(block3.code.hz.rows, 15)
    span = []
    for mask in range(1 << len(kb)):
        v = 0
        m, i = mask, 0
        while m:
            if m & 1:
                v ^= kb[i]
            m >>= 1
            i += 1
        span.append(v)
    amps = {v: cmath.exp(-1j * math.pi * v.bit_count() / 4) for v in span}
    p_logical = [0.0, 0.0]
    norm = 0.0
    for o in range(1 << 15):
        a = 0j
        for v, av in amps.items():
            a += av if (o & v).bit_count() % 2 == 0 else -av
        p = abs(a) ** 2
        if p < 1e-18:
            continue
        norm += p
        p_logical[sim1._decode(o)] += p
    p1 = p_logical[1] / norm
    assert p1 == pytest.approx(math.sin(math.pi / 8) ** 2, abs=1e-9)
