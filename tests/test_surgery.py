import hashlib
import json
import random

import pytest

from tetriqp import colex as cx
from tetriqp import csscode as cc
from tetriqp import gf2
from tetriqp import surgery as sg
from tetriqp.noise import stage_layout


@pytest.fixture(scope="module")
def block3():
    return sg.Block.build(cx.build_tetrahedral_colex(3))


@pytest.fixture(scope="module")
def chain2(block3):
    return sg.build_tetrahelix(2, 3, block=block3)


@pytest.fixture(scope="module")
def chain3(block3):
    return sg.build_tetrahelix(3, 3, block=block3)


def test_merge_l3_structure(chain2):
    assert chain2.code.n == 30
    assert cc.logical_count(chain2.code) == 1
    assert len(chain2.merge_facet(0)) == 7
    pairs = [label for label in chain2.code.hz.labels if label[0] == "pair"]
    assert pairs == [("pair", 0, p) for p in range(7)]
    sizes = sorted(len(c) for c in chain2.fused_cells)
    assert sizes == [1, 1, 2, 2, 2]  # C1*, C2*, and 3 fused classes
    assert chain2.code.check_commutation()


def test_merge_rank_and_relations(chain2):
    assert gf2.rank(chain2.code.hz) == 24
    f1 = [r for r, l in zip(chain2.code.hz.rows, chain2.code.hz.labels)
          if l[0] == "face" and l[1] == 0]
    f2 = [r for r, l in zip(chain2.code.hz.rows, chain2.code.hz.labels)
          if l[0] == "face" and l[1] == 1]
    pairs = [r for r, l in zip(chain2.code.hz.rows, chain2.code.hz.labels)
             if l[0] == "pair"]
    b1, _ = gf2.rref(f1, 30)
    b2, _ = gf2.rref(f2, 30)
    rows = list(b1) + list(b2) + pairs
    assert len(rows) == 27
    assert len(rows) - gf2.rank(rows, 30) == 3  # four-pair products of each 2D face


def test_merge_distances(chain2):
    dz = cc.distance(chain2.code, "Z", cap=8)
    dx = cc.distance(chain2.code, "X", cap=16)
    assert dz.found and dz.weight == 3
    assert dx.found and dx.weight == 14  # 2 * d_X(tetrahedral)


def test_chain_base_case(block3):
    t1 = sg.build_tetrahelix(1, 3, block=block3)
    assert t1.code.n == 15
    assert t1.code.hx.rows == tuple(block3.code.hx.rows)
    assert cc.logical_count(t1.code) == 1


def test_chain_parameter_validation():
    with pytest.raises(sg.MergeError):
        sg.build_tetrahelix(0, 3)
    with pytest.raises(cx.ColexBuildError):
        sg.build_tetrahelix(2, 4)


def test_chain3_multiblock_fusion(chain3):
    assert chain3.code.n == 45
    assert cc.logical_count(chain3.code) == 1
    spans = [max(b for b, _ in c) - min(b for b, _ in c) + 1 for c in chain3.fused_cells]
    assert max(spans) == 3


def _max_fusion_span(t):
    """Most blocks that one fused cell of the chain spans."""
    return max(len(cls) for cls in t.fused_cells)


def test_chain4_summit_fusion():
    t4 = sg.build_tetrahelix(4, 3)
    assert _max_fusion_span(t4) == 4
    assert cc.logical_count(t4.code) == 1


def test_ldpc_row_weights(chain3):
    max_cell = max(len(c.vertices) for c in chain3.block.colex.cells)
    max_face = max(len(f.vertices) for f in chain3.block.colex.faces)
    for r, l in zip(chain3.code.hx.rows, chain3.code.hx.labels):
        assert r.bit_count() <= 4 * max_cell
    for r in chain3.code.hz.rows:
        assert r.bit_count() <= max(max_face, 2)


def test_restriction_property(chain3):
    # chain X row restricted to one block is in that block's X rowspace
    block_rows = chain3.block.code.hx.rows
    for row in chain3.code.hx.rows:
        for b in range(chain3.k):
            part = chain3.block_slice(row, b)
            assert gf2.in_rowspace(block_rows, 15, part)


def test_chain_logicals(chain2):
    xbar, zbar = chain2.code.logical_x, chain2.code.logical_z
    assert xbar.bit_count() == 14
    assert xbar == chain2.block_logical_x(0) ^ chain2.block_logical_x(1)
    for row in chain2.code.hz.rows:
        assert gf2.dot(xbar, row) == 0
    assert gf2.dot(xbar, zbar) == 1


def test_dz_independent_of_k(block3):
    for k in (1, 2, 3):
        t = sg.build_tetrahelix(k, 3, block=block3)
        dz = cc.distance(t.code, "Z", cap=8)
        assert dz.found and dz.weight == 3


def _random_codeword_outcome(t, rng):
    kb = gf2.kernel_basis(t.code.hx.rows, t.code.n)
    o = 0
    for v in kb:
        if rng.getrandbits(1):
            o ^= v
    return o


@pytest.mark.parametrize("k,L", [(2, 3), (3, 3), (4, 3)])
def test_split_noiseless(k, L):
    t = sg.build_tetrahelix(k, L)
    rng = random.Random(2024)
    xbar = t.code.logical_x
    for _ in range(25):
        o = _random_codeword_outcome(t, rng)
        res = sg.split_frame(t, o)
        assert not any(res.block_syndromes)
        per = 0
        for b in range(k):
            per ^= (res.block_outcomes[b] & t.block_slice(t.block_logical_x(b), b)).bit_count() & 1
        assert per == (o & xbar).bit_count() & 1


def test_split_idempotent(chain3):
    rng = random.Random(7)
    for _ in range(10):
        o = _random_codeword_outcome(chain3, rng)
        o ^= rng.getrandbits(chain3.code.n)  # arbitrary noise on top
        res = sg.split_frame(chain3, o)
        assert res.block_syndromes == tuple(
            chain3.block.code.hx.mul_vec(ob) for ob in res.block_outcomes
        )
        o2 = 0
        for b in range(chain3.k):
            o2 |= res.block_outcomes[b] << chain3.block_offset(b)
        res2 = sg.split_frame(chain3, o2)
        assert res2.block_outcomes == res.block_outcomes
        assert res2.frame == (0,) * (chain3.k - 1)


def test_split_single_flip_incidence(chain2):
    rng = random.Random(5)
    o = _random_codeword_outcome(chain2, rng)
    q = 3  # flip one outcome bit in block 0
    res0 = sg.split_frame(chain2, o)
    res1 = sg.split_frame(chain2, o ^ (1 << q))
    # stabilizer values change exactly on cells incident to q (pre-frame);
    # post-frame the syndrome weight stays small and local to block 0
    assert res1.block_syndromes != res0.block_syndromes or res1.frame != res0.frame
    total = sum(s.bit_count() for s in res1.block_syndromes)
    assert total <= 3


def test_split_frame_commutes_with_logical(chain2):
    # frame rows never change the chain logical parity
    xbar = chain2.code.logical_x
    rng = random.Random(9)
    for _ in range(20):
        o = _random_codeword_outcome(chain2, rng) ^ rng.getrandbits(30)
        res = sg.split_frame(chain2, o)
        o2 = 0
        for b in range(chain2.k):
            o2 |= res.block_outcomes[b] << chain2.block_offset(b)
        assert (o & xbar).bit_count() & 1 == (o2 & xbar).bit_count() & 1


def test_chain_file_round_trip(tmp_path):
    # a chain file holds k and the block colex; import rebuilds every other
    # field through build_tetrahelix, labels and merge cell maps included
    p = tmp_path / "chain.json"
    for k, L in [(1, 3), (2, 3), (5, 3), (4, 5), (2, 7)]:
        t = sg.build_tetrahelix(k, L)
        sg.export_chain(t, p)
        assert set(json.loads(p.read_text())) == {"k", "block_colex"}
        assert sg.import_chain(p) == t


def test_import_chain_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(cx.ColexParseError, match="line"):
        sg.import_chain(p)


def test_per_block_t_residues(chain3):
    # depth-1 logical T per tetrahedron: per-block residue checks pass
    tp = cc.TPartition(chain3.code.n, 0)
    for b in range(chain3.k):
        rep = cc.check_diagonal_transversality(chain3.code, tp, block=chain3.block_mask(b))
        assert rep.passed, f"block {b}"
        assert rep.residue in (1, 7)


def test_per_block_cs_gadget(chain2):
    tp = cc.TPartition(chain2.code.n, 0)
    for b in range(chain2.k):
        rep = cc.check_cs_gadget(chain2.code, chain2.code, tp, block=chain2.block_mask(b))
        assert rep.passed, f"block {b}"


def test_fusion_span_capped_at_four():
    for k in (2, 3, 4, 6):
        t = sg.build_tetrahelix(k, 3)
        assert _max_fusion_span(t) <= 4


def _noisy_words(t, seed, count):
    """Random codewords of the chain, every other one under fully random
    noise and the rest under one to eight random bit flips."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        o = _random_codeword_outcome(t, rng)
        if i % 2:
            o ^= rng.getrandbits(t.code.n)
        else:
            for _ in range(rng.randrange(1, 9)):
                o ^= 1 << rng.randrange(t.code.n)
        out.append(o)
    return out


def _chain_digest(t):
    """sha256 of a chain's code (rows, labels, logicals), its fused cells
    and its stage layout."""
    c = t.code
    h = hashlib.sha256()
    for m in (c.hx, c.hz):
        h.update(repr((m.cols, m.rows, m.labels)).encode())
    h.update(repr((c.n, c.logical_x, c.logical_z, t.fused_cells)).encode())
    h.update(repr(stage_layout(t)).encode())
    return h.hexdigest()


CHAIN_PINS = {  # _chain_digest(build_tetrahelix(k, L))
    (1, 3): "da71a56dd68b4e9e58e85127ad574c6b3e0ab686a2f1d93346cbe32b97d60ffd",
    (2, 3): "f3aa12d64757b1dfbc44dc97a11e38c5a203f00a4db24ffbeffd9967645efa87",
    (3, 3): "04434d4b93e56f73fee2d00629c1b2690ed8004c71f8c62e052c4c5bd581f5bc",
    (4, 3): "daafe8c8a273b82dd36a1329daa8ebe743a9860aea7681c216a9f46b7d4e5a9b",
    (5, 3): "70da124775075b0fed7cfeab0f968f6bc16ec082ad7604c1ba98f71b5f9247b6",
    (8, 3): "e3253a64080c1a3da679f5146a318e551c1bdac8cce72ff3c24c2782ad567c77",
    (2, 5): "78acc1b2c248fb39d16c8be36ba3afcde40963f4d714c61391a8fa0a50c916fb",
    (4, 5): "d550f5391abed1bfaf452fe8bce3bd1dd067eaffc58f70b638adb3417e057e26",
    (2, 7): "5287a520d5adc777fad6f598e73e37c3789f98da8d20ea14d1a976e459e13e02",
}


@pytest.mark.parametrize("k,L", CHAIN_PINS)
def test_chain_pinned(k, L):
    # a chain's structure is fixed by (k, L); a refactor of the chain keeps it
    assert _chain_digest(sg.build_tetrahelix(k, L)) == CHAIN_PINS[k, L]


SPLIT_PINS = {  # sha256 of the split's outputs on _noisy_words(t, 1000k + L, 200)
    (2, 3): "bcb57feb35201c6cf2a18cd2b06db621813934a5a5403161c8f29418a347a403",
    (5, 3): "6757193c3d84ea1d8feafd7a52e0c837a752726a2476dbcb352c29eba1f2f7f1",
    (4, 5): "831e5890995341b6fcc92b59753f37c822a03cd1d674d00862878f60da8f75ea",
    (2, 7): "c41205de53527f08defa5d9fa85c25cedf60a9c0a40e2eb2ebdfce4081d8f15c",
}


@pytest.mark.parametrize("k,L", SPLIT_PINS)
def test_split_frame_pinned(k, L):
    # the split's outputs on fixed words; a refactor of the split keeps them
    t = sg.build_tetrahelix(k, L)
    h = hashlib.sha256()
    for o in _noisy_words(t, 1000 * k + L, 200):
        res = sg.split_frame(t, o)
        h.update(repr((res.block_outcomes, res.block_syndromes, res.frame)).encode())
    assert h.hexdigest() == SPLIT_PINS[k, L]


@pytest.mark.parametrize("k,L", [(2, 3), (3, 3), (4, 3), (5, 3), (4, 5)])
def test_split_leaves_each_block_its_part_of_the_hypothesis(k, L):
    # after the frame, block b's cell syndrome is that of block b's part of
    # the chain decoder's hypothesis for the whole outcome word
    t = sg.build_tetrahelix(k, L)
    ctx = t.split_context
    for o in _noisy_words(t, 77 * k + L, 600):
        zhat, _ = ctx.chain.decode(ctx.chain.syndrome(o))
        res = sg.split_frame(t, o)
        assert res.block_syndromes == tuple(
            ctx.cells.syndrome(t.block_slice(zhat, b)) for b in range(k)
        )
