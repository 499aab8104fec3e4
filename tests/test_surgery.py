import random

import pytest

from tetriqp import colex as cx
from tetriqp import csscode as cc
from tetriqp import gf2
from tetriqp import surgery as sg


@pytest.fixture(scope="module")
def block3():
    return sg.Block.build(cx.build_tetrahedral_colex(3))


@pytest.fixture(scope="module")
def chain2(block3):
    return sg.build_tetrahelix(2, 3, block=block3)


@pytest.fixture(scope="module")
def chain3(block3):
    return sg.build_tetrahelix(3, 3, block=block3)


def test_mirror_properties(block3):
    m, phi = sg.mirror(block3.colex)
    assert m.n == 15
    assert cx.validate_colex(m).passed
    assert sorted(phi) == list(range(15))
    # cell color multiset preserved
    assert sorted(c.color for c in m.cells) == sorted(c.color for c in block3.colex.cells)
    # phi maps each facet onto the mirror facet of the same color
    for col in range(4):
        src = set(block3.colex.facet(col).vertices)
        dst = set(m.facet(col).vertices)
        assert {phi[v] for v in src} == dst


def test_merge_l3_structure(chain2):
    assert chain2.code.n == 30
    assert cc.logical_count(chain2.code) == 1
    assert len(chain2.pairings) == 1
    assert len(chain2.pairings[0].pairs) == 7
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


def test_chain4_summit_fusion():
    t4 = sg.build_tetrahelix(4, 3)
    assert t4.max_fusion_span() == 4
    assert cc.logical_count(t4.code) == 1


def test_ldpc_row_weights(chain3):
    max_cell = max(len(c.vertices) for c in chain3.blocks[0].colex.cells)
    max_face = max(len(f.vertices) for f in chain3.blocks[0].colex.faces)
    for r, l in zip(chain3.code.hx.rows, chain3.code.hx.labels):
        assert r.bit_count() <= 4 * max_cell
    for r in chain3.code.hz.rows:
        assert r.bit_count() <= max(max_face, 2)


def test_restriction_property(chain3):
    # chain X row restricted to one block is in that block's X rowspace
    block_rows = chain3.blocks[0].code.hx.rows
    for row in chain3.code.hx.rows:
        for b in range(chain3.k):
            part = chain3.block_slice(row, b)
            assert gf2.in_rowspace(block_rows, 15, part)


def test_chain_logicals(chain2):
    xbar, zbar, blx = chain2.chain_logicals()
    assert xbar.bit_count() == 14
    assert zbar == chain2.code.logical_z
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
    xbar, _, blx = t.chain_logicals()
    for _ in range(25):
        o = _random_codeword_outcome(t, rng)
        res = sg.split_frame(t, o)
        assert not any(res.block_syndromes)
        per = 0
        for b in range(k):
            per ^= (res.block_outcomes[b] & t.block_slice(blx[b], b)).bit_count() & 1
        assert per == (o & xbar).bit_count() & 1


def test_split_idempotent(chain3):
    rng = random.Random(7)
    for _ in range(10):
        o = _random_codeword_outcome(chain3, rng)
        o ^= rng.getrandbits(chain3.code.n)  # arbitrary noise on top
        res = sg.split_frame(chain3, o)
        assert res.block_syndromes == tuple(
            b.code.hx.mul_vec(ob) for b, ob in zip(chain3.blocks, res.block_outcomes)
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
    xbar, _, _ = chain2.chain_logicals()
    rng = random.Random(9)
    for _ in range(20):
        o = _random_codeword_outcome(chain2, rng) ^ rng.getrandbits(30)
        res = sg.split_frame(chain2, o)
        o2 = 0
        for b in range(chain2.k):
            o2 |= res.block_outcomes[b] << chain2.block_offset(b)
        assert (o & xbar).bit_count() & 1 == (o2 & xbar).bit_count() & 1


def test_merge_facet_mismatch(block3):
    phi = list(range(15))
    phi[0], phi[1] = phi[1], phi[0]  # break the facet alignment if 0/1 straddle
    fac = set(block3.colex.facet(0).vertices)
    if (0 in fac) != (1 in fac):
        with pytest.raises(sg.MergeError):
            sg.merge(block3, block3, 0, phi)
    else:
        # pick a pair that straddles the facet boundary
        inside = min(fac)
        outside = min(set(range(15)) - fac)
        phi = list(range(15))
        phi[inside], phi[outside] = phi[outside], phi[inside]
        with pytest.raises(sg.MergeError):
            sg.merge(block3, block3, 0, phi)


def test_chain_file_round_trip(tmp_path, chain2):
    p = tmp_path / "chain.json"
    sg.export_chain(chain2, p)
    t2 = sg.import_chain(p)
    assert t2.k == chain2.k
    assert t2.code.hx.rows == chain2.code.hx.rows
    assert t2.code.hz.rows == chain2.code.hz.rows
    assert t2.pairings == chain2.pairings
    assert t2.fused_cells == chain2.fused_cells
    assert t2.block_logical_x == chain2.block_logical_x


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
        assert t.max_fusion_span() <= 4
