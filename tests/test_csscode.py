import itertools
import random

import pytest

from tetriqp import colex as cx
from tetriqp import csscode as cc
from tetriqp import gf2
from tetriqp.gf2 import BitMatrix
from tetriqp.surgery import build_tetrahelix


@pytest.fixture(scope="module")
def code3():
    return cc.from_colex(cx.build_tetrahedral_colex(3))


@pytest.fixture(scope="module")
def code5():
    return cc.from_colex(cx.build_tetrahedral_colex(5))


def test_l3_parameters(code3):
    assert code3.n == 15
    assert cc.logical_count(code3) == 1
    assert gf2.rank(code3.hx) == 4
    assert gf2.rank(code3.hz) == 10
    assert code3.logical_z.bit_count() == 3
    assert code3.logical_x.bit_count() == 7


def test_l3_distances(code3):
    dz = cc.distance(code3, "Z", cap=8)
    dx = cc.distance(code3, "X", cap=8)
    assert dz.found and dz.weight == 3
    assert dx.found and dx.weight == 7


def test_l5_parameters(code5):
    assert code5.n == 65
    assert cc.logical_count(code5) == 1
    dz = cc.distance(code5, "Z", cap=8)
    assert dz.found and dz.weight == 5


def test_distance_nondecreasing(code3, code5):
    d3 = cc.distance(code3, "Z", cap=8).weight
    d5 = cc.distance(code5, "Z", cap=8).weight
    assert d5 >= d3


def test_commutation(code3, code5):
    assert code3.check_commutation()
    assert code5.check_commutation()


def test_logical_count_trivial():
    empty = BitMatrix.make([], 2)
    code = cc.CssCode(2, empty, empty, 0b01, 0b01)
    assert cc.logical_count(code) == 2


def test_t_partition_l3(code3):
    tp = cc.find_t_partition(code3)
    assert tp is not None
    assert tp.v_plus == 0  # all qubits in V-
    assert tp.induced_logical == "T"
    rep = cc.check_diagonal_transversality(code3, tp)
    assert rep.passed and rep.residue == 1


def test_t_partition_round_trip(code3, code5):
    # every found partition passes the checker (fixed point)
    for code in (code3, code5):
        tp = cc.find_t_partition(code)
        if tp is None:
            continue
        assert cc.check_diagonal_transversality(code, tp).passed


def test_t_partition_perturbation_fails(code3):
    tp = cc.find_t_partition(code3)
    moved = cc.TPartition(code3.n, tp.v_plus ^ 1)  # move qubit 0 across
    rep = cc.check_diagonal_transversality(code3, moved)
    assert not rep.passed


def test_t_partition_counterexample():
    # two-qubit toy code with no valid sign assignment
    code = cc.CssCode(
        2, BitMatrix.make([0b11], 2), BitMatrix.make([], 2), 0b01, 0b11
    )
    assert cc.find_t_partition(code) is None


# The oracle the overlap checks must match: the phase conditions checked
# word by word over the whole stabilizer group and its logical coset. Under
# a block mask it lists the span of the masked generators, which is the set
# of masked group words, each once.


def _span(gens):
    """Every XOR of gens, by Gray-code single XORs."""
    v = 0
    yield v
    for t in range(1, 1 << len(gens)):
        v ^= gens[(t & -t).bit_length() - 1]
        yield v


def test_residue_constant_on_stabilizer_cosets(code3):
    tp = cc.find_t_partition(code3)
    gens, _ = gf2.rref(code3.hx.rows, code3.n)
    words = list(_span(gens))
    stab_res = {tp.signed_weight(s) % 8 for s in words}
    coset_res = {tp.signed_weight(s ^ code3.logical_x) % 8 for s in words}
    assert stab_res == {0}
    assert len(coset_res) == 1


def _masked_group(code, block):
    mask = block if block is not None else (1 << code.n) - 1
    return mask, list(_span(gf2.rref([g & mask for g in code.hx.rows], code.n)[0]))


def _oracle_t(code, p, block=None):
    mask, group = _masked_group(code, block)
    residues = {p.signed_weight(s ^ (code.logical_x & mask)) % 8 for s in group}
    if any(p.signed_weight(s) % 8 for s in group) or residues not in ({1}, {7}):
        return (False, None, None)
    (r,) = residues
    return (True, r, "T" if r == 1 else "Tdg")


def _oracle_cs(code_a, code_b, p, block=None):
    mask, group = _masked_group(code_a, block)
    signs = set()
    for v0, x, w0, y in itertools.product(group, (0, 1), group, (0, 1)):
        v = v0 ^ (code_a.logical_x & mask if x else 0)
        w = w0 ^ (code_b.logical_x & mask if y else 0)
        s = p.signed_weight(v & w) % 4
        if x * y:
            signs.add(s)
        elif s:
            return (False, None, None)
    if signs not in ({1}, {3}):
        return (False, None, None)
    sigma = 1 if signs == {1} else -1
    return (True, sigma, "CS" if sigma == 1 else "CSdg")


def _outcome(rep):
    return (rep.passed, rep.residue, rep.gate)


def _agrees(code_a, code_b, p, block=None):
    assert _outcome(cc.check_diagonal_transversality(code_a, p, block)) == _oracle_t(
        code_a, p, block
    )
    assert _outcome(cc.check_cs_gadget(code_a, code_b, p, block)) == _oracle_cs(
        code_a, code_b, p, block
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_phase_checks_match_oracle_on_l3_chains(k):
    # the block (k=1) and every block of a chain, under the all-T, all-T^dg
    # and found partitions (the block's, on every block) and ~30 random 1-8
    # qubit flips of each
    t = build_tetrahelix(k, 3)
    code = t.code
    rng = random.Random(17 + k)
    found = cc.find_t_partition(t.block.code).v_plus
    bases = [0, (1 << code.n) - 1, sum(found << t.block_offset(b) for b in range(k))]
    for base in bases:
        flips = [
            sum(1 << q for q in rng.sample(range(code.n), rng.randint(1, 8))) for _ in range(30)
        ]
        for v_plus in [base] + [base ^ f for f in flips]:
            p = cc.TPartition(code.n, v_plus)
            for block in [None] + [t.block_mask(b) for b in range(k)]:
                _agrees(code, code, p, block)


def test_phase_checks_match_oracle_on_random_codes():
    # at most 3 weight-8 generators on at most 15 qubits, logicals of
    # weight 1 or 7, partitions near all-T^dg: the pair and triple terms
    # decide here, unlike on the tetrahedral blocks
    rng = random.Random(2024)
    for _ in range(1500):
        n = rng.randint(9, 15)
        gens = [sum(1 << q for q in rng.sample(range(n), 8)) for _ in range(rng.randint(1, 3))]
        hx = BitMatrix.make(gens, n)
        la, lb = (
            sum(1 << q for q in rng.sample(range(n), rng.choice((1, 7)))) for _ in range(2)
        )
        code_a = cc.CssCode(n, hx, BitMatrix.make([], n), la, 0)
        code_b = cc.CssCode(n, hx, BitMatrix.make([], n), lb, 0)
        v_plus = sum(1 << q for q in rng.sample(range(n), rng.choice((0, 0, 1, 2))))
        block = rng.choice([None, None, rng.randrange(1 << n)])
        _agrees(code_a, code_b, cc.TPartition(n, v_plus), block)


def test_triple_overlap_decides():
    # three weight-8 generators on 13 qubits with pairwise overlaps 4 and a
    # common overlap 1 (qubit 12): every single and pair term passes, but
    # their XOR {0, 1, 2, 12} has weight 4, and (g ^ h) & k has weight 6.
    # Each has a private lowest qubit, so they are their own rref.
    g, h, k = (
        gf2.vector_from_support(s)
        for s in (
            (0, 3, 4, 5, 6, 7, 8, 12), (1, 3, 4, 5, 9, 10, 11, 12), (2, 6, 7, 8, 9, 10, 11, 12)
        )
    )
    assert gf2.rref([g, h, k], 14)[0] == [g, h, k]
    assert (g ^ h ^ k).bit_count() == 4 and ((g ^ h) & k).bit_count() == 6
    code = cc.CssCode(14, BitMatrix.make([g, h, k], 14), BitMatrix.make([], 14), 1 << 13, 1 << 13)
    p = cc.TPartition(14, 0)
    rep = cc.check_diagonal_transversality(code, p)
    assert not rep.passed and len(rep.failing_word) == 3
    rep = cc.check_cs_gadget(code, code, p)
    assert not rep.passed and sum(map(len, rep.failing_word)) == 3
    _agrees(code, code, p)


def test_phase_checks_certify_l5_l7():
    # beyond the reach of enumeration: the L=5 block has 2^16 stabilizers,
    # L=7 has 2^40
    for L in (5, 7):
        code = cc.from_colex(cx.build_tetrahedral_colex(L))
        tp = cc.find_t_partition(code)
        assert tp is not None and cc.check_diagonal_transversality(code, tp).passed
        assert cc.check_cs_gadget(code, code, tp).passed
    for k, L in ((2, 5), (3, 5), (2, 7)):
        t = build_tetrahelix(k, L)
        tp = cc.find_t_partition(t.block.code)
        v_plus = sum(tp.v_plus << t.block_offset(b) for b in range(k))
        p = cc.TPartition(t.code.n, v_plus)
        for b in range(k):
            rep = cc.check_diagonal_transversality(t.code, p, t.block_mask(b))
            assert rep.passed and rep.gate == tp.induced_logical, (k, L, b)
            assert cc.check_cs_gadget(t.code, t.code, p, t.block_mask(b)).passed, (k, L, b)


def test_cs_gadget_matrix_identity():
    assert cc.cs_gadget_matrix_identity()


def test_cs_gadget_l3_pair(code3):
    tp = cc.find_t_partition(code3)
    rep = cc.check_cs_gadget(code3, code3, tp)
    assert rep.passed
    assert rep.gate in ("CS", "CSdg")


def test_cs_gadget_broken_partition(code3):
    tp = cc.find_t_partition(code3)
    rep = cc.check_cs_gadget(code3, code3, cc.TPartition(code3.n, tp.v_plus ^ 0b11))
    assert not rep.passed


def test_kernel_dimension_l3(code3):
    assert len(gf2.kernel_basis(code3.hz.rows, 15)) == 5
    assert len(gf2.kernel_basis(code3.hx.rows, 15)) == 11


def test_distances_against_exhaustive_oracle(code3):
    # independent oracle: enumerate the full kernel and take the minimum
    # weight outside the opposite rowspace
    def oracle(stab_rows, other_rows):
        basis = gf2.kernel_basis(stab_rows, 15)
        best = None
        for mask in range(1, 1 << len(basis)):
            v = 0
            m, i = mask, 0
            while m:
                if m & 1:
                    v ^= basis[i]
                m >>= 1
                i += 1
            if gf2.in_rowspace(other_rows, 15, v):
                continue
            w = v.bit_count()
            if best is None or w < best:
                best = w
        return best

    # d_Z: kernel(Hx) modulo rowspace(Hz); d_X: kernel(Hz) modulo rowspace(Hx)
    assert oracle(code3.hx.rows, code3.hz.rows) == 3
    assert oracle(code3.hz.rows, code3.hx.rows) == 7
    assert cc.distance(code3, "Z", cap=8).weight == 3
    assert cc.distance(code3, "X", cap=8).weight == 7


def test_l7_parameters():
    code = cc.from_colex(cx.build_tetrahedral_colex(7))
    assert code.n == 175
    assert cc.logical_count(code) == 1
    assert code.logical_z.bit_count() == 7
