import pytest

from tetriqp import colex as cx
from tetriqp import csscode as cc
from tetriqp import gf2
from tetriqp.gf2 import BitMatrix


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


def test_residue_constant_on_stabilizer_cosets(code3):
    tp = cc.find_t_partition(code3)
    gens, _ = gf2.rref(code3.hx.rows, code3.n)
    words = list(cc._enumerate_group(gens))
    stab_res = {tp.signed_weight(s) % 8 for s in words}
    coset_res = {tp.signed_weight(s ^ code3.logical_x) % 8 for s in words}
    assert stab_res == {0}
    assert len(coset_res) == 1


def test_enumeration_cap():
    rows = [1 << i for i in range(25)]
    code = cc.CssCode(
        26, BitMatrix.make(rows, 26), BitMatrix.make([], 26), 1 << 25, (1 << 26) - 1
    )
    tp = cc.TPartition(26, 0)
    with pytest.raises(cc.EnumerationTooLarge):
        cc.check_diagonal_transversality(code, tp)


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
