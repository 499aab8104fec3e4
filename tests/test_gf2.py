import random

import pytest

from tetriqp import gf2
from tetriqp.gf2 import BitMatrix


def mat(rows, cols):
    return BitMatrix.make(rows, cols)


def test_rank_identity():
    m = mat([0b001, 0b010, 0b100], 3)
    assert gf2.rank(m) == 3


def test_rank_zero():
    m = mat([0, 0, 0, 0], 6)
    assert gf2.rank(m) == 0


def test_solve_identity():
    m = mat([0b001, 0b010, 0b100], 3)
    for b in range(8):
        assert gf2.solve(m, b) == b


def test_solve_free_variable_rule():
    # M = [1 1]: x = (1, 0), free variable set to 0
    m = mat([0b11], 2)
    assert gf2.solve(m, 0b1) == 0b01


def test_solve_inconsistent():
    m = mat([0b11, 0b00], 2)
    assert gf2.solve(m, 0b10) is None


def test_kernel_identity_empty():
    assert gf2.kernel_basis([0b001, 0b010, 0b100], 3) == []


def test_kernel_zero_matrix():
    basis = gf2.kernel_basis([0, 0], 2)
    assert len(basis) == 2


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(50):
        ncols = rng.randrange(1, 24)
        nrows = rng.randrange(0, 20)
        rows = gf2.random_rows(rng, nrows, ncols)
        assert gf2.rank(rows, ncols) + len(gf2.kernel_basis(rows, ncols)) == ncols


def test_solve_random_consistent():
    rng = random.Random(11)
    for _ in range(50):
        ncols = rng.randrange(1, 20)
        nrows = rng.randrange(1, 16)
        m = mat(gf2.random_rows(rng, nrows, ncols), ncols)
        x = rng.getrandbits(ncols)
        b = m.mul_vec(x)
        x2 = gf2.solve(m, b)
        assert x2 is not None
        assert m.mul_vec(x2) == b


def test_min_weight_trivial():
    res = gf2.min_weight_in_coset([], 0, 5, weight_cap=3)
    assert res.found and res.weight == 0 and res.witness == 0


def test_min_weight_cap_exhausted():
    # coset of the all-ones vector with no generators
    res = gf2.min_weight_in_coset([], 0b11111, 5, weight_cap=3)
    assert not res.found
    assert res.weight_lower_bound == 4


def test_min_weight_simple_coset():
    # span{1100, 0110}; offset 1000 -> min weight 1 at 0001? offset+g1=0100 etc.
    g = [0b0011, 0b0110]
    res = gf2.min_weight_in_coset(g, 0b0001, 4, weight_cap=4)
    assert res.found
    assert res.weight == 1
    # witness weight matches and lies in the coset
    assert (res.witness ^ 0b0001) in {0, 0b0011, 0b0110, 0b0101}


def test_min_weight_generator_permutation_invariance():
    rng = random.Random(3)
    for _ in range(20):
        ncols = 14
        gens = gf2.random_rows(rng, 5, ncols)
        offset = rng.getrandbits(ncols)
        res1 = gf2.min_weight_in_coset(gens, offset, ncols, weight_cap=6)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        res2 = gf2.min_weight_in_coset(shuffled, offset, ncols, weight_cap=6)
        assert res1.found == res2.found
        if res1.found:
            assert (res1.weight, res1.witness) == (res2.weight, res2.witness)


def test_min_weight_exhaustive_cross_check():
    rng = random.Random(5)
    for _ in range(20):
        ncols = 10
        gens = gf2.random_rows(rng, 4, ncols)
        offset = rng.getrandbits(ncols)
        res = gf2.min_weight_in_coset(gens, offset, ncols, weight_cap=10)
        # brute force over the whole coset
        best = None
        for maskbits in range(16):
            v = offset
            for i in range(4):
                if maskbits >> i & 1:
                    v ^= gens[i]
            w = v.bit_count()
            if best is None or (w, v) < best:
                best = (w, v)
        assert res.found
        assert (res.weight, res.witness) == best


def test_budget_guard():
    # generators on low columns, offset on high columns: the minimum stays at
    # weight 10 so the enumeration must run deep and trip the budget
    gens = [1 << i for i in range(40)]
    offset = sum(1 << (40 + i) for i in range(10))
    with pytest.raises(gf2.SearchBudgetExceeded):
        gf2.min_weight_in_coset(gens, offset, 60, weight_cap=8, budget=1000)


def test_bitmatrix_validation():
    with pytest.raises(ValueError):
        BitMatrix.make([0b100], 2)
    with pytest.raises(ValueError):
        BitMatrix((0b1,), 1, ("a", "b"))


def test_bits_round_trip():
    for v in (0, 1, 0b1011):
        assert gf2.from_bits(gf2.to_bits(v, 6)) == v



def test_syndrome_decoder_table_and_search_paths():
    rng = random.Random(21)
    # 6 checks: the table gives a minimum-weight correction for every syndrome
    rows = tuple(gf2.random_rows(rng, 6, 10))
    dec = gf2.SyndromeDecoder(rows, 10)
    assert dec.table is not None
    lightest = {}
    for err in range(1 << 10):
        syn = dec.syndrome(err)
        lightest[syn] = min(lightest.get(syn, 10), err.bit_count())
    for syn, w in lightest.items():
        corr, meas = dec.decode(syn)
        assert meas == 0 and dec.syndrome(corr) == syn and corr.bit_count() == w
    # 18 checks: the explainer's correction reproduces the syndrome
    rows = tuple(gf2.random_rows(rng, 18, 12))
    dec = gf2.SyndromeDecoder(rows, 12)
    assert dec.table is None
    for err in rng.sample(range(1 << 12), 200):
        corr, meas = dec.decode(dec.syndrome(err))
        assert meas == 0 and dec.syndrome(corr) == dec.syndrome(err)
    assert gf2.SyndromeDecoder.of(rows, 12) is gf2.SyndromeDecoder.of(rows, 12)
