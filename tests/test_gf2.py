import functools
import itertools
import operator
import random

import pytest

from tetriqp import gf2
from tetriqp.gf2 import BitMatrix


def mat(rows, cols):
    return BitMatrix.make(rows, cols)


def random_rows(rng, nrows, ncols):
    """Uniform random bit rows."""
    return [rng.getrandbits(ncols) for _ in range(nrows)]


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
        rows = random_rows(rng, nrows, ncols)
        assert gf2.rank(rows, ncols) + len(gf2.kernel_basis(rows, ncols)) == ncols


def test_solve_random_consistent():
    rng = random.Random(11)
    for _ in range(50):
        ncols = rng.randrange(1, 20)
        nrows = rng.randrange(1, 16)
        m = mat(random_rows(rng, nrows, ncols), ncols)
        x = rng.getrandbits(ncols)
        b = m.mul_vec(x)
        x2 = gf2.solve(m, b)
        assert x2 is not None
        assert m.mul_vec(x2) == b


def _augmented_solve(m, b):
    """Reference for gf2.solve: eliminate [M | b] and read the solution off
    the augmented column, free variables 0; None on a pivot in that column."""
    n = m.cols
    red, pivots = gf2.rref([r | (b >> i & 1) << n for i, r in enumerate(m.rows)], n + 1)
    if pivots and pivots[-1] == n:
        return None
    return sum(1 << p for row, p in zip(red, pivots) if row >> n & 1)


def test_solve_equals_augmented_elimination():
    rng = random.Random(23)
    inconsistent = 0
    for _ in range(1500):
        ncols, nrows = rng.randrange(1, 20), rng.randrange(1, 16)
        m = mat(random_rows(rng, nrows, ncols), ncols)
        for b in (m.mul_vec(rng.getrandbits(ncols)), rng.getrandbits(nrows)):
            want = _augmented_solve(m, b)
            inconsistent += want is None
            assert gf2.solve(m, b) == want
    assert inconsistent > 300


def _rref_in_rowspace(rows, ncols, v):
    """Reference for gf2.in_rowspace: reduce v by the reduced rows' pivots."""
    red, pivots = gf2.rref(rows, ncols)
    for row, p in zip(red, pivots):
        if v >> p & 1:
            v ^= row
    return v == 0


def test_in_rowspace_equals_rref_reduction():
    rng = random.Random(29)
    inside = 0
    for _ in range(3000):
        ncols, nrows = rng.randrange(1, 40), rng.randrange(0, 30)
        rows = random_rows(rng, nrows, ncols)
        # a sum of rows, a random word and zero
        for v in (gf2._xor_over(rows, rng.getrandbits(nrows)), rng.getrandbits(ncols), 0):
            want = _rref_in_rowspace(rows, ncols, v)
            inside += want
            assert gf2.in_rowspace(rows, ncols, v) == want
    assert 6000 < inside < 9000  # some random words lie in the span, some do not


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
        gens = random_rows(rng, 5, ncols)
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
        gens = random_rows(rng, 4, ncols)
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



def test_syndrome_decoder_table_and_search_paths():
    rng = random.Random(21)
    # 6 checks: the table gives a minimum-weight correction for every syndrome
    rows = tuple(random_rows(rng, 6, 10))
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
    rows = tuple(random_rows(rng, 18, 12))
    dec = gf2.SyndromeDecoder(rows, 12)
    assert dec.table is None
    for err in rng.sample(range(1 << 12), 200):
        corr, meas = dec.decode(dec.syndrome(err))
        assert meas == 0 and dec.syndrome(corr) == dec.syndrome(err)
    assert gf2.SyndromeDecoder.of(rows, 12) is gf2.SyndromeDecoder.of(rows, 12)


def _enumerated_cluster(ex, comp):
    """The cluster decode as a plain weight-by-weight enumeration of
    combinations under the work budget, greedy (scanning every column, data
    remainder through gf2.solve) above it; and whether greedy ran."""
    cands = [q for q, sig in enumerate(ex.col_sigs) if sig & comp]
    cols = [(q, ex.col_sigs[q], False) for q in cands]
    if ex.meas_cols:
        reach = comp
        for q in cands:
            reach |= ex.col_sigs[q]
        cols += [(f, 1 << f, True) for f in gf2.support(reach)]
    work = 0
    for w in range(len(cols) + 1):
        work += gf2._comb(len(cols), w)
        if work > ex.budget:
            break
        for combo in itertools.combinations(cols, w):
            if functools.reduce(operator.xor, (sig for _, sig, _ in combo), 0) == comp:
                data = sum(1 << key for key, _, m in combo if not m)
                return (data, sum(1 << key for key, _, m in combo if m)), False
    data, remaining = 0, comp
    while remaining:
        best = None
        for q, sig in enumerate(ex.col_sigs):
            gain = remaining.bit_count() - (remaining ^ sig).bit_count()
            if not data >> q & 1 and gain > 0 and (best is None or gain > best[0]):
                best = (gain, q)
        if best is None:
            break
        data |= 1 << best[1]
        remaining ^= ex.col_sigs[best[1]]
    if ex.meas_cols or not remaining:
        return (data, remaining if ex.meas_cols else 0), True
    rows = [sum(1 << q for q, sig in enumerate(ex.col_sigs) if sig >> f & 1)
            for f in range(ex.n_checks)]
    extra = gf2.solve(BitMatrix.make(rows, len(ex.col_sigs)), remaining)
    return (None if extra is None else (data ^ extra, 0)), True


@pytest.fixture(scope="module")
def recorded_clusters():
    """Explainer -> clusters it was asked to solve, from sampled trials."""
    from tetriqp import harness
    from tetriqp.noise import NoiseModel

    seen = {}
    solve_cluster = gf2.MinWeightExplainer._solve_cluster

    def recording(self, comp):
        seen.setdefault(self, set()).add(comp)
        return solve_cluster(self, comp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2.MinWeightExplainer, "_solve_cluster", recording)
        for k, L, eps, trials in [(1, 3, 0.05, 300), (1, 5, 0.03, 200), (4, 5, 0.01, 150),
                                  (5, 3, 0.02, 150), (1, 7, 0.01, 60)]:
            harness.logical_error_rate(L, k, NoiseModel(eps), trials, (17, k, L))
    return seen


def test_cluster_search_equals_enumeration_on_sampled_trials(recorded_clusters):
    greedy = 0
    kinds = set()
    for ex, comps in recorded_clusters.items():
        kinds.add(ex.meas_cols)
        for comp in sorted(comps):
            want, fell_back = _enumerated_cluster(ex, comp)
            greedy += fell_back
            ex._memo.clear()
            assert ex._solve_cluster(comp) == want
    # preparation decoders at L = 3, 5, 7 (with measurement columns), the
    # k = 4, L = 5 chain decoder and the L = 7 cell decoder; the rest are tables
    assert kinds == {False, True} and len(recorded_clusters) == 5
    assert greedy >= 20  # the fallback is compared too


def test_cluster_search_equals_enumeration_on_random_codes():
    # small budgets force greedy, sparse data-only codes leave it remainders
    # for the tracked elimination, and random syndromes may be inconsistent
    rng = random.Random(23)
    paths = set()
    for trial in range(60):
        ncols, nchecks = rng.randrange(8, 30), rng.randrange(4, 20)
        sigs = [gf2.vector_from_support(rng.sample(range(nchecks), rng.randrange(1, 4)))
                for _ in range(ncols)]
        ex = gf2.MinWeightExplainer(sigs, nchecks, meas_cols=trial % 3 == 0,
                                    budget=rng.choice([30, 400, 120_000]))
        for _ in range(20):
            syn = rng.getrandbits(nchecks) or 1
            for comp in ex._clusters(syn):
                want, fell_back = _enumerated_cluster(ex, comp)
                paths.add((fell_back, want is None))
                if want is None:
                    with pytest.raises(ValueError, match="inconsistent"):
                        ex._solve_cluster(comp)
                else:
                    assert ex._solve_cluster(comp) == want
    assert paths == {(False, False), (True, False), (True, True)}


def test_cluster_search_equals_enumeration_on_multiword_codes(monkeypatch):
    # 65-140 checks: the greedy scores its columns over two or three words
    greedy = gf2.MinWeightExplainer._greedy
    ran = []

    def counted(self, comp):
        ran.append((self._sig_words.shape[1], comp))
        return greedy(self, comp)

    monkeypatch.setattr(gf2.MinWeightExplainer, "_greedy", counted)
    rng = random.Random(47)
    paths = set()
    for trial in range(30):
        ncols, nchecks = rng.randrange(40, 200), rng.randrange(65, 141)
        sigs = [gf2.vector_from_support(rng.sample(range(nchecks), rng.randrange(1, 5)))
                for _ in range(ncols)]
        ex = gf2.MinWeightExplainer(sigs, nchecks, meas_cols=trial % 2 == 0,
                                    budget=rng.choice([30, 400]))
        assert ex._sig_words.shape == (ncols, -(-nchecks // 64))
        for _ in range(6):
            syn = (gf2._xor_over(sigs, rng.getrandbits(ncols) & rng.getrandbits(ncols)
                                 & rng.getrandbits(ncols))
                   if rng.random() < 0.5 else rng.getrandbits(nchecks)) or 1
            for comp in ex._clusters(syn):
                want, fell_back = _enumerated_cluster(ex, comp)
                paths.add((ex.meas_cols, fell_back, want is None))
                if want is None:
                    with pytest.raises(ValueError, match="inconsistent"):
                        ex._solve_cluster(comp)
                else:
                    assert ex._solve_cluster(comp) == want
    assert {(True, True, False), (False, True, False), (False, True, True)} <= paths
    assert min(words for words, _ in ran) >= 2
    assert any(comp >> 64 and comp & (1 << 64) - 1 for _, comp in ran)


def test_greedy_ties_pick_the_lowest_column():
    # two columns each leave one of the three violated checks 1, 66, 67;
    # whichever comes first is picked, and the other then clears nothing
    a, b = gf2.vector_from_support([1, 66]), gf2.vector_from_support([66, 67])
    comp = gf2.vector_from_support([1, 66, 67])
    for sigs, left in [([a, b], 67), ([b, a], 1)]:
        ex = gf2.MinWeightExplainer(sigs, 70, meas_cols=True, budget=1)
        assert ex._sig_words.shape == (2, 2)
        assert ex._solve_cluster(comp) == (0b01, 1 << left)
        assert _enumerated_cluster(ex, comp) == ((0b01, 1 << left), True)


def test_tracked_elimination_equals_solve():
    rng = random.Random(29)
    outcomes = set()
    for _ in range(40):
        ncols, nchecks = rng.randrange(1, 24), rng.randrange(1, 20)
        rows = random_rows(rng, nchecks, ncols)
        sigs = [gf2.vector_from_support(f for f in range(nchecks) if rows[f] >> q & 1)
                for q in range(ncols)]
        ex = gf2.MinWeightExplainer(sigs, nchecks, meas_cols=False)
        m = mat(rows, ncols)
        for b in [m.mul_vec(rng.getrandbits(ncols)) for _ in range(10)] + [
            rng.getrandbits(nchecks) for _ in range(10)
        ]:
            x = gf2._xor_over(ex._check_solutions, b)
            want = gf2.solve(m, b)
            outcomes.add(want is None)
            if want is None:
                assert m.mul_vec(x) != b
            else:
                assert x == want
    assert outcomes == {False, True}
    # on full row rank every unit right-hand side is consistent
    full_rank = 0
    while full_rank < 40:
        ncols = rng.randrange(1, 24)
        nrows = rng.randrange(1, ncols + 1)
        rows = random_rows(rng, nrows, ncols)
        if gf2.rank(rows, ncols) < nrows:
            continue
        full_rank += 1
        m = mat(rows, ncols)
        assert gf2.unit_solutions(rows, ncols) == [gf2.solve(m, 1 << f) for f in range(nrows)]


def test_cluster_memo_is_capped_and_transparent(monkeypatch, recorded_clusters):
    monkeypatch.setattr(gf2, "MEMO_MAX", 8)
    for ex, comps in recorded_clusters.items():
        comps = sorted(comps)
        ex._memo.clear()
        first = [ex._solve_cluster(c) for c in comps]
        assert len(ex._memo) <= 8
        ex._memo.clear()
        assert [ex._solve_cluster(c) for c in comps[::-1]] == first[::-1]
        assert len(ex._memo) <= 8
        ex._memo.clear()


def test_syndrome_equals_matrix_product():
    rng = random.Random(31)
    for _ in range(20):
        ncols = rng.randrange(1, 40)
        rows = tuple(random_rows(rng, rng.randrange(1, 30), ncols))
        dec = gf2.SyndromeDecoder(rows, ncols)
        for _ in range(20):
            word = rng.getrandbits(ncols)
            assert dec.syndrome(word) == dec.checks.mul_vec(word)


def _bfs_table(sigs):
    """syndrome_table as a plain breadth-first search over Python ints."""
    table = {0: 0}
    frontier = {0: 0}
    while frontier:
        nxt = {}
        for syn, err in sorted(frontier.items(), key=lambda kv: kv[1]):
            for q, sig in enumerate(sigs):
                if err >> q & 1:
                    continue
                s2 = syn ^ sig
                if s2 in table:
                    continue
                e2 = err | (1 << q)
                if s2 not in nxt or e2 < nxt[s2]:
                    nxt[s2] = e2
        table.update(nxt)
        frontier = nxt
    return table


def test_syndrome_table_equals_bfs_on_table_decoded_codes():
    from tetriqp import colex as cx
    from tetriqp import csscode as cc

    for L in (3, 5):
        c = cx.build_tetrahedral_colex(L)
        code = cc.from_colex(c)
        checks = [(code.hx.rows, code.n)]
        for color in range(4):
            fc = cx.facet_code(c, color)
            checks.append((tuple(gf2.vector_from_support(f) for f in fc.faces), fc.n))
        for rows, ncols in checks:
            dec = gf2.SyndromeDecoder.of(rows, ncols)
            assert dec.table is not None
            assert dec.table == _bfs_table(dec.sigs)
            assert len(dec.table) == 1 << gf2.rank(rows, ncols)


def test_syndrome_table_equals_bfs_on_random_signatures():
    rng = random.Random(41)
    for ncols in list(range(1, 12)) + [63, 64, 65, 100, 127, 128, 129, 150]:
        r = rng.randrange(3, 11)
        sigs = random_rows(rng, ncols, r)
        assert gf2.syndrome_table(sigs) == _bfs_table(sigs)
        # rank deficient: columns from the span of r - 2 syndromes
        basis = random_rows(rng, r - 2, r)
        sigs = [gf2._xor_over(basis, rng.getrandbits(r - 2)) for _ in range(ncols)]
        table = gf2.syndrome_table(sigs)
        assert table == _bfs_table(sigs)
        assert len(table) == 1 << gf2.rank(sigs, r) < 1 << r
    assert gf2.syndrome_table([]) == {0: 0}


def test_syndrome_table_is_lowest_int_minimum_weight():
    rng = random.Random(43)
    for _ in range(60):
        ncols = rng.randrange(1, 13)
        sigs = random_rows(rng, ncols, rng.randrange(1, 9))
        best = {}
        for err in range(1 << ncols):
            syn = gf2._xor_over(sigs, err)
            if syn not in best or err.bit_count() < best[syn].bit_count():
                best[syn] = err
        assert gf2.syndrome_table(sigs) == best
