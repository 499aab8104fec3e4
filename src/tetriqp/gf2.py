"""Dense GF(2) linear algebra on packed-int bit rows.

Rows are Python ints (bit i = column i), which gives packed-word storage and
hardware popcount via int.bit_count(). Everything here is pure and
deterministic: pivots are always chosen at the lowest column index, so
downstream logical representatives are reproducible.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np


def dot(a: int, b: int) -> int:
    """GF(2) inner product."""
    return (a & b).bit_count() & 1


def vector_from_support(support) -> int:
    v = 0
    for i in support:
        v |= 1 << i
    return v


def support(v: int) -> list[int]:
    """Indices of the set bits of v, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def to_bits(v: int, n: int) -> str:
    """Bit string, column 0 first."""
    return "".join("1" if v >> i & 1 else "0" for i in range(n))


@dataclass(frozen=True)
class BitMatrix:
    """Immutable labeled GF(2) matrix; rows are packed ints over `cols` columns."""

    rows: tuple[int, ...]
    cols: int
    labels: tuple = ()

    def __post_init__(self):
        if self.cols < 0:
            raise ValueError("cols must be nonnegative")
        mask = (1 << self.cols) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("row has bits beyond cols")
        if self.labels and len(self.labels) != len(self.rows):
            raise ValueError("labels length mismatch")

    @classmethod
    def make(cls, rows, cols, labels=None) -> "BitMatrix":
        return cls(tuple(rows), cols, tuple(labels) if labels else ())

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def mul_vec(self, x: int) -> int:
        """Matrix-vector product M @ x over GF(2), returned as a bit row over nrows."""
        out = 0
        for i, r in enumerate(self.rows):
            if (r & x).bit_count() & 1:
                out |= 1 << i
        return out


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (pivot_rows, pivot_cols): nonzero rows in pivot order and their
    pivot column indices (lowest-index pivoting).
    """
    mat = [int(r) for r in rows]
    m = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= m:
            break
        bit = 1 << c
        piv = None
        for i in range(r, m):
            if mat[i] & bit:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(m):
            if i != r and mat[i] & bit:
                mat[i] ^= mat[r]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def rank(m: BitMatrix | list, ncols: int | None = None) -> int:
    """GF(2) row rank."""
    if isinstance(m, BitMatrix):
        rows, ncols = m.rows, m.cols
    else:
        rows = m
        if ncols is None:
            ncols = max((r.bit_length() for r in rows), default=0)
    return len(rref(rows, ncols)[0])


def solve(m: BitMatrix, b: int) -> int | None:
    """Solve M x = b over GF(2); None if inconsistent.

    b is a bit row over m.nrows. Free variables are set to 0 in fixed pivot
    order, so the solution is deterministic: the XOR of `unit_solutions`
    over the set bits of b, which is a solution exactly when b is consistent.
    """
    x = _xor_over(unit_solutions(m.rows, m.cols), b)
    return x if m.mul_vec(x) == b else None


def unit_solutions(rows, ncols) -> list[int]:
    """Per row f, the solution of M x = 1 << f with free variables 0.

    The rows are reduced once, with row f carrying the marker bit ncols + f,
    so every reduced row records which rows it combines. `rref` picks its
    pivots on columns 0..ncols-1 without looking at a right-hand side, so
    the solution of M x = b sets pivot column p exactly when the row of p
    combines an odd number of the rows in b: it is the XOR of these answers
    over b whenever b is consistent. Where 1 << f itself is not, entry f is
    that XOR term only, not a solution.
    """
    red, pivots = rref([row | 1 << (ncols + f) for f, row in enumerate(rows)], ncols)
    out = [0] * len(rows)
    for row, p in zip(red, pivots):
        for f in support(row >> ncols):
            out[f] |= 1 << p
    return out


def kernel_basis(rows, ncols) -> list[int]:
    """Basis of {x : M x = 0}; size = ncols - rank(M)."""
    if isinstance(rows, BitMatrix):
        rows, ncols = rows.rows, rows.cols
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = 1 << f
        bit = 1 << f
        for row, p in zip(red, pivots):
            if row & bit:
                v |= 1 << p
        basis.append(v)
    return basis


def in_rowspace(rows, ncols, v: int) -> bool:
    """Whether v is a sum of some of the rows: each row, then v, is reduced
    against a basis keyed by the bit length of each basis row."""
    basis = {}
    for row in rows:
        while row and (b := basis.get(row.bit_length())):
            row ^= b
        basis[row.bit_length()] = row
    while v and (b := basis.get(v.bit_length())):
        v ^= b
    return v == 0


@dataclass(frozen=True)
class CosetSearchResult:
    """Outcome of a weight-bounded coset search.

    If found is True, (weight, witness) is the exact minimum over the coset
    and witness is the smallest such vector as an int. Otherwise every coset
    element has weight >= weight_lower_bound.
    """

    found: bool
    weight: int = 0
    witness: int = 0
    weight_lower_bound: int = 0
    work: int = 0


class SearchBudgetExceeded(RuntimeError):
    """Raised when a weight-bounded enumeration would exceed its work budget."""


def min_weight_in_coset(
    generators,
    offset: int,
    ncols: int,
    weight_cap: int,
    budget: int = 60_000_000,
) -> CosetSearchResult:
    """Minimum Hamming weight over {offset + span(generators)} up to weight_cap.

    Weight-bounded information-set search: the generators are brought to rref
    so the pivot columns form an information set; every coset element of
    weight <= w has at most w ones on the pivots, so enumerating pivot
    patterns of weight 0..cap covers all candidates. Exact when it reports
    found; reports ">= cap+1" (found=False) when exhausting the cap.
    """
    if weight_cap < 1:
        raise ValueError("weight_cap must be >= 1")
    red, pivots = rref(generators, ncols)
    # normalize offset to have zero pivot part
    off = offset
    for row, p in zip(red, pivots):
        if off >> p & 1:
            off ^= row
    k = len(red)
    best_w = None
    best_v = None

    def consider(v):
        nonlocal best_w, best_v
        w = v.bit_count()
        if w <= weight_cap and (best_w is None or (w, v) < (best_w, best_v)):
            best_w, best_v = w, v

    consider(off)
    work = 0
    # enumerate pivot patterns by weight; element = off XOR rows in the pattern
    for w in range(1, weight_cap + 1):
        if best_w is not None and best_w < w:
            break  # a pattern of weight w yields an element of weight >= w
        count = _comb(k, w)
        work += count
        if work > budget:
            raise SearchBudgetExceeded(
                f"coset search needs {work} pattern expansions (budget {budget})"
            )
        for combo in itertools.combinations(range(k), w):
            v = off
            for i in combo:
                v ^= red[i]
            consider(v)
    if best_w is None:
        return CosetSearchResult(False, weight_lower_bound=weight_cap + 1, work=work)
    return CosetSearchResult(True, best_w, best_v, work=work)


def _comb(n, k):
    if k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def syndrome_table(sigs: list[int]) -> dict[int, int]:
    """Map syndrome -> minimum-weight error (lowest int among minima).

    sigs[i] is the syndrome of a weight-1 error on column i. A breadth-first
    search over error weights meets each reachable syndrome first in the
    layer of its minimum weight; unreachable syndromes are absent. The
    lowest-int minimum error of a syndrome, less its highest column, is the
    lowest-int minimum error of the syndrome it leaves, so a layer only
    extends each entry of the last one by a column q above its highest
    column. Those extensions have highest column q, so the first q to reach
    a syndrome gives its lowest int. A layer runs in numpy one column at a
    time; errors are stored as rows of uint64 words, least significant first.
    """
    size = 1 << max(sigs, default=0).bit_length()
    best = np.zeros((size, max(1, -(-len(sigs) // 64))), dtype=np.uint64)
    high = np.full(size, -1, dtype=np.int64)  # highest column of best[s]
    seen = np.zeros(size, dtype=bool)
    seen[0] = True
    front = np.zeros(1, dtype=np.int64)
    while front.size:
        front = front[np.argsort(high[front])]
        errs = best[front]
        ends = np.searchsorted(high[front], np.arange(len(sigs))).tolist()
        layer = []
        for q, (sig, end) in enumerate(zip(sigs, ends)):
            syn = front[:end] ^ sig  # injective, so no syndrome repeats
            fresh = ~seen[syn]
            syn = syn[fresh]
            err = errs[:end][fresh]
            err[:, q // 64] |= np.uint64(1 << q % 64)
            seen[syn] = True
            high[syn] = q
            best[syn] = err
            layer.append(syn)
        front = np.concatenate(layer) if layer else front[:0]
    reached = np.flatnonzero(seen)
    out = [0] * len(reached)
    for w in range(best.shape[1] - 1, -1, -1):
        out = [e << 64 | x for e, x in zip(out, best[reached, w].tolist())]
    return dict(zip(reached.tolist(), out))


def _xor_over(table, mask: int) -> int:
    """XOR of table[i] over the set bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= table[low.bit_length() - 1]
        mask ^= low
    return out


def _or_over(table, mask: int) -> int:
    """OR of table[i] over the set bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _word_rows(vs, nwords: int) -> np.ndarray:
    """The ints vs as rows of nwords uint64 words, least significant first."""
    raw = b"".join(v.to_bytes(8 * nwords, "little") for v in vs)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(-1, nwords)


MEMO_MAX = 1 << 17  # entries per decode memo: a ChainSim's prep and final memos, a cluster memo


def remember(memo: dict, key: int, value: int) -> None:
    """Store a decode in a memo, emptying the memo first when it holds
    MEMO_MAX entries. Nothing else empties a memo: it keeps its entries
    for as long as its owner lives."""
    if len(memo) >= MEMO_MAX:
        memo.clear()
    memo[key] = value


class MinWeightExplainer:
    """Low-weight explanation of sparse syndromes, cluster by cluster.

    Columns are weight-1 error mechanisms with syndromes col_sigs[i]; when
    meas_cols is set, every check also gets a dedicated flip column (for
    joint data-plus-measurement decoding). Violated checks are grouped into
    connected clusters (checks sharing a column). Each cluster is solved by a
    pruned depth-first search over its candidate columns, weight by weight,
    which returns the first combination that an `itertools.combinations`
    enumeration of the same candidates returns: the lexicographically first
    of minimum weight. Two bounds prune the search: a packing bound (violated
    checks with pairwise disjoint candidates need a pick each) and a reach
    bound (r picks flip at most r times the most checks one column flips).
    Clusters grow from the checks each step adds. The enumeration's
    work budget (the summed binomials of the weights tried) still decides
    when to give up and fall back to a deterministic greedy, which is then
    not minimum weight: it picks, one at a time, the unused data column that
    leaves the fewest violated checks (lowest column on ties) while that
    lowers their count, scoring every column per pick by one numpy popcount
    of its signature, packed as uint64 words, against the remainder. The
    budget is kept only so that decodes stay bit-identical until an exact
    decoder replaces this one (ROADMAP.md, item 1). Cluster decodes are
    memoised by `remember`, up to MEMO_MAX of them.
    """

    def __init__(self, col_sigs: list[int], n_checks: int, meas_cols: bool,
                 budget: int = 120_000):
        self.col_sigs = col_sigs
        self.n_checks = n_checks
        self.meas_cols = meas_cols
        self.budget = budget
        adj = [0] * n_checks
        cols = [0] * n_checks  # per check: mask of the columns touching it
        for q, sig in enumerate(col_sigs):
            for f in support(sig):
                adj[f] |= sig
                cols[f] |= 1 << q
        self.check_adj = adj
        self.check_cols = cols
        nwords = max(1, -(-n_checks // 64))
        self._sig_words = _word_rows(col_sigs, nwords)  # the greedy's popcounts
        self._reach = max([int(meas_cols), *map(int.bit_count, col_sigs)])
        self._memo: dict[int, tuple[int, int]] = {}

    def _clusters(self, syndrome: int):
        left = syndrome
        while left:
            comp = new = left & -left
            while new:
                new = _or_over(self.check_adj, new) & syndrome & ~comp
                comp |= new
            yield comp
            left &= ~comp

    def solve(self, syndrome: int) -> tuple[int, int]:
        """(column mask, measurement-flip mask) explaining the syndrome."""
        data = 0
        meas = 0
        for comp in self._clusters(syndrome):
            d, m = self._solve_cluster(comp)
            data ^= d
            meas ^= m
        return data, meas

    def _solve_cluster(self, comp: int) -> tuple[int, int]:
        out = self._memo.get(comp)
        if out is None:
            out = self._search(comp)
            remember(self._memo, comp, out)
        return out

    def _search(self, comp: int) -> tuple[int, int]:
        # Candidates, in the order the enumeration takes them: the data
        # columns touching the cluster (bit q of a pick mask), then, with
        # meas_cols, the flip columns of the violated checks and of every
        # check a candidate data column touches (bit ncols + f), so mixed
        # explanations that cancel outside the cluster stay reachable.
        ncols = len(self.col_sigs)
        col_sigs, check_cols, of_sig = self.col_sigs, self.check_cols, self._cols_of_sig
        reach = self._reach
        data_cands = _or_over(check_cols, comp)
        cands = data_cands
        flip0 = 0  # the flip column of check f is bit ncols + f, flip0 << f
        if self.meas_cols:
            flip0 = 1 << ncols
            cands |= (comp | _or_over(col_sigs, data_cands)) << ncols

        tops = []  # the last w candidates, last first, grown with the weight w

        def first(rem, start, r):
            """Pick mask of the lexicographically first r candidates from
            bit `start` on whose signatures XOR to rem, or 0."""
            if not rem:
                # r picks that cancel: the picks so far explain the cluster
                # with fewer columns, a weight already searched in full
                return 0
            if r == 1:
                for q in of_sig.get(rem, ()):
                    if q >= start and data_cands >> q & 1:
                        return 1 << q
                f = rem.bit_length() - 1
                if flip0 and rem == 1 << f and ncols + f >= start:
                    return flip0 << f
                return 0
            if rem.bit_count() > r * reach:
                return 0  # r picks flip at most r * reach checks
            # packing bound: violated checks whose remaining candidates are
            # pairwise disjoint each need a pick of their own; and the first
            # pick comes no later than the last candidate of any check
            above = -1 << start
            used = need = 0
            limit = tops[r - 1] + 1  # r - 1 more picks must follow the first
            left = rem
            while left:
                low = left & -left
                left ^= low
                f = low.bit_length() - 1
                touch = ((check_cols[f] & data_cands) | flip0 << f) & above
                if not touch:
                    return 0
                if not touch & used:
                    used |= touch
                    need += 1
                limit = min(limit, touch.bit_length())
            if need > r:
                return 0
            left = cands & above & ((1 << limit) - 1)
            while left:
                low = left & -left
                left ^= low
                b = low.bit_length() - 1
                sig = col_sigs[b] if b < ncols else 1 << (b - ncols)
                rest = first(rem ^ sig, b + 1, r - 1)
                if rest:
                    return rest | low
            return 0

        n = cands.bit_count()
        lower = cands
        work = 0
        for w in range(n + 1):
            work += _comb(n, w)
            if work > self.budget:
                return self._greedy(comp)
            if not w:
                continue  # comp is nonzero
            # once weights 1 and 2 found nothing, check that some weight can:
            # when the candidates do not span the cluster, the enumeration
            # runs through every weight its budget allows and falls back
            if w == 3 and not flip0 and not in_rowspace(
                [col_sigs[q] for q in support(data_cands)], self.n_checks, comp
            ):
                break
            tops.append(lower.bit_length() - 1)
            lower ^= 1 << tops[-1]
            picks = first(comp, 0, w)
            if picks:
                return picks & ((1 << ncols) - 1), picks >> ncols
        return self._greedy(comp)

    def _greedy(self, comp: int) -> tuple[int, int]:
        sigs, words = self.col_sigs, self._sig_words
        data = 0
        remaining = comp
        rem = _word_rows([comp], words.shape[1])[0]
        used = np.zeros(len(sigs), dtype=bool)
        while remaining and len(sigs):
            # the unused column that leaves the fewest violated checks, lowest
            # q on ties (argmin takes the first minimum); a column touching
            # no violated check leaves no fewer, so it can only end the loop;
            # with one word (every chain explainer) no sum is needed
            counts = np.bitwise_count(words ^ rem)
            after = counts[:, 0] if len(rem) == 1 else counts.sum(axis=1)
            after[used] = self.n_checks + 1
            q = int(after.argmin())
            if after[q] >= remaining.bit_count():
                break
            used[q] = True
            data |= 1 << q
            remaining ^= sigs[q]
            rem ^= words[q]
        if self.meas_cols:
            return data, remaining
        if remaining:
            extra = _xor_over(self._check_solutions, remaining)
            if _xor_over(self.col_sigs, extra) != remaining:
                raise ValueError("inconsistent syndrome in data-only decode")
            data ^= extra
        return data, 0

    @functools.cached_property
    def _cols_of_sig(self) -> dict[int, list[int]]:
        """Signature -> the columns that have it, ascending."""
        out: dict[int, list[int]] = {}
        for q, sig in enumerate(self.col_sigs):
            out.setdefault(sig, []).append(q)
        return out

    @functools.cached_property
    def _check_solutions(self) -> list[int]:
        """Per check f, the columns that `solve` sets for the syndrome 1 << f."""
        return unit_solutions(self.check_cols, len(self.col_sigs))


TABLE_MAX_CHECKS = 16


class SyndromeDecoder:
    """Minimum-weight decoder for the checks `check_rows` over `ncols` columns.

    A lookup table of exact minimum-weight errors covers the whole syndrome
    space when there are at most TABLE_MAX_CHECKS checks and no measurement
    columns; otherwise a MinWeightExplainer solves each syndrome cluster by
    cluster: a pruned depth-first search that returns the minimum-weight
    combination a plain enumeration would return, and a greedy fallback where
    that enumeration's budget runs out. With meas_cols, every check also
    gets a flip column, for joint data-plus-measurement decoding. Use `of` to
    share one decoder, and its explainer's cluster memo (at most MEMO_MAX
    entries, emptied when full), among all users of the same checks.
    """

    def __init__(self, check_rows: tuple[int, ...], ncols: int, meas_cols: bool = False):
        self.checks = BitMatrix.make(check_rows, ncols)
        self.sigs = [
            vector_from_support(ri for ri, row in enumerate(check_rows) if row >> q & 1)
            for q in range(ncols)
        ]
        if len(check_rows) <= TABLE_MAX_CHECKS and not meas_cols:
            self.table = syndrome_table(self.sigs)
            self.search = None
        else:
            self.table = None
            self.search = MinWeightExplainer(self.sigs, len(check_rows), meas_cols)

    @classmethod
    @functools.cache
    def of(cls, check_rows: tuple[int, ...], ncols: int, meas_cols: bool = False):
        """The decoder of these checks, built once per process. The k=1
        split's chain decoder has the 16 rows of the L=5 cell decoder, so
        their 65,536-entry table (about 7 MB, 30 ms) is built once, where
        separate decoders for the cells and the split would build it twice."""
        return cls(check_rows, ncols, meas_cols)

    def syndrome(self, word: int) -> int:
        """Checks violated by flipping the columns of `word` (H @ word)."""
        return _xor_over(self.sigs, word)

    def decode(self, syndrome: int) -> tuple[int, int]:
        """(column mask, measurement-flip mask) explaining the syndrome."""
        if syndrome == 0:
            return 0, 0
        if self.table is not None:
            return self.table[syndrome], 0
        return self.search.solve(syndrome)
