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


def weight(v: int) -> int:
    """Hamming weight of a bit row."""
    return v.bit_count()


def dot(a: int, b: int) -> int:
    """GF(2) inner product."""
    return (a & b).bit_count() & 1


def vector_from_support(support) -> int:
    v = 0
    for i in support:
        v |= 1 << i
    return v


def support(v: int) -> list[int]:
    out = []
    i = 0
    while v:
        if v & 1:
            out.append(i)
        v >>= 1
        i += 1
    return out


def to_bits(v: int, n: int) -> str:
    """Bit string, column 0 first."""
    return "".join("1" if v >> i & 1 else "0" for i in range(n))


def from_bits(s: str) -> int:
    v = 0
    for i, ch in enumerate(s):
        if ch == "1":
            v |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid bit character {ch!r}")
    return v


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
    order, so the solution is deterministic.
    """
    n = m.cols
    aug = []
    for i, r in enumerate(m.rows):
        aug.append(r | ((b >> i & 1) << n))
    red, pivots = rref(aug, n + 1)
    x = 0
    for row, p in zip(red, pivots):
        if p == n:
            return None  # pivot in the augmented column
        if row >> n & 1:
            x |= 1 << p
    return x


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
    red, pivots = rref(rows, ncols)
    for row, p in zip(red, pivots):
        if v >> p & 1:
            v ^= row
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


def random_rows(rng, nrows, ncols):
    """Uniform random bit rows (test helper)."""
    return [rng.getrandbits(ncols) for _ in range(nrows)]


def syndrome_table(sigs: list[int]) -> dict[int, int]:
    """Map syndrome -> minimum-weight error (lowest int among minima).

    sigs[i] is the syndrome of a weight-1 error on column i; breadth-first
    layers enumerate error weights, so the first time a syndrome appears its
    error is minimum weight.
    """
    table = {0: 0}
    frontier = {0: 0}
    while frontier:
        nxt: dict[int, int] = {}
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


class MinWeightExplainer:
    """Exact min-weight explanation of sparse syndromes, cluster by cluster.

    Columns are weight-1 error mechanisms with syndromes col_sigs[i]; when
    meas_cols is set, every check also gets a dedicated flip column (for
    joint data-plus-measurement decoding). Violated checks are grouped into
    connected clusters (checks sharing a column) and each cluster is solved
    by weight-bounded subset search, falling back to a deterministic greedy
    above the work budget.
    """

    def __init__(self, col_sigs: list[int], n_checks: int, meas_cols: bool,
                 budget: int = 120_000):
        self.col_sigs = col_sigs
        self.n_checks = n_checks
        self.meas_cols = meas_cols
        self.budget = budget
        adj = [0] * n_checks
        for sig in col_sigs:
            for f in support(sig):
                adj[f] |= sig
        self.check_adj = adj
        self.cols_of_check = [
            [q for q, sig in enumerate(col_sigs) if sig >> f & 1]
            for f in range(n_checks)
        ]

    def _clusters(self, syndrome: int):
        left = syndrome
        while left:
            f0 = (left & -left).bit_length() - 1
            comp = 1 << f0
            while True:
                grow = 0
                for f in support(comp):
                    grow |= self.check_adj[f]
                grow &= syndrome
                if grow & ~comp:
                    comp |= grow
                else:
                    break
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

    def _solve_cluster(self, comp: int):
        cands = sorted(
            {q for f in support(comp) for q in self.cols_of_check[f]}
        )
        cols = [(q, self.col_sigs[q], False) for q in cands]
        if self.meas_cols:
            # flip columns for the violated checks and for every check a
            # candidate data column touches, so mixed explanations that
            # cancel outside the cluster stay reachable
            reach = comp
            for q in cands:
                reach |= self.col_sigs[q]
            cols += [(f, 1 << f, True) for f in support(reach)]
        work = 0
        for w in range(0, len(cols) + 1):
            work += _comb(len(cols), w)
            if work > self.budget:
                return self._greedy(comp)
            for combo in itertools.combinations(range(len(cols)), w):
                s = 0
                for i in combo:
                    s ^= cols[i][1]
                if s == comp:
                    data = meas = 0
                    for i in combo:
                        key, _, is_meas = cols[i]
                        if is_meas:
                            meas |= 1 << key
                        else:
                            data |= 1 << key
                    return data, meas
        return self._greedy(comp)

    def _greedy(self, comp: int):
        data = 0
        remaining = comp
        while remaining:
            best = None
            for q, sig in enumerate(self.col_sigs):
                if data >> q & 1:
                    continue
                gain = remaining.bit_count() - (remaining ^ sig).bit_count()
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, q)
            if best is None:
                break
            data |= 1 << best[1]
            remaining ^= self.col_sigs[best[1]]
        if self.meas_cols:
            return data, remaining
        if remaining:
            rows = [
                vector_from_support(self.cols_of_check[f])
                for f in range(self.n_checks)
            ]
            extra = solve(BitMatrix.make(rows, len(self.col_sigs)), remaining)
            if extra is None:
                raise ValueError("inconsistent syndrome in data-only decode")
            data ^= extra
        return data, 0


TABLE_MAX_CHECKS = 16


class SyndromeDecoder:
    """Minimum-weight decoder for the checks `check_rows` over `ncols` columns.

    A lookup table of exact minimum-weight errors covers the whole syndrome
    space when there are at most TABLE_MAX_CHECKS checks and no measurement
    columns; otherwise a MinWeightExplainer solves each syndrome cluster by
    cluster (minimum weight per cluster, greedy above its budget). With
    meas_cols, every check also gets a flip column, for joint
    data-plus-measurement decoding. Use `of` to share one decoder among all
    users of the same checks.
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
        """The decoder of these checks, built once per process."""
        return cls(check_rows, ncols, meas_cols)

    def syndrome(self, word: int) -> int:
        return self.checks.mul_vec(word)

    def decode(self, syndrome: int) -> tuple[int, int]:
        """(column mask, measurement-flip mask) explaining the syndrome."""
        if syndrome == 0:
            return 0, 0
        if self.table is not None:
            return self.table[syndrome], 0
        return self.search.solve(syndrome)
