"""CSS stabilizer code algebra for tetrahedral codes.

Builds codes from colexes, computes logical counts and distances, and
verifies the transversal diagonal-gate phase conditions: the vertex-partition
condition for the logical T-gate, and the pairwise condition for the
controlled-phase gadget. All phase checks are integer residue computations,
never floating point.

The phase checks read generators, never the stabilizer group, so they take
time polynomial in the number of generators. With signs c_i = +1 on V+ and
-1 on V-, let f(u) = sum_i c_i u_i. By inclusion-exclusion, for any words

    f(XOR_j g_j) = sum f(g_j) - 2 sum f(g_j & g_l) + 4 sum f(g_j & g_l & g_m) - ...

with (-2)^(q-1) on the q-fold overlaps. Mod 8 the terms from q = 4 on
vanish and 4 f(t) = 4 |t|, so the residues of single words, pairs and
triples fix the residue of every XOR: conditions on those are exact. They
are the triorthogonality conditions of Bravyi and Haah (arXiv:1209.2426),
used for 3D color codes by Kubica and Beverland (arXiv:1410.0069).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from . import gf2
from .colex import Colex, X_LOGICAL_FACET, Z_LOGICAL_EDGE, validate_colex


@dataclass(frozen=True)
class CssCode:
    """A CSS code with one chosen logical pair.

    hx rows are X-stabilizer generators (cells for colex codes), hz rows are
    Z-stabilizer generators (faces). logical_x / logical_z are fixed
    representatives; for colex codes they sit on a facet and on a lattice
    edge respectively.
    """

    n: int
    hx: gf2.BitMatrix
    hz: gf2.BitMatrix
    logical_x: int
    logical_z: int

    def __post_init__(self):
        if self.hx.cols != self.n or self.hz.cols != self.n:
            raise ValueError("check matrix width != n")

    def check_commutation(self) -> bool:
        return all(gf2.dot(rx, rz) == 0 for rx in self.hx.rows for rz in self.hz.rows)

    def x_syndrome(self, z_error: int) -> int:
        """Violated X checks (cells) for a Z-type error pattern."""
        return self.hx.mul_vec(z_error)

    def z_syndrome(self, x_error: int) -> int:
        """Violated Z checks (faces) for an X-type error pattern."""
        return self.hz.mul_vec(x_error)


def from_colex(c: Colex, check: bool = True) -> CssCode:
    """Tetrahedral code of a colex: cells give X checks, faces give Z checks.

    check=False skips the axiom and logical assertions (used when importing a
    file whose validity is being asked about).
    """
    if check:
        report = validate_colex(c)
        if not report.passed:
            raise ValueError(f"invalid colex: {report.failures()}")
    hx = gf2.BitMatrix.make(
        [gf2.vector_from_support(cell.vertices) for cell in c.cells],
        c.n,
        labels=range(len(c.cells)),
    )
    hz = gf2.BitMatrix.make(
        [gf2.vector_from_support(f.vertices) for f in c.faces],
        c.n,
        labels=range(len(c.faces)),
    )
    lx = gf2.vector_from_support(c.facet(X_LOGICAL_FACET).vertices)
    e0, e1 = Z_LOGICAL_EDGE
    edge = set(c.facet(e0).vertices) & set(c.facet(e1).vertices)
    lz = gf2.vector_from_support(edge)
    code = CssCode(c.n, hx, hz, lx, lz)
    if check:
        _assert_logicals(code)
    return code


def _assert_logicals(code: CssCode):
    if not code.check_commutation():
        raise ValueError("Hx and Hz do not commute")
    if code.x_syndrome(code.logical_z) != 0:
        raise ValueError("logical_z not in kernel(Hx)")
    if code.z_syndrome(code.logical_x) != 0:
        raise ValueError("logical_x not in kernel(Hz)")
    if gf2.dot(code.logical_x, code.logical_z) != 1:
        raise ValueError("logical representatives do not anticommute")
    if gf2.in_rowspace(code.hx.rows, code.n, code.logical_x):
        raise ValueError("logical_x is a stabilizer")
    if gf2.in_rowspace(code.hz.rows, code.n, code.logical_z):
        raise ValueError("logical_z is a stabilizer")


def logical_count(code: CssCode) -> int:
    return code.n - gf2.rank(code.hx) - gf2.rank(code.hz)


def distance(code: CssCode, basis: str, cap: int) -> gf2.CosetSearchResult:
    """Minimum weight of the stored logical's coset, weight-bounded at cap.

    basis "Z": logical_z + rowspace(Hz) (the kernel(Hx) quotient search);
    basis "X": logical_x + rowspace(Hx).
    """
    if basis == "Z":
        gens, off = code.hz.rows, code.logical_z
    elif basis == "X":
        gens, off = code.hx.rows, code.logical_x
    else:
        raise ValueError(f"basis must be 'X' or 'Z', got {basis!r}")
    return gf2.min_weight_in_coset(gens, off, code.n, weight_cap=cap)


# ---------------------------------------------------------------------------
# Transversal T partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TPartition:
    """Vertex signs for the transversal T-gate: T on v_plus, T-dagger on v_minus."""

    n: int
    v_plus: int  # bit mask
    induced_logical: str = "T"  # "T" (residue 1) or "Tdg" (residue 7)

    def signed_weight(self, v: int) -> int:
        """sum_i c_i v_i with c_i = +1 on v_plus and -1 on v_minus."""
        return 2 * (v & self.v_plus).bit_count() - v.bit_count()


@dataclass(frozen=True)
class PhaseCheckReport:
    """Outcome of a phase check. failing_word holds the word indices of the
    first failing term, 0 being logical_x and j >= 1 the j-th rref X
    generator: (j,), (j, l) or (j, l, m) for the T check, and (indices in
    code_a, indices in code_b) for the CS check, e.g. ((0,), (3,))."""

    passed: bool
    residue: int | None = None  # coset residue r mod 8 (T check) or sign (CS check)
    gate: str | None = None
    failing_word: tuple | None = None

    def __bool__(self):
        return self.passed


def _words(code: CssCode, logical_x: int, block: int | None) -> list[int]:
    """logical_x, then the rref X generators, each ANDed with the block mask."""
    mask = block if block is not None else (1 << code.n) - 1
    return [w & mask for w in (logical_x, *gf2.rref(code.hx.rows, code.n)[0])]


def check_diagonal_transversality(
    code: CssCode, p: TPartition, block: int | None = None
) -> PhaseCheckReport:
    """Verify the transversal-T phase condition from generator overlaps.

    The condition: the signed weight f is 0 mod 8 on every X stabilizer and
    a constant r in {1, 7} on the logical coset. With g_0 = logical_x and
    g_1.. the rref X generators, it holds exactly when
      - f(g_0) = r in {1, 7} and f(g_j) = 0 for j >= 1 (mod 8),
      - f(g_j & g_l) = 0 (mod 4) for every pair,
      - |g_j & g_l & g_m| is even for every triple,
    since f of an XOR of words is fixed mod 8 by these terms (module
    docstring). With `block` given (a qubit mask), every word is restricted
    to that block, which is the per-tetrahedron gate condition for chain
    codes.
    """
    words = _words(code, code.logical_x, block)
    f = p.signed_weight
    r = f(words[0]) % 8
    if r not in (1, 7):
        return PhaseCheckReport(False, failing_word=(0,))
    for j in range(1, len(words)):
        if f(words[j]) % 8:
            return PhaseCheckReport(False, failing_word=(j,))
    for j, l in itertools.combinations(range(len(words)), 2):
        if f(words[j] & words[l]) % 4:
            return PhaseCheckReport(False, failing_word=(j, l))
    for j, l, m in itertools.combinations(range(len(words)), 3):
        if (words[j] & words[l] & words[m]).bit_count() % 2:
            return PhaseCheckReport(False, failing_word=(j, l, m))
    return PhaseCheckReport(True, residue=r, gate="T" if r == 1 else "Tdg")


def find_t_partition(code: CssCode) -> TPartition | None:
    """Search for a vertex sign assignment implementing a logical T or T-dagger.

    Tries the trivial assignments, then the solution that `gf2.solve` gives
    for the necessary mod-2 linear conditions (generator and pairwise-overlap
    parities). A returned partition always passes
    check_diagonal_transversality; None means these candidates failed, not
    that no partition exists.
    """
    gens = gf2.rref(code.hx.rows, code.n)[0]
    lx = code.logical_x

    def verify(bmask):
        p = TPartition(code.n, bmask)
        rep = check_diagonal_transversality(code, p)
        if rep.passed:
            return replace(p, induced_logical=rep.gate)
        return None

    for bmask in (0, (1 << code.n) - 1):
        got = verify(bmask)
        if got:
            return got

    # necessary parities: stabilizers even, logical coset odd, overlaps even
    if any(g.bit_count() % 2 for g in gens) or lx.bit_count() % 2 == 0:
        return None

    # necessary mod-2 conditions on b = indicator of V+
    rows = list(gens)
    for a, b in itertools.combinations(list(gens) + [lx], 2):
        o = a & b
        if o.bit_count() % 2:
            return None
        rows.append(o)
    rhs = [(r.bit_count() // 2) % 2 for r in rows]
    m = gf2.BitMatrix.make(rows, code.n)
    b_vec = gf2.vector_from_support(i for i, v in enumerate(rhs) if v)
    x0 = gf2.solve(m, b_vec)
    return None if x0 is None else verify(x0)


# ---------------------------------------------------------------------------
# CS gadget
# ---------------------------------------------------------------------------


def _gadget_phase(a: int, b: int, swap_dagger: bool) -> tuple[int, int, int]:
    """Run CNOT / T / T-dagger gadget on basis |ab>; phase in pi/4 units mod 8.

    Circuit: CNOT(a->b), T^-1 on b, CNOT(a->b), T on a, T on b
    (with T and T-dagger swapped when swap_dagger is set).
    """
    sign = -1 if swap_dagger else 1
    phase = 0
    x, y = a, b
    y ^= x
    phase -= sign * y
    y ^= x
    phase += sign * x
    phase += sign * y
    return x, y, phase % 8


def cs_gadget_matrix_identity() -> bool:
    """Exact check that the gadget equals CS (and its swap equals CS-dagger)."""
    for a, b in itertools.product((0, 1), repeat=2):
        x, y, ph = _gadget_phase(a, b, swap_dagger=False)
        if (x, y) != (a, b) or ph != (2 * a * b) % 8:
            return False
        x, y, ph = _gadget_phase(a, b, swap_dagger=True)
        if (x, y) != (a, b) or ph != (-2 * a * b) % 8:
            return False
    return True


def check_cs_gadget(
    code_a: CssCode, code_b: CssCode, p: TPartition, block: int | None = None
) -> PhaseCheckReport:
    """Verify the transversal controlled-phase condition on a code pair.

    The condition: over all codeword pairs (v, w) of the two X-stabilizer
    cosets, the signed overlap f(v & w) = |v&w&V+| - |v&w&V-| equals
    sigma * x * y mod 4 for a constant sigma (+1: logical CS, -1: logical
    CS-dagger), where x and y say whether v and w carry logical_x. With
    a_0, b_0 the two logical_x and a_j = b_j the rref X generators, v & w is
    the XOR of the products a_j & b_l, so by the module docstring's
    expansion mod 4 the condition holds exactly when
      - f(a_0 & b_0) = sigma in {1, 3} and every other f(a_j & b_l) = 0
        (mod 4),
      - |a_j & a_k & b_l| and |a_j & b_l & b_m| are even for all j < k,
        l < m.
    `block` restricts every word as in check_diagonal_transversality.
    """
    if (code_a.n, code_a.hx.rows) != (code_b.n, code_b.hx.rows):
        raise ValueError("codes must be structurally identical")
    a = _words(code_a, code_a.logical_x, block)
    b = _words(code_a, code_b.logical_x, block)
    f = p.signed_weight
    s = f(a[0] & b[0]) % 4
    if s not in (1, 3):
        return PhaseCheckReport(False, failing_word=((0,), (0,)))
    for j, l in itertools.product(range(len(a)), range(len(b))):
        if (j or l) and f(a[j] & b[l]) % 4:
            return PhaseCheckReport(False, failing_word=((j,), (l,)))
    for (j, k), l in itertools.product(itertools.combinations(range(len(a)), 2), range(len(a))):
        if (a[j] & a[k] & b[l]).bit_count() % 2:
            return PhaseCheckReport(False, failing_word=((j, k), (l,)))
        if (a[l] & b[j] & b[k]).bit_count() % 2:
            return PhaseCheckReport(False, failing_word=((l,), (j, k)))
    sigma = 1 if s == 1 else -1
    return PhaseCheckReport(True, residue=sigma, gate="CS" if sigma == 1 else "CSdg")
