"""CSS stabilizer code algebra for tetrahedral codes.

Builds codes from colexes, computes logical counts and distances, and
verifies the transversal diagonal-gate phase conditions: the vertex-partition
condition for the logical T-gate, and the pairwise condition for the
controlled-phase gadget. All phase checks are integer residue computations,
never floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from . import gf2
from .colex import Colex, X_LOGICAL_FACET, Z_LOGICAL_EDGE, validate_colex

ENUM_GENERATOR_CAP = 20  # refuse stabilizer-group enumerations beyond 2^20


class EnumerationTooLarge(RuntimeError):
    pass


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
    passed: bool
    residue: int | None = None  # coset residue r mod 8 (T check) or sign (CS check)
    gate: str | None = None
    failing_word: tuple | None = None

    def __bool__(self):
        return self.passed


def _enumerate_group(gens):
    """Yield all 2^k span elements by Gray-code single XORs."""
    k = len(gens)
    if k > ENUM_GENERATOR_CAP:
        raise EnumerationTooLarge(
            f"{k} independent generators exceed the 2^{ENUM_GENERATOR_CAP} enumeration cap"
        )
    v = 0
    yield v
    prev = 0
    for t in range(1, 1 << k):
        gray = t ^ (t >> 1)
        idx = (gray ^ prev).bit_length() - 1
        prev = gray
        v ^= gens[idx]
        yield v


def check_diagonal_transversality(
    code: CssCode, p: TPartition, block: int | None = None
) -> PhaseCheckReport:
    """Verify the transversal-T phase condition by codeword enumeration.

    Enumerates every X-stabilizer codeword s and coset word s + logical_x,
    checking the signed weight mod 8: 0 on the stabilizer group, a constant
    r in {1, 7} on the logical coset. With `block` given (a qubit mask), the
    signed weight is restricted to that block, which is the per-tetrahedron
    gate condition for chain codes.
    """
    mask = block if block is not None else (1 << code.n) - 1
    gens = gf2.rref(code.hx.rows, code.n)[0]
    r = None
    for s in _enumerate_group(gens):
        if p.signed_weight(s & mask) % 8 != 0:
            return PhaseCheckReport(False, failing_word=("stabilizer", s))
        u = s ^ code.logical_x
        ru = p.signed_weight(u & mask) % 8
        if r is None:
            if ru not in (1, 7):
                return PhaseCheckReport(False, failing_word=("coset", u))
            r = ru
        elif ru != r:
            return PhaseCheckReport(False, failing_word=("coset", u))
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
    if len(gens) > ENUM_GENERATOR_CAP:
        raise EnumerationTooLarge(
            f"stabilizer group of {len(gens)} generators is too large to verify "
            f"partitions (cap 2^{ENUM_GENERATOR_CAP})"
        )
    lx = code.logical_x

    def quick_reject(bmask):
        p = TPartition(code.n, bmask)
        if any(p.signed_weight(g) % 8 for g in gens):
            return True
        r = p.signed_weight(lx) % 8
        if r not in (1, 7):
            return True
        return any(p.signed_weight(g ^ lx) % 8 != r for g in gens)

    def verify(bmask):
        if quick_reject(bmask):
            return None
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
    rows, rhs = [], []

    def add(vec, par):
        rows.append(vec)
        rhs.append(par)

    for g in gens:
        add(g, (g.bit_count() // 2) % 2)
    for a, b in itertools.combinations(list(gens) + [lx], 2):
        o = a & b
        if o.bit_count() % 2:
            return None
        add(o, (o.bit_count() // 2) % 2)
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

    First checks the exact 2-qubit gadget identity, then enumerates all
    codeword pairs (v, w) over both X-stabilizer cosets and requires the
    signed pair overlap |v&w&V+| - |v&w&V-| to equal sigma * x * y mod 4 for
    a constant sign sigma (+1: logical CS, -1: logical CS-dagger).
    """
    if not cs_gadget_matrix_identity():
        return PhaseCheckReport(False, failing_word=("gadget-matrix",))
    if (code_a.n, code_a.hx.rows) != (code_b.n, code_b.hx.rows):
        raise ValueError("codes must be structurally identical")
    mask = block if block is not None else (1 << code_a.n) - 1
    gens = gf2.rref(code_a.hx.rows, code_a.n)[0]
    group = list(_enumerate_group(gens))
    sigma = None
    for v0 in group:
        for x in (0, 1):
            v = (v0 ^ (code_a.logical_x if x else 0)) & mask
            for w0 in group:
                for y in (0, 1):
                    w = (w0 ^ (code_b.logical_x if y else 0)) & mask
                    o = v & w
                    signed = 2 * (o & p.v_plus).bit_count() - o.bit_count()
                    want = x * y
                    if want == 0:
                        if signed % 4 != 0:
                            return PhaseCheckReport(False, failing_word=(v, w, x, y))
                    else:
                        s = signed % 4
                        if s == 1:
                            this = 1
                        elif s == 3:
                            this = -1
                        else:
                            return PhaseCheckReport(False, failing_word=(v, w, x, y))
                        if sigma is None:
                            sigma = this
                        elif sigma != this:
                            return PhaseCheckReport(False, failing_word=(v, w, x, y))
    return PhaseCheckReport(
        True, residue=sigma, gate="CS" if sigma == 1 else "CSdg"
    )
