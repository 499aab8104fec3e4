"""Tetrahedral 3-colexes: colored 3D cell complexes defining tetrahedral codes.

The built-in family comes from the body-centered-cubic Delaunay triangulation
(the tetragonal disphenoid honeycomb). BCC sites are the integer points with
all-even or all-odd coordinates, colored by (x+y+z) mod 4; every Delaunay
tetrahedron then carries all four colors. Clipping to a tetrahedral region
bounded by the four body-diagonal half-spaces <n_i, v> >= a_i and coning each
of the four boundary disks to an extra color vertex closes the triangulation
into a 3-sphere. Only the Delaunay tetrahedra that can meet the region are
enumerated: a tetrahedron reaches at most 3 along any normal from its base
point, so base points in the region widened by 3 on every side cover the
region and the far side of each boundary triangle. The colex is the dual of
the closed triangulation, minus the one all-boundary tetrahedron:

    qubits  = tetrahedra of the closed triangulation (minus the outer one)
    cells   = interior (lattice) dual vertices, colored
    faces   = dual edges with at most one boundary endpoint
    facet i = qubits incident to boundary vertex i (missing color i)

The offsets a_i are fixed to (1, 2, 3, 0) mod 4, which makes boundary facet i
avoid color i, and their total shift sets the linear size: L = 3, 5, 7 give
the [[15,1,3]], [[65,1,5]] and [[175,1,7]] codes.

Externally supplied colexes are accepted as the `block_colex` of a chain
file (see `colex_from_dict` and `surgery.chain_from_dict`); everything
downstream works from the public Colex data alone.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from . import gf2

NORMALS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class ColexBuildError(ValueError):
    """The requested colex cannot be built (bad parameters or clip failure)."""


class ColexParseError(ValueError):
    """Malformed colex/code file; message carries field context."""


def file_number(x, field: str, kind: type = int):
    """A number field of a colex, chain or circuit file, as is: an int, or
    for kind=float an int or a float. A bool, a str or anything else raises
    ColexParseError naming the field, so nothing is truncated or converted."""
    if isinstance(x, bool) or not isinstance(x, (int, kind)):
        what = "an int" if kind is int else "a number"
        raise ColexParseError(f"{field} must be {what}, not {type(x).__name__!r}: {x!r}")
    return x


@dataclass(frozen=True)
class Cell:
    vertices: tuple[int, ...]
    color: int


@dataclass(frozen=True)
class Face:
    vertices: tuple[int, ...]
    colors: tuple[int, int]


@dataclass(frozen=True)
class BoundaryFacet:
    vertices: tuple[int, ...]
    missing_color: int


@dataclass(frozen=True)
class Colex:
    """Tetrahedral 3-colex. Vertices are the qubits, ids dense 0..n-1."""

    L: int
    n: int
    cells: tuple[Cell, ...]
    faces: tuple[Face, ...]
    facets: tuple[BoundaryFacet, ...]

    @property
    def vertices(self) -> range:
        return range(self.n)

    def facet(self, missing_color: int) -> BoundaryFacet:
        for f in self.facets:
            if f.missing_color == missing_color:
                return f
        raise KeyError(f"no facet with missing color {missing_color}")


@dataclass(frozen=True)
class ColexReport:
    """Per-axiom validation outcome; offenders identify failing elements."""

    entries: tuple[tuple[str, bool, tuple], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def failures(self):
        return [(name, off) for name, ok, off in self.entries if not ok]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _color(v) -> int:
    return (v[0] + v[1] + v[2]) % 4


def _offsets(L: int) -> tuple[int, int, int, int]:
    # start at (1,2,3,0); subtract 4 round-robin until the sum is -2L
    a = [1, 2, 3, 0]
    for i in range((L + 3) // 2):
        a[i % 4] -= 4
    return tuple(a)


def _disphenoids(offs) -> set:
    """BCC Delaunay tetrahedra, among them all with a vertex in the region
    <n_i, v> >= a_i (a_i = offs[i]).

    Each tetrahedron joins a lattice edge p, p + 2e_u of the even sublattice
    (p is its base point) with a crossing edge of the odd sublattice, so its
    vertices differ from p by 2e_u or e_u +- e_w +- e_t, and <n_i, v - p> lies
    in [-3, 3] for every clip normal. A tetrahedron with a vertex inside
    therefore has <n_i, p> >= a_i - 3 for all i, and only those base points
    are enumerated: they cover every region tetrahedron and every tetrahedron
    that shares one of its triangles. The normals sum to zero, so these four
    half-spaces bound a tetrahedron; n_0 + n_j = 2e_j and the sum of the other
    two normals, -2e_j, bound coordinate j of its base points.
    """
    b = [a - 3 for a in offs]
    axes = []
    for j in (1, 2, 3):
        lo = -(-(b[0] + b[j]) // 2)
        hi = (b[0] + b[j] - sum(b)) // 2
        axes.append(range(lo + lo % 2, hi + 1, 2))
    tets = set()
    for p in itertools.product(*axes):
        if any(sum(n[i] * p[i] for i in range(3)) < bi for n, bi in zip(NORMALS, b)):
            continue
        for u in range(3):
            for w in range(3):
                if w == u:
                    continue
                t = 3 - u - w
                au, aw, at = _AXES[u], _AXES[w], _AXES[t]
                p2 = tuple(p[i] + 2 * au[i] for i in range(3))
                for s in (-1, 1):
                    q1 = tuple(p[i] + au[i] - aw[i] + s * at[i] for i in range(3))
                    q2 = tuple(p[i] + au[i] + aw[i] + s * at[i] for i in range(3))
                    tets.add(frozenset((p, p2, q1, q2)))
    return tets


def build_tetrahedral_colex(L: int) -> Colex:
    """Construct the built-in tetrahedral colex of linear size L (odd, >= 3)."""
    if L < 3 or L % 2 == 0:
        raise ColexBuildError(f"L must be an odd integer >= 3, got {L}")
    offs = _offsets(L)
    all_tets = _disphenoids(offs)

    def inside(v):
        return all(
            sum(n[i] * v[i] for i in range(3)) >= a for n, a in zip(NORMALS, offs)
        )

    region = sorted(
        (t for t in all_tets if all(inside(v) for v in t)),
        key=lambda t: tuple(sorted(t)),
    )
    if not region:
        raise ColexBuildError(f"empty clip region for L={L}")

    tri2tet = defaultdict(list)
    for t in all_tets:
        for tri in itertools.combinations(sorted(t), 3):
            tri2tet[tri].append(t)

    region_set = set(region)
    facet_of_tri = {}
    for t in region:
        for tri in itertools.combinations(sorted(t), 3):
            owners = tri2tet[tri]
            if len(owners) != 2:
                raise ColexBuildError(f"triangle {tri} not shared by 2 tetrahedra")
            other = owners[0] if owners[1] == t else owners[1]
            if other in region_set:
                continue
            apex = next(iter(other - set(tri)))
            violated = [
                i
                for i, (n, a) in enumerate(zip(NORMALS, offs))
                if sum(n[j] * apex[j] for j in range(3)) < a
            ]
            if len(violated) != 1:
                raise ColexBuildError(f"ambiguous boundary triangle {tri}: {violated}")
            facet_of_tri[tri] = violated[0]

    # dual-node encoding: lattice vertex -> (0, x, y, z); boundary i -> (1, i)
    def node(v):
        return (0,) + v

    bnode = [(1, i) for i in range(4)]

    dual_tets = [frozenset(node(v) for v in t) for t in region]

    edge_facets = defaultdict(set)
    edge_count = defaultdict(int)
    for tri, fi in facet_of_tri.items():
        dual_tets.append(frozenset(itertools.chain((node(v) for v in tri), [bnode[fi]])))
        for e in itertools.combinations(tri, 2):
            edge_facets[e].add(fi)
            edge_count[e] += 1
    for e, cnt in edge_count.items():
        if cnt != 2:
            raise ColexBuildError(f"boundary edge {e} lies in {cnt} boundary triangles")

    pair_vertex_deg = defaultdict(lambda: defaultdict(int))
    for e, fs in sorted(edge_facets.items()):
        if len(fs) == 1:
            continue
        if len(fs) != 2:
            raise ColexBuildError(f"boundary edge {e} touches facets {sorted(fs)}")
        i, j = sorted(fs)
        dual_tets.append(frozenset((node(e[0]), node(e[1]), bnode[i], bnode[j])))
        for v in e:
            pair_vertex_deg[(i, j)][v] += 1

    corner_pairs = defaultdict(set)
    for pair, degs in sorted(pair_vertex_deg.items()):
        ends = sorted(v for v, d in degs.items() if d == 1)
        if len(ends) != 2 or any(d > 2 for d in degs.values()):
            raise ColexBuildError(f"facet-pair path {pair} is not a simple open path")
        for v in ends:
            corner_pairs[v].add(pair)
    corners = {}
    for v, pairs in sorted(corner_pairs.items()):
        cols = sorted(set(itertools.chain.from_iterable(pairs)))
        if len(pairs) != 3 or len(cols) != 3:
            raise ColexBuildError(f"bad corner at {v}: pairs {sorted(pairs)}")
        corners[v] = cols
        dual_tets.append(frozenset([node(v)] + [bnode[i] for i in cols]))
    if sorted(corners.values()) != [list(c) for c in itertools.combinations(range(4), 3)]:
        raise ColexBuildError(f"corner triples incomplete: {sorted(corners.values())}")

    # canonical qubit ids: sort dual tetrahedra by their node keys
    dual_tets = sorted(set(dual_tets), key=lambda t: tuple(sorted(t)))
    qubit_of = {t: i for i, t in enumerate(dual_tets)}

    node_qubits = defaultdict(set)
    edge_qubits = defaultdict(set)
    for t, q in qubit_of.items():
        for u in t:
            node_qubits[u].add(q)
        for e in itertools.combinations(sorted(t), 2):
            edge_qubits[e].add(q)

    cells = []
    for u in sorted(node_qubits):
        if u[0] == 1:
            continue
        cells.append(Cell(tuple(sorted(node_qubits[u])), _color(u[1:])))

    faces = []
    for e in sorted(edge_qubits):
        u, v = e
        nb = (u[0] == 1) + (v[0] == 1)
        if nb > 1:
            continue
        cu = u[1] if u[0] == 1 else _color(u[1:])
        cv = v[1] if v[0] == 1 else _color(v[1:])
        faces.append(Face(tuple(sorted(edge_qubits[e])), tuple(sorted((cu, cv)))))

    facets = tuple(
        BoundaryFacet(tuple(sorted(node_qubits[bnode[i]])), i) for i in range(4)
    )

    return Colex(L, len(dual_tets), tuple(cells), tuple(faces), facets)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_colex(c: Colex) -> ColexReport:
    """Check colex axioms (i)-(iii) and structural sanity; never raises."""
    entries = []
    vset = set(c.vertices)

    bad_ref = []
    for kind, elems in (("cell", c.cells), ("face", c.faces), ("facet", c.facets)):
        for idx, e in enumerate(elems):
            vs = e.vertices
            if len(set(vs)) != len(vs) or not set(vs) <= vset:
                bad_ref.append((kind, idx))
    entries.append(("structure: vertex references", not bad_ref, tuple(bad_ref)))

    # axiom (i): cells sharing a face have different colors, and every face is
    # the intersection trace of exactly two cells or one cell plus one facet
    bad_i = []
    bad_struct = []
    for idx, f in enumerate(c.faces):
        fs = set(f.vertices)
        owners = [i for i, cell in enumerate(c.cells) if fs <= set(cell.vertices)]
        fac_owners = [i for i, fac in enumerate(c.facets) if fs <= set(fac.vertices)]
        if len(owners) == 2 and not fac_owners:
            if c.cells[owners[0]].color == c.cells[owners[1]].color:
                bad_i.append(idx)
        elif len(owners) == 1 and len(fac_owners) == 1:
            if c.cells[owners[0]].color == c.facets[fac_owners[0]].missing_color:
                bad_i.append(idx)
        else:
            bad_struct.append(idx)
    entries.append(("axiom i: face-adjacent cells differ in color", not bad_i, tuple(bad_i)))
    entries.append(
        ("structure: face in two cells or cell+facet", not bad_struct, tuple(bad_struct))
    )

    bad_ii = []
    for idx, fac in enumerate(c.facets):
        fs = set(fac.vertices)
        adj_colors = {cell.color for cell in c.cells if fs & set(cell.vertices)}
        if adj_colors != set(range(4)) - {fac.missing_color}:
            bad_ii.append(idx)
    entries.append(("axiom ii: facet carries the three other colors", not bad_ii, tuple(bad_ii)))

    incident = defaultdict(set)
    for cell in c.cells:
        for v in cell.vertices:
            incident[v].add(cell.color)
    for fac in c.facets:
        for v in fac.vertices:
            incident[v].add(fac.missing_color)
    bad_iii = tuple(v for v in c.vertices if incident[v] != set(range(4)))
    entries.append(("axiom iii: every vertex sees all four colors", not bad_iii, bad_iii))

    bad_cover = []
    for idx, fac in enumerate(c.facets):
        covered = set()
        for f in c.faces:
            if set(f.vertices) <= set(fac.vertices):
                covered |= set(f.vertices)
        if covered != set(fac.vertices):
            bad_cover.append(idx)
    entries.append(("structure: facet covered by its faces", not bad_cover, tuple(bad_cover)))

    return ColexReport(tuple(entries))


# ---------------------------------------------------------------------------
# Facet codes (2D triangular color codes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FacetCode:
    """The 2D triangular color code induced on a boundary facet.

    Local qubit i is 3D qubit `qubits[i]`. `faces` double as the X and Z
    checks; `face_cells` maps each 2D face to the colex cell whose trace it
    is and labels the rows of `check_matrix`. `logical` is the trace of the
    3D X logical representative, so it is a logical of both codes.
    """

    facet_color: int
    qubits: tuple[int, ...]
    faces: tuple[tuple[int, ...], ...]
    face_cells: tuple[int, ...]
    logical: int

    @property
    def n(self) -> int:
        return len(self.qubits)

    def check_matrix(self) -> gf2.BitMatrix:
        rows = [gf2.vector_from_support(f) for f in self.faces]
        return gf2.BitMatrix.make(rows, self.n, labels=self.face_cells)

    def logical_count(self) -> int:
        m = self.check_matrix()
        r = gf2.rank(m)
        return self.n - 2 * r


X_LOGICAL_FACET = 0  # facet whose indicator is the canonical 3D X logical
Z_LOGICAL_EDGE = (0, 1)  # facet pair whose shared edge is the canonical Z logical


def facet_code(c: Colex, facet_color: int) -> FacetCode:
    """Triangular 2D color code on the facet with the given missing color."""
    fac = c.facet(facet_color)
    qubits = tuple(sorted(fac.vertices))
    local = {q: i for i, q in enumerate(qubits)}
    fs = set(fac.vertices)
    faces = []
    face_cells = []
    for f in c.faces:
        if set(f.vertices) <= fs:
            owners = [i for i, cell in enumerate(c.cells) if set(f.vertices) <= set(cell.vertices)]
            if len(owners) != 1:
                raise ColexBuildError(
                    f"facet face {f.vertices} is the trace of {len(owners)} cells"
                )
            faces.append(tuple(sorted(local[q] for q in f.vertices)))
            face_cells.append(owners[0])
    order = sorted(range(len(faces)), key=lambda i: faces[i])
    faces = tuple(faces[i] for i in order)
    face_cells = tuple(face_cells[i] for i in order)

    xfac = c.facet(X_LOGICAL_FACET)
    if facet_color == X_LOGICAL_FACET:
        trace = set(qubits)
    else:
        trace = set(xfac.vertices) & fs
    logical = gf2.vector_from_support(local[q] for q in trace)
    return FacetCode(facet_color, qubits, faces, face_cells, logical)


# ---------------------------------------------------------------------------
# Interchange: the JSON-ready dict a chain file holds as its block_colex
# ---------------------------------------------------------------------------


def colex_to_dict(c: Colex) -> dict:
    return {
        "L": c.L,
        "vertices": list(c.vertices),
        "cells": [{"color": x.color, "vertices": list(x.vertices)} for x in c.cells],
        "faces": [{"colors": list(x.colors), "vertices": list(x.vertices)} for x in c.faces],
        "facets": [
            {"missing_color": x.missing_color, "vertices": list(x.vertices)}
            for x in c.facets
        ],
    }


def colex_from_dict(d: dict) -> Colex:
    """The colex of `colex_to_dict`'s keys. L, every vertex id and every
    color must be ints, and L must fit the vertex count (L^3+L)/2 of every
    built block; anything else raises ColexParseError naming the field."""

    def need(obj, key, ctx):
        if key not in obj:
            raise ColexParseError(f"{ctx}: missing field {key!r}")
        return obj[key]

    def num(obj, key, ctx):
        return file_number(need(obj, key, ctx), f"{ctx}.{key}")

    def nums(obj, key, ctx):
        return tuple(
            file_number(v, f"{ctx}.{key}[{j}]") for j, v in enumerate(need(obj, key, ctx))
        )

    L = num(d, "L", "colex")
    verts = nums(d, "vertices", "colex")
    if len(set(verts)) != len(verts):
        raise ColexParseError("colex.vertices: duplicate vertex id")
    if sorted(verts) != list(range(len(verts))):
        raise ColexParseError("colex.vertices: ids must be dense 0..n-1")
    if len(verts) != (L**3 + L) // 2:
        raise ColexParseError(
            f"colex.L = {L} does not fit {len(verts)} vertices: an L-block has (L^3+L)/2"
        )
    vset = set(verts)

    def vtuple(obj, ctx):
        vs = nums(obj, "vertices", ctx)
        if not set(vs) <= vset:
            raise ColexParseError(f"{ctx}: unknown vertex in {list(vs)}")
        if len(set(vs)) != len(vs):
            raise ColexParseError(f"{ctx}: repeated vertex in {list(vs)}")
        return vs

    cells = tuple(
        Cell(vtuple(x, f"cells[{i}]"), num(x, "color", f"cells[{i}]"))
        for i, x in enumerate(need(d, "cells", "colex"))
    )
    faces = tuple(
        Face(vtuple(x, f"faces[{i}]"), nums(x, "colors", f"faces[{i}]"))
        for i, x in enumerate(need(d, "faces", "colex"))
    )
    facets = tuple(
        BoundaryFacet(vtuple(x, f"facets[{i}]"), num(x, "missing_color", f"facets[{i}]"))
        for i, x in enumerate(need(d, "facets", "colex"))
    )
    if sorted(f.missing_color for f in facets) != [0, 1, 2, 3]:
        raise ColexParseError("facets: need exactly one facet per missing color 0..3")
    return Colex(L, len(verts), cells, faces, facets)

