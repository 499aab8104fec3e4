import dataclasses
import hashlib
import itertools
import json

import pytest

from tetriqp import colex as cx
from tetriqp import gf2


@pytest.fixture(scope="module")
def c3():
    return cx.build_tetrahedral_colex(3)


@pytest.fixture(scope="module")
def c5():
    return cx.build_tetrahedral_colex(5)


def test_bad_parameters():
    for bad in (1, 2, 4, 0, -3):
        with pytest.raises(cx.ColexBuildError):
            cx.build_tetrahedral_colex(bad)


def test_l3_shape(c3):
    assert c3.n == 15
    assert len(c3.cells) == 4
    assert all(len(f.vertices) == 7 for f in c3.facets)
    assert sorted(f.missing_color for f in c3.facets) == [0, 1, 2, 3]
    # the four cells carry all four colors and weight 8 each
    assert sorted(cell.color for cell in c3.cells) == [0, 1, 2, 3]
    assert all(len(cell.vertices) == 8 for cell in c3.cells)
    assert all(len(f.vertices) == 4 for f in c3.faces)


def test_validate_builtin(c3, c5):
    for c in (c3, c5):
        rep = cx.validate_colex(c)
        assert rep.passed, rep.failures()


def test_axiom_i_counterexample(c3):
    # recolor one cell to match a face-adjacent neighbor
    cells = list(c3.cells)
    cells[0] = dataclasses.replace(cells[0], color=cells[1].color)
    bad = dataclasses.replace(c3, cells=tuple(cells))
    rep = cx.validate_colex(bad)
    assert not rep.passed
    assert any("axiom i" in name for name, _ in rep.failures())


def test_axiom_ii_counterexample(c3):
    # relabel a facet with a color that is present on it
    facets = list(c3.facets)
    facets[0] = dataclasses.replace(facets[0], missing_color=facets[1].missing_color)
    bad = dataclasses.replace(c3, facets=tuple(facets))
    rep = cx.validate_colex(bad)
    assert not rep.passed
    assert any("axiom ii" in name for name, _ in rep.failures())


def test_face_ownership(c3, c5):
    # every face is the trace of exactly two cells, or one cell plus a facet
    for c in (c3, c5):
        for f in c.faces:
            fs = set(f.vertices)
            owners = [cell for cell in c.cells if fs <= set(cell.vertices)]
            fac = [x for x in c.facets if fs <= set(x.vertices)]
            assert (len(owners), len(fac)) in {(2, 0), (1, 1)}


def test_growth_monotone():
    sizes = [cx.build_tetrahedral_colex(L).n for L in (3, 5, 7)]
    assert sizes == sorted(sizes)
    assert sizes[0] < sizes[1] < sizes[2]
    # cubic-like growth: n(7)/n(5) exceeds the quadratic ratio (7/5)^2
    assert sizes[2] / sizes[1] > (7 / 5) ** 2


def test_facet_code_l3(c3):
    fc = cx.facet_code(c3, 0)
    assert fc.n == 7
    assert fc.logical_count() == 1
    # distance of the 2D code: min weight logical = 3
    m = fc.check_matrix()
    res = gf2.min_weight_in_coset(m.rows, fc.logical, fc.n, weight_cap=7)
    assert res.found and res.weight == 3


def test_facet_code_l5(c5):
    for color in range(4):
        fc = cx.facet_code(c5, color)
        assert fc.n == 19
        assert fc.n % 2 == 1
        assert fc.logical_count() == 1


def test_facet_checks_commute(c3, c5):
    for c in (c3, c5):
        for color in range(4):
            fc = cx.facet_code(c, color)
            rows = fc.check_matrix().rows
            for a in rows:
                for b in rows:
                    assert gf2.dot(a, b) == 0


def test_export_import_round_trip(c3):
    # through JSON text, as a chain file's block_colex travels
    text = json.dumps(cx.colex_to_dict(c3), sort_keys=True)
    c3b = cx.colex_from_dict(json.loads(text))
    assert c3b == c3
    # text-level bit exactness
    assert json.dumps(cx.colex_to_dict(c3b), sort_keys=True) == text


def test_import_duplicate_vertex(c3):
    d = cx.colex_to_dict(c3)
    d["vertices"] = d["vertices"][:-1] + [d["vertices"][-2]]
    with pytest.raises(cx.ColexParseError, match="vertices"):
        cx.colex_from_dict(json.loads(json.dumps(d)))


def test_import_unknown_vertex(c3):
    d = cx.colex_to_dict(c3)
    d["cells"][0]["vertices"][0] = 999
    with pytest.raises(cx.ColexParseError, match="cells"):
        cx.colex_from_dict(json.loads(json.dumps(d)))


# sha256 of the sorted-key JSON of build_tetrahedral_colex(L), recorded from
# the full-cube enumeration that the clip-filtered one replaced
COLEX_SHA256 = {
    3: "613257dfca76ef1dd6e0cf93ace571e107520d27fada10fcb8aa24a81bbaeaa1",
    5: "19bd6237a367c89b9d6e3cb7b849a064aa45ef638c2e026d3aeb204e8ac1ce9f",
    7: "da5648ad543be49e1c086ab9bca09ee934f05bb7763a6acc476223c17632d66e",
    9: "d9106a44076c89a51b083992af6f405412845a4c01954d02afbff288f56e4bbf",
}


@pytest.mark.parametrize("L", sorted(COLEX_SHA256))
def test_colex_pinned(L):
    text = json.dumps(cx.colex_to_dict(cx.build_tetrahedral_colex(L)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == COLEX_SHA256[L]


def _cube_disphenoids(bound):
    """Every BCC Delaunay tetrahedron with base point in [-bound, bound]^3."""
    tets = set()
    axis = range(-bound - bound % 2, bound + 1, 2)
    for p in itertools.product(axis, repeat=3):
        for u, w in itertools.permutations(range(3), 2):
            au, aw, at = (cx._AXES[i] for i in (u, w, 3 - u - w))
            p2 = tuple(p[i] + 2 * au[i] for i in range(3))
            for s in (-1, 1):
                q1 = tuple(p[i] + au[i] - aw[i] + s * at[i] for i in range(3))
                q2 = tuple(p[i] + au[i] + aw[i] + s * at[i] for i in range(3))
                tets.add(frozenset((p, p2, q1, q2)))
    return tets


@pytest.mark.parametrize("L", [3, 5])
def test_clip_filter_keeps_every_tetrahedron_touching_the_region(L):
    offs = cx._offsets(L)

    def inside(v):
        return all(sum(n[i] * v[i] for i in range(3)) >= a for n, a in zip(cx.NORMALS, offs))

    touching = {t for t in _cube_disphenoids(2 * L + 6) if any(map(inside, t))}
    assert touching <= cx._disphenoids(offs)
