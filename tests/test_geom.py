import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftgeo import (
    HPolyhedron,
    RationalVec,
    affine_dim,
    lineality_space,
    linear_max,
    poly_contains,
    poly_equal,
    polygon_area_2d,
    polygon_intersection_2d,
    recession_cone,
    vertices_2d,
)
from liftgeo.errors import DimensionError, EmptyInputError, UnboundedInputError
from liftgeo.geom import _primitive_ints, coordinate_bounds, fm_eliminate, irredundant

from helpers import reference_fm_eliminate, small_systems


def rows(*items):
    return HPolyhedron.from_rows([(RationalVec.from_seq(n), r) for n, r in items], 2)


UNIT_SQUARE = rows(((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1))
STRIP = rows(((-1, 0), 0), ((1, 0), F(1, 2)))
TRIANGLE = rows(((-1, 0), 0), ((0, -1), 0), ((1, 1), 1))


def test_vertices_unit_square():
    verts, rays, lin = vertices_2d(UNIT_SQUARE)
    assert {v.coords for v in verts} == {
        (0, 0), (1, 0), (0, 1), (1, 1),
    }
    assert rays == [] and lin == []


def test_vertices_halfplane():
    hp = rows(((-1, 0), 0))
    verts, rays, lin = vertices_2d(hp)
    assert [v.coords for v in verts] == [(0, 0)]
    assert [r.coords for r in rays] == [(1, 0)]
    assert [l.coords for l in lin] == [(0, 1)]


def test_vertices_strip_quotient():
    verts, rays, lin = vertices_2d(STRIP)
    assert {v.coords for v in verts} == {(0, 0), (F(1, 2), 0)}
    assert rays == []
    assert [l.coords for l in lin] == [(0, 1)]


def test_vertices_empty():
    empty = rows(((1, 0), 0), ((-1, 0), -1))
    assert vertices_2d(empty) == ([], [], [])


def test_vertices_tight_on_two_rows():
    for poly in (UNIT_SQUARE, TRIANGLE):
        verts, _, _ = vertices_2d(poly)
        for v in verts:
            tight = [n for n, b in poly.rows if n.dot(v) == b]
            assert all(n.dot(v) <= b for n, b in poly.rows)
            assert len(tight) >= 2


def test_vertices_dimension_error():
    bad = HPolyhedron.from_rows([(RationalVec.of(1, 0, 0), 1)], 3)
    with pytest.raises(DimensionError):
        vertices_2d(bad)


def test_lineality_examples():
    assert [l.coords for l in lineality_space(STRIP)] == [(0, 1)]
    assert lineality_space(TRIANGLE) == []
    cone = rows(((1, 1), 0), ((-1, -1), 0))
    assert [l.coords for l in lineality_space(cone)] == [(1, -1)]


def test_lineality_empty_input():
    with pytest.raises(EmptyInputError):
        lineality_space(HPolyhedron.canonical_empty(2))


def test_recession_examples():
    rc = recession_cone(TRIANGLE)
    assert all(b == 0 for _, b in rc.rows)
    assert rc.contains(RationalVec.of(0, 0))
    assert not rc.contains(RationalVec.of(1, 0))
    hp = rows(((-1, 0), 0))
    assert recession_cone(hp).contains(RationalVec.of(1, 0))
    strip_rc = recession_cone(STRIP)
    assert strip_rc.contains(RationalVec.of(0, 1))
    assert not strip_rc.contains(RationalVec.of(1, 0))
    with pytest.raises(EmptyInputError):
        recession_cone(HPolyhedron.canonical_empty(2))


def test_intersection_and_area():
    half = rows(((1, 0), F(1, 2)))
    inter = polygon_intersection_2d(UNIT_SQUARE, half)
    assert polygon_area_2d(inter) == F(1, 2)
    assert polygon_area_2d(TRIANGLE) == F(1, 2)
    far = UNIT_SQUARE.translate(RationalVec.of(10, 10))
    assert polygon_intersection_2d(UNIT_SQUARE, far).is_empty()


def test_area_unbounded_error():
    with pytest.raises(UnboundedInputError):
        polygon_area_2d(STRIP)


def test_linear_max():
    assert linear_max(UNIT_SQUARE, RationalVec.of(1, 1)) == ("bounded", F(2))
    assert linear_max(rows(((-1, 0), 0)), RationalVec.of(1, 0))[0] == "unbounded"
    assert linear_max(HPolyhedron.canonical_empty(2), RationalVec.of(1, 0))[0] == "empty"


def _random_polygon(rng):
    cx, cy = F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2)
    items = []
    for _ in range(rng.randint(3, 5)):
        nx = F(rng.randint(-3, 3), rng.randint(1, 3))
        ny = F(rng.randint(-3, 3), rng.randint(1, 3))
        if nx == 0 and ny == 0:
            nx = F(1)
        rhs = nx * cx + ny * cy + F(rng.randint(1, 6), rng.randint(1, 4))
        items.append((RationalVec.of(nx, ny), rhs))
    # bounding box keeps everything finite
    for n, r in (
        (RationalVec.of(1, 0), cx + 3), (RationalVec.of(-1, 0), -cx + 3),
        (RationalVec.of(0, 1), cy + 3), (RationalVec.of(0, -1), -cy + 3),
    ):
        items.append((n, r))
    return HPolyhedron.from_rows(items, 2)


def test_intersection_associativity_random():
    rng = random.Random(2024)
    for _ in range(25):
        P, Q, R = (_random_polygon(rng) for _ in range(3))
        left = polygon_intersection_2d(polygon_intersection_2d(P, Q), R)
        right = polygon_intersection_2d(P, polygon_intersection_2d(Q, R))
        vl = {v.coords for v in vertices_2d(left)[0]}
        vr = {v.coords for v in vertices_2d(right)[0]}
        assert vl == vr
        assert poly_equal(left, right)


def test_area_additivity_against_complement_decomposition():
    rng = random.Random(7)
    for _ in range(15):
        P = _random_polygon(rng)
        Q = _random_polygon(rng)
        total = polygon_area_2d(polygon_intersection_2d(P, Q))
        # carve P \ Q into convex cells: outside one row of Q at a time
        prefix: list = []
        for normal, rhs in irredundant(Q).rows:
            cell = HPolyhedron.from_rows(
                list(P.rows) + prefix + [(normal.scale(-1), -rhs)], 2
            )
            if not cell.is_empty():
                total += polygon_area_2d(cell)
            prefix.append((normal, rhs))
        assert total == polygon_area_2d(P)


def test_poly_contains():
    assert poly_contains(UNIT_SQUARE, TRIANGLE)
    assert not poly_contains(TRIANGLE, UNIT_SQUARE)
    assert poly_contains(STRIP, HPolyhedron.canonical_empty(2))


def test_affine_dim():
    assert affine_dim(UNIT_SQUARE) == 2
    seg = rows(((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0))
    assert affine_dim(seg) == 1
    pt = rows(((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0))
    assert affine_dim(pt) == 0
    assert affine_dim(HPolyhedron.canonical_empty(2)) == -1


# ---------------------------------------------------------------------------
# Property tests of the projection kernel against a vertex oracle.  The
# oracle shares no code with Fourier-Motzkin: it clips the system to the box
# [-M, M]^dim, solves every dim-subset of rows exactly and keeps the feasible
# solutions.  With coefficients in [-3, 3] every vertex and every minimal
# face meets the box, so a sup that grows from M to 2M is unbounded.
# ---------------------------------------------------------------------------

ORACLE_BOX = 10 ** 4


def _solve_square(mat, rhs):
    """The unique solution of a square system, or None when it is singular."""
    n = len(mat)
    a = [list(row) + [b] for row, b in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def _box_vertices(P, box):
    dim = P.dim
    box_rows = []
    for i in range(dim):
        unit = tuple(F(1 if k == i else 0) for k in range(dim))
        box_rows.append((unit, F(box)))
        box_rows.append((tuple(-u for u in unit), F(box)))
    rows = [(n.coords, b) for n, b in P.rows] + box_rows
    verts = set()
    for combo in itertools.combinations(rows, dim):
        x = _solve_square([n for n, _ in combo], [b for _, b in combo])
        if x is not None and all(sum(a * v for a, v in zip(n, x)) <= b for n, b in rows):
            verts.add(x)
    return verts


def _oracle_sup(P, c):
    small, large = _box_vertices(P, ORACLE_BOX), _box_vertices(P, 2 * ORACLE_BOX)
    if not small:
        return "empty", None
    value = max(sum(a * v for a, v in zip(c, x)) for x in small)
    if value != max(sum(a * v for a, v in zip(c, x)) for x in large):
        return "unbounded", None
    return "bounded", value


@settings(max_examples=120, deadline=None)
@given(small_systems(), st.data())
def test_coordinate_bounds_matches_vertex_oracle(P, data):
    j = data.draw(st.integers(0, P.dim - 1))
    unit = [F(1 if k == j else 0) for k in range(P.dim)]
    up = _oracle_sup(P, unit)
    down = _oracle_sup(P, [-u for u in unit])
    if up[0] == "empty":
        assert coordinate_bounds(P, j) is None
    else:
        lo = -down[1] if down[0] == "bounded" else None
        hi = up[1] if up[0] == "bounded" else None
        assert coordinate_bounds(P, j) == (lo, hi)


@settings(max_examples=120, deadline=None)
@given(small_systems(), st.data())
def test_linear_max_matches_vertex_oracle(P, data):
    c = data.draw(st.tuples(*[st.integers(-3, 3)] * P.dim))
    assert linear_max(P, RationalVec.from_seq(c)) == _oracle_sup(P, [F(a) for a in c])


@settings(max_examples=120, deadline=None)
@given(small_systems())
def test_is_empty_matches_vertex_oracle(P):
    assert P.is_empty() == (not _box_vertices(P, ORACLE_BOX))


# ---------------------------------------------------------------------------
# The integer-row kernel against the Fraction elimination it replaced.  Both
# keep, per primitive normal direction, the first position and the tightest
# rhs, so the projected systems agree row by row, in order.
# ---------------------------------------------------------------------------


def _int_rows(rows):
    return [_primitive_ints(n.coords + (b,)) for n, b in rows]


def _canonical_rows(int_rows):
    """(primitive normal, rhs) of integer rows, checking the row invariant:
    integral with gcd 1, and rhs in {-1, 0, 1} for a zero normal."""
    out = []
    for r in int_rows:
        assert all(type(x) is int for x in r)
        normal, b = r[:-1], r[-1]
        g = gcd(*normal)
        if g == 0:
            assert b in (-1, 0, 1)
            out.append((RationalVec.from_seq(normal), F(b)))
        else:
            assert gcd(g, b) == 1
            out.append((RationalVec.from_seq(x // g for x in normal), F(b, g)))
    return out


def _assert_kernel_matches_reference(P):
    for j in range(P.dim):
        got = fm_eliminate(_int_rows(P.rows), j)
        assert _canonical_rows(got) == reference_fm_eliminate(P.rows, j)
    rows, ref = _int_rows(P.rows), list(P.rows)
    for j in range(P.dim):
        rows, ref = fm_eliminate(rows, j), reference_fm_eliminate(ref, j)
        assert _canonical_rows(rows) == ref


@settings(max_examples=200, deadline=None)
@given(small_systems())
def test_fm_eliminate_matches_fraction_reference(P):
    _assert_kernel_matches_reference(P)


def test_fm_eliminate_large_coefficients():
    big = 10 ** 12
    a = RationalVec.of(F(big + 39, big - 11), F(-7, big + 3), F(1, 3))
    b = RationalVec.of(F(-5, 2), F(big - 1, big + 61), F(-(big + 7), big))
    c = RationalVec.of(F(3, big + 9), F(-2), F(big + 1, 5))
    P = HPolyhedron.from_rows(
        [
            (a, F(big + 5, big - 3)),
            (b, F(-1, big + 13)),
            (c, F(7, 3)),
            # the same directions again, scaled, one tighter and one looser
            (a.scale(F(big - 17, 4)), F(big - 17, 4)),
            (b.scale(F(3, big + 1)), F(1, big)),
            (RationalVec.of(1, 1, 1), F(big + 1, big)),
            (RationalVec.of(-1, 0, -1), F(big - 3, big + 2)),
            (RationalVec.of(0, -1, 0), F(5, 1)),
            (RationalVec.zero(3), F(1, big)),
        ],
        3,
    )
    _assert_kernel_matches_reference(P)
    for j in range(3):
        ref = list(P.rows)
        for k in range(3):
            if k != j:
                ref = reference_fm_eliminate(ref, k)
        assert all(b >= 0 for n, b in ref if n.is_zero())
        hi = min((b / n[j] for n, b in ref if n[j] > 0), default=None)
        lo = max((b / n[j] for n, b in ref if n[j] < 0), default=None)
        assert coordinate_bounds(P, j) == (lo, hi)
