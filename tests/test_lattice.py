import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftgeo import HPolyhedron, RationalVec
from liftgeo.errors import UnboundedInputError
from liftgeo.lattice import (
    QuotientBasis,
    _mat_inverse_int,
    enumerate_lattice_points,
    extend_to_unimodular,
    integer_kernel_basis,
    lattice_basis_of_subspace,
)

from helpers import small_systems


def test_integer_kernel():
    assert integer_kernel_basis([[1, 1, 0], [0, 1, 1]], 3) == [[1, -1, 1]]
    assert integer_kernel_basis([[1, 0], [0, 1]], 2) == []
    assert integer_kernel_basis([], 2) == [[1, 0], [0, 1]]


def test_extend_to_unimodular():
    for cols in ([[2, 1, 0]], [[1, 0], [0, 1]], [[3, 2]], [[1, 1, 1], [0, 1, 2]]):
        n = len(cols[0])
        W = extend_to_unimodular(cols, n)
        for j, col in enumerate(cols):
            assert [W[i][j] for i in range(n)] == col
        _mat_inverse_int(W)  # raises unless unimodular


def test_lattice_basis_of_subspace():
    basis = lattice_basis_of_subspace([RationalVec.of(0, 1)], 2)
    assert basis == [[0, 1]]
    # span of (1/2, 1/2): lattice Z^2 cap span = Z(1,1)
    basis = lattice_basis_of_subspace([RationalVec.of(F(1, 2), F(1, 2))], 2)
    assert [[abs(x) for x in b] for b in basis] == [[1, 1]]
    assert lattice_basis_of_subspace([], 2) == []


def test_quotient_roundtrip():
    qb = QuotientBasis.from_subspace([RationalVec.of(0, 1)], 2)
    assert qb.k == 1
    p = RationalVec.of(F(3, 2), 7)
    assert qb.to_x(qb.to_y(p)).coords == p.coords
    # canonical representative of an integral point has zero leading part
    rep = qb.canonical_representative(RationalVec.of(3, 5))
    assert qb.to_y(rep)[0] == 0
    diff = RationalVec.of(3, 5) - rep
    assert qb.to_y(diff)[1] == 0  # difference lies in the sublattice


def test_quotient_poly_strip():
    strip = HPolyhedron.from_rows(
        [(RationalVec.of(-1, 0), 0), (RationalVec.of(1, 0), F(1, 2))], 2
    )
    qb = QuotientBasis.from_subspace([RationalVec.of(0, 1)], 2)
    reduced = qb.quotient_poly(strip)
    assert reduced.dim == 1
    pts, truncated = enumerate_lattice_points(reduced)
    assert [p.coords for p in pts] == [(0,)]
    assert not truncated


def test_quotient_poly_rejects_noninvariant():
    box = HPolyhedron.from_rows(
        [(RationalVec.of(0, 1), 1), (RationalVec.of(0, -1), 0)], 2
    )
    qb = QuotientBasis.from_subspace([RationalVec.of(0, 1)], 2)
    with pytest.raises(ValueError):
        qb.quotient_poly(box)


def test_enumerate_triangle():
    tri = HPolyhedron.from_rows(
        [(RationalVec.of(-1, 0), 0), (RationalVec.of(0, -1), 0), (RationalVec.of(1, 1), 2)], 2
    )
    pts, truncated = enumerate_lattice_points(tri)
    assert not truncated
    assert [p.coords for p in pts] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
    ]


def test_enumerate_unbounded():
    half = HPolyhedron.from_rows([(RationalVec.of(-1, 0), 0)], 2)
    with pytest.raises(UnboundedInputError):
        enumerate_lattice_points(half)
    pts, truncated = enumerate_lattice_points(half, cap=1)
    assert truncated
    assert len(pts) == 2 * 3  # x1 in {0, 1}, x2 in {-1, 0, 1}


def test_enumerate_empty():
    empty = HPolyhedron.canonical_empty(2)
    pts, truncated = enumerate_lattice_points(empty)
    assert pts == [] and not truncated


def _box_scan(P, radius):
    """Integer points of P in [-radius, radius]^dim, lexicographically."""
    return [
        x for x in itertools.product(range(-radius, radius + 1), repeat=P.dim)
        if all(n.dot(RationalVec.from_seq(x)) <= b for n, b in P.rows)
    ]


@settings(max_examples=120, deadline=None)
@given(small_systems(), st.integers(0, 3))
def test_enumerate_matches_box_scan(P, cap):
    pts, truncated = enumerate_lattice_points(P, cap=cap)
    assert [p.coords for p in pts] == _box_scan(P, cap)
    if not truncated:
        # nothing was clamped, so no integer point of P lies outside the cap box
        assert _box_scan(P, cap + 3) == _box_scan(P, cap)


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.integers(0, 3))
def test_enumerate_bounded_without_cap(P, radius):
    box = [
        (RationalVec.from_seq(F(s if k == i else 0) for k in range(P.dim)), radius)
        for i in range(P.dim) for s in (1, -1)
    ]
    Q = HPolyhedron.from_rows(list(P.rows) + box, P.dim)
    pts, truncated = enumerate_lattice_points(Q)
    assert not truncated
    assert [p.coords for p in pts] == _box_scan(Q, radius)
