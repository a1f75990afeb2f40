"""Shared helpers for the test suite.

The grid oracle here is the independent check for the lifting coefficient:
it evaluates the defining supremum directly over an explicit box of integer
points and multiplicities, with integer-scaled exact arithmetic, sharing no
code path with the production search.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from hypothesis import strategies as st

from liftgeo import (
    HPolyhedron,
    RationalVec,
    SDescriptor,
    SFreeBody,
    body_from_facets,
    l_psi,
    lattice_points_in_body,
    poly_equal,
    region_of_point,
)


def make_split() -> SFreeBody:
    return body_from_facets(
        RationalVec.of("1/2", "0"),
        [RationalVec.of(2, 0), RationalVec.of(-2, 0)],
        SDescriptor.integers(),
    )


def make_triangle() -> SFreeBody:
    return body_from_facets(
        RationalVec.of("1/2", "1/2"),
        [RationalVec.of(-2, 0), RationalVec.of(0, -2), RationalVec.of(1, 1)],
        SDescriptor.integers(),
    )


def make_triangle_type2() -> SFreeBody:
    return body_from_facets(
        RationalVec.of("1/2", "1/2"),
        [RationalVec.of(0, -2), RationalVec.of(-1, 1), RationalVec.of(1, 1)],
        SDescriptor.integers(),
    )


def make_triangle_generic() -> SFreeBody:
    return body_from_facets(
        RationalVec.of("1/4", "1/4"),
        [
            RationalVec.of("8/5", "4/5"),
            RationalVec.of("-4/7", "8/7"),
            RationalVec.of("-4/3", "-8/3"),
        ],
        SDescriptor.integers(),
    )


def make_quadrilateral() -> SFreeBody:
    return body_from_facets(
        RationalVec.of("1/2", "1/2"),
        [
            RationalVec.of(1, 1),
            RationalVec.of(1, -1),
            RationalVec.of(-1, 1),
            RationalVec.of(-1, -1),
        ],
        SDescriptor.integers(),
    )


def make_wedge() -> SFreeBody:
    s = SDescriptor.polyhedral([RationalVec.of(-1, 0)], [0])
    return body_from_facets(
        RationalVec.of("0", "1/2"),
        [RationalVec.of("4/3", "2"), RationalVec.of("4/3", "-2")],
        s,
    )


def make_band_split() -> SFreeBody:
    """The split 0 <= x1 <= 1 for S = Z^2 cap {0 <= x2 <= 3}: maximal
    S-free with 8 lattice representatives that give only 2 regions."""
    s = SDescriptor.polyhedral([RationalVec.of(0, -1), RationalVec.of(0, 1)], [0, 3])
    return body_from_facets(
        RationalVec.of("1/2", "1"), [RationalVec.of(2, 0), RationalVec.of(-2, 0)], s
    )


def make_wedge_family(s: Fraction, f2: Fraction) -> SFreeBody:
    """The wedge s x1 - x2 <= 0, s x1 + x2 <= 1 (s > 0) with apex (0, f2),
    0 < f2 < 1, for S = Z^2 cap {x1 >= 0}; maximal S-free, with (0, 0) and
    (0, 1) on its facets."""
    f = RationalVec.of(0, f2)
    rows = [(RationalVec.of(s, -1), Fraction(0)), (RationalVec.of(s, 1), Fraction(1))]
    facets = [a.scale(1 / (b - a.dot(f))) for a, b in rows]
    return body_from_facets(f, facets, SDescriptor.polyhedral([RationalVec.of(-1, 0)], [0]))


def pairwise_region_pieces(body: SFreeBody) -> tuple:
    """Reference complex: R(x) over the lattice representatives, keeping
    the first of every set of exactly equal regions (pairwise poly_equal),
    ordered by source point."""
    pieces: list = []
    for x in lattice_points_in_body(body):
        poly = region_of_point(body, x)
        if not any(poly_equal(poly, q) for _, q in pieces):
            pieces.append((x, poly))
    pieces.sort(key=lambda it: it[0].coords)
    return tuple(pieces), tuple(l_psi(body))


def zn_catalog() -> list[tuple[str, SFreeBody]]:
    return [
        ("split", make_split()),
        ("triangle_integer_vertices", make_triangle()),
        ("triangle_type2", make_triangle_type2()),
        ("triangle_generic", make_triangle_generic()),
        ("quadrilateral_generic", make_quadrilateral()),
    ]


def full_catalog() -> list[tuple[str, SFreeBody]]:
    return zn_catalog() + [("wedge_generalS", make_wedge())]


def random_ray(rng: random.Random, max_den: int = 8, spread: int = 3) -> RationalVec:
    def coord() -> Fraction:
        den = rng.randint(1, max_den)
        return Fraction(rng.randint(-spread * den, spread * den), den)

    return RationalVec.of(coord(), coord())


def oracle_pi_star_grid(
    body: SFreeBody, r: RationalVec, window: int = 10, t_max: int = 20
) -> tuple[Optional[Fraction], Optional[tuple[RationalVec, int]]]:
    """max over the grid of (1 - psi(x - f - t r)) / t, computed by direct
    evaluation of the defining formula with integer-scaled arithmetic."""
    facets = body.facets
    af = [a.dot(body.f) for a in facets]
    ar = [a.dot(r) for a in facets]
    den = 1
    for v in itertools.chain(af, ar):
        den = den * v.denominator // gcd(den, v.denominator)
    for a in facets:
        for c in a.coords:
            den = den * c.denominator // gcd(den, c.denominator)
    af_i = [int(v * den) for v in af]
    ar_i = [int(v * den) for v in ar]
    a_int = [[int(c * den) for c in a.coords] for a in facets]
    pts = []
    for coords in itertools.product(range(-window, window + 1), repeat=body.n):
        x = RationalVec.from_seq(coords)
        if body.s.contains(x):
            ax = [sum(ai * xi for ai, xi in zip(row, coords)) for row in a_int]
            pts.append((x, ax))
    best_num, best_den = None, None
    best_arg = None
    for t in range(1, t_max + 1):
        for x, ax in pts:
            m = max(axi - afi - t * ari for axi, afi, ari in zip(ax, af_i, ar_i))
            num, d = den - m, den * t
            if best_num is None or num * best_den > best_num * d:
                best_num, best_den = num, d
                best_arg = (x, t)
    if best_num is None:
        return None, None
    return Fraction(best_num, best_den), best_arg


def _reference_canonical_row(normal: RationalVec, rhs: Fraction) -> tuple:
    """Scale a row by a positive rational so the normal is primitive
    integral; a zero normal gets rhs in {-1, 0, 1}."""
    if normal.is_zero():
        return normal, Fraction((rhs > 0) - (rhs < 0))
    den = lcm(*(c.denominator for c in normal.coords))
    s = Fraction(den, gcd(*(int(c * den) for c in normal.coords)))
    return normal.scale(s), rhs * s


def reference_fm_eliminate(rows, j: int) -> list:
    """Fourier-Motzkin elimination of x_j over ``Fraction`` rows
    ``(RationalVec, Fraction)``: the zero-coefficient rows, then every
    pos x neg combination, canonicalized, keeping per normal direction the
    first position and the tightest rhs."""
    pos = [(n, b) for n, b in rows if n[j] > 0]
    neg = [(n, b) for n, b in rows if n[j] < 0]
    out = [(n, b) for n, b in rows if n[j] == 0]
    for np_, bp in pos:
        for nn, bn in neg:
            lam_p, lam_n = -nn[j], np_[j]
            out.append((np_.scale(lam_p) + nn.scale(lam_n), lam_p * bp + lam_n * bn))
    best: dict = {}
    for normal, rhs in out:
        n, b = _reference_canonical_row(normal, rhs)
        if n.coords not in best or b < best[n.coords]:
            best[n.coords] = b
    return [(RationalVec(k), b) for k, b in best.items()]


@st.composite
def small_systems(draw) -> HPolyhedron:
    """Random systems of 1 to 5 rows in dimension 1 to 3, with integer
    normals in [-3, 3] (zero normals included) and right-hand sides p/q
    with |p| <= 6 and q <= 3."""
    dim = draw(st.integers(1, 3))
    coef = st.integers(-3, 3)
    rhs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    items = draw(st.lists(st.tuples(st.tuples(*[coef] * dim), rhs), min_size=1, max_size=5))
    return HPolyhedron.from_rows([(RationalVec.from_seq(n), b) for n, b in items], dim)
