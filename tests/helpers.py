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
from math import gcd
from typing import Optional

from hypothesis import strategies as st

from liftgeo import HPolyhedron, RationalVec, SDescriptor, SFreeBody, body_from_facets


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
