"""Maximal S-free polyhedra in apex-normalized facet form.

A body is the pair (f, {a_i}) together with a descriptor of S, representing
B = {x : a_i (x - f) <= 1 for all i} with f in the interior of B.  The facet
scaling is canonical: every facet hyperplane satisfies a_i (x - f) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import (
    DimensionError,
    EmptySError,
    InvalidApexError,
    InvalidInputError,
    UnboundedInputError,
)
from .geom import (
    HPolyhedron,
    RationalVec,
    Row,
    RatLike,
    _rot90,
    irredundant,
    kernel_basis,
    linear_max,
    matrix_rank,
    primitive_direction,
    rat,
)
from .lattice import QuotientBasis, enumerate_lattice_points

DEFAULT_WINDOW = 10


@dataclass(frozen=True)
class SDescriptor:
    """S is the set of integer points of a rational polyhedron.

    Either all of Z^n (``all_integers``) or Z^n intersected with {x : Cx <= d}.
    In the polyhedral mode conv(S) must be full-dimensional.
    """

    c_rows: tuple[RationalVec, ...]
    d: tuple[Fraction, ...]
    all_integers: bool

    @classmethod
    def integers(cls) -> "SDescriptor":
        return cls((), (), True)

    @classmethod
    def polyhedral(
        cls,
        c_rows: Sequence[RationalVec],
        d: Sequence[RatLike],
        n: Optional[int] = None,
        window: int = DEFAULT_WINDOW,
    ) -> "SDescriptor":
        rows = tuple(c_rows)
        rhs = tuple(rat(v) for v in d)
        if len(rows) != len(rhs):
            raise InvalidInputError("C and d length mismatch")
        desc = cls(rows, rhs, False)
        if n is None:
            if not rows:
                raise InvalidInputError("polyhedral S needs at least one row or an explicit dimension")
            n = rows[0].dim
        desc.validate_full_dim(n, window)
        return desc

    def contains(self, x: RationalVec) -> bool:
        if not x.is_integral():
            return False
        return all(c.dot(x) <= b for c, b in zip(self.c_rows, self.d))

    def conv_rows(self, n: int) -> list[Row]:
        """H-rows of conv(S) (exactly the defining polyhedron's rows)."""
        if self.all_integers:
            return []
        return [(c, b) for c, b in zip(self.c_rows, self.d)]

    def validate_full_dim(self, n: int, window: int) -> None:
        """Find n+1 affinely independent members of S within the window box."""
        poly = HPolyhedron.from_rows(self.conv_rows(n), n)
        pts, _ = enumerate_lattice_points(poly, cap=window)
        if not pts:
            raise EmptySError("no integer point of S found within the window")
        base = pts[0]
        chosen: list[RationalVec] = []
        for p in pts[1:]:
            if matrix_rank(chosen + [p - base]) > len(chosen):
                chosen.append(p - base)
                if len(chosen) == n:
                    return
        raise InvalidInputError(
            f"conv(S) is not full-dimensional within window {window}"
        )


@dataclass(frozen=True)
class SFreeBody:
    """The canonical pair (f, {a_i}) plus an S-descriptor."""

    f: RationalVec
    facets: tuple[RationalVec, ...]
    s: SDescriptor

    @property
    def n(self) -> int:
        return self.f.dim

    def rows(self) -> list[Row]:
        """B as inequalities a_i . x <= 1 + a_i . f."""
        return [(a, Fraction(1) + a.dot(self.f)) for a in self.facets]

    def polyhedron(self) -> HPolyhedron:
        return HPolyhedron(tuple(self.rows()), self.n)

    def quotient(self) -> QuotientBasis:
        """Coordinates adapted to lin(B) intersect lin(conv(S))."""
        return _quotient_cached(self)


@lru_cache(maxsize=256)
def _quotient_cached(body: "SFreeBody") -> QuotientBasis:
    span = kernel_basis(list(body.facets) + list(body.s.c_rows), body.n)
    return QuotientBasis.from_subspace(span, body.n)


def body_from_facets(
    f: RationalVec, facets: Sequence[RationalVec], s: SDescriptor
) -> SFreeBody:
    """Construct a body, deduplicating facet rows that are positive multiples.

    Among positive multiples the tightest row (largest scale) is kept.
    """
    if not facets:
        raise InvalidInputError("facet list must be nonempty")
    n = f.dim
    for a in facets:
        if a.dim != n:
            raise DimensionError("facet dimension mismatch")
        if a.is_zero():
            raise InvalidInputError("zero facet normal")
    if s.contains(f):
        raise InvalidApexError(f"f = {f} is a point of S")
    groups: dict[tuple[Fraction, ...], RationalVec] = {}
    order: list[tuple[Fraction, ...]] = []
    for a in facets:
        d = primitive_direction(a)
        key = d.coords
        scale = next(c / dc for c, dc in zip(a.coords, d.coords) if dc != 0)
        if key not in groups:
            groups[key] = a
            order.append(key)
        else:
            prev = groups[key]
            prev_scale = next(c / dc for c, dc in zip(prev.coords, d.coords) if dc != 0)
            if scale > prev_scale:
                groups[key] = a
    return SFreeBody(f, tuple(groups[k] for k in order), s)


def body_from_vertices_2d(
    vertices: Sequence[RationalVec],
    rays: Sequence[RationalVec],
    f: RationalVec,
    s: SDescriptor,
) -> SFreeBody:
    """Inverse of the canonical form: conv(vertices) + cone(rays), facets
    normalized so that a_i (x - f) = 1 holds on each facet."""
    if f.dim != 2:
        raise DimensionError("body_from_vertices_2d requires dimension 2")
    if not vertices:
        raise InvalidInputError("need at least one vertex")
    verts = list(dict.fromkeys(v.coords for v in vertices))
    vs = [RationalVec(c) for c in verts]
    rs = [primitive_direction(r) for r in rays]
    candidates: list[Row] = []

    def add_line(p: RationalVec, direction: RationalVec) -> None:
        if direction.is_zero():
            return
        m = _rot90(direction)
        for normal in (m, m.scale(-1)):
            rhs = normal.dot(p)
            if all(normal.dot(v) <= rhs for v in vs) and all(normal.dot(r) <= 0 for r in rs):
                candidates.append((normal, rhs))

    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            add_line(vs[i], vs[j] - vs[i])
        for r in rs:
            add_line(vs[i], r)
    P = irredundant(HPolyhedron.from_rows(candidates, 2))
    if not P.rows or not P.contains_strict(f):
        raise InvalidApexError("f is not strictly inside the polyhedron")
    a_list = []
    for normal, rhs in P.rows:
        gap = rhs - normal.dot(f)
        a_list.append(normal.scale(Fraction(1) / gap))
    return body_from_facets(f, a_list, s)


@dataclass(frozen=True)
class MaximalityReport:
    """Outcome of the maximal-S-free verification.

    ``is_s_free`` is False only when an interior violator was found;
    searches that exhausted the window are reported as inconclusive,
    never coerced to a False verdict.
    """

    is_s_free: bool
    s_free_inconclusive: bool
    interior_violator: Optional[RationalVec]
    facet_witnesses: tuple[Optional[RationalVec], ...]
    inconclusive_facets: tuple[int, ...]
    redundant_facets: tuple[int, ...]
    window: int

    @property
    def is_maximal(self) -> bool:
        return (
            self.is_s_free
            and not self.s_free_inconclusive
            and all(w is not None for w in self.facet_witnesses)
        )

    @property
    def verdict(self) -> str:
        if self.interior_violator is not None:
            return "not_maximal"
        missing = [
            i
            for i, w in enumerate(self.facet_witnesses)
            if w is None and i not in self.inconclusive_facets
        ]
        if missing:
            return "not_maximal"
        if self.s_free_inconclusive or self.inconclusive_facets:
            return "inconclusive"
        return "maximal"


def verify_maximal_sfree(body: SFreeBody, window: int = DEFAULT_WINDOW) -> MaximalityReport:
    """Exact maximality check: S-freeness plus a point of S in the relative
    interior of every facet, searched over the lattice box ``window`` in
    quotient coordinates."""
    n = body.n
    quot = body.quotient()
    brows = body.rows()
    srows = body.s.conv_rows(n)

    # redundant rows never support a facet
    redundant = []
    for i in range(len(brows)):
        others = brows[:i] + brows[i + 1 :]
        status, val = linear_max(HPolyhedron(tuple(others), n), brows[i][0])
        if status == "bounded" and val <= brows[i][1]:
            redundant.append(i)

    def enumerate_reps(extra: list[Row]) -> tuple[list[RationalVec], bool]:
        poly = HPolyhedron(tuple(brows + srows + extra), n)
        reduced = quot.quotient_poly(poly)
        zs, truncated = enumerate_lattice_points(reduced, cap=window)
        return [quot.lift_quotient_point(z) for z in zs], truncated

    candidates, s_truncated = enumerate_reps([])
    violator = None
    for x in candidates:
        if all(a.dot(x - body.f) < 1 for a in body.facets):
            violator = x
            break
    is_s_free = violator is None
    s_inconclusive = is_s_free and s_truncated

    witnesses: list[Optional[RationalVec]] = []
    inconclusive: list[int] = []
    for i, a in enumerate(body.facets):
        rhs = Fraction(1) + a.dot(body.f)
        on_facet, truncated = enumerate_reps([(a.scale(-1), -rhs)])
        found = None
        for x in sorted(on_facet, key=lambda p: p.coords):
            if all(
                body.facets[j].dot(x - body.f) < 1
                for j in range(len(body.facets))
                if j != i
            ):
                found = x
                break
        witnesses.append(found)
        if found is None and truncated:
            inconclusive.append(i)
    return MaximalityReport(
        is_s_free=is_s_free,
        s_free_inconclusive=s_inconclusive,
        interior_violator=violator,
        facet_witnesses=tuple(witnesses),
        inconclusive_facets=tuple(inconclusive),
        redundant_facets=tuple(redundant),
        window=window,
    )


def lattice_points_in_body(body: SFreeBody) -> list[RationalVec]:
    """One representative per class of S intersect B modulo Z^n cap lin(B)
    (lin(conv S) for general S), in lexicographic order.

    Representatives are canonical: their leading quotient coordinates vanish.
    """
    n = body.n
    quot = body.quotient()
    poly = HPolyhedron(tuple(body.rows() + body.s.conv_rows(n)), n)
    reduced = quot.quotient_poly(poly)
    try:
        zs, _ = enumerate_lattice_points(reduced, cap=None)
    except UnboundedInputError as exc:
        raise UnboundedInputError(
            "S cap B is unbounded modulo the lineality lattice; "
            "is the body S-free?"
        ) from exc
    reps = [quot.lift_quotient_point(z) for z in zs]
    reps.sort(key=lambda p: p.coords)
    return reps
