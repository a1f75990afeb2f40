"""Unique-lifting decision via lattice covering of the lifting region.

For S = Z^n the minimal lifting is unique exactly when the region complex
tiles space under integer translates.  The decision reduces every
full-dimensional piece into the unit cell and compares the exact union
measure with 1; since translated complexes are closed, a deficit always
comes with an open uncovered set, so the equality test needs no tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Optional, Sequence

from .bodies import SFreeBody
from .errors import (
    DimensionError,
    InconclusiveSearchError,
    InvalidInputError,
    UnboundedInputError,
    UnsupportedSError,
)
from .gauge import psi_value
from .geom import (
    HPolyhedron,
    RationalVec,
    _cross,
    _sort_ccw,
    affine_dim,
    coordinate_bounds,
    polygon_intersection_2d,
    polygon_area_2d,
    vertices_2d,
)
from .lattice import QuotientBasis, enumerate_lattice_points
from .lifting import _sublevel_points, pi_star
from .regions import RegionComplex


@dataclass(frozen=True)
class Fragment:
    """A cell-clipped translate of a region piece, in quotient coordinates."""

    poly: HPolyhedron
    shift: RationalVec      # the integer translate applied (quotient coords)
    piece_index: int


@dataclass(frozen=True)
class CoverageReport:
    verdict: str                                   # "unique" | "not_unique"
    covered_fraction: Fraction
    uncovered_witness: Optional[RationalVec]       # point of R^n outside R_psi + Z^n
    boundary_point: Optional[RationalVec]          # point of R_psi on the closure of the gap
    violation: Optional[tuple[RationalVec, RationalVec, Fraction]]
    mode: str                                      # "trivial" | "circle" | "torus"
    fragments: tuple[Fragment, ...]


# ---------------------------------------------------------------------------
# Exact union area of convex polygons (vertical sweep decomposition)
# ---------------------------------------------------------------------------


def _polygon_vertices(P: HPolyhedron) -> list[RationalVec]:
    verts, rays, lin = vertices_2d(P)
    if rays or lin:
        raise UnboundedInputError("sweep requires bounded fragments")
    return _sort_ccw(verts)


def _segment_crossing_xs(edges: list[tuple[RationalVec, RationalVec]]) -> set[Fraction]:
    """x-coordinates of all pairwise segment intersections (inclusive)."""
    out: set[Fraction] = set()
    for (p1, q1), (p2, q2) in itertools.combinations(edges, 2):
        d1, d2 = q1 - p1, q2 - p2
        det = _cross(d1, d2)
        if det == 0:
            continue
        rv = p2 - p1
        s = _cross(rv, d2) / det
        u = _cross(rv, d1) / det
        if 0 <= s <= 1 and 0 <= u <= 1:
            out.add(p1[0] + s * d1[0])
    return out


def _union_sweep(polys: Sequence[HPolyhedron]) -> tuple[Fraction, Optional[RationalVec]]:
    """Exact union area of bounded convex polygons, and the first point of
    the unit square that polygons inside it leave uncovered (None if none).

    The slabs are cut at 0, 1, every vertex and every edge crossing, so no
    edges cross inside a slab and each polygon spans an interval of y that
    varies linearly in x.  The uncovered point is the midpoint of the first
    gap between merged spans, on the midline of the first slab that has one.
    """
    shapes: list[list[RationalVec]] = []
    for P in polys:
        vs = _polygon_vertices(P)
        if len(vs) >= 3:
            shapes.append(vs)
    edges: list[tuple[RationalVec, RationalVec]] = []
    xs: set[Fraction] = {Fraction(0), Fraction(1)}
    for vs in shapes:
        for i, p in enumerate(vs):
            q = vs[(i + 1) % len(vs)]
            edges.append((p, q))
            xs.add(p[0])
    xs |= _segment_crossing_xs(edges)
    cuts = sorted(xs)
    total = Fraction(0)
    gap: Optional[RationalVec] = None
    for x0, x1 in zip(cuts, cuts[1:]):
        xm = (x0 + x1) / 2
        items = []
        for vs in shapes:
            spans = []
            for i, p in enumerate(vs):
                q = vs[(i + 1) % len(vs)]
                if p[0] == q[0]:
                    continue
                lo, hi = (p, q) if p[0] < q[0] else (q, p)
                if lo[0] <= x0 and hi[0] >= x1:
                    def y_at(x, a=lo, b=hi):
                        return a[1] + (b[1] - a[1]) * (x - a[0]) / (b[0] - a[0])
                    spans.append((y_at(xm), y_at(x0), y_at(x1)))
            if not spans:
                continue
            items.append((min(spans), max(spans)))
        items.sort(key=lambda it: (it[0][0], it[1][0]))
        merged: list[tuple[tuple, tuple]] = []
        for bot, top in items:
            if merged and bot[0] <= merged[-1][1][0]:
                if top[0] > merged[-1][1][0]:
                    merged[-1] = (merged[-1][0], top)
            else:
                merged.append((bot, top))
        for bot, top in merged:
            total += (x1 - x0) * ((top[1] - bot[1]) + (top[2] - bot[2])) / 2
        if gap is None and 0 <= x0 and x1 <= 1:
            # candidate gaps at xm: (0, b1), (t1, b2), ..., (tk, 1)
            ends = [Fraction(0)] + [end[0] for span in merged for end in span] + [Fraction(1)]
            for lo_y, hi_y in zip(ends[::2], ends[1::2]):
                if lo_y < hi_y:
                    gap = RationalVec.of(xm, (lo_y + hi_y) / 2)
                    break
    return total, gap


def union_area_sweep(polys: Sequence[HPolyhedron]) -> Fraction:
    """Exact area of the union of bounded convex polygons."""
    return _union_sweep(polys)[0]


def union_area_inclusion_exclusion(polys: Sequence[HPolyhedron]) -> Fraction:
    """Independent union area by full inclusion-exclusion with empty pruning."""
    polys = [P for P in polys if affine_dim(P) == 2]
    total = Fraction(0)

    def rec(start: int, current: Optional[HPolyhedron], sign: int) -> None:
        nonlocal total
        for j in range(start, len(polys)):
            inter = polys[j] if current is None else polygon_intersection_2d(current, polys[j])
            if affine_dim(inter) < 2:
                continue
            total += sign * polygon_area_2d(inter)
            rec(j + 1, inter, -sign)

    rec(0, None, 1)
    return total


# ---------------------------------------------------------------------------
# Cell reduction
# ---------------------------------------------------------------------------


def _unit_cell(m: int) -> HPolyhedron:
    rows = []
    for i in range(m):
        rows.append((RationalVec.unit(m, i).scale(-1), Fraction(0)))
        rows.append((RationalVec.unit(m, i), Fraction(1)))
    return HPolyhedron(tuple(rows), m)


def _torus_fragments(reduced: list[tuple[int, HPolyhedron]]) -> list[Fragment]:
    cell = _unit_cell(2)
    frags: list[Fragment] = []
    for idx, qp in reduced:
        if affine_dim(qp) < 2:
            continue
        verts, rays, lin = vertices_2d(qp)
        if rays or lin:
            raise UnboundedInputError("full-dimensional piece is unbounded in the quotient")
        min_x = min(v[0] for v in verts)
        max_x = max(v[0] for v in verts)
        min_y = min(v[1] for v in verts)
        max_y = max(v[1] for v in verts)
        for wx in range(ceil(-max_x), floor(1 - min_x) + 1):
            for wy in range(ceil(-max_y), floor(1 - min_y) + 1):
                w = RationalVec.of(wx, wy)
                clipped = polygon_intersection_2d(qp.translate(w), cell)
                if affine_dim(clipped) == 2:
                    frags.append(Fragment(clipped, w, idx))
    return frags


def _circle_fragments(reduced: list[tuple[int, HPolyhedron]]) -> tuple[list[tuple[Fraction, Fraction, int, Fraction]], bool]:
    """1-D reduction: fragments are closed subintervals of [0,1].

    Returns (fragments, full) where full means some piece wraps the circle.
    """
    frags: list[tuple[Fraction, Fraction, int, Fraction]] = []
    for idx, qp in reduced:
        bounds = coordinate_bounds(qp, 0)
        if bounds is None:
            continue
        lo, hi = bounds
        if lo is None or hi is None:
            raise UnboundedInputError("piece is unbounded in the quotient")
        if hi - lo >= 1:
            return [], True
        if hi == lo:
            continue
        s = floor(lo)
        a, b = lo - s, hi - s
        if b <= 1:
            frags.append((a, b, idx, Fraction(s)))
        else:
            frags.append((a, Fraction(1), idx, Fraction(s)))
            frags.append((Fraction(0), b - 1, idx, Fraction(s + 1)))
    return frags, False


def covering_decision(regions: RegionComplex) -> CoverageReport:
    """Decide whether the complex plus integer translates covers space.

    Supports n <= 2; the lineality of the complex is quotiented away first
    (2-dimensional lineality is trivially covering, 1-dimensional reduces to
    covering a circle, pointed complexes to covering a torus).
    """
    n = regions.n
    if n > 2:
        raise DimensionError("covering decision implemented for n <= 2 only")
    k = len(regions.lineality)
    if k == n:
        return CoverageReport("unique", Fraction(1), None, None, None, "trivial", ())
    quot = QuotientBasis.from_subspace(list(regions.lineality), n)
    reduced = [(i, quot.quotient_poly(poly)) for i, (_, poly) in enumerate(regions.pieces)]
    m = n - k
    if m == 1:
        frags, full = _circle_fragments(reduced)
        if full:
            return CoverageReport("unique", Fraction(1), None, None, None, "circle", ())
        merged: list[tuple[Fraction, Fraction]] = []
        for a, b, _, _ in sorted(frags):
            if merged and a <= merged[-1][1]:
                if b > merged[-1][1]:
                    merged[-1] = (merged[-1][0], b)
            else:
                merged.append((a, b))
        length = sum((b - a for a, b in merged), Fraction(0))
        if length == 1:
            return CoverageReport("unique", Fraction(1), None, None, None, "circle", ())
        # locate a gap; its covered endpoint is always a fragment endpoint
        gap_mid: Optional[Fraction] = None
        boundary_cell: Optional[Fraction] = None
        cursor = Fraction(0)
        for a, b in merged:
            if a > cursor:
                gap_mid = (cursor + a) / 2
                boundary_cell = a
                break
            cursor = max(cursor, b)
        if gap_mid is None:
            gap_mid = (cursor + 1) / 2
            boundary_cell = cursor
        witness = quot.lift_quotient_point(RationalVec.of(gap_mid))
        boundary = None
        for a, b, idx, s in frags:
            if a == boundary_cell or b == boundary_cell:
                boundary = quot.lift_quotient_point(RationalVec.of(boundary_cell + s))
                break
        frag_objs = tuple(
            Fragment(
                HPolyhedron.from_rows(
                    [(RationalVec.of(-1), -a), (RationalVec.of(1), b)], 1
                ),
                RationalVec.of(-s),
                idx,
            )
            for a, b, idx, s in frags
        )
        return CoverageReport("not_unique", length, witness, boundary, None, "circle", frag_objs)
    # m == 2 torus case
    frags = _torus_fragments(reduced)
    area, witness_cell = _union_sweep([f.poly for f in frags])
    if area == 1:
        return CoverageReport("unique", Fraction(1), None, None, None, "torus", tuple(frags))
    if witness_cell is None:
        raise InvalidInputError("no uncovered point found although area < 1")
    boundary_cell, frag_at = _boundary_cell_point(frags, witness_cell)
    witness = quot.lift_quotient_point(witness_cell)
    boundary = quot.lift_quotient_point(boundary_cell - frag_at.shift)
    return CoverageReport(
        "not_unique", area, witness, boundary, None, "torus", tuple(frags)
    )


def _boundary_cell_point(
    frags: list[Fragment], p: RationalVec
) -> tuple[RationalVec, Fragment]:
    """Walk from a covered point toward p; return the last covered point on
    the segment and a fragment containing it."""
    start: Optional[RationalVec] = None
    for f in frags:
        vs = _polygon_vertices(f.poly)
        if len(vs) >= 3:
            k = Fraction(1, len(vs))
            start = RationalVec.of(
                sum((v[0] for v in vs), Fraction(0)) * k,
                sum((v[1] for v in vs), Fraction(0)) * k,
            )
            break
    if start is None:
        raise InvalidInputError("no full-dimensional fragment to anchor the walk")
    d = p - start
    intervals: list[tuple[Fraction, Fraction]] = []
    for f in frags:
        lo, hi = Fraction(0), Fraction(1)
        ok = True
        for normal, rhs in f.poly.rows:
            a = normal.dot(d)
            b = rhs - normal.dot(start)
            if a == 0:
                if b < 0:
                    ok = False
                    break
            elif a > 0:
                hi = min(hi, b / a)
            else:
                lo = max(lo, b / a)
        if ok and lo <= hi:
            intervals.append((lo, hi))
    intervals.sort()
    cur_end: Optional[Fraction] = None
    for lo, hi in intervals:
        if lo == 0 and cur_end is None:
            cur_end = hi
        elif cur_end is not None and lo <= cur_end:
            cur_end = max(cur_end, hi)
    if cur_end is None:
        raise InvalidInputError("anchor point is not covered; inconsistent fragments")
    z = start + d.scale(cur_end)
    for f in frags:
        if f.poly.contains(z):
            return z, f
    raise InvalidInputError("boundary point lost between fragments")


def boundary_point(regions: RegionComplex, report: CoverageReport) -> RationalVec:
    """The stored point of the region complex on the closure of the gap."""
    if report.verdict != "not_unique":
        raise InvalidInputError("boundary point exists only for non-covering complexes")
    if report.boundary_point is None:
        raise InvalidInputError("report carries no boundary point")
    return report.boundary_point


def covered_point(regions: RegionComplex, p: RationalVec) -> Optional[tuple[RationalVec, RationalVec]]:
    """Is p in (union of pieces) + Z^n?  Returns (piece source, translate w).

    The translate search is complete because piece quotients are bounded.
    """
    n = regions.n
    quot = QuotientBasis.from_subspace(list(regions.lineality), n)
    if quot.k == n:
        x0, _ = regions.pieces[0]
        return x0, RationalVec.zero(n)
    p_proj = quot.project_point(p)
    m = n - quot.k
    for x, poly in regions.pieces:
        reduced = quot.quotient_poly(poly)
        rows = [(normal.scale(-1), rhs - normal.dot(p_proj)) for normal, rhs in reduced.rows]
        zs, _ = enumerate_lattice_points(HPolyhedron(tuple(rows), m), cap=None)
        for z in zs:
            w = quot.lift_quotient_point(z)
            if poly.contains(p - w):
                return x, w
    return None


def minimal_lifting_eval(
    body: SFreeBody, regions: RegionComplex, r: RationalVec
) -> Optional[Fraction]:
    """psi(r - w) for an integer translate w with r - w in the lifting
    region; None signals that r is not covered."""
    if not body.s.all_integers:
        raise UnsupportedSError("region translation evaluation requires S = Z^n")
    hit = covered_point(regions, r)
    if hit is None:
        return None
    return psi_value(body, r - hit[1])


def non_uniqueness_witness(
    body: SFreeBody,
    regions: RegionComplex,
    report: CoverageReport,
    depth: int = 6,
) -> tuple[RationalVec, RationalVec, Fraction]:
    """A pair certifying that the pointwise-smallest coefficient function is
    not itself a lifting: a point p outside the translated complex and an
    integer point xbar with pi*(p) + pi*(xbar - f - p) < 1 exactly.

    Samples dyadic points near the stored boundary point first; search
    exhaustion raises rather than implying anything about uniqueness.
    """
    if report.verdict != "not_unique":
        raise InvalidInputError("witness search requires a non-covering complex")
    candidates: list[RationalVec] = []
    if report.uncovered_witness is not None:
        candidates.append(report.uncovered_witness)
    rbar = report.boundary_point
    if rbar is not None:
        for d in range(1, depth + 1):
            step = Fraction(1, 2 ** d)
            offs = sorted(
                itertools.product(range(-2, 3), repeat=body.n),
                key=lambda o: (sum(abs(c) for c in o), o),
            )
            for off in offs:
                if all(c == 0 for c in off):
                    continue
                candidates.append(rbar + RationalVec.from_seq(off).scale(step))
    seen = set()
    for p in candidates:
        if p.coords in seen:
            continue
        seen.add(p.coords)
        if covered_point(regions, p) is not None:
            continue
        pi_p = pi_star(body, p).value
        shift = body.f + p
        for xbar in _sublevel_points(body, shift, 1 - pi_p):
            lhs = pi_p + pi_star(body, xbar - body.f - p).value
            if lhs < 1:
                return p, xbar, lhs
    raise InconclusiveSearchError(
        "no violating pair found in the sampled uncovered points"
    )


def origin_interior_radius(regions: RegionComplex, max_halvings: int = 12) -> Fraction:
    """An exact rational rho with the box [-rho, rho]^2 inside the complex."""
    if regions.n != 2:
        raise DimensionError("radius exhibit implemented for n = 2")
    rho = Fraction(1, 2)
    for _ in range(max_halvings):
        box_rows = [
            (RationalVec.of(1, 0), rho),
            (RationalVec.of(-1, 0), rho),
            (RationalVec.of(0, 1), rho),
            (RationalVec.of(0, -1), rho),
        ]
        box = HPolyhedron.from_rows(box_rows, 2)
        clipped = []
        for _, poly in regions.pieces:
            inter = polygon_intersection_2d(poly, box)
            if affine_dim(inter) == 2:
                clipped.append(inter)
        if clipped and union_area_sweep(clipped) == 4 * rho * rho:
            return rho
        rho /= 2
    raise InconclusiveSearchError("no certified interior box found")
