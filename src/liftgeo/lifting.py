"""Minimal lifting coefficients for a single integer variable.

The coefficient of a ray r is the smallest lambda making

    sum_r psi(r) s_r + lambda * y >= 1

valid when y ranges over nonnegative integers.  Validity reduces exactly to

    psi(x - f - t r) + lambda t >= 1   for all x in S and integers t >= 1,

because the cheapest continuous part reaching a displacement d costs exactly
psi(d) (sublinearity: a single ray at d is optimal).  The coefficient is then
the supremum of (1 - psi(x - f - t r)) / t over that family, certified by a
blocking point of the lifted body.

For S = Z^n the search is finite without any heuristics: with q the common
denominator of r, candidates repeat across t mod q (x shifts by an integer
vector), a value-0 candidate exists at t = q because the body carries a
boundary lattice point, and only t <= q can beat it.  For general S a
recession-direction candidate is computed by exact LP and the finite scan is
certified through the convex parametric value function when possible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from operator import mul
from typing import Optional

from .bodies import SFreeBody, lattice_points_in_body
from .errors import (
    DimensionError,
    InvalidInputError,
    UnsupportedSError,
)
from .gauge import psi_value
from .geom import HPolyhedron, RationalVec, Row, _fix_leading, coordinate_bounds, linear_max
from .lattice import enumerate_lattice_points

DEFAULT_ORACLE_WINDOW = 10
DEFAULT_ORACLE_TMAX = 20


@dataclass(frozen=True)
class LiftedBody:
    """The (n+1)-dimensional body whose S x Z_+ freeness characterizes
    validity of the coefficient lambda for ray r_star."""

    base: SFreeBody
    r_star: RationalVec
    lam: Fraction

    def rows(self) -> list[Row]:
        n = self.base.n
        out = []
        for a in self.base.facets:
            normal = RationalVec(tuple(a.coords) + (self.lam - a.dot(self.r_star),))
            out.append((normal, Fraction(1) + a.dot(self.base.f)))
        return out

    def polyhedron(self) -> HPolyhedron:
        return HPolyhedron(tuple(self.rows()), self.base.n + 1)

    def slice_at_zero(self) -> HPolyhedron:
        """The x_{n+1} = 0 slice, as an H-system over the base space."""
        rows = [
            (RationalVec(tuple(normal.coords[:-1])), rhs)
            for normal, rhs in self.rows()
        ]
        return HPolyhedron(tuple(rows), self.base.n)

    def contains(self, x: RationalVec, t: Fraction) -> bool:
        pt = RationalVec(tuple(x.coords) + (Fraction(t),))
        return self.polyhedron().contains(pt)


def lifted_body(body: SFreeBody, r_star: RationalVec, lam) -> LiftedBody:
    if r_star.dim != body.n:
        raise DimensionError("r_star dimension mismatch")
    return LiftedBody(body, r_star, Fraction(lam))


@dataclass(frozen=True)
class SearchBounds:
    t_max: int


@dataclass(frozen=True)
class PiStarResult:
    value: Fraction
    blocking_point: tuple[RationalVec, int]
    bounds: SearchBounds
    bound_certified: bool


def _common_denominator(r: RationalVec) -> int:
    return lcm(*(c.denominator for c in r.coords))


def _sublevel_points(body: SFreeBody, shift: RationalVec, c: Fraction) -> list[RationalVec]:
    """All S-points with psi(x - shift) <= c, one representative per class
    modulo the body's lineality lattice, lex sorted."""
    n = body.n
    rows = [(a, c + a.dot(shift)) for a in body.facets]
    rows += body.s.conv_rows(n)
    quot = body.quotient()
    reduced = quot.quotient_poly(HPolyhedron(tuple(rows), n))
    zs, _ = enumerate_lattice_points(reduced, cap=None)
    pts = [quot.lift_quotient_point(z) for z in zs]
    pts.sort(key=lambda p: p.coords)
    return pts


def single_ray_validity(
    body: SFreeBody,
    r_star: RationalVec,
    lam,
    window: int = DEFAULT_ORACLE_WINDOW,
    t_max: int = DEFAULT_ORACLE_TMAX,
) -> tuple[bool, Optional[tuple[RationalVec, int]]]:
    """Brute-force validity oracle on an explicit grid.

    Scans every S-point of the window box and every multiplicity
    1 <= t <= t_max in deterministic (t, then lex) order for a violation
    psi(x - f - t r) + lambda t < 1.  It evaluates that definition directly,
    with the facet products scaled to integers by one common denominator,
    as the independent check for the closed-form computation.
    """
    lam = Fraction(lam)
    if r_star.dim != body.n:
        raise DimensionError("r_star dimension mismatch")
    facets = body.facets
    af, ar = [a.dot(body.f) for a in facets], [a.dot(r_star) for a in facets]
    den = lcm(*(v.denominator for v in itertools.chain(af, ar, [lam], *facets)))
    a_int = [[int(c * den) for c in a] for a in facets]
    af_int, shifts = [int(v * den) for v in af], [int(v * den) for v in ar]
    pts = []
    for coords in itertools.product(range(-window, window + 1), repeat=body.n):
        x = RationalVec.from_seq(coords)
        if body.s.contains(x):
            pts.append((x, [sum(map(mul, a, coords)) - v for a, v in zip(a_int, af_int)]))
    for t in range(1, t_max + 1):
        slack = int((1 - lam * t) * den)
        for x, base in pts:
            if max(b - t * s for b, s in zip(base, shifts)) < slack:
                return False, (x, t)
    return True, None


def _pi_star_integers(body: SFreeBody, r: RationalVec) -> PiStarResult:
    """Exact computation for S = Z^n via the residue-bounded scan."""
    q = _common_denominator(r)
    best: Optional[Fraction] = None
    best_t = 0
    best_x: Optional[RationalVec] = None
    t_cap = q
    t = 1
    while t <= t_cap:
        shift = body.f + r.scale(t)
        pts = _sublevel_points(body, shift, Fraction(1))
        for x in pts:
            val = (1 - psi_value(body, x - shift)) / t
            if best is None or val > best:
                best, best_t, best_x = val, t, x
                if best > 0:
                    t_cap = min(q, ceil(1 / best))
        t += 1
    if best is None or best < 0:
        raise InvalidInputError(
            "no boundary lattice point found; the body is not maximal S-free"
        )
    return PiStarResult(
        value=best,
        blocking_point=(best_x, best_t),
        bounds=SearchBounds(t_max=max(t_cap, best_t)),
        bound_certified=True,
    )


def _feasible_point(P: HPolyhedron) -> Optional[RationalVec]:
    """Some exact point of P (deterministic), or None if empty: each
    coordinate in turn takes the value of its range closest to 0."""
    rows = P.rows
    coords: list[Fraction] = []
    for d in range(P.dim, 0, -1):
        bounds = coordinate_bounds(HPolyhedron(tuple(rows), d), 0)
        if bounds is None:
            return None
        lo, hi = bounds
        pick = Fraction(0)
        if lo is not None and pick < lo:
            pick = lo
        if hi is not None and pick > hi:
            pick = hi
        coords.append(pick)
        if d > 1:
            rows = _fix_leading(rows, pick)
            if rows is None:
                return None
    return RationalVec(tuple(coords))


def _psi_nonnegative(body: SFreeBody) -> bool:
    """Is psi >= 0 everywhere?  (No direction with a_i . r < 0 for all i.)"""
    n = body.n
    rows: list[Row] = []
    for a in body.facets:
        rows.append((RationalVec(tuple(a.coords) + (Fraction(1),)), Fraction(0)))
    eps_dir = RationalVec(tuple(Fraction(0) for _ in range(n)) + (Fraction(1),))
    rows.append((eps_dir, Fraction(1)))
    status, val = linear_max(HPolyhedron(tuple(rows), n + 1), eps_dir)
    return status == "bounded" and val == 0


def _recession_candidate(body: SFreeBody, r: RationalVec) -> tuple[Fraction, RationalVec]:
    """Maximize -psi(rho - r) over rho in rec(conv S); returns the optimum
    and an achieving rational direction."""
    n = body.n
    rows: list[Row] = []
    # variables (rho, z): a_i rho - z <= a_i r;  C rho <= 0
    for a in body.facets:
        rows.append((RationalVec(tuple(a.coords) + (Fraction(-1),)), a.dot(r)))
    for c, _ in zip(body.s.c_rows, body.s.d):
        rows.append((RationalVec(tuple(c.coords) + (Fraction(0),)), Fraction(0)))
    ext = HPolyhedron(tuple(rows), n + 1)
    objective = RationalVec(tuple(Fraction(0) for _ in range(n)) + (Fraction(-1),))
    status, val = linear_max(ext, objective)
    if status != "bounded":
        raise InvalidInputError(
            "psi is unbounded below over rec(conv S); body is not maximal S-free"
        )
    lam_rec = val
    fixed = HPolyhedron(
        ext.rows + ((objective, -lam_rec),), n + 1
    )  # -z <= -min z, i.e. z attains the optimum
    point = _feasible_point(fixed)
    if point is None:
        raise InvalidInputError("recession LP lost its optimum; inconsistent input")
    rho = RationalVec(tuple(point.coords[:n]))
    return lam_rec, rho


def _continuous_min(body: SFreeBody, r: RationalVec, t: int) -> Fraction:
    """g(t) = min of psi(x - f - t r) over x in conv(S); exact LP."""
    n = body.n
    shift = body.f + r.scale(t)
    rows: list[Row] = []
    for a in body.facets:
        rows.append((RationalVec(tuple(a.coords) + (Fraction(-1),)), a.dot(shift)))
    for c, d in zip(body.s.c_rows, body.s.d):
        rows.append((RationalVec(tuple(c.coords) + (Fraction(0),)), d))
    ext = HPolyhedron(tuple(rows), n + 1)
    objective = RationalVec(tuple(Fraction(0) for _ in range(n)) + (Fraction(-1),))
    status, val = linear_max(ext, objective)
    if status != "bounded":
        raise InvalidInputError("gauge unbounded below over conv(S)")
    return -val


def _pi_star_general(body: SFreeBody, r: RationalVec, t_hard_cap: Optional[int]) -> PiStarResult:
    """General-S computation: recession candidate folded into a finite scan,
    with a convexity certificate for the tail when available."""
    n = body.n
    lam_rec, rho = _recession_candidate(body, r)
    boundary_pts = [
        x for x in lattice_points_in_body(body) if psi_value(body, x - body.f) == 1
    ]
    if not boundary_pts:
        raise InvalidInputError(
            "no boundary lattice point found; the body is not maximal S-free"
        )
    x_tilde = boundary_pts[0]
    # fold the recession direction into the candidate family: the lifted-space
    # direction (rho, 1) scaled integral gives a candidate at t = k whose value
    # is squeezed between lam_rec and the optimum
    k = _common_denominator(rho)
    witness_x = x_tilde + rho.scale(k)
    best = (1 - psi_value(body, witness_x - body.f - r.scale(k))) / k
    best_t, best_x = k, witness_x

    q = _common_denominator(r)
    psi_nonneg = _psi_nonnegative(body)
    t_cap = t_hard_cap if t_hard_cap is not None else max(2 * q, 16, k)
    scanned = 0
    t = 1
    while t <= t_cap:
        shift = body.f + r.scale(t)
        level = 1 - best * t
        for x in _sublevel_points(body, shift, level):
            val = (1 - psi_value(body, x - shift)) / t
            if val > best or (val == best and (t, x.coords) < (best_t, best_x.coords)):
                best, best_t, best_x = val, t, x
        scanned = t
        t += 1
        if psi_nonneg and best > 0:
            # with psi >= 0, beating best needs (1 - psi)/t > best, so t < 1/best
            t_cap = min(t_cap, max(scanned, ceil(1 / best)))
    if psi_nonneg and best > 0 and scanned >= ceil(1 / best):
        certified = True
    else:
        # tail certificate through the convex parametric LP value function
        g1 = _continuous_min(body, r, scanned + 1)
        g2 = _continuous_min(body, r, scanned + 2)
        sigma = g2 - g1
        phi = (1 - g1) / (scanned + 1)
        certified = best >= max(phi, -sigma)
    return PiStarResult(
        value=best,
        blocking_point=(best_x, best_t),
        bounds=SearchBounds(t_max=scanned),
        bound_certified=certified,
    )


def pi_star(body: SFreeBody, r_star: RationalVec, t_cap: Optional[int] = None) -> PiStarResult:
    """Minimal lifting coefficient of a single ray, with blocking-point
    certificate.

    Requires a (verified) maximal S-free body; a missing boundary lattice
    point is reported as an error rather than silently mis-bounded.
    """
    if r_star.dim != body.n:
        raise DimensionError("ray dimension mismatch")
    if body.s.all_integers:
        return _pi_star_integers(body, r_star)
    return _pi_star_general(body, r_star, t_cap)


def pi_star_periodic(body: SFreeBody, r: RationalVec) -> PiStarResult:
    """Reduce r into the fundamental cell [0,1)^n before computing; the
    candidate families of r and its reduction are in exact bijection."""
    if not body.s.all_integers:
        raise UnsupportedSError("periodicity reduction requires S = Z^n")
    if r.dim != body.n:
        raise DimensionError("ray dimension mismatch")
    w = RationalVec.from_seq(floor(c) for c in r.coords)
    reduced = r - w
    res = pi_star(body, reduced)
    bx, bt = res.blocking_point
    shifted = bx + w.scale(bt)
    return PiStarResult(res.value, (shifted, bt), res.bounds, res.bound_certified)


def pi_star_certificate_check(
    body: SFreeBody, r_star: RationalVec, candidate: PiStarResult
) -> tuple[bool, str]:
    """Exact verification of a claimed coefficient.

    Checks that the blocking point is an S x Z_+ point with positive last
    coordinate on the boundary of the lifted body, and that no S x Z_+
    point lies strictly inside within the certified search bounds.
    """
    v = candidate.value
    bx, bt = candidate.blocking_point
    if not isinstance(bt, int) or bt < 1:
        return False, "blocking multiplicity is not a positive integer"
    if not body.s.contains(bx):
        return False, "blocking point is not in S"
    gap = psi_value(body, bx - body.f - r_star.scale(bt)) - (1 - v * bt)
    if gap < 0:
        return False, "blocking point lies in the interior of the lifted body"
    if gap > 0:
        return False, "no boundary blocking point: the point left the lifted body"
    for t in range(1, candidate.bounds.t_max + 1):
        shift = body.f + r_star.scale(t)
        level = 1 - v * t
        for x in _sublevel_points(body, shift, level):
            if psi_value(body, x - shift) < level:
                return False, f"interior S-point {x} at multiplicity {t}"
    return True, "ok"
