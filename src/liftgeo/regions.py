"""Per-lattice-point forcing regions and the lifting-region complex.

The region of a point x collects the rays r with
psi(r) + psi(x - f - r) = psi(x - f); on such rays the integer-column
coefficient of every pointwise-minimal valid pair is forced to equal the
continuous coefficient psi(r).  The complex has one region per class of
the body's lattice points modulo L_psi = {r : a_i r = a_j r for all i, j}:
R(x) = R(x') exactly when d = x - x' lies in L_psi.  Only if: w = x - f is
in R(x), so adding the identities for w' in R(x) and w in R(x') gives
psi(d) + psi(-d) = 0.  If: a_i d = c for all i shifts both sides by c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bodies import SFreeBody, lattice_points_in_body
from .errors import DegenerateBodyError
from .gauge import psi, psi_value
from .geom import (
    HPolyhedron,
    RationalVec,
    affine_dim,
    irredundant,
    kernel_basis,
)


@dataclass(frozen=True)
class RegionComplex:
    """Finite list of (source point, region polyhedron) pieces plus the
    common lineality basis of the pieces."""

    pieces: tuple[tuple[RationalVec, HPolyhedron], ...]
    lineality: tuple[RationalVec, ...]
    n: int

    def piece_dims(self) -> list[int]:
        return [affine_dim(poly) for _, poly in self.pieces]


def _facet_differences(body: SFreeBody) -> list[RationalVec]:
    """The rows a_i - a_0 (i >= 1), whose kernel is L_psi."""
    return [a - body.facets[0] for a in body.facets[1:]]


def l_psi(body: SFreeBody) -> list[RationalVec]:
    """Basis of the common-value subspace {r : a_i r = a_j r for all i, j}."""
    return kernel_basis(_facet_differences(body), body.n)


def region_of_point(body: SFreeBody, x: RationalVec) -> HPolyhedron:
    """The forcing region of x: the all-pairs system
    a_i r + a_j (x - f - r) <= psi(x - f), redundancy removed."""
    w = x - body.f
    target = psi_value(body, w)
    rows = []
    for i, ai in enumerate(body.facets):
        for j, aj in enumerate(body.facets):
            if i == j:
                continue
            rows.append((ai - aj, target - aj.dot(w)))
    return irredundant(HPolyhedron.from_rows(rows, body.n))


def region_cone_form(
    body: SFreeBody, x: RationalVec
) -> tuple[HPolyhedron, int, HPolyhedron]:
    """The cone C = {r : (a_i - a_k) r <= 0} for a maximizing k, plus the
    materialized intersection C cap ((x - f) - C)."""
    w = x - body.f
    k = psi(body, w).argmax[0]
    ak = body.facets[k]
    cone_rows = [(a - ak, Fraction(0)) for i, a in enumerate(body.facets) if i != k]
    cone = HPolyhedron.from_rows(cone_rows, body.n)
    mirrored = [((a - ak).scale(-1), -(a - ak).dot(w)) for i, a in enumerate(body.facets) if i != k]
    materialized = irredundant(HPolyhedron.from_rows(cone_rows + mirrored, body.n))
    return cone, k, materialized


def lifting_region(body: SFreeBody) -> RegionComplex:
    """One piece R(x) per class of lattice representatives modulo L_psi
    (the first of its class is the source), ordered by source point.

    For general S the intersection of the body with conv(S) must be
    full-dimensional; the degenerate case is rejected outright."""
    if not body.s.all_integers:
        joint = HPolyhedron(
            tuple(body.rows() + body.s.conv_rows(body.n)), body.n
        )
        if affine_dim(joint) < body.n:
            raise DegenerateBodyError(
                "body meets conv(S) in a lower-dimensional set"
            )
    diffs = _facet_differences(body)
    sources: dict[tuple[Fraction, ...], RationalVec] = {}
    for x in lattice_points_in_body(body):
        sources.setdefault(tuple(d.dot(x) for d in diffs), x)
    pieces = [(x, region_of_point(body, x)) for x in sources.values()]
    pieces.sort(key=lambda it: it[0].coords)
    return RegionComplex(tuple(pieces), tuple(l_psi(body)), body.n)


def region_membership(regions: RegionComplex, r: RationalVec) -> Optional[RationalVec]:
    """Source point of the first piece containing r (closed membership)."""
    for x, poly in regions.pieces:
        if poly.contains(r):
            return x
    return None
