"""Exact rational linear algebra and low-dimensional polyhedral primitives.

All arithmetic is exact; there is no floating point anywhere.  Polyhedra are
inequality systems ``normal . x <= rhs`` over ``fractions.Fraction``.  Inside
the Fourier-Motzkin kernel (``coordinate_bounds``/``fm_eliminate``) a row is
instead one tuple of Python ints ``(a_0, ..., a_{d-1}, b)`` meaning
``a . x <= b``, scaled by a positive rational so that the whole tuple has
gcd 1 (a zero normal has b in {-1, 0, 1}); rows enter it once and bounds
leave it as ``Fraction(b, a_j)``.  Vertex enumeration and areas are
implemented for the plane only; the linear-algebra kernels (lineality,
recession, Fourier-Motzkin projection, exact linear maximization) work in
any dimension.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DimensionError, EmptyInputError, UnboundedInputError

RatLike = Union[int, str, Fraction]


def rat(x: RatLike) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class RationalVec:
    """Fixed-length vector of exact rationals."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) < 1:
            raise DimensionError("vectors must have dimension >= 1")

    @classmethod
    def of(cls, *values: RatLike) -> "RationalVec":
        return cls(tuple(rat(v) for v in values))

    @classmethod
    def from_seq(cls, values: Iterable[RatLike]) -> "RationalVec":
        return cls(tuple(rat(v) for v in values))

    @classmethod
    def zero(cls, n: int) -> "RationalVec":
        return cls(tuple(Fraction(0) for _ in range(n)))

    @classmethod
    def unit(cls, n: int, i: int) -> "RationalVec":
        return cls(tuple(Fraction(1 if j == i else 0) for j in range(n)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def dot(self, other: "RationalVec") -> Fraction:
        if self.dim != other.dim:
            raise DimensionError(f"dot of dim {self.dim} with dim {other.dim}")
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def __add__(self, other: "RationalVec") -> "RationalVec":
        if self.dim != other.dim:
            raise DimensionError("vector addition dimension mismatch")
        return RationalVec(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "RationalVec") -> "RationalVec":
        if self.dim != other.dim:
            raise DimensionError("vector subtraction dimension mismatch")
        return RationalVec(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "RationalVec":
        return RationalVec(tuple(-a for a in self.coords))

    def scale(self, s: RatLike) -> "RationalVec":
        s = rat(s)
        return RationalVec(tuple(s * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


Row = tuple[RationalVec, Fraction]


def _primitive_ints(values: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale rationals by one positive rational to coprime integers; all
    zeros stay zeros."""
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    return tuple([x // g for x in ints]) if g > 1 else tuple(ints)


def primitive_direction(v: RationalVec) -> RationalVec:
    """Scale a nonzero vector by a positive rational to primitive integer form."""
    if v.is_zero():
        raise ValueError("zero vector has no direction")
    return RationalVec(tuple(Fraction(x) for x in _primitive_ints(v.coords)))


def canonical_row(normal: RationalVec, rhs: Fraction) -> Row:
    """Scale a row by a positive rational so the normal is primitive integral.

    Zero-normal rows are scaled so rhs is in {-1, 0, 1}.
    """
    if normal.is_zero():
        if rhs == 0:
            return normal, Fraction(0)
        return normal, Fraction(1 if rhs > 0 else -1)
    d = primitive_direction(normal)
    # the scaling factor that maps normal onto d
    for a, b in zip(normal.coords, d.coords):
        if a != 0:
            s = b / a
            break
    return d, rhs * s


@dataclass(frozen=True)
class HPolyhedron:
    """Finite system of inequalities ``normal . x <= rhs`` in R^dim.

    The representation may be redundant; redundancy removal is an explicit
    operation, never an invariant.
    """

    rows: tuple[Row, ...]
    dim: int

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[RationalVec, RatLike]], dim: int) -> "HPolyhedron":
        out = []
        for normal, rhs in rows:
            if normal.dim != dim:
                raise DimensionError("row dimension mismatch")
            out.append((normal, rat(rhs)))
        return cls(tuple(out), dim)

    @classmethod
    def whole_space(cls, dim: int) -> "HPolyhedron":
        return cls((), dim)

    @classmethod
    def canonical_empty(cls, dim: int) -> "HPolyhedron":
        return cls(((RationalVec.zero(dim), Fraction(-1)),), dim)

    def contains(self, x: RationalVec) -> bool:
        if x.dim != self.dim:
            raise DimensionError("point dimension mismatch")
        return all(n.dot(x) <= b for n, b in self.rows)

    def contains_strict(self, x: RationalVec) -> bool:
        if x.dim != self.dim:
            raise DimensionError("point dimension mismatch")
        return all(n.dot(x) < b for n, b in self.rows)

    def translate(self, v: RationalVec) -> "HPolyhedron":
        return HPolyhedron(tuple((n, b + n.dot(v)) for n, b in self.rows), self.dim)

    def is_empty(self) -> bool:
        return coordinate_bounds(self, self.dim - 1) is None


# ---------------------------------------------------------------------------
# Fourier-Motzkin machinery
# ---------------------------------------------------------------------------


def _dedupe_rows(rows: list[Row]) -> list[Row]:
    """Canonicalize rows and keep, per normal direction, only the tightest rhs."""
    best: dict[tuple[Fraction, ...], Fraction] = {}
    order: list[tuple[Fraction, ...]] = []
    for normal, rhs in rows:
        n, b = canonical_row(normal, rhs)
        key = n.coords
        if key in best:
            if b < best[key]:
                best[key] = b
        else:
            best[key] = b
            order.append(key)
    return [(RationalVec(k), best[k]) for k in order]


def fm_eliminate(rows: Sequence[tuple[int, ...]], j: int) -> list[tuple[int, ...]]:
    """Project a system of integer rows onto the hyperplane of all variables
    except x_j.

    The variable slot is kept (coefficient zero) so indices stay stable.
    Rows with zero x_j come first, then the pos x neg combinations in loop
    order; per primitive normal direction only the first-seen position and
    the tightest rhs are kept.
    """
    pos, neg, out = [], [], []
    for r in rows:
        c = r[j]
        if c > 0:
            pos.append(r)
        elif c < 0:
            neg.append(r)
        else:
            out.append(r)
    for p in pos:
        cp = p[j]
        for q in neg:
            # -q[j] * p + p[j] * q: the x_j terms cancel
            cq = -q[j]
            out.append(tuple([cq * a + cp * b for a, b in zip(p, q)]))
    # direction -> (row, g) with g the gcd of the row's normal
    best: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for r in out:
        normal, b = r[:-1], r[-1]
        g = gcd(*normal)
        if g == 0:
            # 0 <= b: only the sign of b matters
            r, key, g = normal + ((b > 0) - (b < 0),), normal, 1
        else:
            key = tuple([x // g for x in normal]) if g > 1 else normal
            h = gcd(g, b)
            if h > 1:
                r, g = tuple([x // h for x in r]), g // h
        seen = best.get(key)
        # rhs per unit of the direction is b / g; compare by cross-multiplying
        if seen is None or r[-1] * seen[1] < seen[0][-1] * g:
            best[key] = (r, g)
    return [r for r, _ in best.values()]


def coordinate_bounds(
    P: HPolyhedron, j: int
) -> Optional[tuple[Optional[Fraction], Optional[Fraction]]]:
    """Exact range of x_j over P: None when P is empty, else (lower, upper)
    with None for an unbounded side.

    This is the one Fourier-Motzkin loop of the package: the rows of P are
    converted to integer rows once, every variable but x_j is eliminated in
    increasing index order, stopping early once a row reads 0 <= negative,
    and the bounds are read back as fractions.  The input rows are not
    deduped first: fm_eliminate dedupes what it produces, so its output is
    the same either way, and a one-dimensional P is read in a single pass.
    """
    rows = [_primitive_ints(normal.coords + (rhs,)) for normal, rhs in P.rows]
    infeasible = (0,) * P.dim + (-1,)
    for k in range(P.dim):
        if k == j:
            continue
        if infeasible in rows:
            return None
        rows = fm_eliminate(rows, k)
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for r in rows:
        c, b = r[j], r[-1]
        if c == 0:
            if b < 0:
                return None
            continue
        bound = Fraction(b, c)
        if c > 0:
            if hi is None or bound < hi:
                hi = bound
        elif lo is None or bound > lo:
            lo = bound
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _fix_leading(rows: Iterable[Row], v: Union[int, Fraction]) -> Optional[list[Row]]:
    """Substitute x_0 = v and drop that coordinate; None when a row becomes
    0 <= negative.  Rows that become 0 <= nonnegative are dropped."""
    out = []
    for normal, rhs in rows:
        newn = RationalVec(normal.coords[1:])
        newr = rhs - normal[0] * v
        if newn.is_zero():
            if newr < 0:
                return None
            continue
        out.append((newn, newr))
    return out


def linear_max(P: HPolyhedron, c: RationalVec) -> tuple[str, Optional[Fraction]]:
    """Exact sup of c.x over P.

    Returns ('empty', None), ('unbounded', None) or ('bounded', value).
    """
    if c.dim != P.dim:
        raise DimensionError("objective dimension mismatch")
    n = P.dim
    # extended system over (x, y) with y = c.x; the sup is the upper bound of y
    ext = [(RationalVec(normal.coords + (Fraction(0),)), rhs) for normal, rhs in P.rows]
    ext.append((RationalVec(tuple(-a for a in c.coords) + (Fraction(1),)), Fraction(0)))
    ext.append((RationalVec(c.coords + (Fraction(-1),)), Fraction(0)))
    bounds = coordinate_bounds(HPolyhedron(tuple(ext), n + 1), n)
    if bounds is None:
        return "empty", None
    if bounds[1] is None:
        return "unbounded", None
    return "bounded", bounds[1]


# ---------------------------------------------------------------------------
# Redundancy removal, containment, equality
# ---------------------------------------------------------------------------


def irredundant(P: HPolyhedron) -> HPolyhedron:
    """Remove redundant rows; empty polyhedra collapse to the canonical form.

    Output row order is canonical (sorted), making equal irredundant systems
    literally identical only when they have identical facet data; semantic
    equality should still go through poly_equal.
    """
    rows = _dedupe_rows(list(P.rows))
    if HPolyhedron(tuple(rows), P.dim).is_empty():
        return HPolyhedron.canonical_empty(P.dim)
    rows = [r for r in rows if not (r[0].is_zero() and r[1] >= 0)]
    i = 0
    while i < len(rows):
        others = rows[:i] + rows[i + 1 :]
        status, val = linear_max(HPolyhedron(tuple(others), P.dim), rows[i][0])
        if status == "bounded" and val <= rows[i][1]:
            rows = others
        else:
            i += 1
    rows.sort(key=lambda r: (r[0].coords, r[1]))
    return HPolyhedron(tuple(rows), P.dim)


def poly_contains(P: HPolyhedron, Q: HPolyhedron) -> bool:
    """Is Q a subset of P?  Exact."""
    if P.dim != Q.dim:
        raise DimensionError("containment dimension mismatch")
    if Q.is_empty():
        return True
    for normal, rhs in P.rows:
        status, val = linear_max(Q, normal)
        if status == "unbounded":
            return False
        if status == "bounded" and val > rhs:
            return False
    return True


def poly_equal(P: HPolyhedron, Q: HPolyhedron) -> bool:
    return poly_contains(P, Q) and poly_contains(Q, P)


def implicit_equalities(P: HPolyhedron) -> list[RationalVec]:
    """Normals of rows that hold with equality everywhere on P (P nonempty)."""
    out = []
    for normal, rhs in P.rows:
        if normal.is_zero():
            continue
        status, val = linear_max(P, normal.scale(-1))
        if status == "bounded" and -val == rhs:
            out.append(normal)
    return out


def affine_dim(P: HPolyhedron) -> int:
    """Dimension of the affine hull of P; -1 for empty."""
    if P.is_empty():
        return -1
    eqs = implicit_equalities(P)
    return P.dim - matrix_rank(eqs)


# ---------------------------------------------------------------------------
# Rational matrix kernels
# ---------------------------------------------------------------------------


def matrix_rank(rows: Sequence[RationalVec]) -> int:
    if not rows:
        return 0
    mat = [list(r.coords) for r in rows]
    m, n = len(mat), len(mat[0])
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [v / pv for v in mat[rank]]
        for r in range(m):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def kernel_basis(rows: Sequence[RationalVec], n: int) -> list[RationalVec]:
    """Basis of {x : row . x = 0 for all rows}, canonicalized to primitive
    integer vectors with positive leading entry, in deterministic order."""
    mat = [list(r.coords) for r in rows if not r.is_zero()]
    if not mat:
        return [RationalVec.unit(n, i) for i in range(n)]
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [v / pv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        vec = primitive_direction(RationalVec(tuple(v)))
        if next(c for c in vec.coords if c != 0) < 0:
            vec = vec.scale(-1)
        basis.append(vec)
    basis.sort(key=lambda v: v.coords)
    return basis


# ---------------------------------------------------------------------------
# Planar operations
# ---------------------------------------------------------------------------


def _cross(a: RationalVec, b: RationalVec) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _rot90(v: RationalVec) -> RationalVec:
    return RationalVec.of(-v[1], v[0])


def _solve_2x2(r1: Row, r2: Row) -> Optional[RationalVec]:
    (n1, b1), (n2, b2) = r1, r2
    det = _cross(n1, n2)
    if det == 0:
        return None
    x = (b1 * n2[1] - b2 * n1[1]) / det
    y = (n1[0] * b2 - n2[0] * b1) / det
    return RationalVec.of(x, y)


def lineality_space(P: HPolyhedron) -> list[RationalVec]:
    """Exact rational basis of the lineality space of a nonempty polyhedron."""
    if P.is_empty():
        raise EmptyInputError("lineality space of an empty polyhedron")
    return kernel_basis([n for n, _ in P.rows], P.dim)


def recession_cone(P: HPolyhedron) -> HPolyhedron:
    """Recession cone {r : normal . r <= 0 for all rows} of a nonempty P."""
    if P.is_empty():
        raise EmptyInputError("recession cone of an empty polyhedron")
    return HPolyhedron(tuple((n, Fraction(0)) for n, _ in P.rows if not n.is_zero()), P.dim)


def _angle_class(v: RationalVec) -> int:
    """Half-plane sweep class for exact angular comparison (0 at +x, CCW)."""
    x, y = v[0], v[1]
    if y > 0 or (y == 0 and x > 0):
        return 0
    return 1


def _angle_less(a: RationalVec, b: RationalVec) -> bool:
    ca, cb = _angle_class(a), _angle_class(b)
    if ca != cb:
        return ca < cb
    return _cross(a, b) > 0


def _sort_ccw(points: list[RationalVec]) -> list[RationalVec]:
    """Sort distinct points of a convex set counterclockwise around their mean."""
    if len(points) <= 2:
        return sorted(points, key=lambda p: p.coords)
    k = Fraction(1, len(points))
    cx = sum((p[0] for p in points), Fraction(0)) * k
    cy = sum((p[1] for p in points), Fraction(0)) * k
    center = RationalVec.of(cx, cy)

    def cmp(p: RationalVec, q: RationalVec) -> int:
        dp, dq = p - center, q - center
        if dp.coords == dq.coords:
            return 0
        return -1 if _angle_less(dp, dq) else 1

    return sorted(points, key=functools.cmp_to_key(cmp))


def vertices_2d(P: HPolyhedron) -> tuple[list[RationalVec], list[RationalVec], list[RationalVec]]:
    """Vertices, extreme rays, and lineality basis of a planar polyhedron.

    For nonempty lineality the vertices/rays describe P quotiented by its
    lineality space (representatives on the complementary transversal).
    Empty input yields three empty lists.
    """
    if P.dim != 2:
        raise DimensionError("vertices_2d requires dimension 2")
    rows = _dedupe_rows(list(P.rows))
    if HPolyhedron(tuple(rows), 2).is_empty():
        return [], [], []
    lin = kernel_basis([n for n, _ in rows], 2)
    if len(lin) == 2:
        return [RationalVec.zero(2)], [], lin
    if len(lin) == 1:
        v = lin[0]
        u = _rot90(v)
        # P is invariant along v; parametrize the transversal x = t*u
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for n, b in rows:
            if n.is_zero():
                continue
            c = n.dot(u)
            bound = b / c
            if c > 0:
                hi = bound if hi is None or bound < hi else hi
            elif c < 0:
                lo = bound if lo is None or bound > lo else lo
        verts = []
        rays = []
        if lo is not None:
            verts.append(u.scale(lo))
        if hi is not None:
            verts.append(u.scale(hi))
        if lo is None:
            rays.append(primitive_direction(u.scale(-1)))
        if hi is None:
            rays.append(primitive_direction(u))
        verts = sorted({v_.coords for v_ in verts})
        return [RationalVec(c) for c in verts], sorted(rays, key=lambda r: r.coords), lin
    # pointed case
    verts_set: dict[tuple[Fraction, ...], RationalVec] = {}
    live = [r for r in rows if not r[0].is_zero()]
    for r1, r2 in itertools.combinations(live, 2):
        pt = _solve_2x2(r1, r2)
        if pt is None:
            continue
        if all(n.dot(pt) <= b for n, b in live):
            verts_set[pt.coords] = pt
    vertices = [RationalVec(c) for c in sorted(verts_set)]
    # extreme rays of the (pointed) recession cone
    ray_set: dict[tuple[Fraction, ...], RationalVec] = {}
    for n, _ in live:
        for d in (_rot90(n), _rot90(n).scale(-1)):
            if all(m.dot(d) <= 0 for m, _b in live):
                dp = primitive_direction(d)
                ray_set[dp.coords] = dp
    rays = [RationalVec(c) for c in sorted(ray_set)]
    return vertices, rays, []


def polygon_intersection_2d(P: HPolyhedron, Q: HPolyhedron) -> HPolyhedron:
    """Exact intersection: concatenated rows with redundancy removed."""
    if P.dim != 2 or Q.dim != 2:
        raise DimensionError("polygon_intersection_2d requires dimension 2")
    return irredundant(HPolyhedron(P.rows + Q.rows, 2))


def polygon_area_2d(P: HPolyhedron) -> Fraction:
    """Exact area via the shoelace formula.  Unbounded input is an error."""
    if P.dim != 2:
        raise DimensionError("polygon_area_2d requires dimension 2")
    vertices, rays, lin = vertices_2d(P)
    if rays or lin:
        raise UnboundedInputError("area of an unbounded polyhedron")
    if len(vertices) < 3:
        return Fraction(0)
    ordered = _sort_ccw(vertices)
    s = Fraction(0)
    for i, p in enumerate(ordered):
        q = ordered[(i + 1) % len(ordered)]
        s += _cross(p, q)
    return abs(s) / 2
