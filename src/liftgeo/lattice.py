"""Integer lattice utilities: unimodular changes of basis and point enumeration.

The quotient machinery sends a rational subspace L to the first k coordinate
axes via a unimodular transform whose leading columns form a basis of the
saturated lattice Z^n  intersect  L.  Sets invariant along L then project to
bounded polytopes whose integer points enumerate the quotient classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Optional, Sequence

from .errors import UnboundedInputError
from .geom import HPolyhedron, RationalVec, Row, _fix_leading, coordinate_bounds, kernel_basis

IntMatrix = list[list[int]]


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_cols(M: IntMatrix, a: int, b: int) -> None:
    for row in M:
        row[a], row[b] = row[b], row[a]


def _addmul_col(M: IntMatrix, dst: int, src: int, factor: int) -> None:
    for row in M:
        row[dst] += factor * row[src]


def _negate_col(M: IntMatrix, c: int) -> None:
    for row in M:
        row[c] = -row[c]


def column_echelon(M: IntMatrix, n: int) -> tuple[IntMatrix, IntMatrix, int]:
    """Column echelon form over Z.

    Returns (A, U, rank) with A = M @ U, U unimodular, and the last
    n - rank columns of A identically zero.
    """
    A = [row[:] for row in M]
    U = _identity(n)
    m = len(A)
    col = 0
    for r in range(m):
        if col >= n:
            break
        while True:
            nz = [c for c in range(col, n) if A[r][c] != 0]
            if not nz:
                break
            c0 = min(nz, key=lambda c: abs(A[r][c]))
            if c0 != col:
                _swap_cols(A, c0, col)
                _swap_cols(U, c0, col)
            if A[r][col] < 0:
                _negate_col(A, col)
                _negate_col(U, col)
            done = True
            for c in range(col + 1, n):
                if A[r][c] != 0:
                    q = A[r][c] // A[r][col]
                    if q != 0:
                        _addmul_col(A, c, col, -q)
                        _addmul_col(U, c, col, -q)
                    if A[r][c] != 0:
                        done = False
            if done:
                col += 1
                break
    return A, U, col


def integer_kernel_basis(M: IntMatrix, n: int) -> list[list[int]]:
    """Basis (as columns) of the saturated lattice {v in Z^n : M v = 0}."""
    if not M:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    A, U, rank = column_echelon(M, n)
    return [[U[i][c] for i in range(n)] for c in range(rank, n)]


def _mat_inverse_int(M: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    n = len(M)
    a = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(1 if i == k else 0) for k in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [v / pv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    inv = [[a[i][n + j] for j in range(n)] for i in range(n)]
    out = []
    for row in inv:
        irow = []
        for v in row:
            if v.denominator != 1:
                raise ValueError("matrix is not unimodular")
            irow.append(int(v))
        out.append(irow)
    return out


def _mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    return [[sum(A[i][t] * B[t][j] for t in range(inner)) for j in range(cols)] for i in range(rows)]


def extend_to_unimodular(basis_cols: list[list[int]], n: int) -> IntMatrix:
    """Unimodular n x n matrix whose first k columns are the given saturated
    lattice basis."""
    k = len(basis_cols)
    if k == 0:
        return _identity(n)
    Bt = [[basis_cols[j][i] for i in range(n)] for j in range(k)]  # k x n
    _, U, rank = column_echelon(Bt, n)
    if rank != k:
        raise ValueError("basis columns are linearly dependent")
    V = [[U[j][i] for j in range(n)] for i in range(n)]  # V = U^T, V @ B = [T; 0]
    B = [[basis_cols[j][i] for j in range(k)] for i in range(n)]  # n x k
    T_full = _mat_mul(V, B)
    T = [row[:k] for row in T_full[:k]]
    for r in range(k, n):
        if any(T_full[r][j] != 0 for j in range(k)):
            raise ValueError("echelon reduction failed")
    block = [[T[i][j] if i < k and j < k else (1 if i == j else 0) for j in range(n)] for i in range(n)]
    W = _mat_mul(_mat_inverse_int(V), block)
    return W


def lattice_basis_of_subspace(span: Sequence[RationalVec], n: int) -> list[list[int]]:
    """Basis (columns) of Z^n intersect span(`span`); the span must be rational."""
    comp = kernel_basis(list(span), n)
    rows = [[int(c) for c in v.coords] for v in comp]
    return integer_kernel_basis(rows, n)


@dataclass(frozen=True)
class QuotientBasis:
    """Unimodular coordinates adapted to a rational subspace L.

    Columns 0..k-1 of W form a basis of Z^n intersect L; in y = Winv x
    coordinates, L is the span of the first k axes and the integer lattice
    stays Z^n.
    """

    n: int
    k: int
    W: tuple[tuple[int, ...], ...]      # rows of W
    Winv: tuple[tuple[int, ...], ...]   # rows of W^-1

    @classmethod
    def from_subspace(cls, span: Sequence[RationalVec], n: int) -> "QuotientBasis":
        cols = lattice_basis_of_subspace(span, n)
        k = len(cols)
        W = extend_to_unimodular(cols, n)
        Winv = _mat_inverse_int(W)
        return cls(n, k, tuple(tuple(r) for r in W), tuple(tuple(r) for r in Winv))

    def to_y(self, x: RationalVec) -> RationalVec:
        return RationalVec(tuple(sum(Fraction(self.Winv[i][j]) * x[j] for j in range(self.n)) for i in range(self.n)))

    def to_x(self, y: RationalVec) -> RationalVec:
        return RationalVec(tuple(sum(Fraction(self.W[i][j]) * y[j] for j in range(self.n)) for i in range(self.n)))

    def transform_poly(self, P: HPolyhedron) -> HPolyhedron:
        """Rewrite P in y-coordinates (x = W y)."""
        rows = []
        for normal, rhs in P.rows:
            newn = RationalVec(tuple(sum(normal[i] * Fraction(self.W[i][j]) for i in range(self.n)) for j in range(self.n)))
            rows.append((newn, rhs))
        return HPolyhedron(tuple(rows), self.n)

    def quotient_poly(self, P: HPolyhedron) -> HPolyhedron:
        """Project a P invariant along L to the trailing n-k coordinates."""
        if self.k == self.n:
            raise ValueError("quotient is zero-dimensional")
        t = self.transform_poly(P)
        rows = []
        for normal, rhs in t.rows:
            if any(normal[j] != 0 for j in range(self.k)):
                raise ValueError("polyhedron is not invariant along the subspace")
            rows.append((RationalVec(tuple(normal[j] for j in range(self.k, self.n))), rhs))
        return HPolyhedron(tuple(rows), self.n - self.k)

    def lift_quotient_point(self, z: RationalVec) -> RationalVec:
        y = RationalVec(tuple(Fraction(0) for _ in range(self.k)) + tuple(z.coords))
        return self.to_x(y)

    def project_point(self, x: RationalVec) -> RationalVec:
        y = self.to_y(x)
        return RationalVec(tuple(y[j] for j in range(self.k, self.n)))

    def canonical_representative(self, x: RationalVec) -> RationalVec:
        """Reduce an integral point modulo the lattice Z^n intersect L."""
        y = self.to_y(x)
        y0 = RationalVec(tuple(Fraction(0) for _ in range(self.k)) + tuple(y[j] for j in range(self.k, self.n)))
        return self.to_x(y0)


def enumerate_lattice_points(
    P: HPolyhedron, cap: Optional[int] = None
) -> tuple[list[RationalVec], bool]:
    """All integer points of P, lexicographically sorted.

    With ``cap`` given, coordinates are clamped to [-cap, cap] and the
    returned flag records whether clamping cut off part of an (unbounded or
    larger) true range.  Without a cap, an unbounded direction raises.
    """
    truncated = False
    out: list[RationalVec] = []

    def rec(rows: Sequence[Row], d: int, prefix: tuple[int, ...]) -> None:
        nonlocal truncated
        bounds = coordinate_bounds(HPolyhedron(tuple(rows), d), 0)
        if bounds is None:
            return
        lo, hi = bounds
        lo_i = ceil(lo) if lo is not None else None
        hi_i = floor(hi) if hi is not None else None
        if cap is not None:
            if lo_i is None or lo_i < -cap:
                truncated = True
                lo_i = -cap
            if hi_i is None or hi_i > cap:
                truncated = True
                hi_i = cap
        else:
            if lo_i is None or hi_i is None:
                raise UnboundedInputError("unbounded lattice enumeration without a cap")
        for v in range(lo_i, hi_i + 1):
            if d == 1:
                out.append(RationalVec.from_seq(prefix + (v,)))
                continue
            sub = _fix_leading(rows, v)
            if sub is not None:
                rec(sub, d - 1, prefix + (v,))

    rec(P.rows, P.dim, ())
    return out, truncated
