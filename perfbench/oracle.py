"""Independent checks of the CLI reports the benchmark produces.

Nothing here imports ``liftgeo``: bodies are read back from the JSON
documents the CLI was given, and every quantity is recomputed from the
definitions with exact ``Fraction`` or integer-scaled arithmetic.  Each
``check_*`` function returns a list of problems; an empty list means the
report passed.

- ``cut``: continuous coefficients equal psi(r); every integer coefficient
  lies between the grid supremum of (1 - psi(x - f - t r)) / t over S-points
  x and multiplicities t, and psi(r).
- ``cover``: the verdict agrees with an independently computed covered
  fraction, and an uncovered witness lies in no integer translate of any
  forcing region.
- ``regions``: on sampled rays, membership in a piece holds exactly when
  the forcing-region identity psi(r) + psi(x - f - r) = psi(x - f) holds.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import Optional

Vec = tuple[Q, ...]

# Multiplicities scanned by the grid oracle.  For S = Z^n, candidates at
# t and t + q (q the ray's common denominator) differ by an integer shift of
# x and the larger t only divides by more, so t <= q is exhaustive; the cap
# keeps the check cheaper than the operation it checks.
GRID_T_CAP = 24


def dot(a, b) -> Q:
    return sum((x * y for x, y in zip(a, b)), Q(0))


def _floor(v: Q) -> int:
    return v.numerator // v.denominator


def _ceil(v: Q) -> int:
    return -((-v.numerator) // v.denominator)


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def parse_vec(v) -> Vec:
    return tuple(Q(c) for c in v)


@dataclass(frozen=True)
class Body:
    f: Vec
    facets: tuple[Vec, ...]
    s_rows: tuple[tuple[Vec, Q], ...]  # S = Z^n cap {c . x <= d}

    @property
    def n(self) -> int:
        return len(self.f)

    def psi(self, r) -> Q:
        return max(dot(a, r) for a in self.facets)


def parse_body(doc: dict) -> Body:
    s_rows: tuple = ()
    mode = doc.get("s_mode", "all_integers")
    if mode != "all_integers":
        poly = mode["polyhedral"]
        s_rows = tuple((parse_vec(c), Q(d)) for c, d in zip(poly["C"], poly["d"]))
    return Body(parse_vec(doc["f"]), tuple(parse_vec(a) for a in doc["facets"]), s_rows)


# ---------------------------------------------------------------------------
# Geometry of B itself
# ---------------------------------------------------------------------------


def _solve(rows: list[tuple[Vec, Q]]) -> Optional[Vec]:
    """Unique solution of the square system normal . x = rhs (Cramer)."""
    n = len(rows)
    m = [list(a) + [b] for a, b in rows]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                k = m[i][col] / m[col][col]
                m[i] = [x - k * y for x, y in zip(m[i], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def body_vertices(body: Body) -> list[Vec]:
    """Vertices of a bounded B = {x : a_i (x - f) <= 1}."""
    rows = [(a, 1 + dot(a, body.f)) for a in body.facets]
    out = set()
    for combo in itertools.combinations(rows, body.n):
        p = _solve(list(combo))
        if p is not None and all(dot(a, p) <= b for a, b in rows):
            out.add(p)
    return sorted(out)


def x1_range(body: Body) -> tuple[Optional[Q], Optional[Q]]:
    """Exact range of x_1 over B - f in the plane (None: unbounded side),
    by eliminating x_2 from the rows a_i d <= 1."""
    lo: Optional[Q] = None
    hi: Optional[Q] = None

    def bound(c: Q, b: Q) -> None:
        nonlocal lo, hi
        if c > 0:
            hi = b / c if hi is None else min(hi, b / c)
        elif c < 0:
            lo = b / c if lo is None else max(lo, b / c)

    for a in body.facets:
        if a[1] == 0:
            bound(a[0], Q(1))
    for a, b in itertools.permutations(body.facets, 2):
        if a[1] > 0 > b[1]:
            # (-b2) * (a . d <= 1) + a2 * (b . d <= 1)
            bound(-b[1] * a[0] + a[1] * b[0], a[1] - b[1])
    return lo, hi


def lattice_points(body: Body) -> list[tuple[int, ...]]:
    """Integer points of a bounded B (closed)."""
    verts = body_vertices(body)
    ranges = [
        range(_ceil(min(v[i] for v in verts)), _floor(max(v[i] for v in verts)) + 1)
        for i in range(body.n)
    ]
    return [
        x
        for x in itertools.product(*ranges)
        if all(dot(a, x) - dot(a, body.f) <= 1 for a in body.facets)
    ]


# ---------------------------------------------------------------------------
# cut
# ---------------------------------------------------------------------------


def _common_den(vals) -> int:
    d = 1
    for v in vals:
        d = _lcm(d, Q(v).denominator)
    return d


def grid_sup(body: Body, r: Vec, t_max: int) -> Q:
    """max of (1 - psi(x - f - t r)) / t over S-points x of a box and
    1 <= t <= t_max, in the plane, with integer-scaled arithmetic.

    x_1 runs over the box on which psi(x - f - t r) <= 1 can hold (widened
    by one, and clipped below by S); for each x_1 the exact integer
    minimiser of the convex piecewise-linear map x_2 -> psi is among the
    floors and ceilings of the crossings of two facet lines.
    """
    if body.n != 2:
        raise ValueError("grid oracle is planar")
    f, facets = body.f, body.facets
    M = _common_den([c for a in facets for c in a] + [dot(a, f) for a in facets] + [dot(a, r) for a in facets])
    A = [(int(a[0] * M), int(a[1] * M)) for a in facets]
    C = [int(dot(a, f) * M) for a in facets]
    G = [int(dot(a, r) * M) for a in facets]
    lo1, hi1 = x1_range(body)
    s_lo: Optional[int] = None
    for c, d in body.s_rows:
        if c[1] == 0 and c[0] < 0:
            v = _ceil(d / c[0])
            s_lo = v if s_lo is None else max(s_lo, v)
    if hi1 is None:
        raise ValueError("grid oracle needs B bounded above in x_1")
    best_num, best_den = None, 1
    k = len(A)
    A1 = [a[1] for a in A]
    S = []  # the rows of S, scaled to integers
    for c, d in body.s_rows:
        m = _common_den([*c, d])
        S.append((int(c[0] * m), int(c[1] * m), int(d * m)))
    # facet pairs (p, q, den > 0): the crossing lies at x2 = (icpt[q] - icpt[p]) / den
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            den = A1[i] - A1[j]
            if den > 0:
                pairs.append((i, j, den))
            elif den < 0:
                pairs.append((j, i, -den))
    # the x_1 range of f + t r + (B - f), scaled by D to integers
    D = _common_den([f[0], r[0], hi1] + ([] if lo1 is None else [lo1]))
    F1, R1, HI1 = int(f[0] * D), int(r[0] * D), int(hi1 * D)
    LO1 = None if lo1 is None else int(lo1 * D)
    for t in range(1, t_max + 1):
        s1 = F1 + t * R1
        top = -((-(s1 + HI1)) // D) + 1
        if lo1 is not None:
            bot = (s1 + LO1) // D - 1
            if s_lo is not None:
                bot = max(bot, s_lo)
                top = max(top, bot)
        elif s_lo is not None:
            bot = s_lo
            top = max(top, bot)
        else:
            raise ValueError("grid oracle needs a finite x_1 range")
        base = [C[i] + t * G[i] for i in range(k)]
        for x1 in range(bot, top + 1):
            icpt = [A[i][0] * x1 - base[i] for i in range(k)]
            cands = set()
            for p, q, den in pairs:
                num = icpt[q] - icpt[p]
                cands.add(num // den)
                cands.add(-((-num) // den))
            if not cands:
                if any(a1 != 0 for a1 in A1):
                    raise ValueError("psi unbounded below along x_2")
                cands.add(0)
            for x2 in cands:
                if S and not all(c1 * x1 + c2 * x2 <= d for c1, c2, d in S):
                    continue
                P = max([c + a1 * x2 for c, a1 in zip(icpt, A1)])
                num, den = M - P, M * t
                if best_num is None or num * best_den > best_num * den:
                    best_num, best_den = num, den
    if best_num is None:
        raise ValueError("empty grid")
    return Q(best_num, best_den)


def grid_t_max(body: Body, r: Vec) -> int:
    if body.s_rows:
        return GRID_T_CAP
    return min(_common_den(r), GRID_T_CAP)


def check_cut(body_doc: dict, tableau_doc: dict, text: str, code) -> tuple[list[str], int]:
    """Problems in a cut report, and how many integer coefficients the grid
    oracle reproduces exactly (its tightness)."""
    if code != 0:
        return [f"exit code {code}, expected 0"], 0
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"], 0
    body = parse_body(body_doc)
    want = tableau_doc["columns"]
    got = report.get("columns", [])
    if [(c["name"], c["kind"], c["ray"]) for c in want] != [
        (c.get("name"), c.get("kind"), c.get("ray")) for c in got
    ]:
        return ["report columns differ from the tableau row"], 0
    problems = []
    tight = 0
    for col in got:
        r = parse_vec(col["ray"])
        coeff = Q(col["coefficient"])
        cont = body.psi(r)
        if col["kind"] == "continuous":
            if coeff != cont:
                problems.append(f"{col['name']}: coefficient {coeff} != psi(r) = {cont}")
            continue
        if coeff > cont:
            problems.append(f"{col['name']}: coefficient {coeff} above psi(r) = {cont}")
        sup = grid_sup(body, r, grid_t_max(body, r))
        if coeff < sup:
            problems.append(f"{col['name']}: coefficient {coeff} below grid supremum {sup}")
        elif coeff == sup:
            tight += 1
    return problems, tight


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------


def _cross(o, a, b) -> Q:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _ccw(points: list[Vec]) -> list[Vec]:
    """Vertices of a convex polygon in counterclockwise order (exact)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    cx = sum((p[0] for p in pts), Q(0)) / len(pts)
    cy = sum((p[1] for p in pts), Q(0)) / len(pts)

    def half(p) -> int:
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def cmp(p, q) -> int:
        hp, hq = half(p), half(q)
        if hp != hq:
            return hp - hq
        c = _cross((cx, cy), p, q)
        return -1 if c > 0 else (1 if c < 0 else 0)

    return sorted(pts, key=functools.cmp_to_key(cmp))


def _area(poly: list[Vec]) -> Q:
    s = Q(0)
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        s += p[0] * q[1] - p[1] * q[0]
    return abs(s) / 2


def region_polygon(body: Body, x) -> list[Vec]:
    """Vertices of R(x) = {r : a_i r + a_j (w - r) <= psi(w)}, w = x - f."""
    w = tuple(Q(c) - fc for c, fc in zip(x, body.f))
    target = body.psi(w)
    rows = [
        (tuple(ai - aj for ai, aj in zip(a, b)), target - dot(b, w))
        for a, b in itertools.permutations(body.facets, 2)
    ]
    verts = []
    for (n1, b1), (n2, b2) in itertools.combinations(rows, 2):
        det = n1[0] * n2[1] - n1[1] * n2[0]
        if det == 0:
            continue
        p = ((b1 * n2[1] - b2 * n1[1]) / det, (n1[0] * b2 - n2[0] * b1) / det)
        if all(dot(n, p) <= b for n, b in rows):
            verts.append(p)
    return _ccw(verts)


def _clip(poly: list[Vec], axis: int, bound: Q, keep_below: bool) -> list[Vec]:
    """Sutherland-Hodgman against the half-plane x_axis <= bound (or >=)."""
    def inside(p) -> bool:
        return p[axis] <= bound if keep_below else p[axis] >= bound

    out = []
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        if inside(p):
            out.append(p)
        if inside(p) != inside(q):
            k = (bound - p[axis]) / (q[axis] - p[axis])
            out.append((p[0] + k * (q[0] - p[0]), p[1] + k * (q[1] - p[1])))
    return out


def cell_fragments(polys: list[list[Vec]]) -> list[list[Vec]]:
    """Every integer translate of every polygon, clipped to [0,1]^2, with
    positive area."""
    frags = []
    for poly in polys:
        xs = [p[0] for p in poly]
        ys = [p[1] for p in poly]
        for wx in range(_ceil(-max(xs)), _floor(1 - min(xs)) + 1):
            for wy in range(_ceil(-max(ys)), _floor(1 - min(ys)) + 1):
                cur = [(p[0] + wx, p[1] + wy) for p in poly]
                for axis in (0, 1):
                    cur = _clip(cur, axis, Q(0), False) if len(cur) >= 3 else cur
                    cur = _clip(cur, axis, Q(1), True) if len(cur) >= 3 else cur
                cur = _ccw(cur)
                if len(cur) >= 3 and _area(cur) > 0:
                    frags.append(cur)
    return frags


def union_area(polys: list[list[Vec]]) -> Q:
    """Exact area of a union of convex polygons by vertical slabs.

    Between consecutive x-coordinates of vertices and edge crossings the
    covered length is linear in x, so its midpoint value times the slab
    width is the slab's exact area.
    """
    edges = []
    xs = set()
    for poly in polys:
        for i, p in enumerate(poly):
            q = poly[(i + 1) % len(poly)]
            xs.add(p[0])
            if p[0] != q[0]:
                edges.append((p, q) if p[0] < q[0] else (q, p))
    for (p1, q1), (p2, q2) in itertools.combinations(edges, 2):
        if q1[0] <= p2[0] or q2[0] <= p1[0]:
            continue
        d1 = (q1[0] - p1[0], q1[1] - p1[1])
        d2 = (q2[0] - p2[0], q2[1] - p2[1])
        det = d1[0] * d2[1] - d1[1] * d2[0]
        if det == 0:
            continue
        rx, ry = p2[0] - p1[0], p2[1] - p1[1]
        s = (rx * d2[1] - ry * d2[0]) / det
        u = (rx * d1[1] - ry * d1[0]) / det
        if 0 <= s <= 1 and 0 <= u <= 1:
            xs.add(p1[0] + s * d1[0])
    cuts = sorted(xs)
    spans = [(min(p[0] for p in poly), max(p[0] for p in poly), poly) for poly in polys]
    total = Q(0)
    for x0, x1 in zip(cuts, cuts[1:]):
        xm = (x0 + x1) / 2
        intervals = []
        for lo, hi, poly in spans:
            if not lo < xm < hi:
                continue
            ys = []
            for i, p in enumerate(poly):
                q = poly[(i + 1) % len(poly)]
                if (p[0] - xm) * (q[0] - xm) < 0:
                    ys.append(p[1] + (q[1] - p[1]) * (xm - p[0]) / (q[0] - p[0]))
            intervals.append((min(ys), max(ys)))
        intervals.sort()
        length = Q(0)
        cur_lo = cur_hi = None
        for a, b in intervals:
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    length += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            length += cur_hi - cur_lo
        total += (x1 - x0) * length
    return total


def covered_fraction(body: Body) -> Q:
    """Area of (union of forcing regions + Z^2) within the unit cell, for a
    bounded planar body with S = Z^2."""
    pieces = [region_polygon(body, x) for x in lattice_points(body)]
    pieces = [p for p in pieces if len(p) >= 3 and _area(p) > 0]
    return union_area(cell_fragments(pieces))


def forcing_identity(body: Body, x, r) -> bool:
    w = tuple(Q(c) - fc for c, fc in zip(x, body.f))
    return body.psi(r) + body.psi(tuple(wi - ri for wi, ri in zip(w, r))) == body.psi(w)


def witness_problem(body: Body, p: Vec) -> Optional[str]:
    """None when p lies in no integer translate of any forcing region.

    A ray of R(x) has psi(r) <= psi(x - f) <= 1, so it lies in B - f; the
    translates w searched are exactly those that can bring p there."""
    verts = body_vertices(body)
    box = []
    for i in range(2):
        lo = min(v[i] for v in verts) - body.f[i]
        hi = max(v[i] for v in verts) - body.f[i]
        box.append(range(_ceil(p[i] - hi) - 1, _floor(p[i] - lo) + 2))
    pts = lattice_points(body)
    for w in itertools.product(*box):
        r = (p[0] - w[0], p[1] - w[1])
        for x in pts:
            if forcing_identity(body, x, r):
                return f"witness {p} is covered: p - {w} lies in R({x})"
    return None


def check_cover(body_doc: dict, text: str, code) -> list[str]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"exit code {code}; stdout is not JSON: {exc}"]
    body = parse_body(body_doc)
    verdict = report.get("verdict")
    frac = Q(report.get("covered_fraction", "-1"))
    problems = []
    expected_code = {"unique": 0, "not_unique": 1}.get(verdict)
    if code != expected_code:
        problems.append(f"exit code {code} with verdict {verdict!r}")
    if (verdict == "unique") != (frac == 1):
        problems.append(f"verdict {verdict!r} with covered fraction {frac}")
    oracle_frac = covered_fraction(body)
    if frac != oracle_frac:
        problems.append(f"covered fraction {frac}, oracle {oracle_frac}")
    if verdict == "not_unique":
        violation = report.get("violation")
        if not violation or not Q(violation["lhs"]) < 1:
            problems.append(f"not_unique without a violating pair lhs < 1: {violation!r}")
        if "uncovered_witness" not in report:
            problems.append("not_unique without an uncovered witness")
        else:
            msg = witness_problem(body, parse_vec(report["uncovered_witness"]))
            if msg:
                problems.append(msg)
    return problems


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def sample_rays(body: Body, pts: list, rng: random.Random, count: int) -> list[Vec]:
    """Half on segments [0, x - f] (always inside R(x)), nudged, and half
    uniform over the bounding box of B - f."""
    verts = body_vertices(body)
    lo = [min(v[i] for v in verts) - body.f[i] for i in range(body.n)]
    hi = [max(v[i] for v in verts) - body.f[i] for i in range(body.n)]
    rays = []
    for k in range(count):
        if k % 2 == 0:
            x = rng.choice(pts)
            t = Q(rng.randint(0, 8), 8)
            nudge = [Q(rng.randint(-1, 1), 32) for _ in range(body.n)]
            rays.append(tuple(t * (Q(c) - fc) + e for c, fc, e in zip(x, body.f, nudge)))
        else:
            rays.append(tuple(lo[i] + (hi[i] - lo[i]) * Q(rng.randint(0, 64), 64) for i in range(body.n)))
    return rays


def check_regions(body_doc: dict, text: str, code, rng: random.Random, count: int = 40) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    body = parse_body(body_doc)
    pts = lattice_points(body)
    pieces = [
        (tuple(int(Q(c)) for c in p["source_x"]), [(parse_vec(n), Q(b)) for n, b in p["rows"]])
        for p in report.get("pieces", [])
    ]
    problems = [f"piece source {x} is not a lattice point of B" for x, _ in pieces if x not in pts]
    if not pieces:
        problems.append("no pieces")
    for r in sample_rays(body, pts, rng, count):
        inside = [all(dot(n, r) <= b for n, b in rows) for _, rows in pieces]
        for (x, _), ins in zip(pieces, inside):
            if ins != forcing_identity(body, x, r):
                problems.append(f"ray {r}: membership in piece of {x} is {ins}, identity disagrees")
        forced = any(forcing_identity(body, x, r) for x in pts)
        if any(inside) != forced:
            problems.append(f"ray {r}: covered by pieces {any(inside)}, forced by some x {forced}")
        if len(problems) > 5:
            break
    return problems
