"""Seeded input streams for the liftgeo benchmark.

Every input is built here with plain ``fractions.Fraction`` code; nothing in
this module imports ``liftgeo``, so a defect in the program cannot shape the
inputs it is measured on.  Bounded planar bodies are checked to be maximal
lattice-free by ``check_maximal_2d`` below; the split and the general-S wedge
are maximal by construction (see their docstrings).

A workload is an endless stream of operations.  Each operation is a dict
``{"cmd", "family", "body", "tableau"}`` whose ``body`` and ``tableau`` are
the JSON documents the CLI reads.  Streams are organised in rounds that
visit every family (and, for cover_2d, every parameter of its decks) the
same number of times, and a run stops only at the end of a round, so every
run sees the same mix however many rounds it completes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Iterator, Optional

Vec = tuple[Q, ...]
Row = tuple[Vec, Q]  # normal . x <= rhs


def fmt(v) -> str:
    return str(Q(v))


def fmt_vec(v) -> list[str]:
    return [fmt(c) for c in v]


def dot(a, b) -> Q:
    return sum((x * y for x, y in zip(a, b)), Q(0))


# ---------------------------------------------------------------------------
# Planar polygons given by rows
# ---------------------------------------------------------------------------


def meet_2d(r1: Row, r2: Row) -> Optional[Vec]:
    (a, b), (c, d) = r1, r2
    det = a[0] * c[1] - a[1] * c[0]
    if det == 0:
        return None
    return ((b * c[1] - d * a[1]) / det, (a[0] * d - c[0] * b) / det)


def polygon_vertices(rows: list[Row]) -> Optional[list[Vec]]:
    """Vertices of a bounded polygon whose every row is a facet, or None
    when the rows do not describe one (unbounded, redundant or flat)."""
    verts = set()
    for r1, r2 in itertools.combinations(rows, 2):
        p = meet_2d(r1, r2)
        if p is not None and all(dot(n, p) <= b for n, b in rows):
            verts.add(p)
    if len(verts) != len(rows):
        return None
    for n, b in rows:
        if sum(1 for p in verts if dot(n, p) == b) != 2:
            return None
    return sorted(verts)


def _int_box(verts: list[Vec]) -> Iterator[tuple[int, int]]:
    lo = [min(v[i] for v in verts) for i in range(2)]
    hi = [max(v[i] for v in verts) for i in range(2)]
    for x in range(_ceil(lo[0]), _floor(hi[0]) + 1):
        for y in range(_ceil(lo[1]), _floor(hi[1]) + 1):
            yield (x, y)


def _floor(v: Q) -> int:
    return v.numerator // v.denominator


def _ceil(v: Q) -> int:
    return -((-v.numerator) // v.denominator)


def check_maximal_2d(rows: list[Row]) -> Optional[list[Vec]]:
    """Exact maximality check of a bounded lattice-free polygon: no integer
    point in the interior and an integer point in the relative interior of
    every facet.  Returns the vertices, or None when the check fails."""
    verts = polygon_vertices(rows)
    if verts is None:
        return None
    witnessed = [False] * len(rows)
    for x in _int_box(verts):
        slack = [b - dot(n, x) for n, b in rows]
        if any(s < 0 for s in slack):
            continue
        tight = [i for i, s in enumerate(slack) if s == 0]
        if not tight:
            return None  # interior lattice point
        if len(tight) == 1:
            witnessed[tight[0]] = True
    return verts if all(witnessed) else None


def apex_facets(rows: list[Row], f: Vec) -> list[Vec]:
    """Facet normals scaled so that a_i (x - f) = 1 on facet i."""
    out = []
    for n, b in rows:
        gap = b - dot(n, f)
        if gap <= 0:
            raise ValueError("apex is not interior")
        out.append(tuple(c / gap for c in n))
    return out


def interior_point(rng: random.Random, rows: list[Row], verts: list[Vec], den: int) -> Vec:
    """A random point of the grid (1/den) Z^n strictly inside the rows.

    A fixed denominator keeps the size of the exact rationals, and so the
    cost of an operation, from varying with the draw."""
    lo = [_ceil(min(v[i] for v in verts) * den) for i in range(len(verts[0]))]
    hi = [_floor(max(v[i] for v in verts) * den) for i in range(len(verts[0]))]
    while True:
        f = tuple(Q(rng.randint(a, b), den) for a, b in zip(lo, hi))
        if all(dot(n, f) < b for n, b in rows):
            return f


def body_doc(name: str, f: Vec, facets: list[Vec], s_mode="all_integers") -> dict:
    return {
        "kind": "body",
        "name": name,
        "dimension": len(f),
        "s_mode": s_mode,
        "f": fmt_vec(f),
        "facets": [fmt_vec(a) for a in facets],
    }


def _rand_rat(rng: random.Random, lo: Q, hi: Q, max_den: int) -> Q:
    """A rational strictly between lo and hi with denominator <= max_den."""
    while True:
        d = rng.randint(1, max_den)
        k_lo = _floor(lo * d) + 1
        k_hi = _ceil(hi * d) - 1
        if k_lo <= k_hi:
            return Q(rng.randint(k_lo, k_hi), d)


# ---------------------------------------------------------------------------
# Body families; each function returns a body document with a seeded apex.
# ---------------------------------------------------------------------------


APEX_DEN = 12


def _bounded(rng: random.Random, name: str, rows: list[Row]) -> dict:
    verts = check_maximal_2d(rows)
    if verts is None:
        raise ValueError(f"{name}: rows are not a maximal lattice-free polygon")
    f = interior_point(rng, rows, verts, APEX_DEN)
    return body_doc(name, f, apex_facets(rows, f))


def split_body(rng: random.Random) -> dict:
    """0 <= x1 <= 1: maximal by construction (both lines carry lattice
    points throughout); apex 0 < f1 < 1 and any f2."""
    f = (Q(rng.randint(1, APEX_DEN - 1), APEX_DEN), Q(rng.randint(1 - APEX_DEN, APEX_DEN - 1), APEX_DEN))
    rows = [((Q(1), Q(0)), Q(1)), ((Q(-1), Q(0)), Q(0))]
    return body_doc("split", f, apex_facets(rows, f))


def triangle_integer_vertices_body(rng: random.Random) -> dict:
    """conv{(0,0), (2,0), (0,2)} with a random interior apex."""
    rows = [((Q(-1), Q(0)), Q(0)), ((Q(0), Q(-1)), Q(0)), ((Q(1), Q(1)), Q(2))]
    return _bounded(rng, "triangle_integer_vertices", rows)


def triangle_type2_body(rng: random.Random, h: Q) -> dict:
    """Base through (0,0) and (1,0), slanted facets through (0,1) and (1,1),
    top vertex (1/2, h) for 1 < h < 2."""
    s = 2 * h - 2
    rows = [((Q(0), Q(-1)), Q(0)), ((-s, Q(1)), Q(1)), ((s, Q(1)), s + 1)]
    return _bounded(rng, "triangle_type2", rows)


def triangle_generic_body(rng: random.Random, kappa: Q, tau: Q, nu: Q) -> dict:
    """Facet lines through (0,0), (1,0) and (0,1) with positive slopes
    kappa, tau, nu; the maximality check rejects parameters that leave an
    interior lattice point or a facet without one."""
    rows = [((-nu, Q(-1)), Q(0)), ((Q(1), kappa), Q(1)), ((-tau, Q(1)), Q(1))]
    return _bounded(rng, "triangle_generic", rows)


def diamond_body(rng: random.Random) -> dict:
    """|x1 - 1/2| + |x2 - 1/2| <= 1, one lattice point inside each facet."""
    rows = [
        ((Q(1), Q(1)), Q(2)),
        ((Q(1), Q(-1)), Q(1)),
        ((Q(-1), Q(1)), Q(1)),
        ((Q(-1), Q(-1)), Q(0)),
    ]
    return _bounded(rng, "quadrilateral_generic", rows)


WEDGE_S_MODE = {"polyhedral": {"C": [["-1", "0"]], "d": ["0"]}}


def wedge_body(rng: random.Random) -> dict:
    """Wedge s x1 - x2 <= 0, s x1 + x2 <= 1 opening towards x1 < 0, for
    S = Z^2 cap {x1 >= 0}.  For any s > 0 it is S-free (an S-point with
    x1 = k needs an integer strictly between k s and 1 - k s) and maximal
    ((0,0) and (0,1) lie inside its two facets); the apex (0, f2) with
    0 < f2 < 1 is interior and not in S."""
    s = _rand_rat(rng, Q(0), Q(3), 6)
    f = (Q(0), Q(rng.randint(1, APEX_DEN - 1), APEX_DEN))
    rows = [((s, Q(-1)), Q(0)), ((s, Q(1)), Q(1))]
    return body_doc("wedge_generalS", f, apex_facets(rows, f), WEDGE_S_MODE)


def simplex_body(rng: random.Random, abc: tuple[int, int, int]) -> dict:
    """conv{0, a e1, b e2, c e3} with 1/a + 1/b + 1/c = 1: (1,1,1) lies
    inside the long facet, every coordinate facet holds lattice points in
    its relative interior, and no lattice point is interior."""
    a, b, c = abc
    verts = [(Q(0), Q(0), Q(0)), (Q(a), Q(0), Q(0)), (Q(0), Q(b), Q(0)), (Q(0), Q(0), Q(c))]
    rows = [
        ((Q(-1), Q(0), Q(0)), Q(0)),
        ((Q(0), Q(-1), Q(0)), Q(0)),
        ((Q(0), Q(0), Q(-1)), Q(0)),
        ((Q(1, a), Q(1, b), Q(1, c)), Q(1)),
    ]
    f = interior_point(rng, rows, verts, 6)
    return body_doc(f"simplex_{a}_{b}_{c}", f, apex_facets(rows, f))


def random_ray(rng: random.Random, n: int = 2, max_den: int = 12) -> Vec:
    """A nonzero ray with coordinates in [-2, 2] and denominators <= max_den."""
    while True:
        r = []
        for _ in range(n):
            d = rng.randint(1, max_den)
            r.append(Q(rng.randint(-2 * d, 2 * d), d))
        if any(r):
            return tuple(r)


def tableau_doc(f: list[str], n_cont: int, n_int: int, rng: random.Random) -> dict:
    cols = []
    for i in range(max(n_cont, n_int)):
        if i < n_cont:
            cols.append({"name": f"s{i + 1}", "kind": "continuous", "ray": fmt_vec(random_ray(rng))})
        if i < n_int:
            cols.append({"name": f"y{i + 1}", "kind": "integer", "ray": fmt_vec(random_ray(rng))})
    return {"kind": "tableau_row", "f": list(f), "columns": cols}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _cut_op(body: dict, rng: random.Random, n_cont: int, n_int: int) -> dict:
    return {
        "cmd": "cut",
        "family": body["name"],
        "body": body,
        "tableau": tableau_doc(body["f"], n_cont, n_int, rng),
    }


def _random_generic_triangle(rng: random.Random) -> dict:
    while True:
        kappa, tau, nu = (_rand_rat(rng, Q(0), Q(2), 6) for _ in range(3))
        rows = [((-nu, Q(-1)), Q(0)), ((Q(1), kappa), Q(1)), ((-tau, Q(1)), Q(1))]
        if check_maximal_2d(rows) is not None:
            return triangle_generic_body(rng, kappa, tau, nu)


def cut_zn_round(rng: random.Random) -> list[dict]:
    bodies = [
        split_body(rng),
        triangle_integer_vertices_body(rng),
        triangle_type2_body(rng, _rand_rat(rng, Q(1), Q(2), 12)),
        _random_generic_triangle(rng),
        diamond_body(rng),
    ]
    return [_cut_op(b, rng, 8, 8) for b in bodies]


def cut_general_s_round(rng: random.Random) -> list[dict]:
    return [_cut_op(wedge_body(rng), rng, 0, 4)]


# Parameter decks for cover_2d.  The cost of a cover call grows with the
# number of lattice points in B and spans a factor of ten over the families'
# parameter ranges, so every round deals each deck once (in a seeded order):
# runs then differ in apex and order, not in their mix of body sizes.
# nu < 1 makes the generic triangle not_unique.  The tail of a round is
# type2 with h = 9/8 (ten base lattice points, about 1.5 s, 1 of 16
# operations) above the generic triangle (2/3, 1/2, 1) (about 0.6 s, dealt
# twice, 2 of 16).  p90 then falls inside the second tier, whose cost varies
# little with the apex, for any run of 3 to 8 rounds; with one operation of
# each tier per round it fell on the boundary between tiers of different
# cost and moved by a quarter from seed to seed.
TYPE2_H = (Q(9, 8), Q(5, 4), Q(3, 2), Q(7, 4))
GENERIC_KTN = (
    (Q(1, 2), Q(1, 2), Q(1, 2)),
    (Q(1, 3), Q(2), Q(1, 3)),
    (Q(2, 3), Q(1, 2), Q(1)),
    (Q(2, 3), Q(1, 2), Q(1)),
)


def cover_2d_round(rng: random.Random) -> list[dict]:
    hs = rng.sample(TYPE2_H, len(TYPE2_H))
    ktns = rng.sample(GENERIC_KTN, len(GENERIC_KTN))
    bodies = []
    for h, ktn in zip(hs, ktns):
        bodies += [
            triangle_integer_vertices_body(rng),
            triangle_type2_body(rng, h),
            triangle_generic_body(rng, *ktn),
            diamond_body(rng),
        ]
    return [{"cmd": "cover", "family": b["name"], "body": b, "tableau": None} for b in bodies]


SIMPLEX_SHAPES = ((3, 3, 3), (2, 3, 6), (2, 4, 4))


def regions_3d_round(rng: random.Random) -> list[dict]:
    out = []
    for abc in SIMPLEX_SHAPES:
        b = simplex_body(rng, abc)
        out.append({"cmd": "regions", "family": b["name"], "body": b, "tableau": None})
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_round: Callable[[random.Random], list[dict]]
    # A run makes at least this many operations (whole rounds), and the
    # stdout digest covers exactly these, so every run of the workload has
    # the same minimum sample and the digest is comparable across runs.
    min_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cut_zn",
            # The per-row solver path for S = Z^2: the maximality gate,
            # psi on continuous columns and the residue-bounded pi* scan on
            # integer columns.  Lattice enumeration and gauge work dominate
            # and no LP runs inside pi*, so it is the control for
            # geom-kernel changes.  Work is shared within a row (one body)
            # but not across rows: every row has a fresh apex.
            "cut rows on S = Z^2 bodies (split, three triangle families, diamond): 8 integer and 8 continuous columns per row",
            cut_zn_round,
            100,
        ),
        Workload(
            "cut_general_s",
            # The only stream through the general-S lifting path: recession
            # LP, continuous-min certificate and a lattice_points_in_body call
            # on every column.  Random slope and apex keep rows unshared.
            "cut rows with 4 integer columns on general-S wedges: recession LP, tail certificate, lattice points per column",
            cut_general_s_round,
            40,
        ),
        Workload(
            "cover_2d",
            # The unique-lifting decision on fresh bounded bodies.  The mix
            # has unique and not_unique verdicts, so the witness search runs
            # too; the LP kernel, region construction and covering sweep
            # dominate, with a heavy tail that op_p90_ms exposes.
            "cover on fresh maximal bounded 2-D bodies (four families), mixing unique and not_unique verdicts",
            cover_2d_round,
            # Four rounds always: with three in slow periods and four in
            # fast ones, p90 sat higher in the tail exactly when the machine
            # was slow, which widened its spread.
            64,
        ),
        Workload(
            "regions_3d",
            # Fourier-Motzkin on 4-variable, 12-row systems and O(pieces^2)
            # dedup comparisons that never match; the 3-D lifting_region
            # target is measured here and ops_per_s is the headline.
            "regions on 3-D lattice-free simplices with random interior apex: Fourier-Motzkin and piece dedup",
            regions_3d_round,
            # At 3 to 5 s an operation, --seconds alone would give runs of
            # 6 or 9 samples; three rounds always, so p50 and p90 are the
            # same order statistics in every run.
            9,
        ),
    )
}


def stream(workload: str, seed: int) -> Iterator[dict]:
    """The workload's endless, seed-determined operation stream."""
    w = WORKLOADS[workload]
    rng = random.Random(f"liftgeo-bench:{workload}:{seed}")
    while True:
        yield from w.make_round(rng)


def round_size(workload: str) -> int:
    return len(WORKLOADS[workload].make_round(random.Random(0)))
