"""Exact-rational document formats for bodies, tableau rows and reports.

All rationals travel as strings like "5/3" or "-2"; no decimal notation
appears in any machine-readable document.  Output is canonical JSON
(sorted keys, two-space indent, trailing newline) so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .bodies import SDescriptor, SFreeBody, body_from_facets, body_from_vertices_2d
from .errors import ParseError
from .geom import RationalVec


def format_rat(v: Fraction) -> str:
    return str(Fraction(v))


def format_vec(v: RationalVec) -> list[str]:
    return [format_rat(c) for c in v.coords]


_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rat(value: Any, where: str = "value") -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{where}: booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RAT_RE.match(value.strip()):
            raise ParseError(f"{where}: {value!r} is not a 'p/q' rational literal")
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise ParseError(f"{where}: {value!r} is not an exact rational") from exc
    raise ParseError(f"{where}: expected an integer or a 'p/q' string, got {value!r}")


def parse_vec(values: Any, where: str = "vector") -> RationalVec:
    if not isinstance(values, (list, tuple)) or not values:
        raise ParseError(f"{where}: expected a nonempty list of rationals")
    return RationalVec(tuple(parse_rat(v, f"{where}[{i}]") for i, v in enumerate(values)))


def parse_ray_argument(text: str) -> RationalVec:
    """Comma-separated rational coordinates, e.g. '3,1' or '1/4,-2/3'."""
    parts = [p.strip() for p in text.split(",")]
    return RationalVec(tuple(parse_rat(p, f"ray[{i}]") for i, p in enumerate(parts)))


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    return doc


# ---------------------------------------------------------------------------
# Body spec files
# ---------------------------------------------------------------------------


def body_to_doc(body: SFreeBody, name: str) -> dict:
    doc: dict[str, Any] = {
        "kind": "body",
        "name": name,
        "dimension": body.n,
        "f": format_vec(body.f),
        "facets": [format_vec(a) for a in body.facets],
    }
    if body.s.all_integers:
        doc["s_mode"] = "all_integers"
    else:
        doc["s_mode"] = {
            "polyhedral": {
                "C": [format_vec(c) for c in body.s.c_rows],
                "d": [format_rat(v) for v in body.s.d],
            }
        }
    return doc


def body_from_doc(doc: dict) -> tuple[str, SFreeBody]:
    if doc.get("kind") not in (None, "body"):
        raise ParseError(f"not a body document (kind={doc.get('kind')!r})")
    name = doc.get("name", "unnamed")
    if "dimension" not in doc:
        raise ParseError("missing 'dimension'")
    n = doc["dimension"]
    if not isinstance(n, int) or n < 1:
        raise ParseError("'dimension' must be a positive integer")
    if "f" not in doc:
        raise ParseError("missing 'f'")
    f = parse_vec(doc["f"], "f")
    if f.dim != n:
        raise ParseError(f"f has dimension {f.dim}, expected {n}")
    mode = doc.get("s_mode", "all_integers")
    if mode == "all_integers":
        s = SDescriptor.integers()
    elif isinstance(mode, dict) and "polyhedral" in mode:
        sub = mode["polyhedral"]
        c_rows = [parse_vec(row, f"C[{i}]") for i, row in enumerate(sub.get("C", []))]
        d = [parse_rat(v, f"d[{i}]") for i, v in enumerate(sub.get("d", []))]
        for row in c_rows:
            if row.dim != n:
                raise ParseError("C row dimension mismatch")
        s = SDescriptor.polyhedral(c_rows, d, n=n)
    else:
        raise ParseError(f"unrecognized s_mode {mode!r}")
    has_facets = "facets" in doc
    has_vertices = "vertices" in doc
    if has_facets == has_vertices:
        raise ParseError("exactly one of 'facets' or 'vertices' must be given")
    if has_facets:
        facets = [parse_vec(row, f"facets[{i}]") for i, row in enumerate(doc["facets"])]
        for a in facets:
            if a.dim != n:
                raise ParseError("facet dimension mismatch")
        return name, body_from_facets(f, facets, s)
    vertices = [parse_vec(row, f"vertices[{i}]") for i, row in enumerate(doc["vertices"])]
    rays = [parse_vec(row, f"rays[{i}]") for i, row in enumerate(doc.get("rays", []))]
    return name, body_from_vertices_2d(vertices, rays, f, s)


# ---------------------------------------------------------------------------
# Tableau row files
# ---------------------------------------------------------------------------


def tableau_from_doc(doc: dict) -> tuple[RationalVec, list[tuple[str, str, RationalVec]]]:
    if doc.get("kind") not in (None, "tableau_row"):
        raise ParseError(f"not a tableau-row document (kind={doc.get('kind')!r})")
    if "f" not in doc:
        raise ParseError("missing 'f'")
    f = parse_vec(doc["f"], "f")
    columns = doc.get("columns")
    if not isinstance(columns, list) or not columns:
        raise ParseError("missing or empty 'columns'")
    out = []
    for i, col in enumerate(columns):
        if not isinstance(col, dict):
            raise ParseError(f"columns[{i}] must be an object")
        kind = col.get("kind")
        if kind not in ("continuous", "integer"):
            raise ParseError(f"columns[{i}].kind must be 'continuous' or 'integer'")
        ray = parse_vec(col.get("ray"), f"columns[{i}].ray")
        if ray.dim != f.dim:
            raise ParseError(f"columns[{i}].ray dimension mismatch")
        name = col.get("name", f"col{i}")
        out.append((str(name), kind, ray))
    return f, out

