"""File-driven front end.

Subcommands: psi | cut | regions | cover | catalog | verify.

Exit codes: 0 success (unique / maximal), 1 not unique, 2 parse error,
3 validation or unsupported input, 4 non-maximal body without override,
5 inconclusive search.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .bodies import SFreeBody, verify_maximal_sfree
from .catalog import catalog_body, catalog_names
from .covering import covering_decision, non_uniqueness_witness
from .errors import (
    DegenerateBodyError,
    DimensionError,
    EmptyInputError,
    EmptySError,
    InconclusiveSearchError,
    InvalidInputError,
    ParseError,
    UnboundedInputError,
    UnsupportedSError,
)
from .gauge import psi
from .geom import RationalVec, affine_dim, vertices_2d
from .lifting import pi_star, pi_star_periodic
from .regions import lifting_region
from .serialize import (
    body_from_doc,
    body_to_doc,
    dumps_doc,
    format_rat,
    format_vec,
    load_json,
    parse_ray_argument,
    tableau_from_doc,
)
from .svgplot import render_regions_svg

EXIT_OK = 0
EXIT_NOT_UNIQUE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NOT_MAXIMAL = 4
EXIT_INCONCLUSIVE = 5

_VALIDATION_ERRORS = (
    DimensionError,
    EmptyInputError,
    UnboundedInputError,
    InvalidInputError,
    UnsupportedSError,
    EmptySError,
    DegenerateBodyError,
)


def _default_window() -> int:
    raw = os.environ.get("LIFTGEO_DEFAULT_WINDOW", "10")
    try:
        return int(raw)
    except ValueError:
        return 10


def _load_body(path: str) -> tuple[str, SFreeBody]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None
    try:
        return body_from_doc(load_json(text))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _emit(doc: dict, json_path: Optional[str]) -> None:
    text = dumps_doc(doc)
    sys.stdout.write(text)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _maximality_gate(body: SFreeBody, window: int, override: bool) -> Optional[int]:
    """Returns an exit code when the gate refuses, else None."""
    report = verify_maximal_sfree(body, window)
    if report.verdict == "maximal" or override:
        return None
    if report.verdict == "inconclusive":
        sys.stderr.write(
            "maximality inconclusive within window; rerun with a larger "
            "--window or pass --override-maximality\n"
        )
        return EXIT_INCONCLUSIVE
    sys.stderr.write("body is not maximal S-free; pass --override-maximality to proceed\n")
    return EXIT_NOT_MAXIMAL


def cmd_psi(args: argparse.Namespace) -> int:
    name, body = _load_body(args.body)
    ray = parse_ray_argument(args.ray)
    value = psi(body, ray)
    doc = {
        "op": "psi",
        "body": name,
        "ray": format_vec(ray),
        "value": format_rat(value.value),
        "argmax_facets": list(value.argmax),
    }
    _emit(doc, args.json)
    return EXIT_OK


def cmd_cut(args: argparse.Namespace) -> int:
    name, body = _load_body(args.body)
    try:
        with open(args.tableau, "r", encoding="utf-8") as fh:
            tdoc = load_json(fh.read())
    except OSError as exc:
        raise ParseError(f"{args.tableau}: {exc.strerror}") from None
    f, columns = tableau_from_doc(tdoc)
    gate = _maximality_gate(body, args.window, args.override_maximality)
    if gate is not None:
        return gate
    if f.coords != body.f.coords:
        raise InvalidInputError("tableau f differs from the body apex f")
    out_cols = []
    for colname, kind, ray in columns:
        if kind == "continuous":
            coeff = psi(body, ray).value
        elif body.s.all_integers:
            coeff = pi_star_periodic(body, ray).value
        else:
            coeff = pi_star(body, ray, t_cap=args.tmax).value
        out_cols.append(
            {"name": colname, "kind": kind, "ray": format_vec(ray), "coefficient": format_rat(coeff)}
        )
    doc = {
        "op": "cut",
        "body": name,
        "f": format_vec(body.f),
        "columns": out_cols,
        "inequality": "sum(coefficient * column) >= 1",
    }
    _emit(doc, args.json)
    return EXIT_OK


def _piece_doc(body: SFreeBody, src: RationalVec, poly) -> dict:
    entry = {
        "source_x": format_vec(src),
        "rows": [[format_vec(normal), format_rat(rhs)] for normal, rhs in poly.rows],
        "dimension": affine_dim(poly),
    }
    if body.n == 2:
        verts, rays, lin = vertices_2d(poly)
        entry["vertices"] = [format_vec(v) for v in verts]
        entry["rays"] = [format_vec(r) for r in rays]
        entry["lineality"] = [format_vec(v) for v in lin]
    return entry


def cmd_regions(args: argparse.Namespace) -> int:
    name, body = _load_body(args.body)
    gate = _maximality_gate(body, args.window, args.override_maximality)
    if gate is not None:
        return gate
    regions = lifting_region(body)
    doc = {
        "op": "regions",
        "body": name,
        "lineality": [format_vec(v) for v in regions.lineality],
        "pieces": [_piece_doc(body, src, poly) for src, poly in regions.pieces],
    }
    _emit(doc, args.json)
    if args.svg:
        try:
            svg = render_regions_svg(body, regions)
        except DimensionError as exc:
            sys.stderr.write(f"svg: {exc}\n")
            return EXIT_VALIDATION
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return EXIT_OK


def cmd_cover(args: argparse.Namespace) -> int:
    name, body = _load_body(args.body)
    if not body.s.all_integers:
        raise UnsupportedSError("covering decision requires S = Z^n")
    if body.n > 2:
        raise DimensionError("covering decision implemented for n <= 2")
    gate = _maximality_gate(body, args.window, args.override_maximality)
    if gate is not None:
        return gate
    regions = lifting_region(body)
    report = covering_decision(regions)
    doc = {
        "op": "cover",
        "body": name,
        "verdict": report.verdict,
        "covered_fraction": format_rat(report.covered_fraction),
    }
    if report.verdict == "unique":
        _emit(doc, args.json)
        return EXIT_OK
    doc["uncovered_witness"] = format_vec(report.uncovered_witness)
    if report.boundary_point is not None:
        # the gap closure never touches the lineality of the body
        if psi(body, report.boundary_point).value <= 0:
            raise InvalidInputError("boundary point with nonpositive gauge; inconsistent complex")
        doc["boundary_point"] = format_vec(report.boundary_point)
    try:
        p, xbar, lhs = non_uniqueness_witness(body, regions, report)
    except InconclusiveSearchError as exc:
        doc["violation"] = None
        doc["violation_search"] = "inconclusive"
        _emit(doc, args.json)
        sys.stderr.write(f"{exc}\n")
        return EXIT_INCONCLUSIVE
    doc["violation"] = {
        "p": format_vec(p),
        "xbar": format_vec(xbar),
        "lhs": format_rat(lhs),
    }
    _emit(doc, args.json)
    return EXIT_NOT_UNIQUE


def cmd_catalog(args: argparse.Namespace) -> int:
    overrides = {}
    for item in args.param or []:
        if "=" not in item:
            raise ParseError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    try:
        body = catalog_body(args.name, overrides)
    except KeyError:
        sys.stderr.write(
            f"unknown catalog name {args.name!r}; available: {', '.join(catalog_names())}\n"
        )
        return EXIT_PARSE
    report = verify_maximal_sfree(body, args.window)
    if report.verdict != "maximal":
        raise InvalidInputError(
            f"catalog parameters produce a non-maximal body (verdict {report.verdict})"
        )
    doc = body_to_doc(body, args.name)
    text = dumps_doc(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    name, body = _load_body(args.body)
    report = verify_maximal_sfree(body, args.window)
    doc = {
        "op": "verify",
        "body": name,
        "verdict": report.verdict,
        "is_s_free": report.is_s_free,
        "s_free_inconclusive": report.s_free_inconclusive,
        "interior_violator": format_vec(report.interior_violator)
        if report.interior_violator is not None
        else None,
        "facet_witnesses": [
            format_vec(w) if w is not None else None for w in report.facet_witnesses
        ],
        "inconclusive_facets": list(report.inconclusive_facets),
        "redundant_facets": list(report.redundant_facets),
        "window": report.window,
    }
    _emit(doc, args.json)
    if report.verdict == "maximal":
        return EXIT_OK
    if report.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_NOT_MAXIMAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftgeo",
        description="Exact lifting geometry of maximal S-free bodies: gauge "
        "values, minimal lifting coefficients, region complexes, and the "
        "lattice-covering uniqueness test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, maximality: bool = False) -> None:
        p.add_argument("--window", type=int, default=_default_window(),
                       help="lattice search box (env LIFTGEO_DEFAULT_WINDOW)")
        p.add_argument("--tmax", type=int, default=20, help="oracle depth cap")
        p.add_argument("--json", metavar="PATH", help="also write the report to PATH")
        if maximality:
            p.add_argument("--override-maximality", action="store_true",
                           help="proceed even if the body is not verified maximal")

    p = sub.add_parser("psi", help="evaluate the minimal valid function on a ray")
    p.add_argument("body")
    p.add_argument("--ray", required=True, help="comma-separated rational coordinates")
    add_common(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("cut", help="cut coefficients for a tableau row")
    p.add_argument("body")
    p.add_argument("tableau")
    add_common(p, maximality=True)
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("regions", help="region complex dump and rendering")
    p.add_argument("body")
    p.add_argument("--svg", metavar="PATH", help="write an SVG rendering to PATH")
    add_common(p, maximality=True)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("cover", help="unique minimal lifting decision (S = Z^n)")
    p.add_argument("body")
    add_common(p, maximality=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("catalog", help="emit a named body file")
    p.add_argument("name")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--window", type=int, default=_default_window())
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="verify maximal S-freeness")
    p.add_argument("body")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _check_search_bounds(args: argparse.Namespace) -> None:
    """Reject search bounds that would silently skip the search."""
    if args.window < 0:
        raise InvalidInputError(f"--window must be >= 0, got {args.window}")
    if getattr(args, "tmax", 1) < 1:
        raise InvalidInputError(f"--tmax must be >= 1, got {args.tmax}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_search_bounds(args)
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except InconclusiveSearchError as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
