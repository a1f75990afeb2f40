import json
from fractions import Fraction as F

from liftgeo import RationalVec, SDescriptor, body_from_vertices_2d
from liftgeo.cli import main
from liftgeo.serialize import body_from_doc, body_to_doc, dumps_doc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_catalog(tmp_path, capsys, name, filename=None, params=()):
    out = tmp_path / (filename or f"{name}.json")
    argv = ["catalog", name, "--out", str(out)]
    for p in params:
        argv += ["--param", p]
    code = main(argv)
    capsys.readouterr()
    assert code == 0
    return out


def test_catalog_roundtrip(tmp_path, capsys):
    path = write_catalog(tmp_path, capsys, "split")
    doc = json.loads(path.read_text())
    name, body = body_from_doc(doc)
    assert name == "split"
    assert body.f == RationalVec.of("1/2", "0")
    assert dumps_doc(body_to_doc(body, name)) == path.read_text()


def test_catalog_roundtrip_all_names(tmp_path, capsys):
    from liftgeo.catalog import catalog_body, catalog_names

    for name in catalog_names():
        path = write_catalog(tmp_path, capsys, name, f"{name}.json")
        _, parsed = body_from_doc(json.loads(path.read_text()))
        built = catalog_body(name, {})
        assert parsed.f == built.f
        assert parsed.facets == built.facets
        assert parsed.s.all_integers == built.s.all_integers
        assert parsed.s.c_rows == built.s.c_rows and parsed.s.d == built.s.d


def test_catalog_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "hexagon")
    assert code == 2
    assert "unknown catalog name" in err


def test_psi_command(tmp_path, capsys):
    path = write_catalog(tmp_path, capsys, "split")
    code, out, _ = run(capsys, "psi", str(path), "--ray", "3,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "6"
    assert doc["argmax_facets"] == [0]


def test_psi_malformed_rational(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"kind":"body","name":"bad","dimension":2,"f":["1/0","0"],"facets":[["2","0"]]}'
    )
    code, _, err = run(capsys, "psi", str(bad), "--ray", "1,0")
    assert code == 2
    assert "1/0" in err


def test_psi_dimension_mismatch(tmp_path, capsys):
    path = write_catalog(tmp_path, capsys, "split")
    code, _, err = run(capsys, "psi", str(path), "--ray", "1,2,3")
    assert code == 3


def test_cut_command(tmp_path, capsys):
    body_path = write_catalog(tmp_path, capsys, "split")
    row = tmp_path / "row.json"
    row.write_text(
        json.dumps(
            {
                "kind": "tableau_row",
                "f": ["1/2", "0"],
                "columns": [
                    {"name": "s1", "kind": "continuous", "ray": ["1/4", "0"]},
                    {"name": "y1", "kind": "integer", "ray": ["1/4", "0"]},
                    {"name": "y2", "kind": "integer", "ray": ["1", "0"]},
                ],
            }
        )
    )
    code, out, _ = run(capsys, "cut", str(body_path), str(row))
    assert code == 0
    doc = json.loads(out)
    coeffs = {c["name"]: c["coefficient"] for c in doc["columns"]}
    assert coeffs == {"s1": "1/2", "y1": "1/2", "y2": "0"}
    kinds = {c["name"]: c["kind"] for c in doc["columns"]}
    # sandwich: integer coefficient never exceeds the continuous one
    assert F(coeffs["y1"]) <= F(coeffs["s1"])


def _shrunk_triangle_doc():
    body = body_from_vertices_2d(
        [RationalVec.of(0, 0), RationalVec.of("3/2", "0"), RationalVec.of("0", "3/2")],
        [],
        RationalVec.of("1/2", "1/2"),
        SDescriptor.integers(),
    )
    return body_to_doc(body, "shrunk")


def test_cut_refuses_non_maximal(tmp_path, capsys):
    shrunk = tmp_path / "shrunk.json"
    shrunk.write_text(dumps_doc(_shrunk_triangle_doc()))
    row = tmp_path / "row.json"
    row.write_text(
        json.dumps(
            {
                "f": ["1/2", "1/2"],
                "columns": [{"name": "s", "kind": "continuous", "ray": ["1/4", "0"]}],
            }
        )
    )
    code, _, err = run(capsys, "cut", str(shrunk), str(row))
    assert code == 4
    code, out, _ = run(capsys, "cut", str(shrunk), str(row), "--override-maximality")
    assert code == 0


def test_verify_command(tmp_path, capsys):
    shrunk = tmp_path / "shrunk.json"
    shrunk.write_text(dumps_doc(_shrunk_triangle_doc()))
    code, out, _ = run(capsys, "verify", str(shrunk))
    assert code == 4
    doc = json.loads(out)
    assert doc["verdict"] == "not_maximal"
    assert doc["facet_witnesses"].count(None) == 1

    split = write_catalog(tmp_path, capsys, "split")
    code, out, _ = run(capsys, "verify", str(split))
    assert code == 0
    assert json.loads(out)["verdict"] == "maximal"


def test_cover_split(tmp_path, capsys):
    path = write_catalog(tmp_path, capsys, "split")
    code, out, _ = run(capsys, "cover", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "unique"
    assert doc["covered_fraction"] == "1"


def test_cover_non_covering(tmp_path, capsys):
    path = write_catalog(tmp_path, capsys, "triangle_generic")
    code, out, _ = run(capsys, "cover", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "not_unique"
    assert doc["covered_fraction"] == "41/56"
    assert F(doc["violation"]["lhs"]) < 1


def test_cover_rejects_general_s(tmp_path, capsys):
    path = write_catalog(tmp_path, capsys, "wedge_generalS")
    code, _, err = run(capsys, "cover", str(path))
    assert code == 3


def test_regions_structured_output_and_svg(tmp_path, capsys):
    split = write_catalog(tmp_path, capsys, "split")
    svg_path = tmp_path / "split.svg"
    code, out, _ = run(capsys, "regions", str(split), "--svg", str(svg_path))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pieces"]) == 2
    # split pieces are strips: full-dimensional with a lineality direction
    for piece in doc["pieces"]:
        assert piece["dimension"] == 2
        assert piece["lineality"] == [["0", "1"]]
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert 'class="jagged"' in svg
    assert 'class="body-boundary"' in svg

    tri = write_catalog(tmp_path, capsys, "triangle_integer_vertices")
    tri_svg = tmp_path / "tri.svg"
    code, out, _ = run(capsys, "regions", str(tri), "--svg", str(tri_svg))
    assert code == 0
    dims = [p["dimension"] for p in json.loads(out)["pieces"]]
    assert 2 in dims and 1 in dims
    assert tri_svg.read_text().startswith("<svg")


def test_regions_wedge_renders_but_cover_refuses(tmp_path, capsys):
    wedge = write_catalog(tmp_path, capsys, "wedge_generalS")
    svg_path = tmp_path / "wedge.svg"
    code, out, _ = run(capsys, "regions", str(wedge), "--svg", str(svg_path))
    assert code == 0
    assert svg_path.exists()
    code, _, _ = run(capsys, "cover", str(wedge))
    assert code == 3


def test_byte_identical_runs(tmp_path, capsys):
    path = write_catalog(tmp_path, capsys, "triangle_integer_vertices")
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "regions", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "cover", str(path))
        outs.append(out)
    assert outs[0] == outs[1]


def test_tableau_f_mismatch(tmp_path, capsys):
    body_path = write_catalog(tmp_path, capsys, "split")
    row = tmp_path / "row.json"
    row.write_text(
        json.dumps(
            {"f": ["1/3", "0"], "columns": [{"name": "s", "kind": "continuous", "ray": ["1", "0"]}]}
        )
    )
    code, _, err = run(capsys, "cut", str(body_path), str(row))
    assert code == 3


def test_catalog_params(tmp_path, capsys):
    path = write_catalog(tmp_path, capsys, "split", "split2.json", params=["f1=1/3"])
    doc = json.loads(path.read_text())
    assert doc["f"] == ["1/3", "0"]
    assert doc["facets"] == [["3/2", "0"], ["-3", "0"]]


def test_default_window_env_var(tmp_path, capsys, monkeypatch):
    path = write_catalog(tmp_path, capsys, "split")
    monkeypatch.setenv("LIFTGEO_DEFAULT_WINDOW", "4")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["window"] == 4
    monkeypatch.setenv("LIFTGEO_DEFAULT_WINDOW", "junk")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 3 and out == ""
    assert "LIFTGEO_DEFAULT_WINDOW" in err


def test_cut_rejects_tmax_below_one(tmp_path, capsys):
    # with --tmax 0 the scan would never run and the recession candidate
    # -26/3 would be printed; the true coefficient is -8/3
    wedge = write_catalog(tmp_path, capsys, "wedge_generalS")
    row = tmp_path / "row.json"
    row.write_text(
        json.dumps(
            {"f": ["0", "1/2"], "columns": [{"name": "y", "kind": "integer", "ray": ["-2", "3"]}]}
        )
    )
    code, out, err = run(capsys, "cut", str(wedge), str(row), "--tmax", "0")
    assert code == 3 and out == ""
    assert "--tmax" in err
    code, out, _ = run(capsys, "cut", str(wedge), str(row), "--tmax", "1")
    assert code == 0
    assert json.loads(out)["columns"][0]["coefficient"] == "-8/3"


def test_verify_rejects_negative_window(tmp_path, capsys):
    split = write_catalog(tmp_path, capsys, "split")
    code, out, err = run(capsys, "verify", str(split), "--window", "-1")
    assert code == 3 and out == ""
    assert "--window" in err
    code, out, _ = run(capsys, "verify", str(split), "--window", "0")
    assert code != 3 and json.loads(out)["window"] == 0


def test_every_subcommand_rejects_out_of_range_search_bounds(tmp_path, capsys):
    split = write_catalog(tmp_path, capsys, "split")
    row = tmp_path / "row.json"
    row.write_text(json.dumps({"f": ["1/2", "0"], "columns": []}))
    commands = {
        "psi": [str(split), "--ray", "1,0"],
        "cut": [str(split), str(row)],
        "regions": [str(split)],
        "cover": [str(split)],
        "verify": [str(split)],
    }
    for name, rest in commands.items():
        assert run(capsys, name, *rest, "--tmax", "0")[0] == 3, name
        assert run(capsys, name, *rest, "--window", "-1")[0] == 3, name
    assert run(capsys, "catalog", "split", "--window", "-1")[0] == 3
