import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from liftgeo import (
    HPolyhedron,
    RationalVec,
    SDescriptor,
    body_from_facets,
    l_psi,
    lattice_points_in_body,
    lifting_region,
    lineality_space,
    poly_equal,
    psi_value,
    recession_cone,
    region_cone_form,
    region_membership,
    region_of_point,
    vertices_2d,
)
from liftgeo.errors import DegenerateBodyError
from liftgeo.geom import irredundant, kernel_basis, primitive_direction
from liftgeo.regions import _facet_differences

from helpers import (
    full_catalog,
    make_band_split,
    make_split,
    make_triangle,
    make_wedge,
    make_wedge_family,
    pairwise_region_pieces,
    zn_catalog,
)


def strip(lo, hi):
    return HPolyhedron.from_rows(
        [(RationalVec.of(-1, 0), -F(lo)), (RationalVec.of(1, 0), F(hi))], 2
    )


def test_l_psi_examples():
    assert [v.coords for v in l_psi(make_split())] == [(0, 1)]
    assert l_psi(make_triangle()) == []
    half = body_from_facets(
        RationalVec.of("1/2", "1/2"), [RationalVec.of(0, -2)], SDescriptor.integers()
    )
    assert len(l_psi(half)) == 2


def test_region_split_examples():
    split = make_split()
    assert poly_equal(region_of_point(split, RationalVec.of(1, 0)), strip(0, F(1, 2)))
    assert poly_equal(region_of_point(split, RationalVec.of(0, 0)), strip(-F(1, 2), 0))


def test_region_at_apex():
    for _, body in zn_catalog():
        R = region_of_point(body, body.f)
        assert R.contains(RationalVec.zero(2))
        for v in vertices_2d(R)[0]:
            assert psi_value(body, v) + psi_value(body, v.scale(-1)) <= 0


def test_cone_form_matches_region():
    for _, body in zn_catalog():
        for x in lattice_points_in_body(body):
            cone, k, materialized = region_cone_form(body, x)
            assert poly_equal(materialized, region_of_point(body, x))
            assert all(b == 0 for _, b in cone.rows)


def test_cone_form_tie_independence():
    body = make_triangle()
    x = RationalVec.of(0, 0)
    w = x - body.f
    values = [a.dot(w) for a in body.facets]
    ties = [i for i, v in enumerate(values) if v == max(values)]
    assert len(ties) >= 2
    reference = region_of_point(body, x)
    for k in ties:
        ak = body.facets[k]
        rows = [(a - ak, F(0)) for i, a in enumerate(body.facets) if i != k]
        rows += [((a - ak).scale(-1), -(a - ak).dot(w)) for i, a in enumerate(body.facets) if i != k]
        assert poly_equal(irredundant(HPolyhedron.from_rows(rows, 2)), reference)


def test_lifting_region_split():
    rc = lifting_region(make_split())
    assert len(rc.pieces) == 2
    assert [v.coords for v in rc.lineality] == [(0, 1)]
    assert region_membership(rc, RationalVec.of("1/4", "0")) == RationalVec.of(1, 0)
    assert region_membership(rc, RationalVec.of("3/4", "0")) is None
    assert region_membership(rc, RationalVec.zero(2)) is not None


def test_lifting_region_triangle_mixed_dimensions():
    rc = lifting_region(make_triangle())
    assert len(rc.pieces) == 6
    dims = rc.piece_dims()
    assert sorted(dims) == [1, 1, 1, 2, 2, 2]


def test_rec_equals_lin_equals_lpsi_per_piece():
    for _, body in zn_catalog():
        rc = lifting_region(body)
        expected = [v.coords for v in rc.lineality]
        for _, poly in rc.pieces:
            assert [v.coords for v in lineality_space(poly)] == expected
            rec_lin = kernel_basis([n for n, _ in recession_cone(poly).rows], 2)
            # rec(R(x)) is a subspace equal to the lineality
            rec = recession_cone(poly)
            for v in rc.lineality:
                assert rec.contains(v) and rec.contains(v.scale(-1))
            assert [v.coords for v in rec_lin] == expected


def test_translation_invariance_along_lpsi():
    split = make_split()
    for x, w in ((RationalVec.of(1, 0), RationalVec.of(0, 5)),
                 (RationalVec.of(0, 0), RationalVec.of(0, -3))):
        assert poly_equal(region_of_point(split, x), region_of_point(split, x + w))


def test_containment_identity_on_pieces():
    rng = random.Random(31)
    for _, body in zn_catalog():
        rc = lifting_region(body)
        for x, poly in rc.pieces:
            target = psi_value(body, x - body.f)
            samples = list(vertices_2d(poly)[0])
            if len(samples) >= 2:
                mid = (samples[0] + samples[1]).scale(F(1, 2))
                samples.append(mid)
            for r in samples:
                assert psi_value(body, r) + psi_value(body, x - body.f - r) == target


def test_region_defined_for_non_lattice_points():
    split = make_split()
    R = region_of_point(split, RationalVec.of("1/3", "1/7"))
    assert R.dim == 2


def test_degenerate_general_s_rejected():
    s = SDescriptor.polyhedral([RationalVec.of(0, -1)], [0])
    body = body_from_facets(
        RationalVec.of("0", "-1/2"),
        [RationalVec.of(0, 2), RationalVec.of(0, -2)],
        s,
    )
    with pytest.raises(DegenerateBodyError):
        lifting_region(body)


def test_wedge_region_complex():
    rc = lifting_region(make_wedge())
    assert len(rc.pieces) >= 1
    assert region_membership(rc, RationalVec.zero(2)) is not None


def test_band_split_merges_representatives():
    # the one known input where several representatives share a region:
    # x and x' = x + (0, k) differ by a vector of L_psi = span{(0, 1)}
    body = make_band_split()
    assert len(lattice_points_in_body(body)) == 8
    rc = lifting_region(body)
    assert [x.coords for x, _ in rc.pieces] == [(0, 0), (1, 0)]


LEMMA_BODIES = full_catalog() + [("band_split", make_band_split())]


@pytest.mark.parametrize("body", [b for _, b in LEMMA_BODIES], ids=[n for n, _ in LEMMA_BODIES])
def test_lifting_region_matches_pairwise_reference(body):
    rc = lifting_region(body)
    assert (rc.pieces, rc.lineality) == pairwise_region_pieces(body)


def _lemma_bodies():
    fixed = st.sampled_from([body for _, body in LEMMA_BODIES])
    wedges = st.builds(
        make_wedge_family,
        st.builds(F, st.integers(1, 18), st.integers(1, 6)),
        st.builds(F, st.integers(1, 7), st.just(8)),
    )
    return st.one_of(fixed, wedges)


@settings(max_examples=60, deadline=None)
@given(body=_lemma_bodies(), data=st.data())
def test_equal_regions_iff_equal_class_key(body, data):
    """R(x) = R(x') exactly when x - x' lies in L_psi, that is when the
    facet differences (a_i - a_0) x and (a_i - a_0) x' agree."""
    reps = lattice_points_in_body(body)
    shift = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(RationalVec.from_seq)
    x = data.draw(st.sampled_from(reps)) + data.draw(shift)
    y = data.draw(st.sampled_from(reps)) + data.draw(shift)
    line = [primitive_direction(v) for v in l_psi(body)]
    if line and data.draw(st.booleans()):
        y = x + data.draw(st.sampled_from(line)).scale(data.draw(st.integers(-3, 3)))
    diffs = _facet_differences(body)
    same_key = [d.dot(x) for d in diffs] == [d.dot(y) for d in diffs]
    assert poly_equal(region_of_point(body, x), region_of_point(body, y)) == same_key
