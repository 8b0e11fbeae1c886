"""The Veronese surface, its nucleus plane, and the conic/hyperplane duality."""

import pytest

from conicnets.gf import field
from conicnets.projgeom import normalize_point, pg_points, rank, span
from conicnets.veronese import (
    POINT_CLASSES,
    census,
    classify_conic,
    delta,
    delta_inv,
    expected_census,
    form_eval,
    form_from_str,
    form_to_str,
    nucleus_plane,
    point_class,
    veronese,
)
from oracles import classify_hyperplane, conic_nucleus, conic_plane_of, sym_matrix


def test_veronese_images_have_rank_one(gf4):
    for p in pg_points(gf4, 2):
        y = veronese(gf4, p)
        assert rank(gf4, sym_matrix(y)) == 1
        assert point_class(gf4, y) == "rank1"


def test_veronese_is_injective(gf8):
    images = {normalize_point(gf8, veronese(gf8, p)) for p in pg_points(gf8, 2)}
    assert len(images) == 8 ** 2 + 8 + 1


def test_sym_matrix_layout():
    m = sym_matrix((1, 2, 3, 4, 5, 6))
    assert m == ((1, 2, 3), (2, 4, 5), (3, 5, 6))


def test_nucleus_plane_points_are_nuclear(gf4):
    pn = nucleus_plane(gf4)
    assert pn.dim == 2
    for y in pn.points():
        assert point_class(gf4, y) == "rank2_nuclear"
        # zero diagonal in matrix form
        assert y[0] == y[3] == y[5] == 0


@pytest.mark.parametrize("q", (2, 4, 8))
def test_point_class_matches_matrix_rank_on_every_point(q):
    # the closed-form rule against Gaussian elimination of the matrix
    gf = field(q)
    for y in pg_points(gf, 5):
        r = rank(gf, sym_matrix(y))
        want = {1: "rank1", 3: "rank3"}.get(r)
        if want is None:
            want = "rank2_nuclear" if y[0] == y[3] == y[5] == 0 else "rank2_secant"
        assert point_class(gf, y) == want, y


def test_conic_plane_of_refuses_points_not_of_rank_2(gf4):
    for y in [(0,) * 6, veronese(gf4, (1, 2, 3)), (1, 0, 0, 1, 0, 1)]:
        with pytest.raises(ValueError, match="rank-2 points only"):
            conic_plane_of(gf4, y)


@pytest.mark.parametrize("q", (2, 4, 8))
def test_census_matches_closed_forms(q):
    gf = field(q)
    got = census(gf)
    want = expected_census(q)
    assert got == want
    assert set(got) == set(POINT_CLASSES)
    assert got["rank1"] == q * q + q + 1
    assert got["rank2_nuclear"] == q * q + q + 1
    assert got["rank2_secant"] == (q * q - 1) * (q * q + q + 1)
    assert got["rank3"] == q ** 5 - q * q
    assert sum(got.values()) == (q ** 6 - 1) // (q - 1)


def test_form_eval_agrees_with_veronese_pairing(gf4):
    # f(p) equals the dot product of the coefficient vector with nu(p)
    forms = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 2, 3, 0, 1, 2)]
    for form in forms:
        for p in pg_points(gf4, 2):
            y = veronese(gf4, p)
            dot = 0
            for a, b in zip(form, y):
                dot ^= gf4.mul(a, b)
            assert form_eval(gf4, form, p) == dot


@pytest.mark.parametrize("q", (2, 4, 8))
def test_classify_conic_known_forms(q):
    gf = field(q)
    assert classify_conic(gf, (1, 0, 0, 0, 0, 0)) == "DoubleLine"      # X0^2
    assert classify_conic(gf, (1, 0, 0, 1, 0, 0)) == "DoubleLine"      # (X0+X1)^2
    assert classify_conic(gf, (0, 1, 0, 0, 0, 0)) == "RealPair"        # X0*X1
    assert classify_conic(gf, (0, 0, 1, 1, 0, 0)) == "Nonsingular"     # X0*X2+X1^2
    # X0^2 + X0*X1 + a*X1^2 irreducible iff trace(a) = 1
    a = next(v for v in gf.elements if gf.trace(v) == 1)
    assert classify_conic(gf, (1, 1, 0, a, 0, 0)) == "ImaginaryPair"
    with pytest.raises(ValueError, match="zero form"):
        classify_conic(gf, (0, 0, 0, 0, 0, 0))


def _classify_conic_by_point_count(gf, form):
    """Reference rule: cross part for double lines, rational point counts
    for the rest."""
    if form[1] == 0 and form[2] == 0 and form[4] == 0:
        return "DoubleLine"
    q = gf.q
    count = sum(1 for p in pg_points(gf, 2) if form_eval(gf, form, p) == 0)
    return {2 * q + 1: "RealPair", 1: "ImaginaryPair", q + 1: "Nonsingular"}[count]


@pytest.mark.parametrize("q", (2, 4, 8))
def test_classify_conic_matches_point_counting(q):
    gf = field(q)
    for form in pg_points(gf, 5):
        assert classify_conic(gf, form) == _classify_conic_by_point_count(gf, form), form


def test_conic_rational_point_counts(gf4):
    q = gf4.q
    counts = {"DoubleLine": q + 1, "RealPair": 2 * q + 1,
              "ImaginaryPair": 1, "Nonsingular": q + 1}
    for form in [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (1, 1, 0, 2, 0, 0)]:
        kind = classify_conic(gf4, form)
        hits = sum(1 for p in pg_points(gf4, 2) if form_eval(gf4, form, p) == 0)
        assert hits == counts[kind]


def test_delta_round_trip(gf4):
    for form in [(1, 0, 0, 0, 0, 0), (0, 1, 2, 0, 0, 3), (1, 1, 1, 1, 1, 1)]:
        h = delta(gf4, form)
        assert h.dim == 4
        back = delta_inv(h)
        assert back == normalize_point(gf4, form)
        # incidence: nu(p) in h exactly when f(p) = 0
        for p in pg_points(gf4, 2):
            assert h.contains_point(veronese(gf4, p)) == (form_eval(gf4, form, p) == 0)
    with pytest.raises(ValueError, match="expected a hyperplane"):
        delta_inv(span(gf4, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]))
    with pytest.raises(ValueError, match="zero vector"):
        normalize_point(gf4, (0,) * 6)


def test_classify_hyperplane_consistent(gf4):
    assert classify_hyperplane(delta(gf4, (1, 0, 0, 0, 0, 0))) == "DoubleLine"
    assert classify_hyperplane(delta(gf4, (0, 1, 0, 0, 0, 0))) == "RealPair"
    assert classify_hyperplane(delta(gf4, (0, 0, 1, 1, 0, 0))) == "Nonsingular"


def test_form_string_round_trip():
    for form in [(1, 0, 0, 0, 0, 0), (0, 0, 3, 1, 0, 0), (1, 2, 3, 4, 5, 6)]:
        assert form_from_str(form_to_str(form)) == form
    assert form_from_str("X1^2 + X0*X2") == (0, 0, 1, 1, 0, 0)
    assert form_from_str("3*X0^2") == (3, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        form_from_str("X3^2")


@pytest.mark.parametrize("text", [
    "9*X0*X2 + 9*X0*X2 + X1^2",  # the repeat would cancel by XOR
    "X0*X1 + X1*X0",             # one monomial in two spellings
    "X2^2 + 3*X2^2",
])
def test_form_string_rejects_repeated_monomials(text):
    with pytest.raises(ValueError, match="repeated"):
        form_from_str(text)


@pytest.mark.parametrize("text", ["\u0663*X0*X2", "\u00b2*X2^2", "X1^2 + \uff13*X0^2"])
def test_form_string_coefficients_are_ascii_digits(text):
    # str.isdigit accepts these, and int() reads the first as 3
    with pytest.raises(ValueError, match="^unknown monomial"):
        form_from_str(text)


def test_conic_plane_and_nucleus(gf4):
    # the conic plane over a line of PG(2,q) holds its Veronese image; the
    # image conic's nucleus is a nuclear rank-2 point on that plane
    line = (0, 0, 1)  # Z(X2)
    y = veronese(gf4, (1, 1, 0))
    # a rank-2 secant point on the line's chord: nu(1,0,0) + nu(0,1,0)
    p1, p2 = veronese(gf4, (1, 0, 0)), veronese(gf4, (0, 1, 0))
    secant = tuple(a ^ b for a, b in zip(p1, p2))
    assert rank(gf4, sym_matrix(secant)) == 2
    dual, plane = conic_plane_of(gf4, secant)
    assert dual == normalize_point(gf4, line)
    assert plane.dim == 2
    assert plane.contains_point(y)
    nuc = conic_nucleus(gf4, line)
    assert point_class(gf4, nuc) == "rank2_nuclear"
    assert plane.contains_point(nuc)
    assert nucleus_plane(gf4).contains_point(nuc)
    with pytest.raises(ValueError):
        conic_plane_of(gf4, veronese(gf4, (1, 0, 0)))  # rank 1, not rank 2


def test_conic_planes_and_nuclei_by_brute_force(gf4):
    mul = gf4._mul
    nuclear = nucleus_plane(gf4)
    for u in pg_points(gf4, 2):
        on_line = [p for p in pg_points(gf4, 2)
                   if mul[u[0]][p[0]] ^ mul[u[1]][p[1]] ^ mul[u[2]][p[2]] == 0]
        conic = {veronese(gf4, p) for p in on_line}
        plane = span(gf4, sorted(conic))
        assert plane.dim == 2
        # every rank-2 point of the span maps back to this line and plane
        rank2 = [y for y in plane.points() if rank(gf4, sym_matrix(y)) == 2]
        assert len(rank2) == 4 * 4 + 4 + 1 - len(conic)
        for y in rank2:
            assert conic_plane_of(gf4, y) == (u, plane)
        # the nucleus is the plane's only nuclear point, and each line of the
        # plane through it is tangent: it meets the conic exactly once
        nuc = conic_nucleus(gf4, u)
        assert [y for y in plane.points() if nuclear.contains_point(y)] == [nuc]
        for c in conic:
            tangent = span(gf4, [nuc, c])
            assert sum(1 for d in conic if tangent.contains_point(d)) == 1


@pytest.mark.parametrize("q", (2, 4, 8))
def test_conic_plane_of_nuclear_point_is_closed_form(q):
    """A nuclear point (0,b,c,0,e,0) has kernel u = (e,c,b); a point y lies
    on that line's conic plane iff M_y u = 0, and a rank-1 point y iff
    y0 u0^2 + y3 u1^2 + y5 u2^2 = 0, the test the Sigma3/Sigma4 tie-break of
    classify_plane makes."""
    gf = field(q)
    sq = [gf.mul(x, x) for x in gf.elements]
    for y in nucleus_plane(gf).points():
        u, plane = conic_plane_of(gf, y)
        assert u == normalize_point(gf, (y[4], y[2], y[1]))
        for p in pg_points(gf, 2):
            z = veronese(gf, p)
            on = not (gf.mul(z[0], sq[u[0]]) ^ gf.mul(z[3], sq[u[1]]) ^ gf.mul(z[5], sq[u[2]]))
            assert plane.contains_point(z) == on
        if q <= 4:
            for z in pg_points(gf, 5):
                kills = not any(
                    gf.mul(r[0], u[0]) ^ gf.mul(r[1], u[1]) ^ gf.mul(r[2], u[2])
                    for r in sym_matrix(z)
                )
                assert plane.contains_point(z) == kills
