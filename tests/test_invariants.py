"""Plane invariants: point/hyperplane distributions, the determinantal cubic,
and its factorization type."""

import random
from collections import Counter
from itertools import product

import pytest

from conicnets import atlas
from conicnets.action import act_subspace, mat3_det
from conicnets.atlas import (
    EXPECTED_CUBIC_KIND,
    LABELS,
    example_net,
    expected_point_distribution,
    expected_signature,
    net_base_points,
    net_of_plane,
    representative,
    representative_pattern,
    representatives,
    sigma18_parameter,
    sigma21_parameter,
)
from conicnets.errors import ClassificationError
from conicnets.gf import GF, field
from conicnets.invariants import (
    CUBIC_KINDS,
    CUBIC_MONOMIALS,
    cubic_eval,
    cubic_form,
    cubic_pencil,
    cubic_points,
    cubic_type,
    double_line_hyperplane_count,
    forms_through,
    hyperplane_class_counts,
    line_class_profile,
    lines_in_plane,
    nuclear_point_count,
    nucleus_cut,
    nucleus_meet_dim,
    plane_key,
    plane_signature,
    point_class_counts,
    veronese_points,
)
from conicnets.projgeom import (
    Subspace,
    meet,
    normalize_point,
    pg_points,
    plane_from_pattern,
    rref,
    span,
)
from conicnets.veronese import classify_conic, form_eval, nucleus_plane, veronese
from oracles import cubic_zeros_and_counts, enumerate_planes

CONIC_MONOMIALS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))

# Invertible over GF(4), GF(8) and GF(16) with the default moduli.
MOVE = (2, 1, 0, 0, 3, 1, 1, 0, 2)


def _cubic(coeffs: dict) -> tuple[int, ...]:
    return tuple(coeffs.get(m, 0) for m in CUBIC_MONOMIALS)


@pytest.mark.parametrize("q", (2, 4))
def test_forms_through_matches_brute_force(q, sample_matrices):
    # the forms vanishing on every basis row, among all points of PG(5,q)
    gf = field(q)
    mul = gf._mul
    forms = pg_points(gf, 5)
    g = sample_matrices(gf)[0]
    for label in LABELS:
        for s in (representative(gf, label), act_subspace(representative(gf, label), g)):
            want = {
                f for f in forms
                if not any(mul[f[0]][r[0]] ^ mul[f[1]][r[1]] ^ mul[f[2]][r[2]]
                           ^ mul[f[3]][r[3]] ^ mul[f[4]][r[4]] ^ mul[f[5]][r[5]]
                           for r in s.rows)
            }
            got = forms_through(s)
            assert len(got) == len(set(got)) == q * q + q + 1
            assert set(got) == want, label


@pytest.mark.parametrize("q", (2, 4))
def test_point_counts_match_closed_forms(q):
    gf = field(q)
    for label in LABELS:
        s = representative(gf, label)
        assert point_class_counts(s) == expected_point_distribution(label, q), label


def test_point_counts_sum_to_plane_size(gf4):
    for label in ("Sigma1", "Sigma11", "Sigma20"):
        counts = point_class_counts(representative(gf4, label))
        assert sum(counts) == 4 ** 2 + 4 + 1


def test_hyperplane_counts_sum(gf4):
    # hyperplanes through a plane of PG(5,q) number q^2+q+1
    for label in ("Sigma1", "Sigma16", "Sigma22"):
        counts = hyperplane_class_counts(representative(gf4, label))
        assert sum(counts) == 4 ** 2 + 4 + 1


def test_double_line_count_equals_nuclear_count_on_reps(gf4):
    # the identity that drives the double-lines suite, spot checked here
    for label in LABELS:
        s = representative(gf4, label)
        assert double_line_hyperplane_count(s) == cubic_zeros_and_counts(s)[1][1], label


def _double_lines_through(s):
    """The double-line forms among the annihilator's points: the scan over
    forms_through that double_line_hyperplane_count replaced."""
    return sum(1 for f in forms_through(s) if not (f[1] | f[2] | f[4]))


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_double_line_hyperplane_count_matches_oracles(q):
    """Both kernel scans against the point pass and the forms_through scan
    they replaced: the nuclear count against cubic_zeros_and_counts and
    point_class_counts, the double-line count against the double-line forms
    among forms_through and the conic classes of the hyperplanes.  Every
    plane at q=2, and at q = 4, 8 and 16 2,000 sampled planes (most missing
    the nucleus plane) and the moved representatives (which meet it in a
    point, a line or the whole plane)."""
    gf = field(q)
    if q == 2:
        planes = list(enumerate_planes(gf))
    else:
        rng = random.Random(q)
        planes = [atlas._sample_plane(gf, rng) for _ in range(2000)]
        planes += [act_subspace(s, MOVE) for s in representatives(gf).values()]
    counts = Counter()
    for s in planes:
        nuclear = nuclear_point_count(s)
        assert nuclear == cubic_zeros_and_counts(s)[1][1] == point_class_counts(s)[1], s
        n = double_line_hyperplane_count(s)
        assert n == _double_lines_through(s) == hyperplane_class_counts(s)[0], s
        counts[nuclear, n] += 1
    assert set(counts) == {(n, n) for n in (0, 1, q + 1, q * q + q + 1)}


def test_nucleus_meet_dim(gf4):
    pn = nucleus_plane(gf4)
    assert nucleus_meet_dim(pn) == 2
    assert nucleus_meet_dim(representative(gf4, "Sigma9")) == 0
    off = span(gf4, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)])
    assert nucleus_meet_dim(off) == -1


def _net_base_scan(gf, forms):
    return [p for p in pg_points(gf, 2) if all(form_eval(gf, f, p) == 0 for f in forms)]


def _check_veronese_points(s):
    """veronese_points, nucleus_cut's meet and net_base_points against the scans
    they replaced: the rank-1 points among s.points(), the three-nullspace
    meet with the nucleus plane, and the conics of the net at every point
    of PG(2,q)."""
    gf = s.gf
    points = set(s.points())
    got = veronese_points(s)
    assert got == [p for p in pg_points(gf, 2) if veronese(gf, p) in points], s
    assert nucleus_cut(s)[0] == meet(s, nucleus_plane(gf)), s
    forms = net_of_plane(s)
    assert net_base_points(gf, forms) == _net_base_scan(gf, forms) == got, s
    return nucleus_meet_dim(s)


def test_veronese_points_and_nucleus_meet_on_every_plane_q2(gf2):
    dims = Counter(_check_veronese_points(s) for s in enumerate_planes(gf2))
    # 1395 - 883 planes miss the nucleus plane; each of its 7 lines lies on
    # 14 other planes, and the rest meet it in a point
    assert dims == {-1: 512, 0: 784, 1: 98, 2: 1}
    assert net_base_points(gf2, example_net(gf2)) == _net_base_scan(gf2, example_net(gf2)) == []


@pytest.mark.parametrize("q", (4, 8, 16))
def test_veronese_points_and_nucleus_meet_on_moved_planes(q):
    # three seeded moves of every representative (SigmaN is the nucleus
    # plane), and random planes, which mostly miss the nucleus plane
    gf = field(q)
    rng = random.Random(100 + q)
    planes = []
    for s in representatives(gf).values():
        for _ in range(3):
            while True:
                g = tuple(rng.randrange(q) for _ in range(9))
                if mat3_det(gf, g):
                    break
            planes.append(act_subspace(s, g))
    while len(planes) < 18 * 3 + 10:
        rows = rref(gf, [tuple(rng.randrange(q) for _ in range(6)) for _ in range(3)])
        if len(rows) == 3:
            planes.append(Subspace(gf, 5, rows))
    dims = Counter(_check_veronese_points(s) for s in planes)
    assert set(dims) == {-1, 0, 1, 2}
    assert net_base_points(gf, example_net(gf)) == _net_base_scan(gf, example_net(gf)) == []


def _rooted_diagonal_rref(s):
    """The Veronese span as veronese_points once reduced it on its own: the
    RREF of the square roots of the diagonal columns 0, 3, 5."""
    root = s.gf._sqrt
    return rref(s.gf, [(root[r[0]], root[r[3]], root[r[5]]) for r in s.rows])


def _check_cut_points(s):
    """nucleus_cut's points against the points p of the rooted diagonal
    span with v(p) in the plane, tested by rank; a span of rank 3 (a plane
    missing the nucleus plane) gives no cut.  Returns the span's rank."""
    gf = s.gf
    span_rows = _rooted_diagonal_rref(s)
    meet_, points = nucleus_cut(s)
    if len(span_rows) == 3:
        assert meet_ is None and points is None, s
        return 3
    span_points = Subspace(gf, 2, span_rows).points() if span_rows else []
    want = [p for p in span_points if len(rref(gf, [*s.rows, veronese(gf, p)])) == 3]
    assert sorted(points) == sorted(want), s
    assert meet_.dim == 2 - len(span_rows), s
    return len(span_rows)


def test_nucleus_cut_span_is_the_rooted_diagonal_rref_on_every_plane_q2(gf2):
    ranks = Counter(_check_cut_points(s) for s in enumerate_planes(gf2))
    assert ranks == {3: 512, 2: 784, 1: 98, 0: 1}


@pytest.mark.parametrize("q", (4, 16, 256))
def test_nucleus_cut_span_is_the_rooted_diagonal_rref_on_samples(q):
    # random planes (mostly rank 3 spans) and moved representative
    # patterns, which give every rank from 0 (the nucleus plane) to 2
    gf = field(q)
    rng = random.Random(700 + q)
    planes = []
    for label in LABELS:
        base = plane_from_pattern(gf, representative_pattern(gf, label)[0])
        for _ in range(4):
            while True:
                g = tuple(rng.randrange(q) for _ in range(9))
                if mat3_det(gf, g):
                    break
            planes.append(act_subspace(base, g))
    while len(planes) < 18 * 4 + 200:
        rows = rref(gf, [tuple(rng.randrange(q) for _ in range(6)) for _ in range(3)])
        if len(rows) == 3:
            planes.append(Subspace(gf, 5, rows))
    assert {_check_cut_points(s) for s in planes} == {0, 1, 2, 3}


def test_cubic_vanishes_exactly_for_secant_planes(gf4):
    for label in LABELS:
        cubic = cubic_form(representative(gf4, label))
        assert any(cubic) == (EXPECTED_CUBIC_KIND[label] is not None), label


def test_cubic_form_marks_low_rank_points(gf2):
    # zeros of the determinant cubic = points of the plane with rank <= 2
    for label in ("Sigma3", "Sigma17", "Sigma22"):
        s = representative(gf2, label)
        cubic = cubic_form(s)
        counts = point_class_counts(s)
        low_rank = counts[0] + counts[1] + counts[2]
        assert len(cubic_points(s.gf, cubic)) == low_rank


def test_cubic_eval_matches_brute_force(gf4):
    cubic = _cubic({(3, 0, 0): 1, (1, 1, 1): 2, (0, 0, 3): 3})
    for p in [(1, 0, 0), (1, 2, 3), (0, 1, 1)]:
        x, y, z = p
        want = gf4.mul(gf4.mul(x, x), x)
        want ^= gf4.mul(2, gf4.mul(gf4.mul(x, y), z))
        want ^= gf4.mul(3, gf4.mul(gf4.mul(z, z), z))
        assert cubic_eval(gf4, cubic, p) == want


@pytest.mark.parametrize("q", (2, 4, 8))
def test_cubic_type_on_constructed_forms(q):
    gf = field(q)
    x3 = _cubic({(3, 0, 0): 1})
    assert cubic_type(gf, x3) == "TripleLine"
    xy2 = _cubic({(1, 2, 0): 1})
    assert cubic_type(gf, xy2) == "LinePlusDoubleLine"
    xyz = _cubic({(1, 1, 1): 1})
    assert cubic_type(gf, xyz) == "ThreeNonConcurrentLines"
    # x * (x*z + y^2): line plus a conic touching it
    tangent = _cubic({(2, 0, 1): 1, (1, 2, 0): 1})
    assert cubic_type(gf, tangent) == "LinePlusConic_Tangent"
    # x * (x^2 + xy + t y^2), Tr(t) = 1: the pair's vertex (0,0,1) lies on
    # the line, so the zero set is that of x^3 and only the gradient differs
    pair = _cubic({(3, 0, 0): 1, (2, 1, 0): 1, (1, 2, 0): sigma21_parameter(gf)})
    assert cubic_points(gf, pair) == cubic_points(gf, x3)
    assert cubic_type(gf, pair) == "LinePlusImaginaryPair"
    # x * (y*z + x^2): at q = 2 the conic's one zero off the line is smooth
    transversal = _cubic({(3, 0, 0): 1, (1, 1, 1): 1})
    assert cubic_type(gf, transversal) == "LinePlusConic_Transversal"


def test_cubic_type_triangle_vs_concurrent(gf4):
    # x*y*(x+y) has all three lines through (0,0,1)
    conc = _cubic({(2, 1, 0): 1, (1, 2, 0): 1})
    assert cubic_type(gf4, conc) == "ThreeConcurrentLines"
    # x*y*z is a genuine triangle
    tri = _cubic({(1, 1, 1): 1})
    assert cubic_type(gf4, tri) == "ThreeNonConcurrentLines"


def test_divide_by_linear_exact(gf4):
    d = {(2, 0, 1): 1, (1, 2, 0): 1}  # x*(x*z + y^2)
    quo = divide_by_linear(gf4, d, (1, 0, 0))
    assert quo == {(1, 0, 1): 1, (0, 2, 0): 1}
    assert divide_by_linear(gf4, d, (0, 1, 0)) is None
    assert divide_by_linear(gf4, d, (1, 1, 0)) is None


def test_lines_in_plane_count(gf4):
    s = representative(gf4, "Sigma9")
    lines = lines_in_plane(s)
    assert len(lines) == 4 ** 2 + 4 + 1
    for l in lines:
        assert l.dim == 1 and s.contains(l)


@pytest.mark.parametrize("q", (2, 4, 8))
def test_line_profile_separates_the_colliding_pair(q):
    gf = field(q)
    s3 = representative(gf, "Sigma3")
    s4 = representative(gf, "Sigma4")
    assert plane_signature(s3) == plane_signature(s4)  # the one collision
    assert line_class_profile(s3) != line_class_profile(s4)


def test_plane_signature_shape(gf4):
    sig = plane_signature(representative(gf4, "Sigma19"))
    assert sig.nucleus_meet_dim in (0, 1, 2)
    assert sig.cubic_kind == "ThreeConcurrentLines"
    assert not sig.cubic_vanishes
    obj = sig.to_json()
    assert set(obj) == {
        "nucleus_meet_dim", "point_class_counts", "cubic_vanishes",
        "cubic_point_count", "cubic_kind", "hyperplane_class_counts",
    }
    # frozen and hashable: usable as a dict key
    assert len({sig, plane_signature(representative(gf4, "Sigma19"))}) == 1


def test_vanishing_cubic_signature(gf4):
    sig = plane_signature(representative(gf4, "SigmaN"))
    assert sig.cubic_vanishes
    assert sig.cubic_kind is None and sig.cubic_point_count is None


# -- trial division by a linear form: the oracle for cubic_type ------------


def _pd_add(d1: dict, d2: dict) -> dict:
    out = dict(d1)
    for k, v in d2.items():
        nv = out.get(k, 0) ^ v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _pd_mul(gf: GF, d1: dict, d2: dict) -> dict:
    mul = gf._mul
    out: dict = {}
    for (a1, b1, c1), v1 in d1.items():
        for (a2, b2, c2), v2 in d2.items():
            k = (a1 + a2, b1 + b2, c1 + c2)
            nv = out.get(k, 0) ^ mul[v1][v2]
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


def _lin_dict(coeffs) -> dict:
    exps = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return {e: c for e, c in zip(exps, coeffs) if c}


def _subst_var(gf: GF, d: dict, var: int, repl: dict) -> dict:
    """Substitute x_var -> repl (a polynomial dict) in d."""
    out: dict = {}
    pow_cache = {0: {(0, 0, 0): 1}}

    def rpow(k):
        if k not in pow_cache:
            pow_cache[k] = _pd_mul(gf, rpow(k - 1), repl)
        return pow_cache[k]

    for exps, v in d.items():
        k = exps[var]
        rest = list(exps)
        rest[var] = 0
        term = _pd_mul(gf, {tuple(rest): v}, rpow(k))
        out = _pd_add(out, term)
    return out


def divide_by_linear(gf: GF, d: dict, lin) -> dict | None:
    """Exact quotient d / lin for a homogeneous polynomial dict, or None.

    Works by the substitution x_p -> u + m where lin = x_p + m after
    normalizing its pivot coefficient; divisibility is the vanishing of the
    u-free part, which is a polynomial identity test, not a point test.
    """
    lcoeffs = list(lin)
    pivot = next((i for i, c in enumerate(lcoeffs) if c), None)
    if pivot is None:
        raise ValueError("zero linear form")
    if lcoeffs[pivot] != 1:
        inv = gf._inv[lcoeffs[pivot]]
        lcoeffs = [gf._mul[inv][c] for c in lcoeffs]
    m = dict(_lin_dict(lcoeffs))
    m.pop(((1, 0, 0), (0, 1, 0), (0, 0, 1))[pivot])
    # split d by pivot exponent after x_p -> x_p + m (char 2 binomials are
    # all-ones for exponents <= 3)
    shifted: dict = {}
    for exps, v in d.items():
        k = exps[pivot]
        base = list(exps)
        base[pivot] = 0
        basekey = tuple(base)
        if k == 0:
            shifted = _pd_add(shifted, {basekey: v})
            continue
        term: dict = {}
        mpow = {(0, 0, 0): 1}
        for i in range(k + 1):
            # u^(k-i) * m^i kept only when C(k,i) is odd (Lucas test)
            if (i & (k - i)) == 0:
                ukey = [0, 0, 0]
                ukey[pivot] = k - i
                term = _pd_add(term, _pd_mul(gf, {tuple(ukey): 1}, mpow))
            if i < k:
                mpow = _pd_mul(gf, mpow, m)
        shifted = _pd_add(shifted, _pd_mul(gf, {basekey: v}, term))
    remainder = {e: v for e, v in shifted.items() if e[pivot] == 0}
    if remainder:
        return None
    quot_u: dict = {}
    for exps, v in shifted.items():
        k = exps[pivot]
        down = list(exps)
        down[pivot] = k - 1
        quot_u[tuple(down)] = v
    lin_d = _lin_dict(lcoeffs)
    quot = _subst_var(gf, quot_u, pivot, lin_d)
    # belt: verify lin * quot reproduces d exactly
    if _pd_add(_pd_mul(gf, lin_d, quot), d):
        raise ClassificationError("polynomial division self-check failed")
    return quot


# -- differential checks against brute force ---------------------------------


def _poly_mul(gf, p1, p2):
    out = {}
    for (a1, b1, c1), v1 in p1.items():
        for (a2, b2, c2), v2 in p2.items():
            k = (a1 + a2, b1 + b2, c1 + c2)
            out[k] = out.get(k, 0) ^ gf.mul(v1, v2)
    return {k: v for k, v in out.items() if v}


def _poly_add(*polys):
    out = {}
    for p in polys:
        for k, v in p.items():
            out[k] = out.get(k, 0) ^ v
    return {k: v for k, v in out.items() if v}


def _linear(coeffs):
    return {e: c for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs) if c}


def _poly_eval(gf, poly, p):
    acc = 0
    for (i, j, k), c in poly.items():
        v = c
        for coord, n in zip(p, (i, j, k)):
            for _ in range(n):
                v = gf.mul(v, coord)
        acc ^= v
    return acc


def _cubic_type_by_trial_division(gf, cubic):
    """The factorization type by trial division by every line of PG(2,q),
    with the tangency count and the point count taken over all of PG(2,q)."""
    current = {m: c for m, c in zip(CUBIC_MONOMIALS, cubic) if c}
    factors = []
    while len(factors) < 2:
        for lin in pg_points(gf, 2):
            quot = divide_by_linear(gf, current, lin)
            if quot is not None:
                factors.append(lin)
                current = quot
                break
        else:
            break
    if len(factors) == 2:
        factors.append(normalize_point(
            gf, tuple(current.get(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))))
    if len(factors) == 3:
        distinct = len(set(factors))
        if distinct == 1:
            return "TripleLine"
        if distinct == 2:
            return "LinePlusDoubleLine"
        det = mat3_det(gf, [v for lin in factors for v in lin])
        return "ThreeConcurrentLines" if det == 0 else "ThreeNonConcurrentLines"
    if len(factors) == 1:
        kind = classify_conic(gf, tuple(current.get(m, 0) for m in CONIC_MONOMIALS))
        if kind == "ImaginaryPair":
            return "LinePlusImaginaryPair"
        if kind != "Nonsingular":
            raise ClassificationError("reducible residual conic")
        lin = factors[0]
        hits = sum(
            1 for p in pg_points(gf, 2)
            if _poly_eval(gf, _linear(lin), p) == 0 and _poly_eval(gf, current, p) == 0
        )
        kinds = {1: "LinePlusConic_Tangent", 2: "LinePlusConic_Transversal"}
        if hits not in kinds:
            raise ClassificationError("line meets the conic in %d points" % hits)
        return kinds[hits]
    npoints = len(cubic_points(gf, cubic))
    if npoints == 0:
        raise ClassificationError("no factors and no rational points")
    return "NoRationalComponentPoint" if npoints == 1 else "IrreducibleCubic"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ClassificationError:
        return ClassificationError


def _prod(gf, *polys):
    out = {(0, 0, 0): 1}
    for p in polys:
        out = _poly_mul(gf, out, p)
    return out


def _const(c):
    return {(0, 0, 0): c}


def _as_cubic(poly):
    assert all(sum(k) == 3 for k in poly)
    return tuple(poly.get(m, 0) for m in CUBIC_MONOMIALS)


@pytest.mark.parametrize("q", (2, 4, 16))
def test_cubic_form_matches_polynomial_product(q):
    # a*d*f + a*e^2 + b^2*f + c^2*d, each entry the linear form of its column
    gf = field(q)
    rng = random.Random(q)
    planes = 0
    while planes < 50:
        rows = rref(gf, [tuple(rng.randrange(q) for _ in range(6)) for _ in range(3)])
        if len(rows) < 3:
            continue
        a, b, c, d, e, f = (_linear(col) for col in zip(*rows))
        det = _poly_add(_prod(gf, a, d, f), _prod(gf, a, e, e),
                        _prod(gf, b, b, f), _prod(gf, c, c, d))
        assert cubic_form(Subspace(gf, 5, rows)) == _as_cubic(det), rows
        planes += 1


def _sample_cubics(gf, rng, rounds):
    """Per round: one cubic of every CUBIC_KINDS type in random coordinates,
    a line times a random conic, three lines drawn with repeats, and a
    uniformly random cubic, each times a random nonzero scalar."""
    q = gf.q
    c18, t1 = sigma18_parameter(gf), sigma21_parameter(gf)

    def rand_linear():
        while True:
            coeffs = [rng.randrange(q) for _ in range(3)]
            if any(coeffs):
                return _linear(coeffs)

    def rand_conic():
        while True:
            conic = {m: c for m in CONIC_MONOMIALS if (c := rng.randrange(q))}
            if conic:
                return conic

    out = []
    for _ in range(rounds):
        while True:
            frame = [rng.randrange(q) for _ in range(9)]
            if mat3_det(gf, frame):
                break
        x, y, z = (_linear(frame[i:i + 3]) for i in (0, 3, 6))
        pool = [rand_linear(), rand_linear()]
        polys = [
            _prod(gf, x, x, x),  # TripleLine
            _prod(gf, x, y, y),  # LinePlusDoubleLine
            _prod(gf, x, y, _poly_add(x, y)),  # ThreeConcurrentLines
            _prod(gf, x, y, z),  # ThreeNonConcurrentLines
            # z (x^2 + xy + t y^2), Tr(t) = 1: LinePlusImaginaryPair
            _prod(gf, z, _poly_add(_prod(gf, x, x), _prod(gf, x, y), _prod(gf, _const(t1), y, y))),
            _prod(gf, x, _poly_add(_prod(gf, x, z), _prod(gf, y, y))),  # LinePlusConic_Tangent
            _prod(gf, x, _poly_add(_prod(gf, y, z), _prod(gf, x, x))),  # ..._Transversal
            # y^2 z + xyz + x^3 + z^3: IrreducibleCubic
            _poly_add(_prod(gf, y, y, z), _prod(gf, x, y, z), _prod(gf, x, x, x), _prod(gf, z, z, z)),
            # x^3 + x y^2 + c y^3 with t^3 + t + c rootless: NoRationalComponentPoint
            _poly_add(_prod(gf, x, x, x), _prod(gf, x, y, y), _prod(gf, _const(c18), y, y, y)),
            _prod(gf, rand_linear(), rand_conic()),
            _prod(gf, *(rng.choice(pool + [rand_linear()]) for _ in range(3))),
            {m: rng.randrange(q) for m in CUBIC_MONOMIALS},
        ]
        scale = _const(rng.randrange(1, q))
        out += [c for p in polys if any(c := _as_cubic(_prod(gf, scale, p)))]
    return out


def test_cubic_type_matches_trial_division_on_every_cubic_q2(gf2):
    kinds = set()
    for coeffs in product(range(2), repeat=10):
        if not any(coeffs):
            continue
        want = _outcome(_cubic_type_by_trial_division, gf2, coeffs)
        assert _outcome(cubic_type, gf2, coeffs) == want, coeffs
        kinds.add(want)
    assert set(CUBIC_KINDS) <= kinds


@pytest.mark.parametrize("q, rounds", ((4, 40), (8, 20), (16, 10)))
def test_cubic_type_matches_trial_division_sampled(q, rounds):
    gf = field(q)
    kinds = set()
    for cubic in _sample_cubics(gf, random.Random(q), rounds):
        want = _outcome(_cubic_type_by_trial_division, gf, cubic)
        assert _outcome(cubic_type, gf, cubic) == want, cubic
        kinds.add(want)
    assert set(CUBIC_KINDS) <= kinds


def test_pencil_type_does_not_depend_on_the_vertex_q2(gf2):
    # every nonzero cubic over GF(2) with a rational zero, read at each zero
    vertices = 0
    for coeffs in product(range(2), repeat=10):
        if not any(coeffs):
            continue
        want = _outcome(_cubic_type_by_trial_division, gf2, coeffs)
        zeros = cubic_points(gf2, coeffs)
        expect = want if want is ClassificationError else (len(zeros), want)
        for p in zeros:
            assert _outcome(cubic_pencil, gf2, coeffs, p) == expect, (coeffs, p)
            vertices += 1
    assert vertices > 1023


@pytest.mark.parametrize("q, rounds", ((4, 40), (8, 20), (16, 10)))
def test_pencil_matches_trial_division_and_point_count_at_a_random_zero(q, rounds):
    gf = field(q)
    rng = random.Random(q + 1)
    for cubic in _sample_cubics(gf, random.Random(q), rounds):
        want = _outcome(_cubic_type_by_trial_division, gf, cubic)
        zeros = cubic_points(gf, cubic)
        if not zeros:
            continue
        expect = want if want is ClassificationError else (len(zeros), want)
        p = rng.choice(zeros)
        assert _outcome(cubic_pencil, gf, cubic, p) == expect, (cubic, p)


def test_pencil_rejects_a_point_off_the_cubic(gf4):
    x3 = _cubic({(3, 0, 0): 1})
    with pytest.raises(ValueError):
        cubic_pencil(gf4, x3, (1, 0, 0))
    assert cubic_pencil(gf4, x3, (0, 1, 2)) == (5, "TripleLine")


@pytest.mark.parametrize("q", (8, 16, 64, 256))
def test_plane_key_of_moved_representatives_matches_the_closed_forms(q, sample_matrices):
    # the patterns, not representatives(): those are validated by a scan of
    # all q^2+q+1 hyperplanes through each plane, seconds at q = 256
    gf = field(q)
    g0, g1 = sample_matrices(gf)[0], sample_matrices(gf)[-1]
    for label in LABELS:
        s = plane_from_pattern(gf, representative_pattern(gf, label)[0])
        s = act_subspace(act_subspace(s, g0), g1)
        assert plane_key(s) == expected_signature(label, q).key, (q, label)


def _check_fused_pass(s):
    gf = s.gf
    zeros, counts = cubic_zeros_and_counts(s)
    assert counts == point_class_counts(s)
    cubic = cubic_form(s)
    if any(cubic):
        assert sorted(zeros) == sorted(cubic_points(gf, cubic))
    else:
        assert sorted(zeros) == sorted(pg_points(gf, 2))
    if counts[1]:  # cubic_type's kinds are those of the family
        assert plane_signature(s).point_counts == counts
    return any(cubic)


def test_fused_point_pass_on_every_plane_q2(gf2):
    # the double-lines suite reads the nuclear count on planes that miss
    # the nucleus plane too; the counts follow the meet dimensions
    vanishing, nuclear = 0, Counter()
    for s in enumerate_planes(gf2):
        vanishing += not _check_fused_pass(s)
        nuclear[cubic_zeros_and_counts(s)[1][1]] += 1
    assert vanishing > 0
    assert nuclear == {0: 512, 1: 784, 3: 98, 7: 1}


def test_plane_key_off_the_family_raises_classification_error_q2(gf2):
    """The cubic kinds cover the planes meeting the nucleus plane; the other
    shapes, met only off it, raise ClassificationError and nothing else."""
    off = {}
    for s in enumerate_planes(gf2):
        try:
            plane_key(s)
        except ClassificationError as exc:
            assert not cubic_zeros_and_counts(s)[1][1], s
            off[s.key_hex()] = str(exc)
    assert len(off) == 36
    assert off["21509"] == "component line meets the residual conic in 0 points"
    assert off["224cd"] == "cubic with no factors and no rational points"
    assert Counter(off.values()) == {
        "component line meets the residual conic in 0 points": 28,
        "cubic with no factors and no rational points": 8,
    }


@pytest.mark.parametrize("q", (4, 8, 16))
def test_fused_point_pass_on_moved_representatives(q):
    gf = field(q)
    vanishing = 0
    for label, s in representatives(gf).items():
        vanishing += not _check_fused_pass(act_subspace(s, MOVE))
    assert vanishing == sum(EXPECTED_CUBIC_KIND[label] is None for label in LABELS)
