"""The PGL(3,q) action on PG(2,q) and its lift to PG(5,q).

The packed kernel is checked against the brute-force code it replaced,
which lives on here and in ``oracles`` only: the lift as a congruence
product, the RREF of ``projgeom``, a breadth-first orbit on row tuples, the
Singer sweep of kernel fibers, stabilizers as element sets (Schreier
generators closed as they come, and group filters), and line orbits as the
images under every element of a stabilizer.
"""

import random

import pytest

from conicnets import action, atlas, invariants
from conicnets.action import (
    IDENTITY3,
    PackedAction,
    act_subspace,
    closure,
    congruence_image,
    fiber_orbits,
    generators,
    k_equivalent,
    kernel_fiber,
    lift,
    mat3_det,
    mat3_mul,
    orbit_keys,
    packed_action,
    pgl_elements,
    pgl_order,
    subspace_orbit,
)
from conicnets.atlas import (
    plane_stabilizer_order,
    representative,
    representatives,
    verify_partition,
)
from conicnets.errors import ResourceBudgetError, VerificationError
from conicnets.gf import field
from conicnets.invariants import anchor, plane_key, point_class_counts
from conicnets.projgeom import normalize_point, pack_rows, pg_points, rref, span
from conicnets.veronese import nucleus_plane, point_class, veronese
from oracles import (
    act_point,
    act_point_pg2,
    hand_moved_pair,
    mat3_inv,
    mulclose,
    orbit_transversal,
    singer_generators,
    singer_orbit_keys,
    stabilizer,
    sym_matrix,
)


def test_pgl_order_formula():
    assert pgl_order(2) == 168
    assert pgl_order(4) == 60480
    assert pgl_order(8) == 16482816


def certify_generators(gf):
    """Closure size of the generating pair; the closure oracle for the
    row-by-row group."""
    return len(mulclose(gf, generators(gf)))


@pytest.mark.parametrize("q", (2, 4))
def test_generators_generate_the_whole_group(q):
    assert certify_generators(field(q)) == pgl_order(q)


def _gl_order_divides(gf, a, n):
    """Whether a^n is the identity matrix (unnormalized), by squaring."""
    power, base = IDENTITY3, a
    while n:
        if n & 1:
            power = mat3_mul(gf, power, base)
        base = mat3_mul(gf, base, base)
        n >>= 1
    return power == IDENTITY3


@pytest.mark.parametrize("e", range(1, 9))
def test_generators_meet_the_premises_of_their_proof(e):
    """What the proof in ``generators`` rests on, at q = 2 .. 256: the
    first generator is x01(1); conjugation by M takes x01(t) to x12(t),
    x12(t) to x20(t/w) and x20(t) to x01(wt) for every t, w primitive;
    det M is primitive; and M is not an involution, so the transvection is
    the one generator that ``closure`` never steps back by."""
    q = 2**e
    gf = field(q)
    t, m = generators(gf)
    w, m_inv = gf.primitive_element(), mat3_inv(gf, m)

    def x(i, j, c):
        return tuple(c if k == 3 * i + j else IDENTITY3[k] for k in range(9))

    for c in gf.elements:
        for (i, j), (k, l), d in (((0, 1), (1, 2), c), ((1, 2), (2, 0), gf.div(c, w)),
                                  ((2, 0), (0, 1), gf.mul(w, c))):
            assert mat3_mul(gf, mat3_mul(gf, m, x(i, j, c)), m_inv) == x(k, l, d), (i, j, c)
    assert t == x(0, 1, 1)
    det, order = mat3_det(gf, m), 1
    power = det
    while power != 1:
        power, order = gf.mul(power, det), order + 1
    assert order == q - 1
    assert normalize_point(gf, mat3_mul(gf, m, m)) != IDENTITY3


@pytest.mark.parametrize("e", range(1, 9))
def test_generators_are_a_transvection_and_a_singer_cycle(e):
    """The oracle's Singer pair: the transvection and the companion matrix
    of a cubic, of order exactly q^3 - 1 in GL(3,q)."""
    q = 2**e
    gf = field(q)
    t, s = singer_generators(gf)
    assert t == (1, 1, 0, 0, 1, 0, 0, 0, 1)
    # companion matrix of a cubic with nonzero constant term
    assert s[:6] == (0, 1, 0, 0, 0, 1) and s[6] != 0
    n = q**3 - 1
    assert _gl_order_divides(gf, s, n)
    primes, m, d = [], n, 2
    while m > 1:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    assert all(not _gl_order_divides(gf, s, n // p) for p in primes)
    if q <= 16:
        # order by stepping through every power
        x, order = s, 1
        while x != IDENTITY3:
            x, order = mat3_mul(gf, x, s), order + 1
        assert order == n


@pytest.mark.parametrize("q", (8, 16))
def test_generators_walk_the_singer_pairs_point_orbits(q):
    """A nuclear point and a secant point have the same orbit under
    ``generators`` as under the oracle's Singer pair."""
    gf = field(q)
    for y, kind in (((0, 1, 0, 0, 0, 0), "rank2_nuclear"), ((1, 0, 0, 1, 0, 0), "rank2_secant")):
        assert point_class(gf, y) == kind
        p = span(gf, [y])
        assert subspace_orbit((p,), generators(gf)) == subspace_orbit((p,), singer_generators(gf))


@pytest.mark.parametrize("q", (2, 4))
def test_pgl_elements_matches_generator_closure(q):
    """The stream meets each element once: as many as the group's order,
    and as a set the closure of the generators."""
    gf = field(q)
    elements = list(pgl_elements(gf))
    assert len(elements) == pgl_order(q)
    assert set(elements) == mulclose(gf, generators(gf))


def test_matrix_algebra(gf4, sample_matrices):
    gens = sample_matrices(gf4)
    for a in gens:
        inv = mat3_inv(gf4, a)
        assert normalize_point(gf4, mat3_mul(gf4, a, inv)) == IDENTITY3
        for b in gens:
            ab = mat3_mul(gf4, a, b)
            # (ab)^-1 = b^-1 a^-1
            assert normalize_point(gf4, mat3_mul(gf4, mat3_inv(gf4, b), mat3_inv(gf4, a))) \
                == normalize_point(gf4, mat3_inv(gf4, ab))


def test_lift_equivariance_exhaustive_q2(gf2):
    """lift(A) . nu(p) = nu(A . p) for every A in PGL(3,2) and every point."""
    pts = pg_points(gf2, 2)
    for a in pgl_elements(gf2):
        l = lift(gf2, a)
        for p in pts:
            assert act_point(gf2, l, veronese(gf2, p)) == veronese(gf2, act_point_pg2(gf2, a, p))


def test_lift_equivariance_sampled_q8(gf8, sample_matrices):
    pts = pg_points(gf8, 2)[::7]
    for a in sample_matrices(gf8):
        l = lift(gf8, a)
        for p in pts:
            assert act_point(gf8, l, veronese(gf8, p)) == veronese(gf8, act_point_pg2(gf8, a, p))


def test_lift_is_a_homomorphism(gf4, sample_matrices):
    gens = sample_matrices(gf4)
    y = veronese(gf4, (1, 2, 3))
    for a in gens:
        for b in gens:
            ab = mat3_mul(gf4, a, b)
            assert act_point(gf4, lift(gf4, ab), y) \
                == act_point(gf4, lift(gf4, a), act_point(gf4, lift(gf4, b), y))


def test_act_subspace_preserves_structure(gf4, sample_matrices):
    s = representative(gf4, "Sigma9")
    pn = nucleus_plane(gf4)
    for a in sample_matrices(gf4):
        t = act_subspace(s, a)
        assert t.dim == s.dim
        # K fixes the nucleus plane setwise
        assert act_subspace(pn, a) == pn


def test_nucleus_plane_is_k_invariant_q2(gf2):
    pn = nucleus_plane(gf2)
    assert orbit_keys(pn) == {pn.key_int()}
    assert plane_stabilizer_order(pn) == stabilizer_order_direct(pn) == pgl_order(2)


@pytest.mark.parametrize("q", (2, 4))
def test_orbit_stabilizer_products(q):
    gf = field(q)
    # a point orbit, a line orbit, and two plane orbits
    probes = [
        span(gf, [veronese(gf, (1, 0, 0))]),
        span(gf, [veronese(gf, (1, 0, 0)), veronese(gf, (0, 1, 0))]),
        representative(gf, "Sigma8"),
        representative(gf, "Sigma19"),
    ]
    for s in probes[:2]:
        assert pgl_order(q) % len(orbit_keys(s)) == 0
    for s in probes[2:]:
        assert len(orbit_keys(s)) * plane_stabilizer_order(s) == pgl_order(q)


def stabilizer_order_direct(s):
    """|stabilizer| by filtering the full group."""
    return sum(1 for g in pgl_elements(s.gf) if act_subspace(s, g) == s)


def test_stabilizer_direct_agrees_q2(gf2):
    for label in ("Sigma1", "Sigma9", "Sigma18"):
        s = representative(gf2, label)
        assert stabilizer_order_direct(s) == plane_stabilizer_order(s)


def test_k_equivalent_on_moved_copies(gf4, sample_matrices):
    """Each of the 18 representatives is equivalent to its own moved copy
    and to no other orbit's."""
    a, b = sample_matrices(gf4)[:2]
    reps = representatives(gf4)
    moved = {label: act_subspace(act_subspace(s, b), a) for label, s in reps.items()}
    assert [[k_equivalent(reps[x], moved[y]) for y in reps] for x in reps] \
        == [[x == y for y in reps] for x in reps]


def test_orbit_budget_enforced(gf4):
    s = representative(gf4, "Sigma22")  # orbit size 60480
    with pytest.raises(ResourceBudgetError) as info:
        orbit_keys(s, max_keys=1000)
    assert info.value.partial >= 1000
    # the split tables grow as q^3 per scalar: refused before any is built
    with pytest.raises(ResourceBudgetError):
        orbit_keys(span(field(32), [veronese(field(32), (1, 0, 0))]), max_keys=10)


# -- the packed kernel against brute force -----------------------------------


def congruence_lift(gf, a):
    """Column j of the lift is vec(A E_j A^T) for the j-th unit symmetric
    matrix E_j, by two 3x3 matrix products."""
    mul = gf._mul
    rows = (a[0:3], a[3:6], a[6:9])
    cols = []
    for j in range(6):
        m = sym_matrix(tuple(int(i == j) for i in range(6)))
        am = [[mul[rows[i][0]][m[0][k]] ^ mul[rows[i][1]][m[1][k]] ^ mul[rows[i][2]][m[2][k]]
               for k in range(3)] for i in range(3)]
        out = [[mul[am[i][0]][rows[k][0]] ^ mul[am[i][1]][rows[k][1]] ^ mul[am[i][2]][rows[k][2]]
                for k in range(3)] for i in range(3)]
        cols.append((out[0][0], out[0][1], out[0][2], out[1][1], out[1][2], out[2][2]))
    return tuple(tuple(cols[j][i] for j in range(6)) for i in range(6))


def apply_matrix(gf, l, r):
    """The 6-vector l . r, entry by entry."""
    mul = gf._mul
    return [mul[l[i][0]][r[0]] ^ mul[l[i][1]][r[1]] ^ mul[l[i][2]][r[2]]
            ^ mul[l[i][3]][r[3]] ^ mul[l[i][4]][r[4]] ^ mul[l[i][5]][r[5]]
            for i in range(6)]


def _random_projectivities(gf, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = tuple(rng.randrange(gf.q) for _ in range(9))
        if mat3_det(gf, a):
            out.append(a)
    return out


def test_closed_form_lift_matches_congruence_product_q2(gf2):
    for a in pgl_elements(gf2):
        assert lift(gf2, a) == congruence_lift(gf2, a)


@pytest.mark.parametrize("q", (4, 8, 16))
def test_closed_form_lift_matches_congruence_product_sampled(q):
    gf = field(q)
    for a in _random_projectivities(gf, 200, q):
        assert lift(gf, a) == congruence_lift(gf, a)


def _first_pivots(gf, rows):
    """The pivot column each row adds when the rows are reduced in order."""
    out = []
    for i in range(1, len(rows) + 1):
        cols = {next(j for j, x in enumerate(r) if x) for r in rref(gf, rows[:i])}
        out.append((cols - set(out)).pop())
    return out


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_movers_match_rref_and_image(q):
    """Each mover against the RREF of the tuple-mapped rows, on random
    full-rank RREF keys of 1, 2 and 3 rows, under the generators and random
    projectivities.  At q=4 the mapped rows arrive in every pivot order, so
    every branch of the mover's row ordering runs."""
    gf = field(q)
    pa = PackedAction(gf)
    rng = random.Random(q)
    orders = {2: set(), 3: set()}
    for a in list(generators(gf)) + _random_projectivities(gf, 8, q):
        l, tables = lift(gf, a), pa.tables(a)
        for n in (1, 2, 3):
            move = pa.mover(tables, n)
            for _ in range(40):
                rows = ()
                while len(rows) < n:
                    rows = rref(gf, [[rng.randrange(q) if rng.random() < 0.5 else 0
                                      for _ in range(6)] for _ in range(n)])
                key = pack_rows(gf, rows)
                mapped = [apply_matrix(gf, l, r) for r in rows]
                want = pack_rows(gf, rref(gf, mapped))
                assert move(key) == want, (a, rows)
                if n in orders:
                    piv = _first_pivots(gf, mapped)
                    orders[n].add(tuple(sorted(range(n), key=piv.__getitem__)))
    if q == 4:
        assert len(orders[2]) == 2 and len(orders[3]) == 6


def test_mover_takes_one_to_three_rows(gf4, monkeypatch):
    """Packed movers serve points, lines and planes only; a solid or a
    hyperplane key is refused up front rather than misread, and
    ``orbit_keys`` refuses a solid before it seeks an anchor."""
    monkeypatch.setattr(action, "anchor", lambda s: pytest.fail("anchor sought"))
    pa = PackedAction(gf4)
    tables = pa.tables(generators(gf4)[1])
    for n in (0, 4, 5):
        with pytest.raises(ValueError, match="1 to 3 rows"):
            pa.mover(tables, n)
    with pytest.raises(ValueError, match="1 to 3 rows"):
        orbit_keys(span(gf4, [atlas._e(j) for j in range(5)]))


def tuple_orbit_keys(s):
    """Breadth-first orbit on row tuples: lift, multiply, projgeom.rref."""
    gf = s.gf
    lifts = [lift(gf, g) for g in generators(gf)]
    seen = {s.key_int()}
    frontier = [s.rows]
    while frontier:
        new = []
        for rows in frontier:
            for l in lifts:
                img = rref(gf, [apply_matrix(gf, l, r) for r in rows])
                k = pack_rows(gf, img)
                if k not in seen:
                    seen.add(k)
                    new.append(img)
        frontier = new
    return seen


@pytest.mark.parametrize("q", (2, 4))
def test_packed_orbit_keys_match_tuple_bfs(q, sample_matrices):
    """Swept or walked, each orbit is the tuple BFS's, from the
    representative and from moved copies of it."""
    gf = field(q)
    moves = sample_matrices(gf)[2:4]
    for label, s in representatives(gf).items():
        want = tuple_orbit_keys(s)
        assert orbit_keys(s) == want, label
        for a in moves:
            assert orbit_keys(act_subspace(s, a)) == want, label


def _anchored_cases(gf):
    """Points and lines of each anchor kind, with the number of kernel
    vectors of their ``anchor``: missing the nucleus plane (a point's
    anchor is a kernel line, a line's a kernel point), a line meeting it in
    a point, and a point and a line inside it."""
    v = lambda p: veronese(gf, p)
    return [(span(gf, [v((1, 0, 0))]), 2),
            (span(gf, [(1, 0, 0, 1, 0, 0)]), 2),
            (span(gf, [R]), 2),
            (span(gf, [(1, 0, 0, 1, 0, 1)]), 2),
            (span(gf, [v((1, 0, 0)), v((0, 1, 0))]), 1),
            (span(gf, [(1, 0, 0, 0, 0, 1), R]), 1),
            (span(gf, [R, (0, 0, 0, 1, 1, 0)]), 1),
            (span(gf, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]), 1),
            (span(gf, [(0, 1, 0, 0, 0, 0)]), 1),
            (span(gf, [(0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]), 2)]


def _sweep_mismatches(gf, moves):
    """Indices of the anchored cases whose swept orbit, from the subspace
    or from a copy moved by one of ``moves``, is refused or is not the
    tuple BFS's."""
    bad = []
    for i, (s, _) in enumerate(_anchored_cases(gf)):
        want = tuple_orbit_keys(s)
        for t in [s] + [act_subspace(s, a) for a in moves]:
            try:
                ok = orbit_keys(t) == want
            except VerificationError:
                ok = False
            if not ok:
                bad.append(i)
                break
    return bad


@pytest.mark.parametrize("q", (2, 4))
def test_anchored_point_and_line_orbits_match_tuple_bfs(q, sample_matrices):
    """Points and lines are swept like planes: every anchor kind gives the
    tuple BFS's orbit, from the subspace and from moved copies of it."""
    gf = field(q)
    cases = _anchored_cases(gf)
    assert [len(anchor(s)) for s, _ in cases] == [k for _, k in cases]
    assert anchor(cases[6][0]) == anchor(span(gf, [(0, 1, 0, 0, 1, 0)]))
    assert _sweep_mismatches(gf, sample_matrices(gf)[2:4]) == []


@pytest.mark.parametrize("mutant", ("unrooted", "undualized"))
def test_anchor_mutants_break_the_sweep_q4(mutant, gf4, sample_matrices, monkeypatch):
    """Mutants of the anchor of a subspace missing the nucleus plane: the
    diagonal columns without their square roots (at q = 2 the root is the
    identity), or their span in place of its dual.  Each moves otherwise
    than the subspace, and some swept orbit comes out wrong or refused."""
    if mutant == "unrooted":
        monkeypatch.setattr(gf4, "_sqrt", list(range(4)))
    else:
        monkeypatch.setattr(invariants, "annihilator", lambda gf, red, width: list(red))
    assert _sweep_mismatches(gf4, sample_matrices(gf4)[2:4])


def _cell_sweep_cases(gf):
    """Planes anchored at a kernel point and at a kernel line, and a point
    and a line off the nucleus plane."""
    return [representative(gf, "Sigma8"), representative(gf, "Sigma15"),
            span(gf, [veronese(gf, (0, 1, 0))]),
            span(gf, [veronese(gf, (1, 0, 0)), veronese(gf, (0, 1, 0))])]


def _cell_mutants(gf, point):
    """(name, value) patches of ``action``: ``_anchor_cells`` with one
    generator dropped, and each swap replaced by the identity."""
    cells = action._anchor_cells(gf, point)
    for i, (base, gens) in enumerate(cells):
        for j in range(len(gens)):
            fewer = cells[:i] + ((base, gens[:j] + gens[j + 1:]),) + cells[i + 1:]
            yield "_anchor_cells", lambda gf, point, fewer=fewer: fewer
    yield "SWAP01", IDENTITY3
    yield "SWAP02", IDENTITY3


@pytest.mark.parametrize("q", (2, 4, 8))
def test_cell_sweep_needs_every_generator_and_swap(q, monkeypatch):
    """With any one cell generator dropped, or a cell's swap replaced by
    the identity, some anchor position gets no copy of the kernel fiber or
    two, and the count check refuses the sweep of planes, lines and points
    alike.  The breadth-first orbit of a plane missing the nucleus plane,
    under the transvection alone, is two planes."""
    gf = field(q)
    cases = _cell_sweep_cases(gf)
    assert sorted(len(anchor(s)) for s in cases) == [1, 1, 2, 2]
    for s in cases:
        mutants = list(_cell_mutants(gf, len(anchor(s)) == 1))
        assert len(mutants) == 3 * gf.e + 2
        for name, value in mutants:
            with monkeypatch.context() as patch:
                patch.setattr(action, name, value)
                with pytest.raises(VerificationError, match="cell images"):
                    orbit_keys(s)
    monkeypatch.setattr(action, "generators", lambda gf: (action.TRANSVECTION,) * 2)
    diagonal = span(gf, [veronese(gf, p) for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
    assert len(orbit_keys(diagonal)) == 2


def _spanned_by_rows(s):
    """s, the points of its basis rows and the lines of pairs of them."""
    rows = s.rows
    return [s, *(span(s.gf, [r]) for r in rows),
            *(span(s.gf, [rows[i], rows[j]]) for i in range(3) for j in range(i + 1, 3))]


def _sweep_against_oracle(planes, budget):
    """(agreeing, refused by both): the points, lines and planes spanned by
    the basis rows of ``planes``, swept by ``orbit_keys`` and by the Singer
    oracle under ``budget``; a disagreement fails."""
    agree = refused = 0
    for s in planes:
        for t in _spanned_by_rows(s):
            got = []
            for sweep in (orbit_keys, singer_orbit_keys):
                try:
                    got.append(sweep(t, budget))
                except ResourceBudgetError:
                    got.append(None)
            assert got[0] == got[1], t.rows
            agree += got[0] is not None
            refused += got[0] is None
    return agree, refused


def _with_moved_copies(gf, labels):
    (a,) = _random_projectivities(gf, 1, gf.q)
    reps = [representative(gf, label) for label in labels]
    return reps + [act_subspace(s, a) for s in reps]


@pytest.mark.parametrize("q, labels, refused", [
    (2, atlas.LABELS, 0), (4, atlas.LABELS, 0),
    (8, ("Sigma1", "Sigma7", "Sigma8", "Sigma15", "Sigma16", "SigmaN"), 4),
    pytest.param(8, atlas.LABELS, 63, marks=pytest.mark.slow)])
def test_cell_sweep_matches_the_singer_sweep(q, labels, refused):
    """Cell by cell or by Singer images, each orbit has the same keys: the
    points, lines and planes spanned by the basis rows of the
    representatives and of moved copies.  At q = 8 an orbit past 50,000 keys
    is refused by both sweeps; tier 1 takes the six orbits of at most 5,256
    planes, and -m slow all 18."""
    gf = field(q)
    assert _sweep_against_oracle(_with_moved_copies(gf, labels), 50000 if q == 8 else None) \
        == (14 * len(labels) - refused, refused)


def test_cell_sweep_matches_the_singer_sweep_q16():
    """At q = 16, the orbits of at most 80,000 keys among the points, lines
    and planes spanned by moved copies of Sigma1, Sigma7, Sigma16 and
    Sigma8, each orbit past that refused by both sweeps."""
    (a,) = _random_projectivities(field(16), 1, 16)
    moved = [act_subspace(representative(field(16), label), a)
             for label in ("Sigma1", "Sigma7", "Sigma16", "Sigma8")]
    assert _sweep_against_oracle(moved, 80000) == (22, 6)


def _unreduced_mover(self, a, n):
    """Mutant of ``triangular_mover``: the rows mapped, not back-substituted."""
    hi, lo = self.tables(a)
    w, s3, m3, m6 = self.w, self.s3, self.m3, self.m6
    rows = lambda key: ((key >> w * i) & m6 for i in range(n))
    return lambda key: sum((hi[r >> s3] ^ lo[r & m3]) << w * i for i, r in enumerate(rows(key)))


def test_triangular_mover_without_back_substitution_fails_the_oracle(gf4, monkeypatch):
    """Mapped but not back-substituted, the keys of lines and planes leave
    reduced form, and their swept orbits differ from the oracle's (or are
    refused); a point needs no back-substitution, so its orbits agree."""
    monkeypatch.setattr(PackedAction, "triangular_mover", _unreduced_mover)
    s = representative(gf4, "Sigma15")
    cases = _spanned_by_rows(s)

    def agrees(t):
        try:
            return orbit_keys(t) == singer_orbit_keys(t)
        except VerificationError:
            return False

    plane, points, lines = agrees(cases[0]), list(map(agrees, cases[1:4])), map(agrees, cases[4:])
    assert not plane and all(points) and not all(lines)


@pytest.mark.parametrize("e", range(1, 9))
def test_sweep_generators_lift_to_unitriangular_matrices(e):
    """The premise of ``triangular_mover``: the lift of every cell
    generator is lower unitriangular with unit diagonal in the order
    (00, 01, 02, 11, 12, 22), at q = 2 .. 256."""
    gf = field(2**e)
    gens = {a for point in (True, False) for _, cell in action._anchor_cells(gf, point)
            for a in cell}
    assert len(gens) == 3 * e
    for a in gens:
        l = lift(gf, a)
        assert all(l[i][i] == 1 and not any(l[i][i + 1:]) for i in range(6)), a


@pytest.mark.parametrize("q", (2, 4, 8))
def test_anchor_cells_cover_each_position_once(q):
    """Each cell's generators, over its swap's image of e0, reach q^2+q+1
    distinct anchor positions in all, every point of PG(2,q): points move
    by A^-T and lines by A."""
    gf = field(q)
    for point in (True, False):
        reached = []
        for base, gens in action._anchor_cells(gf, point):
            group = [IDENTITY3]
            for a in gens:
                group += [mat3_mul(gf, a, g) for g in group]
            for g in group:
                g = mat3_mul(gf, g, base or IDENTITY3)
                # the image of e0: the first column of A^-T or of A
                reached.append(normalize_point(gf, mat3_inv(gf, g)[:3] if point else g[::3]))
        assert len(reached) == len(set(reached)) == q * q + q + 1
        assert set(reached) == set(pg_points(gf, 2))


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_triangular_mover_matches_the_mover(q):
    """On random full-rank RREF keys of 1, 2 and 3 rows, the
    back-substitution move of a lower unitriangular matrix, a cell
    generator or a random one, equals the generic mover's."""
    gf = field(q)
    pa = PackedAction(gf)
    rng = random.Random(q)
    cells = [a for p in (True, False) for _, gens in action._anchor_cells(gf, p) for a in gens]
    lower = [(1, 0, 0, rng.randrange(q), 1, 0, rng.randrange(q), rng.randrange(q), 1)
             for _ in range(6)]
    for a in cells + lower:
        for n in (1, 2, 3):
            move, fast = pa.mover(pa.tables(a), n), pa.triangular_mover(a, n)
            for _ in range(40):
                rows = ()
                while len(rows) < n:
                    rows = rref(gf, [[rng.randrange(q) if rng.random() < 0.5 else 0
                                      for _ in range(6)] for _ in range(n)])
                key = pack_rows(gf, rows)
                assert fast(key) == move(key), (a, rows)


def test_triangular_mover_refuses_other_matrices(gf4):
    """The generator M, both swaps and diag(1, w, 1) are refused with
    ValueError before any table is built, and so is a 4-row key."""
    pa = PackedAction(gf4)
    for a in (generators(gf4)[1], action.SWAP01, action.SWAP02,
              (1, 0, 0, 0, gf4.primitive_element(), 0, 0, 0, 1)):
        with pytest.raises(ValueError, match="not lower unitriangular"):
            pa.triangular_mover(a, 3)
    assert pa._tables == {}
    with pytest.raises(ValueError, match="1 to 3 rows"):
        pa.triangular_mover(IDENTITY3, 4)


def test_one_packed_action_per_field(gf4, monkeypatch):
    """One process builds a field's scale tables once: a sweep, the 18
    stabilizer counts and the line-orbit report share them.  A refused
    field is refused on every call, not remembered."""
    packed_action.cache_clear()
    built = []
    real = PackedAction.__init__
    monkeypatch.setattr(PackedAction, "__init__",
                        lambda self, gf: built.append(gf.q) or real(self, gf))
    assert len(orbit_keys(representative(gf4, "Sigma9"))) == 1260
    for s in representatives(gf4).values():
        plane_stabilizer_order(s)
    assert all(c["pass"] for c in atlas.verify_line_orbits(gf4)["checks"])
    assert built == [4]
    for _ in range(2):
        with pytest.raises(ResourceBudgetError, match="q <= 16"):
            packed_action(field(32))
    assert built == [4, 32, 32]


@pytest.mark.parametrize("q", (4, 8))
def test_line_orbit_suite_tables_only_group_and_kernel_generators(q):
    """The line-orbit suite builds split tables for the two generators and
    the two kernel subgroups' generators, 6 matrices (x01(1) is the
    transvection), and at q = 4, where it sweeps a special line, for the two
    swaps and the cell generators x10(t), x20(t), x21(t), t = 1, 2 (x10(1)
    and x21(1) are kernel generators): 12.  It builds them for no
    conjugated copy (one more with one)."""
    gf = field(q)
    packed_action.cache_clear()
    assert all(c["pass"] for c in atlas.verify_line_orbits(gf)["checks"])
    want = {*generators(gf), *action._kernel_subgroup_generators(gf, True),
            *action._kernel_subgroup_generators(gf, False)}
    if q == 4:
        want |= {action.SWAP01, action.SWAP02,
                 *(a for point in (True, False)
                   for _, gens in action._anchor_cells(gf, point) for a in gens)}
    assert set(packed_action(gf)._tables) == want and len(want) == (12 if q == 4 else 6)


def test_act_subspace_matches_congruence_lift(gf8):
    for a in _random_projectivities(gf8, 20, 3):
        l = congruence_lift(gf8, a)
        for s in representatives(gf8).values():
            images = [apply_matrix(gf8, l, r) for r in s.rows]
            assert act_subspace(s, a).rows == rref(gf8, images)


@pytest.mark.parametrize("q", (2, 4, 8, 16, 32, 64, 128, 256))
def test_congruence_image_matches_lifted_point(q):
    gf = field(q)
    if q == 2:
        elements, points = pgl_elements(gf), pg_points(gf, 5)
    else:
        rng = random.Random(q)
        elements = _random_projectivities(gf, 40 if q <= 16 else 15, q)
        points = {normalize_point(gf, [rng.randrange(q) for _ in range(6)]) for _ in range(60)}
    for a in elements:
        l = congruence_lift(gf, a)
        for y in points:
            assert congruence_image(gf, a, y) == act_point(gf, l, y), (a, y)


R, P = (0, 1, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)


def _line_and_point(gf):
    """The (line, point) pair (l0, R) the line-orbit report names."""
    return span(gf, [R, (0, 0, 0, 1, 1, 0)]), span(gf, [R])


def _pair_action(gf):
    """The packed (l0, R) pair and the generators' action on it."""
    return _packed_step(*_line_and_point(gf))


def test_on_demand_schreier_closure_matches_full_schreier_set(gf4):
    """The q=4 pair stabilizer of the line-orbit suite: closing Schreier
    generators as they come gives the closure of all of them."""
    state0, act = _pair_action(gf4)
    gens = generators(gf4)
    tr = orbit_transversal(gf4, state0, act)[0]
    schreier = {
        normalize_point(gf4, mat3_mul(gf4, mat3_inv(gf4, tr[act(s, k)]), mat3_mul(gf4, a, u)))
        for s, u in tr.items() for k, a in enumerate(gens)
    }
    full = mulclose(gf4, schreier)
    assert stabilizer(gf4, state0, act)[0] == full
    assert len(full) == 4 * 4 * 3


def test_closure_reaches_the_transversal_orbit(gf4):
    """The closure holds the states of the witness-storing BFS, and no
    generator step leaves it."""
    state0, act = _pair_action(gf4)
    seen = closure(state0, act, 2)
    assert len(seen) == 1260
    assert seen == orbit_transversal(gf4, state0, act)[0].keys()
    assert all(act(s, k) in seen for s in seen for k in range(2))


def test_closure_max_keys_raises_with_partial(gf4):
    state0, act = _pair_action(gf4)
    with pytest.raises(ResourceBudgetError, match="orbit enumeration exceeded 100 keys") as info:
        closure(state0, act, 2, max_keys=100)
    assert info.value.partial == 101
    assert len(closure(state0, act, 2, max_keys=1260)) == 1260


def _packed_step(*subspaces):
    """Packed start state of one subspace (its key) or of several (the
    tuple of keys), and the generators' action on it."""
    gf = subspaces[0].gf
    pa = PackedAction(gf)
    tables = [pa.tables(a) for a in generators(gf)]
    movers = [[pa.mover(t, len(s.rows)) for s in subspaces] for t in tables]
    if len(subspaces) == 1:
        return subspaces[0].key_int(), lambda k, i: movers[i][0](k)
    return (tuple(s.key_int() for s in subspaces),
            lambda st, i: tuple(m(k) for m, k in zip(movers[i], st)))


def test_stabilizer_can_be_trivial(gf2):
    """Sigma22 at q=2 has stabilizer order 1: its orbit is the whole group,
    and the stabilizer is the identity alone, closed by no generator."""
    key, step = _packed_step(representative(gf2, "Sigma22"))
    assert stabilizer(gf2, key, step) == ({IDENTITY3}, 168, [])


def test_closure_involution_skip_keeps_the_tree(gf2, gf4):
    """Not stepping a state back by the involution that reached it reaches
    the same states as the plain BFS, with one step saved per state that
    the involution reached first (the parents of ``orbit_transversal``)."""
    b, c = atlas.sigma20_parameters(gf4)
    lines = [span(gf4, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0)]),
             span(gf4, [(1, 0, b, c, 0, 1), (0, 1, 0, 1, 0, 0)])]
    cases = [(gf2, _packed_step(s)) for s in representatives(gf2).values()]
    cases += [(gf4, _packed_step(s)) for s in lines] + [(gf4, _pair_action(gf4))]
    assert len(cases) == 21
    sizes = []
    for gf, (start, step) in cases:
        calls = []

        def counted(k, i):
            calls.append(i)
            return step(k, i)

        plain = closure(start, counted, 2)
        n_plain = len(calls)
        assert closure(start, counted, 2, involutions=(0,)) == plain
        parent = orbit_transversal(gf, start, step)[1]
        by_t = sum(1 for p in parent.values() if p is not None and p[1] == 0)
        assert n_plain - (len(calls) - n_plain) == by_t
        sizes.append(len(plain))
    assert sizes[18:] == [10080, 30240, 1260]


@pytest.mark.parametrize("e", range(1, 9))
def test_transvection_is_an_involution(e):
    gf = field(2**e)
    t = generators(gf)[0]
    assert mat3_mul(gf, t, t) == IDENTITY3


@pytest.mark.parametrize("q", (4, 8))
def test_k_equivalent_compares_two_kernel_fibers(q, sample_matrices, monkeypatch):
    """A work count in place of a timing: a plane and a moved copy are
    equivalent by two fibers of |orbit| / (q^2+q+1) states, not a walk of
    the orbit.  Sigma3 and Sigma4 share a plane key, so only the fibers
    tell a moved Sigma4 from Sigma3."""
    gf = field(q)
    states = []
    real = action.closure

    def recording(*args, **kwargs):
        seen = real(*args, **kwargs)
        states.append(len(seen))
        return seen

    monkeypatch.setattr(action, "closure", recording)
    g = sample_matrices(gf)[-1]
    s = representative(gf, "Sigma17")
    assert k_equivalent(s, act_subspace(s, g))
    orbit = pgl_order(q) // atlas.expected_stabilizer_order("Sigma17", q)
    assert len(states) == 2 and sum(states) <= 2 * orbit // (q * q + q + 1)
    sigma3, sigma4 = representative(gf, "Sigma3"), representative(gf, "Sigma4")
    assert plane_key(sigma3) == plane_key(sigma4)
    assert not k_equivalent(sigma3, act_subspace(sigma4, g))
    assert k_equivalent(sigma4, act_subspace(sigma4, g))


def _line_orbit_cases(gf):
    """The two stabilizers of the line-orbit suite, each as the subspaces
    it fixes, the anchor it fixes, whose kernel move its orbits are read
    after, and the candidate lines it splits: R with the nuclear point of
    the line l0 = span(R, (0,0,0,1,1,0)) (fixed by the same elements as the
    pair (l0, R)) with the anchor of v(e1) and the lines of the conic plane
    through R, and P with the nuclear point of kernel e2 (fixed by the same
    elements as P and the hyperplane H) with P's anchor e0 and the tangency
    candidates through P inside H."""
    q = gf.q
    hyperplane = span(gf, [atlas._e(j) for j in range(5)])
    conic_plane = span(gf, [atlas._e(i) for i in (0, 1, 3)])
    conic_lines = atlas._lines_through_in(gf, R, conic_plane)
    tangency = {k: l for k, l in atlas._lines_through_in(gf, P, hyperplane).items()
                if point_class_counts(l) == (0, 1, 1, q - 1) and any(r[0] for r in l.rows)}
    return [((span(gf, [R]), span(gf, [(0, 1, 0, 0, 1, 0)])),
             anchor(span(gf, [(0, 0, 0, 1, 0, 0)])), conic_lines),
            ((span(gf, [P]), span(gf, [(0, 1, 0, 0, 0, 0)])),
             anchor(span(gf, [P])), tangency)]


def group_filter(gf, fixed):
    """The elements of the whole group that fix each subspace: the
    stabilizer by its definition.  One subspace is a point, tested first."""
    (p,) = next(t.rows for t in fixed if len(t.rows) == 1)
    return {a for a in pgl_elements(gf)
            if congruence_image(gf, a, p) == p and all(act_subspace(t, a) == t for t in fixed)}


@pytest.mark.parametrize("q", (2, 4))
def test_joint_stabilizer_matches_group_filter(q):
    """The joint stabilizer of the line-orbit suite, of P and the nuclear
    point of kernel e2, against the elements of the group that fix P and
    the hyperplane H = {m22 = 0}, or P and the conic plane of X2 = 0: the
    three pairs have one stabilizer, of order |G| / |G (P, e2's point)|,
    and the Schreier oracle finds it.  Likewise R and the nuclear point of
    l0 have the stabilizer of the pair (l0, R)."""
    gf = field(q)
    (r, nuclear), (point, kernel_point) = (case[0] for case in _line_orbit_cases(gf))
    direct = group_filter(gf, (point, span(gf, [atlas._e(j) for j in range(5)])))
    assert direct == group_filter(gf, (point, span(gf, [atlas._e(i) for i in (0, 1, 3)])))
    assert direct == group_filter(gf, (point, kernel_point))
    assert len(direct) == (q - 1) ** 2 * q * q
    assert len(subspace_orbit((point, kernel_point), generators(gf))) * len(direct) \
        == pgl_order(q)
    assert stabilizer(gf, *_packed_step(point, kernel_point))[0] == direct
    assert group_filter(gf, _line_and_point(gf)) == group_filter(gf, (r, nuclear))


def orbits_by_every_element(gf, members, keyed):
    """Orbit partition of the given lines under a subgroup, given as the
    set of all its elements: the orbit of a line is its set of images.  The
    oracle for the fibers of orbits under a larger subgroup."""
    pa = PackedAction(gf)
    images = {k: {k} for k in keyed}
    for a in members:
        move = pa.mover(pa.tables(a), 2)
        for k, imgs in images.items():
            imgs.add(move(k))
    orbits = []
    placed = set()
    for k in sorted(keyed):
        if k in placed:
            continue
        comp = images[k]
        assert all(images[j] == comp for j in comp)
        orbits.append(comp)
        placed |= comp
    return orbits


@pytest.mark.parametrize("q", (2, 4))
def test_stabilizer_generators_close_to_the_stabilizer(q):
    """The Schreier oracle's stabilizers are the group filters, and their
    Schreier generators close to them."""
    gf = field(q)
    for fixed, _, _ in _line_orbit_cases(gf):
        group, _, gens = stabilizer(gf, *_packed_step(*fixed))
        assert group == group_filter(gf, fixed)
        assert mulclose(gf, gens) == group


def test_pair_stabilizer_generators_close_to_the_stabilizer_q8(gf8):
    group, _, gens = stabilizer(gf8, *_packed_step(*_line_and_point(gf8)))
    assert len(group) == 8 * 8 * 7
    assert mulclose(gf8, gens) == group


@pytest.mark.parametrize("q", (2, 4))
def test_line_orbits_by_closure_match_images_under_every_element(q):
    """Both stabilizers of the line-orbit suite: the order |G| / |orbit| is
    the size of the group filter, H holds the filter conjugated by the
    kernel move C, and the fibers of its orbits are the orbits of the
    filter's elements."""
    gf = field(q)
    sizes = []
    for fixed, kernels, keyed in _line_orbit_cases(gf):
        direct = group_filter(gf, fixed)
        assert len(subspace_orbit(fixed, generators(gf))) * len(direct) == pgl_order(q)
        c, gens = action._kernel_move(gf, kernels)
        conjugated = {normalize_point(gf, mat3_mul(gf, mat3_mul(gf, c, a), mat3_inv(gf, c)))
                      for a in direct}
        assert conjugated <= mulclose(gf, gens)
        orbits, walked = fiber_orbits(fixed, keyed, kernels)
        assert orbits == orbits_by_every_element(gf, direct, keyed)
        assert walked * len(direct) == q**3 * (q - 1) * (q * q - 1)
        sizes.append(sorted(len(c) for c in orbits))
    assert sizes[0] == [1, q // 2, q // 2]


def test_pair_fiber_orbits_match_schreier_oracle_q8(gf8):
    """At q = 8 the pair's fibers in H, after C swaps e0 and e1, are the
    orbits of the 448 elements of the Schreier oracle's stabilizer of
    (l0, R)."""
    fixed, kernels, keyed = _line_orbit_cases(gf8)[0]
    group = stabilizer(gf8, *_packed_step(*_line_and_point(gf8)))[0]
    orbits, walked = fiber_orbits(fixed, keyed, kernels)
    assert orbits == orbits_by_every_element(gf8, group, keyed)
    assert walked * len(group) == 8**3 * 7 * 63
    assert sorted(map(len, orbits)) == [1, 4, 4]


def test_line_orbit_leaving_its_candidates_raises(gf4):
    fixed, kernels, keyed = _line_orbit_cases(gf4)[0]
    orbit = next(c for c in fiber_orbits(fixed, keyed, kernels)[0] if len(c) > 1)
    keyed.pop(min(orbit))
    with pytest.raises(VerificationError, match="leaves its candidate set"):
        fiber_orbits(fixed, keyed, kernels)


@pytest.mark.parametrize("point, q, dropped",
                         [(False, q, d) for q in (4, 8) for d in range(4)]
                         + [(True, 4, d) for d in range(4)])
def test_identity_for_a_subgroup_generator_fails_a_line_orbit_check(point, q, dropped,
                                                                      monkeypatch):
    """With any one generator of the kernel subgroup of a line (point
    False: the pair's fibers walk it after C swaps e0 and e1) or of a point
    (point True: P's stabilizer) replaced by the identity, some check of
    the line-orbit report fails."""
    real = action._kernel_subgroup_generators

    def fewer(gf, p):
        gens = list(real(gf, p))
        if p == point:
            gens[dropped] = IDENTITY3
        return tuple(gens)

    monkeypatch.setattr(action, "_kernel_subgroup_generators", fewer)
    assert not all(c["pass"] for c in atlas.verify_line_orbits(field(q))["checks"])
    # the same subgroup sweeps the orbits of planes with that kind of meet
    label = "Sigma22" if point else "Sigma8"
    assert len(orbit_keys(representative(field(q), label))) \
        < pgl_order(q) // atlas.expected_stabilizer_order(label, q)


@pytest.mark.parametrize("q", (4, 8))
def test_kernel_fiber_matches_the_hand_move(q):
    """From the pair's nuclear point N, ``kernel_fiber`` builds the C that
    the oracle writes by hand, and walks the moved pair under H.  From the
    joint check's P, whose kernel is e0, C is the identity."""
    gf = field(q)
    kernel_gens = action._kernel_subgroup_generators(gf, True)
    pair, moved = hand_moved_pair(gf)
    assert kernel_fiber(pair, anchor(pair[1])) == subspace_orbit(moved, kernel_gens)
    points = (span(gf, [P]), span(gf, [(0, 1, 0, 0, 0, 0)]))
    assert anchor(points[0]) == [(1, 0, 0)]
    assert kernel_fiber(points, anchor(points[0])) == subspace_orbit(points, kernel_gens)


def _identity_kernel_move(monkeypatch):
    """Mutant: ``kernel_fiber`` walks its subspaces unmoved, C = I."""
    real = action.act_subspace
    monkeypatch.setattr(action, "act_subspace", lambda s, a: real(s, IDENTITY3))


@pytest.mark.parametrize("q", (4, 8))
def test_identity_kernel_move_fails_the_pair_count(q, monkeypatch):
    """Unmoved, the pair's kernel is not e0, so H does not hold its
    stabilizer and the pair count comes out wrong.  At q = 4 the suite's
    two special lines are swept through the same move, and the sweep
    refuses it; walked breadth-first, they leave the pair count to report."""
    _identity_kernel_move(monkeypatch)
    if q == 4:
        with pytest.raises(VerificationError, match="cell images"):
            atlas.verify_line_orbits(field(q))
        monkeypatch.setattr(atlas, "orbit_keys",
                            lambda s: subspace_orbit((s,), generators(s.gf)))
    checks = {c["name"]: c for c in atlas.verify_line_orbits(field(q))["checks"]}
    assert not checks["pair_stabilizer_order"]["pass"]


def test_identity_kernel_move_fails_the_partition_stabilizer_check(monkeypatch):
    _identity_kernel_move(monkeypatch)
    monkeypatch.setattr(atlas, "plane_enumeration_chunks", lambda gf: [])
    with pytest.raises(VerificationError, match="stabilizer of Sigma"):
        verify_partition(field(4))


@pytest.mark.parametrize("q", (4, 8))
def test_pair_count_needs_the_second_generator(q, monkeypatch):
    """The pair's orbit size is |G N| |H (C pair)|, and |G N| is walked,
    not assumed: with the transvection alone it is 2, and the check fails."""
    real = atlas.generators
    monkeypatch.setattr(atlas, "generators", lambda gf: real(gf)[:1])
    checks = {c["name"]: c for c in atlas.verify_line_orbits(field(q))["checks"]}
    assert not checks["pair_stabilizer_order"]["pass"]


def test_prefiltered_group_filter_matches_the_plain_filter(gf4):
    """The filter over the matrices with a_01 = a_21 = 0 and a_11 = 1
    counts what the plain filter over the whole group as a set counts."""
    R = (0, 1, 0, 1, 0, 0)
    l0 = span(gf4, [R, (0, 0, 0, 1, 1, 0)])
    plain = sum(1 for a in set(pgl_elements(gf4))
                if congruence_image(gf4, a, R) == R and act_subspace(l0, a) == l0)
    checks = {c["name"]: c for c in atlas.verify_line_orbits(gf4)["checks"]}
    assert checks["pair_stabilizer_matches_group_filter"]["details"]["filter_order"] \
        == plain == 48


@pytest.mark.parametrize("q", (2, 4))
def test_middle_column_fixers_are_the_group_elements_fixing_e1(q):
    """The filter's direct enumeration, normalized, is the set of group
    elements with a_01 = a_21 = 0, each met once."""
    gf = field(q)
    direct = [normalize_point(gf, a) for a in atlas._middle_column_fixers(gf)]
    want = {a for a in pgl_elements(gf) if a[1] == a[7] == 0}
    assert len(direct) == len(set(direct)) == len(want) == q**2 * (q * q - 1) * (q * q - q)
    assert set(direct) == want


def test_line_orbit_suite_walks_neither_the_lines_nor_the_group(monkeypatch):
    """A work count in place of a timing: the q = 4 suite holds at most
    4,001 closure states in 12 closures (42,481 when its two line orbits
    were walked breadth-first, 4,081 in 14 when each stabilizer's subgroup
    orbit was walked apart from its fibers' table), the q = 8 suite 5,617
    in 6, and neither draws an element of ``pgl_elements`` (60,480 when the
    q = 4 filter streamed the whole group)."""
    states, draws = [], []
    real_closure, real_elements = action.closure, action.pgl_elements

    def counted_closure(*args, **kwargs):
        seen = real_closure(*args, **kwargs)
        states.append(len(seen))
        return seen

    def counted_elements(gf):
        for a in real_elements(gf):
            draws.append(a)
            yield a

    monkeypatch.setattr(action, "closure", counted_closure)
    monkeypatch.setattr(action, "pgl_elements", counted_elements)
    for q, bound, walks in ((4, 4001, 12), (8, 5617, 6)):
        states.clear()
        assert all(c["pass"] for c in atlas.verify_line_orbits(field(q))["checks"])
        assert len(states) <= walks and 0 < sum(states) <= bound, q
    assert draws == []


def test_dropping_a_stabilizer_element_fails_the_group_filter(gf4, monkeypatch):
    real = atlas._middle_column_fixers
    monkeypatch.setattr(atlas, "_middle_column_fixers",
                        lambda gf: (a for a in real(gf) if a != IDENTITY3))
    checks = {c["name"]: c for c in atlas.verify_line_orbits(gf4)["checks"]}
    assert not checks["pair_stabilizer_matches_group_filter"]["pass"]
    assert checks["pair_stabilizer_matches_group_filter"]["details"]["filter_order"] == 47
