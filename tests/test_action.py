"""The PGL(3,q) action on PG(2,q) and its lift to PG(5,q).

The packed kernel is checked against the brute-force code it replaced,
which lives on here and in ``oracles`` only: the lift as a congruence
product, the RREF of ``projgeom``, a breadth-first orbit on row tuples, the
Singer sweep of kernel fibers, stabilizers as element sets (Schreier
generators closed as they come, and group filters), and line orbits as the
images under every element of a stabilizer.
"""

import itertools
import random

import pytest

from conicnets import action, atlas, invariants
from conicnets.action import (
    IDENTITY3,
    PackedAction,
    act_subspace,
    closure,
    congruence_image,
    generators,
    group_order,
    k_equivalent,
    kernel_fiber,
    lift,
    line_orbits,
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
from conicnets.projgeom import mat3_rank, normalize_point, pack_rows, pg_points, rref, span
from conicnets.veronese import delta, nucleus_plane, point_class, veronese
from oracles import (
    act_point,
    act_point_pg2,
    fiber_orbits_by_tuples,
    hand_moved_pair,
    lines_through_by_all_points,
    mat3_inv,
    mulclose,
    orbit_transversal,
    singer_generators,
    singer_orbit_keys,
    stabilizer,
    sym_matrix,
    triangle_lines_by_scan,
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
        assert subspace_orbit(p, generators(gf)) == subspace_orbit(p, singer_generators(gf))


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
    s = reps["Sigma1"]
    assert not k_equivalent(span(gf4, s.rows[:2]), s)
    with pytest.raises(ValueError, match="different spaces"):
        k_equivalent(s, representative(field(2), "Sigma1"))


def test_k_equivalent_walks_a_plane_missing_the_nucleus_plane(gf2, sample_matrices,
                                                              monkeypatch):
    """A plane missing the nucleus plane has no anchor, so s2 is looked up
    in the orbit of s1 under the generators: each of two such planes with
    the same point classes (orbits of 56 and 28 planes) is equivalent to
    its moved copy and not to the other."""
    walked, real = [], action.subspace_orbit
    monkeypatch.setattr(action, "subspace_orbit",
                        lambda s, gens, max_keys=None: walked.append(len(s.rows))
                        or real(s, gens, max_keys))
    monkeypatch.setattr(action, "kernel_fiber", lambda *args: pytest.fail("fiber walked"))
    s = span(gf2, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 1, 1), (0, 0, 1, 1, 0, 1)])
    t = span(gf2, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 1, 1), (0, 0, 1, 1, 1, 0)])
    assert anchor(s) == anchor(t) == []
    assert point_class_counts(s) == point_class_counts(t)
    g = sample_matrices(gf2)[-1]
    assert k_equivalent(s, act_subspace(s, g)) and k_equivalent(t, act_subspace(t, g))
    assert not k_equivalent(s, t) and not k_equivalent(t, s)
    assert walked == [3] * 4


def test_orbit_budget_enforced(gf4):
    s = representative(gf4, "Sigma22")  # orbit size 60480
    with pytest.raises(ResourceBudgetError) as info:
        orbit_keys(s, max_keys=1000)
    assert info.value.partial >= 1000
    # the fiber's 2,880 keys pass, and the copy loop stops at the fourth copy
    with pytest.raises(ResourceBudgetError, match="exceeded 10000 keys") as info:
        orbit_keys(s, max_keys=10_000)
    assert info.value.partial == 4 * 2880
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
        l, move = lift(gf, a), pa.mover(pa.tables(a))
        for n in (1, 2, 3):
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
    """Packed movers serve points, lines and planes only: ``PackedAction.key``
    refuses a solid, a hyperplane and the whole space rather than misread
    their keys, so ``subspace_orbit`` and ``kernel_fiber`` refuse them
    before any table is built, and ``orbit_keys`` refuses a solid before it
    seeks an anchor."""
    monkeypatch.setattr(action, "anchor", lambda s: pytest.fail("anchor sought"))
    gf4.forget()
    pa = packed_action(gf4)
    flats = {n: span(gf4, [atlas._e(j) for j in range(n)]) for n in range(1, 7)}
    for n, s in flats.items():
        if n <= 3:
            assert pa.key(s) == s.key_int()
            continue
        with pytest.raises(ValueError, match="1 to 3 rows, got %d" % n):
            pa.key(s)
        with pytest.raises(ValueError, match="1 to 3 rows"):
            subspace_orbit(s, generators(gf4))
        with pytest.raises(ValueError, match="1 to 3 rows"):
            kernel_fiber(s, [(0, 0, 1)])
    with pytest.raises(ValueError, match="1 to 3 rows"):
        orbit_keys(flats[4])
    assert pa._tables == {}


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


def _unreduced_mover(self, a):
    """Mutant of ``triangular_mover``: the rows mapped, not back-substituted."""
    hi, lo = self.tables(a)
    w, s3, m3, m6 = self.w, self.s3, self.m3, self.m6
    rows = lambda key: ((key >> w * i) & m6 for i in range(3))
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
    generator or a random one, equals the generic mover's, and
    ``PackedAction.movers`` picks it for exactly those matrices: not for
    the generators or the swaps."""
    gf = field(q)
    pa = PackedAction(gf)
    rng = random.Random(q)
    cells = [a for p in (True, False) for _, gens in action._anchor_cells(gf, p) for a in gens]
    lower = [(1, 0, 0, rng.randrange(q), 1, 0, rng.randrange(q), rng.randrange(q), 1)
             for _ in range(6)]
    others = [*generators(gf), action.SWAP01, action.SWAP02]
    for a in cells + lower + others:
        move, (fast,) = pa.mover(pa.tables(a)), pa.movers([a])
        assert (fast.__qualname__ == "PackedAction.triangular_mover.<locals>.move") \
            == (a not in others), a
        for n in (1, 2, 3):
            for _ in range(40):
                rows = ()
                while len(rows) < n:
                    rows = rref(gf, [[rng.randrange(q) if rng.random() < 0.5 else 0
                                      for _ in range(6)] for _ in range(n)])
                key = pack_rows(gf, rows)
                assert fast(key) == move(key), (a, rows)


def test_triangular_mover_refuses_other_matrices(gf4):
    """The generator M, both swaps and diag(1, w, 1) are refused with
    ValueError before any table is built."""
    pa = PackedAction(gf4)
    for a in (generators(gf4)[1], action.SWAP01, action.SWAP02,
              (1, 0, 0, 0, gf4.primitive_element(), 0, 0, 0, 1)):
        with pytest.raises(ValueError, match="not lower unitriangular"):
            pa.triangular_mover(a)
    assert pa._tables == {}


def test_one_packed_action_per_field(gf4, monkeypatch):
    """One process builds a field's scale tables once: a sweep, the 18
    stabilizer counts and the line-orbit report share them.  A refused
    field is refused on every call, not remembered."""
    gf4.forget()
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
    """The line-orbit suite builds split tables for the two generators, the
    two kernel subgroups' generators, 6 matrices (x01(1) is the
    transvection), and D(w) of the pair's closed-form generators, and at
    q = 4, where it splits the tangency candidates, for the joint
    generator diag(1,1,w): 8.  It sweeps no anchor cell, so it tables
    neither a swap nor a cell generator.  The pair's fiber sweeps its first
    radical block, which adds the point radical's x10(t) x20(t) and the
    x10(t) not yet tabled, which the pair's generators reuse: 11 at q = 4
    and 12 at q = 8.  It builds them for no conjugated copy (one more with
    one)."""
    gf = field(q)
    gf.forget()
    assert all(c["pass"] for c in atlas.verify_line_orbits(gf)["checks"])
    pair, joint = atlas._stabilizer_generators(gf)
    want = {*generators(gf), *action._kernel_subgroup_generators(gf, True),
            *action._kernel_subgroup_generators(gf, False), pair[-1]}
    if q == 4:
        want.add(joint[-1])
    radical = {a for point in (True, False)
               for a in action._radical_basis(gf, action._kernel_subgroup_generators(gf, point))}
    built = set(packed_action(gf)._tables)
    assert want <= built <= want | radical
    assert len(want) == (8 if q == 4 else 7) and len(built) == (11 if q == 4 else 12)


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
    seen = closure(state0, _moves(act))
    assert len(seen) == 1260
    assert seen == orbit_transversal(gf4, state0, act)[0].keys()
    assert all(act(s, k) in seen for s in seen for k in range(2))


def test_closure_max_keys_raises_with_partial(gf4):
    state0, act = _pair_action(gf4)
    with pytest.raises(ResourceBudgetError, match="orbit enumeration exceeded 100 keys") as info:
        closure(state0, _moves(act), max_keys=100)
    assert info.value.partial == 101
    assert len(closure(state0, _moves(act), max_keys=1260)) == 1260


def _moves(step, ngens=2):
    """``closure``'s maps for an action ``step(state, k)`` of ``ngens`` generators."""
    return [lambda state, k=k: step(state, k) for k in range(ngens)]


def _packed_step(*subspaces):
    """Packed start state of one subspace (its key) or of several (the
    tuple of keys), and the generators' action on it."""
    gf = subspaces[0].gf
    pa = PackedAction(gf)
    movers = [pa.mover(pa.tables(a)) for a in generators(gf)]
    if len(subspaces) == 1:
        return subspaces[0].key_int(), lambda k, i: movers[i](k)
    return (tuple(s.key_int() for s in subspaces),
            lambda st, i: tuple(map(movers[i], st)))


def test_stabilizer_can_be_trivial(gf2):
    """Sigma22 at q=2 has stabilizer order 1: its orbit is the whole group,
    and the stabilizer is the identity alone, closed by no generator."""
    key, step = _packed_step(representative(gf2, "Sigma22"))
    assert stabilizer(gf2, key, step) == ({IDENTITY3}, 168, [])


def test_closure_matches_the_transversal_states(gf2, gf4):
    """The closure reaches the states of ``orbit_transversal`` on the 18
    q = 2 representatives, two q = 4 lines and the q = 4 pair."""
    b, c = atlas.sigma20_parameters(gf4)
    lines = [span(gf4, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0)]),
             span(gf4, [(1, 0, b, c, 0, 1), (0, 1, 0, 1, 0, 0)])]
    cases = [(gf2, _packed_step(s)) for s in representatives(gf2).values()]
    cases += [(gf4, _packed_step(s)) for s in lines] + [(gf4, _pair_action(gf4))]
    assert len(cases) == 21
    sizes = []
    for gf, (start, step) in cases:
        seen = closure(start, _moves(step))
        assert seen == orbit_transversal(gf, start, step)[0].keys()
        sizes.append(len(seen))
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
    it fixes, the anchor it fixes, whose kernel move the tuple-walk oracle
    reads its orbits after, the candidate lines it splits and its closed-form
    generators: R with the nuclear point of the line
    l0 = span(R, (0,0,0,1,1,0)) (fixed by the same elements as the pair
    (l0, R)) with the anchor of v(e1) and the lines of the conic plane
    through R, and P with the nuclear point of kernel e2 (fixed by the same
    elements as P and the hyperplane H) with P's anchor e0 and the tangency
    candidates through P inside H."""
    q = gf.q
    hyperplane = span(gf, [atlas._e(j) for j in range(5)])
    conic_plane = span(gf, [atlas._e(i) for i in (0, 1, 3)])
    conic_lines = atlas._lines_through_in(gf, R, conic_plane)
    tangency = {k: l for k, l in atlas._lines_through_in(gf, P, hyperplane).items()
                if point_class_counts(l) == (0, 1, 1, q - 1) and any(r[0] for r in l.rows)}
    pair, joint = atlas._stabilizer_generators(gf)
    return [((span(gf, [R]), span(gf, [(0, 1, 0, 0, 1, 0)])),
             anchor(span(gf, [(0, 0, 0, 1, 0, 0)])), conic_lines, pair),
            ((span(gf, [P]), span(gf, [(0, 1, 0, 0, 0, 0)])),
             anchor(span(gf, [P])), tangency, joint)]


@pytest.mark.parametrize("q", (2, 4, 8))
def test_lines_through_span_each_line_once(q, monkeypatch):
    """The suite's candidate lines, through R in the conic plane of X2 = 0
    and through P in the hyperplane H = {m22 = 0}, are those spanned with
    every other point of the subspace, and each is spanned once: q + 1 and
    q^3 + q^2 + q + 1 spans, where the all-points enumeration makes q times
    as many."""
    gf = field(q)
    hyperplane = span(gf, [atlas._e(j) for j in range(5)])
    conic_plane = span(gf, [atlas._e(i) for i in (0, 1, 3)])
    spans, real = [], atlas.span
    monkeypatch.setattr(atlas, "span", lambda gf, rows: spans.append(rows) or real(gf, rows))
    for p, amb, count in ((R, conic_plane, q + 1), (P, hyperplane, q**3 + q * q + q + 1)):
        spans.clear()
        lines = atlas._lines_through_in(gf, p, amb)
        assert lines == lines_through_by_all_points(gf, p, amb)
        assert len(lines) == len(spans) == count


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
    assert len(orbit_transversal(gf, *_packed_step(point, kernel_point))[0]) * len(direct) \
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
        move = pa.mover(pa.tables(a))
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
    for fixed, *_ in _line_orbit_cases(gf):
        group, _, gens = stabilizer(gf, *_packed_step(*fixed))
        assert group == group_filter(gf, fixed)
        assert mulclose(gf, gens) == group


def test_pair_stabilizer_generators_close_to_the_stabilizer_q8(gf8):
    """The Schreier oracle's pair stabilizer at q = 8 is closed by its
    Schreier generators and by the suite's closed-form ones."""
    group, _, gens = stabilizer(gf8, *_packed_step(*_line_and_point(gf8)))
    assert len(group) == 8 * 8 * 7
    assert mulclose(gf8, gens) == group
    assert mulclose(gf8, atlas._stabilizer_generators(gf8)[0]) == group


def test_closed_form_generators_close_to_the_group_filters_q4(gf4):
    """At q = 4 the suite's pair and joint generators close to the group
    filters of the subspaces they fix."""
    for fixed, _, _, gens in _line_orbit_cases(gf4):
        assert mulclose(gf4, gens) == group_filter(gf4, fixed)


@pytest.mark.parametrize("q", (4, 8, 16))
def test_group_order_of_the_closed_form_generators(q):
    """``group_order`` closes the pair generators to q^2 (q-1) elements and
    the joint ones to (q-1)^2 q^2, matching ``mulclose`` where it is cheap.
    The suite refuses q = 2, where D(w) is the identity."""
    gf = field(q)
    pair, joint = atlas._stabilizer_generators(gf)
    assert group_order(gf, pair) == q * q * (q - 1)
    if q < 16:
        assert group_order(gf, joint) == len(mulclose(gf, joint)) == (q - 1) ** 2 * q * q


@pytest.mark.parametrize("q", (2, 4))
def test_line_orbits_by_closure_match_images_under_every_element(q):
    """Both stabilizers of the line-orbit suite: their orbits on the lines,
    walked under the Schreier oracle's generators (and at q = 4 under the
    closed forms, which q = 2 lacks), are the images of the lines under
    every element of the group filter, of order |G| / |orbit|.  H holds the
    filter conjugated by the kernel move C, as the tuple-walk oracle needs."""
    gf = field(q)
    sizes = []
    for fixed, kernels, keyed, gens in _line_orbit_cases(gf):
        direct = group_filter(gf, fixed)
        assert len(orbit_transversal(gf, *_packed_step(*fixed))[0]) * len(direct) == pgl_order(q)
        c, kernel_gens = action._kernel_move(gf, kernels)
        conjugated = {normalize_point(gf, mat3_mul(gf, mat3_mul(gf, c, a), mat3_inv(gf, c)))
                      for a in direct}
        assert conjugated <= mulclose(gf, kernel_gens)
        orbits = orbits_by_every_element(gf, direct, keyed)
        assert line_orbits(keyed, stabilizer(gf, *_packed_step(*fixed))[2]) == orbits
        if q > 2:
            assert line_orbits(keyed, gens) == orbits
        sizes.append(sorted(len(c) for c in orbits))
    assert sizes[0] == [1, q // 2, q // 2]


def test_pair_fiber_orbits_match_schreier_oracle_q8(gf8):
    """At q = 8 the pair's line orbits under its closed-form generators are
    the orbits of the 448 elements of the Schreier oracle's stabilizer of
    (l0, R)."""
    _, _, keyed, gens = _line_orbit_cases(gf8)[0]
    group = stabilizer(gf8, *_packed_step(*_line_and_point(gf8)))[0]
    orbits = line_orbits(keyed, gens)
    assert orbits == orbits_by_every_element(gf8, group, keyed)
    assert sorted(map(len, orbits)) == [1, 4, 4]


def test_line_orbit_leaving_its_candidates_raises(gf4):
    _, _, keyed, gens = _line_orbit_cases(gf4)[0]
    orbit = next(c for c in line_orbits(keyed, gens) if len(c) > 1)
    keyed.pop(min(orbit))
    with pytest.raises(VerificationError, match="leaves its candidate set"):
        line_orbits(keyed, gens)


@pytest.mark.parametrize("q, case", [(4, 0), (4, 1), (8, 0), (8, 1), (16, 0),
                                     pytest.param(16, 1, marks=pytest.mark.slow)])
def test_fiber_orbits_match_the_tuple_walk(q, case):
    """Both of the suite's stabilizers: the line orbits under the closed-form
    generators are the fibers of the tuple-state walk in H, at q = 4, 8 and
    16.  At q = 16 that walk splits the 4,080 tangency candidates with 272
    states of H (about 9 s), so that case runs under -m slow."""
    fixed, kernels, keyed, gens = _line_orbit_cases(field(q))[case]
    orbits = line_orbits(keyed, gens)
    assert orbits == fiber_orbits_by_tuples(fixed, keyed, kernels)[0]
    assert len(orbits) == (3, 2)[case]


@pytest.mark.parametrize("q, case, i", [(4, 0, i) for i in range(3)]
                         + [(8, 0, i) for i in range(4)] + [(4, 1, i) for i in range(4)])
def test_identity_for_a_closed_form_generator_fails_a_line_orbit_check(q, case, i,
                                                                       monkeypatch):
    """With any one closed-form generator replaced by the identity (the
    pair's x10(t) and D(w), the joint x10(1), x12(1) and torus), the rest
    close to a proper subgroup, and the check of that stabilizer fails."""
    real = atlas._stabilizer_generators

    def fewer(gf):
        sets = [list(gens) for gens in real(gf)]
        sets[case][i] = IDENTITY3
        return sets

    monkeypatch.setattr(atlas, "_stabilizer_generators", fewer)
    checks = {c["name"]: c["pass"] for c in atlas.verify_line_orbits(field(q))["checks"]}
    assert not checks[("pair_stabilizer_fixes_conic_point", "tangency_candidate_orbits")[case]]


@pytest.mark.parametrize("q", (4, 8))
def test_pair_generator_moving_the_nuclear_point_fails_a_line_orbit_check(q, monkeypatch):
    """D(w) with its (0,2) entry zeroed is diag(1,1,w), which moves N."""
    real = atlas._stabilizer_generators

    def moved(gf):
        pair, joint = real(gf)
        return pair[:-1] + [pair[-1][:2] + (0,) + pair[-1][3:]], joint

    monkeypatch.setattr(atlas, "_stabilizer_generators", moved)
    gf = field(q)
    assert congruence_image(gf, moved(gf)[0][-1], (0, 1, 0, 0, 1, 0)) != (0, 1, 0, 0, 1, 0)
    checks = {c["name"]: c for c in atlas.verify_line_orbits(gf)["checks"]}
    assert not checks["pair_stabilizer_fixes_conic_point"]["pass"]


@pytest.mark.parametrize("case", (0, 1))
def test_conjugated_generators_reach_the_order_but_fail_the_fixed_points(case, gf4,
                                                                         monkeypatch):
    """Conjugated by the transvection, either generator set still closes to
    its stabilizer's order, but no longer fixes its points, and its line
    orbits leave the candidates.  With the lines split under the true
    generators, the fixed points alone fail the check."""
    real, split = atlas._stabilizer_generators, atlas.line_orbits

    def conjugated(gf):
        sets = [list(gens) for gens in real(gf)]
        t = generators(gf)[0]
        sets[case] = [normalize_point(gf, mat3_mul(gf, mat3_mul(gf, t, a), t)) for a in sets[case]]
        return sets

    monkeypatch.setattr(atlas, "_stabilizer_generators", conjugated)
    assert group_order(gf4, conjugated(gf4)[case]) == group_order(gf4, real(gf4)[case])
    with pytest.raises(VerificationError, match="leaves its candidate set"):
        atlas.verify_line_orbits(gf4)
    true = {tuple(a): b for a, b in zip(conjugated(gf4), real(gf4))}
    monkeypatch.setattr(atlas, "line_orbits", lambda lines, gens: split(lines, true[tuple(gens)]))
    checks = {c["name"]: c["pass"] for c in atlas.verify_line_orbits(gf4)["checks"]}
    assert not checks[("pair_stabilizer_fixes_conic_point", "tangency_candidate_orbits")[case]]


@pytest.mark.parametrize("point, q, dropped",
                         [(False, q, d) for q in (4, 8) for d in range(4)]
                         + [(True, 4, d) for d in range(4)])
def test_identity_for_a_subgroup_generator_fails_a_line_orbit_check(point, q, dropped,
                                                                      monkeypatch):
    """With any one generator of the kernel subgroup of a point (point True:
    the pair count walks it after C moves N's kernel to e0) replaced by the
    identity, some check of the line-orbit report fails; the suite walks no
    line's kernel subgroup (point False).  Either mutant sweeps too few
    keys for the planes with that kind of meet."""
    real = action._kernel_subgroup_generators

    def fewer(gf, p):
        gens = list(real(gf, p))
        if p == point:
            gens[dropped] = IDENTITY3
        return tuple(gens)

    monkeypatch.setattr(action, "_kernel_subgroup_generators", fewer)
    if point:
        assert not all(c["pass"] for c in atlas.verify_line_orbits(field(q))["checks"])
    label = "Sigma22" if point else "Sigma8"
    assert len(orbit_keys(representative(field(q), label))) \
        < pgl_order(q) // atlas.expected_stabilizer_order(label, q)


@pytest.mark.parametrize("q", (4, 8))
def test_kernel_fiber_matches_the_hand_move(q):
    """From the pair's nuclear point N, ``kernel_fiber`` builds the C that
    the oracle writes by hand and walks C R under H.  H fixes C N = P, so
    the pair's orbit, walked on tuple states, has |G N| |H (C R)| members.
    From the joint check's P, whose kernel is e0, C is the identity."""
    gf = field(q)
    kernel_gens = action._kernel_subgroup_generators(gf, True)
    (r, n), (moved_r, moved_n) = hand_moved_pair(gf)
    point, e1 = span(gf, [P]), span(gf, [(0, 1, 0, 0, 0, 0)])
    assert kernel_fiber(r, anchor(n)) == subspace_orbit(moved_r, kernel_gens)
    assert kernel_fiber(n, anchor(n)) == {moved_n.key_int()} == {point.key_int()}
    assert len(orbit_transversal(gf, *_packed_step(r, n))[0]) \
        == len(subspace_orbit(n, generators(gf))) * len(kernel_fiber(r, anchor(n)))
    assert anchor(point) == [(1, 0, 0)]
    assert kernel_fiber(e1, anchor(point)) == subspace_orbit(e1, kernel_gens)


def _block_cases(gf, labels=atlas.LABELS):
    """Each representative moved by one seeded projectivity, the point of
    its first row and the lines of its first two and its last two rows:
    those of them with a point or a line anchor."""
    (a,) = _random_projectivities(gf, 1, gf.q)
    cases = []
    for label in labels:
        s = act_subspace(representative(gf, label), a)
        cases += [t for t in (s, span(gf, s.rows[:1]), span(gf, s.rows[:2]), span(gf, s.rows[1:]))
                  if len(anchor(t)) in (1, 2)]
    return cases


def _block_oracle(cases):
    """Per case, its kernel fiber as the ``closure`` of H, and the states
    the block walk holds: |F| / |U x0| radical blocks when |U x0| >= q^2/2,
    else |F|.  U x0 is walked under every x10(u), x20(u) (point anchor) or
    x01(u), x02(u) (line anchor), the radical by its definition."""
    out = []
    for t in cases:
        gf, kernels = t.gf, anchor(t)
        c, gens = action._kernel_move(gf, kernels)
        x0 = act_subspace(t, c)
        fiber = subspace_orbit(x0, gens)
        roots = ((1, 0), (2, 0)) if len(kernels) == 1 else ((0, 1), (0, 2))
        radical = [tuple(u if k == 3 * i + j else IDENTITY3[k] for k in range(9))
                   for i, j in roots for u in gf.nonzero]
        block = len(subspace_orbit(x0, radical))
        out.append((fiber, len(fiber) // block if 2 * block >= gf.q**2 else len(fiber)))
    return out


def _block_walk_mismatches(cases, want, monkeypatch):
    """Indices of the cases whose ``kernel_fiber`` is refused, is not the
    oracle's, or holds other than the oracle's states in its one closure."""
    held, bad = [], []
    real = action.closure

    def recording(*args, **kwargs):
        seen = real(*args, **kwargs)
        held.append(len(seen))
        return seen

    with monkeypatch.context() as patch:
        patch.setattr(action, "closure", recording)
        for i, (t, (fiber, states)) in enumerate(zip(cases, want)):
            held.clear()
            try:
                ok = kernel_fiber(t, anchor(t)) == fiber and held == [states]
            except VerificationError:
                ok = False
            if not ok:
                bad.append(i)
    return bad


@pytest.mark.parametrize("q", (2, 4, 8))
def test_block_walk_matches_the_kernel_closure(q, monkeypatch):
    """Walked by radical blocks or by the closure of H, each fiber of the
    moved representatives, their first rows, first two and last two rows
    is the closure of H, and the walk holds blocks where |U x0| >= q^2/2
    and states elsewhere; both kinds occur at each q."""
    cases = _block_cases(field(q))
    want = _block_oracle(cases)
    assert _block_walk_mismatches(cases, want, monkeypatch) == []
    assert {states < len(fiber) for fiber, states in want} == {True, False}


def test_block_walk_matches_the_kernel_closure_q16(monkeypatch):
    """At q = 16, Sigma3 and Sigma10 and moved copies of them, whose
    radical blocks hold q^2 = 256 planes."""
    cases = [t for s in (representative(field(16), "Sigma3"), representative(field(16), "Sigma10"))
             for t in (s, act_subspace(s, _random_projectivities(field(16), 1, 16)[0]))]
    assert _block_walk_mismatches(cases, _block_oracle(cases), monkeypatch) == []


def test_kernel_fiber_budget_bounds_the_small_block_walk(gf4):
    """Sigma20's q = 4 radical block holds 4 < q^2/2 planes, so its fiber
    of 90 is walked by the closure of H, which stops at 51 states."""
    s = representative(gf4, "Sigma20")
    assert len(kernel_fiber(s, anchor(s), 90)) == 90
    with pytest.raises(ResourceBudgetError, match="exceeded 50 keys") as info:
        kernel_fiber(s, anchor(s), 50)
    assert info.value.partial == 51


def _levi_dropped(i):
    real = action._kernel_subgroup_generators
    return "_kernel_subgroup_generators", \
        lambda gf, point: tuple(IDENTITY3 if j == i else a for j, a in enumerate(real(gf, point)))


@pytest.mark.parametrize("mutant", ("x12", "x21", "diag", "radical", "gray"))
def test_block_walk_mutants_fail_the_oracle_q4(mutant, monkeypatch):
    """A Levi generator replaced by the identity, the last radical
    generator dropped, or the first step of the Gray walk skipped: some
    fiber comes out wrong or refused."""
    cases = _block_cases(field(4), ("Sigma8", "Sigma17", "Sigma22", "Sigma23"))
    want = _block_oracle(cases)
    name, value = {
        "x12": _levi_dropped(0), "x21": _levi_dropped(1), "diag": _levi_dropped(3),
        "radical": ("_radical_basis", lambda gf, gens, real=action._radical_basis:
                    real(gf, gens)[:-1]),
        "gray": ("_gray", lambda moves, real=action._gray: real(moves)[1:]),
    }[mutant]
    monkeypatch.setattr(action, name, value)
    assert _block_walk_mismatches(cases, want, monkeypatch)


def test_sigma22_q8_fiber_walks_levi_moves_on_blocks(monkeypatch):
    """A work count in place of a timing: Sigma22's q = 8 fiber of 225,792
    planes is 3,528 radical blocks of q^2 = 64, and the Levi walk on them
    makes at most 3 x 3,528 moves (the closure of H made 799,687)."""
    moves, held = [], []
    real = action.closure

    def counted(start, maps, *args, **kwargs):
        seen = real(start, [lambda st, m=m: moves.append(m) or m(st) for m in maps],
                    *args, **kwargs)
        held.append(len(seen))
        return seen

    monkeypatch.setattr(action, "closure", counted)
    s = representative(field(8), "Sigma22")
    assert len(kernel_fiber(s, anchor(s))) == 225792
    assert held == [3528] and len(moves) <= 3 * 3528


def _big_cell_keys(gf, n, rng=None, count=0):
    """Keys of n-row subspaces whose first n coordinates are the identity
    block: all of them, or ``count`` drawn by ``rng``."""
    w, unit = 6 * gf.e, [tuple(int(i == k) for i in range(n)) for k in range(n)]
    if rng is None:
        tails = list(itertools.product(range(gf.q), repeat=6 - n))
        rows = [[pack_rows(gf, [u + t]) for t in tails] for u in unit]
        picks = itertools.product(*rows)
    else:
        picks = ([pack_rows(gf, [u + tuple(rng.randrange(gf.q) for _ in range(6 - n))])
                  for u in unit] for _ in range(count))
    return [sum(r << w * (n - 1 - k) for k, r in enumerate(rows)) for rows in picks]


def _cell_generators(gf):
    return sorted({a for point in (True, False) for _, gens in action._anchor_cells(gf, point)
                   for a in gens})


def _table_moves(pa, a, n, keys):
    """The big-cell keys moved in bulk: one byte-plane step of
    ``cell_tables(a, n)``."""
    copies = action._plane_sweep(keys, [pa.cell_tables(a, n)], pa.big_cell(n)[1] >> 64 << 64)
    return list(list(copies)[1])


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_cell_tables_match_the_triangular_mover(q):
    """On every big-cell key at q = 2 and 4, and 2,000 seeded ones at
    q = 8 and 16, of 1, 2 and 3 rows, each sweep generator's byte-plane
    step gives the back-substitution move's image, keys past 64 bits (planes
    at q = 16) included.  ``big_cell`` picks out the identity block, and
    past bit 64 a key holds only its bits; each table is one
    ``bytes.translate`` table of 256 entries, and there is one entry per key
    byte below bit 64."""
    gf = field(q)
    pa = PackedAction(gf)
    rng = random.Random(q)
    for n in (1, 2, 3):
        keys = _big_cell_keys(gf, n, None if q <= 4 else rng, 2000)
        mask, cell = pa.big_cell(n)
        assert {k & mask for k in keys} == {cell} and {k >> 64 for k in keys} == {cell >> 64}
        assert all(action._records([k])[i ^ action._BYTE0] == k >> 8 * i & 255
                   for k in keys[:100] for i in range(8))
        for a in _cell_generators(gf):
            assert _table_moves(pa, a, n, keys) == list(map(pa.triangular_mover(a), keys)), \
                (a, n)
            tables = pa.cell_tables(a, n)
            assert len(tables) == min(8, -(-n * 6 * gf.e // 8))
            assert {len(t) for terms in tables for _, t in terms} == {256}
    assert max(k.bit_length() for k in keys) > 64 * (q == 16)


def test_cell_tables_need_their_constant_and_every_column(gf4):
    """Tables that lose the image of the identity block (folded into the
    tables of key byte 0), or any one free-bit column, move some big-cell
    key otherwise than the back-substitution move."""
    pa = PackedAction(gf4)
    keys = _big_cell_keys(gf4, 3, random.Random(3), 2000)
    mask, _ = pa.big_cell(3)
    free = [b for b in range(18 * gf4.e) if not mask >> b & 1]
    assert len(free) == 9 * gf4.e
    for a in _cell_generators(gf4):
        move = list(map(pa.triangular_mover(a), keys))
        tables = pa.cell_tables(a, 3)
        mutants = [[[(i, bytes(x ^ t[0] for x in t) if i == 0 else t) for i, t in terms]
                    for terms in tables]]
        for b in free:
            i, bit = divmod(b, 8)
            mutants.append([[(j, bytes(t[v & ~(1 << bit)] for v in range(256)) if j == i else t)
                             for j, t in terms] for terms in tables])
        for mutant in mutants:
            pa._cells[a, 3] = mutant
            assert _table_moves(pa, a, 3, keys) != move
        pa._cells[a, 3] = tables
        assert _table_moves(pa, a, 3, keys) == move


def test_q4_orbit_sweep_moves_big_cell_copies_as_byte_planes(gf4, monkeypatch):
    """A work count in place of a timing: the 18 q = 4 orbits, from the
    representatives moved by one seeded projectivity and with the field's
    tables built afresh, take 306 byte-plane steps (18 copies after the
    first of each of 17 swept orbits; the nucleus plane is its own orbit)
    that move 70,080 big-cell keys, 35,080 per-key triangular moves (the
    keys off the big cell, the radical sweeps and the table builds) and
    12,504 generic ones (the swap copies and the walks of H, which step
    each state by every generator).  Moving the big cell key by key again
    adds 70,080 triangular moves."""
    counts = dict.fromkeys(("steps", "planes", "triangular", "generic"), 0)

    def counted(name, build):
        def wrapped(*args):
            move = build(*args)
            return lambda key: counts.__setitem__(name, counts[name] + 1) or move(key)
        return wrapped

    def sweep(keys, steps, high, real=action._plane_sweep):
        for j, copy in enumerate(real(keys, steps, high)):
            copy = list(copy)
            counts["steps"] += j > 0
            counts["planes"] += len(copy) * (j > 0)
            yield copy

    monkeypatch.setattr(PackedAction, "triangular_mover",
                        counted("triangular", PackedAction.triangular_mover))
    monkeypatch.setattr(PackedAction, "mover", counted("generic", PackedAction.mover))
    monkeypatch.setattr(action, "_plane_sweep", sweep)
    gf4.forget()
    (a,) = _random_projectivities(gf4, 1, 4)
    sizes = [len(orbit_keys(act_subspace(s, a))) for s in representatives(gf4).values()]
    assert sum(sizes) == 114661
    assert counts == {"steps": 306, "planes": 70080, "triangular": 35080, "generic": 12504}


def _identity_kernel_move(monkeypatch):
    """Mutant: ``kernel_fiber`` walks its subspaces unmoved, C = I."""
    real = action.act_subspace
    monkeypatch.setattr(action, "act_subspace", lambda s, a: real(s, IDENTITY3))


@pytest.mark.parametrize("q", (4, 8))
def test_identity_kernel_move_fails_the_pair_count(q, monkeypatch):
    """Unmoved, N's kernel is not e0, so H does not hold its stabilizer:
    N's fiber is not one point, the premise of the pair count, and the
    count fails.  At q = 4 the joint count rests on the same premise, and
    the two special lines' fibers are walked from the wrong anchor, so
    their orders and the triangle count they give fail too."""
    _identity_kernel_move(monkeypatch)
    checks = {c["name"]: c["pass"] for c in atlas.verify_line_orbits(field(q))["checks"]}
    failed = {"pair_stabilizer_order"}
    if q == 4:
        failed |= {"joint_stabilizer_order", "special_line_stabilizers",
                   "triangle_lines_in_hyperplane"}
    assert {name for name, ok in checks.items() if not ok} == failed


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
    """A work count in place of a timing: the q = 4 suite holds 479 closure
    states in 13 closures, the q = 8 suite 1,035 in 7, and neither draws
    an element of ``pgl_elements``."""
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
    for q, total, walks in ((4, 479, 13), (8, 1035, 7)):
        states.clear()
        assert all(c["pass"] for c in atlas.verify_line_orbits(field(q))["checks"])
        assert len(states) == walks and sum(states) == total, q
    assert draws == []


def test_line_orbit_suite_builds_no_full_orbit(monkeypatch):
    """Every count of the suite comes from kernel fibers: at q = 4 and 8 it
    calls neither ``orbit_keys`` nor the cell sweep's ``_plane_sweep`` and
    ``cell_tables``."""
    def refused(*args):
        pytest.fail("the line-orbit suite swept a full orbit")

    for module in (action, atlas):
        monkeypatch.setattr(module, "orbit_keys", refused)
    monkeypatch.setattr(action, "_plane_sweep", refused)
    monkeypatch.setattr(PackedAction, "cell_tables", refused)
    for q in (4, 8):
        assert all(c["pass"] for c in atlas.verify_line_orbits(field(q))["checks"])


def _random_lines(gf, n, seed):
    rng, out = random.Random(seed), []
    while len(out) < n:
        l = span(gf, [tuple(rng.randrange(gf.q) for _ in range(6)) for _ in range(2)])
        if len(l.rows) == 2:
            out.append(l)
    return out


def _double_line_hyperplanes(l):
    """d(l), as the line-orbit suite reads it: the kernel points of l's
    diagonal columns 0, 3, 5, from their mat3_rank."""
    q = l.gf.q
    return (q ** (3 - mat3_rank(l.gf, [(r[0], r[3], r[5]) for r in l.rows])) - 1) // (q - 1)


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_double_line_hyperplanes_through_a_line_match_brute_force(q):
    """d, the double-line hyperplanes through a line, against the forms with
    zero cross coefficients whose ``delta`` contains it: for la (d = 1), a
    line in the nucleus plane, one meeting it in a point and seeded random
    lines."""
    gf = field(q)
    forms = [(a, 0, 0, b, 0, c) for a, b, c in pg_points(gf, 2)]
    la = span(gf, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0)])
    inside = span(gf, [(0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)])
    meeting = span(gf, [(0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)])
    d = {}
    for l in [la, inside, meeting, *_random_lines(gf, 6, q)]:
        d[l] = _double_line_hyperplanes(l)
        assert d[l] == sum(1 for f in forms if delta(gf, f).contains(l)), l.rows
    assert (d[la], d[inside], d[meeting]) == (1, q * q + q + 1, q + 1)


@pytest.mark.slow
def test_triangle_count_by_fibers_matches_the_orbit_scan_q8(gf8):
    """At q = 8 the suite's double counting, |F(la)| d(la), equals the scan
    of la's 2,747,136-key orbit: q^3 (q-1) (q^2-1) / 6 = 37,632 lines."""
    la = span(gf8, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0)])
    count = len(kernel_fiber(la, anchor(la))) * _double_line_hyperplanes(la)
    assert count == triangle_lines_by_scan(gf8) == 37632


def test_dropping_a_stabilizer_element_fails_the_group_filter(gf4, monkeypatch):
    real = atlas._middle_column_fixers
    monkeypatch.setattr(atlas, "_middle_column_fixers",
                        lambda gf: (a for a in real(gf) if a != IDENTITY3))
    checks = {c["name"]: c for c in atlas.verify_line_orbits(gf4)["checks"]}
    assert not checks["pair_stabilizer_matches_group_filter"]["pass"]
    assert checks["pair_stabilizer_matches_group_filter"]["details"]["filter_order"] == 47
