"""Exact linear algebra and subspace bookkeeping in PG(n,q)."""

import copy
import pickle
import random

import pytest

from conicnets.atlas import net_of_plane
from conicnets.gf import field
from conicnets.invariants import forms_through
from conicnets.projgeom import (
    Subspace,
    annihilator,
    enumerate_planes_chunk,
    gaussian_binomial,
    join,
    meet,
    nullspace,
    pack_rows,
    pg_points,
    plane_enumeration_chunks,
    plane_from_pattern,
    rank,
    rref,
    span,
)
from conicnets.veronese import delta_inv
from oracles import enumerate_planes, rref_by_rows, subspace_from_json, unpack_rows


def hyperplanes_through(s: Subspace):
    """All hyperplanes containing s: one per point of its annihilator, in
    that subspace's point order."""
    width = s.n + 1
    if len(s.rows) >= width:
        raise ValueError("the whole space lies in no hyperplane")
    ann = Subspace(s.gf, s.n, nullspace(s.gf, s.rows, width))
    for vec in ann.points():
        yield Subspace(s.gf, s.n, nullspace(s.gf, (vec,), width))


def _random_rows(gf, rng, r, n):
    return [[rng.randrange(gf.q) for _ in range(n)] for _ in range(r)]


@pytest.mark.parametrize("q", (2, 4, 8))
def test_rref_round_trips(q):
    gf = field(q)
    rng = random.Random(q)
    for _ in range(50):
        rows = _random_rows(gf, rng, rng.randrange(1, 5), 6)
        red = rref(gf, rows)
        # idempotent
        assert rref(gf, red) == red
        # same row space: every original row reduces to zero against red
        assert rank(gf, list(rows) + list(red)) == len(red)
        assert rank(gf, rows) == len(red)
        # unit pivot columns
        pivots = [next(i for i, v in enumerate(row) if v) for row in red]
        assert pivots == sorted(pivots)
        for j, p in enumerate(pivots):
            assert all(red[i][p] == (1 if i == j else 0) for i in range(len(red)))


@pytest.mark.parametrize("q", (2, 4, 16))
def test_rref_matches_the_indexed_elimination(q):
    """rref against the elimination it tightened (tests/oracles.py) on
    random and sparse matrices of 1 to 5 rows and 1 to 9 columns, zero and
    repeated rows included."""
    gf = field(q)
    rng = random.Random(7 * q)
    for _ in range(1500):
        width = rng.randrange(1, 10)
        rows = [[rng.choice((0, 0, 1, rng.randrange(q))) for _ in range(width)]
                for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.2:
            rows.append(list(rows[0]))
        assert rref(gf, rows) == rref_by_rows(gf, rows), rows
    assert rref(gf, []) == rref_by_rows(gf, []) == ()


def test_subspaces_are_immutable_values(gf4):
    """A Subspace has no instance dict and refuses assignment and deletion;
    it equals, hashes, pickles and copies as (gf, n, rows)."""
    s = Subspace(gf4, 2, ((1, 2, 0), (0, 0, 1)))
    for name in ("gf", "n", "rows", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert not hasattr(s, "__dict__")
    assert s.rows == ((1, 2, 0), (0, 0, 1)) and s.n == 2 and s.gf == gf4
    assert s != Subspace(gf4, 2, ((1, 3, 0), (0, 0, 1))) and s != Subspace(field(8), 2, s.rows)
    assert s != s.rows and (s == s.rows) is False
    for back in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert back == s and hash(back) == hash(s) and back.rows == s.rows


def test_nullspace_is_the_kernel(gf4):
    rng = random.Random(7)
    for _ in range(40):
        rows = _random_rows(gf4, rng, rng.randrange(1, 4), 6)
        ns = nullspace(gf4, rows, 6)
        assert len(ns) == 6 - rank(gf4, rows)
        for v in ns:
            for row in rows:
                acc = 0
                for a, b in zip(row, v):
                    acc ^= gf4.mul(a, b)
                assert acc == 0
        # kernel vectors are independent
        assert rank(gf4, ns) == len(ns) if ns else True


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_annihilator_of_rref_rows_reduces_to_the_nullspace(q):
    """The unreduced free-column basis of rows in RREF spans the null
    space: it reduces to ``nullspace`` and is orthogonal to every row."""
    gf = field(q)
    rng = random.Random(q)
    for _ in range(60):
        red = rref(gf, [[rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(6)]
                        for _ in range(rng.randrange(1, 6))])
        ann = annihilator(gf, red, 6)
        assert rref(gf, ann) == nullspace(gf, red, 6)
        assert len(ann) == 6 - len(red)
        for v in ann:
            for row in red:
                acc = 0
                for a, b in zip(row, v):
                    acc ^= gf.mul(a, b)
                assert acc == 0


@pytest.mark.parametrize("q", (2, 4, 16))
def test_null_spaces_of_subspaces_match_nullspace(q):
    """net_of_plane, forms_through, delta_inv and meet reduce the
    annihilator of rows already in RREF; each equals its nullspace form."""
    gf = field(q)
    rng = random.Random(q)

    def sample(r):
        while len(red := rref(gf, _random_rows(gf, rng, r, 6))) < r:
            pass
        return Subspace(gf, 5, red)

    for _ in range(20):
        s = sample(3)
        assert net_of_plane(s) == nullspace(gf, s.rows, 6)
        assert forms_through(s) == Subspace(gf, 5, nullspace(gf, s.rows, 6)).points()
        h = sample(5)
        assert delta_inv(h) == nullspace(gf, h.rows, 6)[0]
        a, b = sample(rng.randrange(1, 6)), sample(rng.randrange(1, 6))
        rows = nullspace(gf, nullspace(gf, a.rows, 6) + nullspace(gf, b.rows, 6), 6)
        assert meet(a, b) == (Subspace(gf, 5, rows) if rows else None)


@pytest.mark.parametrize("q,n", [(2, 2), (4, 2), (2, 5), (4, 5)])
def test_pg_point_counts(q, n):
    gf = field(q)
    pts = pg_points(gf, n)
    assert len(pts) == (q ** (n + 1) - 1) // (q - 1)
    assert len(set(pts)) == len(pts)
    for p in pts:
        first = next(v for v in p if v)
        assert first == 1  # normalized representatives


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(6, 3, 4) == 376805
    assert gaussian_binomial(6, 3, 8) == 156087945
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(6, 1, 2) == 63
    assert gaussian_binomial(6, 6, 5) == 1
    assert gaussian_binomial(3, 5, 2) == 0
    # symmetry
    assert gaussian_binomial(6, 2, 4) == gaussian_binomial(6, 4, 4)


def test_subspace_point_counts(gf4):
    plane = span(gf4, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    assert plane.dim == 2
    assert len(plane.points()) == 4 ** 2 + 4 + 1
    line = span(gf4, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    assert line.dim == 1
    assert len(line.points()) == 5
    assert plane.contains(line)
    assert not line.contains(plane)


def test_span_meet_join_dimensions(gf2):
    a = span(gf2, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    b = span(gf2, [(0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)])
    cut = meet(a, b)
    assert cut is not None and cut.dim == 0
    assert cut.contains_point((0, 0, 1, 0, 0, 0))
    top = join(a, b)
    # dim(join) = dim a + dim b - dim(meet)
    assert top.dim == a.dim + b.dim - cut.dim
    disjoint = span(gf2, [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)])
    assert meet(a, disjoint) is None
    assert join(a, disjoint).dim == 5
    with pytest.raises(ValueError, match="different ambient spaces"):
        meet(a, span(field(4), a.rows))
    with pytest.raises(ValueError, match="empty set"):
        span(gf2, [])
    with pytest.raises(ValueError, match="zero vectors only"):
        span(gf2, [(0,) * 6, (0,) * 6])


def test_hyperplanes_through_counts(gf2, gf4):
    for gf in (gf2, gf4):
        plane = span(gf, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
        hs = list(hyperplanes_through(plane))
        # hyperplanes through a plane of PG(5,q) form a PG(2,q) in the dual
        assert len(hs) == gf.q ** 2 + gf.q + 1
        for h in hs:
            assert h.dim == 4
            assert h.contains(plane)


def test_enumerate_planes_count_q2(gf2):
    planes = list(enumerate_planes(gf2))
    assert len(planes) == 1395
    keys = {p.key_int() for p in planes}
    assert len(keys) == 1395


def test_enumerate_planes_filter(gf2):
    origin = (1, 0, 0, 0, 0, 0)
    through = [s for s in enumerate_planes(gf2) if s.contains_point(origin)]
    # planes through a fixed point of PG(5,q) = planes of the quotient PG(4,q)
    assert len(through) == gaussian_binomial(5, 2, 2)


def test_chunked_enumeration_covers_everything(gf2):
    chunks = plane_enumeration_chunks(gf2)
    seen = set()
    total = 0
    for chunk in chunks:
        for s in enumerate_planes_chunk(gf2, chunk):
            total += 1
            seen.add(s.key_int())
    assert total == 1395
    assert len(seen) == 1395
    assert seen == {s.key_int() for s in enumerate_planes(gf2)}


def test_chunk_sizes_bounded(gf4):
    chunks = plane_enumeration_chunks(gf4)
    bound = gf4.q ** 8
    for chunk in chunks:
        n = sum(1 for _ in enumerate_planes_chunk(gf4, chunk))
        assert 0 < n <= bound


@pytest.mark.parametrize("q", (2, 4))
def test_enumerated_bases_are_their_own_rref(q):
    """The sweeps build their planes with Subspace.from_rref, which skips
    the reduction check, so every enumerated basis must already be
    canonical."""
    gf = field(q)
    planes = 0
    for chunk in plane_enumeration_chunks(gf):
        for s in enumerate_planes_chunk(gf, chunk):
            assert s.rows == rref(gf, s.rows), s
            planes += 1
    assert planes == gaussian_binomial(6, 3, q)


def test_from_rref_skips_only_the_reduction(gf4):
    rows = ((1, 2, 0), (0, 0, 1))
    assert Subspace.from_rref(gf4, 2, rows) == Subspace(gf4, 2, rows)
    assert hash(Subspace.from_rref(gf4, 2, rows)) == hash(Subspace(gf4, 2, rows))
    with pytest.raises(ValueError, match="canonical RREF"):
        Subspace(gf4, 2, ((1, 2, 0), (0, 1, 0)))
    for bad in ((), ((1, 0),), ((1, 0, 0),) * 4):
        with pytest.raises(ValueError, match="basis"):
            Subspace.from_rref(gf4, 2, bad)


def test_pack_unpack_round_trip(gf8):
    rng = random.Random(3)
    for _ in range(25):
        rows = rref(gf8, _random_rows(gf8, rng, 3, 6))
        key = pack_rows(gf8, rows)
        assert unpack_rows(gf8, key, 6, len(rows)) == rows


def test_subspace_json_round_trip(gf4):
    s = span(gf4, [(1, 0, 2, 0, 0, 3), (0, 1, 1, 0, 2, 0), (0, 0, 0, 1, 1, 1)])
    back = subspace_from_json(s.to_json())
    assert back == s
    assert back.key_int() == s.key_int()
    assert back.gf == gf4


def test_plane_from_pattern_validates(gf4):
    with pytest.raises(ValueError):
        plane_from_pattern(gf4, [(1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        plane_from_pattern(gf4, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    s = plane_from_pattern(gf4, [(2, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0), (0, 0, 3, 0, 1, 0)])
    assert isinstance(s, Subspace) and s.dim == 2


def test_subspace_identity_keys(gf2):
    a = span(gf2, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    b = span(gf2, [(1, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    assert a == b  # same row space, different spanning sets
    assert a.key_int() == b.key_int()
    assert a.key_hex() == b.key_hex()
    assert hash(a) == hash(b)


@pytest.mark.parametrize("q", (2, 4))
def test_contains_matches_point_sets(q):
    """contains_point and contains against the subspace's own point set:
    every point of PG(5,2), and 300 sampled points at q=4, on random
    subspaces of every dimension, each with a subspace spanned by some of
    its points."""
    gf = field(q)
    rng = random.Random(q)
    points = pg_points(gf, 5)
    if q == 4:
        points = rng.sample(points, 300)
    subspaces = []
    for r in range(1, 7):
        for _ in range(4):
            rows = rref(gf, _random_rows(gf, rng, r, 6))
            while len(rows) < r:
                rows = rref(gf, _random_rows(gf, rng, r, 6))
            s = Subspace(gf, 5, rows)
            subspaces += [s, span(gf, rng.sample(s.points(), rng.randint(1, r)))]
    for s in subspaces:
        pts = set(s.points())
        for y in points:
            assert s.contains_point(y) == (y in pts)
        for t in subspaces:
            assert s.contains(t) == (set(t.points()) <= pts)
