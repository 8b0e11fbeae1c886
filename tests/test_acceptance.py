"""Acceptance suite: one test per criterion, every tolerance zero.

Each criterion is exercised end to end against the public API.  Frozen
constants (orbit sizes, stabilizer orders, line counts) were recomputed
independently by exhaustive enumeration before being pinned.
"""

import pytest

from conicnets.action import (
    lift,
    orbit_keys,
    pgl_elements,
    pgl_order,
)
from conicnets.atlas import (
    EMPTY_BASE_LABELS,
    LABELS,
    expected_point_distribution,
    plane_stabilizer_order,
    representative,
    verify_double_lines,
    verify_known_net,
    verify_line_orbits,
    verify_partition,
)
from conicnets.gf import field
from conicnets.invariants import plane_signature, point_class_counts
from conicnets.projgeom import rank, rref, span
from conicnets.veronese import census, expected_census, veronese
from oracles import act_point, act_point_pg2, stabilizer_order_by_candidates

WORKERS = 4

ORBIT_SIZES_Q2 = {
    "Sigma1": 7, "Sigma3": 84, "Sigma4": 42, "Sigma7": 7, "Sigma8": 42,
    "Sigma9": 42, "Sigma10": 84, "Sigma11": 168, "Sigma15": 21, "SigmaN": 1,
    "Sigma16": 7, "Sigma17": 42, "Sigma18": 14, "Sigma19": 7, "Sigma20": 21,
    "Sigma21": 42, "Sigma22": 168, "Sigma23": 84,
}

ORBIT_SIZES_Q4 = {
    "Sigma1": 21, "Sigma3": 1680, "Sigma4": 2520, "Sigma7": 21, "Sigma8": 420,
    "Sigma9": 1260, "Sigma10": 5040, "Sigma11": 20160, "Sigma15": 315,
    "SigmaN": 1, "Sigma16": 63, "Sigma17": 1260, "Sigma18": 1260,
    "Sigma19": 630, "Sigma20": 1890, "Sigma21": 2520, "Sigma22": 60480,
    "Sigma23": 15120,
}

STABILIZER_ORDERS_Q4 = {
    "Sigma1": 2880, "Sigma3": 36, "Sigma4": 24, "Sigma7": 2880, "Sigma8": 144,
    "Sigma9": 48, "Sigma10": 12, "Sigma11": 3, "Sigma15": 192,
    "SigmaN": 60480, "Sigma16": 960, "Sigma17": 48, "Sigma18": 48,
    "Sigma19": 96, "Sigma20": 32, "Sigma21": 24, "Sigma22": 1, "Sigma23": 4,
}

PINNED_CUBIC_KINDS = {
    "Sigma16": "TripleLine",
    "Sigma17": "LinePlusDoubleLine",
    "Sigma19": "ThreeConcurrentLines",
    "Sigma20": "LinePlusImaginaryPair",
    "Sigma21": "LinePlusDoubleLine",
    "Sigma22": "IrreducibleCubic",
    "Sigma23": "LinePlusConic_Tangent",
}


def _checks(report):
    return {c["name"]: c for c in report["checks"]}


@pytest.fixture(scope="module")
def line_orbits():
    """verify_line_orbits(field(q)), computed once per q for this module."""
    reports = {}

    def report(q):
        if q not in reports:
            reports[q] = verify_line_orbits(field(q))
        return reports[q]

    return report


def test_criterion_01_orbit_partition_exhaustive_q2_q4():
    """18 pairwise-disjoint orbits cover every plane meeting the nucleus
    plane, verified by full sweeps at q = 2 and q = 4."""
    r2 = verify_partition(field(2))
    assert r2["mode"] == "exhaustive"
    assert all(c["pass"] for c in r2["checks"]), _checks(r2)
    sizes2 = {row["label"]: row["size"] for row in r2["orbits"]}
    assert sizes2 == ORBIT_SIZES_Q2
    assert sum(sizes2.values()) == 883 == 1395 - 512

    r4 = verify_partition(field(4), workers=WORKERS)
    assert r4["mode"] == "exhaustive"
    assert all(c["pass"] for c in r4["checks"]), _checks(r4)
    sizes4 = {row["label"]: row["size"] for row in r4["orbits"]}
    assert sizes4 == ORBIT_SIZES_Q4
    assert sum(sizes4.values()) == 114661
    stabs4 = {row["label"]: row["stabilizer_order"] for row in r4["orbits"]}
    assert stabs4 == STABILIZER_ORDERS_Q4
    # the classifier labels every meeting plane with its orbit
    agreement = _checks(r4)["classifier_agrees_on_every_plane"]["details"]
    assert agreement["checked"] == agreement["agree"] == 114661


def test_criterion_02_point_distribution_table_q4_q8_q16():
    """Computed rank distributions of all 18 representatives equal the
    closed-form rows exactly at q = 4, 8, 16."""
    for q in (4, 8, 16):
        gf = field(q)
        for label in LABELS:
            got = point_class_counts(representative(gf, label))
            assert got == expected_point_distribution(label, q), (q, label)


def test_criterion_03_nine_orbits_have_empty_base():
    """Exactly 9 of the 18 orbits contain no rank-1 point."""
    assert len(EMPTY_BASE_LABELS) == 9
    for q in (4, 8):
        gf = field(q)
        empty = {
            label for label in LABELS
            if point_class_counts(representative(gf, label))[0] == 0
        }
        assert empty == set(EMPTY_BASE_LABELS)


def test_criterion_04_double_line_identity_q4_exhaustive_q8_sampled():
    """Every plane satisfies: nuclear-point count = double-line hyperplane
    count.  All 376805 planes of PG(5,4); 100000 seeded samples at q = 8."""
    r4 = verify_double_lines(field(4), workers=WORKERS)
    checks = _checks(r4)
    assert checks["all_planes_enumerated"]["details"]["planes"] == 376805
    assert checks["identity_holds"]["details"]["violations"] == 0
    assert all(c["pass"] for c in r4["checks"])

    r8 = verify_double_lines(field(8), samples=100_000, seed=0, workers=WORKERS)
    assert r8["mode"] == "sampled"
    assert r8["totals"]["planes_sampled"] == 100_000
    assert r8["totals"]["violations"] == 0
    assert all(c["pass"] for c in r8["checks"])


def test_criterion_05_point_class_census_q2_q4_q8():
    """Rank-class census of PG(5,q) matches the closed forms exactly."""
    for q in (2, 4, 8):
        got = census(field(q))
        assert got == expected_census(q)
        assert got["rank1"] == q * q + q + 1
        assert got["rank2_nuclear"] == q * q + q + 1
        assert got["rank2_secant"] == (q * q - 1) * (q * q + q + 1)
        assert got["rank3"] == q ** 5 - q * q


def test_criterion_06_cubic_invariants_q4_q8():
    """Determinantal cubic types of the empty-base representatives."""
    for q in (4, 8):
        gf = field(q)
        for label, kind in PINNED_CUBIC_KINDS.items():
            sig = plane_signature(representative(gf, label))
            assert sig.cubic_kind == kind, (q, label)
        sig18 = plane_signature(representative(gf, "Sigma18"))
        assert sig18.cubic_point_count == 1, q
        assert sig18.cubic_kind == "NoRationalComponentPoint"


def test_criterion_07_special_line_stabilizers_and_count_q4(line_orbits):
    """At q = 4 the two marked line classes have stabilizer orders 6 and 2,
    and the hyperplane holds (1/6) q^3 (q-1) (q^2-1) = 480 triangle lines."""
    checks = _checks(line_orbits(4))
    assert checks["special_line_stabilizers"]["pass"]
    assert checks["special_line_stabilizers"]["details"]["orders"] == [6, 2]
    assert checks["triangle_lines_in_hyperplane"]["pass"]
    assert checks["triangle_lines_in_hyperplane"]["details"]["count"] == 480
    q = 4
    assert 480 == q ** 3 * (q - 1) * (q * q - 1) // 6


def test_criterion_08_line_orbit_splits_q4_q8(line_orbits):
    """The pair stabilizer splits the conic-plane lines through the fixed
    point into 3 orbits (q = 4 and 8); the tangency configuration splits its
    60 candidate lines into exactly 2 orbits (q = 4)."""
    for q in (4, 8):
        checks = _checks(line_orbits(q))
        assert checks["pair_stabilizer_order"]["pass"]
        assert checks["pair_stabilizer_order"]["details"]["order"] == q * q * (q - 1)
        orbits = checks["conic_plane_line_orbits"]["details"]["orbits"]
        assert checks["conic_plane_line_orbits"]["pass"]
        assert len(orbits) == 3
        assert sorted(n for n, _ in orbits) == sorted([1, q // 2, q // 2])
    checks4 = _checks(line_orbits(4))
    assert checks4["tangency_candidate_orbits"]["pass"]
    assert checks4["tangency_candidate_orbits"]["details"]["orbit_sizes"] == [12, 48]
    assert checks4["joint_stabilizer_order"]["details"]["order"] == 144


def test_criterion_09_known_net_classifies_as_sigma18_q4_q8():
    """The documented example net (one double line, empty base) lands in
    Sigma18 at q = 4 and q = 8."""
    for q in (4, 8):
        report = verify_known_net(field(q))
        checks = _checks(report)
        assert checks["classifies_as_sigma18"]["pass"], q
        assert checks["classifies_as_sigma18"]["details"]["label"] == "Sigma18"
        assert all(c["pass"] for c in report["checks"]), q


def test_criterion_10_property_suites():
    """Field axioms with Frobenius/trace/Artin-Schreier laws (full fields,
    q <= 16), RREF round-trips, exhaustive lift equivariance at q = 2, and
    orbit-stabilizer products, each stabilizer counted directly over its
    candidate matrices and equal to ``plane_stabilizer_order``."""
    # field laws, every element pair/triple
    for q in (2, 4, 8, 16):
        gf = field(q)
        for a in gf.elements:
            assert gf.add(a, a) == 0
            assert gf.sqrt(gf.sq(a)) == a
            assert gf.trace(gf.sq(a)) == gf.trace(a)
            r = gf.artin_schreier_root(a)
            assert (r is None) == (gf.trace(a) == 1)
            if r is not None:
                assert gf.sq(r) ^ r == a
            for b in gf.elements:
                assert gf.mul(a, b) == gf.mul(b, a)
                assert gf.sq(a ^ b) == gf.sq(a) ^ gf.sq(b)
        for a in gf.nonzero:
            assert gf.mul(a, gf.inv(a)) == 1

    # RREF round-trips: reducing a reduced matrix is the identity and spans agree
    gf = field(4)
    import random

    rng = random.Random(10)
    for _ in range(25):
        rows = [[rng.randrange(4) for _ in range(6)] for _ in range(3)]
        red = rref(gf, rows)
        assert rref(gf, red) == red
        assert rank(gf, list(rows) + list(red)) == len(red)

    # exhaustive equivariance at q = 2: lift(A) . nu(p) = nu(A . p)
    gf2 = field(2)
    from conicnets.projgeom import pg_points

    pts = pg_points(gf2, 2)
    for a in pgl_elements(gf2):
        l = lift(gf2, a)
        for p in pts:
            assert act_point(gf2, l, veronese(gf2, p)) \
                == veronese(gf2, act_point_pg2(gf2, a, p))

    # orbit-stabilizer products on subspaces of three different dimensions
    for q in (2, 4):
        gfq = field(q)
        probes = [
            span(gfq, [veronese(gfq, (1, 0, 0))]),
            span(gfq, [veronese(gfq, (1, 0, 0)), veronese(gfq, (0, 1, 0))]),
            representative(gfq, "Sigma9"),
            representative(gfq, "Sigma22"),
        ]
        for s in probes[:2]:
            assert pgl_order(q) % len(orbit_keys(s)) == 0
        for s in probes[2:]:
            order = stabilizer_order_by_candidates(s)
            assert plane_stabilizer_order(s) == order
            assert len(orbit_keys(s)) * order == pgl_order(q)
