"""Orbit atlas behavior: representatives, signatures, classification, nets.

Frozen integer constants in this file were independently recomputed by
exhaustive orbit enumeration before being pinned here.
"""

import json
import random
import sys

import pytest

from conicnets.action import (
    IDENTITY3,
    act_subspace,
    k_equivalent,
    mat3_det,
    mat3_mul,
    orbit_keys,
    pgl_order,
)
import importlib
import re

from conicnets import action, atlas, cli, invariants, projgeom
from conicnets import gf as gf_module
from conicnets.atlas import (
    EMPTY_BASE_LABELS,
    EXPECTED_CUBIC_KIND,
    LABELS,
    classify_net,
    classify_plane,
    example_net,
    expected_hyperplane_distribution,
    expected_point_distribution,
    expected_signature,
    expected_stabilizer_order,
    net_base_points,
    net_double_line_count,
    net_of_plane,
    orbit_atlas,
    plane_of_net,
    plane_stabilizer_order,
    planes_meeting_nucleus_count,
    representative,
    representative_parameters,
    representative_pattern,
    representatives,
    sigma18_parameter,
    sigma20_parameters,
    sigma21_parameter,
    signature_table,
    verify_distributions,
    verify_double_lines,
    verify_known_net,
    verify_partition,
)
from conicnets.errors import (
    ClassificationError,
    ConfigurationError,
    OutOfFamilyError,
    ResourceBudgetError,
    VerificationError,
)
from conicnets.gf import field
from conicnets.invariants import plane_key, plane_signature, point_class_counts
from conicnets.projgeom import (
    Subspace,
    enumerate_planes_chunk,
    gaussian_binomial,
    pg_points,
    plane_enumeration_chunks,
    plane_from_pattern,
    rref,
    span,
)
from conicnets.veronese import expected_census, form_eval
import oracles
from oracles import mulclose, stabilizer_order_by_candidates, unpack_rows

veronese = importlib.import_module("conicnets.veronese")

# independently recomputed by breadth-first orbit enumeration at q = 2
ORBIT_SIZES_Q2 = {
    "Sigma1": 7, "Sigma3": 84, "Sigma4": 42, "Sigma7": 7, "Sigma8": 42,
    "Sigma9": 42, "Sigma10": 84, "Sigma11": 168, "Sigma15": 21, "SigmaN": 1,
    "Sigma16": 7, "Sigma17": 42, "Sigma18": 14, "Sigma19": 7, "Sigma20": 21,
    "Sigma21": 42, "Sigma22": 168, "Sigma23": 84,
}

# Invertible over GF(4), GF(8) and GF(16) with the default moduli.
MOVE = (2, 1, 0, 0, 3, 1, 1, 0, 2)


def test_label_inventory():
    assert len(LABELS) == 18
    assert len(set(LABELS)) == 18
    assert set(EMPTY_BASE_LABELS) <= set(LABELS)
    assert len(EMPTY_BASE_LABELS) == 9
    assert set(EXPECTED_CUBIC_KIND) == set(LABELS)


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_representatives_validate_at_all_supported_orders(q):
    gf = field(q)
    reps = representatives(gf)
    assert set(reps) == set(LABELS)
    for label, s in reps.items():
        assert s.dim == 2
        assert point_class_counts(s) == expected_point_distribution(label, q)
        assert plane_signature(s) == expected_signature(label, q)


def test_expected_distribution_rows_sum(gf8):
    q = 8
    for label in LABELS:
        assert sum(expected_point_distribution(label, q)) == q * q + q + 1


def test_empty_base_labels_have_no_rank1_points():
    for q in (2, 4, 8):
        for label in LABELS:
            r1 = expected_point_distribution(label, q)[0]
            assert (r1 == 0) == (label in EMPTY_BASE_LABELS)


@pytest.mark.parametrize("q,c", [(2, 1), (4, 1), (8, 2), (16, 1)])
def test_sigma18_parameter_search(q, c):
    gf = field(q)
    assert sigma18_parameter(gf) == c
    # the defining conditions
    assert gf.trace(gf.inv(c)) == gf.trace(1)
    assert all(gf.mul(gf.sq(t), t) ^ t ^ c for t in gf.elements)


@pytest.mark.parametrize("q,b,c", [(2, 0, 1), (4, 0, 2), (8, 0, 1), (16, 0, 8)])
def test_sigma20_parameter_search(q, b, c):
    gf = field(q)
    assert sigma20_parameters(gf) == (b, c)
    assert b != 1
    assert gf.trace(gf.div(c, 1 ^ gf.sq(b))) == 1


@pytest.mark.parametrize("q,a", [(2, 1), (4, 2), (8, 1), (16, 8)])
def test_sigma21_parameter_search(q, a):
    gf = field(q)
    assert sigma21_parameter(gf) == a
    assert gf.trace(a) == 1


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_signature_collisions_are_only_the_known_pair(q):
    gf = field(q)
    table = signature_table(gf)
    multi = [labels for labels in table.values() if len(labels) > 1]
    assert multi == [("Sigma3", "Sigma4")]
    assert sum(len(ls) for ls in table.values()) == 18


@pytest.mark.parametrize("q", (32, 64))
def test_closed_form_signatures_match_computed(q):
    # beyond the fields whose representatives the other tests validate
    gf = field(q)
    for label in LABELS:
        rows, _ = representative_pattern(gf, label)
        assert plane_signature(plane_from_pattern(gf, rows)) == expected_signature(label, q), label


def test_signatures_and_representatives_scan_no_hyperplane(monkeypatch):
    """A signature's hyperplane counts come from its point counts; only
    verify_distributions scans the hyperplanes through a plane."""
    def forbidden(s):
        raise AssertionError("hyperplane scan")

    for module in (atlas, invariants):
        monkeypatch.setattr(module, "hyperplane_class_counts", forbidden)
    field(8).forget()
    for label, s in representatives(field(8)).items():
        sig = plane_signature(s)
        assert sig == expected_signature(label, 8), label
        assert sig.hyperplane_counts == expected_hyperplane_distribution(label, 8), label


@pytest.mark.parametrize("e", range(1, 9))
def test_short_key_collides_only_for_sigma3_sigma4(e):
    q = 2**e
    by_key: dict = {}
    for label in LABELS:
        by_key.setdefault(expected_signature(label, q), []).append(label)
    assert [ls for ls in by_key.values() if len(ls) > 1] == [["Sigma3", "Sigma4"]]
    assert len(by_key) == 17


def test_classify_paths_compute_no_signature_hyperplanes_or_representatives(
        gf16, monkeypatch, capsys):
    """Neither request path builds a signature or a representative, and
    neither scans points: no Subspace.points, no form_eval over PG(2,q), no
    pass over the plane's points or the cubic's zeros, no listing of
    PG(2,q) and no generic three-nullspace meet."""
    moved = {label: act_subspace(representative(gf16, label), MOVE) for label in LABELS}

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the classify path")

    for module in (atlas, cli, invariants, projgeom, veronese):
        for name in ("plane_signature", "hyperplane_class_counts", "representatives",
                     "form_eval", "meet", "cubic_zeros_and_counts", "cubic_points",
                     "pg_points"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(Subspace, "points", forbidden)
    for label, s in moved.items():
        assert classify_plane(s) == label
        payloads = {
            "classify-plane": {"rows": [list(r) for r in s.rows]},
            "classify-net": {"forms": [list(f) for f in net_of_plane(s)]},
        }
        for command, payload in payloads.items():
            code = cli.main([command, "--q", "16", "--data", json.dumps(payload)])
            out, err = capsys.readouterr()
            assert code == 0 and err == "", (command, label, err)
            assert json.loads(out)["label"] == label


def test_orbit_atlas_q2_sizes(gf2):
    sets = orbit_atlas(gf2)
    assert {label: len(keys) for label, keys in sets.items()} == ORBIT_SIZES_Q2
    assert sum(len(k) for k in sets.values()) == 883


def test_orbit_atlas_rejects_large_fields(gf8):
    with pytest.raises(ConfigurationError):
        orbit_atlas(gf8)


def test_planes_meeting_nucleus_count():
    assert planes_meeting_nucleus_count(2) == 883
    assert planes_meeting_nucleus_count(4) == 114661
    assert planes_meeting_nucleus_count(8) == 21870217


@pytest.mark.parametrize("q", (2, 4))
def test_classify_plane_fixes_representatives(q):
    gf = field(q)
    for label in LABELS:
        assert classify_plane(representative(gf, label)) == label


def test_classify_plane_on_moved_representatives(gf4, sample_matrices):
    g0, g1 = sample_matrices(gf4)[:2]
    for label in LABELS:
        moved = act_subspace(act_subspace(representative(gf4, label), g0), g1)
        assert classify_plane(moved) == label


def test_classify_plane_on_moved_representatives_q8(gf8, gf16, sample_matrices):
    for gf in (gf8, gf16):
        g0, g1 = sample_matrices(gf)[:2]
        for label in LABELS:
            moved = act_subspace(act_subspace(representative(gf, label), g1), g0)
            assert classify_plane(moved) == label, (gf.q, label)


def test_classify_plane_agrees_with_orbit_atlas_q2(gf2):
    planes = 0
    for label, keys in orbit_atlas(gf2).items():
        for key in keys:
            assert classify_plane(Subspace(gf2, 5, unpack_rows(gf2, key, 6, 3))) == label
            planes += 1
    assert planes == 883


def test_classify_plane_agrees_with_orbit_atlas_on_sigma3_sigma4_q4(gf4):
    sets = orbit_atlas(gf4)
    for label in ("Sigma3", "Sigma4"):
        for key in sets[label]:
            assert classify_plane(Subspace(gf4, 5, unpack_rows(gf4, key, 6, 3))) == label
    assert len(sets["Sigma3"]) + len(sets["Sigma4"]) == 4200


def test_classify_plane_rejects_unexpected_signature_collisions(gf4, monkeypatch):
    s = representative(gf4, "Sigma9")
    table = {plane_signature(s): ("Sigma9", "Sigma10")}
    monkeypatch.setattr(atlas, "signature_table", lambda gf: table)
    with pytest.raises(ClassificationError, match="plane %s, key lookup: " % s.key_hex()):
        classify_plane(s)


def test_classification_errors_name_the_plane_and_the_stage(gf4, monkeypatch):
    s = act_subspace(representative(gf4, "Sigma3"), MOVE)
    lookup = re.escape("plane %s, key lookup: " % s.key_hex())
    with monkeypatch.context() as m:
        m.setattr(atlas, "plane_key_at", lambda s, meet, points: ((0, 0, 0, 0), None))
        with pytest.raises(ClassificationError, match=lookup + "key matches no"):
            classify_plane(s)

    def broken(*args):
        raise ClassificationError("cubic says no")

    with monkeypatch.context() as m:
        m.setattr(invariants, "cubic_pencil", broken)
        with pytest.raises(ClassificationError, match=lookup + "cubic says no"):
            classify_plane(s)
    # each Veronese point listed twice, two of them on the conic plane, and
    # the key read off the true points
    key, cut = plane_key(s), atlas.nucleus_cut

    def doubled(s):
        meet, points = cut(s)
        return meet, 2 * points

    monkeypatch.setattr(atlas, "nucleus_cut", doubled)
    monkeypatch.setattr(atlas, "plane_key_at", lambda s, meet, points: key)
    tie_break = re.escape("plane %s, Sigma3/Sigma4 tie-break: " % s.key_hex())
    with pytest.raises(ClassificationError, match=tie_break + ".* 2 rank-1 points"):
        classify_plane(s)


def test_classify_plane_input_validation(gf4):
    line = span(gf4, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        classify_plane(line)
    off = span(gf4, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)])
    with pytest.raises(OutOfFamilyError):
        classify_plane(off)


def test_representative_pattern_overrides(gf4):
    # Sigma21: any a of trace 1 stays in the orbit
    rows, pars = representative_pattern(gf4, "Sigma21", {"a": 3})
    assert pars == {"a": 3}
    alt = plane_from_pattern(gf4, rows)
    assert k_equivalent(representative(gf4, "Sigma21"), alt)
    # Sigma20: with b = 0 any c of trace 1 stays in the orbit
    rows, _ = representative_pattern(gf4, "Sigma20", {"b": 0, "c": 3})
    alt = plane_from_pattern(gf4, rows)
    assert k_equivalent(representative(gf4, "Sigma20"), alt)


def test_representative_pattern_override_validation(gf4):
    with pytest.raises(ConfigurationError):
        representative_pattern(gf4, "Sigma9", {"a": 1})
    with pytest.raises(ConfigurationError):
        representative_pattern(gf4, "Sigma21", {"a": 9})
    with pytest.raises(ConfigurationError):
        representative_pattern(gf4, "Sigma21", {"a": True})
    with pytest.raises(ConfigurationError):
        representative_pattern(gf4, "Sigma21", {"a": 2.0})
    # a partial override names the parameter it lacks
    with pytest.raises(ConfigurationError, match="^orbit Sigma20 needs parameter c when"):
        representative_pattern(gf4, "Sigma20", {"b": 0})
    with pytest.raises(ConfigurationError, match="^orbit Sigma20 needs parameter b when"):
        representative_pattern(gf4, "Sigma20", {"c": 3})
    with pytest.raises(ConfigurationError):
        representative_pattern(gf4, "NotALabel")
    with pytest.raises(ConfigurationError, match="unknown orbit label"):
        representative(gf4, "Sigma99")


def test_representative_parameters_table(gf4):
    pars = representative_parameters(gf4)
    assert pars["Sigma18"] == {"c": 1}
    assert pars["Sigma20"] == {"b": 0, "c": 2}
    assert pars["Sigma21"] == {"a": 2}
    assert pars["Sigma23"] == {"a": 2}
    assert pars["Sigma9"] == {}


def test_net_plane_round_trip(gf4):
    for label in ("Sigma1", "Sigma9", "Sigma18", "SigmaN"):
        s = representative(gf4, label)
        forms = net_of_plane(s)
        assert len(forms) == 3
        assert plane_of_net(gf4, forms) == s
    with pytest.raises(ValueError, match="expected a plane"):
        net_of_plane(span(gf4, s.rows[:2]))


def test_plane_of_net_rejects_dependent_forms(gf4):
    with pytest.raises(ValueError):
        plane_of_net(gf4, [(1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])


def test_net_base_points_are_common_zeros(gf4):
    forms = example_net(gf4)
    assert net_base_points(gf4, forms) == []
    s9 = net_of_plane(representative(gf4, "Sigma9"))
    base = net_base_points(gf4, s9)
    assert len(base) == expected_point_distribution("Sigma9", 4)[0]
    for p in base:
        for f in s9:
            assert form_eval(gf4, f, p) == 0


def test_net_double_line_count_counts_squares(gf4):
    # the net of the nucleus plane consists entirely of double lines
    forms = net_of_plane(representative(gf4, "SigmaN"))
    assert net_double_line_count(gf4, forms) == 4 * 4 + 4 + 1
    assert net_double_line_count(gf4, example_net(gf4)) == 1


def test_net_functions_reject_non_nets(gf4):
    """Repeated forms, two forms and three 5-vectors are not nets: each net
    function raises ValueError on them (the double-line count once returned
    5 for all three)."""
    f, g = (1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)
    for forms in ([f, f, g], [f, g], [f[:5], g[:5], (0, 1, 0, 0, 0)]):
        for fn in (net_double_line_count, net_base_points, plane_of_net):
            with pytest.raises(ValueError):
                fn(gf4, forms)


def _double_lines_by_scan(gf, forms):
    """Squares among the q^2+q+1 projective combinations of the net."""
    vecs = rref(gf, forms)
    assert len(vecs) == 3
    count = 0
    for coeffs in pg_points(gf, 2):
        combo = [0] * 6
        for c, vec in zip(coeffs, vecs):
            for j in range(6):
                combo[j] ^= gf.mul(c, vec[j])
        count += combo[1] == combo[2] == combo[4] == 0
    return count


@pytest.mark.parametrize("q", (2, 4, 8))
def test_net_double_line_count_matches_scan(q, sample_matrices):
    gf = field(q)
    g0, g1 = sample_matrices(gf)[:2]
    nets = [example_net(gf)] + [
        net_of_plane(act_subspace(act_subspace(s, g0), g1))
        for s in representatives(gf).values()
    ]
    counts = set()
    for forms in nets:
        assert net_double_line_count(gf, forms) == _double_lines_by_scan(gf, forms), forms
        counts.add(net_double_line_count(gf, forms))
    assert counts == {1, q + 1, q * q + q + 1}


@pytest.mark.parametrize("q", (2, 4, 8))
def test_classify_net_known_example(q):
    gf = field(q)
    assert classify_net(gf, example_net(gf)) == "Sigma18"


def test_classify_net_matches_plane_labels(gf2):
    for label in LABELS:
        forms = net_of_plane(representative(gf2, label))
        assert classify_net(gf2, forms) == label


def test_sweep_pool_never_outnumbers_chunks_or_cpus(gf2, monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, n, initializer, initargs):
            sizes.append(n)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(atlas, "get_context", lambda: FakeContext)
    monkeypatch.setattr(atlas, "_task", None)  # FakePool binds it in this process
    serial = verify_double_lines(gf2, samples=300, seed=3)
    chunks = len(atlas.plane_enumeration_chunks(gf2))
    for cpus, workers, samples, want in [
        (3, 10**9, 300, 3),          # capped by the CPU count
        (1000, 10**9, 300, 128),     # by the 128 sample chunks
        (1000, 10**9, None, chunks), # by the enumeration chunks (q <= 4 sweeps every plane)
        (1000, 2, 300, 2),           # by the workers asked for
        (None, 8, 300, None),        # unknown CPU count: one process
    ]:
        monkeypatch.setattr(atlas.os, "cpu_count", lambda: cpus)
        sizes.clear()
        report = verify_double_lines(gf2, samples=samples, seed=3, workers=workers)
        assert sizes == ([want] if want else [])
        if samples:
            assert report == serial


def test_verify_double_lines_q2_exhaustive(gf2):
    report = verify_double_lines(gf2)
    assert report["mode"] == "exhaustive"
    assert report["totals"]["planes"] == 1395
    assert report["totals"]["meeting_nucleus_plane"] == 883
    assert report["totals"]["violations"] == 0


def test_verify_double_lines_rejects_a_negative_seed(gf2):
    """Subchunk seeds are seed * 2**32 + i, and random.Random seeds with the
    absolute value: seed -1 would draw seed 1's subchunk 0."""
    assert random.Random(-2**32).random() == random.Random(2**32).random()
    with pytest.raises(ValueError, match="seed must be 0 or more"):
        verify_double_lines(gf2, samples=5, seed=-1)


def test_double_line_violations_are_all_counted(gf2, monkeypatch):
    """Every violation is counted, though each chunk keeps at most 16
    witness keys, whichever side of the identity is off by one.  As every
    plane violates, the witnesses are the 16 least keys of all the planes,
    in one process or with a pool; the 3,000 samples put over 16 planes in
    each of the 128 sample chunks."""
    keys = []
    for side in ("double_line_hyperplane_count", "nuclear_point_count"):
        real = getattr(atlas, side)
        with monkeypatch.context() as m:
            m.setattr(atlas, side, lambda s, real=real: keys.append(s.key_int()) or real(s) + 1)
            for kwargs, n in (({}, 1395), ({"samples": 3000, "seed": 3}, 3000)):
                keys.clear()
                serial = verify_double_lines(gf2, **kwargs)
                least = sorted(keys)[:16]
                for report in (serial, verify_double_lines(gf2, workers=2, **kwargs)):
                    holds = report["checks"][-1]
                    assert holds["name"] == "identity_holds" and not holds["pass"], side
                    assert report["totals"]["violations"] == holds["details"]["violations"] == n
                    assert holds["details"]["witness_keys"] == least, (side, kwargs)


def test_double_line_sweep_makes_no_elimination_and_no_point_pass(gf2, rref_calls,
                                                                   monkeypatch):
    """The exhaustive sweep reads both sides of the identity off kernel
    scans of 3x3 blocks: no rref, no listing of PG(2,q), no pass over a
    plane's points and no point classification."""
    calls = []
    for name, real in (("pg_points", projgeom.pg_points), ("point_class", veronese.point_class)):
        def counting(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("conicnets") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    real_points = Subspace.points
    monkeypatch.setattr(Subspace, "points",
                        lambda s: calls.append("Subspace.points") or real_points(s))
    report = verify_double_lines(gf2)
    assert report["totals"] == {"planes": 1395, "meeting_nucleus_plane": 883, "violations": 0}
    assert rref_calls == [] and calls == []


@pytest.mark.parametrize("q", (2, 4))
def test_plane_stabilizer_order_matches_table_and_bfs(q):
    gf = field(q)
    for label, keys in orbit_atlas(gf).items():
        s = representative(gf, label)
        order = plane_stabilizer_order(s)
        assert order == stabilizer_order_by_candidates(s) == expected_stabilizer_order(label, q) \
            == pgl_order(q) // len(keys), label


def kernel_subgroup_order(q):
    return q**3 * (q - 1) * (q * q - 1)


@pytest.mark.parametrize("q", (2, 4))
def test_kernel_subgroup_generators_generate_it(q):
    """Each generator has first row (point) or first column (line) (1,0,0)
    and is invertible, and the four close to all q^3 (q-1) (q^2-1) such
    normalized matrices."""
    gf = field(q)
    for point in (True, False):
        gens = action._kernel_subgroup_generators(gf, point)
        assert len(gens) == 4
        for g in gens:
            assert (g[:3] if point else g[::3]) == (1, 0, 0) and mat3_det(gf, g), g
        # _radical_basis conjugates by s x s for s = x12(1), x21(1), which needs s = s^-1
        assert all(mat3_mul(gf, g, g) == IDENTITY3 for g in gens[:3])
        assert len(mulclose(gf, gens)) == kernel_subgroup_order(q)


@pytest.mark.parametrize("q", (2, 4))
def test_plane_stabilizer_order_matches_candidate_count(q, sample_matrices):
    """The orbit-stabilizer count against the direct count over the kernel's
    subgroup, on every representative and on moved copies of each."""
    gf = field(q)
    moves = sample_matrices(gf)[:4] if q == 4 else sample_matrices(gf)
    for label in LABELS:
        s = representative(gf, label)
        for t in [s] + [act_subspace(s, g) for g in moves]:
            assert plane_stabilizer_order(t) == stabilizer_order_by_candidates(t), label


@pytest.mark.parametrize("label", ("Sigma10", "Sigma11", "Sigma22"))
def test_plane_stabilizer_order_matches_candidate_count_q8(gf8, label):
    s = representative(gf8, label)
    assert plane_stabilizer_order(s) == stabilizer_order_by_candidates(s) \
        == expected_stabilizer_order(label, 8)


@pytest.mark.slow
def test_plane_stabilizer_order_matches_candidate_count_all_q8(gf8):
    """All 18 representatives at q = 8: the candidate count walks 225,792
    matrices per plane, about 25 s in all on 2 vCPU."""
    for label in LABELS:
        s = representative(gf8, label)
        assert plane_stabilizer_order(s) == stabilizer_order_by_candidates(s), label


@pytest.mark.parametrize("dropped", range(4))
def test_dropping_a_kernel_subgroup_generator_breaks_the_partition(dropped, monkeypatch):
    """With any one generator replaced by the identity, the closure covers
    part of the subgroup, some stabilizer order comes out too large, and the
    q = 4 partition report refuses it.  The plane sweep is left out: the
    stabilizer check runs before it."""
    real = action._kernel_subgroup_generators

    def fewer(gf, point):
        gens = list(real(gf, point))
        gens[dropped] = IDENTITY3
        return tuple(gens)

    monkeypatch.setattr(action, "_kernel_subgroup_generators", fewer)
    monkeypatch.setattr(atlas, "plane_enumeration_chunks", lambda gf: [])
    with pytest.raises(VerificationError, match="stabilizer of Sigma"):
        verify_partition(field(4))
    # the sweep walks the same subgroup: a point meet (Sigma22) and a line
    # meet (Sigma8) each lose keys
    for label in ("Sigma22", "Sigma8"):
        assert len(orbit_keys(representative(field(4), label))) \
            < pgl_order(4) // expected_stabilizer_order(label, 4), label


def test_plane_stabilizer_order_budget_q16(gf16):
    """At q = 16 a small orbit under the kernel's subgroup gives the closed
    form, and one of more than 2^18 planes (Sigma22's has |H| = 15,667,200)
    raises instead of holding them all."""
    assert plane_stabilizer_order(representative(gf16, "Sigma16")) \
        == expected_stabilizer_order("Sigma16", 16)
    with pytest.raises(ResourceBudgetError, match="262144"):
        plane_stabilizer_order(representative(gf16, "Sigma22"))


def test_plane_stabilizer_order_tests_no_candidates(gf4, monkeypatch):
    """The count moves each plane once by C (three congruence_image calls,
    one per basis row, none for the nucleus plane) and tests no candidate
    matrix; the candidate count makes at least one call per matrix of the
    subgroup, 2,880 at q = 4."""
    calls = []
    real = atlas.congruence_image

    def counting(*args):
        calls.append(None)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("conicnets") and getattr(module, "congruence_image", None) is real:
            monkeypatch.setattr(module, "congruence_image", counting)
    monkeypatch.setattr(oracles, "congruence_image", counting)
    for label in LABELS:
        calls.clear()
        plane_stabilizer_order(representative(gf4, label))
        assert len(calls) == (0 if label == "SigmaN" else 3), label
    calls.clear()
    stabilizer_order_by_candidates(representative(gf4, "Sigma22"))
    assert len(calls) >= kernel_subgroup_order(4)


def test_plane_stabilizer_order_eliminates_once_and_lists_no_points(gf4, rref_calls,
                                                                     monkeypatch):
    """The count reads the plane's anchor off one elimination of its rows
    prefixed by their diagonal columns and runs no Veronese-point pass: the
    anchor, the kernels' pivots and the move by C make three rref calls per
    meeting plane (four when a ``nucleus_cut`` and a second reduction of
    its meet found the kernels), and the nucleus plane makes one.  A
    non-plane still raises ValueError, and a plane missing the nucleus
    plane OutOfFamilyError."""
    monkeypatch.setattr(invariants, "_points_in_span",
                        lambda *args: pytest.fail("a Veronese-point pass ran"))
    for label in LABELS:
        s = representative(gf4, label)
        rref_calls.clear()
        assert plane_stabilizer_order(s) == expected_stabilizer_order(label, 4), label
        assert len(rref_calls) == (1 if label == "SigmaN" else 3), label
    with pytest.raises(ValueError, match="expected a plane"):
        plane_stabilizer_order(span(gf4, [(0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]))
    with pytest.raises(OutOfFamilyError):
        plane_stabilizer_order(span(gf4, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                                          (0, 0, 0, 0, 0, 1)]))


def test_plane_stabilizer_order_on_moved_planes(gf4, sample_matrices):
    g = sample_matrices(gf4)[0]
    for label in ("Sigma3", "Sigma8", "Sigma16", "Sigma22"):
        moved = act_subspace(representative(gf4, label), g)
        assert plane_stabilizer_order(moved) == expected_stabilizer_order(label, 4)
    with pytest.raises(OutOfFamilyError):
        plane_stabilizer_order(span(gf4, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                                          (0, 0, 0, 0, 0, 1)]))


def _differences(values, order):
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def test_closed_forms_are_polynomials_of_low_degree():
    """The degrees the two identities below rest on.  Over the even q from
    2 to 40 every od0 and od4 cell has vanishing third differences, so it
    is a polynomial in q of degree at most 2 there.  Over every q from 2 to
    40 each stabilizer order and orbit size |PGL(3,q)| / order has
    vanishing ninth differences, so it is a polynomial of degree at most 8."""
    evens, every = range(2, 41, 2), range(2, 41)
    for label in LABELS:
        for reader in (expected_point_distribution, expected_hyperplane_distribution):
            for cell in zip(*(reader(label, q) for q in evens)):
                assert not any(_differences(cell, 3)), (label, reader.__name__, cell)
        orders = [expected_stabilizer_order(label, q) for q in every]
        sizes = [pgl_order(q) // order for q, order in zip(every, orders)]
        assert not any(_differences(orders, 9)), label
        assert not any(_differences(sizes, 9)), label
    # the check has teeth: a cell off by one at a single q breaks it
    assert any(_differences([q * q + (q == 20) for q in evens], 3))


@pytest.mark.parametrize("q", range(2, 40))
def test_stabilizer_table_sizes_sum_to_meeting_count(q):
    """Both sides are polynomials in q of degree at most 9: the orbit sizes
    by test_closed_forms_are_polynomials_of_low_degree, the meeting count
    by its Gaussian binomial.  So agreement at 38 integers makes this an
    identity in q."""
    g = pgl_order(q)
    assert all(g % expected_stabilizer_order(label, q) == 0 for label in LABELS)
    total = sum(g // expected_stabilizer_order(label, q) for label in LABELS)
    assert total == planes_meeting_nucleus_count(q)


def test_distribution_tables_double_count_points_and_hyperplanes():
    """Summed over the orbits with their sizes, the point and hyperplane
    tables count incidences with the planes meeting the nucleus plane.  A
    point of class i lies on M_i of them: [5 2]_q when it is nuclear, else
    all but the q^6 planes through it that miss the nucleus plane.  A
    hyperplane of conic class j holds M'_j of them: [5 3]_q when it is a
    double line, which contains the nucleus plane, else all but the q^6
    planes in it that miss its line of the nucleus plane.  A plane's double
    lines are its nuclear points.  For even q (the tables use h = q/2) both
    sides are polynomials in q of degree at most 11, the left by
    test_closed_forms_are_polynomials_of_low_degree (an orbit size of degree
    at most 8 times a cell of degree at most 2), so agreement at the 20 even
    q from 2 to 40 makes these identities in q."""
    for q in range(2, 41, 2):
        g, n, q6 = pgl_order(q), q * q + q + 1, q**6
        assert all(g % expected_stabilizer_order(label, q) == 0 for label in LABELS)
        sizes = [g // expected_stabilizer_order(label, q) for label in LABELS]
        od0 = [expected_point_distribution(label, q) for label in LABELS]
        od4 = [expected_hyperplane_distribution(label, q) for label in LABELS]
        points = [sum(size * d[i] for size, d in zip(sizes, od0)) for i in range(4)]
        census = expected_census(q)
        m = gaussian_binomial(5, 2, q)
        assert points == [census["rank1"] * (m - q6), census["rank2_nuclear"] * m,
                          census["rank2_secant"] * (m - q6), census["rank3"] * (m - q6)], q
        hyperplanes = [sum(size * d[j] for size, d in zip(sizes, od4)) for j in range(4)]
        m = gaussian_binomial(5, 3, q)
        conics = (n, n * (q * q + q) // 2, n * (q * q - q) // 2, q**5 - q * q)
        assert hyperplanes == [conics[0] * m] + [c * (m - q6) for c in conics[1:]], q
        assert [d[0] for d in od4] == [d[1] for d in od0], q


def test_partition_sweep_cuts_each_meeting_plane_once(gf4, rref_calls):
    """The exhaustive sweep makes one rref per plane meeting the nucleus
    plane (invariants.nucleus_cut, whose meet and points also serve the
    classifier) and none for a plane whose diagonal block has a nonzero
    determinant.  Every module's rref is counted, on chunks holding planes
    that miss the nucleus plane and planes meeting it in a point, a line
    and the whole plane."""
    index = {key: label for label, keys in orbit_atlas(gf4).items() for key in keys}
    state = {"q": 4, "modulus": gf4.modulus, "index": index}
    chunks = [c for c in plane_enumeration_chunks(gf4) if c[0] in ((0, 1, 4), (1, 2, 4))]
    planes = sum(1 for c in chunks for _ in enumerate_planes_chunk(gf4, c))
    rref_calls.clear()
    meeting = agree = 0
    for chunk in chunks:
        tally, stray = atlas._partition_chunk(state, chunk)
        assert not stray
        meeting, agree = meeting + tally["meeting"], agree + tally["agree"]
    assert planes == 17408 and meeting == 8192 == agree
    assert len(rref_calls) == meeting


def test_verify_partition_rejects_a_wrong_stabilizer_table(gf2, monkeypatch):
    real = atlas.expected_stabilizer_order
    monkeypatch.setattr(atlas, "expected_stabilizer_order",
                        lambda label, q: real(label, q) * (2 if label == "Sigma18" else 1))
    with pytest.raises(VerificationError, match="Sigma18"):
        verify_partition(gf2)


@pytest.fixture
def table_row():
    """Replace a field of one ORBIT_TABLE row for one test, with every
    field's stored values, which read the table, forgotten before and after."""
    saved = dict(atlas.ORBIT_TABLE)

    def clear():
        for gf in gf_module._FIELDS.values():
            gf.forget()

    def replace(label, **fields):
        atlas.ORBIT_TABLE[label] = atlas.ORBIT_TABLE[label]._replace(**fields)
        clear()

    yield replace
    atlas.ORBIT_TABLE.update(saved)
    clear()


def test_a_wrong_od0_cell_fails_one_distribution_check_and_the_partition(table_row, capsys):
    """The suite reports a row off its representative as one false check,
    with every other check still listed; the partition's classifier finds
    no orbit for that representative."""
    forms = atlas.ORBIT_TABLE["Sigma17"].forms

    def wrong(*args):
        (rank1, nuclear, secant, rank3), order = forms(*args)
        return (rank1, nuclear, secant + 1, rank3 - 1), order

    table_row("Sigma17", forms=wrong)
    assert cli.main(["verify", "--q", "2", "--suite", "distributions"]) == 4
    out, err = capsys.readouterr()
    assert err == ""
    assert [c["name"] for c in json.loads(out)["checks"] if not c["pass"]] == [
        "distribution[Sigma17]"]
    assert cli.main(["verify", "--q", "2", "--suite", "partition"]) == 4
    assert "key lookup: key matches no catalogued orbit" in capsys.readouterr().err


def test_a_wrong_stabilizer_cell_fails_the_partition(gf2, table_row):
    forms = atlas.ORBIT_TABLE["Sigma23"].forms

    def wrong(*args):
        od0, order = forms(*args)
        return od0, order + 1

    table_row("Sigma23", forms=wrong)
    with pytest.raises(VerificationError, match="stabilizer of Sigma23 has order 2, expected 3"):
        verify_partition(gf2)


def test_a_wrong_cubic_kind_fails_the_classifier(gf4, table_row):
    rows, _ = representative_pattern(gf4, "Sigma22")
    plane = plane_from_pattern(gf4, rows)
    table_row("Sigma22", cubic_kind="TripleLine")
    with pytest.raises(ClassificationError, match="key lookup: key matches no catalogued orbit"):
        classify_plane(plane)


@pytest.mark.parametrize("workers", (0, 2))
def test_wrong_stabilizer_order_raises_before_the_sweep(gf4, monkeypatch, workers):
    """The 18 orders are counted and checked in the calling process before
    any plane chunk is enumerated, in one process or with a pool."""
    real = atlas.plane_stabilizer_order
    monkeypatch.setattr(atlas, "plane_stabilizer_order",
                        lambda s: real(s) + (classify_plane(s) == "Sigma22"))
    calls = []
    monkeypatch.setattr(atlas, "enumerate_planes_chunk", lambda *args: calls.append(args))
    monkeypatch.setattr(atlas, "get_context", lambda: pytest.fail("a pool was started"))
    with pytest.raises(VerificationError, match="stabilizer of Sigma22 has order 2"):
        verify_partition(gf4, workers=workers)
    assert calls == []


Q8_SMALL_ORBITS = ("Sigma1", "Sigma7", "Sigma16", "Sigma15", "Sigma8", "SigmaN")


@pytest.mark.parametrize("label", [
    label if label in Q8_SMALL_ORBITS else pytest.param(label, marks=pytest.mark.slow)
    for label in LABELS])
def test_stabilizer_table_matches_orbit_sizes_q8(gf8, label):
    """Swept orbit sizes at q = 8 against the closed-form stabilizer orders,
    one orbit at a time: the six of at most 5,256 planes in tier 1, the rest
    under -m slow, where Sigma22's orbit holds 16,482,816 keys."""
    n = len(orbit_keys(representative(gf8, label)))
    assert n * expected_stabilizer_order(label, 8) == pgl_order(8), label


@pytest.mark.slow
def test_verify_partition_q8_representative():
    """The q = 8 partition from stabilizer orders by orbit-stabilizer in the
    kernels' subgroups: orbit sizes summing to the meeting count.  About 4 s
    at 4 workers on 2 vCPU, under 45 MB per process; deselected by
    default."""
    report = verify_partition(field(8), workers=4)
    assert report["mode"] == "representative"
    assert all(c["pass"] for c in report["checks"])
    assert sum(row["size"] for row in report["orbits"]) == 21870217


@pytest.mark.parametrize("q", (2, 4, 8, 16))
def test_verify_distributions_all_pass(q):
    report = verify_distributions(field(q))
    assert report["suite"] == "distributions"
    assert all(c["pass"] for c in report["checks"])
    assert len(report["orbits"]) == 18


def test_verify_known_net_report(gf4):
    report = verify_known_net(gf4)
    names = [c["name"] for c in report["checks"]]
    assert names == ["classifies_as_sigma18", "empty_base", "single_double_line"]
    assert all(c["pass"] for c in report["checks"])


def test_reports_do_not_depend_on_call_order(gf4, gf8):
    """With the per-field tables cold or warm, and one report before or
    after the other, each report serializes to the same bytes every time."""
    gf4.forget()
    gf8.forget()
    reports = {"line-orbits": lambda: atlas.verify_line_orbits(gf4),
               "partition": lambda: atlas.verify_partition(gf8)}
    texts = {name: set() for name in reports}
    for name in ("line-orbits", "partition", "partition", "line-orbits"):
        texts[name].add(json.dumps(reports[name](), indent=2, sort_keys=True))
    assert all(len(t) == 1 for t in texts.values())
