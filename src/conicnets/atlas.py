"""Orbit atlas for planes meeting the nucleus plane of the Veronese surface.

Ships ``ORBIT_TABLE``, one row for each of the 18 orbits: the
representative's basis rows with the field-dependent parameter searches
that fill them, the cubic kind, and the closed forms in q of the point
distribution (``hyperplane_distribution`` gives the hyperplanes') and the
stabilizer order, which the ``expected_*`` functions read.  Around it: an
orbit-stabilizer count to check the table against, the end-to-end
classifier for planes and for nets of conics, the plane <-> net
correspondence, and the verification reports that back the
``conicnets verify`` command line.

Every report is a plain dict that ``_report`` builds, the same envelope
for each suite::

    {"schema": ..., "q": ..., "suite": ..., "totals": {...},
     "checks": [{"name": ..., "pass": ..., "details": ...}, ...]}

with "orbits" and "mode" where the suite has them, so it serializes to
JSON without further massaging.  The exhaustive and sampled suites run
their chunks through ``_sweep``, which sums the chunks' counters and keeps
the 16 least witness keys.
"""

from __future__ import annotations

import functools
import os
import random
from collections import Counter, namedtuple
from itertools import product

from .action import (
    act_subspace,
    congruence_image,
    generators,
    group_order,
    kernel_fiber,
    line_orbits,
    orbit_keys,
    pgl_order,
    subspace_orbit,
)
from .errors import (
    ClassificationError,
    ConfigurationError,
    OutOfFamilyError,
    ResourceBudgetError,
    VerificationError,
    brief,
)
from .gf import GF, per_field
from .invariants import (
    PlaneSignature,
    anchor,
    double_line_hyperplane_count,
    hyperplane_class_counts,
    nuclear_point_count,
    nucleus_cut,
    plane_key_at,
    plane_signature,
    point_class_counts,
    veronese_points,
)
from .projgeom import (
    Subspace,
    annihilator,
    enumerate_planes_chunk,
    gaussian_binomial,
    mat3_rank,
    plane_enumeration_chunks,
    plane_from_pattern,
    rref,
    span,
)

SCHEMA = "conicnets-report/1"

# The most planes the double-lines suite samples: 100 times its default.
MAX_SAMPLES = 10_000_000


# -- parameter searches ----------------------------------------------------


def sigma18_parameter(gf: GF) -> int:
    """Smallest c != 0 such that t^3 + t + c has no root in GF(q) and
    trace(1/c) = trace(1).

    The rootless condition is what makes the Sigma18 cubic carry a single
    rational point; the trace condition picks the right twist.
    """
    t1 = gf.trace(1)
    for c in gf.nonzero:
        if gf.trace(gf.inv(c)) != t1:
            continue
        if all(gf.mul(gf.sq(t), t) ^ t ^ c for t in gf.elements):
            return c
    raise ConfigurationError("no valid cubic coefficient c in GF(%d)" % gf.q)


def sigma20_parameters(gf: GF) -> tuple[int, int]:
    """First (b, c) in field order with b != 1 and trace(c / (1 + b^2)) = 1."""
    for b in gf.elements:
        if b == 1:
            continue
        d = 1 ^ gf.sq(b)
        for c in gf.nonzero:
            if gf.trace(gf.div(c, d)) == 1:
                return b, c
    raise ConfigurationError("no valid (b, c) pair in GF(%d)" % gf.q)


def sigma21_parameter(gf: GF) -> int:
    """First a in field order with trace(a) = 1 (also used by Sigma23)."""
    for a in gf.elements:
        if gf.trace(a) == 1:
            return a
    raise ConfigurationError("no element of trace 1 in GF(%d)" % gf.q)


# -- the orbit table ---------------------------------------------------------

Orbit = namedtuple("Orbit", "rows cubic_kind forms search", defaults=(None,))

# One row per orbit.  rows: the representative's three basis rows, one
# coefficient per character in the order m00 m01 m02 m11 m12 m22, with a
# letter where search (or an override) puts a parameter.  cubic_kind: None
# marks the identically zero cubic (planes inside the rank <= 2
# hypersurface).  forms(q, n, g), with n = q^2+q+1 and g = |PGL(3,q)|,
# gives the closed forms of the point-class counts od0 (rank1, rank2
# nuclear, rank2 secant, rank3) and of the stabilizer order in PGL(3,q);
# od4 is no column, it is invariants.hyperplane_distribution of od0.
ORBIT_TABLE = {
    "Sigma1": Orbit("100000 010000 000100", None, lambda q, n, g: (
        (q + 1, 1, q * q - 1, 0), g // n)),
    "Sigma3": Orbit("100000 000100 001000", "LinePlusDoubleLine", lambda q, n, g: (
        (2, 1, 2 * q - 2, q * q - q), q * (q - 1) ** 2)),
    "Sigma4": Orbit("100000 000100 001010", "LinePlusDoubleLine", lambda q, n, g: (
        (2, 1, 2 * q - 2, q * q - q), 2 * q * (q - 1))),
    "Sigma7": Orbit("100000 010000 001000", None, lambda q, n, g: (
        (1, q + 1, q * q - 1, 0), g // n)),
    "Sigma8": Orbit("100000 010000 000010", "LinePlusDoubleLine", lambda q, n, g: (
        (1, q + 1, q - 1, q * q - q), q * q * (q - 1) ** 2)),
    "Sigma9": Orbit("100000 010000 000110", "LinePlusDoubleLine", lambda q, n, g: (
        (1, 1, 2 * q - 1, q * q - q), q * q * (q - 1))),
    "Sigma10": Orbit("100000 010000 000101", "LinePlusConic_Tangent", lambda q, n, g: (
        (1, 1, 2 * q - 1, q * q - q), q * (q - 1))),
    "Sigma11": Orbit("100001 010000 000111", "IrreducibleCubic", lambda q, n, g: (
        (1, 1, q - 1, q * q), q - 1)),
    "Sigma15": Orbit("100000 010000 001100", "TripleLine", lambda q, n, g: (
        (1, 1, q - 1, q * q), q**3 * (q - 1))),
    "SigmaN": Orbit("010000 001000 000010", None, lambda q, n, g: (
        (0, n, 0, 0), g)),
    "Sigma16": Orbit("010000 000010 001100", "TripleLine", lambda q, n, g: (
        (0, q + 1, 0, q * q), q**3 * (q * q - 1))),
    "Sigma17": Orbit("010000 001000 000101", "LinePlusDoubleLine", lambda q, n, g: (
        (0, q + 1, q, q * q - q), q * q * (q - 1))),
    "Sigma18": Orbit("100010 010000 001c10", "NoRationalComponentPoint", lambda q, n, g: (
        (0, 1, 0, q * q + q), 3 * q * q), sigma18_parameter),
    "Sigma19": Orbit("100001 010100 000110", "ThreeConcurrentLines", lambda q, n, g: (
        (0, 1, 3 * q, q * q - 2 * q), 6 * q * q)),
    "Sigma20": Orbit("10bc01 010100 000110", "LinePlusImaginaryPair", lambda q, n, g: (
        (0, 1, q, q * q), 2 * q * q), sigma20_parameters),
    "Sigma21": Orbit("110000 000010 0a0100", "LinePlusDoubleLine", lambda q, n, g: (
        (0, 1, 2 * q, q * q - q), 2 * q * (q - 1)), sigma21_parameter),
    "Sigma22": Orbit("110000 000010 011100", "IrreducibleCubic", lambda q, n, g: (
        (0, 1, q, q * q), 1)),
    "Sigma23": Orbit("101000 000010 0a0100", "LinePlusConic_Tangent", lambda q, n, g: (
        (0, 1, 2 * q, q * q - q), q), sigma21_parameter),
}

LABELS = tuple(ORBIT_TABLE)

# Orbits whose planes carry no rank-1 point; their nets have an empty base.
EMPTY_BASE_LABELS = (
    "SigmaN", "Sigma16", "Sigma17", "Sigma18", "Sigma19", "Sigma20",
    "Sigma21", "Sigma22", "Sigma23",
)


def _closed_forms(label: str, q: int):
    return ORBIT_TABLE[label].forms(q, q * q + q + 1, pgl_order(q))


def expected_point_distribution(label: str, q: int) -> tuple[int, int, int, int]:
    """Point-class counts (rank1, rank2 nuclear, rank2 secant, rank3) of a
    plane in the named orbit: od0 of its ``ORBIT_TABLE`` row."""
    return _closed_forms(label, q)[0]


@per_field
def expected_signatures(gf: GF) -> dict[str, PlaneSignature]:
    """Orbit label -> the signature shared by every plane of the orbit: its
    ``ORBIT_TABLE`` row's od0 and cubic kind."""
    return {label: PlaneSignature(expected_point_distribution(label, gf.q), row.cubic_kind)
            for label, row in ORBIT_TABLE.items()}


def expected_stabilizer_order(label: str, q: int) -> int:
    """Order of the stabilizer in PGL(3,q) of a plane in the named orbit,
    from its ``ORBIT_TABLE`` row; the orbit has pgl_order(q) / order planes."""
    return _closed_forms(label, q)[1]


def plane_stabilizer_order(s: Subspace) -> int:
    """Order of the stabilizer in PGL(3,q) of a plane meeting the nucleus
    plane, by orbit-stabilizer inside the subgroup H that holds it.

    The stabilizer fixes the plane's ``anchor``, its nuclear kernel point
    or line, so moved by C it lies in H: the order is |H| /
    |``kernel_fiber``|, refused past 2^18 planes.  The whole group fixes
    the nucleus plane, whose anchor is all three kernels."""
    if s.n != 5 or s.dim != 2:
        raise ValueError("expected a plane of PG(5, q)")
    q, kernels = s.gf.q, anchor(s)
    if not kernels:
        raise OutOfFamilyError("plane misses the nucleus plane")
    if len(kernels) == 3:
        return pgl_order(q)
    return q**3 * (q - 1) * (q * q - 1) // len(kernel_fiber(s, kernels, 2**18))


def _e(i: int) -> tuple[int, ...]:
    row = [0] * 6
    row[i] = 1
    return tuple(row)


def representative_pattern(gf: GF, label: str, overrides: dict | None = None):
    """Basis rows (coefficient 6-vectors) and parameters for the named orbit
    representative: its ``ORBIT_TABLE`` row with each parameter letter
    replaced by a field element.

    The values come from the row's search (Sigma18 takes c, Sigma20 b and c,
    Sigma21 and Sigma23 a); overrides give explicit field elements instead,
    for every parameter of the row, and any other name raises.  An
    overridden pattern is returned unvalidated, so it need not lie in the
    named orbit.
    """
    if label not in ORBIT_TABLE:
        raise ConfigurationError("unknown orbit label %s" % brief.repr(label))
    row, overrides = ORBIT_TABLE[label], overrides or {}
    slots = sorted(set(row.rows) - set("01 "))
    unknown = ", ".join(sorted(map(str, set(overrides) - set(slots))))
    if unknown:
        raise ConfigurationError("orbit %s takes no parameter %s" % (label, brief.repr(unknown)))
    values = {key: overrides[key] for key in slots if key in overrides}
    for key, v in values.items():
        if type(v) is not int or not 0 <= v < gf.q:
            raise ConfigurationError(
                "parameter %s=%s is not a GF(%d) element" % (key, brief.repr(v), gf.q)
            )
    missing = ", ".join(key for key in slots if key not in values)
    if values and missing:
        raise ConfigurationError("orbit %s needs parameter %s when overriding" % (label, missing))
    if missing:
        found = row.search(gf)
        values = dict(zip(slots, found if len(slots) > 1 else (found,)))
    return tuple(tuple(int(values.get(c, c)) for c in r) for r in row.rows.split()), values


@per_field
def _rep_data(gf: GF):
    """(representatives, their parameters)."""
    reps: dict[str, Subspace] = {}
    params: dict[str, dict[str, int]] = {}
    for label in LABELS:
        rows, params[label] = representative_pattern(gf, label)
        reps[label] = plane_from_pattern(gf, rows)
    return reps, params


def representatives(gf: GF) -> dict[str, Subspace]:
    """All 18 orbit representatives, built once per field and kept in its
    store (``per_field``); checked against their rows by
    ``verify_distributions``."""
    return _rep_data(gf)[0]


def representative_parameters(gf: GF) -> dict[str, dict[str, int]]:
    """The searched parameter values used by each representative."""
    return _rep_data(gf)[1]


def representative(gf: GF, label: str) -> Subspace:
    """Plane representative of one orbit, from ``representatives``."""
    if label not in LABELS:
        raise ConfigurationError("unknown orbit label %s" % brief.repr(label))
    return representatives(gf)[label]


# -- signature lookup and classification ------------------------------------


@per_field
def signature_table(gf: GF) -> dict[PlaneSignature, tuple[str, ...]]:
    """Signature -> orbit labels, from the closed-form tables.

    Every signature names one orbit except the one Sigma3 and Sigma4 share,
    which classify_plane resolves separately.  A plane_key tuple looks up
    the signature it equals.
    """
    build: dict[PlaneSignature, list[str]] = {}
    for label, sig in expected_signatures(gf).items():
        build.setdefault(sig, []).append(label)
    return {sig: tuple(ls) for sig, ls in build.items()}


@per_field
def orbit_atlas(gf: GF) -> dict[str, frozenset[int]]:
    """Orbit label -> frozenset of packed plane keys.  Exhaustive, q <= 4."""
    if gf.q > 4:
        raise ConfigurationError("orbit atlas enumeration is limited to q <= 4")
    return {label: frozenset(orbit_keys(s)) for label, s in representatives(gf).items()}


def classify_plane(s: Subspace) -> str:
    """Orbit label of a plane meeting the nucleus plane (classify_plane_at)."""
    return classify_plane_at(s, *nucleus_cut(s))


def classify_plane_at(s: Subspace, meet: Subspace | None, points) -> str:
    """classify_plane of a plane whose invariants.nucleus_cut, which also
    checks that s is a plane, is (``meet``, ``points``).

    The meet decides whether the plane is in the family, gives the nuclear
    point at which plane_key_at reads the plane's key, and feeds the
    tie-break below.  The key, the point-class counts and cubic-curve kind,
    is looked up in signature_table; it pins down every label except Sigma3
    and Sigma4.  A plane of either orbit holds one nuclear point and two
    rank-1 points v(p).  The nuclear point lies on the conic plane
    {M : M u = 0} of one line of PG(2,q), its kernel u = (y4, y2, y1), and
    v(p) lies there iff p.u = 0: for one p for Sigma3, for neither for
    Sigma4.  The count is invariant because the lifted group commutes with
    the Veronese map, so it carries conic planes to conic planes.  A
    ClassificationError names the plane's packed hex key and the stage that
    failed: the key lookup or the Sigma3/Sigma4 tie-break.
    """
    gf = s.gf
    if meet is None:
        raise OutOfFamilyError(
            "plane misses the nucleus plane; it is outside the classified family"
        )
    def fail(stage: str, message: str) -> ClassificationError:
        return ClassificationError("plane %s, %s: %s" % (s.key_hex(), stage, message))
    try:
        key = plane_key_at(s, meet, points)
    except ClassificationError as exc:
        raise fail("key lookup", str(exc)) from exc
    labels = signature_table(gf).get(key, ())
    if not labels:
        raise fail("key lookup", "key matches no catalogued orbit: %r" % (key,))
    if len(labels) == 1:
        return labels[0]
    if labels != ("Sigma3", "Sigma4"):
        raise fail("key lookup", "key is shared by orbits %s: %r" % (", ".join(labels), key))
    (nuclear,) = meet.rows
    m0, m1, m2 = (gf._mul[nuclear[i]] for i in (4, 2, 1))
    hits = sum(1 for p in points if not (m0[p[0]] ^ m1[p[1]] ^ m2[p[2]]))
    label = {1: "Sigma3", 0: "Sigma4"}.get(hits)
    if label is None:
        raise fail("Sigma3/Sigma4 tie-break", "the conic plane holds %d rank-1 points" % hits)
    return label


# -- planes <-> nets of conics ----------------------------------------------


def net_of_plane(s: Subspace) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the net of conics attached to a plane.

    A form f belongs to the net exactly when the hyperplane dual to f
    contains the plane, so the net is the null space of the 3x6 basis
    matrix, returned in RREF coefficient order (m00, m01, m02, m11, m12,
    m22).
    """
    if s.n != 5 or s.dim != 2:
        raise ValueError("expected a plane of PG(5, q)")
    return rref(s.gf, annihilator(s.gf, s.rows, 6))


def plane_of_net(gf: GF, forms) -> Subspace:
    """The plane of PG(5, q) whose dual hyperplanes carry the given net;
    ValueError unless the forms are three linearly independent coefficient
    6-vectors."""
    if len(forms) != 3 or any(len(f) != 6 for f in forms):
        raise ValueError("a net needs exactly three coefficient 6-vectors")
    red = rref(gf, forms)
    if len(red) != 3:
        raise ValueError("net basis forms are linearly dependent")
    return Subspace.from_rref(gf, 5, rref(gf, annihilator(gf, red, 6)))


def net_base_points(gf: GF, forms) -> list[tuple[int, ...]]:
    """Common zeros in PG(2, q) of every conic in the net, in pg_points
    order: the points p with v(p) in the net's plane, which lie on every
    double line of the net (invariants.veronese_points).  Dependent forms
    raise ValueError, as in plane_of_net.
    """
    return veronese_points(plane_of_net(gf, forms))


def net_double_line_count(gf: GF, forms) -> int:
    """Number of double lines (perfect-square conics) in the net.

    In characteristic 2 a form is a square exactly when its cross
    coefficients (a01, a02, a12) vanish, so the double lines are the points
    of the kernel of the linear map taking a form of the net to its cross
    part: (q^k - 1) / (q - 1) of them, k = dim of the net - mat3_rank of
    its cross columns.  Forms that are not a net raise ValueError, as in
    plane_of_net.
    """
    plane_of_net(gf, forms)  # the check that the forms are a net
    k = 3 - mat3_rank(gf, [(f[1], f[2], f[4]) for f in forms])
    return (gf.q**k - 1) // (gf.q - 1)


def classify_net(gf: GF, forms) -> str:
    """Orbit label of a net of conics containing a double line."""
    return classify_plane(plane_of_net(gf, forms))


def example_net(gf: GF) -> tuple[tuple[int, ...], ...]:
    """A net with empty base and a single double line; classifies as Sigma18.

    Basis: c*X0*X2 + X1^2, X0^2 + X0*X2 + X1*X2, X2^2, with c from the
    Sigma18 parameter search.
    """
    c = sigma18_parameter(gf)
    return ((0, 0, c, 1, 0, 0), (1, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 1))


# -- reports -----------------------------------------------------------------


def _check(name: str, ok: bool, details) -> dict:
    return {"name": name, "pass": bool(ok), "details": details}


def _report(gf: GF, suite: str, checks: list, **fields) -> dict:
    return {"schema": SCHEMA, "q": gf.q, "suite": suite, "checks": checks, **fields}


def planes_meeting_nucleus_count(q: int) -> int:
    """Number of planes of PG(5, q) meeting a fixed plane: all planes minus
    the q^9 complements."""
    return gaussian_binomial(6, 3, q) - q**9


def _orbit_rows(gf: GF, orders: dict[str, int] | None) -> list[dict]:
    rows = []
    params = representative_parameters(gf)
    for label in LABELS:
        s = representatives(gf)[label]
        sig = expected_signatures(gf)[label]
        stab = orders[label] if orders else None
        rows.append({
            "label": label,
            "size": stab and pgl_order(gf.q) // stab,
            "stabilizer_order": stab,
            "od0": list(sig.point_counts),
            "od4": list(sig.hyperplane_counts),
            "cubic_type": sig.cubic_kind,
            "cubic_point_count": sig.cubic_point_count,
            "representative_matrix": [list(r) for r in s.rows],
            "parameters": params[label],
        })
    return rows


def verify_distributions(gf: GF) -> dict:
    """Check every representative against its ``ORBIT_TABLE`` row: its
    signature (point distribution, cubic kind and point count) and its
    hyperplane distribution, scanned by ``hyperplane_class_counts``, against
    the closed forms.  Works for any q without enumeration.  A row off its
    representative fails one ``distribution[...]`` check of a full report."""
    checks = []
    for label, s in representatives(gf).items():
        sig, want = plane_signature(s), expected_signatures(gf)[label]
        od4 = hyperplane_class_counts(s)
        checks.append(_check(
            "distribution[%s]" % label,
            sig == want and od4 == want.hyperplane_counts,
            {"od0": list(sig.point_counts),
             "expected": list(want.point_counts),
             "cubic_type": sig.cubic_kind},
        ))
    empty = [label for label in LABELS
             if expected_point_distribution(label, gf.q)[0] == 0]
    checks.append(_check(
        "empty_base_orbits",
        tuple(empty) == EMPTY_BASE_LABELS and len(empty) == 9,
        {"labels": empty},
    ))
    return _report(gf, "distributions", checks, orbits=_orbit_rows(gf, None),
                   totals={"orbit_count": len(LABELS)})


def _partition_chunk(state, chunk):
    """One enumeration chunk's sweep: (Counter of the meeting planes by
    orbit label, with "meeting" and "agree" counts, the 16 least keys of
    meeting planes in no orbit)."""
    gf, index = state["gf"], state["index"]
    labels: list[str] = []
    stray: list[int] = []
    meeting = agree = 0
    for s in enumerate_planes_chunk(gf, chunk):
        meet, points = nucleus_cut(s)
        if meet is None:
            continue
        meeting += 1
        key = s.key_int()
        label = index.get(key)
        if label is None:
            stray.append(key)
            continue
        labels.append(label)
        agree += classify_plane_at(s, meet, points) == label
    return Counter(labels, meeting=meeting, agree=agree), sorted(stray)[:16]


_task = None  # a pool process's sweep task, bound as the process starts


def _bind_task(worker, state) -> None:
    global _task
    _task = functools.partial(worker, state)


def _run_task(chunk):
    return _task(chunk)


def get_context():
    """multiprocessing.get_context(), imported only when a sweep starts a pool."""
    import multiprocessing
    return multiprocessing.get_context()


def _sweep(worker, state: dict, chunks, workers: int) -> tuple[Counter, list[int]]:
    """worker(state, chunk) -> (Counter, keys) over every chunk: the sum of
    the Counters and the 16 least keys.  Pool processes get the state once,
    through the pool initializer, so any start method works: its field
    pickles as ``field(q, modulus)``.  More processes than chunks or CPUs
    would idle."""
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with get_context().Pool(workers, initializer=_bind_task,
                                initargs=(worker, state)) as pool:
            results = pool.map(_run_task, chunks, chunksize=1)
    else:
        results = [worker(state, chunk) for chunk in chunks]
    total: Counter = sum((tally for tally, _ in results), Counter())
    return total, sorted(key for _, keys in results for key in keys)[:16]


def verify_partition(gf: GF, workers: int = 0) -> dict:
    """Reproduce the 18-orbit partition of planes meeting the nucleus plane.

    At every q each representative's stabilizer is counted first, in this
    process (``plane_stabilizer_order``), and must equal its closed form
    (VerificationError otherwise, before any sweep), and the orbit
    sizes |G| / |stabilizer| must sum to the count of planes meeting the
    nucleus plane.  The classifier reads only invariants, so its 18
    distinct labels on the representatives make the orbits disjoint.  For
    q <= 4 (exhaustive mode; q = 8 is representative mode) the orbit key
    sets are the oracle: every plane is swept, every meeting plane must lie
    in one, tallies must equal the sizes, and the classifier must agree;
    the sweep's plane chunks are what ``workers`` processes share.
    """
    q = gf.q
    if q > 8:
        raise ConfigurationError("partition verification supports q in {2, 4, 8}")
    exhaustive = q <= 4
    reps = representatives(gf)
    orders = {label: plane_stabilizer_order(reps[label]) for label in LABELS}
    for label, order in orders.items():
        want = expected_stabilizer_order(label, q)
        if order != want:
            raise VerificationError(
                "stabilizer of %s has order %d, expected %d" % (label, order, want))
    sizes = {label: pgl_order(q) // orders[label] for label in LABELS}
    checks = [_check(
        "orbit_sets_disjoint",
        all(classify_plane(reps[label]) == label for label in LABELS),
        {"orbits": len(LABELS)},
    )]
    expected_total = planes_meeting_nucleus_count(q)
    total = sum(sizes.values())
    checks.append(_check(
        "orbit_sizes_sum",
        total == expected_total,
        {"sum": total, "expected": expected_total},
    ))
    empty = [label for label in LABELS
             if point_class_counts(reps[label])[0] == 0]
    checks.append(_check(
        "empty_base_count",
        len(empty) == 9 and tuple(empty) == EMPTY_BASE_LABELS,
        {"labels": empty},
    ))
    totals = {"orbit_count": len(LABELS), "family_size": total}
    if exhaustive:
        index = {key: label for label, keys in orbit_atlas(gf).items() for key in keys}
        state = {"gf": gf, "index": index}
        tally, stray = _sweep(_partition_chunk, state, plane_enumeration_chunks(gf), workers)
        meeting, agree = tally["meeting"], tally["agree"]
        checked = sum(tally[label] for label in LABELS)
        checks.append(_check(
            "every_meeting_plane_classified",
            not stray and meeting == expected_total,
            {"meeting": meeting, "expected": expected_total, "unclassified_keys": stray},
        ))
        checks.append(_check(
            "stream_tallies_match_orbit_sizes",
            all(tally[label] == sizes[label] for label in LABELS),
            {"mismatched": [label for label in LABELS if tally[label] != sizes[label]]},
        ))
        checks.append(_check(
            "classifier_agrees_on_every_plane",
            checked > 0 and agree == checked,
            {"checked": checked, "agree": agree},
        ))
        totals["planes_streamed"] = meeting
    return _report(gf, "partition", checks, totals=totals, orbits=_orbit_rows(gf, orders),
                   mode="exhaustive" if exhaustive else "representative")


def _double_line_tally(planes):
    """(Counter of "planes", "meeting" and "violations", the 16 least keys
    of the violating planes)."""
    total = meeting = 0
    bad: list[int] = []
    for s in planes:
        total += 1
        nuclear = nuclear_point_count(s)
        meeting += nuclear > 0
        if nuclear != double_line_hyperplane_count(s):
            bad.append(s.key_int())
    return Counter(planes=total, meeting=meeting, violations=len(bad)), sorted(bad)[:16]


def _double_line_chunk(state, chunk):
    return _double_line_tally(enumerate_planes_chunk(state["gf"], chunk))


def _sample_plane(gf: GF, rng: random.Random) -> Subspace:
    while True:
        rows = [[rng.randrange(gf.q) for _ in range(6)] for _ in range(3)]
        reduced = rref(gf, rows)
        if len(reduced) == 3:
            return Subspace.from_rref(gf, 5, reduced)


def _double_line_sample_chunk(state, args):
    seed, count = args
    rng = random.Random(seed)
    return _double_line_tally(_sample_plane(state["gf"], rng) for _ in range(count))


def verify_double_lines(
    gf: GF,
    samples: int | None = None,
    seed: int = 0,
    workers: int = 0,
) -> dict:
    """Check that a plane's rank-2 nuclear point count equals the number of
    double-line hyperplane classes through it, on every plane (exhaustive)
    or on uniformly sampled planes.  The mode follows ``samples`` alone: a
    sample count selects sampling at any q; without one, q <= 4 sweeps
    every plane and larger q samples 100,000.  More than ``MAX_SAMPLES``
    raise ResourceBudgetError before any chunk is built.

    Sampling draws random full-rank 3x6 matrices, which is uniform on
    planes because every plane has the same number of ordered bases.  The
    sample stream is split into 128 fixed subchunks so results do not
    depend on the worker count.  A negative seed raises ValueError, since
    random.Random takes the absolute value of subchunk i's seed * 2**32 + i.
    """
    q = gf.q
    exhaustive = samples is None and q <= 4
    if samples is None:
        samples = 100_000
    if samples < 1:
        raise ValueError("samples must be at least 1, got %d" % samples)
    if samples > MAX_SAMPLES:
        raise ResourceBudgetError("%s samples are past the budget of %d"
                                  % (brief.repr(samples), MAX_SAMPLES))
    if seed < 0:
        raise ValueError("seed must be 0 or more, got %d" % seed)
    if exhaustive:
        worker, chunks = _double_line_chunk, plane_enumeration_chunks(gf)
    else:
        base, extra = divmod(samples, 128)
        worker = _double_line_sample_chunk
        chunks = [(seed * (2**32) + i, base + (i < extra)) for i in range(128)]
    tally, bad = _sweep(worker, {"gf": gf}, chunks, workers)
    total, violations = tally["planes"], tally["violations"]
    totals = {"planes" if exhaustive else "planes_sampled": total,
              "meeting_nucleus_plane": tally["meeting"], "violations": violations}
    checks = []
    if exhaustive:
        expected = gaussian_binomial(6, 3, q)
        checks.append(_check(
            "all_planes_enumerated",
            total == expected,
            {"planes": total, "expected": expected},
        ))
    else:
        totals["seed"] = seed
    checks.append(_check(
        "identity_holds",
        not violations,
        {"violations": violations, "witness_keys": bad},
    ))
    return _report(gf, "double-lines", checks, totals=totals,
                   mode="exhaustive" if exhaustive else "sampled")


# -- line-orbit verification --------------------------------------------------


def _lines_through_in(gf: GF, p, amb: Subspace) -> dict[int, Subspace]:
    """The lines through p inside the subspace amb, keyed by packed key, each
    spanned once: with its one point on the hyperplane of amb that is zero
    at p's pivot coordinate, which misses p."""
    pivot = next(i for i, x in enumerate(p) if x)
    lines = (span(gf, [p, s]) for s in amb.points() if not s[pivot])
    return {l.key_int(): l for l in lines}


def _middle_column_fixers(gf: GF):
    """The matrices with middle column e1, one per element of PGL(3,q) with
    a_01 = a_21 = 0: they hold every element fixing R = (0,1,0,1,0,0), as
    diagonal entry i of A R A^T is a_i1^2."""
    mul, els = gf._mul, gf.elements
    return ((a0, 0, a2, a3, 1, a5, a6, 0, a8) for a0, a2, a6, a8 in product(els, repeat=4)
            if mul[a0][a8] != mul[a2][a6] for a3, a5 in product(els, repeat=2))


def _stabilizer_generators(gf: GF):
    """Closed-form generators of the suite's pair and joint stabilizers, w
    primitive.  Fixing R forces a20 = a21 = 0 and a00 = a11, fixing N (kernel
    (1,0,1)) a01 = 0 and a02 = a00 + a22, so the pair's is
    {[[1,0,1+c],[b,1,d],[0,0,c]] : c != 0}: x10(t), t = 1, 2, 4, ..., and
    D(w) = [[1,0,1+w],[0,1,0],[0,0,w]], whose conjugates of x10(t) fill d.
    The joint one, {a01 = a02 = a20 = a21 = 0}: x10(1), x12(1) and the torus
    diag(1,w,1), diag(1,1,w), which conjugates them to every root element."""
    w = gf.primitive_element()
    pair = [(1, 0, 0, 1 << b, 1, 0, 0, 0, 1) for b in range(gf.e)]
    joint = [(1, 0, 0, 1, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1, 1, 0, 0, 1),
             (1, 0, 0, 0, w, 0, 0, 0, 1), (1, 0, 0, 0, 1, 0, 0, 0, w)]
    return pair + [(1, 0, 1 ^ w, 0, 1, 0, 0, 0, w)], joint


def verify_line_orbits(gf: GF) -> dict:
    """Check the supporting line-orbit facts.

    For the rank-2 line meeting the nucleus plane in one point: its
    point-pair stabilizer splits the q+1 lines of the attached conic plane
    through the rank-2 point into exactly three orbits (tangent, secants,
    externals).  At q = 4 the joint stabilizer of a nucleus-plane point and
    a second hyperplane splits the tangency-candidate lines into exactly
    two orbits, and two specific line stabilizers have orders 6 and 2 with
    a 480-line hyperplane count.

    A stabilizer's order is |PGL(3,q)| / |orbit|, an orbit walked one
    subspace at a time under ``generators``, or in H, of order
    q^3 (q-1) (q^2-1), after a kernel move C; for the nuclear point N, C
    takes its kernel to e0.  Both pair counts require the premise that H
    fixes C N = P (N's ``kernel_fiber`` is one point), P nuclear of kernel
    e0: then |G (R, N)| = |G N| |H (C R)| and |G (P, e1)| = |G N| |H e1|.
    Inside the pair and joint stabilizers, ``_stabilizer_generators``
    that reach that order generate them and split lines by ``line_orbits``.
    The special lines miss the nucleus plane: orders |H| / |F|, F their
    ``kernel_fiber``, and la's hyperplane count |F| d, d from the
    ``mat3_rank`` of la's diagonal columns, with no full orbit built; the
    pair's filter runs over ``_middle_column_fixers``.
    """
    q = gf.q
    if q not in (4, 8, 16):
        raise ConfigurationError("line-orbit verification supports q in {4, 8, 16}")
    checks = []
    group = generators(gf)
    kernel_order = q**3 * (q - 1) * (q * q - 1)

    l0 = span(gf, [(0, 1, 0, 1, 0, 0), (0, 0, 0, 1, 1, 0)])
    R, N = (0, 1, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0)
    # l0 = span(R, N), N its nuclear point: (l0, R) and (R, N) have one stabilizer.
    nuclear = span(gf, [N])
    nuclear_orbit = len(subspace_orbit(nuclear, group))
    premise = nuclear_orbit == q * q + q + 1 and len(kernel_fiber(nuclear, anchor(nuclear))) == 1
    pair_orbit = nuclear_orbit * len(kernel_fiber(span(gf, [R]), anchor(nuclear)))
    order = pgl_order(q) // pair_orbit
    want_order = q * q * (q - 1)
    checks.append(_check(
        "pair_stabilizer_order",
        premise and pair_orbit * want_order == pgl_order(q),
        {"order": order, "expected": want_order, "pair_orbit": pair_orbit},
    ))
    fixed_pt = (0, 0, 0, 1, 0, 0)
    conic_plane = span(gf, [_e(0), _e(1), _e(3)])  # the conic plane of the line X2 = 0
    keyed = _lines_through_in(gf, R, conic_plane)
    pair_gens, joint_gens = _stabilizer_generators(gf)
    fix = lambda gens, pts: all(congruence_image(gf, a, p) == p for a in gens for p in pts)
    checks.append(_check(
        "pair_stabilizer_fixes_conic_point",
        fix(pair_gens, (R, N, fixed_pt)) and group_order(gf, pair_gens) == order,
        {"point": list(fixed_pt)},
    ))
    orbits = line_orbits(keyed, pair_gens)
    if q == 4:
        filtered = sum(
            1 for a in _middle_column_fixers(gf)
            if congruence_image(gf, a, R) == R and act_subspace(l0, a) == l0
        )
        checks.append(_check(
            "pair_stabilizer_matches_group_filter",
            filtered == order,
            {"filter_order": filtered},
        ))
    shape = sorted(
        (len(comp), sorted({point_class_counts(keyed[k])[0] for k in comp}))
        for comp in orbits
    )
    checks.append(_check(
        "conic_plane_line_orbits",
        shape == [(1, [1]), (q // 2, [0]), (q // 2, [2])],
        {"orbits": [[n, hits] for n, hits in shape],
         "expected": [[1, [1]], [q // 2, [0]], [q // 2, [2]]]},
    ))

    if q == 4:
        P = (0, 0, 0, 0, 1, 0)
        H = span(gf, [_e(j) for j in range(5)])
        # H = {m22 = 0}, the conic plane and the nuclear point with kernel
        # e2 are fixed by the same matrices, those with A^T e2 a multiple of
        # e2, so the stabilizer walks that point in place of the hyperplane.
        joint_orbit = nuclear_orbit * len(kernel_fiber(span(gf, [_e(1)]), anchor(span(gf, [P]))))
        joint = pgl_order(q) // joint_orbit
        checks.append(_check(
            "joint_stabilizer_order",
            premise and joint == (q - 1) ** 2 * q * q,
            {"order": joint, "expected": (q - 1) ** 2 * q * q},
        ))
        cand = {
            k: l for k, l in _lines_through_in(gf, P, H).items()
            if point_class_counts(l) == (0, 1, 1, q - 1) and any(r[0] for r in l.rows)
        }
        orbits = line_orbits(cand, joint_gens)
        holds = fix(joint_gens, (P, _e(1))) and group_order(gf, joint_gens) == joint
        where = [[i for i, comp in enumerate(orbits) if span(gf, [r, P]).key_int() in comp]
                 for r in ((1, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0))]
        split = where[0] != where[1]
        checks.append(_check(
            "tangency_candidate_orbits",
            holds and len(orbits) == 2 and split,
            {"orbit_sizes": sorted(len(c) for c in orbits),
             "candidates": len(cand)},
        ))

        la = span(gf, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0)])
        b, c = sigma20_parameters(gf)
        lb = span(gf, [(1, 0, b, c, 0, 1), (0, 1, 0, 1, 0, 0)])
        # |G| / |G l| = |H| / |F|, as G is transitive on the anchors
        fibers = [len(kernel_fiber(l, anchor(l))) for l in (la, lb)]
        checks.append(_check(
            "special_line_stabilizers",
            kernel_order == 6 * fibers[0] and kernel_order == 2 * fibers[1],
            {"orders": [kernel_order // f for f in fibers], "expected": [6, 2]},
        ))
        # G is transitive on the q^2+q+1 double-line hyperplanes v . (y00, y11, y22) = 0,
        # so x00 = x22 holds |G la| d / (q^2+q+1) = |F| d lines, d of them through la
        d = (q ** (3 - mat3_rank(gf, [(r[0], r[3], r[5]) for r in la.rows])) - 1) // (q - 1)
        contained = fibers[0] * d
        want = kernel_order // 6
        checks.append(_check(
            "triangle_lines_in_hyperplane",
            contained == want,
            {"count": contained, "expected": want},
        ))

    return _report(gf, "line-orbits", checks, totals={"checks": len(checks)})


def verify_known_net(gf: GF) -> dict:
    """Classify the documented example net and check its invariants."""
    forms = example_net(gf)
    label = classify_net(gf, forms)
    base = net_base_points(gf, forms)
    doubles = net_double_line_count(gf, forms)
    checks = [
        _check("classifies_as_sigma18", label == "Sigma18", {"label": label}),
        _check("empty_base", not base, {"base_points": len(base)}),
        _check("single_double_line", doubles == 1, {"double_lines": doubles}),
    ]
    return _report(gf, "known-net", checks, totals={"forms": [list(f) for f in forms]})
