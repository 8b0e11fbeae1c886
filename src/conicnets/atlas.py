"""Orbit atlas for planes meeting the nucleus plane of the Veronese surface.

Ships the 18 orbit representatives with their field-dependent parameter
searches, the closed-form orbit table (point and hyperplane distributions,
cubic kinds, stabilizer orders) with an orbit-stabilizer count to check it
against, the end-to-end classifier for planes and for nets of conics, the
plane <-> net correspondence, and the verification reports that back the
``conicnets verify`` command line.

Every report is a plain dict::

    {"schema": ..., "q": ..., "orbits": [...], "totals": {...},
     "checks": [{"name": ..., "pass": ..., "details": ...}, ...]}

so it serializes to JSON without further massaging.
"""

from __future__ import annotations

import functools
import os
import random
from collections import Counter
from itertools import product

from .action import (
    act_subspace,
    congruence_image,
    fiber_orbits,
    generators,
    kernel_fiber,
    orbit_keys,
    pgl_order,
    subspace_orbit,
)
from .errors import (
    ClassificationError,
    ConfigurationError,
    OutOfFamilyError,
    VerificationError,
    brief,
)
from .gf import GF, field
from .invariants import (
    PlaneSignature,
    anchor,
    double_line_hyperplane_count,
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
    plane_enumeration_chunks,
    plane_from_pattern,
    rref,
    span,
)

SCHEMA = "conicnets-report/1"

LABELS = (
    "Sigma1", "Sigma3", "Sigma4", "Sigma7", "Sigma8", "Sigma9", "Sigma10",
    "Sigma11", "Sigma15", "SigmaN", "Sigma16", "Sigma17", "Sigma18",
    "Sigma19", "Sigma20", "Sigma21", "Sigma22", "Sigma23",
)

# Orbits whose planes carry no rank-1 point; their nets have an empty base.
EMPTY_BASE_LABELS = (
    "SigmaN", "Sigma16", "Sigma17", "Sigma18", "Sigma19", "Sigma20",
    "Sigma21", "Sigma22", "Sigma23",
)

# Cubic-curve kind pinned per orbit; None marks the identically zero cubic
# (planes inside the rank <= 2 hypersurface).
EXPECTED_CUBIC_KIND: dict[str, str | None] = {
    "Sigma1": None,
    "Sigma3": "LinePlusDoubleLine",
    "Sigma4": "LinePlusDoubleLine",
    "Sigma7": None,
    "Sigma8": "LinePlusDoubleLine",
    "Sigma9": "LinePlusDoubleLine",
    "Sigma10": "LinePlusConic_Tangent",
    "Sigma11": "IrreducibleCubic",
    "Sigma15": "TripleLine",
    "SigmaN": None,
    "Sigma16": "TripleLine",
    "Sigma17": "LinePlusDoubleLine",
    "Sigma18": "NoRationalComponentPoint",
    "Sigma19": "ThreeConcurrentLines",
    "Sigma20": "LinePlusImaginaryPair",
    "Sigma21": "LinePlusDoubleLine",
    "Sigma22": "IrreducibleCubic",
    "Sigma23": "LinePlusConic_Tangent",
}


def expected_point_distribution(label: str, q: int) -> tuple[int, int, int, int]:
    """Point-class counts (rank1, rank2 nuclear, rank2 secant, rank3) of a
    plane in the named orbit, as closed formulas in q."""
    n = q * q + q + 1
    table = {
        "Sigma1": (q + 1, 1, q * q - 1, 0),
        "Sigma3": (2, 1, 2 * q - 2, q * q - q),
        "Sigma4": (2, 1, 2 * q - 2, q * q - q),
        "Sigma7": (1, q + 1, q * q - 1, 0),
        "Sigma8": (1, q + 1, q - 1, q * q - q),
        "Sigma9": (1, 1, 2 * q - 1, q * q - q),
        "Sigma10": (1, 1, 2 * q - 1, q * q - q),
        "Sigma11": (1, 1, q - 1, q * q),
        "Sigma15": (1, 1, q - 1, q * q),
        "SigmaN": (0, n, 0, 0),
        "Sigma16": (0, q + 1, 0, q * q),
        "Sigma17": (0, q + 1, q, q * q - q),
        "Sigma18": (0, 1, 0, q * q + q),
        "Sigma19": (0, 1, 3 * q, q * q - 2 * q),
        "Sigma20": (0, 1, q, q * q),
        "Sigma21": (0, 1, 2 * q, q * q - q),
        "Sigma22": (0, 1, q, q * q),
        "Sigma23": (0, 1, 2 * q, q * q - q),
    }
    return table[label]


def expected_hyperplane_distribution(label: str, q: int) -> tuple[int, int, int, int]:
    """Conic-class counts (DoubleLine, RealPair, ImaginaryPair, Nonsingular)
    of the hyperplanes through a plane in the named orbit, as closed
    formulas in q with h = q/2."""
    h = q // 2
    table = {
        "Sigma1": (1, q * q + q, 0, 0),
        "Sigma3": (1, 2 * q, 0, q * q - q),
        "Sigma4": (1, 2 * q, 0, q * q - q),
        "Sigma7": (q + 1, h * (q + 1), h * (q - 1), 0),
        "Sigma8": (q + 1, q, 0, q * q - q),
        "Sigma9": (1, 3 * h, h, q * q - q),
        "Sigma10": (1, 3 * h, h, q * q - q),
        "Sigma11": (1, q, 0, q * q),
        "Sigma15": (1, q, 0, q * q),
        "SigmaN": (q * q + q + 1, 0, 0, 0),
        "Sigma16": (q + 1, 0, 0, q * q),
        "Sigma17": (q + 1, h, h, q * q - q),
        "Sigma18": (1, 0, 0, q * q + q),
        "Sigma19": (1, 3 * h, 3 * h, q * q - 2 * q),
        "Sigma20": (1, h, h, q * q),
        "Sigma21": (1, q, q, q * q - q),
        "Sigma22": (1, h, h, q * q),
        "Sigma23": (1, q, q, q * q - q),
    }
    return table[label]


@functools.cache
def expected_signature(label: str, q: int) -> PlaneSignature:
    """The signature shared by every plane of the named orbit, from the
    closed-form tables."""
    return PlaneSignature(expected_point_distribution(label, q), EXPECTED_CUBIC_KIND[label],
                          expected_hyperplane_distribution(label, q))


def expected_stabilizer_order(label: str, q: int) -> int:
    """Order of the stabilizer in PGL(3,q) of a plane in the named orbit, as
    closed formulas in q; the orbit has pgl_order(q) / order planes."""
    g = pgl_order(q)
    table = {
        "Sigma1": g // (q * q + q + 1),
        "Sigma3": q * (q - 1) ** 2,
        "Sigma4": 2 * q * (q - 1),
        "Sigma7": g // (q * q + q + 1),
        "Sigma8": q * q * (q - 1) ** 2,
        "Sigma9": q * q * (q - 1),
        "Sigma10": q * (q - 1),
        "Sigma11": q - 1,
        "Sigma15": q**3 * (q - 1),
        "SigmaN": g,
        "Sigma16": q**3 * (q * q - 1),
        "Sigma17": q * q * (q - 1),
        "Sigma18": 3 * q * q,
        "Sigma19": 6 * q * q,
        "Sigma20": 2 * q * q,
        "Sigma21": 2 * q * (q - 1),
        "Sigma22": 1,
        "Sigma23": q,
    }
    return table[label]


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
    return q**3 * (q - 1) * (q * q - 1) // len(kernel_fiber((s,), kernels, 2**18))


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


def _e(i: int) -> tuple[int, ...]:
    row = [0] * 6
    row[i] = 1
    return tuple(row)


def representative_pattern(gf: GF, label: str, overrides: dict | None = None):
    """Basis rows (coefficient 6-vectors) and parameters for the named orbit
    representative.

    Parameterized families (Sigma18 takes c, Sigma20 b and c, Sigma21 and
    Sigma23 a) search the field for the first valid value; overrides
    substitute explicit field elements instead, and any other name raises.
    An overridden pattern is returned unvalidated, so it need not lie in the
    named orbit.
    """

    def pick(key: str, searched) -> int:
        if overrides and key in overrides:
            v = overrides[key]
            if type(v) is not int or not 0 <= v < gf.q:
                raise ConfigurationError(
                    "parameter %s=%s is not a GF(%d) element" % (key, brief.repr(v), gf.q)
                )
            return v
        return searched()

    if label not in LABELS:
        raise ConfigurationError("unknown orbit label %s" % brief.repr(label))
    takes = {"Sigma18": ("c",), "Sigma20": ("b", "c"), "Sigma21": ("a",), "Sigma23": ("a",)}
    unknown = ", ".join(sorted(map(str, set(overrides or ()) - set(takes.get(label, ())))))
    if unknown:
        raise ConfigurationError("orbit %s takes no parameter %s" % (label, brief.repr(unknown)))
    fixed = {
        "Sigma1": (_e(0), _e(1), _e(3)),
        "Sigma3": (_e(0), _e(3), _e(2)),
        "Sigma4": (_e(0), _e(3), (0, 0, 1, 0, 1, 0)),
        "Sigma7": (_e(0), _e(1), _e(2)),
        "Sigma8": (_e(0), _e(1), _e(4)),
        "Sigma9": (_e(0), _e(1), (0, 0, 0, 1, 1, 0)),
        "Sigma10": (_e(0), _e(1), (0, 0, 0, 1, 0, 1)),
        "Sigma11": ((1, 0, 0, 0, 0, 1), _e(1), (0, 0, 0, 1, 1, 1)),
        "Sigma15": (_e(0), _e(1), (0, 0, 1, 1, 0, 0)),
        "SigmaN": (_e(1), _e(2), _e(4)),
        "Sigma16": (_e(1), _e(4), (0, 0, 1, 1, 0, 0)),
        "Sigma17": (_e(1), _e(2), (0, 0, 0, 1, 0, 1)),
        "Sigma19": ((1, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0), (0, 0, 0, 1, 1, 0)),
        "Sigma22": ((1, 1, 0, 0, 0, 0), _e(4), (0, 1, 1, 1, 0, 0)),
    }
    if label in fixed:
        return fixed[label], {}
    if label == "Sigma18":
        c = pick("c", lambda: sigma18_parameter(gf))
        return ((1, 0, 0, 0, 1, 0), _e(1), (0, 0, 1, c, 1, 0)), {"c": c}
    if label == "Sigma20":
        searched = sigma20_parameters(gf) if not overrides else (None, None)
        b = pick("b", lambda: searched[0])
        c = pick("c", lambda: searched[1])
        if b is None or c is None:
            raise ConfigurationError("Sigma20 needs both b and c when overriding")
        return (
            ((1, 0, b, c, 0, 1), (0, 1, 0, 1, 0, 0), (0, 0, 0, 1, 1, 0)),
            {"b": b, "c": c},
        )
    a = pick("a", lambda: sigma21_parameter(gf))  # Sigma21 or Sigma23
    first = (1, 1, 0, 0, 0, 0) if label == "Sigma21" else (1, 0, 1, 0, 0, 0)
    return (first, _e(4), (0, a, 0, 1, 0, 0)), {"a": a}


@functools.cache
def _rep_data(gf: GF):
    """(representatives, their parameters, their computed signatures)."""
    reps: dict[str, Subspace] = {}
    params: dict[str, dict[str, int]] = {}
    sigs: dict[str, PlaneSignature] = {}
    for label in LABELS:
        rows, pars = representative_pattern(gf, label)
        s = plane_from_pattern(gf, rows)
        sig, want = plane_signature(s), expected_signature(label, gf.q)
        if sig != want:
            raise VerificationError(
                "representative %s has signature %r, expected %r" % (label, sig, want)
            )
        reps[label], params[label], sigs[label] = s, pars, sig
    return reps, params, sigs


def representatives(gf: GF) -> dict[str, Subspace]:
    """All 18 validated orbit representatives, cached per field."""
    return _rep_data(gf)[0]


def representative_parameters(gf: GF) -> dict[str, dict[str, int]]:
    """The searched parameter values used by each representative."""
    return _rep_data(gf)[1]


def representative(gf: GF, label: str) -> Subspace:
    """Validated plane representative of one orbit."""
    if label not in LABELS:
        raise ConfigurationError("unknown orbit label %s" % brief.repr(label))
    return representatives(gf)[label]


# -- signature lookup and classification ------------------------------------


@functools.cache
def signature_table(gf: GF) -> dict[PlaneSignature, tuple[str, ...]]:
    """Signature -> orbit labels, from the closed-form tables.

    Every signature names one orbit except the one Sigma3 and Sigma4 share,
    which classify_plane resolves separately.
    """
    build: dict[PlaneSignature, list[str]] = {}
    for label in LABELS:
        build.setdefault(expected_signature(label, gf.q), []).append(label)
    return {sig: tuple(ls) for sig, ls in build.items()}


@functools.cache
def key_table(gf: GF) -> dict[tuple, tuple[str, ...]]:
    """Plane key (PlaneSignature.key) -> orbit labels, from signature_table."""
    table: dict[tuple, tuple[str, ...]] = {}
    for sig, labels in signature_table(gf).items():
        table[sig.key] = table.get(sig.key, ()) + labels
    return table


@functools.cache
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
    is looked up in key_table; it pins down every label except Sigma3 and
    Sigma4.  The hyperplane classes separate no further orbit, so they are
    not computed here.  A plane of either orbit holds one nuclear point and
    two rank-1 points v(p).  The nuclear point lies on the conic
    plane {M : M u = 0} of one line of PG(2,q), its kernel u = (y4, y2, y1),
    and v(p) lies there iff p.u = 0: for one p for Sigma3, for neither for
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
    labels = key_table(gf).get(key, ())
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
    """The plane of PG(5, q) whose dual hyperplanes carry the given net."""
    return plane_and_double_lines_of_net(gf, forms)[0]


def plane_and_double_lines_of_net(gf: GF, forms) -> tuple[Subspace, int]:
    """(plane_of_net, net_double_line_count) from one reduction of the
    forms; ValueError unless they are three linearly independent
    coefficient 6-vectors."""
    vecs = [tuple(f) for f in forms]
    if len(vecs) != 3 or any(len(v) != 6 for v in vecs):
        raise ValueError("a net needs exactly three coefficient 6-vectors")
    red = rref(gf, vecs)
    if len(red) != 3:
        raise ValueError("net basis forms are linearly dependent")
    k = 3 - len(rref(gf, [(f[1], f[2], f[4]) for f in red]))
    plane = Subspace.from_rref(gf, 5, rref(gf, annihilator(gf, red, 6)))
    return plane, (gf.q**k - 1) // (gf.q - 1)


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
    part: (q^k - 1) / (q - 1) of them, k = dim of the net - rank of its
    cross columns.  Forms that are not a net raise ValueError, as in
    plane_of_net.
    """
    return plane_and_double_lines_of_net(gf, forms)[1]


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


def planes_meeting_nucleus_count(q: int) -> int:
    """Number of planes of PG(5, q) meeting a fixed plane: all planes minus
    the q^9 complements."""
    return gaussian_binomial(6, 3, q) - q**9


def _orbit_rows(gf: GF, orders: dict[str, int] | None) -> list[dict]:
    rows = []
    params = representative_parameters(gf)
    for label in LABELS:
        s = representatives(gf)[label]
        sig = expected_signature(label, gf.q)
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
    """Check every representative's computed signature against the
    closed-form one: point and hyperplane distributions, cubic kind and
    point count, as computed once by ``_rep_data``.  Works for any q
    without enumeration."""
    checks = []
    for label, sig in _rep_data(gf)[2].items():
        checks.append(_check(
            "distribution[%s]" % label,
            sig == expected_signature(label, gf.q),
            {"od0": list(sig.point_counts),
             "expected": list(expected_point_distribution(label, gf.q)),
             "cubic_type": sig.cubic_kind},
        ))
    empty = [label for label in LABELS
             if expected_point_distribution(label, gf.q)[0] == 0]
    checks.append(_check(
        "empty_base_orbits",
        tuple(empty) == EMPTY_BASE_LABELS and len(empty) == 9,
        {"labels": empty},
    ))
    return {
        "schema": SCHEMA,
        "q": gf.q,
        "suite": "distributions",
        "orbits": _orbit_rows(gf, None),
        "totals": {"orbit_count": len(LABELS)},
        "checks": checks,
    }


def _partition_chunk(state, chunk):
    """One enumeration chunk's sweep tally."""
    gf = field(state["q"], state["modulus"])
    index = state["index"]
    tally: Counter = Counter()
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
            if len(stray) < 16:
                stray.append(key)
            continue
        tally[label] += 1
        agree += classify_plane_at(s, meet, points) == label
    return tally, stray, meeting, agree


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


def _run_chunks(worker, state: dict, chunks, workers: int):
    """worker(state, chunk) over every chunk, in chunk order.  Pool
    processes get the state once, through the pool initializer, so any
    start method works; more processes than chunks or CPUs would idle."""
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with get_context().Pool(workers, initializer=_bind_task,
                                initargs=(worker, state)) as pool:
            return pool.map(_run_task, chunks, chunksize=1)
    return [worker(state, chunk) for chunk in chunks]


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
        state = {"q": q, "modulus": gf.modulus, "index": index}
        tally: Counter = Counter()
        stray: list[int] = []
        meeting = agree = 0
        for t, st, m, ag in _run_chunks(_partition_chunk, state,
                                        plane_enumeration_chunks(gf), workers):
            tally.update(t)
            stray.extend(st)
            meeting += m
            agree += ag
        checked = sum(tally.values())
        checks.append(_check(
            "every_meeting_plane_classified",
            not stray and meeting == expected_total,
            {"meeting": meeting, "expected": expected_total,
             "unclassified_keys": sorted(stray)[:16]},
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
    return {
        "schema": SCHEMA,
        "q": q,
        "suite": "partition",
        "mode": "exhaustive" if exhaustive else "representative",
        "orbits": _orbit_rows(gf, orders),
        "totals": totals,
        "checks": checks,
    }


def _double_line_tally(planes):
    total = meeting = violations = 0
    bad: list[int] = []
    for s in planes:
        total += 1
        nuclear = nuclear_point_count(s)
        meeting += nuclear > 0
        if nuclear != double_line_hyperplane_count(s):
            violations += 1
            if len(bad) < 16:
                bad.append(s.key_int())
    return total, meeting, violations, bad


def _double_line_chunk(state, chunk):
    return _double_line_tally(enumerate_planes_chunk(field(state["q"], state["modulus"]), chunk))


def _sample_plane(gf: GF, rng: random.Random) -> Subspace:
    while True:
        rows = [[rng.randrange(gf.q) for _ in range(6)] for _ in range(3)]
        reduced = rref(gf, rows)
        if len(reduced) == 3:
            return Subspace.from_rref(gf, 5, reduced)


def _double_line_sample_chunk(state, args):
    seed, count = args
    gf = field(state["q"], state["modulus"])
    rng = random.Random(seed)
    return _double_line_tally(_sample_plane(gf, rng) for _ in range(count))


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
    every plane and larger q samples 100,000.

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
    if seed < 0:
        raise ValueError("seed must be 0 or more, got %d" % seed)
    if exhaustive:
        worker, chunks = _double_line_chunk, plane_enumeration_chunks(gf)
    else:
        base, extra = divmod(samples, 128)
        worker = _double_line_sample_chunk
        chunks = [(seed * (2**32) + i, base + (i < extra)) for i in range(128)]
    total = meeting = violations = 0
    bad: list[int] = []
    for t, m, v, b in _run_chunks(worker, {"q": q, "modulus": gf.modulus}, chunks, workers):
        total += t
        meeting += m
        violations += v
        bad.extend(b)
    checks = []
    if exhaustive:
        expected = gaussian_binomial(6, 3, q)
        checks.append(_check(
            "all_planes_enumerated",
            total == expected,
            {"planes": total, "expected": expected},
        ))
        totals = {"planes": total, "meeting_nucleus_plane": meeting, "violations": violations}
    else:
        totals = {"planes_sampled": total, "meeting_nucleus_plane": meeting,
                  "violations": violations, "seed": seed}
    checks.append(_check(
        "identity_holds",
        not violations,
        {"violations": violations, "witness_keys": sorted(bad)[:16]},
    ))
    return {
        "schema": SCHEMA,
        "q": q,
        "suite": "double-lines",
        "mode": "exhaustive" if exhaustive else "sampled",
        "totals": totals,
        "checks": checks,
    }


# -- line-orbit verification --------------------------------------------------


def _lines_through_in(gf: GF, p, amb: Subspace) -> dict[int, Subspace]:
    """Distinct lines through p inside the subspace amb, keyed by packed key."""
    out: dict[int, Subspace] = {}
    for s in amb.points():
        if s == p:
            continue
        l = span(gf, [p, s])
        out[l.key_int()] = l
    return out


def _middle_column_fixers(gf: GF):
    """The matrices with middle column e1, one per element of PGL(3,q) with
    a_01 = a_21 = 0: they hold every element fixing R = (0,1,0,1,0,0), as
    diagonal entry i of A R A^T is a_i1^2."""
    mul, els = gf._mul, gf.elements
    return ((a0, 0, a2, a3, 1, a5, a6, 0, a8) for a0, a2, a6, a8 in product(els, repeat=4)
            if mul[a0][a8] != mul[a2][a6] for a3, a5 in product(els, repeat=2))


def verify_line_orbits(gf: GF) -> dict:
    """Brute-force the supporting line-orbit facts.

    For the rank-2 line meeting the nucleus plane in one point: its
    point-pair stabilizer splits the q+1 lines of the attached conic plane
    through the rank-2 point into exactly three orbits (tangent, secants,
    externals).  At q = 4 the joint stabilizer of a nucleus-plane point and
    a second hyperplane splits the tangency-candidate lines into exactly
    two orbits, and two specific line stabilizers have orders 6 and 2 with
    a 480-line hyperplane count.

    A stabilizer's order is |PGL(3,q)| / |orbit|, the orbit walked under
    ``generators``, or in H after a kernel move; its orbits on lines are
    ``fiber_orbits`` in H, of order q^3 (q-1) (q^2-1), after the kernel
    move of an ``anchor`` it fixes, and H is checked to hold it by the same
    count: v(e1)'s for the pair, and P's for the joint one.
    The lines missing the nucleus plane have order |H| / |``kernel_fiber``|;
    the pair's filter runs over the 2,880 ``_middle_column_fixers``.
    """
    q = gf.q
    if q not in (4, 8):
        raise ConfigurationError("line-orbit verification supports q in {4, 8}")
    checks = []
    group = generators(gf)
    kernel_order = q**3 * (q - 1) * (q * q - 1)

    l0 = span(gf, [(0, 1, 0, 1, 0, 0), (0, 0, 0, 1, 1, 0)])
    R = (0, 1, 0, 1, 0, 0)
    # l0 is spanned by R and its nuclear point N, so the (line, point) pair
    # and the two points have one stabilizer; points move faster.
    # |G pair| = |G N| |H (C pair)|, C moving N's kernel to e0.
    pair = (span(gf, [R]), span(gf, [(0, 1, 0, 0, 1, 0)]))
    nuclear_orbit = len(subspace_orbit(pair[1:], group))
    pair_orbit = nuclear_orbit * len(kernel_fiber(pair, anchor(pair[1])))
    order = pgl_order(q) // pair_orbit
    want_order = q * q * (q - 1)
    checks.append(_check(
        "pair_stabilizer_order",
        pair_orbit * want_order == pgl_order(q) and nuclear_orbit == q * q + q + 1,
        {"order": order, "expected": want_order, "pair_orbit": pair_orbit},
    ))
    fixed_pt = (0, 0, 0, 1, 0, 0)
    conic_plane = span(gf, [_e(0), _e(1), _e(3)])  # the conic plane of the line X2 = 0
    keyed = _lines_through_in(gf, R, conic_plane)
    # the stabilizer fixes v(e1), so H holds it after C swaps e0 and e1
    # exactly when the pair's orbit under H has |H| / order states
    orbits, walked = fiber_orbits(pair, keyed, anchor(span(gf, [fixed_pt])))
    checks.append(_check(
        "pair_stabilizer_fixes_conic_point",
        kernel_order == order * walked,
        {"point": list(fixed_pt)},
    ))
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
        points = (span(gf, [P]), span(gf, [(0, 1, 0, 0, 0, 0)]))
        joint = pgl_order(q) // len(subspace_orbit(points, group))
        checks.append(_check(
            "joint_stabilizer_order",
            joint == (q - 1) ** 2 * q * q,
            {"order": joint, "expected": (q - 1) ** 2 * q * q},
        ))
        cand = {
            k: l for k, l in _lines_through_in(gf, P, H).items()
            if point_class_counts(l) == (0, 1, 1, q - 1) and any(r[0] for r in l.rows)
        }
        # P's kernel is e0, so C is the identity and H is P's stabilizer
        orbits, walked = fiber_orbits(points, cand, anchor(points[0]))
        holds = kernel_order == joint * walked
        rep_a = span(gf, [(1, 1, 0, 0, 0, 0), P]).key_int()
        rep_b = span(gf, [(1, 0, 1, 0, 0, 0), P]).key_int()
        split = [i for i, comp in enumerate(orbits) if rep_a in comp] != [
            i for i, comp in enumerate(orbits) if rep_b in comp
        ]
        checks.append(_check(
            "tangency_candidate_orbits",
            holds and len(orbits) == 2 and split,
            {"orbit_sizes": sorted(len(c) for c in orbits),
             "candidates": len(cand)},
        ))

        la = span(gf, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0)])
        oa = orbit_keys(la)
        b, c = sigma20_parameters(gf)
        lb = span(gf, [(1, 0, b, c, 0, 1), (0, 1, 0, 1, 0, 0)])
        # |G| / |G l| = |H| / |F|; the sweep checked |oa| = (q^2+q+1) |F|
        fibers = [len(oa) // (q * q + q + 1), len(kernel_fiber((lb,), anchor(lb)))]
        checks.append(_check(
            "special_line_stabilizers",
            kernel_order == 6 * fibers[0] and kernel_order == 2 * fibers[1],
            {"orders": [kernel_order // f for f in fibers], "expected": [6, 2]},
        ))
        # x00 = x22 on both rows: first and last e-bit fields of each
        top, w, m = 5 * gf.e, 6 * gf.e, q - 1
        contained = sum(
            1 for k in oa
            if k >> (top + w) == (k >> w) & m and (k >> top) & m == k & m
        )
        want = kernel_order // 6
        checks.append(_check(
            "triangle_lines_in_hyperplane",
            contained == want,
            {"count": contained, "expected": want},
        ))

    return {
        "schema": SCHEMA,
        "q": q,
        "suite": "line-orbits",
        "totals": {"checks": len(checks)},
        "checks": checks,
    }


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
    return {
        "schema": SCHEMA,
        "q": gf.q,
        "suite": "known-net",
        "totals": {"forms": [list(f) for f in forms]},
        "checks": checks,
    }
