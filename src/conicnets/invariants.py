"""Projective invariants of planes of PG(5,q) under the lifted group.

For a plane with basis rows B0, B1, B2 the generic point x*B0 + y*B1 + z*B2
is a symmetric matrix whose determinant is a cubic form in (x, y, z); in
even characteristic

    det [[a, b, c], [b, d, e], [c, e, f]] = a*d*f + a*e^2 + b^2*f + c^2*d.

The rank <= 2 points of the plane are the zeros of that cubic (which can
vanish identically when the plane lies in the secant variety).  The
invariants collected here:

  * point_class_counts: how many points of each rank class the subspace
    contains (rank1, rank2_nuclear, rank2_secant, rank3);
  * hyperplane_class_counts: the conic classes of the q^2+q+1 hyperplanes
    through a plane, a scan of what hyperplane_distribution computes;
  * nuclear_point_count, double_line_hyperplane_count: the two sides of
    the double-line identity, each a scan of the kernel of a 3x3 block over
    the q^2+q+1 points of PG(2,q): the basis's diagonal columns 0, 3, 5
    for the nuclear points, the annihilator's cross columns 1, 2, 4 for the
    double-line hyperplanes;
  * nucleus_meet_dim, nucleus_cut: the meet with the nucleus plane;
  * anchor: the kernel vectors of a point or line of PG(2,q) that moves
    with a point, line or plane, from the elimination nucleus_cut makes;
  * veronese_points: the points of PG(2,q) whose image lies in a plane;
  * the determinantal cubic, its rational points, and its factorization
    type over GF(q), read off the pencil of lines through one rational
    zero (cubic_pencil);
  * line_class_profile: the multiset of point-class counts of the lines
    inside a plane;
  * plane_key: the point-class counts with the cubic's factorization type,
    which are the whole plane_signature, from the pencil at the plane's
    nuclear point and the closed forms above, with no scan.

All but anchor, which moves with its subspace, are constant on orbits of
the lifted projectivity group.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import isqrt
from typing import NamedTuple

from .errors import ClassificationError
from .gf import GF
from .projgeom import Subspace, annihilator, mat3_det, nullspace, pg_points, rref
from .veronese import CONIC_CLASSES, POINT_CLASSES, classify_conic, point_class, veronese

CUBIC_MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)

CUBIC_KINDS = (
    "TripleLine",
    "LinePlusDoubleLine",
    "ThreeConcurrentLines",
    "ThreeNonConcurrentLines",
    "LinePlusImaginaryPair",
    "LinePlusConic_Tangent",
    "LinePlusConic_Transversal",
    "IrreducibleCubic",
    "NoRationalComponentPoint",
)


def _require_plane(s: Subspace) -> None:
    if s.n != 5 or len(s.rows) != 3:
        raise ValueError("expected a plane of PG(5,q)")


def point_class_counts(s: Subspace) -> tuple[int, int, int, int]:
    """(rank1, rank2_nuclear, rank2_secant, rank3) counts over the points."""
    counts = Counter(point_class(s.gf, p) for p in s.points())
    return tuple(counts[c] for c in POINT_CLASSES)


def forms_through(s: Subspace) -> list[tuple[int, ...]]:
    """Normalized coefficient vectors of every hyperplane containing s: the
    points of its annihilator."""
    return Subspace.from_rref(s.gf, 5, rref(s.gf, annihilator(s.gf, s.rows, 6))).points()


def hyperplane_class_counts(s: Subspace) -> tuple[int, int, int, int]:
    """(DoubleLine, RealPair, ImaginaryPair, Nonsingular) counts over the
    hyperplanes through a plane, read off their conic forms."""
    _require_plane(s)
    counts = Counter(classify_conic(s.gf, form) for form in forms_through(s))
    return tuple(counts[c] for c in CONIC_CLASSES)


def hyperplane_distribution(point_counts, q: int) -> tuple[int, int, int, int]:
    """(DoubleLine, RealPair, ImaginaryPair, Nonsingular) counts of the n =
    q^2+q+1 conics Q through a plane W with point-class counts (r, u, s, t):
    (u, ((q+1) r + s) / 2, (s - (q-1) r) / 2, t).  Proof: the double lines
    are (W + N)^perp, N the nucleus plane, so u; x lies on the conics
    (W + <v(x)>)^perp, so sum |Z(Q)| = n (q+1) + r q^2, as |Z(Q)| is q+1,
    2q+1, 1, q+1 by class (Hirschfeld); Q is singular at x iff it vanishes
    on the tangent plane <v(x), x w^T + w x^T>, and these planes hold each
    rank-1 and secant point once, each nuclear point q+1 times and no rank-3
    point, so (q+1) DoubleLine + RealPair + ImaginaryPair = r + s + (q+1) u.
    This is the MacWilliams transform of the point distribution (Delsarte);
    the scan hyperplane_class_counts checks it."""
    rank1, nuclear, secant, rank3 = point_counts
    return nuclear, ((q + 1) * rank1 + secant) // 2, (secant - (q - 1) * rank1) // 2, rank3


def _kernel_count(gf: GF, u, v, w) -> int:
    """How many points (x, y, z) of PG(2,q) have x*u + y*v + z*w = 0, for
    3-vectors u, v, w: a walk over (1, y, z), (0, 1, z) and (0, 0, 1) that
    matches x*u + y*v against the multiples z*w (characteristic 2)."""
    mul = gf._mul
    zw = list(zip(mul[w[0]], mul[w[1]], mul[w[2]]))  # z*w, z in GF(q)
    u0, u1, u2 = u
    v0, v1, v2 = mul[v[0]], mul[v[1]], mul[v[2]]
    count = zw.count(tuple(v)) + (not any(w))
    for y in gf.elements:
        count += zw.count((u0 ^ v0[y], u1 ^ v1[y], u2 ^ v2[y]))
    return count


def nuclear_point_count(s: Subspace) -> int:
    """How many points of a plane are rank2_nuclear: a kernel scan of the
    diagonal block, since a point x*B0 + y*B1 + z*B2 is nuclear exactly when
    its diagonal coordinates 0, 3, 5 vanish (a nonzero alternating matrix
    has rank 2)."""
    _require_plane(s)
    return _kernel_count(s.gf, *[(r[0], r[3], r[5]) for r in s.rows])


def double_line_hyperplane_count(s: Subspace) -> int:
    """How many hyperplanes through the plane cut the Veronese surface in a
    double line: the forms x*N0 + y*N1 + z*N2 over the unreduced
    ``annihilator`` basis whose cross columns 1, 2, 4 vanish, counted by a
    kernel scan of those columns; the count does not depend on the basis.
    Deliberately not derived from the nucleus meet dimension."""
    _require_plane(s)
    return _kernel_count(s.gf, *[(r[1], r[2], r[4]) for r in annihilator(s.gf, s.rows, 6)])


def nucleus_meet_dim(s: Subspace) -> int:
    """Projective dimension of the meet with the nucleus plane (-1: empty).

    A point lies on the nucleus plane iff its diagonal coordinates 0, 3, 5
    vanish, so the meet has vector dimension dim(s) - rank of those three
    columns of the basis.
    """
    cols = [(r[0], r[3], r[5]) for r in s.rows]
    return len(s.rows) - len(rref(s.gf, cols)) - 1


def _diagonal_cut(s: Subspace):
    """(meet rows, root span) of a subspace, from one elimination of its
    basis rows prefixed by their diagonal coordinates 0, 3, 5: rows with a
    zero prefix are an RREF basis of its meet with the nucleus plane, and
    the square roots (a field automorphism) of the other prefixes, still in
    RREF, span the points p of PG(2,q) whose v(p) can lie in it."""
    root = s.gf._sqrt
    red = rref(s.gf, [(r[0], r[3], r[5]) + r for r in s.rows])
    return ([r[3:] for r in red if not (r[0] | r[1] | r[2])],
            [(root[r[0]], root[r[1]], root[r[2]]) for r in red if r[0] | r[1] | r[2]])


def nucleus_cut(s: Subspace):
    """(meet, veronese_points) of a plane, its meet with the nucleus plane
    in RREF, or (None, None) when the meet is empty: a point lies on the
    nucleus plane iff its diagonal coordinates 0, 3, 5 vanish, so that is
    when the diagonal block has a nonzero mat3_det, and no elimination is
    made.  Otherwise ``_diagonal_cut`` gives the meet's basis and the span
    of the points (veronese_points)."""
    _require_plane(s)
    gf, (a, b, c) = s.gf, s.rows
    if mat3_det(gf, (a[0], a[3], a[5], b[0], b[3], b[5], c[0], c[3], c[5])):
        return None, None
    meet, span = _diagonal_cut(s)
    return Subspace.from_rref(gf, s.n, tuple(meet)), _points_in_span(s, span)


def anchor(s: Subspace) -> list[tuple[int, ...]]:
    """Kernels of s (1 to 3 rows): vectors u moving by A^-T, like the kernel
    (y4, y2, y1) of a nuclear point, one for a point and two for a line of
    PG(2,q).  They are the kernels of s's meet with the nucleus plane when
    it is nonempty, else the dual of the root span of ``_diagonal_cut``,
    which moves by A: the diagonal of A M A^T is sum_s m_ss a_is^2.  A
    plane missing the nucleus plane has none, and the nucleus plane three."""
    meet, span = _diagonal_cut(s)
    return [(r[4], r[2], r[1]) for r in meet] or list(annihilator(s.gf, span, 3))


def veronese_points(s: Subspace) -> list[tuple[int, ...]]:
    """The points p of PG(2,q) with v(p) in the plane, in pg_points order.

    Squaring is additive in characteristic 2, so v(p) = sum l_i B_i puts p
    in the span of the columns (sqrt B_i0, sqrt B_i3, sqrt B_i5): the net's
    double line if the plane meets the nucleus plane in a point, a point if
    in a line, no point if it is the nucleus plane (nucleus_cut).  Only a
    plane missing the nucleus plane has all of PG(2,q) to test."""
    points = nucleus_cut(s)[1]
    return _points_in_span(s, None) if points is None else points


def _points_in_span(s: Subspace, span) -> list[tuple[int, ...]]:
    """The points p of the RREF ``span`` (None: all of PG(2,q)) with v(p)
    in the plane: those whose v(p) has no residual off the basis pivots
    after subtracting the basis rows weighted by its pivot coordinates.  On
    the line a + t*b of a two-row span each residual coordinate is a
    quadratic in t, so ``_roots`` of the first one that is not constant
    gives at most two t, which the other two check."""
    gf = s.gf
    mul, sq = gf._mul, gf._sq
    r0, r1, r2 = s.rows
    i0, i1, i2 = pivots = r0.index(1), r1.index(1), r2.index(1)
    free = [(j, r0[j], r1[j], r2[j]) for j in range(6) if j not in pivots]

    def residual(y):
        m0, m1, m2 = mul[y[i0]], mul[y[i1]], mul[y[i2]]
        return [y[j] ^ m0[a] ^ m1[b] ^ m2[c] for j, a, b, c in free]

    if span is None or len(span) < 2:
        return [p for p in (pg_points(gf, 2) if span is None else span)
                if not any(residual(veronese(gf, p)))]
    # v(a + t*b) = v(a) + t^2 v(b) + t w, w the cross terms; residual is linear
    (a0, a1, a2), (b0, b1, b2) = a, b = span
    ma0, ma1, ma2 = mul[a0], mul[a1], mul[a2]
    rb = residual((sq[b0], mul[b0][b1], mul[b0][b2], sq[b1], mul[b1][b2], sq[b2]))
    eqs = list(zip(residual((sq[a0], ma0[a1], ma0[a2], sq[a1], ma1[a2], sq[a2])), rb,
                   residual((0, ma0[b1] ^ ma1[b0], ma0[b2] ^ ma2[b0], 0, ma1[b2] ^ ma2[b1], 0))))
    # x + t^2 y + t z = 0 for each (x, y, z) of eqs
    x, y, z = next((e for e in eqs if e[1] or e[2]), (0, 0, 0))
    ts = sorted(_roots(gf, y, z, x)) if y else [mul[x][gf._inv[z]]] if z else gf.elements
    out = [(a0 ^ mul[t][b0], a1 ^ mul[t][b1], a2 ^ mul[t][b2]) for t in ts
           if not any(x ^ mul[sq[t]][y] ^ mul[t][z] for x, y, z in eqs)]
    if not any(rb):
        out.append(b)
    return out


# -- the determinantal cubic ----------------------------------------------


def cubic_form(s: Subspace) -> tuple[int, ...]:
    """Coefficients of det(x*B0 + y*B1 + z*B2) in CUBIC_MONOMIALS order.

    Each matrix entry is the linear form in (x, y, z) given by its column of
    the basis.  a*d*f is the quadratic form a*d times f; squaring is
    additive in characteristic 2, so a*e^2 + b^2*f + c^2*d contributes
    a_i e_j^2 + b_j^2 f_i + c_j^2 d_i to x_i x_j^2.  The zero tuple is a
    legal value: planes inside the secant variety have identically
    vanishing determinant.
    """
    _require_plane(s)
    return _det_cubic(s.gf, s.rows)


def _det_cubic(gf: GF, rows) -> tuple[int, ...]:
    """cubic_form of any three basis rows, reduced or not, in straight-line
    code; p_ij is the x_i x_j coefficient of a*d."""
    mul, sq = gf._mul, gf._sq
    (a0, b0, c0, d0, e0, f0), (a1, b1, c1, d1, e1, f1), (a2, b2, c2, d2, e2, f2) = rows
    ma0, ma1, ma2, md0, md1, md2 = mul[a0], mul[a1], mul[a2], mul[d0], mul[d1], mul[d2]
    mf0, mf1, mf2 = mul[f0], mul[f1], mul[f2]
    p00, p11, p22 = ma0[d0], ma1[d1], ma2[d2]
    p01, p02, p12 = ma0[d1] ^ ma1[d0], ma0[d2] ^ ma2[d0], ma1[d2] ^ ma2[d1]
    b0, b1, b2, c0, c1, c2 = sq[b0], sq[b1], sq[b2], sq[c0], sq[c1], sq[c2]
    e0, e1, e2 = sq[e0], sq[e1], sq[e2]
    return (
        mf0[p00] ^ ma0[e0] ^ mf0[b0] ^ md0[c0],
        mf1[p00] ^ mf0[p01] ^ ma1[e0] ^ mf1[b0] ^ md1[c0],
        mf2[p00] ^ mf0[p02] ^ ma2[e0] ^ mf2[b0] ^ md2[c0],
        mf0[p11] ^ mf1[p01] ^ ma0[e1] ^ mf0[b1] ^ md0[c1],
        mf2[p01] ^ mf1[p02] ^ mf0[p12],
        mf0[p22] ^ mf2[p02] ^ ma0[e2] ^ mf0[b2] ^ md0[c2],
        mf1[p11] ^ ma1[e1] ^ mf1[b1] ^ md1[c1],
        mf2[p11] ^ mf1[p12] ^ ma2[e1] ^ mf2[b1] ^ md2[c1],
        mf1[p22] ^ mf2[p12] ^ ma1[e2] ^ mf1[b2] ^ md1[c2],
        mf2[p22] ^ ma2[e2] ^ mf2[b2] ^ md2[c2],
    )


def cubic_eval(gf: GF, cubic, p) -> int:
    mul = gf._mul
    x, y, z = p
    acc = 0
    for coeff, (i, j, k) in zip(cubic, CUBIC_MONOMIALS):
        if coeff:
            v = coeff
            for _ in range(i):
                v = mul[v][x]
            for _ in range(j):
                v = mul[v][y]
            for _ in range(k):
                v = mul[v][z]
            acc ^= v
    return acc


def cubic_points(gf: GF, cubic) -> list[tuple[int, ...]]:
    """Rational projective zeros of a nonzero cubic form."""
    if not any(cubic):
        raise ValueError("the zero cubic vanishes everywhere")
    return [p for p in pg_points(gf, 2) if cubic_eval(gf, cubic, p) == 0]


def _first_zero(gf: GF, cubic) -> tuple[int, ...]:
    """One rational zero of a nonzero cubic, found by a scan of PG(2,q)."""
    p = next((p for p in pg_points(gf, 2) if not cubic_eval(gf, cubic, p)), None)
    if p is None:
        raise ClassificationError("cubic with no factors and no rational points")
    return p


def _roots(gf: GF, a: int, b: int, c: int) -> list[int]:
    """The roots in GF(q) of a*x^2 + b*x + c with a != 0.  With b != 0,
    x = (b/a) w turns it into w^2 + w = a*c/b^2, an Artin-Schreier
    equation with two roots w, w + 1 or none."""
    mul, inv = gf._mul, gf._inv
    if not b:
        return [gf._sqrt[mul[c][inv[a]]]]
    w = gf._as_root[mul[mul[a][c]][inv[gf._sq[b]]]]
    if w is None:
        return []
    x = mul[b][inv[a]]
    return [mul[w][x], mul[w ^ 1][x]]


# CUBIC_MONOMIALS index of x_i*x_j*x_k for every ordered triple (i, j, k)
_CUBE = {
    ijk: CUBIC_MONOMIALS.index(tuple(ijk.count(v) for v in range(3)))
    for ijk in product(range(3), repeat=3)
}


# x_i * x_j * x_k of every CUBIC_MONOMIALS entry, as its index triple (i, j, k)
_TRIPLES = tuple(tuple(v for v in range(3) for _ in range(e[v])) for e in CUBIC_MONOMIALS)


def _shear(gf: GF, cubic, p) -> tuple[int, ...]:
    """The cubic's coefficients in the basis (p, e_j, e_k), e_j and e_k the
    unit vectors off p's first nonzero coordinate: p moves to (1, 0, 0)."""
    mul = gf._mul
    pivot = next(k for k, v in enumerate(p) if v)
    cols = [tuple(p)] + [tuple(int(r == j) for r in range(3)) for j in range(3) if j != pivot]
    out = [0] * len(CUBIC_MONOMIALS)
    for c, (i, j, k) in zip(cubic, _TRIPLES):
        if c:
            for (a, b, d), n in _CUBE.items():
                out[n] ^= mul[mul[mul[c][cols[a][i]]][cols[b][j]]][cols[d][k]]
    return tuple(out)


def cubic_pencil(gf: GF, cubic, p=(1, 0, 0)) -> tuple[int, str]:
    """(rational zero count, CUBIC_KINDS type) of a nonzero cubic form f
    with a rational zero p, read off the pencil of lines through P = p.
    Any p other than (1, 0, 0) is first sheared there (_shear).

    In coordinates (s, t, u), f = s^2 A2 + s A1 + A0 with A2 = c1 t + c2 u,
    A1 = c3 t^2 + c4 t u + c5 u^2 and A0 = c6 t^3 + c7 t^2 u + c8 t u^2
    + c9 u^3 (c_i the CUBIC_MONOMIALS coefficients).  The line of direction
    (t, u) through P meets the curve in P and in the roots s of one
    quadratic; all three coefficients vanish exactly on a component through
    P.  A component s = a t + b u missing P makes f vanish identically on
    it: c1 a^2 + c3 a + c6 = 0, c2 b^2 + c5 b + c9 = 0, c2 a^2 + c4 a + c3 b
    + c7 = 0 and c1 b^2 + c4 b + c5 a + c8 = 0, which leave at most four
    candidates (a rank-2 linear system when c1 = c2 = 0).  Three distinct
    components are concurrent or not; two make a line plus a double line.
    One component L leaves the conic f/L, which has no rational line other
    than L: it is L^2 (a triple line), a line pair (imaginary) when it
    vanishes at its nucleus, or else a conic meeting L in 2q + 2 - |Z|
    points (Hirschfeld, Projective Geometries over Finite Fields).
    """
    if tuple(p) != (1, 0, 0):
        cubic = _shear(gf, cubic, p)
    if cubic[0] or not any(cubic):
        raise ValueError("%r is not a zero of a nonzero cubic" % (tuple(p),))
    q, mul, sq, inv, trace = gf.q, gf._mul, gf._sq, gf._inv, gf._trace
    _, c1, c2, c3, c4, c5, c6, c7, c8, c9 = cubic
    m2, m4, m5, m9 = mul[c2], mul[c4], mul[c5], mul[c9]
    # (A2, A1, A0) on the lines of direction (1, l), then on (0, 1)
    lines = [(c1 ^ m2[l], c3 ^ mul[l][c4 ^ m5[l]], c6 ^ mul[l][c7 ^ mul[l][c8 ^ m9[l]]])
             for l in gf.elements]
    lines.append((c2, c5, c9))
    zeros, through = 1, []
    for l, (a2, a1, a0) in enumerate(lines):
        if a1:
            zeros += 2 - 2 * trace[mul[mul[a2][a0]][inv[sq[a1]]]] if a2 else 1
        elif a2:
            zeros += 1
        elif not a0:
            zeros += q
            through.append(l)

    if c1:
        pairs = [(a, b) for a in _roots(gf, c1, c3, c6) for b in _roots(gf, c1, c4, m5[a] ^ c8)]
    elif c2:
        pairs = [(a, b) for b in _roots(gf, c2, c5, c9)
                 for a in _roots(gf, c2, c4, mul[c3][b] ^ c7)]
    elif c3:
        a = mul[c6][inv[c3]]
        pairs = [(a, mul[c7 ^ m4[a]][inv[c3]])]
    elif c5:
        b = mul[c9][inv[c5]]
        pairs = [(mul[c8 ^ m4[b]][inv[c5]], b)]
    elif c4:
        pairs = [(mul[c7][inv[c4]], mul[c8][inv[c4]])]
    else:
        pairs = []
    missing = [
        (a, b) for a, b in pairs
        if not (mul[c1][sq[a]] ^ mul[c3][a] ^ c6 or m2[sq[b]] ^ m5[b] ^ c9
                or m2[sq[a]] ^ m4[a] ^ mul[c3][b] ^ c7 or mul[c1][sq[b]] ^ m4[b] ^ m5[a] ^ c8)
    ]

    duals = [(0, l, 1) if l < q else (0, 1, 0) for l in through] + [(1, a, b) for a, b in missing]
    if len(duals) == 3:
        if mat3_det(gf, sum(duals, ())):
            return zeros, "ThreeNonConcurrentLines"
        return zeros, "ThreeConcurrentLines"
    if len(duals) == 2:
        return zeros, "LinePlusDoubleLine"
    if not duals:
        return zeros, "NoRationalComponentPoint" if zeros == 1 else "IrreducibleCubic"
    # f/L as (s^2, st, su, t^2, tu, u^2) coefficients
    if missing:
        (a, b), = missing
        conic = (0, c1, c2, mul[a][c1] ^ c3, m2[a] ^ mul[b][c1] ^ c4, m2[b] ^ c5)
    elif through[0] == q:  # L = t: drop the u-only terms
        conic = (c1, c3, c4, c6, c7, c8)
    else:  # L = u + l t: synthetic division of each A_i
        ml = mul[through[0]]
        d8 = c8 ^ ml[c9]
        conic = (c2, c4 ^ ml[c5], c5, c7 ^ ml[d8], d8, c9)
    a00, a01, a02, a11, a12, a22 = conic
    if not a01 | a02 | a12:
        return zeros, "TripleLine"
    if not (mul[a00][sq[a12]] ^ mul[a11][sq[a02]] ^ mul[a22][sq[a01]] ^ mul[mul[a01][a02]][a12]):
        return zeros, "LinePlusImaginaryPair"
    hits = 2 * q + 2 - zeros
    if hits == 1:
        return zeros, "LinePlusConic_Tangent"
    if hits == 2:
        return zeros, "LinePlusConic_Transversal"
    raise ClassificationError("component line meets the residual conic in %d points" % hits)


def cubic_type(gf: GF, cubic) -> str:
    """Factorization type of a nonzero cubic form over GF(q), q even.

    The pencil of lines through a rational zero, found by a scan of PG(2,q),
    gives the type (cubic_pencil), one of the CUBIC_KINDS strings.

    The kinds cover the determinantal cubics of planes meeting the nucleus
    plane.  Off that family two more shapes occur, a line plus a conic the
    line misses and a cubic with no factors and no rational points; both
    raise ClassificationError.
    """
    if not any(cubic):
        raise ValueError("the zero cubic has no factorization type")
    return cubic_pencil(gf, cubic, _first_zero(gf, cubic))[1]


# -- line profile and full signature ---------------------------------------


def lines_in_plane(s: Subspace) -> list[Subspace]:
    """The q^2+q+1 lines contained in a plane, as subspaces."""
    _require_plane(s)
    gf = s.gf
    out = []
    for dual in pg_points(gf, 2):
        sol = nullspace(gf, (dual,), 3)
        rows = []
        mul = gf._mul
        for combo in sol:
            row = [0] * 6
            for c, brow in zip(combo, s.rows):
                if c:
                    mc = mul[c]
                    for j in range(6):
                        row[j] ^= mc[brow[j]]
            rows.append(tuple(row))
        out.append(Subspace.from_rref(gf, 5, rref(gf, rows)))
    return out


def line_class_profile(s: Subspace) -> tuple[tuple[int, int, int, int], ...]:
    """Sorted multiset of point-class counts of the lines inside the plane."""
    return tuple(sorted(point_class_counts(l) for l in lines_in_plane(s)))


class PlaneSignature(NamedTuple):
    """Orbit invariants of a plane, used to look orbits up in the atlas:
    the plane_key tuple, which it equals; the rest follow from it."""

    point_counts: tuple[int, int, int, int]
    cubic_kind: str | None

    @property
    def nucleus_meet_dim(self) -> int:  # nuclear count 0, 1, q+1 or q^2+q+1
        return {0: -1, 1: 0, sum(self.point_counts): 2}.get(self.point_counts[1], 1)

    @property
    def cubic_vanishes(self) -> bool:
        return self.cubic_kind is None

    @property
    def cubic_point_count(self) -> int | None:  # the points of rank <= 2
        return None if self.cubic_kind is None else sum(self.point_counts[:3])

    @property
    def hyperplane_counts(self) -> tuple[int, int, int, int]:  # q^2+q+1 points
        return hyperplane_distribution(self.point_counts, isqrt(sum(self.point_counts) - 1))

    def to_json(self) -> dict:
        return {
            "nucleus_meet_dim": self.nucleus_meet_dim,
            "point_class_counts": list(self.point_counts),
            "cubic_vanishes": self.cubic_vanishes,
            "cubic_point_count": self.cubic_point_count,
            "cubic_kind": self.cubic_kind,
            "hyperplane_class_counts": list(self.hyperplane_counts),
        }


def plane_key(s: Subspace) -> tuple:
    """(point_counts, cubic_kind) of a plane; cubic_kind is None when the
    determinantal cubic vanishes identically.  Together they separate every
    orbit except Sigma3 from Sigma4.  The cubic kinds cover the planes
    meeting the nucleus plane; a plane off that family whose cubic is a
    line plus a conic the line misses, or has no factors and no rational
    points, raises ClassificationError (36 of the 512 such planes at
    q = 2)."""
    meet, points = nucleus_cut(s)
    return plane_key_at(s, meet, _points_in_span(s, None) if points is None else points)


def plane_key_at(s: Subspace, meet: Subspace | None, points) -> tuple:
    """plane_key of a plane whose nucleus_cut is (``meet``, ``points``);
    off the family, where the cut gives no points, ``points`` are its
    veronese_points.

    The rank-1 count is the number of those points, and the nuclear count is
    1, q+1 or q^2+q+1 by the meet's dimension.  A nuclear point P replaces
    the basis row at its first nonzero pivot, which puts P at (1, 0, 0) for
    cubic_pencil (off the family a scan finds a zero, and cubic_pencil
    shears it there).  The pencil counts the cubic's zeros Z and gives its
    type; the secant count is |Z| - rank1 - nuclear and the rank-3 count
    q^2+q+1 - |Z|."""
    gf, q = s.gf, s.gf.q
    n = q * q + q + 1
    rank1 = len(points)
    if meet is None:
        nuclear, cubic = 0, cubic_form(s)
        p = _first_zero(gf, cubic) if any(cubic) else None
    else:
        nuclear, point, p = (1, q + 1, n)[meet.dim], meet.rows[0], (1, 0, 0)
        i = next(k for k, r in enumerate(s.rows) if point[r.index(1)])
        cubic = _det_cubic(gf, (point,) + s.rows[:i] + s.rows[i + 1:])
    if not any(cubic):
        return (rank1, nuclear, n - rank1 - nuclear, 0), None
    zeros, kind = cubic_pencil(gf, cubic, p)
    return (rank1, nuclear, zeros - rank1 - nuclear, n - zeros), kind


def plane_signature(s: Subspace) -> PlaneSignature:
    return PlaneSignature(*plane_key(s))
