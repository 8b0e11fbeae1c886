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
    through a plane (DoubleLine, RealPair, ImaginaryPair, Nonsingular);
  * nucleus_meet_dim, nucleus_meet: the meet with the nucleus plane;
  * veronese_points: the points of PG(2,q) whose image lies in a plane;
  * the determinantal cubic, its rational points, and its factorization
    type over GF(q), read off its gradient at those points;
  * line_class_profile: the multiset of point-class counts of the lines
    inside a plane;
  * plane_key: the point-class counts with the cubic's factorization type,
    the part of plane_signature that classification reads.

All are constant on orbits of the lifted projectivity group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .action import mat3_det
from .errors import ClassificationError
from .gf import GF
from .projgeom import Subspace, annihilator, normalize_point, nullspace, pg_points, rref
from .veronese import classify_conic, point_class, veronese

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
    gf = s.gf
    idx = {"rank1": 0, "rank2_nuclear": 1, "rank2_secant": 2, "rank3": 3}
    out = [0, 0, 0, 0]
    for p in s.points():
        out[idx[point_class(gf, p)]] += 1
    return tuple(out)


def cubic_zeros_and_counts(s: Subspace):
    """One pass over the points x*B0 + y*B1 + z*B2 of a plane.

    Returns the zeros (x, y, z) of its determinantal cubic, normalized, and
    the plane's (rank1, rank2_nuclear, rank2_secant, rank3) counts.  The
    determinant a*d*f + a*e^2 + b^2*f + c^2*d of each point comes from table
    lookups; its zeros are the rank <= 2 points (all of them when the cubic
    vanishes identically).  A zero is nuclear when its diagonal vanishes (a
    nonzero alternating matrix has rank 2) and rank 1 when its three
    principal 2x2 minors vanish too: with a != 0 that makes the matrix
    (a, b, c)^T (a, b, c) / a, and likewise for d or f.
    """
    _require_plane(s)
    gf = s.gf
    q, mul, sq = gf.q, gf._mul, gf._sq
    r0, r1, r2 = s.rows
    ma, mb, mc, md, me, mf = (mul[v] for v in r2)
    zeros = []
    rank1 = nuclear = 0
    # the points (1, y, z), (0, 1, z) and (0, 0, 1), by their (x, y) heads
    heads = [(1, y, gf.elements) for y in gf.elements] + [(0, 1, gf.elements), (0, 0, (1,))]
    for x, y, zs in heads:
        my = mul[y]
        a0, b0, c0, d0, e0, f0 = ((u if x else 0) ^ my[v] for u, v in zip(r0, r1))
        for z in zs:
            a = a0 ^ ma[z]
            b = b0 ^ mb[z]
            c = c0 ^ mc[z]
            d = d0 ^ md[z]
            e = e0 ^ me[z]
            f = f0 ^ mf[z]
            mul_d = mul[d]
            if mul[a][mul_d[f] ^ sq[e]] ^ mul[sq[b]][f] ^ mul_d[sq[c]]:
                continue
            zeros.append((x, y, z))
            if not a | d | f:
                nuclear += 1
            elif mul_d[a] == sq[b] and mul[a][f] == sq[c] and mul_d[f] == sq[e]:
                rank1 += 1
    rank3 = q * q + q + 1 - len(zeros)
    return zeros, (rank1, nuclear, len(zeros) - rank1 - nuclear, rank3)


def forms_through(s: Subspace) -> list[tuple[int, ...]]:
    """Normalized coefficient vectors of every hyperplane containing s: the
    points of its annihilator."""
    return Subspace(s.gf, 5, nullspace(s.gf, s.rows, 6)).points()


def hyperplane_class_counts(s: Subspace) -> tuple[int, int, int, int]:
    """(DoubleLine, RealPair, ImaginaryPair, Nonsingular) counts over the
    hyperplanes through a plane, read off their conic forms."""
    _require_plane(s)
    idx = {"DoubleLine": 0, "RealPair": 1, "ImaginaryPair": 2, "Nonsingular": 3}
    out = [0, 0, 0, 0]
    for form in forms_through(s):
        out[idx[classify_conic(s.gf, form)]] += 1
    return tuple(out)


def double_line_hyperplane_count(s: Subspace) -> int:
    """How many hyperplanes through the plane cut the Veronese surface in a
    double line: the forms x*N0 + y*N1 + z*N2 over the unreduced
    ``annihilator`` basis whose cross columns 1, 2, 4 vanish, found by
    scanning the q^2+q+1 triples (x, y, z); the count does not depend on the
    basis.  Deliberately not derived from the nucleus meet dimension."""
    _require_plane(s)
    gf, mul = s.gf, s.gf._mul
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = (
        (r[1], r[2], r[4]) for r in annihilator(gf, s.rows, 6))
    count = 0
    for x, y, z in pg_points(gf, 2):
        mx, my, mz = mul[x], mul[y], mul[z]
        count += not (mx[a0] ^ my[a1] ^ mz[a2] or mx[b0] ^ my[b1] ^ mz[b2]
                      or mx[c0] ^ my[c1] ^ mz[c2])
    return count


def nucleus_meet_dim(s: Subspace) -> int:
    """Projective dimension of the meet with the nucleus plane (-1: empty).

    A point lies on the nucleus plane iff its diagonal coordinates 0, 3, 5
    vanish, so the meet has vector dimension dim(s) - rank of those three
    columns of the basis.
    """
    cols = [(r[0], r[3], r[5]) for r in s.rows]
    return len(s.rows) - len(rref(s.gf, cols)) - 1


def nucleus_meet(s: Subspace) -> Subspace | None:
    """The meet with the nucleus plane, or None when it is empty.

    Row-reducing each basis row prefixed by its diagonal coordinates 0, 3, 5
    combines the rows by the kernel vectors of those three columns; the
    reduced rows whose prefix vanishes are the meet's RREF basis.
    """
    red = rref(s.gf, [(r[0], r[3], r[5]) + r for r in s.rows])
    rows = tuple(r[3:] for r in red if not (r[0] | r[1] | r[2]))
    return Subspace(s.gf, s.n, rows) if rows else None


def veronese_points(s: Subspace) -> list[tuple[int, ...]]:
    """The points p of PG(2,q) with v(p) in the plane, in pg_points order.

    Squaring is additive in characteristic 2, so v(p) = sum l_i B_i puts p
    in the span of the columns (sqrt B_i0, sqrt B_i3, sqrt B_i5): the net's
    double line if the plane meets the nucleus plane in a point, a point if
    in a line, all of PG(2,q) only if it misses it.  v(p) is in the plane
    iff it has no residual off the basis pivots after subtracting the basis
    rows weighted by its pivot coordinates."""
    _require_plane(s)
    gf = s.gf
    mul, sq, root = gf._mul, gf._sq, gf._sqrt
    i0, i1, i2 = pivots = [r.index(1) for r in s.rows]
    free = [(j, *(r[j] for r in s.rows)) for j in range(6) if j not in pivots]

    def residual(p):
        y = veronese(gf, p)
        m0, m1, m2 = mul[y[i0]], mul[y[i1]], mul[y[i2]]
        return [y[j] ^ m0[a] ^ m1[b] ^ m2[c] for j, a, b, c in free]

    span = rref(gf, [(root[r[0]], root[r[3]], root[r[5]]) for r in s.rows])
    if len(span) != 2:
        return [p for p in (pg_points(gf, 2) if len(span) == 3 else span) if not any(residual(p))]
    # v(a + t*b) = v(a) + t^2 v(b) + t (v(a + b) + v(a) + v(b)); residual is linear
    a, b = span
    ra, rb = residual(a), residual(b)
    rw = [x ^ y ^ z for x, y, z in zip(residual(tuple(u ^ v for u, v in zip(a, b))), ra, rb)]
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = zip(ra, rb, rw)
    out = [tuple(u ^ mul[t][v] for u, v in zip(a, b)) for t in gf.elements
           if not (x0 ^ mul[sq[t]][y0] ^ mul[t][z0] or x1 ^ mul[sq[t]][y1] ^ mul[t][z1]
                   or x2 ^ mul[sq[t]][y2] ^ mul[t][z2])]
    if not any(rb):
        out.append(b)
    return out


# -- the determinantal cubic ----------------------------------------------


# CUBIC_MONOMIALS index of x_i*x_j*x_k for every ordered triple (i, j, k)
_CUBE = {
    ijk: CUBIC_MONOMIALS.index(tuple(ijk.count(v) for v in range(3)))
    for ijk in product(range(3), repeat=3)
}


def cubic_form(s: Subspace) -> tuple[int, ...]:
    """Coefficients of det(x*B0 + y*B1 + z*B2) in CUBIC_MONOMIALS order.

    Each matrix entry is the linear form in (x, y, z) given by its column of
    the basis.  a*d*f is expanded over the ordered index triples; squaring
    is additive in characteristic 2, so a*e^2 + b^2*f + c^2*d contributes
    a_i e_j^2 + b_j^2 f_i + c_j^2 d_i to x_i x_j^2.  The zero tuple is a
    legal value: planes inside the secant variety have identically
    vanishing determinant.
    """
    _require_plane(s)
    mul, sq = s.gf._mul, s.gf._sq
    a, b, c, d, e, f = zip(*s.rows)
    out = [0] * len(CUBIC_MONOMIALS)
    for (i, j, k), n in _CUBE.items():
        out[n] ^= mul[mul[a[i]][d[j]]][f[k]]
        if j == k:
            out[n] ^= mul[a[i]][sq[e[j]]] ^ mul[sq[b[j]]][f[i]] ^ mul[sq[c[j]]][d[i]]
    return tuple(out)


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


def _gradient(gf: GF, cubic, p) -> tuple[int, int, int]:
    """The gradient of a cubic form at p.  In characteristic 2 the terms
    with an even exponent drop out of each partial derivative, leaving
    d/dx = c0 x^2 + c3 y^2 + c4 yz + c5 z^2 and likewise for y and z."""
    mul, sq = gf._mul, gf._sq
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = cubic
    x, y, z = p
    x2, y2, z2 = sq[x], sq[y], sq[z]
    return (
        mul[c0][x2] ^ mul[c3][y2] ^ mul[c4][mul[y][z]] ^ mul[c5][z2],
        mul[c1][x2] ^ mul[c4][mul[x][z]] ^ mul[c6][y2] ^ mul[c8][z2],
        mul[c2][x2] ^ mul[c4][mul[x][y]] ^ mul[c7][y2] ^ mul[c9][z2],
    )


def _dot(gf: GF, u, p) -> int:
    mul = gf._mul
    return mul[u[0]][p[0]] ^ mul[u[1]][p[1]] ^ mul[u[2]][p[2]]


def _cross(gf: GF, p, r) -> tuple[int, int, int]:
    """Cross product; characteristic 2 needs no signs.  It vanishes exactly
    when p and r are linearly dependent."""
    mul = gf._mul
    return (
        mul[p[1]][r[2]] ^ mul[p[2]][r[1]],
        mul[p[2]][r[0]] ^ mul[p[0]][r[2]],
        mul[p[0]][r[1]] ^ mul[p[1]][r[0]],
    )


def _join(gf: GF, p, r) -> tuple[int, ...]:
    """Normalized dual coordinates of the line through two distinct points."""
    return normalize_point(gf, _cross(gf, p, r))


def component_candidates(gf: GF, zeros) -> list[tuple[int, ...]]:
    """Lines of PG(2,q), as normalized dual coordinates, whose q+1 points
    all lie in the zero set of a nonzero cubic.

    Every linear factor of the cubic is among them.  They are found through
    a line L on a point N off the curve: L is not a component, so it holds
    at most three zeros (Bezout; at q = 2, at most q of its q+1 points),
    and every other line meets L in a point, which is a zero when that line
    is made of zeros.  So each candidate is a line through a zero P of L
    that carries q further zeros.  At q = 2 a nonzero cubic can vanish on
    every point; then every line is a candidate.  At q = 2 a line of zeros
    need not be a component, so cubic_type still tests each candidate
    against the gradient.
    """
    q = gf.q
    if len(zeros) < q + 1:
        return []
    on_curve = set(zeros)
    n = next((p for p in pg_points(gf, 2) if p not in on_curve), None)
    if n is None:
        return pg_points(gf, 2)
    u = (n[1], n[0], 0) if n[0] | n[1] else (1, 0, 0)
    out = []
    for p in zeros:
        if _dot(gf, u, p):
            continue
        through: dict[tuple[int, ...], int] = {}
        for r in zeros:
            if r != p:
                line = _join(gf, p, r)
                through[line] = through.get(line, 0) + 1
        out += [line for line, hits in through.items() if hits == q]
    return out


def cubic_type(gf: GF, cubic, zeros=None) -> str:
    """Factorization type of a nonzero cubic form f over GF(q), q even.

    ``zeros`` is the cubic's rational zero set, computed here when not
    given.  Everything is read off the gradient at those zeros (Hirschfeld,
    Projective Geometries over Finite Fields).  If f = L*g, the gradient at
    a point of L is g there times L's dual vector u.  So a line of zeros is
    a component iff the gradient is a multiple of u on all of it (which
    only q = 2 needs checked), and a double one iff all its points are
    singular.  For f = L*C with L simple, C is an imaginary pair iff no zero
    off L is smooth; otherwise C is a conic and the singular points of L are
    where it meets C.  Types are the CUBIC_KINDS strings.

    The kinds cover the determinantal cubics of planes meeting the nucleus
    plane.  Off that family two more shapes occur, a line plus a conic the
    line misses and a cubic with no factors and no rational points; both
    raise ClassificationError.
    """
    if not any(cubic):
        raise ValueError("the zero cubic has no factorization type")
    if zeros is None:
        zeros = cubic_points(gf, cubic)
    candidates = component_candidates(gf, zeros)
    grad = {p: _gradient(gf, cubic, p) for p in zeros} if candidates else {}
    simple, double = [], []
    for u in candidates:
        on = [p for p in zeros if not _dot(gf, u, p)]
        if any(any(_cross(gf, grad[p], u)) for p in on):
            continue
        (simple if any(any(grad[p]) for p in on) else double).append(u)

    shape = len(double), len(simple)
    if shape == (1, 0):
        return "TripleLine"
    if shape == (1, 1):
        return "LinePlusDoubleLine"
    if shape == (0, 3):
        return (
            "ThreeConcurrentLines"
            if mat3_det(gf, sum(simple, ())) == 0
            else "ThreeNonConcurrentLines"
        )
    if shape == (0, 1):
        u = simple[0]
        if not any(any(grad[p]) for p in zeros if _dot(gf, u, p)):
            return "LinePlusImaginaryPair"
        hits = sum(1 for p in zeros if not _dot(gf, u, p) and not any(grad[p]))
        if hits == 1:
            return "LinePlusConic_Tangent"
        if hits == 2:
            return "LinePlusConic_Transversal"
        raise ClassificationError(
            "component line meets the residual conic in %d points" % hits
        )
    if shape != (0, 0):
        raise ClassificationError(
            "%d double and %d simple line components" % shape
        )
    if len(zeros) == 1:
        return "NoRationalComponentPoint"
    if len(zeros) >= 2:
        return "IrreducibleCubic"
    raise ClassificationError("cubic with no factors and no rational points")


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
        out.append(Subspace(gf, 5, rref(gf, rows)))
    return out


def line_class_profile(s: Subspace) -> tuple[tuple[int, int, int, int], ...]:
    """Sorted multiset of point-class counts of the lines inside the plane."""
    return tuple(sorted(point_class_counts(l) for l in lines_in_plane(s)))


@dataclass(frozen=True)
class PlaneSignature:
    """Orbit invariants of a plane, used to look orbits up in the atlas."""

    nucleus_meet_dim: int
    point_counts: tuple[int, int, int, int]
    cubic_vanishes: bool
    cubic_point_count: int | None
    cubic_kind: str | None
    hyperplane_counts: tuple[int, int, int, int]

    @property
    def key(self) -> tuple:
        """(point_counts, cubic_kind): what plane_key computes."""
        return self.point_counts, self.cubic_kind

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
    _require_plane(s)
    cubic = cubic_form(s)
    zeros, counts = cubic_zeros_and_counts(s)
    return counts, cubic_type(s.gf, cubic, zeros) if any(cubic) else None


def plane_signature(s: Subspace) -> PlaneSignature:
    counts, kind = plane_key(s)
    return PlaneSignature(
        nucleus_meet_dim=nucleus_meet_dim(s),
        point_counts=counts,
        cubic_vanishes=kind is None,
        cubic_point_count=None if kind is None else sum(counts[:3]),
        cubic_kind=kind,
        hyperplane_counts=hyperplane_class_counts(s),
    )
