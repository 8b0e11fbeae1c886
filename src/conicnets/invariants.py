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
  * nucleus_meet_dim: projective dimension of the meet with the nucleus
    plane;
  * the determinantal cubic, its rational points, and its factorization
    type over GF(q);
  * line_class_profile: the multiset of point-class counts of the lines
    inside a plane;
  * plane_key: the point-class counts with the cubic's factorization type,
    the part of plane_signature that classification reads.

All are constant on orbits of the lifted projectivity group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClassificationError
from .gf import GF
from .projgeom import Subspace, normalize_point, nullspace, pg_points, rref
from .veronese import classify_conic, point_class

CUBIC_MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)

CONIC_MONOMIALS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))

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
    double line.  Counted by scanning the annihilator forms; deliberately
    not derived from the nucleus meet dimension."""
    _require_plane(s)
    count = 0
    for form in forms_through(s):
        if form[1] == 0 and form[2] == 0 and form[4] == 0:
            count += 1
    return count


def nuclear_point_count(s: Subspace) -> int:
    """How many points of the plane lie on the nucleus plane, by scanning
    the points themselves."""
    _require_plane(s)
    count = 0
    for y in s.points():
        if (y[0] | y[3] | y[5]) == 0:
            count += 1
    return count


def nucleus_meet_dim(s: Subspace) -> int:
    """Projective dimension of the meet with the nucleus plane (-1: empty).

    A point lies on the nucleus plane iff its diagonal coordinates 0, 3, 5
    vanish, so the meet has vector dimension dim(s) - rank of those three
    columns of the basis.
    """
    cols = [(r[0], r[3], r[5]) for r in s.rows]
    return len(s.rows) - len(rref(s.gf, cols)) - 1


# -- the determinantal cubic ----------------------------------------------


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


def cubic_form(s: Subspace) -> tuple[int, ...]:
    """Coefficients of det(x*B0 + y*B1 + z*B2) in CUBIC_MONOMIALS order.

    The zero tuple is a legal value: planes inside the secant variety have
    identically vanishing determinant.
    """
    _require_plane(s)
    gf = s.gf
    b0, b1, b2 = s.rows
    la = _lin_dict((b0[0], b1[0], b2[0]))
    lb = _lin_dict((b0[1], b1[1], b2[1]))
    lc = _lin_dict((b0[2], b1[2], b2[2]))
    ld = _lin_dict((b0[3], b1[3], b2[3]))
    le = _lin_dict((b0[4], b1[4], b2[4]))
    lf = _lin_dict((b0[5], b1[5], b2[5]))
    det = _pd_mul(gf, _pd_mul(gf, la, ld), lf)
    det = _pd_add(det, _pd_mul(gf, la, _pd_mul(gf, le, le)))
    det = _pd_add(det, _pd_mul(gf, _pd_mul(gf, lb, lb), lf))
    det = _pd_add(det, _pd_mul(gf, _pd_mul(gf, lc, lc), ld))
    return tuple(det.get(m, 0) for m in CUBIC_MONOMIALS)


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


def _cubic_dict(cubic) -> dict:
    return {m: c for m, c in zip(CUBIC_MONOMIALS, cubic) if c}


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


def _conic_tuple(d: dict) -> tuple[int, ...]:
    return tuple(d.get(m, 0) for m in CONIC_MONOMIALS)


def _det3(gf: GF, rows) -> int:
    mul = gf._mul
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (
        mul[a][mul[e][i] ^ mul[f][h]]
        ^ mul[b][mul[d][i] ^ mul[f][g]]
        ^ mul[c][mul[d][h] ^ mul[e][g]]
    )


def _dot(gf: GF, u, p) -> int:
    mul = gf._mul
    return mul[u[0]][p[0]] ^ mul[u[1]][p[1]] ^ mul[u[2]][p[2]]


def _join(gf: GF, p, r) -> tuple[int, ...]:
    """Normalized dual coordinates of the line through two distinct points
    (their cross product; characteristic 2 needs no signs)."""
    mul = gf._mul
    return normalize_point(gf, (
        mul[p[1]][r[2]] ^ mul[p[2]][r[1]],
        mul[p[2]][r[0]] ^ mul[p[0]][r[2]],
        mul[p[0]][r[1]] ^ mul[p[1]][r[0]],
    ))


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
    need not be a component, so candidates still go to exact division.
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
    """Factorization type of a nonzero cubic form over GF(q), q even.

    ``zeros`` is the cubic's rational zero set, computed here when not
    given.  Rational linear factors are extracted with multiplicity by
    exact polynomial division by the component candidates of that zero set;
    the residual conic, if any, is classified by classify_conic and meets
    the component line in the zeros of the conic on that line.  Types are
    the CUBIC_KINDS strings.
    """
    if not any(cubic):
        raise ValueError("the zero cubic has no factorization type")
    if zeros is None:
        zeros = cubic_points(gf, cubic)
    current = _cubic_dict(cubic)
    factors: list[tuple[int, ...]] = []
    for lin in component_candidates(gf, zeros):
        while len(factors) < 2:
            quot = divide_by_linear(gf, current, lin)
            if quot is None:
                break
            factors.append(lin)
            current = quot
    if len(factors) == 2:
        # the residual is itself a linear factor
        coeffs = tuple(current.get(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        factors.append(normalize_point(gf, coeffs))

    if len(factors) == 3:
        distinct = set(factors)
        if len(distinct) == 1:
            return "TripleLine"
        if len(distinct) == 2:
            return "LinePlusDoubleLine"
        return (
            "ThreeConcurrentLines"
            if _det3(gf, factors) == 0
            else "ThreeNonConcurrentLines"
        )
    if len(factors) == 1:
        conic = _conic_tuple(current)
        kind = classify_conic(gf, conic)
        if kind == "ImaginaryPair":
            return "LinePlusImaginaryPair"
        if kind == "Nonsingular":
            lin = factors[0]
            hits = sum(
                1 for p in zeros
                if _dot(gf, lin, p) == 0 and _conic_eval(gf, conic, p) == 0
            )
            if hits == 1:
                return "LinePlusConic_Tangent"
            if hits == 2:
                return "LinePlusConic_Transversal"
            raise ClassificationError(
                "component line meets the residual conic in %d points" % hits
            )
        raise ClassificationError(
            "reducible residual conic (%s) escaped linear factor extraction" % kind
        )
    if len(zeros) == 1:
        return "NoRationalComponentPoint"
    if len(zeros) >= 2:
        return "IrreducibleCubic"
    raise ClassificationError("cubic with no factors and no rational points")


def _conic_eval(gf: GF, conic, p) -> int:
    mul = gf._mul
    x, y, z = p
    a00, a01, a02, a11, a12, a22 = conic
    acc = 0
    if a00:
        acc ^= mul[a00][mul[x][x]]
    if a01:
        acc ^= mul[a01][mul[x][y]]
    if a02:
        acc ^= mul[a02][mul[x][z]]
    if a11:
        acc ^= mul[a11][mul[y][y]]
    if a12:
        acc ^= mul[a12][mul[y][z]]
    if a22:
        acc ^= mul[a22][mul[z][z]]
    return acc


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
    orbit except Sigma3 from Sigma4."""
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
