"""The quadric Veronese embedding of PG(2,q) in PG(5,q), q even.

A point of PG(5,q) is identified with a symmetric 3x3 matrix via

    (y0, y1, y2, y3, y4, y5)  <->  [[y0, y1, y2],
                                    [y1, y3, y4],
                                    [y2, y4, y5]]

The Veronese image of (u0, u1, u2) is the rank-1 point
(u0^2, u0*u1, u0*u2, u1^2, u1*u2, u2^2).  In even characteristic the
matrices with zero diagonal form a distinguished plane, the nucleus plane,
and every point off the Veronese surface has matrix rank 2 or 3.  Ranks
come from the determinant and the principal 2x2 minors, in closed form.

A quadratic form a00*X0^2 + a01*X0*X1 + a02*X0*X2 + a11*X1^2 + a12*X1*X2
+ a22*X2^2 is stored as the 6-tuple (a00, a01, a02, a11, a12, a22); the
form corresponds to the hyperplane Z(a00*Y0 + a01*Y1 + a02*Y2 + a11*Y3
+ a12*Y4 + a22*Y5), so f(p) = 0 exactly when the Veronese image of p lies
in that hyperplane.
"""

from __future__ import annotations

from .errors import brief
from .gf import GF
from .projgeom import Subspace, normalize_point, nullspace, pg_points, span

POINT_CLASSES = ("rank1", "rank2_nuclear", "rank2_secant", "rank3")
CONIC_CLASSES = ("DoubleLine", "RealPair", "ImaginaryPair", "Nonsingular")


def veronese(gf: GF, p) -> tuple[int, ...]:
    """Image of a projective point of PG(2,q); normalized when p is."""
    u0, u1, u2 = p
    mul = gf._mul
    return (
        mul[u0][u0], mul[u0][u1], mul[u0][u2],
        mul[u1][u1], mul[u1][u2], mul[u2][u2],
    )


def nucleus_plane(gf: GF) -> Subspace:
    """The plane of zero-diagonal symmetric matrices."""
    return span(gf, [(0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)])


def point_class(gf: GF, y) -> str:
    """rank1 (Veronese surface), rank3, or one of the two rank-2 classes:
    rank2_nuclear (zero diagonal, i.e. on the nucleus plane) and
    rank2_secant (the rest of the secant variety).

    In even characteristic det = a*d*f + a*e^2 + b^2*f + c^2*d for
    y = (a, b, c, d, e, f).  A singular y with zero diagonal is alternating,
    so of rank 2 when nonzero; otherwise it has rank 1 exactly when its
    three principal 2x2 minors vanish (with a != 0 that makes it
    (a, b, c)^T (a, b, c) / a, and likewise for d or f).  The zero vector
    falls in rank2_nuclear.
    """
    a, b, c, d, e, f = y
    mul, sq = gf._mul, gf._sq
    if mul[a][mul[d][f] ^ sq[e]] ^ mul[sq[b]][f] ^ mul[d][sq[c]]:
        return "rank3"
    if not a | d | f:
        return "rank2_nuclear"
    if mul[a][d] == sq[b] and mul[a][f] == sq[c] and mul[d][f] == sq[e]:
        return "rank1"
    return "rank2_secant"


def census(gf: GF) -> dict[str, int]:
    """Point-class counts over all of PG(5,q)."""
    counts = dict.fromkeys(POINT_CLASSES, 0)
    for y in pg_points(gf, 5):
        counts[point_class(gf, y)] += 1
    return counts


def expected_census(q: int) -> dict[str, int]:
    n2 = q * q + q + 1
    return {
        "rank1": n2,
        "rank2_nuclear": n2,
        "rank2_secant": (q * q - 1) * n2,
        "rank3": q**5 - q * q,
    }


# -- quadratic forms ------------------------------------------------------


def form_eval(gf: GF, form, p) -> int:
    """f(p); equals the pairing of the form vector with the Veronese image."""
    mul = gf._mul
    nu = veronese(gf, p)
    acc = 0
    for a, m in zip(form, nu):
        if a and m:
            acc ^= mul[a][m]
    return acc


def classify_conic(gf: GF, form) -> str:
    """Orbit of a nonzero conic under projectivities of PG(2,q), q even.

    Closed form for even characteristic (Hirschfeld, Projective Geometries
    over Finite Fields, conics in characteristic 2).  Forms with zero cross
    coefficients are squares of linear forms: double lines.  Otherwise the
    partial derivatives all vanish at N = (a12, a02, a01), the nucleus of a
    nonsingular conic or the vertex of a line pair, and f(N) != 0 exactly
    when the conic is nonsingular.  A line pair is split on a coordinate
    line X_i = 0 missing N: there f restricts to a*s^2 + b*s*t + c*t^2 with
    b != 0, which has two roots (real pair) when Tr(ac/b^2) = 0 and none
    (imaginary pair) otherwise.
    """
    form = tuple(form)
    if len(form) != 6:
        raise ValueError("a conic is a 6-tuple of coefficients")
    if not any(form):
        raise ValueError("the zero form is not a conic")
    a00, a01, a02, a11, a12, a22 = form
    if a01 == 0 and a02 == 0 and a12 == 0:
        return "DoubleLine"
    if form_eval(gf, form, (a12, a02, a01)):
        return "Nonsingular"
    if a12:
        a, b, c = a11, a12, a22
    elif a02:
        a, b, c = a00, a02, a22
    else:
        a, b, c = a00, a01, a11
    if gf.trace(gf.div(gf.mul(a, c), gf.sq(b))):
        return "ImaginaryPair"
    return "RealPair"


def delta(gf: GF, form) -> Subspace:
    """Hyperplane of PG(5,q) whose points are the zero locus pairing of f."""
    form = normalize_point(gf, form)
    return Subspace.from_rref(gf, 5, nullspace(gf, (form,), 6))


def form_to_str(form) -> str:
    names = ("X0^2", "X0*X1", "X0*X2", "X1^2", "X1*X2", "X2^2")
    terms = []
    for a, name in zip(form, names):
        if a == 0:
            continue
        terms.append(name if a == 1 else "%d*%s" % (a, name))
    return " + ".join(terms) if terms else "0"


def form_from_str(text: str) -> tuple[int, ...]:
    """Parse the output format of form_to_str back to a 6-tuple.

    A monomial may appear once (X0*X1 and X1*X0 are the same monomial).
    """
    index = {"X0^2": 0, "X0*X1": 1, "X1*X0": 1, "X0*X2": 2, "X2*X0": 2,
             "X1^2": 3, "X1*X2": 4, "X2*X1": 4, "X2^2": 5}
    coeffs = [0, 0, 0, 0, 0, 0]
    seen: set[int] = set()
    text = text.replace(" ", "")
    if not text or text == "0":
        raise ValueError("empty form")
    for term in text.split("+"):
        if not term:
            raise ValueError("malformed form %s" % brief.repr(text))
        coeff = 1
        mono = term
        head, star, rest = term.partition("*")
        if head.isascii() and head.isdigit():
            coeff = int(head)
            mono = rest
        if mono not in index:
            raise ValueError("unknown monomial %s in form" % brief.repr(mono))
        i = index[mono]
        if i in seen:
            raise ValueError("monomial %r repeated in form" % mono)
        seen.add(i)
        coeffs[i] = coeff
    return tuple(coeffs)
