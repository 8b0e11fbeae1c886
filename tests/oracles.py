"""Brute-force references that only tests call: point-by-point passes and
per-point actions the package replaced by closed forms or kernel scans,
stabilizers as sets of group elements (Schreier's lemma) where the package
counts orbits, a Singer cycle for the sweep the package replaced, and
helpers the package itself has no use for.  Tests compare the package
against them."""

import functools
from itertools import product

from conicnets.action import (
    IDENTITY3,
    TRANSVECTION,
    act_subspace,
    closure,
    congruence_image,
    generators,
    kernel_fiber,
    mat3_det,
    mat3_mul,
    packed_action,
    pgl_order,
    subspace_orbit,
)
from conicnets.errors import (
    ClassificationError,
    OutOfFamilyError,
    ResourceBudgetError,
    VerificationError,
)
from conicnets.gf import GF, field
from conicnets.invariants import anchor, nucleus_cut
from conicnets.projgeom import (
    Subspace,
    enumerate_planes_chunk,
    normalize_point,
    nullspace,
    pg_points,
    plane_enumeration_chunks,
    rref,
    span,
)
from conicnets.veronese import classify_conic, delta_inv, point_class, veronese


def sym_matrix(y) -> tuple[tuple[int, int, int], ...]:
    """The symmetric 3x3 matrix of a PG(5,q) point y."""
    y0, y1, y2, y3, y4, y5 = y
    return ((y0, y1, y2), (y1, y3, y4), (y2, y4, y5))


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
    if s.n != 5 or len(s.rows) != 3:
        raise ValueError("expected a plane of PG(5,q)")
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


def act_point_pg2(gf: GF, a, p) -> tuple[int, ...]:
    """Image of a PG(2,q) point under the column action p -> A p, normalized."""
    mul = gf._mul
    x, y, z = p
    img = (
        mul[a[0]][x] ^ mul[a[1]][y] ^ mul[a[2]][z],
        mul[a[3]][x] ^ mul[a[4]][y] ^ mul[a[5]][z],
        mul[a[6]][x] ^ mul[a[7]][y] ^ mul[a[8]][z],
    )
    return normalize_point(gf, img)


def lifted_image(gf: GF, l, y) -> tuple[int, ...]:
    """l . y for a 6x6 matrix l and a 6-vector y, not normalized."""
    m0, m1, m2, m3, m4, m5 = (gf._mul[v] for v in y)
    return tuple([m0[r0] ^ m1[r1] ^ m2[r2] ^ m3[r3] ^ m4[r4] ^ m5[r5]
                  for r0, r1, r2, r3, r4, r5 in l])


def act_point(gf: GF, l, y) -> tuple[int, ...]:
    """Image of a PG(5,q) point under a lifted 6x6 matrix, normalized."""
    return normalize_point(gf, lifted_image(gf, l, y))


def conic_plane_of(gf: GF, y) -> tuple[tuple[int, ...], Subspace]:
    """The line u of PG(2,q) whose conic plane contains the rank-2 point y,
    with that plane.

    The conic plane of u, spanned by the images of the points of u, is
    {M : M u = 0}; so u spans the kernel of y's symmetric matrix.
    """
    if not any(y) or point_class(gf, y) not in ("rank2_nuclear", "rank2_secant"):
        raise ValueError("conic planes are defined for rank-2 points only")
    (u,) = nullspace(gf, sym_matrix(y), 3)
    u = normalize_point(gf, u)
    u0, u1, u2 = u
    equations = ((u0, u1, u2, 0, 0, 0), (0, u0, 0, u1, u2, 0), (0, 0, u0, 0, u1, u2))
    return u, Subspace.from_rref(gf, 5, nullspace(gf, equations, 6))


def conic_nucleus(gf: GF, line_dual) -> tuple[int, ...]:
    """Nucleus of the conic that is the Veronese image of the line u: the
    zero-diagonal matrix [[0, u2, u1], [u2, 0, u0], [u1, u0, 0]], which
    kills u and so lies on u's conic plane."""
    u0, u1, u2 = line_dual
    return normalize_point(gf, (0, u2, u1, 0, u0, 0))


def unpack_rows(gf: GF, key: int, width: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The rows of a packed-int key (projgeom.pack_rows)."""
    e = gf.e
    mask = (1 << e) - 1
    flat = []
    for _ in range(width * r):
        flat.append(key & mask)
        key >>= e
    flat.reverse()
    return tuple(tuple(flat[i * width:(i + 1) * width]) for i in range(r))


def enumerate_planes(gf: GF):
    """All planes of PG(5, q) as Subspace objects, exactly once: the chunks
    of plane_enumeration_chunks in order, which walks pivot-column patterns
    lexicographically, then free entries in row-major field order."""
    for chunk in plane_enumeration_chunks(gf):
        yield from enumerate_planes_chunk(gf, chunk)


def subspace_from_json(obj: dict, modulus: int | None = None) -> Subspace:
    """The subspace of a ``Subspace.to_json`` record."""
    gf = field(obj["q"], modulus)
    return span(gf, obj["rows"], n=obj["n"])


def classify_hyperplane(h: Subspace) -> str:
    """Conic class of the form cutting out h, cross-checked against the
    number of Veronese points the hyperplane actually contains."""
    gf = h.gf
    kind = classify_conic(gf, delta_inv(h))
    hits = sum(1 for p in pg_points(gf, 2) if h.contains_point(veronese(gf, p)))
    q = gf.q
    expected = {"DoubleLine": q + 1, "RealPair": 2 * q + 1,
                "ImaginaryPair": 1, "Nonsingular": q + 1}[kind]
    if hits != expected:
        raise ClassificationError(
            "hyperplane %s classified %s but contains %d Veronese points"
            % (h.key_hex(), kind, hits)
        )
    return kind


def stabilizer_order_by_candidates(s: Subspace) -> int:
    """Order of the stabilizer in PGL(3,q) of a plane meeting the nucleus
    plane, counted directly over the subgroup that holds it.

    Moved by C, whose first row is the kernel u = (y4, y2, y1) of the one
    nuclear point, or whose last two rows are kernels of the meet line's
    points (unit vectors fill the rest), the plane's stabilizer lies among
    the q^3 (q-1) (q^2-1) normalized matrices with first row, or first
    column, (1,0,0); those that carry each basis row into the plane are
    counted.
    """
    gf, q = s.gf, s.gf.q
    meet = nucleus_cut(s)[0]
    if meet is None:
        raise OutOfFamilyError("plane misses the nucleus plane")
    if meet.dim == 2:
        return pgl_order(q)
    kernels = [(y[4], y[2], y[1]) for y in meet.rows]
    pivots = [r.index(1) for r in rref(gf, kernels)]
    units = [tuple(int(i == j) for i in range(3)) for j in range(3) if j not in pivots]
    point = meet.dim == 0
    moved = act_subspace(s, sum(kernels + units if point else units + kernels, ()))
    pts, mul, els = set(moved.points()), gf._mul, gf.elements
    blocks = [(b, c, e, f) for b, c, e, f in product(els, repeat=4) if mul[b][f] ^ mul[c][e]]
    count = 0
    for x, y in product(els, repeat=2):
        for b, c, e, f in blocks:
            a = (1, 0, 0, x, b, c, y, e, f) if point else (1, x, y, 0, b, c, 0, e, f)
            count += all(congruence_image(gf, a, r) in pts for r in moved.rows)
    return count


def hand_moved_pair(gf: GF) -> tuple[tuple[Subspace, Subspace], tuple[Subspace, Subspace]]:
    """The line-orbit suite's pair (R, N), N = (0,1,0,0,1,0) the nuclear
    point of kernel (1,0,1), and the pair moved by the hand-written
    C = (1,0,1; 0,1,0; 0,0,1), whose first row is that kernel: the move to
    e0 that ``kernel_fiber`` builds from N."""
    pair = (span(gf, [(0, 1, 0, 1, 0, 0)]), span(gf, [(0, 1, 0, 0, 1, 0)]))
    return pair, tuple(act_subspace(t, (1, 0, 1, 0, 1, 0, 0, 0, 1)) for t in pair)


def _has_order(gf: GF, a, n: int) -> bool:
    """Whether a has order exactly n in GL(3,q): a^n = I and a^(n/p) != I
    for every prime p dividing n."""

    def power(k):
        out, b = IDENTITY3, a
        while k:
            if k & 1:
                out = mat3_mul(gf, out, b)
            b, k = mat3_mul(gf, b, b), k >> 1
        return out

    primes, m, p = [], n, 2
    while m > 1:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return power(n) == IDENTITY3 and all(power(n // p) != IDENTITY3 for p in primes)


@functools.cache
def singer_generators(gf: GF) -> tuple[tuple[int, ...], ...]:
    """The transvection I + E01 and a Singer cycle: the companion matrix of
    the first primitive cubic x^3 + a x^2 + b x + c, one of order q^3 - 1
    in GL(3,q), which moves the points of PG(2,q) regularly.  Searched once
    per field."""
    for a in gf.elements:
        for b in gf.elements:
            for c in gf.nonzero:
                singer = (0, 1, 0, 0, 0, 1, c, b, a)
                if _has_order(gf, singer, gf.q**3 - 1):
                    return TRANSVECTION, singer
    raise VerificationError("no primitive cubic over GF(%d)" % gf.q)


def singer_orbit_keys(s: Subspace, max_keys: int | None = None) -> set[int]:
    """The orbit of s as ``action.orbit_keys`` swept it before its cell
    sweep: the ``kernel_fiber`` F of an anchored s and F's images under
    S^1 .. S^(q^2+q), S the Singer cycle, which moves the anchor positions
    regularly, each image one generic mover map of the last; a count other
    than (q^2+q+1) |F| raises VerificationError."""
    pa, gens, n = packed_action(s.gf), singer_generators(s.gf), s.gf.q * s.gf.q + s.gf.q + 1
    move = pa.mover(pa.tables(gens[1]), len(s.rows))
    kernels = anchor(s)
    if not kernels:
        return subspace_orbit((s,), gens, max_keys)
    if len(kernels) == 3:
        return {s.key_int()}
    fiber = list(kernel_fiber((s,), kernels, max_keys))
    out, image = set(fiber), fiber
    for _ in range(n - 1):
        image = list(map(move, image))
        out.update(image)
        if max_keys is not None and len(out) > max_keys:
            raise ResourceBudgetError("orbit enumeration exceeded %d keys" % max_keys,
                                      partial=len(out))
    if len(out) != n * len(fiber):
        raise VerificationError("the Singer images of a kernel fiber overlap")
    return out


# -- stabilizers as element sets ----------------------------------------------


def mat3_inv(gf: GF, a) -> tuple[int, ...]:
    m = gf._mul
    d = mat3_det(gf, a)
    if d == 0:
        raise ValueError("singular matrix has no inverse")
    di = gf._inv[d]
    adj = (
        m[a[4]][a[8]] ^ m[a[5]][a[7]], m[a[2]][a[7]] ^ m[a[1]][a[8]], m[a[1]][a[5]] ^ m[a[2]][a[4]],
        m[a[5]][a[6]] ^ m[a[3]][a[8]], m[a[0]][a[8]] ^ m[a[2]][a[6]], m[a[2]][a[3]] ^ m[a[0]][a[5]],
        m[a[3]][a[7]] ^ m[a[4]][a[6]], m[a[1]][a[6]] ^ m[a[0]][a[7]], m[a[0]][a[4]] ^ m[a[1]][a[3]],
    )
    return tuple(m[di][v] for v in adj)


def mulclose(gf: GF, gens, limit: int | None = None) -> set[tuple[int, ...]]:
    """Closure of a generating set under products, all elements normalized."""
    gens = [normalize_point(gf, g) for g in gens]
    return closure(
        IDENTITY3, lambda x, k: normalize_point(gf, mat3_mul(gf, x, gens[k])), len(gens), limit)


def orbit_transversal(gf: GF, state0, act):
    """Breadth-first orbit of a state under ``generators(gf)``, applied by
    act(state, k).  Returns the witness of every state, the matrix that maps
    state0 to it, and its parent (p, k): the state p and generator k that
    first reached it, None for state0.  Both dicts are in discovery order."""
    gens = generators(gf)
    witness, parent = {state0: IDENTITY3}, {state0: None}
    frontier = [state0]
    while frontier:
        new = []
        for s in frontier:
            u = witness[s]
            for k in range(len(gens)):
                s2 = act(s, k)
                if s2 not in witness:
                    witness[s2] = normalize_point(gf, mat3_mul(gf, gens[k], u))
                    parent[s2] = (s, k)
                    new.append(s2)
        frontier = new
    return witness, parent


def stabilizer(gf: GF, state0, act):
    """Full stabilizer of a hashable state as a set of normalized matrices,
    the size of its orbit, and the Schreier generators whose closure it is.

    By Schreier's lemma the elements w(act(s, k))^-1 g_k w(s), with w the
    witnesses of ``orbit_transversal``, generate the stabilizer.  Those not
    yet in the closure are kept and closed as they come; the closure is
    returned once it reaches |group| / |orbit| (at once, with no
    generators, when that is 1), and an overshoot or a shortfall fails
    loudly."""
    gens = generators(gf)
    witness = orbit_transversal(gf, state0, act)[0]
    order = pgl_order(gf.q)
    if order % len(witness):
        raise VerificationError("orbit size %d does not divide %d" % (len(witness), order))
    target = order // len(witness)
    if target == 1:
        return {IDENTITY3}, len(witness), []
    picked: list[tuple[int, ...]] = []
    group: set[tuple[int, ...]] = {IDENTITY3}
    for s, u in witness.items():
        for k, a in enumerate(gens):
            h = normalize_point(
                gf, mat3_mul(gf, mat3_inv(gf, witness[act(s, k)]), mat3_mul(gf, a, u)))
            if h in group:
                continue
            picked.append(h)
            try:
                group = mulclose(gf, picked, limit=target)
            except ResourceBudgetError as exc:
                raise VerificationError(
                    "stabilizer closure overshot %d elements" % target) from exc
            if len(group) == target:
                return group, len(witness), picked
    raise VerificationError(
        "Schreier generators closed at %d, expected %d" % (len(group), target))
