"""The projectivity group of PG(2,q) acting on PG(5,q), q even.

A projectivity with matrix A acts on symmetric 3x3 matrices by congruence
M -> A M A^T; reading points of PG(5,q) as symmetric matrices, this lifts A
to a 6x6 matrix L with L . vec(M) = vec(A M A^T), which ``lift`` writes down
in closed form.  The lift is a group homomorphism up to scalars and commutes
with the Veronese embedding: lift(A) maps the image of p to the image of A p.

Matrices of PG(2,q) projectivities are flat 9-tuples (row-major),
normalized as points (``projgeom.normalize_point``): first nonzero entry 1.

Orbits are closed under ``generators``, the transvection I + E01 and a
closed-form M of primitive determinant that permutes the root groups.
``pgl_elements`` lists the whole group as the nonsingular points of PG(8,q).

Orbit work runs on packed rows: a 6-vector held as one int, e bits per
entry, first entry in the highest bits (the layout of ``projgeom.pack_rows``),
so a subspace key is its reduced packed rows joined together.  The action is
linear and addition is XOR, so the image of a packed row v is
``hi[v >> 3e] ^ lo[v & (2^3e - 1)]`` for two split tables of q^3 entries
each; scaling by c uses one such pair per c.  ``packed_action`` builds one
``PackedAction`` per field per process.  Its ``mover`` binds one matrix's
tables into a map from n-row keys to image keys for points, lines and
planes (n = 1, 2, 3): the one packed elimination, straight-line code with no
dependent-row branch, since a lift of an invertible matrix drops no row.
Every orbit walk steps through movers.  One breadth-first ``closure``
returns the set of states it reached; ``subspace_orbit`` runs it on the
``PackedAction.walk`` of a tuple of subspaces under any list of matrices.
A generator that is an involution, such as the transvection, never steps a
state back to the one it came from.  ``_kernel_move`` builds the one C,
which takes an ``anchor`` (from ``invariants``) to e0, with the generators
of e0's stabilizer H.  Every orbit question about an anchored subspace is
answered in H: ``kernel_fiber`` walks the subspaces carried by C,
``orbit_keys`` copies that fiber to every anchor position, cell by cell of
the positions under the lower unitriangular group (``_anchor_cells``),
``k_equivalent`` compares two fibers, ``atlas`` counts stabilizers by it,
and ``fiber_orbits`` splits lines by the stabilizer of subspaces that fix
an anchor.  A lower unitriangular matrix lifts to a lower unitriangular
one, which keeps every pivot, so its ``PackedAction.triangular_mover``
only back-substitutes.
``congruence_image`` moves one point, each diagonal entry of A M A^T a sum
of squares; ``act_subspace`` moves each basis row with it and reduces.
Layers import in one order: gf, projgeom, veronese, invariants, action,
atlas, cli.
"""

from __future__ import annotations

import functools

from .errors import ResourceBudgetError, VerificationError
from .gf import GF
from .invariants import anchor, nucleus_meet_dim, point_class_counts
from .projgeom import Subspace, mat3_det, normalize_point, pg_points, rref

IDENTITY3 = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def pgl_order(q: int) -> int:
    gl = (q**3 - 1) * (q**3 - q) * (q**3 - q * q)
    return gl // (q - 1)


def mat3_mul(gf: GF, a, b) -> tuple[int, ...]:
    mul = gf._mul
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    out: list[int] = []
    for i in (0, 3, 6):
        m0, m1, m2 = mul[a[i]], mul[a[i + 1]], mul[a[i + 2]]
        out += (m0[b0] ^ m1[b3] ^ m2[b6], m0[b1] ^ m1[b4] ^ m2[b7], m0[b2] ^ m1[b5] ^ m2[b8])
    return tuple(out)


def lift(gf: GF, a) -> tuple[tuple[int, ...], ...]:
    """The 6x6 matrix of the congruence action M -> A M A^T on vec(M).

    Coordinates are ordered (00, 01, 02, 11, 12, 22).  Row ik holds
    a_it a_kt in column tt and a_it a_ks + a_is a_kt in column ts, t < s.
    """
    mul = gf._mul
    out = []
    for i, k in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        x0, x1, x2 = mul[a[3 * i]], mul[a[3 * i + 1]], mul[a[3 * i + 2]]
        y0, y1, y2 = a[3 * k:3 * k + 3]
        out.append((
            x0[y0], x0[y1] ^ x1[y0], x0[y2] ^ x2[y0],
            x1[y1], x1[y2] ^ x2[y1], x2[y2],
        ))
    return tuple(out)


def congruence_image(gf: GF, a, y) -> tuple[int, ...]:
    """Image of a PG(5,q) point under the lift of a, normalized: vec(A M A^T)
    for the symmetric matrix M of y, without the 6x6 lift.  The cross terms
    of a diagonal entry cancel in characteristic 2, leaving sum_s m_ss a_is^2;
    entry ik off it is row_i . (M row_k), with v = M row_1, w = M row_2."""
    mul, sq = gf._mul, gf._sq
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    y0, y1, y2, y3, y4, y5 = y
    m0, m1, m2, m3, m4, m5 = mul[y0], mul[y1], mul[y2], mul[y3], mul[y4], mul[y5]
    u0, u1, u2 = mul[a0], mul[a1], mul[a2]
    v0, v1, v2 = m0[a3] ^ m1[a4] ^ m2[a5], m1[a3] ^ m3[a4] ^ m4[a5], m2[a3] ^ m4[a4] ^ m5[a5]
    w0, w1, w2 = m0[a6] ^ m1[a7] ^ m2[a8], m1[a6] ^ m3[a7] ^ m4[a8], m2[a6] ^ m4[a7] ^ m5[a8]
    return normalize_point(gf, (
        m0[sq[a0]] ^ m3[sq[a1]] ^ m5[sq[a2]], u0[v0] ^ u1[v1] ^ u2[v2], u0[w0] ^ u1[w1] ^ u2[w2],
        m0[sq[a3]] ^ m3[sq[a4]] ^ m5[sq[a5]], mul[a3][w0] ^ mul[a4][w1] ^ mul[a5][w2],
        m0[sq[a6]] ^ m3[sq[a7]] ^ m5[sq[a8]],
    ))


def act_subspace(s: Subspace, a) -> Subspace:
    """Image of a subspace under the lift of a, its rows moved by
    ``congruence_image``; builds no tables, so it serves every q."""
    return Subspace.from_rref(s.gf, s.n, rref(s.gf, [congruence_image(s.gf, a, r) for r in s.rows]))


# -- packed rows -----------------------------------------------------------


def _split_tables(gf: GF, l) -> tuple[list[int], list[int]]:
    """Split image tables of a 6x6 matrix l acting on packed rows.

    The image of a packed row v is hi[v >> 3e] ^ lo[v & (2^3e - 1)]: the
    first three entries of v index hi, the last three index lo.
    """
    e, mul = gf.e, gf._mul
    # col[j][c]: c times column j of l, packed
    col = [
        [sum(mul[c][l[i][j]] << (5 - i) * e for i in range(6)) for c in gf.elements]
        for j in range(6)
    ]
    hi = [x ^ y ^ z for x in col[0] for y in col[1] for z in col[2]]
    lo = [x ^ y ^ z for x in col[3] for y in col[4] for z in col[5]]
    return hi, lo


class PackedAction:
    """Projectivities acting on packed-row points, lines and planes of PG(5,q).

    Holds the scale tables of the field, one split pair per nonzero c in
    the ``shi``/``slo`` lists; ``tables(a)`` builds the split image tables
    of lift(a), once per matrix.  A subspace with n basis rows is passed around as its
    packed key, and ``mover(tables, n)`` maps it to its image key for n in
    1..3, the only packed elimination.  Every table has q^3 entries, so
    this serves only the small fields where orbits can be enumerated.
    """

    def __init__(self, gf: GF):
        if gf.q > 16:
            raise ResourceBudgetError(
                "packed orbit tables are limited to q <= 16, got q=%d" % gf.q)
        self.gf = gf
        e = gf.e
        self.w, self.s3 = 6 * e, 3 * e
        self.m6, self.m3 = (1 << 6 * e) - 1, (1 << 3 * e) - 1
        scale = [_split_tables(gf, [[c if i == j else 0 for j in range(6)] for i in range(6)])
                 for c in gf.nonzero]
        self.shi = [None] + [hi for hi, _ in scale]
        self.slo = [None] + [lo for _, lo in scale]
        # pivot[b]: shift of the highest nonzero e-bit field of a row of bit length b
        self.pivot = [0] + [(b - 1) // e * e for b in range(1, 6 * e + 1)]
        self._tables: dict = {}

    def tables(self, a) -> tuple[list[int], list[int]]:
        if a not in self._tables:
            self._tables[a] = _split_tables(self.gf, lift(self.gf, a))
        return self._tables[a]

    def walk(self, subspaces, gens):
        """``closure``'s (start, step, involutions) for subspaces under ``gens``:
        a state is one key or a tuple of keys; an involution squares to I."""
        gf = self.gf
        tables = [self.tables(a) for a in gens]
        involutions = [i for i, a in enumerate(gens)
                       if normalize_point(gf, mat3_mul(gf, a, a)) == IDENTITY3]
        movers = [[self.mover(t, len(s.rows)) for t in tables] for s in subspaces]
        if len(movers) == 1:
            (m,) = movers
            return subspaces[0].key_int(), lambda k, i: m[i](k), involutions
        step = lambda st, i: tuple(m[i](k) for m, k in zip(movers, st))
        return tuple(s.key_int() for s in subspaces), step, involutions

    def mover(self, tables, n: int):
        """The map key -> image key of n-row subspaces under ``tables``,
        n = 1, 2 or 3; other n raise ValueError.

        The elimination is straight-line: map the rows, normalize the first,
        then reduce, normalize and back-substitute the second and the third,
        and order the rows by at most three pivot comparisons.  The tables
        are those of an invertible matrix, so no mapped row is dependent and
        none is dropped."""
        if not 1 <= n <= 3:
            raise ValueError("packed movers take 1 to 3 rows, got %d" % n)
        hi, lo = tables
        w, s3, m3, m6 = self.w, self.s3, self.m3, self.m6
        shi, slo, pivot = self.shi, self.slo, self.pivot
        m, inv = self.gf.q - 1, self.gf._inv

        def move1(key):
            a = hi[key >> s3] ^ lo[key & m3]
            c = a >> pivot[a.bit_length()]
            if c != 1:
                c = inv[c]
                a = shi[c][a >> s3] ^ slo[c][a & m3]
            return a

        def move2(key):
            a, b = key >> w, key & m6
            a = hi[a >> s3] ^ lo[a & m3]
            b = hi[b >> s3] ^ lo[b & m3]
            sa = pivot[a.bit_length()]
            c = a >> sa
            if c != 1:
                c = inv[c]
                a = shi[c][a >> s3] ^ slo[c][a & m3]
            c = (b >> sa) & m
            if c:
                b ^= shi[c][a >> s3] ^ slo[c][a & m3]
            sb = pivot[b.bit_length()]
            c = b >> sb
            if c != 1:
                c = inv[c]
                b = shi[c][b >> s3] ^ slo[c][b & m3]
            c = (a >> sb) & m
            if c:
                a ^= shi[c][b >> s3] ^ slo[c][b & m3]
            return a << w | b if sa > sb else b << w | a

        def move3(key):
            a, b, d = key >> 2 * w, (key >> w) & m6, key & m6
            a = hi[a >> s3] ^ lo[a & m3]
            b = hi[b >> s3] ^ lo[b & m3]
            d = hi[d >> s3] ^ lo[d & m3]
            sa = pivot[a.bit_length()]
            c = a >> sa
            if c != 1:
                c = inv[c]
                a = shi[c][a >> s3] ^ slo[c][a & m3]
            ah, al = a >> s3, a & m3
            c = (b >> sa) & m
            if c:
                b ^= shi[c][ah] ^ slo[c][al]
            c = (d >> sa) & m
            if c:
                d ^= shi[c][ah] ^ slo[c][al]
            sb = pivot[b.bit_length()]
            c = b >> sb
            if c != 1:
                c = inv[c]
                b = shi[c][b >> s3] ^ slo[c][b & m3]
            bh, bl = b >> s3, b & m3
            c = (a >> sb) & m
            if c:
                a ^= shi[c][bh] ^ slo[c][bl]
            c = (d >> sb) & m
            if c:
                d ^= shi[c][bh] ^ slo[c][bl]
            sd = pivot[d.bit_length()]
            c = d >> sd
            if c != 1:
                c = inv[c]
                d = shi[c][d >> s3] ^ slo[c][d & m3]
            dh, dl = d >> s3, d & m3
            c = (a >> sd) & m
            if c:
                a ^= shi[c][dh] ^ slo[c][dl]
            c = (b >> sd) & m
            if c:
                b ^= shi[c][dh] ^ slo[c][dl]
            if sa > sb:
                if sb > sd:
                    return (a << w | b) << w | d
                if sa > sd:
                    return (a << w | d) << w | b
                return (d << w | a) << w | b
            if sa > sd:
                return (b << w | a) << w | d
            if sb > sd:
                return (b << w | d) << w | a
            return (d << w | b) << w | a

        return (move1, move2, move3)[n - 1]

    def triangular_mover(self, a, n: int):
        """``mover(tables(a), n)`` for a lower unitriangular a, any other a
        refused with ValueError before a table is built.  lift(a) is lower
        unitriangular in (00, 01, 02, 11, 12, 22), so a mapped row keeps its
        pivot and pivot entry 1 and the rows stay in order: a plane needs at
        most three conditional eliminations, a line one and a point none.
        One move serves all three, a key of fewer rows reading as zero rows
        above its own, which map to zero and eliminate nothing."""
        if (a[0], a[1], a[2], a[4], a[5], a[8]) != (1, 0, 0, 1, 0, 1):
            raise ValueError("not lower unitriangular: %r" % (a,))
        if not 1 <= n <= 3:
            raise ValueError("packed movers take 1 to 3 rows, got %d" % n)
        hi, lo = self.tables(a)
        w, s3, m3, m6 = self.w, self.s3, self.m3, self.m6
        shi, slo, pivot, m = self.shi, self.slo, self.pivot, self.gf.q - 1

        def move(key):
            a, b, d = key >> 2 * w, (key >> w) & m6, key & m6
            a = hi[a >> s3] ^ lo[a & m3]
            b = hi[b >> s3] ^ lo[b & m3]
            d = hi[d >> s3] ^ lo[d & m3]
            sd = pivot[d.bit_length()]
            c = (b >> sd) & m
            if c:
                b ^= shi[c][d >> s3] ^ slo[c][d & m3]
            c = (a >> sd) & m
            if c:
                a ^= shi[c][d >> s3] ^ slo[c][d & m3]
            c = (a >> pivot[b.bit_length()]) & m
            if c:
                a ^= shi[c][b >> s3] ^ slo[c][b & m3]
            return (a << w | b) << w | d

        return move

packed_action = functools.cache(PackedAction)


# -- generators and the group ---------------------------------------------


TRANSVECTION = (1, 1, 0, 0, 1, 0, 0, 0, 1)


def generators(gf: GF) -> tuple[tuple[int, ...], ...]:
    """The transvection x01(1) and M = [[0,0,w],[1,0,0],[0,1,0]] normalized,
    w = ``gf.primitive_element()``, which generate PGL(3,q) for every even q.

    With xij(t) = I + t Eij, conjugation by M (e0 -> e1 -> e2 -> w e0) takes
    x01(t) -> x12(t), x12(t) -> x20(t/w) and x20(t) -> x01(wt), and the
    commutator of xij(a) and xjk(b) is xik(ab).  So with x01(t) the group
    holds x20(t/w), x21(t/w) = [x20(t/w), x01(1)], x02(1) = [x01(1), x12(1)]
    and x01(t/w) = [x02(1), x21(t/w)]: x01 holds every power of w, so all
    of GF(q), and its conjugates and commutators fill the other five root
    groups, so SL(3,q) (Taylor, The Geometry of the Classical Groups).  And
    det M = w (w^-2 normalized, q - 1 odd) is primitive, so GL(3,q)."""
    w = gf.primitive_element()
    return TRANSVECTION, normalize_point(gf, (0, 0, w, 1, 0, 0, 0, 1, 0))


def pgl_elements(gf: GF):
    """The full projectivity group as normalized matrices (q <= 4): the
    nonsingular points of PG(8,q), in ``pg_points`` order, which builds them
    as one list (87,381 at q = 4).  Only the tests' group filters and a
    perfbench tracer target read it."""
    return (a for a in pg_points(gf, 8) if mat3_det(gf, a))


# -- orbits ----------------------------------------------------------------


def closure(start, step, ngens: int, max_keys: int | None = None, involutions=()) -> set:
    """Breadth-first closure of ``start`` under ``step(state, i)``, i < ngens.

    Returns the set of states reached, and raises ResourceBudgetError once
    there are more than ``max_keys`` states.
    Generators listed in ``involutions`` are their own inverse: a state
    first reached by one is not stepped by it again, since that step leads
    back to a state already found.
    """
    # found[j] picks the moves of frontier[j]: 0 for all, n for all but
    # involutions[n - 1], the one that first reached it; one byte per state
    moves = [range(ngens)] + [[j for j in range(ngens) if j != i] for i in involutions]
    code = {i: n for n, i in enumerate(involutions, 1)}
    seen = {start}
    frontier, found = [start], bytearray(1)
    while frontier:
        new, new_found = [], bytearray()
        for k, c in zip(frontier, found):
            for i in moves[c]:
                k2 = step(k, i)
                if k2 not in seen:
                    seen.add(k2)
                    if max_keys is not None and len(seen) > max_keys:
                        raise ResourceBudgetError(
                            "orbit enumeration exceeded %d keys" % max_keys,
                            partial=len(seen),
                        )
                    new.append(k2)
                    new_found.append(code.get(i, 0))
        frontier, found = new, new_found
    return seen


def subspace_orbit(subspaces, gens, max_keys: int | None = None) -> set:
    """Orbit of a tuple of subspaces under the group generated by the
    matrices ``gens``: one ``closure`` of their ``PackedAction.walk``."""
    start, step, involutions = packed_action(subspaces[0].gf).walk(subspaces, gens)
    return closure(start, step, len(gens), max_keys, involutions)


def _kernel_subgroup_generators(gf: GF, point: bool) -> tuple[tuple[int, ...], ...]:
    """x12(1), x21(1), x10(1) (point) or x01(1) (line), diag(1, w, 1) for w
    primitive: its conjugates of x12(1), x21(1) give GL(2,q) in the lower
    block, whose conjugates of the third give every translation of H."""
    return ((1, 0, 0, 0, 1, 1, 0, 0, 1), (1, 0, 0, 0, 1, 0, 0, 1, 1),
            (1, 0, 0, 1, 1, 0, 0, 0, 1) if point else (1, 1, 0, 0, 1, 0, 0, 0, 1),
            (1, 0, 0, 0, gf.primitive_element(), 0, 0, 0, 1))


def _kernel_move(gf: GF, kernels):
    """(C, generators of H) for ``kernels`` an ``anchor``, u or two spanning
    a line of dual w: C, whose first row is u or last two rows the kernels
    (unit vectors fill the rest), moves u or w to e0, whose stabilizer H is
    the q^3 (q-1) (q^2-1) normalized matrices with first row, or first
    column, (1,0,0).  The one place C is built."""
    pivots = [r.index(1) for r in rref(gf, kernels)]
    units = [tuple(int(i == j) for i in range(3)) for j in range(3) if j not in pivots]
    point = len(kernels) == 1
    c = sum(kernels + units if point else units + kernels, ())
    return c, _kernel_subgroup_generators(gf, point)


def kernel_fiber(subspaces, kernels, max_keys: int | None = None) -> set:
    """Orbit under H of the ``subspaces`` moved by C (``_kernel_move``), for
    ``kernels`` an ``anchor`` fixed by their stabilizer; for one subspace,
    its orbit's members anchored at e0."""
    c, gens = _kernel_move(subspaces[0].gf, kernels)
    return subspace_orbit(tuple(act_subspace(s, c) for s in subspaces), gens, max_keys)


def fiber_orbits(fixed, lines: dict, kernels) -> tuple[list[set[int]], int]:
    """(orbits, |H (C fixed)|): the orbits of the stabilizer S of the
    subspaces ``fixed`` on the ``lines`` (packed key -> line), as sets of
    those keys in order of least key, for ``kernels`` an ``anchor`` that S
    fixes.  With C from ``_kernel_move``, C S C^-1 lies in H, and the orbit
    of C l is the fiber {l' : (C fixed, l') in H (C fixed, C l)}.  H (C fixed)
    is tabled by one walk, so a fiber's closure moves only the line; an
    orbit that leaves the given lines raises VerificationError."""
    gf = fixed[0].gf
    c, gens = _kernel_move(gf, kernels)
    pa = packed_action(gf)
    head, step, involutions = pa.walk(tuple(act_subspace(s, c) for s in fixed), gens)
    table = {}  # (state, i) -> image: each met once, no involution skipped
    size = len(closure(head, lambda st, i: table.setdefault((st, i), step(st, i)), len(gens)))
    movers = [pa.mover(pa.tables(a), 2) for a in gens]
    own = {act_subspace(l, c).key_int(): k for k, l in sorted(lines.items())}
    orbits, placed = [], set()
    for m, k in own.items():
        if k in placed:
            continue
        seen = closure((head, m), lambda st, i: (table[st[0], i], movers[i](st[1])),
                       len(gens), involutions=involutions)
        comp = {line for st, line in seen if st == head}
        if not comp <= own.keys():
            raise VerificationError("a line orbit leaves its candidate set")
        orbits.append({own[line] for line in comp})
        placed |= orbits[-1]
    return orbits, size


SWAP01 = (0, 1, 0, 1, 0, 0, 0, 0, 1)
SWAP02 = (0, 0, 1, 0, 1, 0, 1, 0, 0)


def _anchor_cells(gf: GF, point: bool):
    """The anchor positions' cells under the lower unitriangular group, as
    (swap moving e0 into the cell or None, the x_ij(t) over the GF(2)-basis
    t = 1, 2, 4, ... of GF(q) that walk the cell from there once).  Points
    move by A^-T (cells of 1, q, q^2), lines by A (cells of q^2, q, 1)."""

    def x(i, j):
        return [tuple(t if k == 3 * i + j else IDENTITY3[k] for k in range(9))
                for t in (1 << b for b in range(gf.e))]

    if point:
        return (None, []), (SWAP01, x(1, 0)), (SWAP02, x(2, 0) + x(2, 1))
    return (None, x(1, 0) + x(2, 0)), (SWAP01, x(2, 1)), (SWAP02, [])


def orbit_keys(s: Subspace, max_keys: int | None = None) -> set[int]:
    """Packed keys of the full orbit of s, refused for q > 16 before any
    table is built, for other than 1 to 3 rows before its anchor is sought,
    and once more than ``max_keys`` keys are held.

    A point, line or plane with an ``anchor`` is the union of q^2+q+1
    copies of its ``kernel_fiber`` F, one per anchor position, swept cell
    by cell (``_anchor_cells``): a cell's first copy is F or its image under
    the cell's swap, and each further copy is one ``triangular_mover`` map
    of the last, so one copy is held at a time.  A count other than
    (q^2+q+1) |F| raises VerificationError.  The nucleus plane is its own
    orbit; a plane missing it is a ``closure``."""
    pa, n = packed_action(s.gf), len(s.rows)
    swaps = {a: pa.mover(pa.tables(a), n) for a in (SWAP01, SWAP02)}
    kernels = anchor(s)
    if not kernels:
        return subspace_orbit((s,), generators(s.gf), max_keys)
    if len(kernels) == 3:
        return {s.key_int()}
    fiber = list(kernel_fiber((s,), kernels, max_keys))
    out = set()
    for base, gens in _anchor_cells(s.gf, len(kernels) == 1):
        image = fiber if base is None else list(map(swaps[base], fiber))
        moves = [pa.triangular_mover(a, n) for a in gens]
        # Gray code order: copy i is copy i - 1 moved by the generator of
        # i's lowest set bit, so each element of the cell's group is met once
        for i in range(1 << len(moves)):
            if i:
                image = list(map(moves[(i & -i).bit_length() - 1], image))
            out.update(image)
            if max_keys is not None and len(out) > max_keys:
                raise ResourceBudgetError("orbit enumeration exceeded %d keys" % max_keys,
                                          partial=len(out))
    if len(out) != (s.gf.q**2 + s.gf.q + 1) * len(fiber):
        raise VerificationError("the cell images of a kernel fiber overlap")
    return out


def k_equivalent(s1: Subspace, s2: Subspace, max_keys: int | None = None) -> bool:
    """Same orbit?  Cheap invariants first.  Then a point or line anchor
    compares the two ``kernel_fiber`` sets, each an H-orbit, so equal or
    disjoint; the nucleus plane, or a plane missing it, looks s2 up in
    ``orbit_keys`` of s1.  ``max_keys`` caps each walk."""
    if s1.gf != s2.gf or s1.n != s2.n:
        raise ValueError("subspaces live in different spaces")
    if len(s1.rows) != len(s2.rows):
        return False
    if nucleus_meet_dim(s1) != nucleus_meet_dim(s2):
        return False
    if point_class_counts(s1) != point_class_counts(s2):
        return False
    kernels = anchor(s1)
    if len(kernels) in (1, 2):
        return kernel_fiber((s1,), kernels, max_keys) == kernel_fiber((s2,), anchor(s2), max_keys)
    return s2.key_int() in orbit_keys(s1, max_keys)

