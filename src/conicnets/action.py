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
each; scaling by c uses one such pair per c.  ``packed_action`` reads the
field's one ``PackedAction`` from its store (``gf.per_field``), built on
first use and dropped by ``GF.forget``.  Its ``mover`` binds one matrix's
tables into the one move of points, lines and planes, which reads a key as
a plane: a line's has one zero row on top and a point's two, which map to
zero and eliminate nothing.  The move is straight-line code with no
dependent-row branch, since a lift of an invertible matrix drops no row;
``PackedAction.key`` refuses any other row count.
Every orbit walk moves one subspace's key, one int per state, under
``PackedAction.movers``, and one breadth-first ``closure`` returns the states
it reached; ``subspace_orbit`` runs it under any matrices.
``_kernel_move`` builds the one C, which takes an ``anchor`` (from
``invariants``) to e0, with the generators of e0's stabilizer H.  Every
orbit question about an anchored subspace is answered in H:
``kernel_fiber`` walks the subspace carried by C, by radical blocks where
it is large, ``orbit_keys`` copies that fiber to every anchor position,
cell by cell of the positions under the lower unitriangular group
(``_anchor_cells``), ``k_equivalent`` compares two fibers, and ``atlas``
counts stabilizers by it.  A stabilizer given by generators is closed by
``group_order`` and splits lines by ``line_orbits``.  A lower unitriangular
matrix lifts to a lower unitriangular one, which keeps every pivot, so its
``PackedAction.triangular_mover`` only back-substitutes, and on the big
Schubert cell ``_plane_sweep`` moves a copy's keys in bulk.
``congruence_image`` and ``act_subspace`` move a point and a subspace
without tables.  Layers import in one order: gf, projgeom, veronese,
invariants, action, atlas, cli.
"""

from __future__ import annotations

import sys
from itertools import accumulate

from .errors import ResourceBudgetError, VerificationError
from .gf import GF, per_field
from .invariants import anchor, nucleus_meet_dim, point_class_counts
from .projgeom import Subspace, mat3_det, normalize_point, pg_points, rref

IDENTITY3 = (1, 0, 0, 0, 1, 0, 0, 0, 1)
_BYTE0 = 0 if sys.byteorder == "little" else 7  # key byte i is native record byte i ^ _BYTE0


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


def _lower_unitriangular(a) -> bool:
    """Whether the matrix a has unit diagonal and zeros above it."""
    return (a[0], a[1], a[2], a[4], a[5], a[8]) == (1, 0, 0, 1, 0, 1)


class PackedAction:
    """Projectivities acting on packed-row points, lines and planes of PG(5,q).

    Holds the scale tables of the field, one split pair per nonzero c in
    the ``shi``/``slo`` lists; ``tables(a)`` builds the split image tables
    of lift(a), once per matrix.  A point, line or plane is passed around
    as its packed ``key``, and ``mover(tables)`` maps it to its image key.
    Every table has q^3 entries, so this serves only the small fields where
    orbits can be enumerated.
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
        # pivot[b]: shift of the highest nonzero e-bit field of a row of bit length b;
        # a zero row's 6e sorts it above every real row
        self.pivot = [6 * e] + [(b - 1) // e * e for b in range(1, 6 * e + 1)]
        self._tables: dict = {}
        self._cells: dict = {}

    def tables(self, a) -> tuple[list[int], list[int]]:
        if a not in self._tables:
            self._tables[a] = _split_tables(self.gf, lift(self.gf, a))
        return self._tables[a]

    def key(self, s: Subspace) -> int:
        """The packed key of s, refused with ValueError unless s has 1 to 3
        rows: the one row-count check of every mover."""
        if not 1 <= len(s.rows) <= 3:
            raise ValueError("packed movers take 1 to 3 rows, got %d" % len(s.rows))
        return s.key_int()

    def movers(self, gens) -> list:
        """One map key -> image key per matrix of ``gens``:
        ``triangular_mover`` for a lower unitriangular one, else ``mover`` on
        its ``tables``.  The one place a matrix's mover is picked."""
        return [self.triangular_mover(a) if _lower_unitriangular(a)
                else self.mover(self.tables(a)) for a in gens]

    def mover(self, tables):
        """The map key -> image key under ``tables`` of a point, line or
        plane, each read as a plane with zero rows on top (pivot 6e, pivot
        entry 0: such a row sorts first and eliminates nothing): map the
        rows, normalize the first, then reduce, normalize and back-substitute
        the second and the third, and order the rows by at most three pivot
        comparisons.  The tables are those of an invertible matrix, so no
        mapped row is dependent and none is dropped."""
        hi, lo = tables
        w, s3, m3, m6 = self.w, self.s3, self.m3, self.m6
        shi, slo, pivot = self.shi, self.slo, self.pivot
        m, inv = self.gf.q - 1, self.gf._inv

        def move3(key):
            a, b, d = key >> 2 * w, (key >> w) & m6, key & m6
            a = hi[a >> s3] ^ lo[a & m3]
            b = hi[b >> s3] ^ lo[b & m3]
            d = hi[d >> s3] ^ lo[d & m3]
            sa = pivot[a.bit_length()]
            c = a >> sa
            if c > 1:
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
            if c > 1:
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
            if c > 1:
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

        return move3

    def triangular_mover(self, a):
        """``mover(tables(a))`` for a lower unitriangular a, any other a
        refused with ValueError before a table is built.  lift(a) is lower
        unitriangular in (00, 01, 02, 11, 12, 22), so a mapped row keeps its
        pivot and pivot entry 1 and the rows stay in order: a plane needs at
        most three conditional eliminations, a line one and a point none.
        One move serves all three, a key of fewer rows reading as zero rows
        above its own, which map to zero and eliminate nothing."""
        if not _lower_unitriangular(a):
            raise ValueError("not lower unitriangular: %r" % (a,))
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

    def big_cell(self, n: int) -> tuple[int, int]:
        """(mask, identity block) of the n-row keys pivoted on the first n coordinates."""
        e, rows = self.gf.e, range(0, n * self.w, self.w)
        return (sum(((1 << n * e) - 1) << (6 - n) * e + r for r in rows),
                sum(1 << (6 - n + k) * e + r for k, r in enumerate(rows)))

    def cell_tables(self, a, n: int) -> list:
        """``triangular_mover(a)`` on ``big_cell(n)``, where it is GF(2)-affine
        in the free bits, as ``_plane_sweep`` tables kept per (a, n): entry o
        lists the (i, t) whose translates by t of key byte i XOR to image byte
        o, the identity block's image in byte 0's."""
        if (a, n) not in self._cells:
            move, (mask, ident) = self.triangular_mover(a), self.big_cell(n)
            size, free = min(8, -(-n * self.w // 8)), ((1 << n * self.w) - 1) & ~mask
            base, tables = move(ident), []
            for i in range(size):
                entries = [0 if i else base]
                for b in range(8 * i, 8 * i + 8):
                    col = move(ident | 1 << b) ^ base if free >> b & 1 else 0
                    entries += [x ^ col for x in entries]
                recs = _records(entries)
                tables.append([recs[o ^ _BYTE0::8] for o in range(size)])
            self._cells[a, n] = [[(i, t[o]) for i, t in enumerate(tables) if any(t[o])]
                                 for o in range(size)]
        return self._cells[a, n]


def _records(keys) -> bytes:
    """The keys' low 64 bits as native 8-byte words."""
    from array import array  # only here: a classify request never loads it

    return array("Q", map(((1 << 64) - 1).__and__, keys)).tobytes()


def _plane_sweep(keys, steps, high: int):
    """The big-cell ``keys``, then their images along ``steps`` (``cell_tables``),
    as iterables of keys, held as ``_records``, one bytes plane per key byte.
    Past bit 64 each key holds the pivot bits ``high`` (planes at q = 16)."""
    recs = _records(keys)
    for tables in [None, *steps]:
        if tables:
            planes, recs = [recs[i ^ _BYTE0::8] for i in range(len(tables))], bytearray(len(recs))
            for o, terms in enumerate(tables):
                x = 0
                for i, t in terms:
                    x ^= int.from_bytes(planes[i].translate(t), "little")
                recs[o ^ _BYTE0::8] = x.to_bytes(len(recs) // 8, "little")
        words = memoryview(recs).cast("Q")
        yield map(high.__or__, words) if high else words


@per_field
def packed_action(gf: GF) -> PackedAction:
    """The field's ``PackedAction``; a refused field stores nothing."""
    return PackedAction(gf)


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


def _budget(held: int, max_keys: int | None) -> None:
    """Refuse with ResourceBudgetError once more than ``max_keys`` keys are held."""
    if max_keys is not None and held > max_keys:
        raise ResourceBudgetError("orbit enumeration exceeded %d keys" % max_keys, partial=held)


def closure(start, moves, max_keys: int | None = None) -> set:
    """The set of states a breadth-first walk reaches from ``start`` under
    the maps ``moves``, refused (``_budget``) past ``max_keys`` states."""
    seen, frontier = {start}, [start]
    while frontier:
        new = []
        for k in frontier:
            for move in moves:
                k2 = move(k)
                if k2 not in seen:
                    seen.add(k2)
                    _budget(len(seen), max_keys)
                    new.append(k2)
        frontier = new
    return seen


def subspace_orbit(s: Subspace, gens, max_keys: int | None = None) -> set:
    """Packed keys of the orbit of s under the group generated by the
    matrices ``gens``: one ``closure`` of s's key under their movers."""
    pa = packed_action(s.gf)
    return closure(pa.key(s), pa.movers(gens), max_keys)


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


def _gray(moves) -> list:
    """Gray-code steps of the group on the GF(2)-basis ``moves``, each element met once."""
    return [moves[(i & -i).bit_length() - 1] for i in range(1, 1 << len(moves))]


def _radical_basis(gf: GF, gens) -> list:
    """A GF(2)-basis of the radical U of H, x10(s) x20(t) or x01(s) x02(t):
    r(t) = I + tN for the third of ``gens``, r = I + N, and t = 1, 2, 4, ...,
    and their conjugates by the Levi involution x21(1) or x12(1) that moves them."""
    roots = [tuple(x if i % 4 == 0 else gf._mul[1 << b][x] for i, x in enumerate(gens[2]))
             for b in range(gf.e)]
    return list(dict.fromkeys(roots + [mat3_mul(gf, mat3_mul(gf, s, x), s)
                                       for s in gens[:2] for x in roots]))


def kernel_fiber(s: Subspace, kernels, max_keys: int | None = None):
    """Keys of the orbit under H of s moved by C (``_kernel_move``), as a set
    or a set-like key view: for ``kernels`` the ``anchor`` of s, the members
    of its orbit anchored at e0.

    H = U L, U the normal radical and L the Levi block GL(2,q), so the
    U-orbits are blocks of one size that L permutes.  U x0 is swept first
    (``_gray``); from q^2/2 states on, a ``closure`` walks L on blocks, each
    new one swept whole, else ``subspace_orbit`` walks H.  A count other
    than blocks |U x0| raises VerificationError; ``max_keys`` bounds all the
    states held, checked after each block is swept."""
    gf, pa = s.gf, packed_action(s.gf)
    c, gens = _kernel_move(gf, kernels)
    moved = act_subspace(s, c)
    start, gray = pa.key(moved), _gray(pa.movers(_radical_basis(gf, gens)))
    sweep = lambda y: accumulate(gray, lambda k, move: move(k), initial=y)
    head = {}  # state -> the state its block was swept from

    def held(y):
        if y not in head:
            head.update(dict.fromkeys(sweep(y), y))
            _budget(len(head), max_keys)
        return head[y]

    held(start)
    block = len(head)
    if 2 * block < gf.q**2:
        return subspace_orbit(moved, gens, max_keys)
    levi = pa.movers(gens[:2] + gens[3:])
    blocks = closure(start, [lambda k, move=move: held(move(k)) for move in levi])
    if len(head) != len(blocks) * block:
        raise VerificationError("the radical blocks of a kernel fiber overlap")
    return head.keys()


def group_order(gf: GF, gens) -> int:
    """The order of the group the matrices ``gens`` generate: one ``closure``
    of the identity under right multiplication, one normalized matrix a state."""
    return len(closure(IDENTITY3, [lambda a, g=g: normalize_point(gf, mat3_mul(gf, a, g))
                                   for g in gens]))


def line_orbits(lines: dict, gens) -> list[set[int]]:
    """The orbits on ``lines`` (packed key -> line) of the group the matrices
    ``gens`` generate, as key sets in order of least key, one
    ``subspace_orbit`` each; one leaving the lines raises VerificationError."""
    orbits = []
    for k in sorted(lines):
        if not any(k in orbit for orbit in orbits):
            orbits.append(subspace_orbit(lines[k], gens))
            if not orbits[-1] <= lines.keys():
                raise VerificationError("a line orbit leaves its candidate set")
    return orbits


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
    table is built, for other than 1 to 3 rows (``PackedAction.key``)
    before its anchor is sought, and once more than ``max_keys`` keys are
    held.

    A point, line or plane with an ``anchor`` is the union of q^2+q+1
    copies of its ``kernel_fiber`` F, one per anchor position, swept cell
    by cell (``_anchor_cells``): a cell's first copy is F or its image under
    the cell's swap, and each further copy is the last moved by one cell
    generator, its keys of the big Schubert cell by ``_plane_sweep`` and the
    others by ``triangular_mover``, so one copy is held at a time.  A count
    other than (q^2+q+1) |F| raises VerificationError.  The nucleus plane is
    its own orbit; a plane missing it is a ``closure``."""
    pa, n = packed_action(s.gf), len(s.rows)
    start, kernels = pa.key(s), anchor(s)
    if not kernels:
        return subspace_orbit(s, generators(s.gf), max_keys)
    if len(kernels) == 3:
        return {start}
    fiber = list(kernel_fiber(s, kernels, max_keys))
    (mask, cell), out = pa.big_cell(n), set()
    for base, gens in _anchor_cells(s.gf, len(kernels) == 1):
        image = fiber if base is None else list(map(pa.movers([base])[0], fiber))
        gray = _gray(gens)
        big = _plane_sweep([k for k in image if k & mask == cell],
                           [pa.cell_tables(a, n) for a in gray], cell >> 64 << 64)
        rest = accumulate(pa.movers(gray), lambda ks, m: [*map(m, ks)],
                          initial=[k for k in image if k & mask != cell])
        for copy in zip(big, rest):
            out.update(*copy)
            _budget(len(out), max_keys)
    if len(out) != (s.gf.q**2 + s.gf.q + 1) * len(fiber):
        raise VerificationError("the cell images of a kernel fiber overlap")
    return out


def k_equivalent(s1: Subspace, s2: Subspace, max_keys: int | None = None) -> bool:
    """Same orbit?  Cheap invariants first.  Then a point or line anchor
    compares the two ``kernel_fiber`` sets, each an H-orbit, so equal or
    disjoint.  With three kernels both hold the nucleus plane, and G is
    transitive on the subspaces through it of one dimension; a plane
    missing it looks s2 up in its ``subspace_orbit``.  ``max_keys`` caps each walk."""
    if s1.gf != s2.gf or s1.n != s2.n:
        raise ValueError("subspaces live in different spaces")
    cheap = (lambda s: len(s.rows), nucleus_meet_dim, point_class_counts)
    if any(f(s1) != f(s2) for f in cheap):
        return False
    kernels = anchor(s1)
    if len(kernels) in (1, 2):
        return kernel_fiber(s1, kernels, max_keys) == kernel_fiber(s2, anchor(s2), max_keys)
    return bool(kernels) or s2.key_int() in subspace_orbit(s1, generators(s1.gf), max_keys)

