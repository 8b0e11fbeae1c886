"""Projective geometry over GF(q): points, subspaces, enumeration.

Points of PG(n, q) are (n+1)-tuples of field ints, normalized so the first
nonzero coordinate is 1.  A subspace is held as its canonical reduced
row-echelon basis (pivot columns strictly increasing, pivots 1, zeros above
and below), which makes equality testing and hashing structural.  The
packed-int form of that basis doubles as the orbit hash key; its hex string
is the stable serialization.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod

from .gf import GF


# -- row reduction ------------------------------------------------------


def rref(gf: GF, rows) -> tuple[tuple[int, ...], ...]:
    """Canonical reduced row-echelon form; zero rows are dropped."""
    mul, inv = gf._mul, gf._inv
    work = [list(r) for r in rows]
    if not work:
        return ()
    n, r = len(work), 0
    for c in range(len(work[0])):
        for i in range(r, n):
            if work[i][c]:
                break
        else:
            continue
        prow = work[i]
        work[i] = work[r]
        if prow[c] != 1:
            m = mul[inv[prow[c]]]
            prow = [m[v] for v in prow]
        work[r] = prow
        for i in range(n):
            row = work[i]
            if row[c] and i != r:
                mf = mul[row[c]]
                work[i] = [x ^ mf[y] for x, y in zip(row, prow)]
        r += 1
        if r == n:
            break
    return tuple(map(tuple, work[:r]))


def rank(gf: GF, rows) -> int:
    return len(rref(gf, rows))


def mat3_det(gf: GF, a) -> int:
    mul = gf._mul
    return (
        mul[a[0]][mul[a[4]][a[8]] ^ mul[a[5]][a[7]]]
        ^ mul[a[1]][mul[a[3]][a[8]] ^ mul[a[5]][a[6]]]
        ^ mul[a[2]][mul[a[3]][a[7]] ^ mul[a[4]][a[6]]]
    )


def annihilator(gf: GF, red, width: int) -> tuple[tuple[int, ...], ...]:
    """Basis of {v : row . v = 0 for every row} for rows ``red`` already in
    canonical RREF, one vector per free column, read off without reduction
    (each row's pivot is its first 1); ``nullspace`` reduces it."""
    pivots = [row.index(1) for row in red]
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * width
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = red[i][f]  # characteristic 2: no sign flip
        basis.append(tuple(v))
    return tuple(basis)


def nullspace(gf: GF, rows, width: int) -> tuple[tuple[int, ...], ...]:
    """RREF basis of {v : row . v = 0 for every row}, rows as row vectors."""
    return rref(gf, annihilator(gf, rref(gf, rows), width))


# -- points -------------------------------------------------------------


def normalize_point(gf: GF, coords) -> tuple[int, ...]:
    pt = tuple(coords)
    for a in pt:
        if a:
            if a != 1:
                m = gf._mul[gf._inv[a]]
                pt = tuple(m[v] for v in pt)
            return pt
    raise ValueError("the zero vector is not a projective point")


def pg_points(gf: GF, n: int) -> list[tuple[int, ...]]:
    """All points of PG(n, q), each normalized, in pivot-then-suffix order."""
    pts = []
    width = n + 1
    for pivot in range(width):
        head = (0,) * pivot + (1,)
        for tail in product(gf.elements, repeat=width - pivot - 1):
            pts.append(head + tail)
    return pts


# -- subspaces ----------------------------------------------------------


class Subspace:
    """A projective subspace of PG(n, q) as its canonical RREF basis;
    immutable, equal and hashed by (gf, n, rows)."""

    __slots__ = ("gf", "n", "rows")

    def __init__(self, gf: GF, n: int, rows: tuple[tuple[int, ...], ...], reduced: bool = False):
        width = n + 1
        if not 1 <= len(rows) <= width:
            raise ValueError("basis must have between 1 and %d rows" % width)
        for row in rows:
            if len(row) != width:
                raise ValueError("basis row width %d != %d" % (len(row), width))
        if not reduced and rows != rref(gf, rows):
            raise ValueError("basis rows are not in canonical RREF")
        object.__setattr__(self, "gf", gf)  # past the immutable __setattr__
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rref(cls, gf: GF, n: int, rows) -> "Subspace":
        """A subspace of rows straight out of rref: no second reduction."""
        return cls(gf, n, rows, True)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r of an immutable Subspace" % name)

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows and self.n == other.n and self.gf == other.gf

    def __hash__(self) -> int:
        return hash((self.gf, self.n, self.rows))

    def __reduce__(self):
        return self.__class__, (self.gf, self.n, self.rows, True)

    @property
    def dim(self) -> int:
        """Projective dimension (number of basis rows minus 1)."""
        return len(self.rows) - 1

    def contains_point(self, pt) -> bool:
        return rref(self.gf, self.rows + (tuple(pt),)) == self.rows

    def contains(self, other: "Subspace") -> bool:
        _check_ambient(self, other)
        return rref(self.gf, self.rows + other.rows) == self.rows

    def points(self) -> list[tuple[int, ...]]:
        """All points, normalized: the basis rows combined by pg_points(dim)."""
        out = []
        rows = self.rows
        width = self.n + 1
        mul = self.gf._mul
        for coeff in pg_points(self.gf, len(rows) - 1):
            pt = [0] * width
            for c, row in zip(coeff, rows):
                if c:
                    mc = mul[c]
                    for j, v in enumerate(row):
                        if v:
                            pt[j] ^= mc[v]
            out.append(tuple(pt))
        return out

    def key_int(self) -> int:
        return pack_rows(self.gf, self.rows)

    def key_hex(self) -> str:
        return pack_hex(self.gf, self.rows, self.n)

    def to_json(self) -> dict:
        return {
            "q": self.gf.q,
            "n": self.n,
            "rows": [list(r) for r in self.rows],
            "key": self.key_hex(),
        }

    def __repr__(self) -> str:
        return "Subspace(PG(%d,%d), dim=%d, %s)" % (self.n, self.gf.q, self.dim, self.key_hex())


def _check_ambient(a: Subspace, b: Subspace):
    if a.gf != b.gf or a.n != b.n:
        raise ValueError("subspaces live in different ambient spaces")


def span(gf: GF, vectors, n: int | None = None) -> Subspace:
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValueError("span of an empty set is not a subspace")
    if n is None:
        n = len(vectors[0]) - 1
    rows = rref(gf, vectors)
    if not rows:
        raise ValueError("span of zero vectors only")
    return Subspace.from_rref(gf, n, rows)


def meet(a: Subspace, b: Subspace) -> Subspace | None:
    """Intersection subspace, or None when the intersection is empty."""
    _check_ambient(a, b)
    width = a.n + 1
    na = annihilator(a.gf, a.rows, width)
    nb = annihilator(b.gf, b.rows, width)
    rows = nullspace(a.gf, na + nb, width)
    if not rows:
        return None
    return Subspace.from_rref(a.gf, a.n, rows)


def join(a: Subspace, b: Subspace) -> Subspace:
    _check_ambient(a, b)
    return span(a.gf, a.rows + b.rows, n=a.n)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = prod(q**n - q**i for i in range(k))
    den = prod(q**k - q**i for i in range(k))
    if num % den:
        raise AssertionError("Gaussian binomial was not an integer")
    return num // den


# -- exhaustive enumeration ---------------------------------------------


def _free_positions(pivots, width: int):
    free = []
    for i, p in enumerate(pivots):
        for j in range(p + 1, width):
            if j not in pivots:
                free.append((i, j))
    return free


def _pattern_rows(gf: GF, width: int, pivots, first_free: int | None):
    """RREF bases with the given pivot columns whose first free entry is
    ``first_free`` (None when the pattern has no free entry), the other free
    entries in row-major field order.  Pinning the first free entry splits
    one pattern into q equal streams."""
    free_pos = _free_positions(pivots, width)
    base = []
    for i, p in enumerate(pivots):
        row = [0] * width
        row[p] = 1
        base.append(row)
    if not free_pos:
        yield tuple(tuple(row) for row in base)
        return
    for rest in product(gf.elements, repeat=len(free_pos) - 1):
        rows = [row[:] for row in base]
        for (i, j), v in zip(free_pos, (first_free,) + rest):
            rows[i][j] = v
        yield tuple(tuple(row) for row in rows)


def plane_enumeration_chunks(gf: GF) -> list[tuple[tuple[int, ...], int | None]]:
    """Deterministic work chunks that jointly cover every plane exactly once.

    A chunk is (pivot columns, pinned first-free value).  Pinning the first
    free entry caps a chunk at q^8 planes, which keeps multiprocess sweeps
    reasonably balanced; patterns without free entries yield a single chunk.
    """
    chunks: list[tuple[tuple[int, ...], int | None]] = []
    for pivots in combinations(range(6), 3):
        if _free_positions(pivots, 6):
            chunks.extend((pivots, v) for v in gf.elements)
        else:
            chunks.append((pivots, None))
    return chunks


def enumerate_planes_chunk(gf: GF, chunk):
    """Planes of PG(5, q) belonging to one enumeration chunk."""
    pivots, first_free = chunk
    for rows in _pattern_rows(gf, 6, pivots, first_free):
        yield Subspace.from_rref(gf, 5, rows)


def plane_from_pattern(gf: GF, pattern) -> Subspace:
    """Plane spanned by three coefficient vectors of a symmetric-matrix pencil.

    ``pattern`` holds three 6-tuples: the coefficient vectors, in coordinates
    (m00, m01, m02, m11, m12, m22), of the three parameters of a plane of
    symmetric 3x3 matrices.  The vectors must be linearly independent.
    """
    if len(pattern) != 3 or any(len(v) != 6 for v in pattern):
        raise ValueError("pattern must consist of three 6-tuples")
    rows = rref(gf, pattern)
    if len(rows) != 3:
        raise ValueError("plane rows are linearly dependent")
    return Subspace.from_rref(gf, 5, rows)


# -- packed keys ---------------------------------------------------------


def pack_rows(gf: GF, rows) -> int:
    """Row-major packed-int key: each entry occupies e bits, first entry
    in the highest bits."""
    e = gf.e
    k = 0
    for row in rows:
        for v in row:
            k = (k << e) | v
    return k


def pack_hex(gf: GF, rows, n: int) -> str:
    bits = gf.e * (n + 1) * len(rows)
    return format(pack_rows(gf, rows), "0%dx" % ((bits + 3) // 4))
