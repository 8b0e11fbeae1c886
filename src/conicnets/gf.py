"""Exact arithmetic in the binary fields GF(2^e) for 1 <= e <= 8.

Field elements are plain Python ints in ``range(q)``: bit i of an element
is the coefficient of t^i in the polynomial basis of GF(2)[t] modulo a
fixed irreducible polynomial.  Addition is XOR.  Multiplication, inversion,
squaring, square roots, traces and Artin-Schreier roots are table lookups
built once per field instance.

The default modulus for each degree is fixed so that integer element values
are reproducible across runs:

    e=1: t+1        e=2: t^2+t+1    e=3: t^3+t+1        e=4: t^4+t+1
    e=5: t^5+t^2+1  e=6: t^6+t+1    e=7: t^7+t+1        e=8: t^8+t^4+t^3+t^2+1

A caller may override the modulus; it is validated for degree and
irreducibility at construction time.

``field`` interns one instance per (q, modulus).  Each keeps a store of the
values that depend on the field alone, read through ``per_field``, and
pickles and copies as ``field(q, modulus)``, so neither travels.
"""

from __future__ import annotations

import functools

DEFAULT_MODULI = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
}


def _poly_deg(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(p: int, g: int) -> int:
    """Remainder of p modulo g in GF(2)[t], both encoded as bit masks."""
    dg = _poly_deg(g)
    while p and _poly_deg(p) >= dg:
        p ^= g << (_poly_deg(p) - dg)
    return p


def is_irreducible(modulus: int) -> bool:
    """Trial division by every polynomial of degree <= deg/2."""
    if modulus < 2:
        return False
    e = _poly_deg(modulus)
    for g in range(2, 1 << (e // 2 + 1)):
        if _poly_deg(g) >= 1 and _poly_mod(modulus, g) == 0:
            return False
    return True


class GF:
    """Arithmetic engine for GF(2^e), elements encoded as ints in range(q).

    Binary operations assume both operands belong to this field; values
    outside ``range(q)`` raise ValueError (the practical detection of a
    mixed-field usage error under the int element model).
    """

    def __init__(self, q: int, modulus: int | None = None):
        e = q.bit_length() - 1
        if q < 2 or q != 1 << e:
            raise ValueError("field order must be a power of 2, got %r" % (q,))
        if not 1 <= e <= 8:
            raise ValueError("supported extension degrees are 1..8, got e=%d" % e)
        if modulus is None:
            modulus = DEFAULT_MODULI[e]
        if modulus < 0 or _poly_deg(modulus) != e:
            raise ValueError("modulus %#x is not a bit mask of degree %d" % (modulus, e))
        if not is_irreducible(modulus):
            raise ValueError("modulus 0x%x is reducible over GF(2)" % modulus)
        self.q = q
        self.e = e
        self.modulus = modulus

        mul = [[0] * q for _ in range(q)]
        for a in range(1, q):
            row = mul[a]
            for b in range(a, q):
                p = self._clmul_mod(a, b)
                row[b] = p
                mul[b][a] = p
        self._mul = mul

        inv = [0] * q
        for a in range(1, q):
            row = mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._inv = inv

        self._sq = [mul[a][a] for a in range(q)]

        # sqrt(a) = a^(2^(e-1)); squaring e-1 times.
        sqrt = []
        for a in range(q):
            x = a
            for _ in range(e - 1):
                x = self._sq[x]
            sqrt.append(x)
        self._sqrt = sqrt

        # trace to GF(2): a + a^2 + a^4 + ... lands in {0, 1}.
        tr = []
        for a in range(q):
            t, x = a, a
            for _ in range(e - 1):
                x = self._sq[x]
                t ^= x
            if t not in (0, 1):
                raise AssertionError("trace of %d fell outside GF(2)" % a)
            tr.append(t)
        self._trace = tr

        # Artin-Schreier table: smaller root x of x^2 + x = c when Tr(c) = 0.
        as_root: list[int | None] = [None] * q
        for x in range(q):
            c = self._sq[x] ^ x
            if as_root[c] is None or x < as_root[c]:
                as_root[c] = x
        self._as_root = as_root
        self._store: dict = {}  # per_field function -> its value for this field

    def _clmul_mod(self, a: int, b: int) -> int:
        e, mod, top = self.e, self.modulus, 1 << self.e
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    # -- element set ---------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.q)

    @property
    def nonzero(self) -> range:
        return range(1, self.q)

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError("%r is not an element of %r" % (a, self))
        return a

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._check(a) ^ self._check(b)

    sub = add  # characteristic 2

    def mul(self, a: int, b: int) -> int:
        return self._mul[self._check(a)][self._check(b)]

    def inv(self, a: int) -> int:
        if self._check(a) == 0:
            raise ZeroDivisionError("0 has no inverse in %r" % self)
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[self._check(a)][self.inv(b)]

    def pow(self, a: int, n: int) -> int:
        self._check(a)
        if n < 0:
            a = self.inv(a)
            n = -n
        r, mul = 1, self._mul
        while n:
            if n & 1:
                r = mul[r][a]
            a = mul[a][a]
            n >>= 1
        return r

    def sq(self, a: int) -> int:
        return self._sq[self._check(a)]

    def sqrt(self, a: int) -> int:
        """The unique square root; Frobenius is bijective in characteristic 2."""
        return self._sqrt[self._check(a)]

    def trace(self, a: int) -> int:
        return self._trace[self._check(a)]

    def artin_schreier_root(self, c: int) -> int | None:
        """Smaller root x of x^2 + x = c, or None when Tr(c) = 1 (no root)."""
        return self._as_root[self._check(c)]

    def primitive_element(self) -> int:
        """Smallest generator of the multiplicative group."""
        target = self.q - 1
        mul = self._mul
        for g in self.nonzero:
            x, order = g, 1
            while x != 1:
                x = mul[x][g]
                order += 1
            if order == target:
                return g
        raise AssertionError("multiplicative group of %r has no generator" % self)

    # -- identity and store --------------------------------------------

    def forget(self) -> None:
        """Empty this field's store: each ``per_field`` value is built again on its next read."""
        self._store.clear()

    def __reduce__(self):
        return field, (self.q, self.modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and (self.q, self.modulus) == (other.q, other.modulus)

    def __hash__(self) -> int:
        return hash((self.q, self.modulus))

    def __repr__(self) -> str:
        if self.modulus == DEFAULT_MODULI[self.e]:
            return "GF(%d)" % self.q
        return "GF(%d, modulus=0x%x)" % (self.q, self.modulus)


_FIELDS: dict[tuple[int, int], GF] = {}


def field(q: int, modulus: int | None = None) -> GF:
    """The interned GF instance; repeated calls with equal arguments share
    its tables and its store."""
    if modulus is None:
        e = q.bit_length() - 1
        modulus = DEFAULT_MODULI.get(e, 0)
    key = (q, modulus)
    gf = _FIELDS.get(key)
    if gf is None:
        gf = GF(q, modulus)
        _FIELDS[key] = gf
    return gf


def per_field(build):
    """Decorator: read ``build(gf)`` through gf's store, building it on the
    first read and keeping it until ``GF.forget``; a build that raises
    keeps nothing, so it raises again on the next read."""

    def read(gf: GF):
        if build not in gf._store:
            gf._store[build] = build(gf)
        return gf._store[build]

    return functools.wraps(build)(read)
