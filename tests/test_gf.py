"""Field arithmetic over GF(2^e), and the store of per-field values.

Everything here is exhaustive: the fields are small enough that the axioms
can be checked on every element tuple.
"""

import copy
import pickle

import pytest

from conicnets import action, atlas
from conicnets.errors import ResourceBudgetError
from conicnets.gf import GF, field, is_irreducible

QS = (2, 4, 8, 16)


@pytest.mark.parametrize("q", QS)
def test_field_axioms_exhaustive(q):
    gf = field(q)
    els = list(gf.elements)
    for a in els:
        assert gf.add(a, 0) == a
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0
        assert gf.add(a, a) == 0  # characteristic 2
    for a in els:
        for b in els:
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
            for c in els:
                assert gf.mul(a, gf.mul(b, c)) == gf.mul(gf.mul(a, b), c)
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


@pytest.mark.parametrize("q", QS)
def test_inverses_and_division(q):
    gf = field(q)
    for a in gf.nonzero:
        assert gf.mul(a, gf.inv(a)) == 1
        for b in gf.nonzero:
            assert gf.mul(gf.div(a, b), b) == a
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf.div(1, 0)


@pytest.mark.parametrize("q", QS)
def test_pow_matches_repeated_multiplication(q):
    gf = field(q)
    for a in gf.elements:
        acc = 1
        for n in range(2 * q):
            assert gf.pow(a, n) == acc
            acc = gf.mul(acc, a)
    for a in gf.nonzero:
        assert gf.pow(a, q - 1) == 1  # Lagrange
        assert gf.pow(a, -1) == gf.inv(a)


@pytest.mark.parametrize("q", QS)
def test_frobenius_laws(q):
    gf = field(q)
    for a in gf.elements:
        assert gf.sq(a) == gf.mul(a, a)
        assert gf.sqrt(gf.sq(a)) == a
        assert gf.sq(gf.sqrt(a)) == a
        for b in gf.elements:
            # squaring is additive in characteristic 2
            assert gf.sq(a ^ b) == gf.sq(a) ^ gf.sq(b)
    assert sorted(gf.sq(a) for a in gf.elements) == list(gf.elements)


@pytest.mark.parametrize("q", QS)
def test_trace_laws(q):
    gf = field(q)
    for a in gf.elements:
        assert gf.trace(a) in (0, 1)
        assert gf.trace(gf.sq(a)) == gf.trace(a)
        for b in gf.elements:
            assert gf.trace(a ^ b) == gf.trace(a) ^ gf.trace(b)
    # the trace is a surjective GF(2)-linear form: both fibers have size q/2
    zeros = sum(1 for a in gf.elements if gf.trace(a) == 0)
    assert zeros == q // 2


@pytest.mark.parametrize("q", QS)
def test_artin_schreier_solvability(q):
    gf = field(q)
    for c in gf.elements:
        r = gf.artin_schreier_root(c)
        if gf.trace(c) == 0:
            assert r is not None
            assert gf.sq(r) ^ r == c
            other = r ^ 1
            assert gf.sq(other) ^ other == c
            assert r == min(r, other)
        else:
            assert r is None


@pytest.mark.parametrize("q", QS)
def test_primitive_element(q):
    gf = field(q)
    g = gf.primitive_element()
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = gf.mul(x, g)
    assert x == 1
    assert seen == set(gf.nonzero)


def test_invalid_orders_rejected():
    for bad in (0, 1, 3, 6, 12, 512):
        with pytest.raises(ValueError):
            field(bad)


def test_modulus_validation():
    assert is_irreducible(0b111)        # X^2 + X + 1
    assert not is_irreducible(0b101)    # X^2 + 1 = (X + 1)^2
    with pytest.raises(ValueError):
        field(4, 0b101)
    with pytest.raises(ValueError):
        field(4, 0b1011)  # degree 3 modulus for a degree 2 field
    # a negative int is no bit mask, whatever its bit_length says
    for q, bad in ((2, -3), (4, -5), (4, -7)):
        assert not is_irreducible(bad)
        with pytest.raises(ValueError, match="not a bit mask"):
            field(q, bad)


def test_alternate_modulus_is_still_a_field():
    # GF(16) has three irreducible degree-4 polynomials; any gives a field
    gf = field(16, 0b11111)  # X^4 + X^3 + X^2 + X + 1
    for a in gf.nonzero:
        assert gf.mul(a, gf.inv(a)) == 1
    assert gf != field(16)
    assert field(16) == field(16)


def test_element_range_checked():
    gf = field(4)
    with pytest.raises(ValueError):
        gf.mul(4, 1)
    with pytest.raises(ValueError):
        gf.add(1, -1)


# -- the per-field store -----------------------------------------------------


def _stored(gf):
    return atlas.representatives(gf), atlas.signature_table(gf), action.packed_action(gf)


def test_two_moduli_of_one_order_share_no_stored_value():
    """GF(16) under two moduli is two fields: each builds its own
    representatives, signature table and packed action, and forgetting
    either one leaves the other warm."""
    a, b = field(16), field(16, 0b11111)
    a.forget()
    b.forget()
    first, second = _stored(a), _stored(b)
    assert all(x is not y for x, y in zip(first, second))
    assert first[1] == second[1]  # a signature depends on q alone
    assert all(s.gf is a for s in first[0].values()) and all(s.gf is b for s in second[0].values())
    b.forget()
    assert all(x is y for x, y in zip(_stored(a), first))
    rebuilt = _stored(b)
    assert all(x is not y for x, y in zip(rebuilt, second))
    a.forget()
    assert all(x is y for x, y in zip(_stored(b), rebuilt))


def test_fields_and_subspaces_pickle_and_copy_as_the_interned_field():
    """A field, and a Subspace over it, pickle and copy back onto the
    interned field with its warm store; the pickle holds neither tables nor
    stored values, and a field built without ``field`` comes back interned."""
    gf = field(16, 0b11111)
    reps = atlas.representatives(gf)
    s = reps["Sigma22"]
    for back in (pickle.loads(pickle.dumps(gf)), copy.copy(gf), copy.deepcopy(gf)):
        assert back is gf
    for back in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert back == s and back.gf is gf
    assert atlas.representatives(gf) is reps
    assert len(pickle.dumps(field(256))) < 100
    assert pickle.loads(pickle.dumps(GF(8))) is field(8)


def test_a_refused_packed_action_is_refused_on_every_call_and_stores_nothing():
    gf = field(32)
    gf.forget()
    for _ in range(2):
        with pytest.raises(ResourceBudgetError, match="q <= 16"):
            action.packed_action(gf)
        assert gf._store == {}
