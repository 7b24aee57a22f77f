"""Bytes rows over F_p against a reference on FqElem tuples.

Over a prime field ``Poly`` and ``AResidue`` keep their coefficient
indices as one bytes row, and every integer path of fields.py reads and
writes it.  Each operation is checked here against a reference kept in
this file that works on tuples of field elements only, so every sum and
product in it is an ``FqElem`` table lookup.  p = 127 is the edge of the
row sum (2 (p - 1) = 252 < 256); F_4 and F_9 never hold a row.
"""

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld import fields
from drinfeld.fields import (AResidue, Poly, ResidueRing, fq,
                             kronecker_dot, min_wp_valuation, polyring)

PRIMES = [2, 3, 5, 7, 31, 127]


# -- the reference: tuples of FqElem, trailing zeros dropped ---------------

def strip(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def ref_add(a, b, zero):
    n = max(len(a), len(b))
    a = tuple(a) + (zero,) * (n - len(a))
    b = tuple(b) + (zero,) * (n - len(b))
    return strip(x + y for x, y in zip(a, b))


def ref_neg(a):
    return tuple(-x for x in a)


def ref_mul(a, b, zero):
    if not a or not b:
        return ()
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return strip(out)


def ref_divmod(a, b, zero):
    rem = list(a)
    d = len(b) - 1
    inv = b[-1].inv()
    quot = [zero] * max(len(rem) - d, 0)
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top] * inv
        quot[top - d] = c
        for i, y in enumerate(b):
            rem[top - d + i] = rem[top - d + i] - c * y
    return strip(quot), strip(rem[:d])


def ref_pth_power(a, p, k, zero):
    """sum a_i t^(i p^k): a_i^p = a_i over F_p."""
    step = p ** k
    out = [zero] * ((len(a) - 1) * step + 1) if a else []
    out[::step] = a
    return strip(out)


def ref_valuation(a, wp, cap, zero):
    v = 0
    while a and v < cap:
        a, r = ref_divmod(a, wp, zero)
        if r:
            return v
        v += 1
    return cap


# -- draws ----------------------------------------------------------------

def indices(p, max_size):
    """Index lists that favour 0, 1 and p - 1: sums and products that
    cancel, and at p = 127 byte sums up to 252."""
    idx = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    return st.lists(idx, max_size=max_size)


def tuples(field, max_size):
    return indices(field.p, max_size).map(
        lambda cs: strip(field.from_int(c) for c in cs))


def modulus(data, field):
    """m = t^k (empty fold), (t+1)^k or a random monic m of degree 1-4."""
    A = polyring(field)
    kind = data.draw(st.sampled_from(["t^k", "(t+1)^k", "monic"]))
    if kind == "monic":
        low = data.draw(tuples(field, 3))
        d = data.draw(st.integers(max(len(low), 1), 4))
        return Poly(field, low + (field.zero,) * (d - len(low)) + (field.one,))
    k = data.draw(st.integers(1, 4))
    return (A.gen if kind == "t^k" else A.gen + A.one) ** k


# -- the tests --------------------------------------------------------------

class TestPolyRows:
    primes = st.sampled_from(PRIMES)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ring_operations(self, data):
        field = fq(data.draw(self.primes))
        zero = field.zero
        a, b = data.draw(tuples(field, 9)), data.draw(tuples(field, 9))
        # b with the top of a or of -a: a + b and a - b cancel at the top
        if a and data.draw(st.booleans()):
            top = data.draw(st.sampled_from([a[-1], -a[-1]]))
            b = b[:len(a) - 1] + (zero,) * (len(a) - 1 - len(b)) + (top,)
        x, y = Poly(field, a), Poly(field, b)
        assert type(x.row) is bytes
        assert (x + y).coeffs == ref_add(a, b, zero)
        assert (x - y).coeffs == ref_add(a, ref_neg(b), zero)
        assert (-x).coeffs == ref_neg(a)
        assert (x * y).coeffs == (y * x).coeffs == ref_mul(a, b, zero)
        assert (x - x).coeffs == () and (x + (-x)).coeffs == ()
        if b:
            q, r = divmod(x, y)
            assert (q.coeffs, r.coeffs) == ref_divmod(a, b, zero)
        k = data.draw(st.integers(0, 2))
        assert x.pth_power(k).coeffs == ref_pth_power(a, field.p, k, zero)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_results_are_rows(self, data):
        """Every result keeps its row and compares equal to the element
        built from the reference tuple."""
        field = fq(data.draw(self.primes))
        a, b = data.draw(tuples(field, 6)), data.draw(tuples(field, 6))
        x, y = Poly(field, a), Poly(field, b)
        results = [x + y, x - y, -x, x * y]
        if b:
            results += list(divmod(x, y))
        for got in results:
            assert type(got) is Poly and got.ring is field
            assert type(got.row) is bytes and not got.row.endswith(b"\0")
            again = Poly(field, got.coeffs)
            assert got == again and hash(got) == hash(again)


class TestResidueRows:
    primes = st.sampled_from(PRIMES)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ring_operations(self, data):
        field = fq(data.draw(self.primes))
        zero = field.zero
        m = modulus(data, field)
        R = ResidueRing(m)
        d = m.degree
        a, b = data.draw(tuples(field, d)), data.draw(tuples(field, d))
        x, y = AResidue(R, a), AResidue(R, b)
        mc = m.coeffs

        def rem(c):
            return ref_divmod(c, mc, zero)[1]

        assert (x + y).coeffs == ref_add(a, b, zero)
        assert (x - y).coeffs == ref_add(a, ref_neg(b), zero)
        assert (-x).coeffs == ref_neg(a)
        assert (x * y).coeffs == rem(ref_mul(a, b, zero))
        k = data.draw(st.integers(0, 3))
        assert x.pth_power(k).coeffs == rem(ref_pth_power(a, field.p, k,
                                                          zero))
        n = data.draw(st.integers(1, 5))
        u = [AResidue(R, data.draw(tuples(field, d))) for _ in range(n)]
        v = [AResidue(R, data.draw(tuples(field, d))) for _ in range(n)]
        want = ()
        for s, t in zip(u, v):
            want = ref_add(want, ref_mul(s.coeffs, t.coeffs, zero), zero)
        assert R.dot(u, v).coeffs == rem(want)
        for got in (x + y, x - y, -x, x * y, R.dot(u, v)):
            assert type(got.row) is bytes and not got.row.endswith(b"\0")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_kronecker_dot(self, data):
        """The first n x-rows of sum x^s a b, over F_p[t] and A/(m)."""
        field = fq(data.draw(self.primes))
        zero = field.zero
        if data.draw(st.booleans()):
            ring, d = polyring(field), 5

            def make(c):
                return Poly(field, c)

            def rem(c):
                return c
        else:
            m = modulus(data, field)
            ring, d = ResidueRing(m), m.degree

            def make(c):
                return AResidue(ring, c)

            def rem(c):
                return ref_divmod(c, m.coeffs, zero)[1]
        series = st.lists(tuples(field, d), max_size=5)
        terms = [(data.draw(st.integers(0, 4)), data.draw(series),
                  data.draw(series)) for _ in range(data.draw(
                      st.integers(1, 4)))]
        n = data.draw(st.integers(1, 8))
        want = {}
        for s, a, b in terms:
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    if s + i + j < n:
                        want[s + i + j] = ref_add(want.get(s + i + j, ()),
                                                  ref_mul(x, y, zero), zero)
        got = kronecker_dot(
            [(s, [make(x) for x in a], [make(y) for y in b])
             for s, a, b in terms], n, ring)
        for i, row in enumerate(got):
            assert row.coeffs == rem(want.get(i, ()))
        assert all(not rem(c) for i, c in want.items() if i >= len(got))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_min_wp_valuation(self, data):
        field = fq(data.draw(self.primes))
        zero = field.zero
        A = polyring(field)
        wp = data.draw(st.sampled_from([A.gen, A.gen + A.one,
                                        A.gen * A.gen + A.one]))
        R = ResidueRing(wp ** 3) if data.draw(st.booleans()) else None
        d = R.degree if R else 8
        pairs, want = [], data.draw(st.integers(0, 6))
        cap = want
        for _ in range(data.draw(st.integers(0, 4))):
            a, b = data.draw(tuples(field, d)), data.draw(tuples(field, d))
            if R:
                a = ref_divmod(a, R.modulus.coeffs, zero)[1]
                b = ref_divmod(b, R.modulus.coeffs, zero)[1]
            make = (lambda c: AResidue(R, c)) if R else \
                (lambda c: Poly(field, c))
            x = make(a)
            y = None if not b and data.draw(st.booleans()) else make(b)
            pairs.append((x, y))
            want = min(want, ref_valuation(ref_add(a, ref_neg(b), zero),
                                           wp.coeffs, cap, zero))
        assert min_wp_valuation(pairs, wp, cap) == want


class TestRowIdentity:
    @pytest.mark.parametrize("p", PRIMES)
    def test_row_and_tuple_built_elements_agree(self, p):
        field = fq(p)
        els = field.elements()
        R = ResidueRing(polyring(field).gen ** 3 + polyring(field).one)
        for idx in ([], [0], [1], [0, p - 1], [p - 1, 0, 1, 0, 0]):
            coeffs = [els[i] for i in idx]
            x, y = Poly(field, bytes(idx)), Poly(field, coeffs)
            assert x == y and hash(x) == hash(y) and x.coeffs == y.coeffs
            assert x.row == y.row == bytes(idx).rstrip(b"\0")
            if len(idx) <= 3:
                r, s = AResidue(R, bytes(idx)), AResidue(R, coeffs)
                assert r == s and hash(r) == hash(s)
                assert {r: 1}[s] == 1
                assert r != x

    def test_coeffs_is_built_once(self):
        field = fq(5)
        x = Poly(field, bytes([1, 2, 3])) * Poly(field, bytes([4, 1]))
        first = x.coeffs
        assert x.coeffs is first
        assert all(type(c) is fields.FqElem for c in first)
        assert not hasattr(x, "__dict__")
        with pytest.raises(AttributeError):
            x.missing

    @pytest.mark.parametrize("q", [4, 9])
    def test_extension_fields_hold_no_row(self, q, monkeypatch):
        field = fq(q)
        A = polyring(field)
        u = field.gen
        m = A.gen ** 3 + A.poly([u, 1])
        R = ResidueRing(m)
        assert not R.packed

        def refuse(*args):
            raise AssertionError("a row path ran over F_%d" % q)

        for name in ("_add_rows", "_dot_rows", "_with_row", "_divmod_ints",
                     "_scale_table", "_column_valuation"):
            monkeypatch.setattr(fields, name, refuse)
        a = A.poly([u, 0, 1, u, 1])
        b = A.poly([1, u])
        x, y = R.reduce(a), R.reduce(b)
        results = [a + b, a - b, -a, a * b, *divmod(a, b), a.pth_power(1),
                   x + y, x - y, -x, x * y, x.pth_power(1), R.dot([x], [y])]
        for got in results:
            assert type(got.row) is tuple and got.row is got.coeffs
        assert min_wp_valuation([(a * b, None), (x, y)], b, 5) == 0
