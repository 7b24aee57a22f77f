import functools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld import fields
from drinfeld.errors import DomainError
from drinfeld.fields import (NEG_INF, AResidue, Poly, ResidueRing, fq,
                             is_irreducible, parse_apoly, poly_to_bracket,
                             poly_to_tstring, polyring,
                             residue_field_with_theta, wp_valuation)

from drinfeld.series import SeriesRing
from drinfeld.tau import TauPoly

from conftest import divmod_valuation, long_divmod, rows_dot


def elems(field):
    return st.sampled_from(field.elements())


class TestFq:
    def test_f4_conjugate_product(self, F4):
        u = F4.gen
        assert u * (u + F4.one) == F4.one

    def test_f4_frobenius(self, F4):
        u = F4.gen
        assert u.pth_power(1) == u * u == u + F4.one

    def test_inv_zero_raises(self, F2):
        with pytest.raises(DomainError):
            F2.zero.inv()

    @pytest.mark.parametrize("q", [129, 100003, 1000000007, 2 ** 61 - 1])
    def test_large_order_rejected_before_trial_division(self, monkeypatch, q):
        # trial division up to q would take hours at q = 10^9 + 7
        def no_trial_division(n):
            raise AssertionError("_is_prime(%d) ran for q = %d" % (n, q))

        monkeypatch.setattr(fields, "_is_prime", no_trial_division)
        with pytest.raises(DomainError, match="too large"):
            fq(q)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_builtin_table(self, q):
        field = fq(q)
        assert field.q == q
        assert len(field.elements()) == q

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_field_axioms(self, data):
        field = fq(data.draw(st.sampled_from([2, 3, 4, 9])))
        a = data.draw(elems(field))
        b = data.draw(elems(field))
        c = data.draw(elems(field))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero
        if a:
            assert a * a.inv() == field.one

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_frobenius_is_additive(self, data):
        field = fq(data.draw(st.sampled_from([4, 8, 9])))
        a = data.draw(elems(field))
        b = data.draw(elems(field))
        assert (a + b).pth_power(1) == a.pth_power(1) + b.pth_power(1)

    def test_frobenius_order(self, F4):
        # q-power Frobenius has order e over F_p, so e*m iterates fix F_(q^m)
        for a in F4.elements():
            assert a.pth_power(2) == a


class TestApoly:
    def test_degree_sentinel(self, A2):
        assert A2.zero.degree == NEG_INF
        assert A2.zero.degree < 0
        assert not isinstance(A2.zero.degree, int)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_pth_power_is_the_power(self, data):
        """Spreading c_i^(p^k) to t^(i p^k) is x ** (p^k), zero coefficients
        included, and leaves the leading coefficient nonzero."""
        field = fq(data.draw(st.sampled_from([2, 4, 8, 9])))
        x = Poly(field, data.draw(st.lists(elems(field), max_size=5)))
        k = data.draw(st.integers(0, 2))
        y = x.pth_power(k)
        assert y == x ** (field.p ** k)
        assert not y.coeffs or y.coeffs[-1]

    def test_irreducible_examples(self, A2, A3):
        t = A2.gen
        assert is_irreducible(t * t + t + A2.one)
        assert not is_irreducible(t * t)
        t3 = A3.gen
        assert is_irreducible(t3 * t3 + A3.one)

    def test_t2_plus_1_brute_force_oracle(self, F3, A3):
        # no roots in F_3 and degree 2, hence irreducible
        t = A3.gen
        f = t * t + A3.one
        for r in F3.elements():
            acc = F3.zero
            for c in reversed(f.coeffs):
                acc = acc * r + c
            assert acc
        assert f.degree == 2

    def test_non_monic_rejected(self, F3, A3):
        two = F3.from_int(2)
        with pytest.raises(DomainError):
            is_irreducible(Poly(F3, (F3.one, two)))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_ring_axioms(self, data):
        field = fq(data.draw(st.sampled_from([2, 3])))
        A = polyring(field)
        polys = st.lists(elems(field), max_size=5).map(lambda cs: Poly(field, cs))
        a, b, c = (data.draw(polys) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a - b == a + (-b) and a - a == A.zero

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_divmod_roundtrip(self, data):
        """Over F_3, F_5 and F_7 most divisors are not monic, so the integer
        quotient's scaling by the inverse leading coefficient is exercised;
        F_4 takes the object path."""
        field = fq(data.draw(st.sampled_from([2, 3, 5, 7, 4])))
        polys = st.lists(elems(field), max_size=6).map(lambda cs: Poly(field, cs))
        a = data.draw(polys)
        b = data.draw(polys.filter(lambda f: not f.is_zero()))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_frobenius_hom_on_a(self, A2):
        t = A2.gen
        a = t ** 3 + t
        b = t + A2.one
        assert (a + b).frob(1) == a.frob(1) + b.frob(1)
        assert (a * b).frob(1) == a.frob(1) * b.frob(1)

    def test_wp_valuation(self, A2):
        t = A2.gen
        assert wp_valuation(t ** 4 + t ** 2, t) == 2
        assert wp_valuation(A2.one, t) == 0
        assert wp_valuation(A2.zero, t, cap=7) == 7


class TestWpValuation:
    """wp_valuation runs on integer coefficients over F_p and by Poly
    division over F_q, q = p^e with e > 1; both must agree with the Poly
    division loop of conftest."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_divmod_loop(self, data):
        kind = data.draw(st.sampled_from(["t", "t+1", 2, 3, "non-monic"]))
        p = data.draw(st.sampled_from([3, 5, 7] if kind == "non-monic"
                                      else [2, 3, 5, 7]))
        field = fq(p)
        A = polyring(field)
        t = A.gen
        if kind == "t":
            wp = t
        elif kind == "t+1":
            wp = t + A.one
        else:
            d = 2 if kind == "non-monic" else kind
            wp = next(f for f in A.monic_irreducibles(d) if f.degree == d)
            if kind == "non-monic":
                wp = wp * data.draw(st.integers(2, p - 1))
        k = data.draw(st.integers(0, 9))
        u = Poly(field, data.draw(st.lists(elems(field), max_size=5)))
        a = wp ** k * u
        cap = data.draw(st.integers(0, 8))
        got = wp_valuation(a, wp, cap)
        assert got == divmod_valuation(a, wp, cap)
        if not u:
            assert got == cap
        elif u % wp:
            assert got == min(k, cap)

    def test_prime_field_skips_poly_division(self, monkeypatch):
        A = polyring(fq(5))
        t = A.gen
        wp = 3 * t * t + 3  # a non-monic associate of t^2 + 1
        a = wp ** 4 * (t + A.one)

        def refuse(*args):
            raise AssertionError("Poly.__divmod__ reached over F_5")

        monkeypatch.setattr(Poly, "__divmod__", refuse)
        assert wp_valuation(a, wp, 8) == 4
        assert wp_valuation(a, t, 8) == 0
        assert wp_valuation(a * t ** 9, t, 8) == 8

    @pytest.mark.parametrize("q", [2, 5, 4])
    def test_constant_wp_reads_the_cap(self, q):
        """A nonzero constant wp divides every power of itself: each
        division leaves a zero remainder, so the valuation is the cap."""
        field = fq(q)
        A = polyring(field)
        wp = Poly(field, [field.elements()[-1]])
        assert wp.degree == 0
        a = A.gen ** 2 + A.one
        assert wp_valuation(a, wp, 5) == divmod_valuation(a, wp, 5) == 5

    def test_nonprime_field_keeps_poly_division(self, monkeypatch, F4):
        A = polyring(F4)
        u = F4.gen
        wp = A.gen + A.poly([u])
        a = wp ** 3 * (A.gen + A.one)

        def refuse(*args):
            raise AssertionError("_divmod_ints reached over F_4")

        monkeypatch.setattr(fields, "_divmod_ints", refuse)
        assert wp_valuation(a, wp, 8) == 3
        assert wp_valuation(a, A.gen, 8) == 0


def valuation_wp(A, kind):
    """t, t + 1, the first monic irreducible of degree 2 or 3, or
    (p - 1) times the degree-2 one (a non-monic associate for p > 2)."""
    t = A.gen
    if kind == "t":
        return t
    if kind == "t+1":
        return t + A.one
    d = 2 if kind == "non-monic" else kind
    wp = next(f for f in A.monic_irreducibles(d) if f.degree == d)
    return wp * A.base.from_int(-1) if kind == "non-monic" else wp


class TestColumnValuation:
    """Over F_p, min_wp_valuation values the first differing pair alone
    and all later differences together, dividing their rows by wp column
    by column; each result must equal the least valuation that the Poly
    division loop of conftest gives difference by difference."""

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_matches_divmod_loop(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7, 31, 127]))
        field = fq(p)
        A = polyring(field)
        wp = valuation_wp(A, data.draw(
            st.sampled_from(["t", "t+1", 2, 3, "non-monic"])))
        R = None
        if data.draw(st.booleans()):  # A/(wp^n), valued on representatives
            monic = wp * wp.leading().inv()
            R = ResidueRing(monic ** data.draw(st.integers(1, 4)))
        cap = data.draw(st.integers(0, 8))
        idx = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)

        def element():
            u = Poly(field, [field.from_int(c)
                             for c in data.draw(st.lists(idx, max_size=6))])
            x = wp ** data.draw(st.integers(0, 5)) * u
            return R.reduce(x) if R else x

        def lift(c):
            return A.zero if c is None else R.lift(c) if R else c

        pairs = []
        for _ in range(data.draw(st.integers(0, 6))):
            x = element()
            shape = data.draw(st.sampled_from(["any", "equal", "near",
                                               "none"]))
            y = {"any": element, "equal": lambda: x,
                 "near": lambda: x + element(),
                 "none": lambda: None}[shape]()
            pairs.append((y, x) if data.draw(st.booleans()) else (x, y))
        want = min([cap] + [divmod_valuation(lift(x) - lift(y), wp, cap)
                            for x, y in pairs])
        assert fields.min_wp_valuation(pairs, wp, cap) == want

    def test_four_byte_lanes(self):
        # five fold entries at p = 127: a lane holds 5 * 126^2 + 126, so
        # the columns take 4-byte lanes, reduced through array codes
        A = polyring(fq(127))
        t = A.gen
        wp = sum((t ** k for k in range(1, 6)), A.one)
        assert len(fields._fold(wp)) == 5
        u = [t ** 9 + 126 * t + A.one, 3 * t ** 4, t + 5, 126 * t ** 7]
        pairs = [(wp ** 3 * u[0], wp ** 4 * u[1]), (wp ** 2 * u[2], None),
                 (u[3] * wp ** 5, wp ** 2 * u[2] * wp ** 3)]
        for cap in range(8):
            want = min([cap] + [divmod_valuation(x - (y or A.zero), wp, cap)
                                for x, y in pairs])
            assert fields.min_wp_valuation(pairs, wp, cap) == want
            assert fields.min_wp_valuation(pairs[::-1], wp, cap) == want

    def test_one_lane_is_divided_as_a_coefficient_list(self, monkeypatch):
        # a block of one row (here at p = 127, where lanes would be 4
        # bytes) holds one coefficient a column and is divided by
        # _divmod_ints with % p, never by translate; the same row beside a
        # second one goes through the lane reduction
        A = polyring(fq(127))
        t = A.gen
        wp = sum((t ** k for k in range(1, 6)), A.one)
        fold = fields._fold(wp)
        row = (wp ** 3 * (t ** 9 + 126 * t + A.one)).row
        two = row + (wp ** 4).row.ljust(len(row), b"\0")
        seen = []

        def spy(name):
            body = getattr(fields, name)

            def wrapped(*args):
                seen.append(name)
                return body(*args)
            return wrapped

        for name in ("_reduce_slots", "_divmod_ints"):
            monkeypatch.setattr(fields, name, spy(name))
        for cap in range(1, 6):
            want = min(cap, 3)
            assert fields._column_valuation(row, len(row), wp, fold,
                                            cap) == want
            assert set(seen) == {"_divmod_ints"}
            seen.clear()
            assert fields._column_valuation(two, len(row), wp, fold,
                                            cap) == want
            assert set(seen) == {"_reduce_slots"}
            seen.clear()

    def test_first_differing_pair_can_end_the_call(self, monkeypatch):
        A = polyring(fq(3))
        t = A.gen
        wp = t * t + A.one
        blocks = []
        column_valuation = fields._column_valuation

        def spy(diff, width, *args):  # rows in the block, the last nonzero
            blocks.append((len(diff) + width - 1) // width)
            return column_valuation(diff, width, *args)

        monkeypatch.setattr(fields, "_column_valuation", spy)

        def pairs():
            yield A.one, A.one  # equal: skipped
            yield t + A.one, None  # valuation 0
            raise AssertionError("a pair after the first difference was read")

        assert fields.min_wp_valuation(pairs(), wp, 8) == 0
        assert blocks == [1]
        # a first valuation above 0 caps the rest, valued in one block
        blocks.clear()
        rest = [(wp ** 3 * t, wp ** 5), (t, t), (wp ** 4, None), (None, wp)]
        assert fields.min_wp_valuation([(wp ** 2, None)] + rest, wp, 8) == 1
        assert blocks == [1, 3]
        blocks.clear()
        assert fields.min_wp_valuation([(None, wp ** 2)] + rest[:3], wp,
                                       8) == 2
        assert blocks == [1, 2]


class TestResidueRing:
    def test_reduce_examples(self, A2):
        t = A2.gen
        R = ResidueRing(t * t)
        assert R.lift(R.reduce(t ** 3 + t)) == t
        assert R.lift(R.reduce(A2.zero)) == A2.zero
        R2 = ResidueRing(t * t + t + A2.one)
        assert R2.lift(R2.reduce(t * t)) == t + A2.one

    def test_lift_reduce_roundtrip(self, A2):
        t = A2.gen
        R = ResidueRing(t ** 3 + t + A2.one)
        for r in R.elements():
            assert R.reduce(R.lift(r)) == r

    def test_non_monic_modulus_rejected(self, A3):
        t = A3.gen
        two = A3.from_int(2)
        with pytest.raises(DomainError):
            ResidueRing(two * t + A3.one)

    def test_inversion_in_wp_power_ring(self, A2):
        t = A2.gen
        R = ResidueRing(t ** 3)  # A/(wp^3), wp = t
        u = R.reduce(A2.one + t)
        assert u * u.inv() == R.one
        with pytest.raises(DomainError):
            R.reduce(t).inv()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_frobenius_is_ring_hom(self, data):
        field = fq(data.draw(st.sampled_from([2, 3])))
        A = polyring(field)
        t = A.gen
        R = ResidueRing(data.draw(st.sampled_from([t ** 3, t * t + t + A.one
                                                    if field.q == 2 else
                                                    t * t + A.one])))
        polys = st.lists(elems(field), max_size=2).map(lambda cs: Poly(field, cs))
        a = R.reduce(data.draw(polys))
        b = R.reduce(data.draw(polys))
        assert (a + b).frob(1) == a.frob(1) + b.frob(1)
        assert (a * b).frob(1) == a.frob(1) * b.frob(1)


FROBENIUS_MODULI = ["irreducible", "t^3", "(t+1)^2(t^2+t+1)", "two primes",
                    "extension"]


@functools.lru_cache(maxsize=None)
def frobenius_ring(q, kind):
    """A/(m) for the Frobenius oracle; "extension" is a degree-2 extension
    of A/(wp), whose theta is a root of wp and not the class of t."""
    A = polyring(fq(q))
    t = A.gen
    wp = next(f for f in A.monic_irreducibles(2) if f.degree == 2)
    if kind == "irreducible":
        return ResidueRing(wp)
    if kind == "t^3":
        return ResidueRing(t ** 3)
    if kind == "(t+1)^2(t^2+t+1)":
        return ResidueRing((t + A.one) ** 2 * (t * t + t + A.one))
    if kind == "two primes":
        return ResidueRing(t * wp)
    return residue_field_with_theta(wp, 2)


class TestFrobeniusOracle:
    """AResidue.pth_power substitutes into a table of t^(i p^k) mod m; the
    oracle is x ** (p^k), square-and-multiply through AResidue.__mul__."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_square_and_multiply(self, data):
        q = data.draw(st.sampled_from([2, 3, 5, 7, 4, 9]))
        kind = data.draw(st.sampled_from(FROBENIUS_MODULI))
        R = frobenius_ring(q, kind)
        field = R.field
        x = R.reduce(Poly(field, data.draw(
            st.lists(elems(field), max_size=R.degree))))
        k = data.draw(st.integers(0, 12))
        p = field.p
        assert x.pth_power(k) == x ** (p ** k)
        assert x.frob(k) == x ** (q ** k)
        if k <= 4:  # the representative's p^k-th power, then reduced
            assert x.pth_power(k).value == x.value.pth_power(k) % R.modulus
        if kind in ("irreducible", "extension"):
            assert x.frob(R.degree) == x

    def test_extension_theta_is_not_t(self):
        K = frobenius_ring(3, "extension")
        assert K.theta != K.reduce(polyring(K.field).gen)

    def test_large_k_never_builds_the_power(self, monkeypatch):
        A = polyring(fq(5))
        t = A.gen
        R = ResidueRing(t * t + t + A.from_int(2))
        x = R.reduce(3 * t + A.one)

        def refuse(*args):
            raise AssertionError("Poly.pth_power reached from AResidue")

        monkeypatch.setattr(Poly, "pth_power", refuse)
        assert x.frob(40) == x  # F_25: frob^2 is the identity
        assert x.frob(41) == x ** 5


class TestPowerProtocol:
    """``**`` and ``frob`` are defined once, on ``RingElement``: x ** 0 is
    the ring's one, a negative power inverts first, and frob(k) is the
    p^(e k)-th power."""

    @staticmethod
    def rings():
        A4 = polyring(fq(4))
        t = A4.gen
        yield A4.one, t * t + fq(4).gen * t + A4.one
        for q in (2, 4):
            R = frobenius_ring(q, "irreducible")
            yield R.one, R.theta + R.one

    def test_zero_power_is_one(self):
        for one, x in self.rings():
            got = x ** 0
            assert type(got) is type(x) and got.ring is x.ring
            assert got == one and hash(got) == hash(one)

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_negative_power_of_a_constant(self, q):
        field = fq(q)
        for c in field.elements()[1:]:
            got = Poly(field, (c,)) ** -2
            assert got == Poly(field, (c.inv() * c.inv(),))
            assert got * Poly(field, (c * c,)) == polyring(field).one

    def test_negative_power_of_a_nonunit_raises(self, A2):
        for x in (A2.gen, A2.gen + A2.one, A2.zero):
            with pytest.raises(DomainError):
                x ** -1

    @pytest.mark.parametrize("q", [2, 4])
    def test_residue_negative_power_oracle(self, q):
        # x ** -n is the unique y with y * x^n = 1, found by search
        R = frobenius_ring(q, "two primes")
        elements = list(R.elements())
        for x in elements:
            for n in (1, 2, 3):
                units = [y for y in elements if y * x ** n == R.one]
                if units:
                    assert [x ** -n] == units
                else:
                    with pytest.raises(DomainError):
                        x ** -n

    @pytest.mark.parametrize("q", [4, 8])
    def test_frob_is_pth_power(self, q):
        field = fq(q)
        A = polyring(field)
        t = A.gen
        x = t ** 3 + field.gen * t + A.one
        R = ResidueRing(next(A.monic_irreducibles(3)))
        for k in range(4):
            assert x.frob(k) == x.pth_power(field.e * k) == x ** (q ** k)
            r = R.reduce(x)
            assert r.frob(k) == r.pth_power(field.e * k) == r ** (q ** k)

    @pytest.mark.parametrize("q", [4, 9])
    def test_fq_power_matches_repeated_products(self, q):
        field = fq(q)
        for c in field.elements():
            for n in range(-3, 7):
                if n < 0 and not c:
                    continue
                base = c if n >= 0 else c.inv()
                want = functools.reduce(operator.mul, [base] * abs(n),
                                        field.one)
                assert c ** n is want
                if n < 0:
                    assert c ** n * c ** -n is field.one

    def test_no_instance_dict(self):
        # the shared base adds no __dict__ to the slotted elements
        R = frobenius_ring(2, "irreducible")
        for x in (fq(4).gen, R.theta, SeriesRing(R, 4).x()):
            assert not hasattr(x, "__dict__")

    @pytest.mark.parametrize("q", [2, 4, 9])
    def test_fq_zero_negative_power_raises(self, q):
        with pytest.raises(DomainError):
            fq(q).zero ** -1

    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
    def test_fq_frob_is_the_identity(self, q):
        for c in fq(q).elements():
            for k in range(4):
                assert c.frob(k) is c

    def test_least_divisor_split_matches_trial_factorization(self,
                                                              monkeypatch):
        # q from -3 to 128: accepted iff a prime power p^e, with that p, e;
        # the field itself is not built
        monkeypatch.setattr(fields, "_FQ_CACHE", {})
        monkeypatch.setattr(fields, "Fq", lambda p, e, modulus: (p, e))
        for q in range(-3, 129):
            split = [(p, e) for p in range(2, q + 1) if fields._is_prime(p)
                     for e in range(1, 8) if p ** e == q]
            if split:
                assert [fq(q)] == split
            else:
                with pytest.raises(DomainError, match="is not a prime power"):
                    fq(q)


class TestCoercion:
    """``DensePoly._coerce``: an operand over the same ring is used as it
    is, and a scalar of the ring becomes a constant of the operand's type."""

    def test_zpoly_over_a_times_an_element_of_a(self, A2):
        t = A2.gen
        a = t + A2.one
        M = Poly(A2, (t, A2.one))  # t + Z over A
        got = M * a
        assert type(got) is Poly and got.ring is A2
        assert got == Poly(A2, (t * a, a))
        assert M + a == M - a == Poly(A2, (A2.one, A2.one))
        # both are Polys, so Python never tries M.__rmul__ for a * M
        with pytest.raises(TypeError):
            a * M

    def test_residue_plus_int_and_field_element(self, A3):
        F3 = A3.base
        t = A3.gen
        R = ResidueRing(t * t + A3.one)
        x = R.theta
        want = R.reduce(t + A3.from_int(2))
        for c in (2, -1, F3.from_int(2)):
            for got in (x + c, c + x):
                assert type(got) is AResidue and got.ring is R
                assert got == want
        assert 1 - x == R.reduce(A3.one - t)
        with pytest.raises(TypeError):
            x + fq(5).one


def ref_rem(a, m):
    """a mod m by conftest's long division on the field elements: the
    reference for Poly.__divmod__ and AResidue, which run on integer
    indices over F_p."""
    return long_divmod(a, m)[1]


def ref_mul(a, b):
    """a * b for Polys over F_q by a convolution on the field elements."""
    zero = a.ring.zero
    out = [zero] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(a.ring, out)


class TestAResidueDifferential:
    """AResidue against the reference (a op b) mod m on Polys, for monic m
    of degree 1-4, not necessarily irreducible; products and remainders of
    the reference are the test-local ``ref_mul`` and ``ref_rem``."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ops_match_poly_mod_m(self, data):
        field = fq(data.draw(st.sampled_from([2, 3, 5, 4])))
        m = Poly(field, data.draw(st.lists(elems(field), min_size=1,
                                           max_size=4)) + [field.one])
        R = ResidueRing(m)
        polys = st.lists(elems(field), max_size=6).map(
            lambda cs: Poly(field, cs))
        a, b = data.draw(polys), data.draw(polys)
        x, y = R.reduce(a), R.reduce(b)
        n = data.draw(st.integers(0, 6))
        k = data.draw(st.integers(0, 3))
        power = functools.reduce(ref_mul, [a] * n, polyring(field).one)
        cases = [(x + y, a + b), (x - y, a - b), (-x, -a),
                 (x * y, ref_mul(a, b)), (x ** n, power),
                 (x.pth_power(k), a.pth_power(k)), (x.frob(k), a.frob(k))]
        for got, ref in cases:
            assert type(got) is fields.AResidue and got.ring is R
            assert R.lift(got) == ref_rem(ref, m)
        if a.gcd(m).degree == 0:
            u = x.inv()
            assert R.lift(u * x) == polyring(field).one
            assert R.lift(x ** -n) == R.lift(u ** n)
            assert (x ** -n) * (x ** n) == R.one
        else:
            with pytest.raises(DomainError):
                x.inv()


def residue_ring(data, p):
    """A/(m) over F_p (or F_q for a prime power q = p) with m drawn among t^k (empty fold), (t+1)^k and an
    irreducible of degree 2-3."""
    A = polyring(fq(p))
    t = A.gen
    kind = data.draw(st.sampled_from(["t^k", "(t+1)^k", "irreducible"]))
    if kind == "irreducible":
        d = data.draw(st.integers(2, 3))
        m = data.draw(st.sampled_from(
            [f for f in A.monic_irreducibles(d) if f.degree == d]))
    else:
        m = (t if kind == "t^k" else t + A.one) ** data.draw(st.integers(1, 4))
    return ResidueRing(m)


def polys(field, max_size):
    return st.lists(elems(field), max_size=max_size).map(
        lambda cs: Poly(field, cs))


class TestIntegerPaths:
    """Over F_p, p prime, Poly division, AResidue products and p-th powers
    and ResidueRing.dot run on integer indices; each is checked against
    the long division and convolution on field elements kept in the tests
    (``long_divmod``, ``ref_mul``)."""

    primes = st.sampled_from([2, 3, 5, 7])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_poly_divmod(self, data):
        field = fq(data.draw(self.primes))
        # zero dividends, dividends shorter than the divisor, degree-0 and
        # non-monic divisors are all drawn; equal Polys have no trailing
        # zeros on either side
        a = data.draw(polys(field, 8))
        b = data.draw(polys(field, 5).filter(bool))
        assert divmod(a, b) == long_divmod(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_residue_mul(self, data):
        R = residue_ring(data, data.draw(self.primes))
        a, b = (data.draw(polys(R.field, R.degree)) for _ in range(2))
        x, y = AResidue(R, a.coeffs), AResidue(R, b.coeffs)
        want = ref_rem(ref_mul(a, b), R.modulus)
        assert R.lift(x * y) == R.lift(y * x) == want
        assert (x * y == R.zero) is want.is_zero()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_residue_pth_power(self, data):
        R = residue_ring(data, data.draw(self.primes))
        a = data.draw(polys(R.field, R.degree))
        k = data.draw(st.integers(0, 3))
        # Poly.pth_power spreads a_i to t^(i p^k): no product, no division
        assert R.lift(AResidue(R, a.coeffs).pth_power(k)) == ref_rem(
            a.pth_power(k), R.modulus)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_residue_dot(self, data):
        """Over F_4 and F_9 an index is not additive, and dot sums the
        element products instead."""
        R = residue_ring(data, data.draw(st.sampled_from([2, 3, 5, 7, 4, 9])))
        n = data.draw(st.integers(1, 6))
        u, v = ([data.draw(polys(R.field, R.degree)) for _ in range(n)]
                for _ in range(2))
        want = ref_rem(functools.reduce(operator.add, map(ref_mul, u, v)),
                       R.modulus)
        assert R.lift(R.dot([AResidue(R, a.coeffs) for a in u],
                            [AResidue(R, b.coeffs) for b in v])) == want

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_from_ints_reduces_unreduced_rows_with_an_empty_fold(self, p):
        """m = t^3 has an empty fold, for which _divmod_ints leaves its
        input as given; _from_ints, fed unreduced ints as a sum of integer
        products gives, must still reduce the remainder into [0, p)."""
        vals = [p + 1, 2 * p, 5 * p + 3, 7 * p * p, p * p + 1, 3 * p + 2]
        A = polyring(fq(p))
        m = A.gen ** 3
        assert fields._fold(m) == []
        row = list(vals)
        fields._divmod_ints(row, 3, [], p)
        assert row == vals
        R = ResidueRing(m)
        got = R._from_ints(vals)
        assert all(0 <= c.idx < p for c in got.coeffs)
        assert R.lift(got) == A.poly([1, 0, 3 % p])

    def test_packed_ring_skips_poly_division(self, monkeypatch):
        R = ResidueRing(parse_apoly(polyring(fq(5)), "t^3+2*t+3"))
        x = R.reduce(parse_apoly(polyring(fq(5)), "4*t^2+t+2"))

        R._pth_images(2)  # the table is built once, by Poly.pow_mod
        square = R.reduce(R.lift(x) * R.lift(x))

        def refuse(*args):
            raise AssertionError("Poly.__divmod__ reached over F_5")

        monkeypatch.setattr(Poly, "__divmod__", refuse)
        assert x * x == R.dot([x], [x]) == R.dot([x, R.zero], [x, x]) == square
        assert x.pth_power(2) == x.frob(2) == x ** 25

    def test_nonprime_field_keeps_the_object_path(self, monkeypatch, F4):
        A = polyring(F4)
        u = F4.gen
        m = A.gen ** 3 + A.poly([u, 1])
        R = ResidueRing(m)
        assert not R.packed
        x = R.reduce(A.poly([1, u, u]))
        a = A.poly([u, 0, 1, u, 1])

        def refuse(*args):
            raise AssertionError("integer path reached over F_4")

        monkeypatch.setattr(fields, "_dot_rows", refuse)
        monkeypatch.setattr(fields, "_divmod_ints", refuse)
        assert R.lift(x * x) == ref_rem(ref_mul(R.lift(x), R.lift(x)), m)
        assert R.lift(x.pth_power(3)) == ref_rem(R.lift(x).pth_power(3), m)
        q, r = divmod(a, m)
        assert r == ref_rem(a, m) and ref_mul(q, m) + r == a
        assert a * m == ref_mul(a, m)


def coefficient_rows(kind, q):
    """(ring handle, element class, field) for the F_q-coefficient rows of
    DensePoly: Poly and TauPoly over F_q, and A/((t+1)^3) over F_q."""
    field = fq(q)
    if kind == "residue":
        A = polyring(field)
        R = ResidueRing((A.gen + A.one) ** 3)
        return R, AResidue, field
    return field, {"poly": Poly, "tau": TauPoly}[kind], field


def elementwise(a, b, op, zero):
    """a op b coefficient by coefficient through FqElem's own methods,
    trailing zeros dropped; op is "+" or "-"."""
    n = max(len(a), len(b))
    a = list(a) + [zero] * (n - len(a))
    b = list(b) + [zero] * (n - len(b))
    out = [x + (y if op == "+" else -y) for x, y in zip(a, b)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class TestCoefficientSums:
    """DensePoly +, - and negation with F_q coefficients index the field
    tables inline; they must match the element-by-element sums, keep the
    operand's type and ring, and call no FqElem method."""

    rows = st.sampled_from([("poly", 2), ("poly", 3), ("poly", 4),
                            ("poly", 9), ("tau", 4), ("residue", 3),
                            ("residue", 4)])

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_elementwise(self, data):
        ring, cls, field = coefficient_rows(*data.draw(self.rows))
        top = ring.degree if cls is AResidue else 6
        x, y = (cls(ring, data.draw(st.lists(elems(field), max_size=top)))
                for _ in range(2))
        operands = [x, y]
        if x.coeffs:
            # the length of x, and the top of x or of -x: x - z or x + z
            # cancels at the top, and x - x, x + (-x) cancel to zero
            low = (y.coeffs + (field.zero,) * top)[:len(x.coeffs) - 1]
            operands += [cls(ring, low + (c,))
                         for c in (x.coeffs[-1], -x.coeffs[-1])]
        want = {(i, j, op): elementwise(a.coeffs, b.coeffs, op, field.zero)
                for i, a in enumerate(operands)
                for j, b in enumerate(operands) for op in "+-"}
        negs = [tuple(-c for c in a.coeffs) for a in operands]

        def refuse(*args):
            raise AssertionError("an FqElem method ran")

        with pytest.MonkeyPatch.context() as mp:
            for name in ("__add__", "__radd__", "__sub__", "__neg__"):
                mp.setattr(fields.FqElem, name, refuse)
            for (i, j, op), coeffs in want.items():
                a, b = operands[i], operands[j]
                got = a + b if op == "+" else a - b
                assert type(got) is cls and got.ring is ring
                assert got.coeffs == coeffs
            for a, coeffs in zip(operands, negs):
                assert type(-a) is cls and (-a).ring is ring
                assert (-a).coeffs == coeffs
                assert (a - a).coeffs == () and (a + (-a)).coeffs == ()

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_fq_difference_is_adding_the_negation(self, q):
        field = fq(q)
        for x in field.elements():
            for y in field.elements():
                assert x - y == x + (-y)


class TestAResidueIdentity:
    """An element of A/(m) is its coefficient tuple: equal and hash-equal
    however it was built, and never equal to the Poly with those
    coefficients."""

    @pytest.mark.parametrize("q, m", [(3, "t^2+1"), (2, "t^3"),
                                      (2, "t^3+t+1"), (5, "t^2+2*t")])
    def test_every_construction_agrees(self, q, m):
        field = fq(q)
        A = polyring(field)
        R = ResidueRing(parse_apoly(A, m))
        index = {r: r for r in R.elements()}
        assert len(index) == R.order
        for r in index:
            again = R.reduce(R.lift(r) + R.modulus)
            assert again == r and hash(again) == hash(r)
        for c in field.elements():
            assert index[R.coerce(c)] == R.coerce(c) == R.from_int(0) + c
        # x-rows of a packed product: (1 + theta x)(1 + theta x)
        u = [R.one, R.theta]
        rows = rows_dot([(0, u, u)], 3, R)
        assert rows == [R.one, R.theta * 2, R.theta * R.theta]
        for row in rows:  # found by hash, then equal
            assert index[row] == row

    def test_never_equal_to_a_poly(self, A2):
        t = A2.gen
        R = ResidueRing(t ** 3)
        r = R.reduce(t)
        assert r.coeffs == t.coeffs
        assert r != t and t != r
        assert R.one != A2.one
        with pytest.raises(TypeError):
            t + r
        with pytest.raises(TypeError):
            r + t


class TestIrreducibilityMemo:
    """is_irreducible keeps its answer per polynomial: an equal polynomial
    asked again runs no second gcd loop, and invalid input raises on every
    call."""

    def test_equal_polynomial_runs_no_second_loop(self, monkeypatch):
        calls = []
        gcd = Poly.gcd

        def spy(self, other):
            calls.append(self)
            return gcd(self, other)

        monkeypatch.setattr(Poly, "gcd", spy)
        is_irreducible.cache_clear()
        A = polyring(fq(3))
        for text, irreducible in (("t^4+t+2", True), ("t^4+2", False)):
            f = parse_apoly(A, text)
            assert is_irreducible(f) is irreducible
            ran = len(calls)
            assert ran >= 1
            again = parse_apoly(A, text)
            assert again is not f and again == f
            assert is_irreducible(again) is irreducible
            assert len(calls) == ran
            # the same coefficients over another field are another key
            is_irreducible(parse_apoly(polyring(fq(9)), text))
            assert len(calls) > ran
            del calls[:]

    def test_invalid_input_raises_on_every_call(self):
        A = polyring(fq(3))
        t = A.gen
        outer = polyring(A, "x")
        for bad, match in ((2 * t * t + A.one, "monic"),
                           (A.one, "positive degree"),
                           (outer.gen, "F_q coefficients")):
            for _ in range(3):
                with pytest.raises(DomainError, match=match):
                    is_irreducible(bad)


class TestResidueFieldWithTheta:
    def test_theta_root_of_t(self, F2, A2):
        K = residue_field_with_theta(A2.gen, 1)
        assert not K.theta  # the root of t is 0

    def test_theta_root_of_t_plus_1(self, A2):
        K = residue_field_with_theta(A2.gen + A2.one, 1)
        assert K.theta == K.one

    def test_f4_theta_generates(self, A2):
        wp = A2.gen * A2.gen + A2.gen + A2.one
        K = residue_field_with_theta(wp, 1)
        assert K.order == 4
        # enumerate the field and collect roots of wp; theta must be one
        roots = []
        for cand in K.elements():
            acc = K.zero
            for c in reversed(wp.coeffs):
                acc = acc * cand + c
            if not acc:
                roots.append(cand)
        assert len(roots) == 2
        assert K.theta in roots
        assert K.theta != K.zero and K.theta != K.one

    def test_reducible_rejected(self, A2):
        with pytest.raises(DomainError):
            residue_field_with_theta(A2.gen * A2.gen, 1)

    @pytest.mark.parametrize("q,wp_name,m", [(2, "t", 2), (2, "t2", 2), (3, "t", 2)])
    def test_extension_has_root(self, q, wp_name, m):
        field = fq(q)
        A = polyring(field)
        t = A.gen
        wp = {"t": t, "t2": t * t + t + A.one}[wp_name]
        K = residue_field_with_theta(wp, m)
        assert K.order == field.q ** (wp.degree * m)
        acc = K.zero
        for c in reversed(wp.coeffs):
            acc = acc * K.theta + c
        assert not acc

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_extension_degree_rejected(self, A2, m):
        k = residue_field_with_theta(A2.gen, 1)
        with pytest.raises(DomainError, match="must be positive"):
            residue_field_with_theta(A2.gen, m)
        with pytest.raises(DomainError, match="must be positive"):
            fields.extension_with_embedding(k, m)

    @pytest.mark.parametrize("q,wp,admitted", [(2, "t^2+t+1", 8),
                                               (7, "t^2+1", 2)])
    def test_extension_order_bound(self, monkeypatch, q, wp, admitted):
        # q^(deg * m) <= 2^16: find_root scans the extension element by element
        wp = parse_apoly(polyring(fq(q)), wp)
        k = residue_field_with_theta(wp, 1)
        assert residue_field_with_theta(wp, admitted).order <= 2 ** 16
        assert fields.extension_with_embedding(k, admitted)[0].order <= 2 ** 16

        def no_search(f, ring):
            raise AssertionError("the bound is checked before any search")
        monkeypatch.setattr(fields, "find_root", no_search)
        with pytest.raises(DomainError, match="input bound"):
            residue_field_with_theta(wp, admitted + 1)
        with pytest.raises(DomainError, match="input bound"):
            fields.extension_with_embedding(k, admitted + 1)

    def test_minimal_polynomial_of_theta(self, A2):
        # the minimal polynomial over F_q of the chosen theta equals wp
        wp = A2.gen ** 2 + A2.gen + A2.one
        K = residue_field_with_theta(wp, 2)
        powers = [K.one]
        for _ in range(wp.degree):
            powers.append(powers[-1] * K.theta)
        # wp(theta) = 0 gives a linear relation; no smaller one may exist
        acc = K.zero
        for c, p in zip(wp.coeffs, powers):
            acc = acc + c * p
        assert not acc
        assert K.theta != K.zero  # degree 1 would force theta in F_q
        assert K.theta * K.theta != K.theta  # not 0 or 1

    def test_memoised_per_wp_and_degree(self, A2, A3):
        wp = A2.poly([1, 1, 1])
        K = residue_field_with_theta(wp, 2)
        assert residue_field_with_theta(A2.poly([1, 1, 1]), 2) is K
        k = residue_field_with_theta(wp)
        assert residue_field_with_theta(wp, 1) is k and k is not K
        assert fields.extension_with_embedding(k, 2)[0] is K
        assert residue_field_with_theta(A3.poly([1, 0, 1]), 2) is not K


class TestLogTables:
    """A residue field from ``residue_field_with_theta`` or
    ``extension_with_embedding`` of order at most ``_MAX_LOG_ORDER`` takes
    products, inverses, p-th powers and dot sums from its discrete-log
    tables.  Each is checked against a plain ``ResidueRing`` of the same
    modulus, which no constructor marks as a field and so keeps the
    general paths (``_half_xgcd``, ``_pth_images``, ``_dot_rows``)."""

    @staticmethod
    def fields_pair(data):
        """(K, R): a table field, wp of degree 1-4 (or its degree-2
        extension, whose theta is not the class of t), and the plain ring
        of its modulus.  At p = 31 and 127 a dot of a few terms passes a
        byte's room and is reduced on the way."""
        cut = fields._MAX_LOG_ORDER
        q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 9, 31, 127]))
        ext = data.draw(st.sampled_from([e for e in (1, 2) if q ** e <= cut]))
        d = data.draw(st.sampled_from([d for d in range(1, 5)
                                       if q ** (d * ext) <= cut]))
        polys = list(polyring(fq(q)).monic_polys(d))
        start = data.draw(st.integers(0, len(polys) - 1))
        wp = next(f for f in polys[start:] + polys[:start] if is_irreducible(f))
        K = residue_field_with_theta(wp, ext)
        return K, ResidueRing(K.modulus)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_general_path(self, data):
        K, R = self.fields_pair(data)
        coeffs = st.lists(elems(K.field), max_size=K.degree)

        def pair():
            c = data.draw(coeffs)
            return AResidue(K, c), AResidue(R, c)

        (x, X), (y, Y) = pair(), pair()
        assert (x * y).row == (X * Y).row and (x * y).ring is K
        if x:
            assert x.inv().row == X.inv().row
            assert (x * x.inv()).row == K.one.row
        k = data.draw(st.integers(0, 7))
        assert x.pth_power(k).row == X.pth_power(k).row
        assert x.frob(k).row == X.frob(k).row
        pairs = [(pair(), pair()) for _ in range(data.draw(st.integers(1, 8)))]
        got = K.dot([a for (a, _), _ in pairs], [b for _, (b, _) in pairs])
        want = R.dot([A for (_, A), _ in pairs], [B for _, (_, B) in pairs])
        assert got.row == want.row and got.ring is K
        K.one * K.one
        assert K._log and R._log is None  # K has tables, R none

    @pytest.mark.parametrize("p,d", [(31, 2), (127, 1)])
    def test_dot_reduces_before_a_byte_overflows(self, p, d):
        """Product rows whose every byte is p - 1, summed past a byte's
        room of 255 // (p - 1) terms."""
        A = polyring(fq(p))
        wp = next(f for f in A.monic_polys(d) if is_irreducible(f))
        K, R = residue_field_with_theta(wp), ResidueRing(wp)
        full = [K.field.from_int(-1)] * d
        x, X = AResidue(K, full), AResidue(R, full)
        for n in (1, 2, 3, 8, 9, 10, 40):
            assert K.dot([x] * n, [K.one] * n).row == \
                R.dot([X] * n, [R.one] * n).row

    @pytest.mark.parametrize("q,wp", [(2, "t^2+t+1"), (7, "t^2+1"),
                                      (4, "t^2+t+(u)")])
    def test_zero_has_no_inverse(self, q, wp):
        K = residue_field_with_theta(parse_apoly(polyring(fq(q)), wp))
        assert K.theta * K.theta and K._log
        with pytest.raises(DomainError, match="not invertible"):
            K.zero.inv()

    def test_tables_are_one_exp_list_over_the_field(self, A3):
        K = residue_field_with_theta(A3.poly([1, 0, 1]))  # F_9
        x = K.theta + K.one
        x * x
        n = K.order - 1
        assert len(K._log) == n and len(K._exp) == 2 * n
        assert sorted(K._log.values()) == list(range(n))
        assert {K._exp[i].row for i in range(n)} == {
            c.row for c in K.elements() if c}
        assert all(K._exp[i] is K._exp[i + n] for i in range(n))

    def test_rings_without_tables_never_build(self, monkeypatch, A2, A3):
        """Above the cut-over, an A/(wp^n) view and a plain ResidueRing of
        an irreducible keep the general paths and never build tables."""
        def refuse(self):
            raise AssertionError("tables built for %r" % (self,))

        monkeypatch.setattr(ResidueRing, "_tables", refuse)
        d2 = fields._MAX_LOG_ORDER.bit_length()  # 2^d2 > the cut-over
        d3 = next(d for d in range(1, 20) if 3 ** d > fields._MAX_LOG_ORDER)
        above = [residue_field_with_theta(next(
            f for f in A.monic_polys(d) if is_irreducible(f)))
            for A, d in ((A2, d2), (A3, d3))]
        above.append(residue_field_with_theta(A2.poly([1, 1, 1]),
                                              (d2 + 1) // 2))
        wp = A3.poly([1, 0, 1])
        rings = above + [ResidueRing(wp ** 2), ResidueRing(wp),
                         ResidueRing(A2.poly([1, 1, 1]))]
        for R in rings:
            assert R._log is None
            x = R.theta + R.one
            assert x * x == R.reduce(R.lift(x) * R.lift(x))
            assert x.pth_power(2) == x ** (R.p ** 2)
            assert R.dot([x, x], [x, R.one]) == x * x + x
            assert x.inv() * x == R.one
        assert all(R.order > fields._MAX_LOG_ORDER for R in above)


class TestEncodings:
    def test_bracket_roundtrip(self, A2):
        t = A2.gen
        f = t ** 2 + t + A2.one
        assert poly_to_bracket(f) == "[1,1,1]"
        assert parse_apoly(A2, "[1,1,1]") == f
        assert parse_apoly(A2, "t^2+t+1") == f
        assert poly_to_tstring(f) == "t^2+t+1"

    def test_zero_and_constants(self, A2):
        assert parse_apoly(A2, "[]").is_zero()
        assert parse_apoly(A2, "0").is_zero()
        assert parse_apoly(A2, "1") == A2.one

    def test_nonprime_field_elements(self):
        F4 = fq(4)
        A = polyring(F4)
        u = F4.gen
        f = Poly(F4, (u, F4.one))
        s = poly_to_bracket(f)
        assert s == "[u,1]"
        assert parse_apoly(A, s) == f

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tstring_and_bracket_roundtrip(self, data):
        field = fq(data.draw(st.sampled_from([2, 3, 4, 5])))
        A = polyring(field)
        f = Poly(field, data.draw(st.lists(st.sampled_from(field.elements()),
                                           max_size=6)))
        assert parse_apoly(A, poly_to_tstring(f)) == f
        assert parse_apoly(A, poly_to_bracket(f)) == f

    def test_parenthesised_coefficients(self):
        F4 = fq(4)
        A = polyring(F4)
        u = F4.gen
        assert parse_apoly(A, "t+(1)") == Poly(F4, (F4.one, F4.one))
        assert parse_apoly(A, "(u)*t^2-t+(u+1)") == \
            Poly(F4, (u + F4.one, F4.one, u))
        assert F4.parse("u^1 + 1") == u + F4.one

    @pytest.mark.parametrize("q,admitted", [(2, 16), (3, 10), (4, 8), (7, 5)])
    def test_input_degree_bound(self, q, admitted):
        # q^deg <= 2^16: the work on an input a grows like q^deg a
        A = polyring(fq(q))
        assert q ** admitted <= 2 ** 16 < q ** (admitted + 1)
        assert parse_apoly(A, "t^%d+1" % admitted).degree == admitted
        assert parse_apoly(A, "[%s1]" % ("0," * admitted)).degree == admitted
        for s in ("t^%d+1" % (admitted + 1), "[%s1]" % ("0," * (admitted + 1)),
                  "t^999999999"):
            with pytest.raises(DomainError, match="input bound"):
                parse_apoly(A, s)

    @pytest.mark.parametrize("q,s", [
        (2, "t*t"), (2, "x^2"), (2, "t^"), (2, "2 3"), (2, "t++1"),
        (2, ""), (2, "(1"), (2, "[1,,1]"), (2, "[1"), (4, "[u^2]"),
        (4, "(u)(1)"), (3, "[u]"), (2, "t2"),
    ])
    def test_malformed_input_rejected(self, q, s):
        with pytest.raises(DomainError):
            parse_apoly(polyring(fq(q)), s)
