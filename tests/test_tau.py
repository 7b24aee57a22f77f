import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.errors import DomainError
from drinfeld.fields import Poly, fq, polyring, residue_field_with_theta
from drinfeld.series import SeriesRing, TruncSeries
from drinfeld.tau import TauPoly

from conftest import slot_counter, td_config


def tau_polys(data, ring, elements, max_deg=3):
    coeffs = data.draw(st.lists(elements, max_size=max_deg + 1))
    return TauPoly(ring, coeffs)


class TestProduct:
    def test_product_rule(self, A2):
        # tau * b = b^q tau
        t = A2.gen
        b = t ** 2 + A2.one
        lhs = TauPoly.tau(A2, 1) * TauPoly(A2, (b,))
        assert lhs == TauPoly(A2, (A2.zero, b.frob(1)))

    def test_square_of_theta_plus_tau(self, A2):
        # (theta + tau)^2 = theta^2 + (theta^q + theta) tau + tau^2,
        # expanded here by hand with the product rule:
        #   theta*theta, theta*tau + tau*theta = (theta + theta^q) tau, tau*tau
        t = A2.gen
        f = TauPoly(A2, (t, A2.one))
        sq = f * f
        assert sq.coeffs == (t * t, t.frob(1) + t, A2.one)

    def test_identity(self, A2):
        t = A2.gen
        f = TauPoly(A2, (t, t * t, A2.one))
        assert f * TauPoly.one(A2) == f
        assert TauPoly.one(A2) * f == f

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_associativity_distributivity(self, data):
        field = fq(data.draw(st.sampled_from([2, 3, 4])))
        els = st.sampled_from(field.elements())
        a = tau_polys(data, field, els)
        b = tau_polys(data, field, els)
        c = tau_polys(data, field, els)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_degree_additivity(self, A2):
        t = A2.gen
        f = TauPoly(A2, (t, A2.one))
        g = TauPoly(A2, (A2.one, t, A2.one))
        assert (f * g).degree == f.degree + g.degree


class TestEval:
    def test_field_target(self, A2):
        t = A2.gen
        f = TauPoly(A2, (t, A2.one))   # theta + tau
        K = residue_field_with_theta(t * t + t + A2.one, 1)
        one = K.one
        # eval at 1: theta + 1
        val = TauPoly(K, (K.theta, K.one))(one)
        assert val == K.theta + one

    def test_zero_is_fixed(self, A2):
        t = A2.gen
        K = residue_field_with_theta(t * t + t + A2.one, 1)
        f = TauPoly(K, (K.theta, K.one, K.theta))
        assert not f(K.zero)

    def test_series_target_char2(self):
        S = SeriesRing(polyring(fq(2)), 16)
        x = S.x()
        f = TauPoly.tau(S.ring, 2)  # the 4th power map
        out = TauPoly(S.ring, (S.ring.zero, S.ring.zero, S.ring.one))
        val = f(x + x * x)
        assert val.coeff(4) == S.ring.one and val.coeff(8) == S.ring.one
        assert all(not val.coeff(k) for k in range(16) if k not in (4, 8))

    def test_series_value_starts_at_the_first_nonzero_term(self):
        """With b_0 = 0 the value is the sum of the nonzero terms alone, so
        it keeps their precision (x^(q^i) has q^i times that of x) instead
        of the lower one of x - x."""
        S = SeriesRing(polyring(fq(2)), 8)
        A = S.ring
        t = A.gen
        x = S.x() + S.x() ** 3
        val = TauPoly.tau(A, 2)(x)
        assert val.prec == 32 and val.agrees_with(x.frob(2))
        val = TauPoly(A, (A.zero, t, A.one))(x)
        want = x.frob(1).scale(t) + x.frob(2)
        assert val.prec == want.prec == 16 and val.agrees_with(want)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_eval_is_composition_hom(self, data):
        field = fq(data.draw(st.sampled_from([2, 4])))
        els = st.sampled_from(field.elements())
        f = tau_polys(data, field, els, max_deg=2)
        g = tau_polys(data, field, els, max_deg=2)
        x = data.draw(els)
        assert (f * g)(x) == f(g(x))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_eval_hom_on_series(self, data):
        field = fq(2)
        A = polyring(field)
        S = SeriesRing(A, 9)
        els = st.sampled_from(field.elements())
        consts = st.lists(els, max_size=2).map(lambda cs: Poly(field, cs))
        f = TauPoly(A, data.draw(st.lists(consts, max_size=3)))
        g = TauPoly(A, data.draw(st.lists(consts, max_size=3)))
        x = S.x() + S.x() ** 2
        assert (f * g)(x).agrees_with(f(g(x)), upto=9)

    def test_fq_linearity(self, A3):
        F3 = A3.base
        t = A3.gen
        f = TauPoly(A3, (t, A3.one, t * t))
        S = SeriesRing(A3, 8)
        x = S.x()
        y = S.x() ** 2
        c = A3.from_int(2)
        assert f(x.scale(c) + y).agrees_with(f(x).scale(c) + f(y))


class TestRdivmod:
    def test_exact_and_small(self, A2):
        t = A2.gen
        u = TauPoly(A2, (t, A2.one))
        q, r = u.rdivmod(u)
        assert q == TauPoly.one(A2) and r.is_zero()
        small = TauPoly(A2, (t,))
        q, r = small.rdivmod(u)
        assert q.is_zero() and r == small

    def test_f4_example_reexpansion(self):
        # q=2 over F_4: h = tau^2, u = tau + u0 with u0 a generator
        F4 = fq(4)
        u0 = F4.gen
        h = TauPoly.tau(F4, 2)
        u = TauPoly(F4, (u0, F4.one))
        q, r = h.rdivmod(u)
        assert r.degree <= 0
        assert q * u + r == h

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_roundtrip(self, data):
        field = fq(data.draw(st.sampled_from([2, 3, 4])))
        els = st.sampled_from(field.elements())
        h = tau_polys(data, field, els, max_deg=4)
        u_low = data.draw(st.lists(els, max_size=2))
        u = TauPoly(field, list(u_low) + [field.one])
        q, r = h.rdivmod(u)
        assert q * u + r == h
        assert r.degree < u.degree

    def test_non_unit_leading_rejected(self, A2):
        t = A2.gen
        u = TauPoly(A2, (A2.one, t))  # leading coefficient t is not a unit in A
        with pytest.raises(DomainError):
            TauPoly.tau(A2, 2).rdivmod(u)


class TestTwist:
    def test_examples(self, A2):
        t = A2.gen
        f = TauPoly(A2, (t, A2.one))
        assert f.twist(1) == TauPoly(A2, (t * t, A2.one))
        assert f.twist(0) == f
        assert f.twist(1).twist(1) == f.twist(2)

    def test_twist_is_ring_hom_over_field(self):
        F4 = fq(4)
        u = F4.gen
        a = TauPoly(F4, (u, F4.one))
        b = TauPoly(F4, (F4.one, u))
        assert (a * b).twist(1) == a.twist(1) * b.twist(1)
        assert (a + b).twist(1) == a.twist(1) + b.twist(1)

    def test_frob_is_refused(self):
        """A TauPoly has no Frobenius power of its own: ``frob`` raises
        DomainError and names ``twist``, over a field and over a series
        ring alike."""
        for ring, theta in TestPower.rings():
            f = TauPoly(ring, (theta, ring.one))
            for k in (0, 1, 2):
                with pytest.raises(DomainError, match="twist"):
                    f.frob(k)
            assert f.twist(1) == TauPoly(ring, (theta.frob(1),
                                                ring.one.frob(1)))


def uncut_product(f, g):
    """f * g over a series ring by the element loop, every b_j twisted
    whole: out[i + j] += a_i b_j^(q^i), summed from the ring's zero."""
    ring = f.ring
    out = [ring.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, ai in enumerate(f.coeffs):
        for j, bj in enumerate(g.coeffs):
            if ai and bj:
                out[i + j] = out[i + j] + ai * bj.frob(i)
    return out


class TestSeriesProduct:
    """Over a series ring each coefficient of a product is one
    ``series.dot`` of the twisted terms (a_i, b_j, i), which cuts b_j before
    its twist to the orders that can reach the product's precision;
    products and precisions are those of the uncut element loop."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_uncut_product(self, data):
        q = data.draw(st.sampled_from([2, 3, 4, 5]))
        field = fq(q)
        A = polyring(field)
        S = SeriesRing(A, data.draw(st.integers(4, 12)))
        apoly = st.lists(st.sampled_from(field.elements()), max_size=3).map(
            lambda cs: Poly(field, cs))

        def series():
            coeffs = data.draw(st.lists(apoly, max_size=8))
            val = data.draw(st.integers(0, 5))
            prec = val + data.draw(st.integers(0, 9))
            return TruncSeries(A, val, coeffs, min(prec, S.prec))

        f = TauPoly(S, [series() for _ in range(data.draw(st.integers(0, 4)))])
        g = TauPoly(S, [series() for _ in range(data.draw(st.integers(0, 4)))])
        got = (f * g).coeffs
        want = uncut_product(f, g)
        want = want[:max((k + 1 for k, c in enumerate(want) if c), default=0)]
        assert [(c.val, c.coeffs, c.prec) for c in got] == \
            [(c.val, c.coeffs, c.prec) for c in want]

    @pytest.mark.parametrize("q,i", [(2, 1), (2, 5), (3, 3), (4, 2)])
    def test_twist_builds_at_most_n_slots(self, monkeypatch, q, i):
        # b_0 has N coefficients; twisted whole by Q = q^i it would fill
        # (N - 1) Q + 1 slots, of which a_i = 1 (precision N) can reach N
        N = 40
        field = fq(q)
        A = polyring(field)
        S = SeriesRing(A, N)
        b = TauPoly(S, (TruncSeries(A, 0, [A.gen + A.one] * N, N),))
        built = slot_counter(monkeypatch)
        prod = TauPoly.tau(S, i) * b
        assert built and max(built) <= N < (N - 1) * q ** i + 1
        monkeypatch.undo()
        assert prod.coeffs == tuple(uncut_product(TauPoly.tau(S, i), b))


class TestSharedDenseCore:
    """What ``fields.DensePoly`` must keep for each of its two subclasses."""

    def test_tau_sum_over_different_rings_is_a_domain_error(self, A2, A3):
        with pytest.raises(DomainError):
            TauPoly(A2, (A2.one,)) + TauPoly(A3, (A3.one,))
        with pytest.raises(DomainError):
            TauPoly(A2, (A2.one,)) - TauPoly(A3, (A3.one,))

    def test_tau_product_over_different_rings_is_a_domain_error(self, A2):
        K = residue_field_with_theta(A2.poly([1, 1, 1]))
        with pytest.raises(DomainError, match="mismatched coefficient"):
            TauPoly.one(A2) * TauPoly.one(K)

    def test_tau_times_a_scalar_twists_it(self, A2):
        # a scalar is the constant tau^0 term: tau * theta = theta^q tau
        K = residue_field_with_theta(A2.poly([1, 1, 1]))
        f = TauPoly.tau(K)
        assert f + K.theta == TauPoly(K, (K.theta, K.one))
        assert f * K.theta == TauPoly(K, (K.zero, K.theta.frob(1)))

    def test_scalar_times_tau_poly_multiplies_on_the_left(self, A2):
        # c * f is the constant c composed on the left: c is not twisted,
        # so theta * tau = theta tau, not theta^q tau
        K = residue_field_with_theta(A2.poly([1, 1, 1]))
        f = TauPoly(K, (K.one, K.theta, K.theta + K.one))
        for c in (K.theta, K.theta + K.one, K.field.one, 1, 3, 0):
            assert c * f == TauPoly(K, (K.coerce(c),)) * f == f.scale_left(c)
        assert K.theta * TauPoly.tau(K) == TauPoly(K, (K.zero, K.theta))

    def test_poly_sum_over_different_rings_is_a_type_error(self, F2, F3):
        with pytest.raises(TypeError):
            Poly(F2, (F2.one,)) + Poly(F3, (F3.one,))
        with pytest.raises(TypeError):
            Poly(F2, (F2.one,)) - Poly(F3, (F3.one,))

    def test_poly_and_tau_poly_with_the_same_coefficients_differ(self, A2):
        t = A2.gen
        coeffs = (t, A2.zero, A2.one)
        assert Poly(A2, coeffs) != TauPoly(A2, coeffs)
        assert TauPoly(A2, coeffs) != Poly(A2, coeffs)

    def test_equal_polys_hash_equal(self, F2, A2):
        t = A2.gen
        a = t * t + A2.one
        b = Poly(F2, [F2.one, F2.zero, F2.one, F2.zero])  # trimmed
        assert a == b and hash(a) == hash(b)
        f = TauPoly(A2, (a, t))
        assert hash(f) == hash(TauPoly(A2, [b, t, A2.zero]))

    def test_results_keep_the_operand_type(self, F2, A2):
        t = A2.gen
        f, g = TauPoly(A2, (t, A2.one)), TauPoly(A2, (A2.one,))
        for h in (f + g, f - g, -f, 1 + f, 1 - f, f.map_coeffs(lambda c: c, A2)):
            assert type(h) is TauPoly
        a = Poly(F2, (F2.one, F2.one))
        for h in (a + a, a - 1, -a, 1 - a, a.map_coeffs(lambda c: c, F2)):
            assert type(h) is Poly

    def test_no_instance_dict(self, F2, A2):
        assert not hasattr(TauPoly(A2, (A2.one,)), "__dict__")
        assert not hasattr(Poly(F2, (F2.one,)), "__dict__")


class TestPower:
    """``TauPoly ** n`` is ``DensePoly``'s: n = 0 gives the ring's one, a
    positive n the n-fold composition, and a negative n a DomainError."""

    @staticmethod
    def rings():
        K = residue_field_with_theta(polyring(fq(2)).poly([1, 1, 1]))
        yield K, K.theta
        S = td_config((2, "t", "1")).S
        yield S, S.theta

    def test_zero_power_is_one(self):
        for ring, theta in self.rings():
            f = TauPoly(ring, (theta, ring.one))
            got = f ** 0
            assert type(got) is TauPoly and got.ring is ring
            assert got == TauPoly.one(ring)
            assert got * f == f

    def test_zero_power_hashes_as_one(self):
        ring, theta = next(self.rings())
        got = TauPoly(ring, (theta, ring.one)) ** 0
        assert hash(got) == hash(TauPoly.one(ring))

    def test_positive_power_is_composition(self):
        for ring, theta in self.rings():
            f = TauPoly(ring, (theta, ring.one))
            assert f ** 3 == f * f * f
            assert TauPoly.tau(ring) ** 2 == TauPoly.tau(ring, 2)

    def test_negative_power_raises(self):
        for ring, theta in self.rings():
            for f in (TauPoly(ring, (theta, ring.one)), TauPoly.one(ring)):
                with pytest.raises(DomainError):
                    f ** -1
