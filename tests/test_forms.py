import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.errors import DomainError, InternalConsistencyError
from drinfeld.fields import (AResidue, Poly, ResidueRing, fq, polyring,
                             wp_valuation)
from drinfeld.forms import (FormExpansion, WeightChar, coefficient_monomial,
                            reduce_mod_wp,
                            congruence_depth, hasse_lift_expansion, lp,
                            padic_limit_sequence, series_wp_valuation,
                            weight_congruence_audit, weight_congruent,
                            weight_embed)
from drinfeld.series import TruncSeries

from conftest import divmod_valuation


@pytest.fixture(scope="module")
def hasse_2t():
    A = polyring(fq(2))
    return hasse_lift_expansion(fq(2), A.gen, 12), A.gen, A


class TestHasseLift:
    @pytest.mark.parametrize("q,wp_name,prec", [(2, "t", 16), (2, "t2", 16),
                                                (3, "t", 16)])
    def test_congruent_one_mod_wp(self, q, wp_name, prec):
        field = fq(q)
        A = polyring(field)
        t = A.gen
        wp = {"t": t, "t2": t * t + t + A.one}[wp_name]
        g = hasse_lift_expansion(field, wp, prec)
        assert g.weight == q ** wp.degree - 1
        assert g.type_m == 0
        R = ResidueRing(wp)
        diff = g.series - TruncSeries.one(g.series.ring, prec)
        assert diff.map_coeffs(R.reduce, R).is_zero()

    def test_mod_x_value_is_one(self, hasse_2t):
        g, wp, A = hasse_2t
        assert g.series.coeff(0) == A.one


class TestLp:
    def test_examples(self):
        assert lp(1, 2) == 0
        assert lp(3, 2) == 2
        assert lp(3, 3) == 1
        assert lp(4, 2) == 2
        assert lp(5, 2) == 3
        with pytest.raises(DomainError):
            lp(0, 2)


class TestCongruenceDepth:
    def test_equal_series_hits_cap(self, hasse_2t):
        g, wp, A = hasse_2t
        f = coefficient_monomial(fq(2), wp, 12, 1, 1)
        res = congruence_depth(f, f, wp, 6)
        assert res.depth == 6 and not res.congruent_to_zero

    def test_shifted_by_wp_square(self, hasse_2t):
        g, wp, A = hasse_2t
        f = coefficient_monomial(fq(2), wp, 12, 1, 1)
        bump = FormExpansion(f.weight, 0,
                             f.series + f.series.scale(wp * wp))
        res = congruence_depth(f, bump, wp, 6)
        assert res.depth == 2

    def test_zero_congruence_flagged(self, hasse_2t):
        g, wp, A = hasse_2t
        f = coefficient_monomial(fq(2), wp, 12, 1, 0)
        dead = FormExpansion(f.weight, 0, f.series.scale(wp ** 6))
        res = congruence_depth(dead, dead, wp, 4)
        assert res.congruent_to_zero and res.depth == 0

    def test_not_congruent_flagged(self, hasse_2t):
        g, wp, A = hasse_2t
        f = coefficient_monomial(fq(2), wp, 12, 1, 0)
        other = FormExpansion(f.weight, 0,
                              f.series + TruncSeries.one(A, 12))
        res = congruence_depth(f, other, wp, 4)
        assert res.not_congruent


def valuation_reference(series, wp, cap):
    """min(cap, min_k v_wp(c_k)), every coefficient valued up to the full
    cap by Poly division; over A/(wp^n) the representative is valued
    (nonzero ones have valuation below n)."""
    return min([cap] + [divmod_valuation(
        c.value if isinstance(c, AResidue) else c, wp, cap)
        for c in series.coeffs if c])


def valuation_case(q, wp_name, n):
    field = fq(q)
    A = polyring(field)
    t = A.gen
    deg2 = t * t + A.one if q == 3 else t * t + t + A.one
    if q == 4:  # t^2 + t + 1 splits over F_4; t^2 + t + u does not
        deg2 = t * t + t + A.poly([field.elements()[2]])
    wp = {"t": t, "t+1": t + A.one, "deg2": deg2}[wp_name]
    R = None if n is None else ResidueRing(wp ** n)
    return field, wp, R


def valuation_series(wp, R, coeffs, prec):
    """A series over A, or its reduction into the view R."""
    A = polyring(wp.ring)
    s = TruncSeries(A, 0, coeffs, prec)
    return s if R is None else s.map_coeffs(R.reduce, R)


class TestSeriesWpValuation:
    """series_wp_valuation caps each coefficient at the running minimum; it
    must equal the reference that values every coefficient up to cap."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        q = data.draw(st.sampled_from([2, 3]))
        n = data.draw(st.sampled_from([None, 1, 3, 5]))
        field, wp, R = valuation_case(q, data.draw(
            st.sampled_from(["t", "t+1", "deg2"])), n)
        cap = data.draw(st.integers(0, 7))
        unit = st.lists(st.sampled_from(field.elements()), max_size=3).map(
            lambda cs: Poly(field, cs))
        coeff = st.tuples(st.integers(0, cap + 1), unit).map(
            lambda eu: wp ** eu[0] * eu[1])
        s = valuation_series(wp, R, data.draw(st.lists(coeff, max_size=8)), 9)
        assert series_wp_valuation(s, wp, cap) == valuation_reference(s, wp, cap)

    @pytest.mark.parametrize("n", [None, 4])
    @pytest.mark.parametrize("q,wp_name", [(2, "t"), (2, "deg2"), (3, "t+1")])
    def test_shapes(self, q, wp_name, n):
        field, wp, R = valuation_case(q, wp_name, n)
        A = polyring(field)
        cap = 6
        shapes = {
            "all-zero": [],
            "early-zero": [A.one + wp, wp ** 3, wp],
            "saturating": [wp ** 6, wp ** 7 * (wp + A.one), wp ** 8],
            "descending": [wp ** 5, wp ** 3, wp ** 4, wp * (A.one + wp), wp ** 2],
        }
        for name, coeffs in shapes.items():
            s = valuation_series(wp, R, coeffs, 6)
            want = valuation_reference(s, wp, cap)
            assert series_wp_valuation(s, wp, cap) == want, name
        assert series_wp_valuation(valuation_series(wp, R, [], 6), wp, cap) == cap
        early = valuation_series(wp, R, shapes["early-zero"], 6)
        assert series_wp_valuation(early, wp, cap) == 0
        descending = valuation_series(wp, R, shapes["descending"], 6)
        assert series_wp_valuation(descending, wp, cap) == 1
        # a difference zero to precision is worth cap, also over A/(wp^4),
        # where a nonzero coefficient saturates at 4
        for coeffs in shapes.values():
            s = valuation_series(wp, R, coeffs, 6)
            assert congruence_depth(s, s, wp, cap).diff_valuation == cap
            assert congruence_depth(s, s.truncate(2), wp, cap) \
                .diff_valuation == cap


class TestDifferenceWpValuation:
    """congruence_depth values f1 - f2 coefficient by coefficient without
    building it (on integers over F_p); its D must equal the reference on
    the difference series that TruncSeries.__sub__ builds."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        q = data.draw(st.sampled_from([2, 3, 4, 5]))
        n = data.draw(st.sampled_from([None, 1, 3, 5]))
        field, wp, R = valuation_case(q, data.draw(
            st.sampled_from(["t", "t+1", "deg2"])), n)
        A = polyring(field)
        cap = data.draw(st.integers(0, 7))
        unit = st.lists(st.sampled_from(field.elements()), max_size=3).map(
            lambda cs: Poly(field, cs))
        coeff = st.tuples(st.integers(0, cap + 1), unit).map(
            lambda eu: wp ** eu[0] * eu[1])

        def draw_series():
            val = data.draw(st.integers(-2, 4))
            prec = data.draw(st.integers(val, 10))
            coeffs = data.draw(st.lists(coeff, max_size=prec - val))
            return TruncSeries(A, val, coeffs, prec)

        s1 = draw_series()
        kind = data.draw(st.sampled_from(
            ["independent", "perturbed", "term", "equal", "copy", "zero"]))
        if kind == "independent":
            s2 = draw_series()
        elif kind == "term":
            # one term c x^k, below, inside or beyond the window of s1
            k = data.draw(st.integers(-2, 11))
            s2 = s1 + TruncSeries(A, k, [data.draw(coeff)], 12)
        elif kind == "perturbed":
            s2 = s1 + draw_series().scale(wp ** data.draw(st.integers(0, 8)))
        elif kind == "equal":
            s2 = s1
        elif kind == "copy":
            s2 = TruncSeries(A, s1.val, s1.coeffs, data.draw(
                st.integers(s1.val + len(s1.coeffs), 12)))
        else:
            s2 = TruncSeries.zero(A, data.draw(st.integers(-2, 10)))
        if data.draw(st.booleans()):
            s1, s2 = s2, s1
        if R is not None:
            s1, s2 = (s.map_coeffs(R.reduce, R) for s in (s1, s2))
        res = congruence_depth(s1, s2, wp, cap)
        assert res.diff_valuation == valuation_reference(s1 - s2, wp, cap)
        assert res.f1_valuation == valuation_reference(s1, wp, cap)

    def test_mismatched_field_raises(self):
        """fq(3, (0, 1)) equals fq(3) but is another field object: valuing
        coefficients over one by a wp over the other is refused, not
        read on the indices."""
        A = polyring(fq(3))
        wp = polyring(fq(3, (0, 1))).gen
        assert wp.ring is not A.base
        s = TruncSeries(A, 0, [A.gen ** 2, A.gen ** 3], 4)
        with pytest.raises(DomainError, match="mismatched rings"):
            wp_valuation(A.gen ** 2, wp, 4)
        with pytest.raises(DomainError, match="mismatched rings"):
            series_wp_valuation(s, wp, 4)
        for other in (s, TruncSeries.zero(A, 4)):
            with pytest.raises(DomainError, match="mismatched rings"):
                congruence_depth(s, other, wp, 4)

    @pytest.mark.parametrize("n", [None, 4])
    @pytest.mark.parametrize("q,wp_name", [(2, "t"), (3, "deg2"), (4, "t+1")])
    def test_window_edges(self, q, wp_name, n):
        # s1 = wp x + O(x^8); the other side adds one term below the
        # window of s1, beyond its end, or beyond the joint precision
        field, wp, R = valuation_case(q, wp_name, n)
        A = polyring(field)
        s1 = TruncSeries(A, 1, [wp], 8)
        cases = [(0, wp ** 2, 2), (5, wp ** 2, 2), (7, A.one, 0), (8, A.one, 6)]
        for k, c, want in cases:
            a, b = (s if R is None else s.map_coeffs(R.reduce, R)
                    for s in (s1, s1 + TruncSeries(A, k, [c], 12)))
            assert congruence_depth(a, b, wp, 6).diff_valuation == want
            assert congruence_depth(b, a, wp, 6).diff_valuation == want


class TestAudit:
    def test_constructed_congruences_pass(self, hasse_2t):
        g, wp, A = hasse_2t
        field = fq(2)
        p = 2
        for alpha, beta in [(1, 0), (0, 1), (2, 1), (5, 2)]:
            f = coefficient_monomial(field, wp, 12, alpha, beta)
            if series_wp_valuation(f.series, wp, 4) != 0:
                continue
            for l in range(4):
                f2 = f * g.pow(p ** l)
                v = weight_congruence_audit(f, f2, wp, p ** l + 2)
                assert v.passed and v.depth == p ** l, (alpha, beta, l, v)

    def test_exact_modulus_used(self, hasse_2t):
        # the divisibility is demanded at exactly (q^d - 1) p^(lp(n))
        g, wp, A = hasse_2t
        f = coefficient_monomial(fq(2), wp, 12, 2, 1)
        f2 = f * g.pow(4)
        v = weight_congruence_audit(f, f2, wp, 6)
        assert v.modulus == (2 ** 1 - 1) * 2 ** lp(v.depth, 2)

    def test_negative_controls_fail(self, hasse_2t):
        g, wp, A = hasse_2t
        f = coefficient_monomial(fq(2), wp, 12, 3, 1)
        for l in (1, 2, 3):
            f2 = f * g.pow(2 ** l)
            bad = FormExpansion(f2.weight + 2 ** (l - 1), f2.type_m, f2.series)
            v = weight_congruence_audit(f, bad, wp, 2 ** l + 2)
            assert not v.passed and not v.vacuous

    def test_q3_controls(self):
        # the wp^l-witness coefficient sits at x-order 2 * 3^l + val_x(f),
        # so measure at precision 24 with coefficients viewed mod wp^12
        field = fq(3)
        A = polyring(field)
        t = A.gen
        R = ResidueRing(t ** 12)
        g = reduce_mod_wp(hasse_lift_expansion(field, t, 24), R, 12)
        f = reduce_mod_wp(coefficient_monomial(field, t, 24, 2, 1), R, 12)
        for l in (0, 1, 2):
            f2 = f * g.pow(3 ** l)
            v = weight_congruence_audit(f, f2, t, 3 ** l + 2)
            assert v.passed and v.depth == 3 ** l, (l, v)
            # q^d - 1 = 2 > 1 here, so even l = 0 has a working control
            bad = FormExpansion(f2.weight + 1, f2.type_m, f2.series)
            vb = weight_congruence_audit(f, bad, t, 3 ** l + 2)
            assert not vb.passed

    def test_vacuous_cases(self, hasse_2t):
        g, wp, A = hasse_2t
        f = coefficient_monomial(fq(2), wp, 12, 1, 1)
        dead = FormExpansion(f.weight + 2, 0, f.series.scale(wp ** 6))
        v = weight_congruence_audit(dead, dead, wp, 4)
        assert v.vacuous and not v.passed


class TestWeightSpace:
    def test_embedding_consistency(self):
        chi = weight_embed(7, 3, 2, 3)
        for n in (1, 2, 3, 4):
            assert weight_congruent(chi, 7, n)

    def test_degenerate_q2_d1(self):
        # q^d - 1 = 1: only the p-adic leg constrains anything
        chi = WeightChar(0, 2, 1, 2, 12)
        assert weight_congruent(chi, 2, 2)
        assert not weight_congruent(chi, 3, 2)
        assert weight_congruent(chi, 2 + 4, 2)  # mod 2^(lp(2)) = 2

    def test_q3_modulus(self):
        chi = weight_embed(4, 3, 1, 3)
        assert weight_congruent(chi, 4 + 2 * 3, 2)
        assert not weight_congruent(chi, 5, 2)

    def test_insufficient_precision(self):
        chi = WeightChar(0, 0, 1, 2, 2)
        with pytest.raises(DomainError):
            weight_congruent(chi, 0, 100)


class TestPadicLimit:
    def test_embedded_weight_gives_constant_sequence(self, hasse_2t):
        g, wp, A = hasse_2t
        f = coefficient_monomial(fq(2), wp, 12, 2, 1)
        chi = weight_embed(f.weight, 2, 1, 2)
        seq = padic_limit_sequence(f, chi, wp, 4, g)
        assert [k for k, _ in seq] == [f.weight] * 4

    def test_successive_congruences(self, hasse_2t):
        g, wp, A = hasse_2t
        f = coefficient_monomial(fq(2), wp, 12, 2, 1)
        chi = WeightChar(f.weight, f.weight + 2, 1, 2, 12)
        seq = padic_limit_sequence(f, chi, wp, 4, g)
        for n in range(1, len(seq)):
            h_prev, h = seq[n - 1][1], seq[n][1]
            res = congruence_depth(h, h_prev, wp, n)
            assert res.depth >= n or (h.series - h_prev.series).is_zero()
        assert seq[-1][0] != f.weight  # the character actually moves

    def test_weight_tags_follow_character(self, hasse_2t):
        g, wp, A = hasse_2t
        f = coefficient_monomial(fq(2), wp, 12, 1, 1)
        chi = WeightChar(f.weight, f.weight + 2, 1, 2, 12)
        seq = padic_limit_sequence(f, chi, wp, 5, g)
        for n, (k, h) in enumerate(seq, start=1):
            assert h.weight == k
            assert weight_congruent(chi, k, n)

    @pytest.mark.parametrize("q", [2, 3])
    def test_successive_depth_is_p_power(self, q):
        # chi one below the weight of f moves j_n at q=2 for n = 2, 3, 5 and
        # at q=3 for n = 2, 4; each move lands exactly at p^lp(n-1)
        field = fq(q)
        t = polyring(field).gen
        g = hasse_lift_expansion(field, t, 12)
        f = coefficient_monomial(field, t, 12, 1, 1)
        chi = WeightChar(0, f.weight - 1, q - 1, q, 12)
        seq = padic_limit_sequence(f, chi, t, 5, g)
        moved = []
        for n in range(2, 6):
            need = q ** lp(n - 1, q)
            diff = seq[n - 1][1].series - seq[n - 2][1].series
            if diff.is_zero():
                assert seq[n - 1][0] == seq[n - 2][0]
                continue
            moved.append(n)
            assert series_wp_valuation(diff, t, need + 1) == need
        assert moved == {2: [2, 3, 5], 3: [2, 4]}[q]

    def test_view_shallower_than_the_depth(self):
        # A/(t^3) is shallower than p^lp(4) = 4 at n = 5; the sequence there
        # is the reduction of the sequence over A
        field = fq(2)
        t = polyring(field).gen
        R = ResidueRing(t ** 3)
        g = hasse_lift_expansion(field, t, 12)
        f = coefficient_monomial(field, t, 12, 1, 1)
        chi = WeightChar(0, f.weight - 1, 1, 2, 12)
        full = padic_limit_sequence(f, chi, t, 5, g)
        seq = padic_limit_sequence(reduce_mod_wp(f, R, 3), chi, t, 5,
                                   reduce_mod_wp(g, R, 3))
        assert [k for k, _ in seq] == [k for k, _ in full] == [4, 5, 7, 7, 11]
        for (_, h), (_, h_full) in zip(seq, full):
            assert h.series == h_full.series.map_coeffs(R.reduce, R)

    @pytest.mark.parametrize("q", [2, 3])
    def test_hasse_not_one_mod_wp_raises(self, q):
        field = fq(q)
        A = polyring(field)
        t = A.gen
        g = hasse_lift_expansion(field, t, 12)
        bad = FormExpansion(g.weight, 0,
                            g.series + TruncSeries.x_power(A, 1, 12))
        f = coefficient_monomial(field, t, 12, 1, 1)
        chi = WeightChar(0, f.weight - 1, q - 1, q, 12)
        with pytest.raises(InternalConsistencyError):
            padic_limit_sequence(f, chi, t, 3, bad)

    def test_wrong_class_rejected(self):
        field = fq(3)
        A = polyring(field)
        t = A.gen
        g = hasse_lift_expansion(field, t, 8)
        f = coefficient_monomial(field, t, 8, 1, 0)  # weight 2
        chi = WeightChar(1, 1, 2, 3, 12)  # s0 = 1 but weight(f) is even
        with pytest.raises(DomainError):
            padic_limit_sequence(f, chi, t, 3, g)


class TestFormAlgebra:
    def test_weight_and_type_add(self, hasse_2t):
        g, wp, A = hasse_2t
        a = coefficient_monomial(fq(2), wp, 12, 1, 0)
        b = coefficient_monomial(fq(2), wp, 12, 0, 1)
        prod = a * b
        assert prod.weight == a.weight + b.weight
        assert prod.series.agrees_with(a.series * b.series)

    def test_type_arithmetic_q3(self):
        field = fq(3)
        t = polyring(field).gen
        a = coefficient_monomial(field, t, 8, 1, 0)
        assert a.type_m == 0
        tagged = FormExpansion(a.weight, 1, a.series)
        assert (tagged * tagged).type_m == 0  # 1 + 1 mod (q - 1)

    def test_pow_keeps_wp_prec(self, hasse_2t):
        g, wp, A = hasse_2t
        R = ResidueRing(wp ** 4)
        reduced = reduce_mod_wp(g, R, 4)
        assert reduced.pow(2).wp_prec == 4
        assert reduced.pow(0).wp_prec == 4
        assert g.pow(2).wp_prec is None
