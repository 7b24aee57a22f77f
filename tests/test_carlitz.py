import threading

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.carlitz import (_divisors_from_factorization, carlitz_action,
                              carlitz_cyclotomic, carlitz_phi,
                              carlitz_torsion_poly, check_eisenstein)
from drinfeld.errors import DomainError
from drinfeld.fields import (Poly, fq, is_irreducible, parse_apoly, polyring,
                             wp_valuation)
from drinfeld.tau import TauPoly


def apolys(data, field, max_deg=3):
    coeffs = data.draw(st.lists(st.sampled_from(field.elements()),
                                max_size=max_deg + 1))
    return Poly(field, coeffs)


class TestPhi:
    def test_phi_t(self, A2):
        t = A2.gen
        assert carlitz_phi(A2, t) == TauPoly(A2, (t, A2.one))

    def test_phi_one(self, A2):
        assert carlitz_phi(A2, A2.one) == TauPoly.one(A2)

    def test_phi_t_squared(self, A2):
        t = A2.gen
        sq = carlitz_phi(A2, t * t)
        assert sq.coeffs == (t * t, t.frob(1) + t, A2.one)

    def test_degree(self, A3):
        t = A3.gen
        a = t ** 3 + t + A3.one
        assert carlitz_phi(A3, a).degree == 3

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_multiplicativity_and_commutation(self, data):
        A = polyring(fq(data.draw(st.sampled_from([2, 3]))))
        a = apolys(data, A.base)
        b = apolys(data, A.base)
        pa, pb = carlitz_phi(A, a), carlitz_phi(A, b)
        assert pa * pb == carlitz_phi(A, a * b)
        assert pa * pb == pb * pa

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_additivity(self, data):
        A = polyring(fq(2))
        a = apolys(data, A.base)
        b = apolys(data, A.base)
        assert carlitz_phi(A, a) + carlitz_phi(A, b) == carlitz_phi(A, a + b)

    def test_cache_is_thread_safe(self, A3):
        action = carlitz_action(A3)
        t = A3.gen
        targets = [t ** k + t for k in range(1, 9)]
        results = {}

        def worker(idx):
            for a in targets:
                results[(idx, tuple(c.idx for c in a.coeffs))] = action.phi(a)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for a in targets:
            key = tuple(c.idx for c in a.coeffs)
            vals = {results[(i, key)] for i in range(4)}
            assert len(vals) == 1


class TestTorsionPoly:
    def test_linear(self, F2, A2):
        t = A2.gen
        tors = carlitz_torsion_poly(F2, t)
        assert tors.coeffs[1] == t and tors.coeffs[2] == A2.one
        assert tors.degree == 2

    def test_t_squared(self, F2, A2):
        t = A2.gen
        tors = carlitz_torsion_poly(F2, t * t)
        assert tors.coeffs[1] == t * t
        assert tors.coeffs[2] == t * t + t
        assert tors.coeffs[4] == A2.one

    def test_scalar(self, F3, A3):
        two = A3.from_int(2)
        tors = carlitz_torsion_poly(F3, two)
        assert tors.degree == 1 and tors.coeffs[1] == two

    def test_zero_rejected(self, F2, A2):
        with pytest.raises(DomainError):
            carlitz_torsion_poly(F2, A2.zero)


class TestEisenstein:
    def test_q2_t(self, F2, A2):
        ok, witness = check_eisenstein(F2, A2.gen)
        assert ok and witness["reduction"] == "Z^2"

    def test_q2_degree2_derived(self, F2, A2):
        # expand Phi_(t^2+t+1) = Phi_(t^2) + Phi_t + 1 by hand and compare
        t = A2.gen
        wp = t * t + t + A2.one
        direct = (carlitz_torsion_poly(F2, t * t)
                  + carlitz_torsion_poly(F2, t)
                  + Poly(A2, (A2.zero, A2.one)))
        assert direct == carlitz_torsion_poly(F2, wp)
        for k in range(direct.degree):
            c = direct.coeffs[k]
            assert c.is_zero() or wp_valuation(c, wp) >= 1
        ok, witness = check_eisenstein(F2, wp)
        assert ok and witness["reduction"] == "Z^4"

    def test_q3_t(self, F3, A3):
        ok, witness = check_eisenstein(F3, A3.gen)
        assert ok and witness["reduction"] == "Z^3"

    def test_reducible_rejected(self, F2, A2):
        with pytest.raises(DomainError):
            check_eisenstein(F2, A2.gen * A2.gen)

    @pytest.mark.parametrize("q,max_deg", [(2, 4), (3, 4)])
    def test_sweep(self, q, max_deg):
        field = fq(q)
        A = polyring(field)
        count = 0
        for wp in A.monic_irreducibles(max_deg):
            ok, witness = check_eisenstein(field, wp)
            assert ok, (wp, witness)
            count += 1
        assert count > 0


class TestCyclotomic:
    def test_w_t(self, F2, A2):
        t = A2.gen
        w = carlitz_cyclotomic(F2, [t])
        assert w.coeffs == (t, A2.one)

    def test_w_t_squared_exact_division_oracle(self, F2, A2):
        t = A2.gen
        w = carlitz_cyclotomic(F2, [t, t])
        # re-expansion oracle: W_(t^2) * Phi_t = Phi_(t^2)
        assert w * carlitz_torsion_poly(F2, t) == carlitz_torsion_poly(F2, t * t)
        assert w.degree == 2 ** 2 - 2

    def test_irreducible_index(self, F2, A2):
        t = A2.gen
        wp = t * t + t + A2.one
        w = carlitz_cyclotomic(F2, [wp])
        assert w.degree == 2 ** 2 - 1
        # W_wp * X = Phi_wp
        X = Poly(A2, (A2.zero, A2.one))
        assert w * X == carlitz_torsion_poly(F2, wp)

    @pytest.mark.parametrize("q", [2, 3])
    def test_degree_formula(self, q):
        # deg W_n = sum over monic divisors m of mu(n/m) q^deg(m), compared
        # against an independent enumeration of the divisor lattice
        field = fq(q)
        A = polyring(field)
        t = A.gen
        cases = [[t], [t, t], [t, t + A.one], [t, t, t]]
        for factors in cases:
            w = carlitz_cyclotomic(field, factors)
            n = A.one
            for f in factors:
                n = n * f
            divisor_degs = []
            for dd in range(n.degree + 1):
                for m in A.monic_polys(dd):
                    quot, rem = divmod(n, m)
                    if not rem.is_zero():
                        continue
                    # mu of the cofactor by trial factorization over irreducibles
                    mu = _mu(A, quot)
                    if mu:
                        divisor_degs.append(mu * q ** dd)
            assert w.degree == sum(divisor_degs)

    @pytest.mark.parametrize("q, factors", [
        (2, ["t", "t", "t", "t+1", "t+1"]),
        (2, ["t", "t+1", "t^2+t+1"]),
        (2, ["t^2+t+1", "t^2+t+1", "t"]),
        (3, ["t", "t", "t+1"]),
        (3, ["t^2+1", "t", "t+2", "t"]),
    ])
    def test_divisors_brute_force_oracle(self, q, factors):
        # every monic divisor m of n with mu(n/m) != 0, found by trial
        # division and _mu, against the keep/drop enumeration
        field = fq(q)
        A = polyring(field)
        factors = [parse_apoly(A, f) for f in factors]
        n = A.one
        for f in factors:
            n = n * f
        expected = set()
        for dd in range(n.degree + 1):
            for m in A.monic_polys(dd):
                quot, rem = divmod(n, m)
                if rem.is_zero() and _mu(A, quot):
                    expected.add((m, _mu(A, quot)))
        got = list(_divisors_from_factorization(field, factors))
        assert len(got) == len(set(got)) == len(expected)
        assert set(got) == expected


def _mu(A, n):
    """Moebius value by trial division over monic irreducibles (tiny inputs)."""
    if n.degree == 0:
        return 1
    count = 0
    for wp in A.monic_irreducibles(n.degree):
        if divmod(n, wp)[1].is_zero():
            n2, r = divmod(n, wp)
            if divmod(n2, wp)[1].is_zero():
                return 0
            count += 1
            n = n2
            if n.degree == 0:
                break
    return -1 if count % 2 else 1


def test_inexact_division_guarded(F2, A2):
    with pytest.raises(DomainError):
        carlitz_cyclotomic(F2, [])
