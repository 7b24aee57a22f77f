import json
import sys

import pytest

from drinfeld import cli, fields, series as series_module, tate, tau
from drinfeld.carlitz import carlitz_phi
from drinfeld.errors import DomainError, PrecisionError
from drinfeld.fields import ResidueRing, fq, is_irreducible, polyring
from drinfeld.forms import series_wp_valuation
from drinfeld.series import TruncSeries
from drinfeld.tate import TateDrinfeld, lattice_inverse, td_instance

from conftest import TD_CONFIGS, slot_counter, td_config


class TestExponential:
    def test_e1_truncated_product_oracle(self, F2, A2):
        # independent path: for q=2, e1 = F_1 + F_t + F_(t+1) up to the
        # contribution of degree >= 2 indices, exact through x^7
        t = A2.gen
        td = td_config((2, "t", "1"))
        N = td.prec
        oracle = (lattice_inverse(F2, A2.one, N)
                  + lattice_inverse(F2, t, N)
                  + lattice_inverse(F2, t + A2.one, N))
        # indices of degree 2 start contributing at valuation q^2 = 4 via
        # single factors; sum those too for full agreement to x^8
        for a in A2.monic_polys(2):
            oracle = oracle + lattice_inverse(F2, a, N)
        assert td.exp_coeff(1).agrees_with(oracle)
        # frozen low-order values: e1 = x + x^3 mod x^4
        e1 = td.exp_coeff(1)
        assert e1.coeff(1) == A2.one and not e1.coeff(2) and e1.coeff(3) == A2.one

    def test_e0_is_one(self):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            e0 = td.exp_coeff(0)
            assert e0.coeff(0) == td.A.one and all(
                not e0.coeff(k) for k in range(1, e0.prec))

    def test_higher_coefficients_vanish_mod_x(self):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            for i in range(1, td.i_max + 1):
                ei = td.exp_coeff(i)
                assert ei.is_zero() or ei.order() >= 1

    @pytest.mark.parametrize("i,message", [
        (1, "e_1 has x-valuation 2 at precision 8, expected 1"),
        (3, "e_3 has x-valuation 7 at precision 8, expected 21")])
    def test_corrupted_coefficient_is_2(self, monkeypatch, capsys, i, message):
        # at q=2, N=8, e_1 has valuation exactly 1 and e_3 (valuation 21)
        # vanishes: shift e_1 by one place, or give e_3 a term x^7
        check = TateDrinfeld._check_exponential

        def corrupted(td, e):
            e = list(e)
            e[i] = e[i].shift(1) if e[i] else TruncSeries.x_power(td.A, 7, 8)
            return check(td, tuple(e))

        monkeypatch.setattr(TateDrinfeld, "_check_exponential", corrupted)
        monkeypatch.setattr(tate, "_TD_CACHE", {})
        code = cli.main(["tate", "expand", "--q", "2", "--wp", "t",
                         "--prec", "8"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["kind"] == "internal-consistency"
        assert err["error"] == message

    def test_descent_to_q_minus_1_subring(self):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            q = td.q
            for i in range(td.i_max + 1):
                assert td.exp_coeff(i).in_subring(q - 1)
            assert td.a1.in_subring(q - 1)
            assert td.a2.in_subring(q - 1)


class TestCoefficients:
    def test_a1_frozen_value(self, A2):
        # a1 = e1 (theta^q - theta) + 1 = 1 + (t^2+t)(x + x^3) mod x^4
        t = A2.gen
        td = td_config((2, "t", "1"))
        assert td.a1.coeff(0) == A2.one
        assert td.a1.coeff(1) == t * t + t
        assert not td.a1.coeff(2)
        assert td.a1.coeff(3) == t * t + t

    def test_valuation_tags(self):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            one = td.S.one
            diff = td.a1 - one
            assert td.a1.coeff(0) == td.A.one
            assert diff.is_zero() or diff.order() >= 1
            # x^(q-1) for f = 1; nu_f multiplies the valuation by q^deg(f)
            assert td.a2.order() == (td.q - 1) * td.q ** td.f.degree
            assert td.a2.leading().degree == 0  # unit of A in front

    def test_functional_equation_residuals(self):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            for r in td.functional_equation_residuals():
                assert r.is_zero()

    def test_phi_a_has_expected_degree(self, A2):
        td = td_config((2, "t", "1"))
        t = A2.gen
        assert td.module.phi(t).degree == 2
        assert td.module.phi(t * t + A2.one).degree == 4

    def test_j_invariant_descends_to_unit(self):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            j = td.module.j_invariant()
            assert j.order() == -td.a2_valuation
            yj = td.descended_j()
            assert yj.order() == 0
            assert yj.coeff(0).degree == 0  # unit constant term


class TestNu:
    def test_f_equals_one_is_identity(self, F2, A2):
        td = td_config((2, "t", "1"))
        s = td.a1
        assert td.nu(A2.one, s) is s

    def test_unit_g_divides_x(self, F3, A3):
        # nu_2 is x -> F_2(x) = x/2 = 2x over F_3, so c_k x^k -> 2^k c_k x^k
        td = td_config((3, "t", "1"), 12)
        two = A3.from_int(2)
        x = TruncSeries.x_power(A3, 1, 12)
        assert td.nu(two, x).agrees_with(
            x.substitute(lattice_inverse(F3, two, 12)))
        assert td.nu(two, x).agrees_with(x.scale(two))
        s = TruncSeries(A3, 1, [A3.one, A3.gen, A3.one], 12)
        out = td.nu(two, s)
        assert out.prec == s.prec
        for k in range(s.prec):
            assert out.coeff(k) == s.coeff(k) * two ** k
        assert not out.agrees_with(s)

    def test_zero_g_raises(self, A3):
        td = td_config((3, "t", "1"), 12)
        with pytest.raises(DomainError):
            td.nu(A3.zero, TruncSeries.x_power(A3, 1, 12))

    def test_wp_substitution_matches_module_series(self, F2, A2):
        # F_t = x^2 + theta x^3 + theta^2 x^4 + ... (the series-module oracle)
        t = A2.gen
        F = lattice_inverse(F2, t, 8)
        x = TruncSeries.x_power(A2, 1, 8)
        sub = td_config((2, "t", "1")).nu(t, x)
        assert sub.agrees_with(F)

    def test_nu_f_carries_lambda_to_f_lambda(self, F2, A2):
        # nu_f(e_Lambda coefficients) = e_(f Lambda) coefficients
        t = A2.gen
        td1 = td_config((2, "t", "1"))
        tdf = td_config((2, "t", "t"))
        for i in range(min(td1.i_max, tdf.i_max) + 1):
            lhs = td1.nu(t, td1.exp_coeff(i))
            assert lhs.agrees_with(tdf.exp_coeff(i))


    @pytest.mark.parametrize("q,wp,N", [(2, "t", 24), (2, "t2+t+1", 40),
                                        (3, "t", 27), (3, "t+1", 40),
                                        (4, "t", 30)])
    def test_nu_wp_carries_a1_a2_to_the_wp_lattice(self, q, wp, N):
        # TD(wp Lambda) from its own lattice against nu_wp of TD(Lambda):
        # the deg f >= 1 Ore steps checked through substitution
        field = fq(q)
        A = polyring(field)
        t = A.gen
        wp = {"t": t, "t+1": t + A.one, "t2+t+1": t * t + t + A.one}[wp]
        td1 = TateDrinfeld(field, wp, A.one, N)
        tdf = TateDrinfeld(field, wp, wp, N)
        for base, scaled in ((td1.a1, tdf.a1), (td1.a2, tdf.a2)):
            transported = td1.nu(wp, base)
            assert transported.prec == scaled.prec == N
            assert transported == scaled


def horner_nu(td, g, s):
    """nu_g by the Horner oracle: s(F_g) truncated to the working window;
    the PrecisionError class when nothing can be certified."""
    try:
        return s.substitute(lattice_inverse(td.field, g, td.prec)).truncate(td.prec)
    except PrecisionError:
        return PrecisionError


def table_nu(td, g, s):
    try:
        return td.nu(g, s)
    except PrecisionError:
        return PrecisionError


class TestNuPowerTable:
    """nu_g from the table of powers of F_g against ``substitute``, in prec
    and every coefficient, over units, wp, f, a Laurent tail, short and zero
    inputs, and F_g zero to precision."""

    @staticmethod
    def _inputs(td):
        A, N = td.A, td.prec
        t = A.gen
        short = TruncSeries(A, 1, [t, A.one, A.zero, t * t + A.one], N - 3)
        return [td.a1, td.a2, td.exp_coeff(1), short, TruncSeries.zero(A, N),
                td.a1.shift(-1)]

    @staticmethod
    def _check(td, g, s):
        ref, out = horner_nu(td, g, s), table_nu(td, g, s)
        if ref is PrecisionError or out is PrecisionError:
            assert ref is out
            return
        assert out.prec == ref.prec
        for k in range(min(out.val, ref.val), out.prec):
            assert out.coeff(k) == ref.coeff(k)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("wp_degree", [1, 2])
    @pytest.mark.parametrize("f_name", ["1", "t"])
    def test_matches_horner(self, q, wp_degree, f_name):
        field = fq(q)
        A = polyring(field)
        t = A.gen
        wp = next(a for a in A.monic_polys(wp_degree) if is_irreducible(a))
        f = {"1": A.one, "t": t}[f_name]
        td = TateDrinfeld(field, wp, f, (q - 1) * q ** f.degree + 6)
        units = [A.coerce(c) for c in field.elements() if c and c != field.one]
        for g in [wp] + [f] * (f != A.one) + units[:1]:
            for s in self._inputs(td):
                self._check(td, g, s)

    @pytest.mark.parametrize("N", [3, 4])
    def test_lattice_inverse_zero_to_precision(self, F2, A2, N):
        # q^deg wp = 4 >= N: F_wp vanishes mod x^N, the table holds F^0, F
        t = A2.gen
        wp = t * t + t + A2.one
        td = TateDrinfeld(F2, wp, A2.one, N)
        assert lattice_inverse(F2, wp, N).is_zero()
        for s in self._inputs(td):
            self._check(td, wp, s)
        assert len(td._powers[wp.coeffs]) == 2
        assert td.nu(wp, td.a1) == TruncSeries.one(A2, N)


class TestFrobeniusPowerTable:
    """The power table builds F_g^k with p | k as a p-th power of
    F_g^(k/p), with no series product; it equals the table of successive
    truncated products entry for entry, in val, coeffs and prec."""

    @staticmethod
    def _instance(q, wp_degree, f_name, N):
        field = fq(q)
        A = polyring(field)
        wp = next(a for a in A.monic_polys(wp_degree) if is_irreducible(a))
        f = {"1": A.one, "t": A.gen}[f_name]
        # the engine needs N above (q-1) q^deg f: 72 at q = 9, f = t
        N = max(N, (q - 1) * q ** f.degree + 4)
        return TateDrinfeld(field, wp, f, N), [wp] + [A.gen] * (wp_degree > 1)

    @pytest.mark.parametrize("q,N", [(2, 64), (3, 48), (4, 40), (5, 30),
                                     (9, 64)])
    @pytest.mark.parametrize("wp_degree", [1, 2])
    @pytest.mark.parametrize("f_name", ["1", "t"])
    def test_matches_successive_products(self, q, N, wp_degree, f_name):
        td, gs = self._instance(q, wp_degree, f_name, N)
        N = td.prec
        for g in gs:
            F = lattice_inverse(td.field, g, N)
            want = [TruncSeries.one(td.A, N), F]
            while len(want) * (F.order() or N) < N:
                want.append((want[-1] * F).truncate(N))
            got = td._lattice_powers(g)
            assert len(got) == len(want)
            for P, Q in zip(got, want):
                assert (P.val, P.coeffs, P.prec) == (Q.val, Q.coeffs, Q.prec)

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_multiples_of_p_take_no_product(self, monkeypatch, q):
        td, (g,) = self._instance(q, 1, "1", 64)
        p = td.field.p
        assert td._powers == {}
        left = []
        mul = TruncSeries.__mul__

        def counting_mul(a, b):
            left.append(a)
            return mul(a, b)

        monkeypatch.setattr(TruncSeries, "__mul__", counting_mul)
        powers = td._lattice_powers(g)
        # each product is F^(k-1) F for an entry k prime to p
        made = [next(i for i, P in enumerate(powers) if P is a) + 1
                for a in left]
        assert made == [k for k in range(2, len(powers)) if k % p]
        assert any(k % p == 0 for k in range(2, len(powers)))


class TestPackedSums:
    """nu, sigma in the Ore step, _fe_residual, _psi_lhs, _expp_rhs and each
    coefficient of a TauPoly product over the series ring are one
    ``series.dot`` each, and over F_p[t] a dot reads its sum back once:
    one ``_reduce_slots`` when a term is visible, none otherwise.  A dot
    called from a comprehension is credited to the function around it."""

    CALLERS = {"nu", "_build_exponential", "_fe_residual", "_psi_lhs",
               "_expp_rhs", "_series_mul"}

    @pytest.mark.parametrize("q,wp,N", [(2, "t", 32), (2, "t2", 40),
                                        (3, "t", 27)])
    def test_each_sum_reads_back_once(self, monkeypatch, q, wp, N):
        field = fq(q)
        A = polyring(field)
        t = A.gen
        wp = {"t": t, "t2": t * t + t + A.one}[wp]
        reads = []
        reduce_slots = fields._reduce_slots

        def counting_reduce(*args):
            reads.append(args)
            return reduce_slots(*args)

        sums = []
        dot = series_module.dot

        def counting_dot(ring, pairs, prec=None):
            before = len(reads)
            out = dot(ring, pairs, prec)
            frame = sys._getframe(1)
            while frame.f_code.co_name in ("dot", "<genexpr>", "<listcomp>"):
                frame = frame.f_back
            sums.append((frame.f_code.co_name, len(reads) - before, out))
            return out

        monkeypatch.setattr(fields, "_reduce_slots", counting_reduce)
        monkeypatch.setattr(series_module, "dot", counting_dot)
        monkeypatch.setattr(tate, "dot", counting_dot)
        monkeypatch.setattr(tau, "dot", counting_dot)
        td = TateDrinfeld(field, wp, A.one, N)
        td.canonical_isogeny()
        assert td.verify_tdquot(t)
        read_once = {name for name, n, out in sums if n == 1}
        assert read_once >= self.CALLERS
        assert all(n <= 1 for _, n, _ in sums)
        assert all(n == 1 for _, n, out in sums if out)

    def test_nu_scales_nothing(self, monkeypatch):
        td = td_config((3, "t", "1"), prec=20)
        s = td.a2 + td.a1
        want = horner_nu(td, td.wp, s)

        def refuse(*args):
            raise AssertionError("TruncSeries.scale reached from nu")

        monkeypatch.setattr(TruncSeries, "scale", refuse)
        got = td.nu(td.wp, s)
        assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs,
                                                   want.prec)


class TestTwistCut:
    """Every twisted product of the engine goes through ``series.dot``, which
    twists only the x-orders of b that reach the sum's precision.  The series
    ``TruncSeries.pth_power`` builds for a deg-4 wp at N = 64 (build, Psi and
    the expp residuals) hold 1,074 slots in all; twisting each whole series
    and truncating afterwards built 5,917."""

    def test_twists_build_few_slots(self, monkeypatch):
        field = fq(2)
        A = polyring(field)
        t = A.gen
        built = slot_counter(monkeypatch)
        td = TateDrinfeld(field, t ** 4 + t + A.one, A.one, 64)
        td.canonical_isogeny()
        assert all(r.is_zero() for r in td.expp_residuals())
        assert sum(built) <= 1074


class TestLevelFrobenius:
    """nu_wp(a_i) = a_i^(q^d) mod wp, because Psi = tau^d mod wp; the
    difference has wp-valuation exactly 1, so a wrong nu_wp breaks it."""

    @pytest.mark.parametrize("q,wp,N", [(2, "t", 24), (2, "t2+t+1", 40),
                                        (3, "t+1", 40)])
    def test_nu_wp_is_frobenius_mod_wp(self, q, wp, N):
        field = fq(q)
        A = polyring(field)
        t = A.gen
        wp = {"t": t, "t+1": t + A.one, "t2+t+1": t * t + t + A.one}[wp]
        td = TateDrinfeld(field, wp, A.one, N)
        for a in (td.a1, td.a2):
            diff = (td.nu(wp, a) - a.frob(wp.degree)).truncate(N)
            assert diff.prec == N
            assert series_wp_valuation(diff, wp, 3) == 1


def carlitz_reciprocal(A, a, prec):
    """f_a(x) = x^(q^deg a) Phi^C_a(1/x), a polynomial with constant term 1."""
    qr = A.q ** a.degree
    coeffs = [A.zero] * (qr + 1)
    for j, c in enumerate(carlitz_phi(A, a).coeffs):
        coeffs[qr - A.q ** j] = c
    return TruncSeries(A, 0, coeffs, prec)


def gekeler_a1(A, N):
    """a1 = 1 - (theta^q - theta) sum F_a^(q-1) over monic a with
    (q-1) q^deg a < N, where F_a = x^(q^deg a) / f_a."""
    q, th = A.q, A.gen
    acc = TruncSeries.zero(A, N)
    r = 0
    while (q - 1) * q ** r < N:
        for a in A.monic_polys(r):
            F = carlitz_reciprocal(A, a, N).inv().shift(q ** r)
            acc = acc + F ** (q - 1)
        r += 1
    return TruncSeries.one(A, N) - acc.scale(th.frob(1) - th)


def gekeler_a2(A, N):
    """a2 = -x^(q-1) prod_{a monic} f_a^((q^2-1)(q-1)); f_a - 1 has valuation
    at least (q-1) q^(deg a - 1), so finitely many factors are visible."""
    q = A.q
    M = N - (q - 1)
    prod = TruncSeries.one(A, M)
    r = 1
    while (q - 1) * q ** (r - 1) < M:
        for a in A.monic_polys(r):
            prod = prod * carlitz_reciprocal(A, a, M) ** ((q * q - 1) * (q - 1))
        r += 1
    return -prod.shift(q - 1)


class TestGekelerOracles:
    """a1 and a2 against Gekeler's closed formulas (Invent. Math. 93, 1988),
    computed here from carlitz_phi and series arithmetic alone."""

    @pytest.mark.parametrize("q,N", [(2, 24), (3, 27), (4, 20), (5, 30)])
    def test_a1_a2_match_gekeler(self, q, N):
        field = fq(q)
        A = polyring(field)
        td = TateDrinfeld(field, A.gen, A.one, N)
        for got, ref in ((td.a1, gekeler_a1(A, N)), (td.a2, gekeler_a2(A, N))):
            diff = got - ref
            assert diff.prec >= N and diff.truncate(N).is_zero()


def greedy_i_max(q, f, N, wp_degree):
    """The least i_max >= max(3, deg wp + 1) such that the
    (q^(i_max+1) - 1)/(q - 1) smallest factor valuations (q-1) q^deg(fa) over
    monic a with q^deg(fa) <= N, factors beyond those counted at the next
    degree, sum to at least N: every X-degree beyond q^i_max is then
    invisible mod x^N."""
    vals, r = [], 0
    while q ** (f.degree + r) <= N:
        vals += [(q - 1) * q ** (f.degree + r)] * q ** r
        r += 1
    omitted = (q - 1) * q ** (f.degree + r)
    i_max = max(3, wp_degree + 1)
    while True:
        slots = (q ** (i_max + 1) - 1) // (q - 1)
        if sum(vals[:slots]) + max(0, slots - len(vals)) * omitted >= N:
            return i_max
        i_max += 1


def full_layer_exponential(field, f, N, i_max):
    """e_0..e_i_max from the lattice product over every monic a with
    q^deg(fa) <= N, layers invisible mod x^N included."""
    A = polyring(field)
    q = field.q
    prod = {0: TruncSeries.one(A, N)}
    deg = 0
    while q ** (f.degree + deg) <= N:
        for a in A.monic_polys(deg):
            Fq1 = lattice_inverse(field, f * a, N) ** (q - 1)
            new = dict(prod)
            for k, c in prod.items():
                k2 = k + q - 1
                if k2 < q ** i_max:
                    new[k2] = new[k2] - c * Fq1 if k2 in new else -(c * Fq1)
            prod = new
        deg += 1
    zero = TruncSeries.zero(A, N)
    return [prod.get(q ** i - 1, zero).truncate(N) for i in range(i_max + 1)]


# (q, f, N), each checked at N and N + 1.  Where it is in reach, N is the
# valuation (q-1) q^deg(f) (q^(2D+1)+1)/(q+1) of a layer D >= 1: at N the
# layer cancels and at N + 1 it shows.  Elsewhere layer 1 shows only far
# beyond test sizes, so N = (q-1) q^(deg f + 1), past which its single
# factors show while the layer as a whole still cancels.  At q=7 with
# deg f = 1 that N is 294 and too slow, so N = 49 there checks i_max and a
# degree-1 layer whose factors vanish.
LAYER_CASES = [(2, "1", 11), (2, "t", 22), (2, "t+1", 22), (3, "1", 14),
               (3, "t", 42), (3, "t+1", 42), (4, "1", 39), (4, "t", 48),
               (5, "1", 20), (5, "t", 100), (7, "1", 42), (7, "t+1", 49)]


class TestLayerTruncation:
    """The exponential built from the layers visible mod x^N equals the
    product over every monic a with q^deg(fa) <= N."""

    @pytest.mark.parametrize("q,f,N", LAYER_CASES,
                             ids=["q%d-f%s-N%d" % c for c in LAYER_CASES])
    def test_matches_full_layer_product(self, q, f, N):
        field = fq(q)
        A = polyring(field)
        t = A.gen
        f = {"1": A.one, "t": t, "t+1": t + A.one}[f]
        wps = (t, next(m for m in A.monic_polys(2) if is_irreducible(m)))
        for prec in (N, N + 1):
            for wp in wps:
                i_max = greedy_i_max(q, f, prec, wp.degree)
                e = full_layer_exponential(field, f, prec, i_max)
                a1 = (e[1].scale(t.frob(1) - t)
                      + TruncSeries.one(A, prec)).truncate(prec)
                a2 = (e[2].scale(t.frob(2) - t) + e[1]
                      - a1 * e[1].frob(1)).truncate(prec)
                td = TateDrinfeld(field, wp, f, prec)
                assert td.i_max == i_max
                assert list(td.e) == e
                assert td.a1 == a1 and td.a2 == a2

    def test_builds_only_the_visible_layers(self, monkeypatch):
        # one Ore step, so one lattice inverse, per visible layer: at q=2,
        # N=64 the layer valuations are 1, 5, 21, 85 for f = 1 and twice
        # that for f = t, and w = f t^D for D = 0..3 and D = 0..2
        calls = []

        def counting(field, g, prec):
            calls.append((g, prec))
            return lattice_inverse(field, g, prec)

        monkeypatch.setattr(tate, "lattice_inverse", counting)
        field = fq(2)
        A = polyring(field)
        t = A.gen
        for f, layers in ((A.one, 4), (t, 3)):
            calls.clear()
            TateDrinfeld(field, t, f, 64)
            assert calls == [(f * t ** D, 64) for D in range(layers)]

    @pytest.mark.parametrize("corrupt,message", [
        ("unit", "Ore step 1: sigma has x-valuation 0, expected 1"),
        ("shift", "Ore step 0: beta has x-valuation 2, expected 1")])
    def test_corrupted_ore_step_is_2(self, monkeypatch, capsys, corrupt,
                                     message):
        # at q=2, f=1: a lattice inverse with a unit term from layer 1 on
        # gives sigma the valuation 0, one shifted by x gives beta 2
        def corrupted(field, g, prec):
            F = lattice_inverse(field, g, prec)
            if corrupt == "shift":
                return F.shift(1)
            return F + 1 if g.degree >= 1 else F

        monkeypatch.setattr(tate, "lattice_inverse", corrupted)
        monkeypatch.setattr(tate, "_TD_CACHE", {})
        code = cli.main(["tate", "expand", "--q", "2", "--wp", "t",
                         "--prec", "16"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["kind"] == "internal-consistency"
        assert err["error"] == message


class TestDeepShifts:
    def test_q4_n128_builds(self):
        # over F_4 the rows of dot come from series._element_dot, and at
        # N = 128 the Ore residual has a term shifted past the rows it asks
        # for (shift 153 against 77 rows), which the loop must skip
        field = fq(4)
        A = polyring(field)
        td = TateDrinfeld(field, A.gen, A.one, 128)
        assert td.prec == 128 and td.i_max >= 3


class TestOneTimeWork:
    """nu_wp(e_i) runs once per instance, and the powers of F_g are
    memoised on the instance, not in a module-level table."""

    @staticmethod
    def _module_dicts():
        from drinfeld import series, tate
        return {(m.__name__, k): len(v) for m in (tate, series)
                for k, v in vars(m).items() if isinstance(v, dict)}

    @pytest.mark.parametrize("q,wp", [(2, "t"), (2, "t2"), (3, "t")])
    def test_nu_runs_once_per_exponential_coefficient(self, monkeypatch, q, wp):
        field = fq(q)
        A = polyring(field)
        t = A.gen
        wp = {"t": t, "t2": t * t + t + A.one}[wp]
        calls = []
        nu = TateDrinfeld.nu

        def counting_nu(td, g, series):
            calls.append(g)
            return nu(td, g, series)

        monkeypatch.setattr(TateDrinfeld, "nu", counting_nu)
        td = TateDrinfeld(field, wp, A.one, 10)
        assert calls == []
        psi = td.canonical_isogeny()
        residuals = td.expp_residuals()
        assert len(calls) == td.i_max + 1 and all(g == wp for g in calls)
        assert all(r.is_zero() for r in residuals)
        assert td.canonical_isogeny() is psi and len(calls) == td.i_max + 1

    def test_lattice_inverse_memo_lives_on_the_instance(self, F2, A2):
        t = A2.gen
        before = self._module_dicts()
        td = TateDrinfeld(F2, t, A2.one, 10)
        assert td._powers == {}
        td.canonical_isogeny()
        td.expp_residuals()
        assert td.verify_tdquot(t)
        assert list(td._powers) == [t.coeffs]
        powers = td._powers[t.coeffs]
        F = lattice_inverse(F2, t, 10)
        assert powers[1] == F
        # F_t has valuation 2, so F_t^0 .. F_t^4 are all visible mod x^10
        assert len(powers) == 5
        assert powers[0] == TruncSeries.one(A2, 10)
        assert all(powers[k] == (F ** k).truncate(10) for k in range(1, 5))
        assert TateDrinfeld(F2, t, A2.one, 10)._powers == {}
        assert self._module_dicts() == before

    def test_nu_makes_no_horner_substitution(self, monkeypatch, F3, A3):
        def refuse(series, g):
            raise AssertionError("nu ran TruncSeries.substitute")

        td = TateDrinfeld(F3, A3.gen, A3.one, 12)
        monkeypatch.setattr(TruncSeries, "substitute", refuse)
        td.canonical_isogeny()
        assert all(r.is_zero() for r in td.expp_residuals())
        assert td.verify_tdquot(A3.gen)
        td.nu(A3.from_int(2), td.a1.shift(-1))

    @pytest.mark.parametrize("q,wp", [(2, "t"), (2, "t2"), (3, "t")])
    def test_power_table_is_built_once(self, monkeypatch, q, wp):
        field = fq(q)
        A = polyring(field)
        t = A.gen
        wp = {"t": t, "t2": t * t + t + A.one}[wp]
        td = TateDrinfeld(field, wp, A.one, 16)
        built = []
        inverse = tate.lattice_inverse

        def counting_inverse(field, g, prec):
            built.append(g)
            return inverse(field, g, prec)

        monkeypatch.setattr(tate, "lattice_inverse", counting_inverse)
        td.canonical_isogeny()
        powers = td._powers[wp.coeffs]
        assert all(r.is_zero() for r in td.expp_residuals())
        assert td.verify_tdquot(t) and td.verify_tdquot(wp)
        assert built == [wp]
        assert list(td._powers) == [wp.coeffs]
        assert td._powers[wp.coeffs] is powers


    def test_a2_is_inverted_once(self, monkeypatch, F2, A2):
        # the module keeps the inverse its unit check computed; j, the
        # Taguchi dual and the Kodaira-Spencer factor all read it
        inverted = []
        inv = TruncSeries.inv

        def counting_inv(s):
            inverted.append(s)
            return inv(s)

        monkeypatch.setattr(TruncSeries, "inv", counting_inv)
        td = TateDrinfeld(F2, A2.gen, A2.one, 16)
        td.module.j_invariant()
        td.module.taguchi_dual()
        td.ks_factor()
        assert sum(1 for s in inverted if s == td.a2) == 1
        assert td.module.a2_inv == inv(td.a2)


class TestCanonicalIsogeny:
    def test_c0_is_wp_exactly(self):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            c = td.canonical_isogeny()
            assert len(c) == td.d + 1
            assert c[0].val == 0 and c[0].coeffs == (td.wp,)

    def test_defining_identity_residuals(self):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            for r in td.expp_residuals():
                assert r.is_zero()

    def test_mod_wp_shape(self):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            low_ok, top_unit = td.psi_mod_wp_shape()
            assert low_ok and top_unit

    def test_quotient_module_identity(self, A2):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            t = td.A.gen
            assert td.verify_tdquot(td.A.one)
            assert td.verify_tdquot(t)
            # scalars commute
            lam = td.A.from_int(td.q - 1)
            assert td.verify_tdquot(lam)

    def test_phi_wp_right_divisible_by_psi(self):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            rho = td.rho_tau()
            assert rho.degree == td.d
            # re-expansion oracle: rho * Psi recovers Phi_wp to precision
            prod = rho * td.psi_tau()
            phi = td.module.phi(td.wp)
            for i in range(2 * td.d + 1):
                assert (prod.coeff(i) - phi.coeff(i)).truncate(td.prec).is_zero()

    def test_rho_linear_term_normalization(self):
        # pi^*(dX) = wp dX forces the linear coefficient of Psi to be wp,
        # already covered by c0; the composite must then fix dX, i.e. the
        # linear coefficient of rho * Psi is wp = the linear term of Phi_wp
        td = td_config((2, "t", "1"))
        prod = td.rho_tau() * td.psi_tau()
        assert prod.coeff(0).agrees_with(
            TruncSeries.constant(td.wp, td.A, td.prec))


class TestOrdinarity:
    def test_all_configs_ordinary(self):
        for cfg in TD_CONFIGS:
            td = td_config(cfg)
            ordinary, points, hull = td.ordinarity()
            assert ordinary
            assert points[0][0] == td.d  # first surviving coefficient at tau^d
            assert points[0][1] == 0     # with x-valuation zero

    def test_linear_term_vanishes_mod_wp(self):
        td = td_config((2, "t", "1"))
        R = ResidueRing(td.wp)
        phi = td.module.phi(td.wp)
        assert phi.coeff(0).map_coeffs(R.reduce, R).is_zero()


class TestKodairaSpencer:
    def test_pole_and_residue(self):
        for cfg in TD_CONFIGS:
            if cfg[2] != "1":
                continue
            td = td_config(cfg)
            l = td.ks_factor()
            assert l.order() == -1
            assert l.coeff(-1) == td.A.one

    def test_second_code_path_oracle(self):
        # avoid Laurent inversion entirely: l * a2 must equal a1' a2 - a1 a2'
        for cfg in TD_CONFIGS:
            td = td_config(cfg, prec=8)
            l = td.ks_factor()
            lhs = l * td.a2
            rhs = td.a1.derivative() * td.a2 - td.a1 * td.a2.derivative()
            assert lhs.agrees_with(rhs)

    def test_chain_rule_transport_for_scaled_lattice(self, F2, A2):
        # the scaled module's factor is nu_t of the base one times F_t'
        t = A2.gen
        td1 = td_config((2, "t", "1"), prec=12)
        tdt = td_config((2, "t", "t"), prec=12)
        F = lattice_inverse(F2, t, 14)
        transported = td1.ks_factor().substitute(F) * F.derivative()
        assert tdt.ks_factor().agrees_with(transported)


class TestLevelStructure:
    def test_identity_mod_x(self, A2):
        t = A2.gen
        td = td_instance(fq(2), t, A2.one, 4)
        lam = td.level_structure_image(t)
        # e = X mod x: the image of Z is Z
        assert lam[1].coeff(0) == A2.one
        assert not lam[0] or lam[0].order() >= 1

    def test_a_linearity(self, A2):
        t = A2.gen
        td = td_instance(fq(2), t, A2.one, 4)
        assert td.check_level_a_linearity(t)
        td8 = td_config((2, "t", "1"))
        assert td8.check_level_a_linearity(t * t + t + A2.one)

    def test_trivial_index(self, A2):
        td = td_config((2, "t", "1"))
        assert td.level_structure_image(A2.one) == []
        with pytest.raises(DomainError):
            td.level_structure_image(A2.zero)


class TestPrecisionStability:
    def test_recomputation_at_higher_precision_truncates(self):
        lo = td_instance(fq(2), polyring(fq(2)).gen, polyring(fq(2)).one, 6)
        hi = td_instance(fq(2), polyring(fq(2)).gen, polyring(fq(2)).one, 12)
        assert hi.a1.truncate(lo.a1.prec).agrees_with(lo.a1)
        assert hi.a2.truncate(lo.a2.prec).agrees_with(lo.a2)
        c_lo = lo.canonical_isogeny()
        c_hi = hi.canonical_isogeny()
        for a, b in zip(c_lo, c_hi):
            assert b.truncate(a.prec).agrees_with(a)

    def test_reducible_wp_rejected(self, A2):
        with pytest.raises(DomainError):
            TateDrinfeld(fq(2), A2.gen * A2.gen, A2.one, 6)

    def test_zero_f_rejected(self, A2):
        with pytest.raises(DomainError):
            TateDrinfeld(fq(2), A2.gen, A2.zero, 6)
