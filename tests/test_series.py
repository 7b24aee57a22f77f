import functools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.carlitz import carlitz_phi
from drinfeld.errors import DomainError, PrecisionError
from drinfeld import fields, series as series_module
from drinfeld.fields import AResidue, Poly, ResidueRing, fq, polyring
from drinfeld.series import SeriesRing, TruncSeries, newton_slopes
from drinfeld.tate import lattice_inverse


def sring(q, prec):
    return SeriesRing(polyring(fq(q)), prec)


def random_series(data, S, max_terms=4, allow_laurent=False):
    field = S.ring.base
    apoly = st.lists(st.sampled_from(field.elements()), max_size=3).map(
        lambda cs: Poly(field, cs))
    coeffs = data.draw(st.lists(apoly, min_size=0, max_size=max_terms))
    val = data.draw(st.integers(-2 if allow_laurent else 0, 2))
    return TruncSeries(S.ring, val, coeffs, S.prec)


class TestArith:
    def test_geometric_series(self):
        S = sring(2, 4)
        g = (S.one - S.x()).inv()
        assert [g.coeff(k) for k in range(4)] == [S.ring.one] * 4

    def test_laurent_shift(self):
        S = sring(2, 6)
        x = S.x()
        f = (x + x * x).shift(-1)
        assert f.val == 0 and f.coeff(0) == S.ring.one and f.coeff(1) == S.ring.one

    def test_geometric_with_theta(self):
        S = sring(2, 3)
        t = S.ring.gen
        h = (S.one + S.theta * S.x()).inv()
        assert h.coeff(0) == S.ring.one
        assert h.coeff(1) == t and h.coeff(2) == t * t

    def test_inv_requires_unit(self):
        S = sring(2, 5)
        t = S.ring.gen
        f = S.one.scale(t) + S.x()
        with pytest.raises(DomainError):
            f.inv()

    def test_inv_zero_to_precision(self):
        S = sring(2, 5)
        with pytest.raises(PrecisionError):
            S.zero.inv()

    def test_precision_propagation_rules(self):
        S = sring(2, 8)
        a = TruncSeries(S.ring, 1, (S.ring.one,), 5)
        b = TruncSeries(S.ring, 2, (S.ring.one,), 7)
        assert (a + b).prec == 5
        assert (a * b).prec == min(1 + 7, 2 + 5)
        inv = a.inv()
        assert inv.val == -1 and inv.prec == 5 - 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mul_commutes_and_associates(self, data):
        S = sring(data.draw(st.sampled_from([2, 3])), 6)
        a = random_series(data, S)
        b = random_series(data, S)
        c = random_series(data, S)
        assert (a * b).agrees_with(b * a)
        assert ((a * b) * c).agrees_with(a * (b * c))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_precision_soundness(self, data):
        # recompute a pipeline at higher precision; truncation must agree
        lo, hi = 5, 9
        Slo, Shi = sring(2, lo), sring(2, hi)
        field = fq(2)
        apoly = st.lists(st.sampled_from(field.elements()), max_size=3).map(
            lambda cs: Poly(field, cs))
        coeffs = data.draw(st.lists(apoly, min_size=1, max_size=4))
        val = data.draw(st.integers(0, 2))
        a_lo = TruncSeries(Slo.ring, val, coeffs, lo)
        a_hi = TruncSeries(Shi.ring, val, coeffs, hi)
        pipe = lambda f, one, x: (f * f + one) * (x + f)
        out_lo = pipe(a_lo, Slo.one, Slo.x())
        out_hi = pipe(a_hi, Shi.one, Shi.x())
        assert out_hi.truncate(out_lo.prec).agrees_with(out_lo)
        assert out_hi.truncate(out_lo.prec) == out_lo.truncate(out_hi.prec)


def subtraction_ring(name):
    """F_2[t], F_3[t], F_4[t], or A/(m) over F_2 and over F_4."""
    if name == "F4[t]/(t^2)":
        return ResidueRing(polyring(fq(4)).gen ** 2)
    if name == "F2[t]/((t+1)^3)":
        return residue_view(2, "t+1", 3)
    return polyring(fq(int(name[1])))


class TestSubtraction:
    """a - b subtracts coefficientwise without building -b; the result is
    a + (-b) in val, coeffs and prec."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_adding_the_negation(self, data):
        ring = subtraction_ring(data.draw(st.sampled_from(
            ["F2[t]", "F3[t]", "F4[t]", "F4[t]/(t^2)", "F2[t]/((t+1)^3)"])))
        field = ring.base_field
        lift = ring.reduce if hasattr(ring, "modulus") else (lambda c: c)
        elem = st.lists(st.sampled_from(field.elements()), max_size=4).map(
            lambda cs: lift(Poly(field, cs)))

        def series():
            coeffs = data.draw(st.lists(elem, max_size=8))
            val = data.draw(st.integers(-2, 3))
            prec = val + data.draw(st.integers(0, 10))
            return TruncSeries(ring, val, coeffs, prec)

        a, b = series(), series()
        assert a - b == a + (-b)
        assert a - a == TruncSeries.zero(ring, a.prec)

    def test_no_coefficient_is_negated(self, monkeypatch):
        S = sring(2, 8)
        t = S.ring.gen
        a = TruncSeries(S.ring, 0, [t, t * t, S.ring.one], 8)
        b = TruncSeries(S.ring, 1, [t + S.ring.one, t], 6)
        expected = a + (-b)

        def refuse(self):
            raise AssertionError("a coefficient was negated")

        monkeypatch.setattr(Poly, "__neg__", refuse)
        assert a - b == expected and (a - b).prec == 6


def int_rem(row, modulus, p):
    """row mod (modulus, p) by long division on plain integers; modulus is
    monic, given by its coefficient indices, low degree first."""
    row = [v % p for v in row]
    d = len(modulus) - 1
    for top in range(len(row) - 1, d - 1, -1):
        c = row[top]
        if c:
            for i, m in enumerate(modulus):
                row[top - d + i] = (row[top - d + i] - c * m) % p
    return row[:d] if len(row) > d else row


def schoolbook_mul(f, g):
    """f * g by the precision rules of the module docstring, with every
    t-coefficient product summed as a plain integer and reduced mod p at the
    end (over A/(m): then mod m by integer long division); independent of
    both product paths in the package."""
    ring, p = f.ring, f.ring.p
    modulus = getattr(ring, "modulus", None)
    field = ring.base_field

    def idx(c):
        return [x.idx for x in (c.value if modulus is not None else c).coeffs]

    prec = min(f.val + g.prec, g.val + f.prec)
    val = f.val + g.val
    n = prec - val
    if not f.coeffs or not g.coeffs or n <= 0:
        return TruncSeries.zero(ring, prec)
    rows = [[] for _ in range(min(n, len(f.coeffs) + len(g.coeffs) - 1))]
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs[:max(0, len(rows) - i)]):
            row = rows[i + j]
            ai, bi = idx(a), idx(b)
            row.extend([0] * (len(ai) + len(bi) - 1 - len(row)))
            for k, c in enumerate(ai):
                for l, d in enumerate(bi):
                    row[k + l] += c * d
    els = field.elements()
    if modulus is not None:
        m = [x.idx for x in modulus.coeffs]
        return TruncSeries(ring, val, [
            AResidue(ring, Poly(field, [els[v] for v in int_rem(r, m, p)]).coeffs)
            for r in rows], prec)
    return TruncSeries(ring, val, [Poly(field, [els[v % p] for v in r])
                                   for r in rows], prec)


def dense_series(S, rows, tlen, val=0):
    """rows x-coefficients, each of t-length tlen with every entry p - 1."""
    top = S.ring.base.from_int(-1)
    return TruncSeries(S.ring, val, [Poly(S.ring.base, [top] * tlen)] * rows,
                       S.prec)


def packed_slot_bytes(f, g, n):
    """The slot width kronecker_dot picks for the first n rows of f * g."""
    a, b = f.coeffs[:n], g.coeffs[:n]
    da = max(len(c.coeffs) for c in a)
    db = max(len(c.coeffs) for c in b)
    bound = min(len(a), len(b)) * min(da, db) * (f.ring.p - 1) ** 2
    return next(w for w in (1, 2, 4, 8) if bound < 256 ** w)


class TestPackedProduct:
    """Series over F_p[t] multiply through kronecker_dot; they must agree
    with the schoolbook product in val, coeffs and prec."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_schoolbook(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        field = fq(p)
        A = polyring(field)
        apoly = st.lists(st.sampled_from(field.elements()), max_size=6).map(
            lambda cs: Poly(field, cs))

        def series():
            coeffs = data.draw(st.lists(apoly, max_size=12))
            val = data.draw(st.integers(-2, 3))
            prec = val + data.draw(st.integers(0, 14))
            return TruncSeries(A, val, coeffs, prec)

        f, g = series(), series()
        assert f * g == schoolbook_mul(f, g)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_zero_to_precision_operands(self, p):
        S = sring(p, 8)
        f = dense_series(S, 5, 3)
        zero = TruncSeries.zero(S.ring, 6)
        for a, b in ((f, zero), (zero, f), (zero, zero)):
            assert a * b == schoolbook_mul(a, b)
            assert (a * b).is_zero()
        # operands whose product window is empty: n = prec - val <= 0
        hi = TruncSeries(S.ring, 7, [S.ring.one], 8)
        assert hi * hi == schoolbook_mul(hi, hi)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_truncated_window(self, p):
        # n = 4 rows asked for from operands of 10 rows (full product 19)
        S = sring(p, 10)
        f = dense_series(S, 10, 4, val=1)
        g = dense_series(S, 10, 3, val=2).truncate(5)
        prod = f * g
        assert prod == schoolbook_mul(f, g)
        assert (prod.val, prod.prec) == (3, 6)

    @pytest.mark.parametrize("rows,tlen,width", [(4, 2, 2), (20, 92, 4)])
    def test_wide_slots_at_p7(self, rows, tlen, width):
        # all coefficients 6: the middle slot sums rows * tlen * 36, which
        # overflows the next smaller width
        S = sring(7, rows)
        f = dense_series(S, rows, tlen)
        assert packed_slot_bytes(f, f, rows) == width
        assert rows * tlen * 36 >= 256 ** (width // 2)
        assert f * f == schoolbook_mul(f, f)


def residue_view(p, kind, k):
    """A/(m) over F_p with m = t^k, (t+1)^k or pi^k for the first monic
    irreducible pi of degree kind (2 or 3)."""
    A = polyring(fq(p))
    if kind == "t":
        base = A.gen
    elif kind == "t+1":
        base = A.gen + A.one
    else:
        base = next(f for f in A.monic_irreducibles(kind) if f.degree == kind)
    return ResidueRing(base ** k)


def dense_residue_series(R, rows, val=0):
    """rows x-coefficients, each the representative with every entry p - 1."""
    top = R.field.from_int(-1)
    c = AResidue(R, Poly(R.field, [top] * R.degree).coeffs)
    return TruncSeries(R, val, [c] * rows, rows + val)


class TestPackedResidueProduct:
    """Series over A/(m), p prime, multiply through kronecker_dot with one
    reduction per row; they must agree with the schoolbook product in val,
    coeffs and prec.  Over F_4 the object path runs."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_schoolbook(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        kind = data.draw(st.sampled_from(["t", "t+1", 2, 3]))
        k = data.draw(st.integers(1, 12 // (kind if isinstance(kind, int) else 1)))
        R = residue_view(p, kind, k)
        assert R.packed
        elem = st.lists(st.sampled_from(R.field.elements()),
                        max_size=R.degree).map(
            lambda cs: AResidue(R, Poly(R.field, cs).coeffs))

        def series():
            coeffs = data.draw(st.lists(elem, max_size=10))
            val = data.draw(st.integers(-2, 3))
            prec = val + data.draw(st.integers(0, 12))
            return TruncSeries(R, val, coeffs, prec)

        f, g = series(), series()
        prod = f * g
        assert prod == schoolbook_mul(f, g)
        assert all(c.value.degree < R.degree for c in prod.coeffs)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("kind,k", [("t", 6), ("t+1", 5), (2, 3), (3, 2)])
    def test_zero_to_precision_operands(self, p, kind, k):
        R = residue_view(p, kind, k)
        f = dense_residue_series(R, 5)
        zero = TruncSeries.zero(R, 6)
        for a, b in ((f, zero), (zero, f), (zero, zero)):
            assert a * b == schoolbook_mul(a, b)
            assert (a * b).is_zero()
        hi = TruncSeries(R, 7, [R.one], 8)
        assert hi * hi == schoolbook_mul(hi, hi)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("kind,k", [("t", 6), ("t+1", 5), (2, 3), (3, 2)])
    def test_truncated_window(self, p, kind, k):
        # n = 4 rows asked for from operands of 10 rows (full product 19)
        R = residue_view(p, kind, k)
        f = dense_residue_series(R, 10, val=1)
        g = dense_residue_series(R, 10, val=2).truncate(5)
        prod = f * g
        assert prod == schoolbook_mul(f, g)
        # rows may vanish mod m (p = 2, m = (t^2+t+1)^3 divides c^2)
        assert prod.prec == 6 and prod.val + len(prod.coeffs) <= 6

    def test_dense_modulus_at_p7(self):
        # every coefficient of m below the top is nonzero, so each row
        # reduction runs the whole fold; rows of t-length deg m + 1 (2 + 3 - 1)
        # take exactly one elimination step
        A = polyring(fq(7))
        t = A.gen
        R = ResidueRing(A.poly([5, 2, 3, 1]))
        f = TruncSeries(R, 0, [R.reduce(t + 3), R.reduce(6 * t + 1)], 3)
        g = TruncSeries(R, 0, [R.reduce(t * t + 4),
                               R.reduce(2 * t * t + t + 6)], 3)
        prod = f * g
        assert prod == schoolbook_mul(f, g)
        assert any(len(c.value.coeffs) == R.degree for c in prod.coeffs)
        h = dense_residue_series(R, 6)
        assert h * h == schoolbook_mul(h, h)

    def test_prime_field_rows_skip_poly_division(self, monkeypatch):
        R = residue_view(7, 2, 2)
        f = dense_residue_series(R, 6)
        want = schoolbook_mul(f, f)

        def refuse(*args):
            raise AssertionError("Poly.__divmod__ reached over F_7")

        monkeypatch.setattr(Poly, "__divmod__", refuse)
        assert f * f == want

    def test_nonprime_field_keeps_object_path(self, monkeypatch):
        A = polyring(fq(4))
        R = ResidueRing((A.gen + A.one) ** 3)
        assert not R.packed

        def refuse(*args):
            raise AssertionError("kronecker_dot reached over F_4")

        monkeypatch.setattr(series_module, "kronecker_dot", refuse)
        u = R.field.elements()[2]
        c = AResidue(R, Poly(R.field, [u, R.field.one, u]).coeffs)
        f = TruncSeries(R, 0, [c, R.one, c], 4)
        want = [sum((f.coeffs[i] * f.coeffs[k - i]
                     for i in range(max(0, k - 2), min(k, 2) + 1)), R.zero)
                for k in range(4)]
        assert f * f == TruncSeries(R, 0, want, 4)


def lane_spy(monkeypatch):
    """Record the (p, w) of every lane-table lookup of the read-back."""
    seen = []
    tables = fields._lane_tables

    def spy(p, w):
        seen.append((p, w))
        return tables(p, w)

    monkeypatch.setattr(fields, "_lane_tables", spy)
    return seen


class TestReadBack:
    """kronecker_dot reduces the product bytes mod p by translate, in byte
    lanes while w (p - 1) < 256, and slot by slot beyond; every route must
    give the schoolbook product, over F_p[t] and over A/(m) with an empty
    and a nonempty fold."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_schoolbook(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7, 31, 37, 127]))
        kind = data.draw(st.sampled_from([None, "t", "t+1", 2]))
        ring = polyring(fq(p)) if kind is None else \
            residue_view(p, kind, data.draw(st.integers(1, 4)))
        field = ring.base_field
        lift = ring.reduce if kind is not None else (lambda c: c)
        # 0, 1 and p - 1 make slot sums that cancel mod p and mod m
        idx = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
        elem = st.lists(idx, max_size=9).map(
            lambda cs: lift(Poly(field, [field.from_int(c) for c in cs])))

        def series():
            coeffs = data.draw(st.lists(elem, max_size=10))
            val = data.draw(st.integers(-1, 2))
            prec = val + data.draw(st.integers(0, 12))
            return TruncSeries(ring, val, coeffs, prec)

        f, g = series(), series()
        assert f * g == schoolbook_mul(f, g)

    @pytest.mark.parametrize("p,rows,tlen,width,lanes", [
        (127, 1, 1, 2, True), (127, 2, 3, 4, False),
        (31, 10, 8, 4, True), (37, 6, 9, 4, True), (7, 20, 92, 4, True)])
    def test_lane_rule_on_products(self, monkeypatch, p, rows, tlen, width,
                                   lanes):
        # every coefficient p - 1: the middle slots reach the slot bound
        S = sring(p, rows)
        f = dense_series(S, rows, tlen)
        assert packed_slot_bytes(f, f, rows) == width
        seen = lane_spy(monkeypatch)
        assert f * f == schoolbook_mul(f, f)
        assert ((p, width) in seen) is lanes

    @pytest.mark.parametrize("kind,k", [("t", 3), ("t+1", 2), (2, 2)])
    def test_residue_rows_at_p127(self, kind, k):
        R = residue_view(127, kind, k)
        f = dense_residue_series(R, 4)
        t = R.reduce(polyring(R.field).gen)
        g = TruncSeries(R, 0, [t, R.one - t, t * t, R.zero, -R.one], 4)
        for a, b in ((f, f), (f, g), (g, g)):
            assert a * b == schoolbook_mul(a, b)

    def test_rows_that_vanish(self):
        # (1 + x)(1 - x) = 1 - x^2 over F_p[t]; t * t = 0 in A/(t^2)
        for p in (2, 3, 31, 127):
            A = polyring(fq(p))
            one = A.one
            f = TruncSeries(A, 0, [one, one], 3)
            g = TruncSeries(A, 0, [one, -one], 3)
            assert (f * g).coeffs == (one, A.zero, -one)
            assert f * g == schoolbook_mul(f, g)
            R = residue_view(p, "t", 2)
            t = R.reduce(A.gen)
            h = TruncSeries(R, 0, [t, t], 3)
            assert (h * h).is_zero() and h * h == schoolbook_mul(h, h)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 31, 37, 127]),
           st.sampled_from([1, 2, 4, 8]), st.data())
    def test_reduce_slots_is_slotwise_mod_p(self, p, w, data):
        vals = data.draw(st.lists(st.integers(0, 256 ** w - 1), max_size=12))
        raw = b"".join(v.to_bytes(w, "little") for v in vals)
        assert fields._reduce_slots(raw, p, w) == bytes(v % p for v in vals)

    @pytest.mark.parametrize("p,lanes", [(2, True), (31, True), (37, False),
                                         (127, False)])
    def test_lane_rule_at_eight_bytes(self, monkeypatch, p, lanes):
        # w = 8 needs a slot bound of 2^32, beyond a product in a test:
        # 8 (p - 1) < 256 holds at p = 31 and fails at p = 37
        vals = [0, 1, p, 2 ** 54 - 1, 256 ** 8 - 1, 123456789 * p + 5]
        raw = b"".join(v.to_bytes(8, "little") for v in vals)
        seen = lane_spy(monkeypatch)
        assert fields._reduce_slots(raw, p, 8) == bytes(v % p for v in vals)
        assert ((p, 8) in seen) is lanes


def packed_ring(data, primes=(2, 3, 5, 7, 31, 37, 127)):
    """F_p[t] or A/(m) with m = t^k (empty fold), (t+1)^k or pi^k
    (nonempty fold), p prime, and an element strategy over it whose
    entries favour 0, 1 and p - 1 (slot sums that cancel)."""
    p = data.draw(st.sampled_from(primes))
    kind = data.draw(st.sampled_from([None, "t", "t+1", 2]))
    ring = polyring(fq(p)) if kind is None else \
        residue_view(p, kind, data.draw(st.integers(1, 4)))
    field = ring.base_field
    lift = ring.reduce if kind is not None else (lambda c: c)
    idx = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    elem = st.lists(idx, max_size=9).map(
        lambda cs: lift(Poly(field, [field.from_int(c) for c in cs])))
    return ring, elem


def dot_rows_reference(terms, n, ring):
    """The first n coefficients of sum x^s a b, each product by
    ``schoolbook_mul`` and the sum by series addition."""
    acc = TruncSeries.zero(ring, n)
    for s, a, b in terms:
        acc = acc + schoolbook_mul(TruncSeries(ring, s, a, n),
                                   TruncSeries(ring, 0, b, n))
    return [acc.coeff(k) for k in range(n)]


def slot_spy(monkeypatch):
    """Record the (p, w) of every ``_reduce_slots`` call."""
    seen = []
    reduce_slots = fields._reduce_slots

    def spy(raw, p, w):
        seen.append((p, w))
        return reduce_slots(raw, p, w)

    monkeypatch.setattr(fields, "_reduce_slots", spy)
    return seen


class TestKroneckerDot:
    """kronecker_dot sums shifted Kronecker products as integers and reads
    the sum back once (flushing when the slot bound would overflow); it
    must give the sum of the schoolbook products coefficient for
    coefficient, over F_p[t] and over A/(m) with an empty and a nonempty
    fold."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_sum_of_schoolbook_products(self, data):
        ring, elem = packed_ring(data)
        n = data.draw(st.integers(1, 12))
        terms = []
        for _ in range(data.draw(st.integers(0, 5))):
            s = data.draw(st.integers(0, n + 2))  # shifts at and past n too
            a = data.draw(st.lists(elem, max_size=8))
            b = data.draw(st.lists(elem, max_size=8))
            terms.append((s, a, b))
            if data.draw(st.booleans()):  # a term and its negation cancel
                terms.append((s, a, [-c for c in b]))
        got = fields.kronecker_dot(terms, n, ring)
        assert len(got) <= n
        got = got + [ring.zero] * (n - len(got))
        assert got == dot_rows_reference(terms, n, ring)

    @pytest.mark.parametrize("p,kind,rows,tlen,count,shifts,width", [
        (2, None, 4, 4, 20, 3, 1),     # 16 a term, 320 in all: past 255
        # t-length 2 mod (t+1)^2, one nonzero coefficient (t) a row: 12 a
        # term, so no flush at 12 terms, one at 24
        (3, "t+1", 3, 3, 12, 3, 1),
        (3, "t+1", 3, 3, 24, 3, 1),
        (5, "t", 6, 2, 30, 3, 1),      # empty fold: 192 a term
        (127, None, 1, 1, 6, 3, 2),    # 126^2 a term, 6 of them past 65535
        (127, 2, 2, 3, 5, 3, 4),       # 6 * 126^2 a term: no flush at w = 4
        (7, None, 20, 92, 3, 3, 4),    # 66240 a term: no flush at w = 4
        # aligned slots at their bound: 3 * 85 = 255 fills a byte, so a
        # flushed slot (up to 1) must force the next flush one term early
        (2, None, 5, 17, 7, 1, 1),
        # 255 a term: a flushed slot needs room, so w = 2, not 1
        (2, None, 15, 17, 3, 1, 2),
    ])
    def test_flushes_keep_the_sum(self, monkeypatch, p, kind, rows, tlen,
                                  count, shifts, width):
        field = fq(p)
        ring = polyring(field) if kind is None else residue_view(p, kind, 2)
        top = Poly(field, [field.from_int(-1)] * tlen)
        c = top if kind is None else ring.reduce(top)
        a = [c] * rows
        tlen = max(len(x.coeffs) for x in a)
        nonzeros = sum(1 for x in a for e in x.coeffs if e)
        terms = [(k % shifts, a, a) for k in range(count)]
        bound = min(rows * tlen, nonzeros) * (p - 1) ** 2
        flushes = count * bound >= 256 ** width
        seen = slot_spy(monkeypatch)
        got = fields.kronecker_dot(terms, 2 * rows + 2, ring)
        assert got == dot_rows_reference(terms, 2 * rows + 2, ring)[:len(got)]
        assert all(pw == (p, width) for pw in seen)
        assert (len(seen) > 1) is flushes

    @staticmethod
    def monomial_rows(p, rows, k):
        """rows x-coefficients over F_p[t], each (p - 1) t^k: one nonzero
        coefficient in a t-length of k + 1."""
        field = fq(p)
        c = Poly(field, [field.zero] * k + [field.from_int(-1)])
        return polyring(field), [c] * rows

    @pytest.mark.parametrize("p,rows,old_width,width", [
        (2, 30, 2, 1),      # 30 against 30 * 12 = 360
        (3, 30, 2, 1),      # 120 against 1440
        (5, 15, 2, 1),      # 240 against 2880
        (7, 7, 2, 1),       # 252 against 3024
        (31, 30, 4, 2),     # 27000 against 324000
        (127, 4, 4, 2),     # 63504 against 762048
    ])
    def test_sparse_operands_get_narrow_slots(self, monkeypatch, p, rows,
                                              old_width, width):
        # each row is (p - 1) t^11: the slot bound is the nonzero count
        # times (p - 1)^2, not rows * t-length * (p - 1)^2, and the middle
        # slot of x^(rows - 1) t^22 reaches it exactly
        ring, a = self.monomial_rows(p, rows, 11)
        assert fields._slot_width(rows * 12 * (p - 1) ** 2) == old_width
        seen = slot_spy(monkeypatch)
        got = fields.kronecker_dot([(0, a, a)], 2 * rows - 1, ring)
        assert got == dot_rows_reference([(0, a, a)], 2 * rows - 1, ring)
        assert seen == [(p, width)]

    @pytest.mark.parametrize("p,rows,width", [
        (2, 255, 1), (2, 256, 2),   # 255 and 256 nonzero products a slot
        (3, 63, 1), (3, 64, 2),     # 252 and 256
        (5, 15, 1), (5, 16, 2),     # 240 and 256
    ])
    def test_nonzero_bound_at_a_byte(self, monkeypatch, p, rows, width):
        # rows x-coefficients (p - 1) t: the slot of x^(rows - 1) t^2 sums
        # rows products (p - 1)^2, so 256 must not fit in one byte
        ring, a = self.monomial_rows(p, rows, 1)
        seen = slot_spy(monkeypatch)
        got = fields.kronecker_dot([(0, a, a)], 2 * rows - 1, ring)
        assert got == dot_rows_reference([(0, a, a)], 2 * rows - 1, ring)
        assert seen == [(p, width)]

    @pytest.mark.parametrize("p,width", [
        (2, 1), (3, 1), (5, 1), (7, 1), (31, 2), (127, 2)])
    def test_dense_operands_keep_the_rows_bound(self, monkeypatch, p, width):
        # 10 rows of t-length 2 against 2 rows of t-length 5, every entry
        # p - 1: a slot pairs at most 2 rows and 2 t-terms, so 4 products,
        # below both nonzero counts (20 and 10); at p = 7 the counts alone
        # would give 360, two bytes
        field = fq(p)
        ring = polyring(field)
        top = field.from_int(-1)
        a = [Poly(field, [top] * 2)] * 10
        b = [Poly(field, [top] * 5)] * 2
        seen = slot_spy(monkeypatch)
        got = fields.kronecker_dot([(0, a, b)], 11, ring)
        assert got == dot_rows_reference([(0, a, b)], 11, ring)
        assert seen == [(p, width)]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sparse_rows_match_schoolbook(self, data):
        # operands with zero rows and interior zero coefficients; a
        # one-term sum reads back once, at the width of the bound
        ring, _ = packed_ring(data, primes=(2, 3, 5, 7, 31, 127))
        field = ring.base_field
        p = field.p
        lift = ring.reduce if hasattr(ring, "modulus") else (lambda c: c)
        idx = st.sampled_from([0, 0, 0, p - 1]) | st.integers(0, p - 1)
        elem = st.lists(idx, max_size=12).map(
            lambda cs: lift(Poly(field, [field.from_int(c) for c in cs])))
        n = data.draw(st.integers(1, 16))
        terms = [(data.draw(st.integers(0, 3)),
                  data.draw(st.lists(elem, max_size=12)),
                  data.draw(st.lists(elem, max_size=12)))
                 for _ in range(data.draw(st.integers(1, 3)))]
        with pytest.MonkeyPatch.context() as patch:
            seen = slot_spy(patch)
            got = fields.kronecker_dot(terms, n, ring)
        got = got + [ring.zero] * (n - len(got))
        assert got == dot_rows_reference(terms, n, ring)
        if len(terms) == 1 and seen:
            s, a, b = terms[0]
            a, b = a[:n - s], b[:n - s]
            ta = min(max(len(c.coeffs) for c in a),
                     max(len(c.coeffs) for c in b))
            nonzeros = [sum(1 for c in x for e in c.coeffs if e)
                        for x in (a, b)]
            bound = min(min(len(a), len(b)) * ta, *nonzeros) * (p - 1) ** 2
            assert seen == [(p, fields._slot_width(bound))]

    def test_a_product_reads_back_once(self, monkeypatch):
        # f * g and f.scale(c) are one-term sums: one pack per operand and
        # one read-back each
        R = residue_view(5, "t+1", 3)
        f = dense_residue_series(R, 6)
        want = schoolbook_mul(f, f)
        seen = slot_spy(monkeypatch)
        assert f * f == want
        assert len(seen) == 1
        c = R.theta + R.one
        assert f.scale(c) == schoolbook_mul(TruncSeries.constant(c, R, 6), f)
        assert len(seen) == 2

    def test_empty_and_invisible_terms(self):
        # a term shifted to row n or beyond is not packed at all
        A = polyring(fq(3))
        ones = [A.one] * 6
        assert fields.kronecker_dot([], 4, A) == []
        assert fields.kronecker_dot([(4, ones, ones), (5, ones, ones),
                                     (9, ones, ones), (0, [], ones),
                                     (1, [A.zero], ones)], 4, A) == []


def element_dot_reference(ring, pairs, prec=None):
    """sum a b over the pairs, each coefficient summed over the ring's
    elements in a plain double loop, with the precision of the module
    docstring; a ring element a is the constant a, exact to every order.
    Independent of ``dot`` and of both of its row routines."""
    zero = ring.zero
    acc = {}
    top = prec
    for a, b in pairs:
        if isinstance(a, TruncSeries):
            here = min(a.val + b.prec, b.val + a.prec)
            aval, acoeffs = a.val, a.coeffs
        else:
            here, aval, acoeffs = b.prec, 0, (ring.coerce(a),)
        top = here if top is None else min(top, here)
        for i, x in enumerate(acoeffs, aval):
            for j, y in enumerate(b.coeffs, b.val):
                acc[i + j] = acc.get(i + j, zero) + x * y
    lo = min(min(acc, default=top), top)
    return TruncSeries(ring, lo, [acc.get(k, zero) for k in range(lo, top)],
                       top)


class TestElementDot:
    """``series._element_dot``, the loop dot runs where kronecker_dot does
    not pack, is a second code path for kronecker_dot: on the packed rings
    both give the same rows up to trailing zeros, over F_p[t] and over A/(m)
    with an empty and a nonempty fold."""

    @staticmethod
    def trimmed(rows):
        rows = list(rows)
        while rows and not rows[-1]:
            rows.pop()
        return rows

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_kronecker_dot(self, data):
        ring, elem = packed_ring(data)
        n = data.draw(st.integers(1, 12))
        terms = []
        for _ in range(data.draw(st.integers(0, 5))):
            s = data.draw(st.integers(0, n + 2))  # shifts at and past n too
            if data.draw(st.booleans()):
                a = [data.draw(elem)]  # a scalar term, as dot forms it
            else:
                a = data.draw(st.lists(elem, max_size=8))
            terms.append((s, a, data.draw(st.lists(elem, max_size=8))))
        got = series_module._element_dot(terms, n, ring)
        assert len(got) <= n
        assert self.trimmed(got) == self.trimmed(
            fields.kronecker_dot(terms, n, ring))

    @pytest.mark.parametrize("q", [3, 4])
    def test_shifts_at_and_past_n(self, q):
        # a term shifted to row n or beyond reaches no row: no negative
        # slice, and the list stops after the last row reached
        A = polyring(fq(q))
        ones = [A.one] * 6
        assert series_module._element_dot([(4, ones, ones),
                                           (9, ones, ones)], 4, A) == []
        rows = series_module._element_dot([(9, ones, ones),
                                           (1, ones[:2], ones[:1]),
                                           (4, ones, ones)], 4, A)
        assert rows == [A.zero, A.one, A.one]


class TestSeriesDot:
    """series.dot equals the sum of the products it stands for, started
    from TruncSeries.zero(ring, prec) when prec is given, in val, every
    coefficient and prec; a coefficient-ring element a stands for
    b.scale(a), the constant a exact to every order."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_sum_of_products(self, data):
        ring, elem = packed_ring(data)

        def series():
            coeffs = data.draw(st.lists(elem, max_size=8))
            val = data.draw(st.integers(-2, 6))
            prec = val + data.draw(st.integers(0, 10))
            return TruncSeries(ring, val, coeffs, prec)

        pairs = []
        for _ in range(data.draw(st.integers(1, 5))):
            b = series()
            a = data.draw(st.sampled_from(["series", "scalar", "negated"]))
            if a == "series":
                pairs.append((series(), b))
            elif a == "scalar":
                pairs.append((data.draw(elem), b))
            elif pairs and not isinstance(pairs[-1][0], TruncSeries):
                prev, b0 = pairs[-1]  # cancels the previous scalar term
                pairs.append((-prev, b0))
            else:
                pairs.append((ring.one, b))
        prec = data.draw(st.none() | st.integers(-2, 14))
        terms = [schoolbook_mul(a, b) if isinstance(a, TruncSeries)
                 else element_dot_reference(ring, [(a, b)]) for a, b in pairs]
        if prec is None:
            want = functools.reduce(operator.add, terms)
        else:
            want = sum(terms, TruncSeries.zero(ring, prec))
        got = series_module.dot(ring, pairs, prec)
        assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs,
                                                   want.prec)

    def test_series_ring_dot_is_the_sum(self):
        # a SeriesRing in place of the coefficient ring caps the sum at its
        # precision, as the sum started from its zero does
        S = sring(3, 8)
        t = S.ring.gen
        u = [S.x(1) + S.theta, S.one, S.x(3)]
        v = [S.x(2).scale(t), S.theta - S.x(5), S.one.truncate(4)]
        want = sum(map(operator.mul, u, v), S.zero)
        got = series_module.dot(S, zip(u, v))
        assert want.prec == 7  # x^3 * (1 + O(x^4))
        assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs, 7)

    def test_nonprime_field_keeps_the_sum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kronecker_dot reached over F_4")

        monkeypatch.setattr(series_module, "kronecker_dot", refuse)
        S = sring(4, 6)
        u = S.ring.base.elements()[2]
        f = TruncSeries(S.ring, 1, [S.ring.gen, Poly(S.ring.base, [u])], 6)
        g = TruncSeries(S.ring, 0, [S.ring.one, S.ring.zero, S.ring.gen], 4)
        pairs = [(f, f), (S.ring.gen, f), (S.one, f), (g, f)]
        for prec in (6, 4, None):
            want = element_dot_reference(S.ring, pairs, prec)
            got = series_module.dot(S.ring, pairs, prec)
            assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs,
                                                       want.prec)
        assert want.prec == 5  # x^1 * (1 + O(x^4))
        # the one-term cases: a product and a scaling
        for pair in ((f, g), (g, f), (Poly(S.ring.base, [u]), g)):
            want = element_dot_reference(S.ring, [pair])
            got = pair[0] * pair[1] if isinstance(pair[0], TruncSeries) \
                else pair[1].scale(pair[0])
            assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs,
                                                       want.prec)


class TestTwistedDot:
    """A term (a, b, k) of ``dot`` is a b^(q^k): dot equals the uncut sum,
    every b twisted whole by ``frob(k)`` and the products summed by the
    element loop of ``element_dot_reference``, in val, every coefficient and
    prec, with and without a cap.  The rings are F_p[t] (``kronecker_dot``),
    F_4[t] (``_element_dot``) and A/(m) over both."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_uncut_sum(self, data):
        q = data.draw(st.sampled_from([2, 3, 4, 5]))
        A = polyring(fq(q))
        field = A.base_field
        ring = A
        if data.draw(st.booleans()):
            base = data.draw(st.sampled_from([A.gen, A.gen + A.one]))
            ring = ResidueRing(base ** data.draw(st.integers(1, 3)))
        lift = ring.reduce if ring is not A else (lambda c: c)
        elem = st.lists(st.sampled_from(field.elements()), max_size=3).map(
            lambda cs: lift(Poly(field, cs)))

        def series(lo, hi):
            val = data.draw(st.integers(lo, hi))
            prec = val + data.draw(st.integers(0, 8))
            return TruncSeries(ring, val, data.draw(st.lists(elem, max_size=6)),
                               prec)

        terms = []
        for _ in range(data.draw(st.integers(1, 4))):
            b = series(0, 4)
            k = data.draw(st.integers(0, 3))
            a = data.draw(st.sampled_from(["scalar", "series", "laurent"]))
            a = data.draw(elem) if a == "scalar" else \
                series(0, 4) if a == "series" else series(-3, -1)
            plain = k == 0 and data.draw(st.booleans())
            terms.append((a, b) if plain else (a, b, k))
        prec = data.draw(st.none() | st.integers(-2, 30))
        want = element_dot_reference(
            ring, [(t[0], t[1].frob(t[2]) if len(t) > 2 else t[1])
                   for t in terms], prec)
        got = series_module.dot(ring, terms, prec)
        assert (got.val, got.coeffs, got.prec) == (want.val, want.coeffs,
                                                   want.prec)


def recurrence_inv(f):
    """1/f by the term recurrence out_k = -u_0^-1 sum_j u_j out_(k-j), the
    inversion TruncSeries.inv ran on every ring before Newton's iteration."""
    relprec = f.prec - f.val
    lead_inv = f.coeffs[0].inv()
    zero = f.ring.zero
    out = [zero] * relprec
    out[0] = lead_inv
    for k in range(1, relprec):
        acc = zero
        for j in range(1, min(k, len(f.coeffs) - 1) + 1):
            if f.coeffs[j] and out[k - j]:
                acc = acc + f.coeffs[j] * out[k - j]
        out[k] = -(lead_inv * acc)
    return TruncSeries(f.ring, -f.val, out, relprec - f.val)


class TestNewtonInverse:
    """Over packed rings TruncSeries.inv runs Newton's iteration through
    one-term kronecker_dot calls; it must agree with the recurrence in val,
    coeffs and prec.  Over F_4 the recurrence runs."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_recurrence(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        kind = data.draw(st.sampled_from([None, "t", "t+1", 2, 3]))
        if kind is None:
            R = polyring(fq(p))
            elem = st.lists(st.sampled_from(R.base.elements()),
                            max_size=5).map(lambda cs: Poly(R.base, cs))
        else:
            k = data.draw(st.integers(
                1, 8 // (kind if isinstance(kind, int) else 1)))
            R = residue_view(p, kind, k)
            elem = st.lists(st.sampled_from(R.field.elements()),
                            max_size=R.degree).map(
                lambda cs: AResidue(R, Poly(R.field, cs).coeffs))
        assert R.packed
        relprec = data.draw(st.integers(1, 80))
        shape = data.draw(st.sampled_from(["dense", "sparse", "gap"]))
        if shape == "dense":
            coeffs = data.draw(st.lists(elem, min_size=relprec,
                                        max_size=relprec))
        else:
            # lattice-style: a few terms at scattered orders; "gap" puts one
            # term past a run of zeros, so the Newton residual starts there
            coeffs = [R.zero] * relprec
            picks = 1 if shape == "gap" else data.draw(st.integers(1, 4))
            for _ in range(picks):
                coeffs[data.draw(st.integers(0, relprec - 1))] = \
                    data.draw(elem)
        lead = data.draw(elem)
        if kind is None:
            lead = Poly(R.base, [data.draw(st.sampled_from(
                R.base.elements()[1:]))])
        else:
            try:
                lead.inv()
            except DomainError:
                lead = lead + R.one  # m is a power of base, and base | lead
        coeffs[0] = lead
        val = data.draw(st.integers(0, 3))
        f = TruncSeries(R, val, coeffs, val + relprec)
        assert f.inv() == recurrence_inv(f)

    @pytest.mark.parametrize("q,g", [(2, "t3"), (3, "t2"), (5, "t+1")])
    def test_lattice_inverse_operands(self, q, g):
        # the deg g + 1 term polynomial lattice_inverse inverts, at N = 80
        A = polyring(fq(q))
        t = A.gen
        g = {"t3": t ** 3, "t2": t * t + A.one, "t+1": t + A.one}[g]
        phi = carlitz_phi(A, g)
        qr = q ** phi.degree
        coeffs = [A.zero] * qr
        for j, c in enumerate(phi.coeffs):
            coeffs[qr - q ** j] = c
        u = TruncSeries(A, 0, coeffs, 80)
        assert u.inv() == recurrence_inv(u)

    def test_nonprime_field_keeps_recurrence(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kronecker_dot reached over F_4")

        monkeypatch.setattr(series_module, "kronecker_dot", refuse)
        A = polyring(fq(4))
        u = A.base.elements()[2]
        f = TruncSeries(A, 1, [A.one, A.gen, Poly(A.base, [u, u])] * 7, 22)
        assert f.inv() == recurrence_inv(f)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_nonunit_leading_coefficient(self, p):
        A = polyring(fq(p))
        R = residue_view(p, "t", 3)
        for ring, lead in ((A, A.gen), (R, R.reduce(A.gen))):
            f = TruncSeries(ring, 0, [lead, ring.one], 40)
            with pytest.raises(DomainError,
                               match="^leading series coefficient is not a "
                                     "unit$"):
                f.inv()


def substitute_untruncated(f, g):
    """The Horner substitution over every stored term of f, with the
    certified precision of TruncSeries.substitute."""
    ring = f.ring
    gval = g.order()
    if gval is None:
        gval = g.prec
    kmin = next((k for k in f.coeff_range() if k != 0 and f.coeff(k)), None)
    certified = gval * f.prec
    if kmin is not None:
        certified = min(certified, g.prec + (kmin - 1) * gval)
    acc = TruncSeries.zero(ring, certified - min(0, f.val) * gval)
    for k in range(f.val + len(f.coeffs) - 1, f.val - 1, -1):
        acc = acc * g
        c = f.coeff(k)
        if c:
            acc = acc + TruncSeries.constant(c, ring, max(1, acc.prec))
    if f.val > 0:
        acc = acc * (g ** f.val)
    elif f.val < 0:
        acc = acc * (g.inv() ** (-f.val))
    return acc.truncate(certified)


class TestSubstituteTruncation:
    """Horner stops at k < ceil(certified / val g); the terms it skips are
    invisible, so the result equals the untruncated one exactly."""

    def _draw(self, data, S, val, min_terms=1):
        field = S.ring.base
        apoly = st.lists(st.sampled_from(field.elements()), max_size=3).map(
            lambda cs: Poly(field, cs))
        coeffs = [S.ring.one] + data.draw(st.lists(apoly, min_size=min_terms - 1,
                                                   max_size=9))
        return TruncSeries(S.ring, val, coeffs, S.prec)

    def _target(self, data, S, gval):
        # leading coefficient one, so g inverts when f has a Laurent tail
        g = self._draw(data, S, gval)
        return g.truncate(data.draw(st.integers(gval + 1, S.prec)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_untruncated(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        S = sring(p, 12)
        val = data.draw(st.sampled_from([-2, -1, 0, 1, 2]))
        f = self._draw(data, S, val)
        g = self._target(data, S, data.draw(st.integers(1, 3)))
        try:
            out = f.substitute(g)
        except PrecisionError:  # a Laurent tail can leave nothing certified
            return
        assert out == substitute_untruncated(f, g)

    def test_skipped_terms_are_invisible(self):
        # f = sum_{k<12} x^k into g = x^3: terms k >= 4 lie beyond x^12
        S = sring(2, 12)
        f = TruncSeries(S.ring, 0, [S.ring.one] * 12, 12)
        g = S.x(3)
        out = f.substitute(g)
        assert out == substitute_untruncated(f, g)
        assert out.prec == 12 and [out.coeff(k) for k in (0, 3, 6, 9)] == \
            [S.ring.one] * 4


class TestSubstitute:
    def test_simple(self):
        S = sring(2, 8)
        f = S.one + S.x()
        g = f.substitute(S.x() * S.x())
        assert g.coeff(0) == S.ring.one and g.coeff(2) == S.ring.one
        assert not g.coeff(1)

    def test_lattice_inverse_oracle(self):
        # F_t = x^2 / (1 + theta x) = x^2 + theta x^3 + theta^2 x^4 + ...
        F2 = fq(2)
        A = polyring(F2)
        t = A.gen
        F = lattice_inverse(F2, t, 8)
        assert F.val == 2
        for k in range(2, 8):
            assert F.coeff(k) == t ** (k - 2)

    def test_identity_substitution(self):
        F2 = fq(2)
        S = sring(2, 8)
        F = lattice_inverse(F2, polyring(F2).gen, 8)
        assert S.x().substitute(F).agrees_with(F)

    def test_nonpositive_valuation_rejected(self):
        S = sring(2, 6)
        f = (S.one - S.x()).inv()  # genuine infinite tail
        with pytest.raises(DomainError):
            f.substitute(S.one + S.x())

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_substitution_associativity(self, data):
        S = sring(2, 7)
        f = random_series(data, S)
        g = random_series(data, S)
        g = g.shift(1 - g.val if g.coeffs and g.val < 1 else 0)
        h = random_series(data, S)
        h = h.shift(1 - h.val if h.coeffs and h.val < 1 else 0)
        if not g.coeffs or not h.coeffs:
            return
        lhs = f.substitute(g).substitute(h)
        rhs = f.substitute(g.substitute(h))
        assert lhs.agrees_with(rhs, upto=min(lhs.prec, rhs.prec))


class TestDerivative:
    def test_char2_powers(self):
        S = sring(2, 8)
        x = S.x()
        assert (x ** 3).derivative().agrees_with(x * x)
        assert (x * x).derivative().is_zero()
        f = S.one + S.theta * x
        assert f.derivative().coeff(0) == S.ring.gen

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_derivation_rule(self, data):
        S = sring(data.draw(st.sampled_from([2, 3])), 7)
        a = random_series(data, S)
        b = random_series(data, S)
        lhs = (a * b).derivative()
        rhs = a * b.derivative() + b * a.derivative()
        assert lhs.agrees_with(rhs)


class TestSubring:
    def test_q3_examples(self):
        S = sring(3, 6)
        x = S.x()
        f = S.one + x ** 2 + x ** 4
        assert f.in_subring(2)
        assert not (S.one + x).in_subring(2)

    def test_q2_always(self):
        S = sring(2, 6)
        f = S.one + S.x() + S.x() ** 3
        assert f.in_subring(1)

    def test_compress(self):
        S = sring(3, 7)
        x = S.x()
        f = S.one + x ** 2 + x ** 6
        y = f.compress(2)
        assert y.coeff(0) == S.ring.one and y.coeff(1) == S.ring.one
        assert y.coeff(3) == S.ring.one
        assert y.prec == 4  # ceil(7/2)


class TestFrobenius:
    def test_pth_power_precision_multiplies(self):
        S = sring(2, 5)
        f = S.one + S.x()
        g = f.pth_power(1)
        assert g.prec == 10
        assert g.coeff(0) == S.ring.one and g.coeff(2) == S.ring.one
        assert not g.coeff(1)

    def test_matches_repeated_multiplication(self):
        S = sring(3, 5)
        t = S.ring.gen
        f = S.one + S.x().scale(t) + S.x() ** 2
        assert f.pth_power(1).agrees_with(f * f * f)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_pth_power_spreads_coefficients(self, data):
        """c_i x^i goes to c_i^(p^k) x^(i p^k), zero coefficients included;
        the valuation and the precision multiply by p^k, and the value is
        f ** (p^k)."""
        S = sring(data.draw(st.sampled_from([2, 3, 4])), 5)
        f = random_series(data, S, allow_laurent=True)
        k = data.draw(st.integers(1, 2))
        step = S.ring.p ** k
        g = f.pth_power(k)
        assert g.prec == f.prec * step
        assert g.val == f.val * step or not f.coeffs
        for n in range(f.val * step, g.prec):
            want = f.coeff(n // step).pth_power(k) if n % step == 0 \
                else S.ring.zero
            assert g.coeff(n) == want
        if f.val >= 0:
            assert g.agrees_with(f ** step)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_frobenius_is_additive(self, data):
        S = sring(data.draw(st.sampled_from([2, 3])), 6)
        a = random_series(data, S)
        b = random_series(data, S)
        assert (a + b).frob(1).agrees_with(a.frob(1) + b.frob(1))
        assert (a * b).frob(1).agrees_with(a.frob(1) * b.frob(1))


class TestPowerProtocol:
    def test_zero_power_keeps_the_relative_precision(self):
        """x ** 0 is one to precision max(1, prec - val): Laurent, unit,
        high-valuation and zero-to-precision series at prec 8."""
        S = sring(2, 8)
        laurent = TruncSeries(S.ring, -3, (S.ring.one,), 8)
        cases = [(laurent, 11), (S.one + S.x(), 8), (S.x(3), 5), (S.x(7), 1),
                 (S.zero, 1)]
        for f, prec in cases:
            assert f ** 0 == TruncSeries.one(S.ring, prec)

    def test_negative_power_inverts(self):
        S = sring(3, 6)
        f = S.one + S.x().scale(S.ring.gen)
        assert (f ** -2).agrees_with((f * f).inv())
        with pytest.raises(PrecisionError):
            S.zero ** -1


def test_newton_slopes():
    hull = newton_slopes([(1, 3), (2, 1), (4, 0), (8, 2)])
    assert hull == [(1, 3), (2, 1), (4, 0), (8, 2)]
    hull2 = newton_slopes([(0, 0), (1, 5), (2, 1)])
    assert hull2 == [(0, 0), (2, 1)]
