import functools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.carlitz import carlitz_action, carlitz_phi
from drinfeld.errors import DomainError
from drinfeld.fields import (AResidue, Poly, ResidueRing, fq, polyring,
                             residue_field_with_theta)
from drinfeld.modules import DrinfeldRank2
from drinfeld.sheaves import (VSheafData, column_echelon, coker_reduce,
                              dual_point_t_action, dual_points, htt_evaluate,
                              kernel_basis, kernel_sheaf, mat_identity,
                              mat_mul, mat_transpose, mat_vec,
                              taguchi_dual_sheaf,
                              vsheaf_validate)
from drinfeld.tau import TauPoly


def carlitz_setup(q, wp_name):
    field = fq(q)
    A = polyring(field)
    t = A.gen
    wp = {"t": t, "t2": t * t + t + A.one}[wp_name]
    K = residue_field_with_theta(wp, 1)
    return field, A, wp, K


def carlitz_wp_sheaf(q, wp_name):
    field, A, wp, K = carlitz_setup(q, wp_name)
    C = carlitz_action(K)
    return field, A, wp, K, kernel_sheaf(C.phi(wp), C.phi_t, K)


def direct_carlitz_wp_sheaf(K, wp):
    """The C[wp] sheaf written down from the explicit splitting formula
    v(Z^(q^i)) = Z^(q^(i-1)) (x) (theta^(q^i) - theta) + Z^(q^i) (x) 1,
    with the t-action and phi read off from (theta Z + Z^q)^(q^i) and the
    reduction Z^(q^d) = -(w_0 Z + ... + w_(d-1) Z^(q^(d-1))) mod Phi^C_wp."""
    d = wp.degree
    theta = K.theta
    w = [K.structure(c) for c in carlitz_phi(polyring(wp.ring), wp).coeffs]
    # column of the reduction of Z^(q^d)
    red = [-w[l] for l in range(d)]
    psi_cols, p_cols, v_cols = [], [], []
    for i in range(d):
        # psi_t(Z^(q^i)) = theta^(q^i) Z^(q^i) + Z^(q^(i+1))
        col = [K.zero] * d
        col[i] = theta.frob(i)
        if i + 1 < d:
            col[i + 1] = col[i + 1] + K.one
        else:
            col = [c + r for c, r in zip(col, red)]
        psi_cols.append(tuple(col))
        # phi(Z^(q^i) (x) 1) = Z^(q^(i+1))
        colp = [K.zero] * d
        if i + 1 < d:
            colp[i + 1] = K.one
        else:
            colp = list(red)
        p_cols.append(tuple(colp))
        # v from the displayed formula; indices stay below d
        colv = [K.zero] * d
        if i >= 1:
            colv[i - 1] = theta.frob(i) - theta
        colv[i] = colv[i] + K.one
        v_cols.append(tuple(colv))
    return VSheafData(K, d, mat_transpose(tuple(p_cols)),
                      mat_transpose(tuple(psi_cols)),
                      mat_transpose(tuple(v_cols)))


class TestValidator:
    def test_degenerate_sheaf(self):
        _, A, wp, K = carlitz_setup(2, "t2")
        n = 2
        zero = tuple((K.zero,) * n for _ in range(n))
        S = VSheafData(K, n, zero, mat_identity(K, n, K.theta), zero)
        ok, violations = vsheaf_validate(S)
        assert ok and not violations

    def test_perturbed_psi_flagged(self):
        _, A, wp, K = carlitz_setup(2, "t2")
        n = 2
        zero = tuple((K.zero,) * n for _ in range(n))
        psi = mat_identity(K, n, K.theta)
        bad = tuple(tuple(x + K.one if i == j == 0 else x
                          for j, x in enumerate(row))
                    for i, row in enumerate(psi))
        ok, violations = vsheaf_validate(VSheafData(K, n, zero, bad, zero))
        assert not ok
        assert "psi_t = theta + phi o v" in violations

    @pytest.mark.parametrize("broken", ["V", "P"])
    def test_each_commutation_axiom_alone(self, broken):
        """Rank 1 over F_4 = A/(t^2+t+1) with Psi = theta, so axiom 1 holds
        for P V = 0.  theta^q != theta, so a nonzero V alone breaks only
        Psi^[q] V = V Psi, and a nonzero P alone only P Psi^[q] = Psi P."""
        _, A, wp, K = carlitz_setup(2, "t2")
        zero, one = ((K.zero,),), ((K.one,),)
        P, V = (zero, one) if broken == "V" else (one, zero)
        S = VSheafData(K, 1, P, ((K.theta,),), V)
        ok, violations = vsheaf_validate(S)
        assert not ok
        assert violations == [{"V": "(psi_t (x) 1) o v = v o psi_t",
                               "P": "psi_t commutes with phi"}[broken]]

    @pytest.mark.parametrize("q,wp_name", [(2, "t"), (2, "t2"), (3, "t")])
    def test_carlitz_kernel_validates_and_matches_direct_formula(self, q, wp_name):
        field, A, wp, K, S = carlitz_wp_sheaf(q, wp_name)
        ok, violations = vsheaf_validate(S)
        assert ok, violations
        direct = direct_carlitz_wp_sheaf(K, wp)
        ok2, violations2 = vsheaf_validate(direct)
        assert ok2, violations2
        assert S == direct


class TestDuality:
    @pytest.mark.parametrize("q,wp_name", [(2, "t"), (2, "t2"), (3, "t")])
    def test_double_dual_identity_and_rank(self, q, wp_name):
        _, A, wp, K, S = carlitz_wp_sheaf(q, wp_name)
        D = taguchi_dual_sheaf(S)
        assert D.rank == S.rank
        assert taguchi_dual_sheaf(D) == S

    def test_dual_of_carlitz_sheaf_is_constant_like(self):
        # phi-matrix of the dual is invertible (etale side of the duality)
        _, A, wp, K, S = carlitz_wp_sheaf(2, "t2")
        D = taguchi_dual_sheaf(S)
        from drinfeld.sheaves import kernel_basis
        assert kernel_basis(K, D.P) == []  # square and injective: invertible

    def test_invalid_input_rejected(self):
        _, A, wp, K = carlitz_setup(2, "t")
        one = ((K.one,),)
        bad = VSheafData(K, 1, one, one, one)
        ok, _ = vsheaf_validate(bad)
        if not ok:
            with pytest.raises(DomainError):
                taguchi_dual_sheaf(bad)


class TestKernelSheaf:
    def test_requires_isogeny(self):
        # Ker(1 + tau) is the constant F_2; with a1 = a2 = 1 over theta != 0
        # it is not t-stable (Phi_t(1) = theta), so 1 + tau is no isogeny
        _, A, wp, K = carlitz_setup(2, "t2")
        E = DrinfeldRank2(K, K.one, K.one)
        not_isog = TauPoly(K, (K.one, K.one))
        with pytest.raises(DomainError):
            kernel_sheaf(not_isog, E.phi_t(), K)

    def test_etale_kernel_has_invertible_phi(self):
        # base of characteristic t+1, kernel of Phi_t: t invertible, so etale
        field = fq(2)
        A = polyring(field)
        t = A.gen
        K = residue_field_with_theta(t + A.one, 1)  # theta = 1
        E = DrinfeldRank2(K, K.one, K.one)
        S = kernel_sheaf(E.phi(t), E.phi_t(), K)
        assert S.rank == 2
        from drinfeld.sheaves import kernel_basis
        assert kernel_basis(K, S.P) == []

    def test_frobenius_kernel_phi_nilpotent(self):
        for q, wp_name in [(2, "t"), (2, "t2")]:
            _, A, wp, K = carlitz_setup(q, wp_name)
            E = DrinfeldRank2(K, K.one, K.one)
            d = wp.degree
            S = kernel_sheaf(TauPoly.tau(K, d), E.phi_t(), K)
            power = S.P
            for _ in range(S.rank - 1):
                power = mat_mul(power, S.P)
            assert all(not x for row in power for x in row)

    def test_rank_additivity_for_composites(self):
        _, A, wp, K = carlitz_setup(2, "t")
        t = A.gen
        E = DrinfeldRank2(K, K.one, K.one)
        u1 = E.phi(t)
        u2 = E.phi(t + A.one)
        S1 = kernel_sheaf(u1, E.phi_t(), K)
        S2 = kernel_sheaf(u2, E.phi_t(), K)
        S12 = kernel_sheaf(u2 * u1, E.phi_t(), K)
        assert S12.rank == S1.rank + S2.rank

    def test_full_torsion_kernel_validates(self):
        _, A, wp, K = carlitz_setup(2, "t2")
        E = DrinfeldRank2(K, K.theta, K.one)
        S = kernel_sheaf(E.phi(wp), E.phi_t(), K)
        assert S.rank == 2 * wp.degree
        ok, violations = vsheaf_validate(S)
        assert ok, violations


class TestDualPoints:
    def test_v_zero_only_origin(self):
        _, A, wp, K = carlitz_setup(2, "t2")
        n = 2
        zero = tuple((K.zero,) * n for _ in range(n))
        S = VSheafData(K, n, zero, mat_identity(K, n, K.theta), zero)
        _, _, pts = dual_points(S, 1)
        assert len(pts) == 1 and not any(pts[0])

    @pytest.mark.parametrize("q,wp_name", [(2, "t"), (2, "t2"), (3, "t")])
    def test_carlitz_dual_is_free_rank_one(self, q, wp_name):
        field, A, wp, K, S = carlitz_wp_sheaf(q, wp_name)
        d = wp.degree
        expected = q ** d
        pts = None
        for m in range(1, 5):
            KK, embed, pts = dual_points(S, m)
            if len(pts) == expected:
                break
        assert pts is not None and len(pts) == expected
        # the A-action x -> Psi x makes the points a free A/(wp)-module of
        # rank one: some point's orbit under polynomials in Psi is everything
        from drinfeld.fields import Poly
        reps = []
        for k in range(q ** d):
            coeffs = []
            kk = k
            for _ in range(d):
                coeffs.append(field.elements()[kk % q])
                kk //= q
            reps.append(Poly(field, coeffs))
        keyed = {tuple(KK.element_key(x) for x in p) for p in pts}
        found_generator = False
        for gen in pts:
            orbit = set()
            for a in reps:
                # a(Psi) applied to gen, by Horner in the Psi-action
                val = tuple(KK.zero for _ in range(S.rank))
                for c in reversed(a.coeffs):
                    val = dual_point_t_action(S, KK, embed, val)
                    if c:
                        cval = embed(K.coerce(c))
                        val = tuple(v + cval * g for v, g in zip(val, gen))
                orbit.add(tuple(KK.element_key(x) for x in val))
            if orbit == keyed:
                found_generator = True
                break
        assert found_generator

    def test_etale_rank2_count(self):
        import itertools
        from drinfeld.fields import extension_with_embedding
        from drinfeld.sheaves import mat_vec, vec_frob
        _, A, wp, K = carlitz_setup(2, "t")
        E = DrinfeldRank2(K, K.one, K.one)
        u = E.phi(A.gen + A.one)  # prime to the characteristic t
        S = kernel_sheaf(u, E.phi_t(), K)
        counts = {}
        split_m = None
        for m in range(1, 5):
            KK, _, pts = dual_points(S, m)
            counts[m] = len(pts)
            if len(pts) == 4:
                split_m = m
                break
        assert 4 in counts.values()
        # brute-force oracle over the splitting extension
        Kext, embed = extension_with_embedding(K, split_m)
        V_K = tuple(tuple(embed(x) for x in row) for row in S.V)
        brute = sum(1 for vec in itertools.product(list(Kext.elements()),
                                                   repeat=S.rank)
                    if vec_frob(vec) == mat_vec(V_K, vec))
        assert brute == 4

    def test_frobenius_kernel_dual_count(self):
        _, A, wp, K = carlitz_setup(2, "t")
        E = DrinfeldRank2(K, K.one, K.one)
        S = kernel_sheaf(TauPoly.tau(K, 1), E.phi_t(), K)
        _, _, pts = dual_points(S, 1)
        assert len(pts) == 2  # q^rank for the multiplicative-type kernel

    def test_points_deterministic(self):
        _, A, wp, K, S = carlitz_wp_sheaf(2, "t2")
        _, _, p1 = dual_points(S, 1)
        _, _, p2 = dual_points(S, 1)
        assert p1 == p2

    @pytest.mark.parametrize("q,wp_name,m", [(2, "t", 1), (2, "t2", 1),
                                             (3, "t", 1), (2, "t", 2)])
    def test_brute_force_enumeration_oracle(self, q, wp_name, m):
        # enumerate every vector over the extension and keep the solutions
        # of V x = x^[q]; the linearized solver must return exactly that set
        import itertools
        from drinfeld.fields import extension_with_embedding
        from drinfeld.sheaves import mat_vec, vec_frob
        _, A, wp, K, S = carlitz_wp_sheaf(q, wp_name)
        KK, embed, pts = dual_points(S, m)
        Kext, embed2 = extension_with_embedding(K, m)
        assert Kext.order == KK.order
        V_K = tuple(tuple(embed2(x) for x in row) for row in S.V)
        brute = set()
        for vec in itertools.product(list(Kext.elements()), repeat=S.rank):
            if vec_frob(vec) == mat_vec(V_K, vec):
                brute.add(tuple(Kext.element_key(x) for x in vec))
        solved = {tuple(KK.element_key(x) for x in pt) for pt in pts}
        assert solved == brute


class TestHTT:
    def test_zero_point_zero_class(self):
        _, A, wp, K, S = carlitz_wp_sheaf(2, "t")
        zero = tuple(K.zero for _ in range(S.rank))
        assert not any(htt_evaluate(S, zero))

    @pytest.mark.parametrize("q,wp_name", [(2, "t"), (2, "t2"), (3, "t")])
    def test_canonical_inclusion_maps_to_dz(self, q, wp_name):
        field, A, wp, K, S = carlitz_wp_sheaf(q, wp_name)
        # the inclusion C[wp] -> C is the coordinate vector of Z itself
        canonical = tuple(K.one if i == 0 else K.zero for i in range(S.rank))
        cls = htt_evaluate(S, canonical)
        assert any(cls)

    def test_unverified_point_rejected(self):
        _, A, wp, K, S = carlitz_wp_sheaf(2, "t2")
        bad = tuple(K.theta for _ in range(S.rank))
        from drinfeld.sheaves import mat_vec, vec_frob
        if vec_frob(bad) != mat_vec(S.V, bad):
            with pytest.raises(DomainError):
                htt_evaluate(S, bad)

    def test_frobenius_kernel_classes_span(self):
        # ordinary-kernel case at q=2, d=1: the dual point classes fill coker(P)
        _, A, wp, K = carlitz_setup(2, "t")
        E = DrinfeldRank2(K, K.one, K.one)
        S = kernel_sheaf(TauPoly.tau(K, 1), E.phi_t(), K)
        _, _, pts = dual_points(S, 1)
        classes = {htt_evaluate(S, pt) for pt in pts}
        # coker(P) = K here since P = 0, and both classes appear
        assert len(classes) == 2

    def test_wp_square_torsion_canonical_class(self):
        # C[wp^2]: the inclusion point still maps to a nonzero coker class
        from drinfeld.carlitz import carlitz_action
        for q, wp_name in [(2, "t"), (3, "t")]:
            _, A, wp, K = carlitz_setup(q, wp_name)
            C = carlitz_action(K)
            S = kernel_sheaf(C.phi(wp * wp), C.phi_t, K)
            assert S.rank == 2 * wp.degree
            ok, violations = vsheaf_validate(S)
            assert ok, violations
            canonical = tuple(K.one if i == 0 else K.zero
                              for i in range(S.rank))
            assert any(htt_evaluate(S, canonical))


# -- the row reduction against the two eliminations it replaced -------------

def ref_kernel_basis(ring, a):
    """Right kernel by a Gauss-Jordan loop of its own (the reference)."""
    n = len(a)
    m = len(a[0]) if a else 0
    rows = [list(r) for r in a]
    pivots = []
    rank = 0
    for col in range(m):
        sel = None
        for i in range(rank, n):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [inv * x for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == n:
            break
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fcol in free:
        v = [ring.zero] * m
        v[fcol] = ring.one
        for r, pcol in enumerate(pivots):
            v[pcol] = -rows[r][fcol]
        basis.append(tuple(v))
    return basis


def ref_column_echelon(ring, a):
    """Column space by incremental column reduction, sorted by lead (the
    reference; its vectors are echelon but not fully reduced)."""
    cols = [list(c) for c in zip(*a)] if a else []
    basis = []
    for col in cols:
        vec = col[:]
        for piv_row, piv_vec in basis:
            if vec[piv_row]:
                c = vec[piv_row]
                vec = [x - c * y for x, y in zip(vec, piv_vec)]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is not None:
            inv = vec[lead].inv()
            vec = [inv * x for x in vec]
            basis.append((lead, vec))
    basis.sort(key=lambda kv: kv[0])
    return basis


def ref_coker_reduce(ring, echelon, v):
    vec = list(v)
    for piv_row, piv_vec in echelon:
        if vec[piv_row]:
            c = vec[piv_row]
            vec = [x - c * y for x, y in zip(vec, piv_vec)]
    return tuple(vec)


def _matrix_ring(name):
    if name == "A/(t^2+t+1)":
        A = polyring(fq(2))
        t = A.gen
        return ResidueRing(t * t + t + A.one)
    return fq(int(name))


MATRIX_RINGS = ["2", "3", "4", "A/(t^2+t+1)"]


@st.composite
def low_rank_matrices(draw):
    """(ring, n x m matrix, vector of length n) with every row an F-linear
    combination of k <= n drawn rows, so rank deficiency is common."""
    ring = _matrix_ring(draw(st.sampled_from(MATRIX_RINGS)))
    els = list(ring.elements())
    entry = st.sampled_from(els)
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 5))
    k = draw(st.integers(0, n))
    gens = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(k)]
    rows = []
    for _ in range(n):
        row = [ring.zero] * m
        for g in gens:
            c = draw(entry)
            row = [x + c * y for x, y in zip(row, g)]
        rows.append(tuple(row))
    v = tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    return ring, tuple(rows), v


class TestRowReduction:
    @settings(max_examples=150, deadline=None)
    @given(low_rank_matrices())
    def test_matches_the_replaced_eliminations(self, case):
        ring, a, v = case
        assert kernel_basis(ring, a) == ref_kernel_basis(ring, a)
        ech = column_echelon(ring, a)
        ref = ref_column_echelon(ring, a)
        assert [p for p, _ in ech] == [p for p, _ in ref]
        rep = coker_reduce(ring, ech, v)
        assert rep == ref_coker_reduce(ring, ref, v)
        assert not any(rep[p] for p, _ in ech)

    @pytest.mark.parametrize("name", MATRIX_RINGS)
    @pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (3, 0), (2, 3), (3, 2)])
    def test_zero_and_empty_matrices(self, name, n, m):
        ring = _matrix_ring(name)
        a = tuple(tuple(ring.zero for _ in range(m)) for _ in range(n))
        assert kernel_basis(ring, a) == ref_kernel_basis(ring, a)
        assert column_echelon(ring, a) == ref_column_echelon(ring, a) == []
        v = tuple(ring.one for _ in range(n))
        assert coker_reduce(ring, column_echelon(ring, a), v) == v


class TestMatMulOnIntegers:
    """Over a packed residue ring (p prime) mat_mul and mat_vec sum each
    row-by-column product on integers with ResidueRing.dot; every entry
    must equal the sum of the element products."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_sum_of_products(self, data):
        field = fq(data.draw(st.sampled_from([2, 3, 5, 4])))
        els = st.sampled_from(field.elements())
        m = Poly(field, data.draw(st.lists(els, min_size=1, max_size=3))
                 + [field.one])
        R = ResidueRing(m)
        entries = st.lists(els, max_size=m.degree).map(
            lambda cs: AResidue(R, cs))
        r, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        a = tuple(tuple(data.draw(entries) for _ in range(n))
                  for _ in range(r))
        b = tuple(tuple(data.draw(entries) for _ in range(r))
                  for _ in range(n))
        v = tuple(data.draw(entries) for _ in range(n))

        def dot(u, w):
            return functools.reduce(operator.add, map(operator.mul, u, w))

        assert mat_mul(a, b) == tuple(
            tuple(dot(row, col) for col in zip(*b)) for row in a)
        assert mat_vec(a, v) == tuple(dot(row, v) for row in a)

    def test_packed_ring_makes_no_element_products(self, monkeypatch):
        field, A, wp, K, S = carlitz_wp_sheaf(2, "t2")
        assert K.packed

        def refuse(*args):
            raise AssertionError("AResidue.__mul__ reached in mat_mul")

        want = mat_mul(S.P, S.V)
        monkeypatch.setattr(AResidue, "__mul__", refuse)
        monkeypatch.setattr(AResidue, "__rmul__", refuse)
        assert mat_mul(S.P, S.V) == want
        assert mat_vec(S.V, S.V[0]) == tuple(
            K.dot(row, S.V[0]) for row in S.V)
