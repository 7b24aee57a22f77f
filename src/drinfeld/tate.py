"""The Tate-Drinfeld module over A[[x]] at finite x-precision.

Everything is exact A = F_q[t] arithmetic: the lattice points are the values
Phi^C_(f a)(1/x), whose inverses are honest power series over A because the
relevant denominators are units.  The engine computes

* the lattice exponential e(X) = sum e_i X^(q^i) by Ore's recursion, one
  step per degree layer of the lattice that is visible mod x^N (see
  TateDrinfeld),
* the module coefficients a1, a2 from the linear relations that the
  functional equation Phi_t(e(Z)) = e(theta Z + Z^q) imposes at Z^q and
  Z^(q^2), with the Z^(q^3) relation kept as a consistency residual,
* the substitution nu_g: x -> F_g(x) = 1/Phi^C_g(1/x), summed from the
  powers of F_g visible mod x^N, stored once per instance and g (Paterson &
  Stockmeyer, SIAM J. Comput. 2, 1973) instead of a Horner run per call;
  the sum sum_k c_k F_g^k is one ``series.dot``, a packed linear
  combination over F_p[t] read back once, as are sigma in the Ore step,
  the triangular solve for Psi and the functional-equation residuals,
  each twist b^(q^k) a term (a, b, k) that ``dot`` cuts before twisting,
* the canonical level-one isogeny Psi with linear coefficient wp, solved
  triangularly from Psi(e(Z)) = e'(Phi^C_wp(Z)) where e' = nu_wp(e),
* ordinariness of the mod-wp reduction with its Newton data, and the
  Kodaira-Spencer factor l(x) = a1' - (a1/a2) a2'.
"""

from __future__ import annotations

from .carlitz import carlitz_phi, carlitz_torsion_poly
from .errors import DomainError, InternalConsistencyError, PrecisionError
from .fields import Poly, ResidueRing, is_irreducible, polyring
from .modules import DrinfeldRank2
from .series import SeriesRing, TruncSeries, dot, newton_slopes
from .tau import TauPoly


def lattice_inverse(field, g, prec):
    """F_g(x) = 1 / Phi^C_g(1/x) as a series over A with valuation q^deg(g).

    x^(q^r) * Phi^C_g(1/x) is the torsion polynomial Phi^C_g(Z) read
    backwards, a polynomial with unit constant term, so the inverse needs no
    Laurent tail.  g = 0 raises DomainError.
    """
    phi = carlitz_torsion_poly(field, g)
    poly_part = TruncSeries(polyring(field), 0, phi.coeffs[::-1], prec)
    return poly_part.inv().shift(phi.degree).truncate(prec)


class TateDrinfeld:
    """One Tate-Drinfeld configuration (q, wp, f) at x-precision N.

    The lattice points f a with deg(a) < D span an F_q-space V_D, and
    V_(D+1) = V_D + F_q w with w = f t^D.  Ore's recursion
    e_(V + F_q w)(X) = e_V(X) - beta^(q-1) e_V(X)^q, beta = 1/e_V(lambda_w)
    (Goss, Basic Structures of Function Field Arithmetic, 1996, 1.3) builds
    e with one step per layer.  With F_w = 1/lambda_w from
    `lattice_inverse`, beta = F_w^(q^D)/sigma for
    sigma = sum_(i<=D) e_i (F_w^(q^(D-i)-1))^(q^i), so only non-negative
    powers of F_w occur, and e_V(X)^q is `frob(1)` of the coefficients.
    sigma has x-valuation exactly that of e_D and beta exactly
    q^deg(f) (q^(2D+1)+1)/(q+1) (both checked), so layer D changes e only
    from x-valuation (q-1) val(beta) on, and the steps stop at the first
    layer where that is >= N.  e_i has x-valuation exactly
    q^deg(f) (q^(2i)-1)/(q+1) (`_exp_valuation`, checked), and e is kept to
    the least i_max >= max(3, deg wp + 1) with e_(i_max+1) invisible mod x^N.
    """

    def __init__(self, field, wp, f, prec):
        if not is_irreducible(wp):
            raise DomainError("wp must be monic irreducible")
        if f.is_zero():
            raise DomainError("the lattice scale f must be nonzero")
        # for f = 1 this is the x^(q-1) statement; nu_f multiplies it by q^deg(f)
        self.a2_valuation = (field.q - 1) * field.q ** f.degree
        if prec <= self.a2_valuation:
            raise PrecisionError(
                "the Tate-Drinfeld engine needs precision above the valuation "
                "(q-1) q^deg(f) = %d of a2" % self.a2_valuation)
        self.field = field
        self.q = field.q
        self.wp = wp
        self.d = wp.degree
        self.f = f
        self.prec = prec
        self.A = polyring(field)
        self.S = SeriesRing(self.A, prec)
        self.i_max = max(3, self.d + 1)
        self._wp_ring = ResidueRing(wp)
        self._psi = None
        self._eprime = None  # (Phi^C_wp coefficients, nu_wp(e_i)), filled once
        self._powers = {}  # g.coeffs -> [F_g^0, F_g^1, ...], filled by nu
        self._build_exponential()
        self._solve_coefficients()

    # -- exponential -------------------------------------------------------

    def _exp_valuation(self, i):
        """The x-valuation q^deg(f) (q^(2i) - 1)/(q + 1) of e_i."""
        q = self.q
        return q ** self.f.degree * (q ** (2 * i) - 1) // (q + 1)

    def _beta_valuation(self, D):
        """The x-valuation q^deg(f) (q^(2D+1) + 1)/(q + 1) of beta in the Ore
        step of layer D; the step changes e from (q-1) times that on."""
        q = self.q
        return q ** self.f.degree * (q ** (2 * D + 1) + 1) // (q + 1)

    def _build_exponential(self):
        q = self.q
        N = self.prec
        # make sure everything of X-degree beyond q^i_max is invisible mod x^N
        while self._exp_valuation(self.i_max + 1) < N:
            self.i_max += 1
        zero = TruncSeries.zero(self.A, N)
        e = [self.S.one]
        D = 0
        while (q - 1) * self._beta_valuation(D) < N:
            F = lattice_inverse(self.field, self.f * self.A.gen ** D, N)
            # F^(q^k - 1) = (F^(q^(k-1) - 1))^q F^(q-1), for k = 0..D
            Fq1 = (F ** (q - 1)).truncate(N)
            powers = [self.S.one]
            for _ in range(D):
                powers.append(dot(self.A, ((Fq1, powers[-1], 1),), N))
            sigma = dot(self.A, ((ei, powers[D - i], i)
                                 for i, ei in enumerate(e)), N)
            if sigma.order() != self._exp_valuation(D):
                raise InternalConsistencyError(
                    "Ore step %d: sigma has x-valuation %s, expected %d"
                    % (D, sigma.order(), self._exp_valuation(D)))
            # F^(q^D) has precision q^D N, lowered by sigma^-1's pole
            beta = dot(self.A, ((sigma.inv(), F, D),))
            if beta.order() != self._beta_valuation(D):
                raise InternalConsistencyError(
                    "Ore step %d: beta has x-valuation %s, expected %d"
                    % (D, beta.order(), self._beta_valuation(D)))
            # e_V(X) - beta^(q-1) e_V(X)^q, at X^(q^i) for i = 0..D+1; a
            # difference keeps the lower precision, so e_i stays at most N
            b = (beta ** (q - 1)).truncate(N)
            e = [e[0]] + [ei - dot(self.A, ((b, prev, 1),), N)
                          for ei, prev in zip(e[1:] + [zero], e)]
            D += 1
        e = tuple(e[:self.i_max + 1]) + (zero,) * (self.i_max + 1 - len(e))
        self._check_exponential(e)
        self.e = e  # e_0..e_i_max

    def _check_exponential(self, e):
        """e_0 = 1 + O(x), and e_i has x-valuation exactly _exp_valuation(i),
        or is zero to precision when that is >= N."""
        if e[0].coeff(0) != self.A.one:
            raise InternalConsistencyError("e_0 must be 1")
        for i, ei in enumerate(e):
            v = self._exp_valuation(i)
            if ei.order() != (v if v < self.prec else None):
                raise InternalConsistencyError(
                    "e_%d has x-valuation %s at precision %d, expected %d"
                    % (i, ei.order(), self.prec, v))

    def exp_coeff(self, i):
        """e_i, the coefficient of X^(q^i) in the lattice exponential."""
        if i < 0:
            return TruncSeries.zero(self.A, self.prec)
        if i > self.i_max:
            raise PrecisionError("exponential computed only to index %d" % self.i_max)
        return self.e[i]

    # -- module coefficients -------------------------------------------------

    def _solve_coefficients(self):
        # the Z^q and Z^(q^2) relations fix a1 and a2 (e_0 = 1)
        th = self.A.gen
        e1 = self.exp_coeff(1)
        e2 = self.exp_coeff(2)
        a1 = e1.scale(th.frob(1) - th) + self.S.one
        a2 = e2.scale(th.frob(2) - th) + e1 - dot(self.A, ((a1, e1, 1),))
        self.a1, self.a2 = a1, a2
        # the Z^(q^3) relation is a free self-check
        res = self._fe_residual(3)
        if not res.is_zero():
            raise InternalConsistencyError(
                "functional equation residual at Z^(q^3) is nonzero: %r" % res)
        if a1.is_zero() or a1.order() != 0 or a1.coeff(0) != self.A.one:
            raise InternalConsistencyError("a1 is not in 1 + x A[[x]]")
        if a2.is_zero() or a2.order() != self.a2_valuation:
            raise InternalConsistencyError(
                "a2 does not have valuation (q-1) q^deg(f)")
        if a2.leading().degree != 0:
            raise InternalConsistencyError("a2 is not a unit times a power of x")
        self.module = DrinfeldRank2(self.S, a1, a2)

    def _fe_residual(self, i):
        """Coefficient of Z^(q^i) in Phi_t(e(Z)) - e(theta Z + Z^q), i.e.
        theta e_i + a1 e_(i-1)^q + a2 e_(i-2)^(q^2) - theta^(q^i) e_i - e_(i-1)
        at precision at most N, that of e_(i-1)."""
        th = self.A.gen
        ei = self.exp_coeff(i)
        e1 = self.exp_coeff(i - 1)
        e2 = self.exp_coeff(i - 2)
        return dot(self.A, ((th - th.frob(i), ei), (self.a1, e1, 1),
                            (self.a2, e2, 2), (-self.A.one, e1)))

    def functional_equation_residuals(self):
        """One series per index i <= i_max; all must vanish to precision."""
        return [self._fe_residual(i) for i in range(self.i_max + 1)]

    # -- substitution homomorphism nu ---------------------------------------

    def nu(self, g, series):
        """Apply nu_g (x -> F_g(x)) to a series; certified precision is kept,
        then truncated back to the working window.  nu_1 is the identity and
        returns the series itself; a unit c gives x -> x/c.

        The value is sum_k c_k F_g^(val+k) over the terms that
        ``TruncSeries.substitution_window`` keeps, read from the table of
        ``_lattice_powers`` (a Laurent tail is carried by F_g^-1, as in
        ``substitute``).  It equals ``series.substitute(F_g)`` truncated to
        N, coefficient for coefficient and in precision.
        """
        if g == self.A.one:
            return series
        powers = self._lattice_powers(g)
        _, certified, top = series.substitution_window(powers[1])
        prec = min(certified, self.prec)
        val = series.val
        # F_g^e with e >= len(powers) vanishes mod x^N, so zip drops it
        acc = dot(self.A, ((c, P) for c, P in zip(series.coeffs[:top],
                                                  powers[max(val, 0):]) if c),
                  self.prec)
        if val < 0 and series.coeffs:
            acc = acc * (powers[1].inv() ** (-val))
        return acc.truncate(prec)

    def _lattice_powers(self, g):
        """[F_g^0, ..., F_g^(K-1)] to precision N, K = ceil(N / val F_g) but
        at least 2, built once per g: every higher power of F_g vanishes mod
        x^N.  An F_g that is zero to precision (q^deg g >= N) counts as
        having valuation N.

        Entry k with p | k needs no product: in characteristic p the
        freshman's dream (sum c_i x^i)^p = sum c_i^p x^(ip) gives
        F_g^k = (F_g^(k/p)).pth_power(1).  Every other entry is the
        truncated product F_g^(k-1) F_g."""
        powers = self._powers.get(g.coeffs)
        if powers is None:
            N = self.prec
            p = self.field.p
            F = lattice_inverse(self.field, g, N)
            gval = F.order() if F else F.prec
            powers = [self.S.one, F]
            while len(powers) * gval < N:
                k = len(powers)
                powers.append(powers[k // p].pth_power(1).truncate(N)
                              if k % p == 0 else (powers[-1] * F).truncate(N))
            self._powers[g.coeffs] = powers
        return powers

    def descended_j(self):
        """j rescaled to a unit power series in y = x^(q-1).

        j has valuation -(q-1) q^deg(f); clearing it leaves a unit series
        supported on the x^(q-1) subring, which for f = 1 is exactly the
        descended y*j statement.
        """
        j = self.module.j_invariant()
        yj = j.shift(self.a2_valuation)
        return yj.compress(self.q - 1)

    # -- canonical isogeny ----------------------------------------------------

    def canonical_isogeny(self):
        """Coefficients c_0..c_d of Psi; c_0 = wp exactly.

        Solved from the Z^(q^k) coefficients of Psi(e(Z)) = e'(Phi^C_wp(Z)),
        which are triangular because e_0 = 1.
        """
        if self._psi is not None:
            return self._psi
        c = [TruncSeries.constant(self.wp, self.A, self.prec)]
        for k in range(1, self.d + 1):
            c.append(self._expp_rhs(k) - self._psi_lhs(c, k))
        self._psi = tuple(c)
        return self._psi

    def _psi_lhs(self, c, k):
        """Z^(q^k) coefficient of sum_j c_j e(Z)^(q^j) over the given c_j,
        j <= k: sum_j c_j e_(k-j)^(q^j)."""
        return dot(self.A, ((cj, self.exp_coeff(k - j), j)
                            for j, cj in enumerate(c)), self.prec)

    def _expp_rhs(self, k):
        """Z^(q^k) coefficient of e'(Phi^C_wp(Z)), e' = nu_wp(e):
        sum_i e'_i w_(k-i)^(q^i) with Phi^C_wp = sum_l w_l tau^l."""
        if self._eprime is None:  # nu_wp runs once per e_i and instance
            self._eprime = (carlitz_phi(self.A, self.wp).coeffs,
                            tuple(self.nu(self.wp, ei) for ei in self.e))
        w, eprime = self._eprime
        return dot(self.A, ((w[k - i].frob(i), eprime[i])
                            for i in range(max(0, k - self.d), k + 1)
                            if w[k - i]), self.prec)

    def expp_residuals(self):
        """Residuals of the defining identity at indices d+1..i_max."""
        c = self.canonical_isogeny()
        return [self._psi_lhs(c, k) - self._expp_rhs(k)
                for k in range(self.d + 1, self.i_max + 1)]

    def psi_tau(self):
        return TauPoly(self.S, self.canonical_isogeny())

    def mod_wp(self, series):
        """A series over A reduced coefficientwise into (A/wp)[[x]]."""
        return series.map_coeffs(self._wp_ring.reduce, self._wp_ring)

    def psi_mod_wp_shape(self):
        """(low coefficients all divisible by wp, c_d an x-adic unit mod wp)."""
        c = self.canonical_isogeny()
        low_ok = all(self.mod_wp(c[k]).is_zero() for k in range(self.d))
        top = self.mod_wp(c[self.d])
        top_unit = bool(top) and top.order() == 0
        return low_ok, top_unit

    def verify_tdquot(self, a):
        """Psi * Phi_a = nu_wp(Phi_a) * Psi as twisted polynomials, to precision."""
        psi = self.psi_tau()
        phi_a = self.module.phi(a)
        lhs = psi * phi_a
        nu_phi = phi_a.map_coeffs(lambda s: self.nu(self.wp, s), self.S)
        rhs = nu_phi * psi
        for i in range(max(lhs.degree, rhs.degree) + 1):
            if not (lhs.coeff(i) - rhs.coeff(i)).truncate(self.prec).is_zero():
                return False
        return True

    def rho_tau(self):
        """The etale complement: Phi_wp = rho * Psi by exact right division."""
        phi_wp = self.module.phi(self.wp)
        rho, rem = phi_wp.rdivmod(self.psi_tau())
        for i in range(rem.degree + 1 if rem else 0):
            if not rem.coeff(i).truncate(self.prec).is_zero():
                raise InternalConsistencyError(
                    "Phi_wp is not right-divisible by Psi")
        return rho

    # -- ordinariness ---------------------------------------------------------

    def ordinarity(self):
        """(ordinary, newton_points, hull) for the mod-wp reduction of Phi_wp.

        Ordinary means: tau^i coefficients vanish mod wp for i < d and the
        tau^d coefficient is an x-adic unit.  A unit certificate needs the
        constant x-coefficient, so precision below 1 is rejected.
        """
        phi_wp = self.module.phi(self.wp)
        red = [self.mod_wp(phi_wp.coeff(i)) for i in range(2 * self.d + 1)]
        for i in range(self.d):
            if not red[i].is_zero():
                return False, [], []
        top = red[self.d]
        if top.prec < 1:
            raise PrecisionError("insufficient precision to certify a unit")
        ordinary = bool(top) and top.order() == 0
        points = [(i, s.order()) for i, s in enumerate(red) if s]
        hull = newton_slopes(points)
        return ordinary, points, hull

    # -- Kodaira-Spencer factor ----------------------------------------------

    def ks_factor(self):
        """l(x) = a1' - (a1/a2) a2'.

        For f = 1 this is the Kodaira-Spencer factor with its simple pole of
        residue one, which is asserted.  For deg(f) >= 1 the pole is eaten
        by the chain rule (l becomes nu_f(l_1) * F_f'), so no normalization
        is imposed; callers can check the transport identity instead.
        """
        if self.prec < self.q:
            raise PrecisionError("precision too low to see the pole of l(x)")
        l = (self.a1.derivative()
             - self.a1 * self.module.a2_inv * self.a2.derivative())
        if self.f.degree == 0:
            if l.order() != -1:
                raise InternalConsistencyError("l(x) does not have a simple pole")
            if l.coeff(-1) != self.A.one:
                raise InternalConsistencyError("the residue of l(x) is not 1")
        return l

    # -- level structure -------------------------------------------------------

    def level_structure_image(self, m):
        """e(Z) reduced in A[[x]][Z]/(Phi^C_m(Z), x^N), as a Z-coefficient list.

        m = 1 collapses the quotient to zero and yields the empty image.
        """
        if m.is_zero():
            raise DomainError("level index must be nonzero")
        if m.degree == 0:
            return []
        return self._level_image(carlitz_torsion_poly(self.field, m))[1]

    def check_level_a_linearity(self, m):
        """Image of Phi^C_t(Z) equals Phi_t applied to the image of Z."""
        if m.degree == 0:
            return True
        M = carlitz_torsion_poly(self.field, m)
        R, lam = self._level_image(M)
        th = self.A.gen
        # lambda(Phi_t(Z)) = sum e_i (theta^(q^i) R_i + R_(i+1))
        lhs = self._scatter(M, [(ei.scale(th.frob(i)), R[i])
                                for i, ei in enumerate(self.e)]
                            + list(zip(self.e, R[1:])))
        # Phi_t(lambda) = theta lam + a1 lam^[q] + a2 lam^[q^2], where
        # (sum l_j Z^j)^(q^k) = sum l_j^(q^k) R_k^j mod M
        rhs = [s.scale(th) for s in lam]
        for (coef, k) in ((self.a1, 1), (self.a2, 2)):
            powed = self._scatter(M, [(c, R[k].pow_mod(j, M))
                                      for j, c in enumerate(lam) if c], k)
            rhs = [r + coef * s for r, s in zip(rhs, powed)]
        return all((l - r).is_zero() for l, r in zip(lhs, rhs))

    def _level_image(self, M):
        """(R, lambda): R_i = Z^(q^i) mod M for i <= i_max + 1, maintained by
        freshman powers and reduction, and lambda = sum e_i R_i."""
        R = [Poly(M.ring, (self.A.zero, self.A.one))]
        for _ in range(self.i_max + 1):
            R.append(R[-1].pth_power(self.field.e) % M)
        return R, self._scatter(M, zip(self.e, R))

    def _scatter(self, M, terms, k=0):
        """sum s^(q^k) * r(Z) over (series s, Z-polynomial r) pairs, as the
        list of the deg(M) Z-coefficients."""
        terms = [(s, r.coeffs) for s, r in terms if s]
        return [dot(self.A, ((r[j], s, k) for s, r in terms
                             if j < len(r) and r[j]), self.prec)
                for j in range(M.degree)]


_TD_CACHE = {}


def td_instance(field, wp, f, prec):
    """Memoized Tate-Drinfeld configurations; they are immutable once built."""
    key = (id(field), wp.coeffs, f.coeffs, prec)
    if key not in _TD_CACHE:
        _TD_CACHE[key] = TateDrinfeld(field, wp, f, prec)
    return _TD_CACHE[key]
