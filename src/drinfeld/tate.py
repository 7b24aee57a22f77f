"""The Tate-Drinfeld module over A[[x]] at finite x-precision.

Everything is exact A = F_q[t] arithmetic: the lattice points are the values
Phi^C_(f a)(1/x), whose inverses are honest power series over A because the
relevant denominators are units.  The engine computes

* the lattice exponential e(X) = sum e_i X^(q^i) from the product formula
  collapsed over F_q^x-orbits (only monic a enter),
* the module coefficients a1, a2 from the linear relations that the
  functional equation Phi_t(e(Z)) = e(theta Z + Z^q) imposes at Z^q and
  Z^(q^2), with the Z^(q^3) relation kept as a consistency residual,
* the substitution nu_g: x -> F_g(x) = 1/Phi^C_g(1/x),
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
from .series import SeriesRing, TruncSeries, newton_slopes
from .tau import TauPoly


def lattice_inverse(field, g, prec):
    """F_g(x) = 1 / Phi^C_g(1/x) as a series over A with valuation q^deg(g).

    x^(q^r) * Phi^C_g(1/x) is a polynomial with unit constant term, so the
    inverse needs no Laurent tail.
    """
    if g.is_zero():
        raise DomainError("lattice point index must be nonzero")
    A = polyring(field)
    phi = carlitz_phi(A, g)
    r = phi.degree
    qr = field.q ** r
    coeffs = [A.zero] * qr
    for j, c in enumerate(phi.coeffs):
        k = qr - field.q ** j
        if k < qr:
            coeffs[k] = c
        else:  # pragma: no cover
            raise InternalConsistencyError("unexpected exponent")
    poly_part = TruncSeries(A, 0, coeffs, prec)
    return poly_part.inv().shift(qr).truncate(prec)


class TateDrinfeld:
    """One Tate-Drinfeld configuration (q, wp, f) at x-precision N."""

    def __init__(self, field, wp, f, prec, i_max=None):
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
        self.i_max = i_max if i_max is not None else max(3, self.d + 1)
        self._psi = None
        self._eprime = None
        self._lattice = {}  # g.coeffs -> F_g, filled by nu
        self._build_exponential()
        self._solve_coefficients()

    # -- exponential -------------------------------------------------------

    def _factor_values(self):
        """x-adic valuations (q-1) q^deg(fa) of the collapsed product factors."""
        q = self.q
        vals = []
        deg = 0
        while q ** (self.f.degree + deg) <= self.prec:
            vals.extend([(q - 1) * q ** (self.f.degree + deg)] * (q ** deg))
            deg += 1
        self._omitted_val = (q - 1) * q ** (self.f.degree + deg)
        return vals

    def _min_val_for_slots(self, slots):
        """Greedy lower bound for the valuation of a product using `slots`
        collapsed factors; omitted factors count at their minimum."""
        vals = sorted(self._factor_values())
        total = 0
        for k in range(slots):
            total += vals[k] if k < len(vals) else self._omitted_val
        return total

    def _build_exponential(self):
        q = self.q
        N = self.prec
        # make sure everything of X-degree beyond q^i_max is invisible mod x^N
        while self._min_val_for_slots((q ** (self.i_max + 1) - 1) // (q - 1)) < N:
            self.i_max += 1
        cap = q ** self.i_max
        one = self.S.one
        # product over monic a with q^deg(fa) <= N of (1 - (X F_(fa))^(q-1)),
        # as a map X-degree -> series coefficient
        prod = {0: one}
        deg = 0
        while q ** (self.f.degree + deg) <= N:
            for a in self.A.monic_polys(deg):
                F = lattice_inverse(self.field, self.f * a, N)
                Fq1 = F ** (q - 1)
                new = dict(prod)
                for k, c in prod.items():
                    k2 = k + q - 1
                    if k2 >= cap:
                        continue
                    term = -(c * Fq1)
                    new[k2] = new[k2] + term if k2 in new else term
                prod = new
            deg += 1
        # e(X) = X * prod
        e = {}
        for i in range(self.i_max + 1):
            e[i] = prod.get(q ** i - 1, TruncSeries.zero(self.A, N)).truncate(N)
        for k, c in prod.items():
            kk = k + 1
            is_qpow = False
            m = 1
            while m <= kk:
                if m == kk:
                    is_qpow = True
                    break
                m *= q
            if not is_qpow and not c.truncate(N).is_zero():
                raise InternalConsistencyError(
                    "non-additive term X^%d survives the truncated product" % kk)
        if e[0].is_zero() or e[0].coeff(0) != self.A.one or e[0].order() != 0:
            raise InternalConsistencyError("e_0 must be 1")
        for i in range(1, self.i_max + 1):
            if e[i] and e[i].order() < 1:
                raise InternalConsistencyError("e_%d is not divisible by x" % i)
        self.e = e

    def exp_coeff(self, i):
        """e_i, the coefficient of X^(q^i) in the lattice exponential."""
        if i < 0:
            return TruncSeries.zero(self.A, self.prec)
        if i > self.i_max:
            raise PrecisionError("exponential computed only to index %d" % self.i_max)
        return self.e[i]

    # -- module coefficients -------------------------------------------------

    def _solve_coefficients(self):
        # coefficient of Z^(q^i) in Phi_t(e(Z)) - e(theta Z + Z^q):
        #   theta e_i + a1 e_(i-1)^q + a2 e_(i-2)^(q^2) - e_i theta^(q^i) - e_(i-1)
        th = self.A.gen
        e1 = self.exp_coeff(1)
        e2 = self.exp_coeff(2)
        e3 = self.exp_coeff(3)
        one = self.S.one
        a1 = e1.scale(th.frob(1) - th) + one
        a2 = (e2.scale(th.frob(2) - th) + e1 - a1 * e1.frob(1)).truncate(self.prec)
        a1 = a1.truncate(self.prec)
        # the Z^(q^3) relation is a free self-check
        res = (e3.scale(th) + a1 * e2.frob(1) + a2 * e1.frob(2)
               - e3.scale(th.frob(3)) - e2)
        if not res.truncate(self.prec).is_zero():
            raise InternalConsistencyError(
                "functional equation residual at Z^(q^3) is nonzero: %r" % res)
        if a1.is_zero() or a1.order() != 0 or a1.coeff(0) != self.A.one:
            raise InternalConsistencyError("a1 is not in 1 + x A[[x]]")
        if (a1 - one).order() is not None and (a1 - one).order() < 1:
            raise InternalConsistencyError("a1 is not in 1 + x A[[x]]")
        if a2.is_zero() or a2.order() != self.a2_valuation:
            raise InternalConsistencyError(
                "a2 does not have valuation (q-1) q^deg(f)")
        if a2.leading().degree != 0:
            raise InternalConsistencyError("a2 is not a unit times a power of x")
        self.a1 = a1
        self.a2 = a2
        self.module = DrinfeldRank2(self.S, a1, a2)

    def functional_equation_residuals(self):
        """One series per index i <= i_max; all must vanish to precision."""
        th = self.A.gen
        out = []
        for i in range(self.i_max + 1):
            ei = self.exp_coeff(i)
            e1 = self.exp_coeff(i - 1)
            e2 = self.exp_coeff(i - 2)
            lhs = ei.scale(th) + self.a1 * e1.frob(1) + self.a2 * e2.frob(2)
            rhs = ei.scale(th.frob(i)) + e1
            out.append((lhs - rhs).truncate(self.prec))
        return out

    # -- substitution homomorphism nu ---------------------------------------

    def nu(self, g, series):
        """Apply nu_g (x -> F_g(x)) to a series; certified precision is kept,
        then truncated back to the working window."""
        if g.degree < 1:
            return series
        F = self._lattice.get(g.coeffs)
        if F is None:
            F = self._lattice.setdefault(
                g.coeffs, lattice_inverse(self.field, g, self.prec))
        return series.substitute(F).truncate(self.prec)

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
        if self.i_max < self.d + 1:
            raise PrecisionError("exponential index bound below d + 1")
        w = carlitz_phi(self.A, self.wp).coeffs  # w_0 = wp, ..., w_d = 1
        eprime = self._nu_wp_exponential()
        c = [TruncSeries.constant(self.wp, self.A, self.prec)]
        for k in range(1, self.d + 1):
            rhs = self._expp_rhs(k, w, eprime)
            acc = rhs
            for j in range(k):
                acc = acc - c[j] * self.exp_coeff(k - j).frob(j)
            c.append(acc.truncate(self.prec))
        self._psi = tuple(c)
        return self._psi

    def _nu_wp_exponential(self):
        """e'_i = nu_wp(e_i) for i <= i_max, computed once per instance."""
        if self._eprime is None:
            self._eprime = tuple(self.nu(self.wp, self.exp_coeff(i))
                                 for i in range(self.i_max + 1))
        return self._eprime

    def _expp_rhs(self, k, w, eprime):
        acc = TruncSeries.zero(self.A, self.prec)
        for i in range(k + 1):
            l = k - i
            if l <= self.d and l < len(w) and w[l]:
                acc = acc + eprime[i].scale(w[l].frob(i))
        return acc.truncate(self.prec)

    def expp_residuals(self):
        """Residuals of the defining identity at indices d+1..i_max."""
        w = carlitz_phi(self.A, self.wp).coeffs
        eprime = self._nu_wp_exponential()
        c = self.canonical_isogeny()
        out = []
        for k in range(self.d + 1, self.i_max + 1):
            lhs = TruncSeries.zero(self.A, self.prec)
            for j in range(min(k, self.d) + 1):
                lhs = lhs + c[j] * self.exp_coeff(k - j).frob(j)
            out.append((lhs - self._expp_rhs(k, w, eprime)).truncate(self.prec))
        return out

    def psi_tau(self):
        return TauPoly(self.S, self.canonical_isogeny())

    def psi_mod_wp_shape(self):
        """(low coefficients all divisible by wp, c_d an x-adic unit mod wp)."""
        c = self.canonical_isogeny()
        R = ResidueRing(self.wp)
        low_ok = True
        for k in range(self.d):
            red = c[k].map_coeffs(R.reduce, R)
            if not red.is_zero():
                low_ok = False
        top = c[self.d].map_coeffs(R.reduce, R)
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
        R = ResidueRing(self.wp)
        phi_wp = self.module.phi(self.wp)
        red = [phi_wp.coeff(i).map_coeffs(R.reduce, R)
               for i in range(2 * self.d + 1)]
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
        l = self.a1.derivative() - self.a1 * self.a2.inv() * self.a2.derivative()
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
        M = carlitz_torsion_poly(self.field, m)
        D = M.degree
        zero = TruncSeries.zero(self.A, self.prec)
        out = [zero] * D
        # R_i = Z^(q^i) mod M, maintained by freshman powers and reduction
        zring = M.ring
        R = Poly(zring, (self.A.zero, self.A.one))
        for i in range(self.i_max + 1):
            ei = self.exp_coeff(i)
            if ei:
                for jpos, cz in enumerate(R.coeffs):
                    if cz:
                        out[jpos] = out[jpos] + ei.scale(cz)
            R = R.pth_power(self.field.e) % M
        return [s.truncate(self.prec) for s in out]

    def check_level_a_linearity(self, m):
        """Image of Phi^C_t(Z) equals Phi_t applied to the image of Z."""
        if m.degree == 0:
            return True
        M = carlitz_torsion_poly(self.field, m)
        D = M.degree
        zring = M.ring
        th = self.A.gen
        zero = TruncSeries.zero(self.A, self.prec)
        lam = self.level_structure_image(m)
        # lambda(Phi_t(Z)) = sum e_i (theta^(q^i) R_i + R_(i+1))
        lhs = [zero] * D
        R = Poly(zring, (self.A.zero, self.A.one))
        for i in range(self.i_max + 1):
            Rnext = R.pth_power(self.field.e) % M
            ei = self.exp_coeff(i)
            if ei:
                for jpos, cz in enumerate(R.coeffs):
                    if cz:
                        lhs[jpos] = lhs[jpos] + ei.scale(cz * th.frob(i))
                for jpos, cz in enumerate(Rnext.coeffs):
                    if cz:
                        lhs[jpos] = lhs[jpos] + ei.scale(cz)
            R = Rnext
        # Phi_t(lambda) = theta lam + a1 lam^[q] + a2 lam^[q^2]
        rhs = [s.scale(th) for s in lam]
        for (coef, k) in ((self.a1, 1), (self.a2, 2)):
            powed = self._qpow_list(lam, M, k)
            rhs = [r + coef * s for r, s in zip(rhs, powed)]
        return all((l - r).truncate(self.prec).is_zero()
                   for l, r in zip(lhs, rhs))

    def _qpow_list(self, coeffs, M, k):
        """q^k-th power of sum coeffs[j] Z^j in the quotient by monic M."""
        D = M.degree
        zero = TruncSeries.zero(self.A, self.prec)
        step = self.q ** k
        acc = [zero] * D
        # (sum l_j Z^j)^(q^k) = sum l_j^(q^k) Z^(j q^k), then reduce mod M
        zring = M.ring
        for j, c in enumerate(coeffs):
            if c.is_zero():
                continue
            # Z^(j q^k) mod M
            zpow = Poly(zring, (self.A.zero, self.A.one)).pow_mod(j * step, M)
            cq = c.frob(k)
            for jpos, cz in enumerate(zpow.coeffs):
                if cz:
                    acc[jpos] = acc[jpos] + cq.scale(cz)
        return [s.truncate(self.prec) for s in acc]


_TD_CACHE = {}


def td_instance(field, wp, f, prec, i_max=None):
    """Memoized Tate-Drinfeld configurations; they are immutable once built."""
    key = (id(field), wp.coeffs, f.coeffs, prec, i_max)
    if key not in _TD_CACHE:
        _TD_CACHE[key] = TateDrinfeld(field, wp, f, prec, i_max)
    return _TD_CACHE[key]
