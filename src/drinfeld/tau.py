"""The twisted polynomial ring B{tau} over a ring with Frobenius.

A twisted polynomial sum b_i tau^i is the additive polynomial
X -> sum b_i X^(q^i); multiplication is composition, governed by
a tau^i * b tau^j = a b^(q^i) tau^(i+j).  Only right division is provided:
the quotient step needs b^(q^s) powers of the divisor's inverted leading
coefficient, never q-th roots.

``TauPoly`` shares its dense coefficient storage, sums and powers with
``fields.Poly`` through ``fields.DensePoly``.  It supplies the twisted
product, right division, evaluation as an additive polynomial and the
coefficient twist, and its ``_coerce`` refuses an operand over another
coefficient ring with DomainError instead of handing it on.  It has no
inverse, so a negative power raises DomainError from ``DensePoly.inv``, and
``frob`` raises DomainError too: the coefficient twist is ``twist``.

Over a series ring (``series.SeriesRing``) the coefficient
sum_(i+j=k) a_i b_j^(q^i) of a product is one ``series.dot`` of the
twisted terms (a_i, b_j, i), read back once over F_p[t]; ``dot`` sets its
precision and cuts each b_j before the twist, so no precision rule lives
here.  Over any other ring the element loop runs.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import DomainError
from .fields import DensePoly, horner
from .series import SeriesRing, dot


class TauPoly(DensePoly):
    __slots__ = ()

    @staticmethod
    def zero(ring):
        return TauPoly(ring, (), normalize=False)

    @staticmethod
    def one(ring):
        return TauPoly(ring, (ring.one,), normalize=False)

    @staticmethod
    def tau(ring, k=1):
        return TauPoly(ring, (ring.zero,) * k + (ring.one,), normalize=False)

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def _coerce(self, other):
        if isinstance(other, TauPoly) and other.ring is not self.ring:
            raise DomainError("mismatched coefficient rings")
        return super()._coerce(other)

    def __mul__(self, other):
        """Composition product: (f*g)(X) = f(g(X))."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return TauPoly.zero(self.ring)
        if isinstance(self.ring, SeriesRing):
            return self._series_mul(a, b)
        zero = self.ring.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj.frob(i)
        return TauPoly(self.ring, out)

    def _series_mul(self, a, b):
        """The product over a series ring: each coefficient is one
        ``series.dot`` of the twisted terms (a_i, b_j, i)."""
        ring = self.ring
        return TauPoly(ring, [
            dot(ring, [(a[i], b[k - i], i)
                       for i in range(max(0, k - len(b) + 1),
                                      min(k, len(a) - 1) + 1)
                       if a[i] and b[k - i]])
            for k in range(len(a) + len(b) - 1)])

    def __rmul__(self, other):
        """c * f for a scalar c: the constant c composed on the left, so c
        multiplies the coefficients untwisted (``scale_left``)."""
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return c * self

    def __call__(self, x):
        """Evaluate the additive polynomial: sum b_i x^(q^i)."""
        if not self.coeffs:
            return x - x
        powers = itertools.accumulate(range(1, len(self.coeffs)),
                                      lambda p, _: p.frob(), initial=x)
        # the leading b_i is nonzero: the sum starts at its first term, not
        # at x - x, which has the lower precision of x for a series
        return functools.reduce(operator.add, (
            p.scale(c) if hasattr(p, "scale") else c * p
            for c, p in zip(self.coeffs, powers) if c))

    def frob(self, k=1):
        raise DomainError("TauPoly has no Frobenius power; use twist for the "
                          "coefficientwise q^k-power")

    def twist(self, k=1):
        """Coefficientwise q^k-power; the base change along Frobenius."""
        if k < 0:
            raise DomainError("twist exponent must be nonnegative")
        if k == 0:
            return self
        return TauPoly(self.ring, tuple(c.frob(k) for c in self.coeffs))

    def scale_left(self, c):
        c = self.ring.coerce(c)
        return TauPoly(self.ring, tuple(c * b for b in self.coeffs))

    def rdivmod(self, u):
        """(s, r) with self = s*u + r and deg r < deg u.

        Requires the leading coefficient of u to be a unit.  The leading
        step solves c * lead^(q^s) = top, so only Frobenius powers of the
        inverted leading coefficient are needed.
        """
        if not isinstance(u, TauPoly) or u.ring is not self.ring:
            raise DomainError("mismatched coefficient rings in division")
        if u.is_zero():
            raise DomainError("twisted division by zero")
        try:
            lead_inv = u.leading().inv()
        except DomainError:
            raise DomainError("leading coefficient of the divisor is not a unit")
        du = u.degree
        rem = list(self.coeffs)
        if len(rem) - 1 < du:
            return TauPoly.zero(self.ring), self
        quot = [self.ring.zero] * (len(rem) - du)
        while len(rem) - 1 >= du:
            top = rem[-1]
            if not top:
                rem.pop()
                continue
            s = len(rem) - 1 - du
            c = top * lead_inv.frob(s)
            quot[s] = c
            for j, uj in enumerate(u.coeffs):
                if uj:
                    rem[s + j] = rem[s + j] - c * uj.frob(s)
            rem.pop()
        return TauPoly(self.ring, quot), TauPoly(self.ring, rem)

    def rmod(self, u):
        return self.rdivmod(u)[1]

    def __repr__(self):
        if not self.coeffs:
            return "TauPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append("(%r)tau^%d" % (c, i))
        return " + ".join(parts)


class DrinfeldAction:
    """The A-action a -> Phi_a = a(Phi_t) of a Drinfeld module given by Phi_t.

    Phi_a is found by Horner's rule in Phi_t and memoised under the
    coefficients of a.
    """

    def __init__(self, phi_t):
        self.phi_t = phi_t
        self._cache = {}

    def phi(self, a):
        key = a.coeffs
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        acc = horner(a.coeffs, self.phi_t, TauPoly.zero(self.phi_t.ring))
        return self._cache.setdefault(key, acc)
