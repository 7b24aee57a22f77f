"""Rank-2 Drinfeld modules over a trivialized line bundle.

A module is the pair (a1, a2) with Phi_t = theta + a1 tau + a2 tau^2 and a2
a unit; the inverse that the unit check computes is kept as ``a2_inv``.  The
explicit Taguchi dual swaps in (-a1/a2, a2^(-q)); over a base of
characteristic wp, Phi_wp factors through Frobenius as V_d * F_d and the
middle coefficient alpha_d decides ordinariness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, InternalConsistencyError
from .tau import DrinfeldAction, TauPoly


@dataclass(frozen=True)
class DrinfeldRank2:
    ring: object
    a1: object
    a2: object
    a2_inv: object = field(init=False, repr=False, compare=False)
    _action: DrinfeldAction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "a2_inv", self.a2.inv())
        except DomainError:
            raise DomainError("a2 must be a unit")
        ring = self.ring
        object.__setattr__(self, "_action", DrinfeldAction(
            TauPoly(ring, (ring.theta, self.a1, self.a2))))

    def phi_t(self):
        return self._action.phi_t

    def phi(self, a):
        """Phi_a = a(Phi_t); deg_tau = 2 deg a."""
        return self._action.phi(a)

    def j_invariant(self):
        q = self.ring.q
        return (self.a1 ** (q + 1)) * self.a2_inv

    def taguchi_dual(self):
        """The rank-2 dual: coefficients (-a1/a2, a2^(-q))."""
        q = self.ring.q
        return DrinfeldRank2(self.ring, -(self.a1 * self.a2_inv),
                             self.a2_inv ** q)

    def twist(self, k):
        """Base change along the q^k-power Frobenius."""
        return DrinfeldRank2(self.ring, self.a1.frob(k), self.a2.frob(k))


def is_morphism(u, E, F):
    """True iff u * Phi^E_t = Phi^F_t * u; t generates A, so this suffices."""
    if E.ring is not F.ring or (u.coeffs and u.ring is not E.ring):
        raise DomainError("morphism check needs a shared base ring")
    return u * E.phi_t() == F.phi_t() * u


def is_isogeny(u, E, F):
    """A morphism that is nonzero; the zero map is flagged out."""
    return bool(u) and is_morphism(u, E, F)


@dataclass(frozen=True)
class WpFactorization:
    """Phi_wp = (alpha_d + ... + alpha_2d tau^d) tau^d over characteristic wp."""
    d: int
    alphas: tuple        # alpha_d .. alpha_2d
    V_d: TauPoly
    F_d: TauPoly
    phi_wp: TauPoly


def wp_factorize(E, wp):
    """Split Phi_wp as V_d * F_d; the base ring must kill wp at theta.

    Also certifies the twisted two-step composite V_d^2 o F_d^2 = Phi_(wp^2),
    where V_d^2 = V_d o V_d^(q^d) and F_d^2 = (F_d)^(q^d) o F_d.
    """
    ring = E.ring
    if ring.structure(wp):
        raise DomainError("base ring does not have characteristic wp")
    d = wp.degree
    phi_wp = E.phi(wp)
    if phi_wp.degree != 2 * d:
        raise InternalConsistencyError("Phi_wp has wrong tau-degree")
    for i in range(d):
        if phi_wp.coeff(i):
            raise DomainError("low tau-coefficient %d of Phi_wp is nonzero; "
                              "theta is not a root of wp" % i)
    alphas = tuple(phi_wp.coeff(d + j) for j in range(d + 1))
    V_d = TauPoly(ring, alphas)
    F_d = TauPoly.tau(ring, d)
    if V_d * F_d != phi_wp:
        raise InternalConsistencyError("V_d * F_d does not recover Phi_wp")
    # n = 2 composite with twist bookkeeping
    phi_wp2 = E.phi(wp * wp)
    if (V_d * V_d.twist(d)) * TauPoly.tau(ring, 2 * d) != phi_wp2:
        raise InternalConsistencyError("V_d^2 o F_d^2 does not recover Phi_(wp^2)")
    return WpFactorization(d, alphas, V_d, F_d, phi_wp)


def classify_reduction(E, wp):
    """'ordinary' when alpha_d is nonzero, else 'supersingular'.

    In the supersingular case the intermediate coefficients alpha_i,
    d < i < 2d, must vanish as well; a violation is an internal error.
    """
    fact = wp_factorize(E, wp)
    if fact.alphas[0]:
        return "ordinary"
    for j in range(1, fact.d):
        if fact.alphas[j]:
            raise InternalConsistencyError(
                "supersingular module with nonzero alpha_%d" % (fact.d + j))
    return "supersingular"
