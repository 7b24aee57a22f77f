"""The Carlitz module and its torsion polynomials.

The Carlitz action sends t to theta + tau and extends multiplicatively; its
image polynomials Phi^C_a are cached per base ring because the Tate-Drinfeld
engine recomputes them constantly.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator

from .errors import DomainError, InternalConsistencyError
from .fields import Poly, polyring, is_irreducible
from .tau import DrinfeldAction, TauPoly

_ACTIONS = {}


def carlitz_action(ring):
    """The rank-one Drinfeld module with Phi_t = theta + tau over a base ring,
    one shared action per ring."""
    key = id(ring)
    if key not in _ACTIONS:
        if getattr(ring, "theta", None) is None:
            raise DomainError("Carlitz action needs a base ring with theta")
        _ACTIONS[key] = DrinfeldAction(TauPoly(ring, (ring.theta, ring.one)))
    return _ACTIONS[key]


def carlitz_phi(ring, a):
    return carlitz_action(ring).phi(a)


def _tau_to_zpoly(f, zring):
    """Rewrite sum b_i tau^i as the additive polynomial sum b_i Z^(q^i)."""
    q = f.ring.q
    out = [zring.base.zero] * (q ** f.degree + 1)
    for i, c in enumerate(f.coeffs):
        if c:
            out[q ** i] = c
    return Poly(zring.base, tuple(out))


def carlitz_torsion_poly(field, a):
    """Phi^C_a(Z) over A itself (theta = t), as a dense polynomial in Z."""
    if a.is_zero():
        raise DomainError("torsion polynomial needs a nonzero index")
    A = polyring(field)
    f = carlitz_phi(A, a)
    zring = polyring(A, var="Z")
    return _tau_to_zpoly(f, zring)


def check_eisenstein(field, wp):
    """Eisenstein certificate for Phi^C_wp(Z) at the prime wp.

    Verifies: monic; every non-leading coefficient divisible by wp; the
    linear coefficient exactly wp (valuation one); and returns the mod-wp
    reduction, which must equal Z^(q^d).
    """
    if not is_irreducible(wp):
        raise DomainError("expected a monic irreducible polynomial")
    d = wp.degree
    q = field.q
    phi = carlitz_torsion_poly(field, wp)
    witness = {"degree": phi.degree, "expected_degree": q ** d}
    ok = phi.is_monic() and phi.degree == q ** d
    # exponents whose coefficient survives mod wp
    nonzero_mod = [k for k, c in enumerate(phi.coeffs) if c % wp]
    divisible = all(k >= phi.degree for k in nonzero_mod)
    linear_ok = phi.coeffs[1] == wp
    reduction_ok = nonzero_mod == [q ** d]
    witness.update({
        "monic": phi.is_monic(),
        "nonleading_divisible": divisible,
        "linear_coefficient_is_wp": linear_ok,
        "reduction": "Z^%d" % q ** d if reduction_ok else "unexpected",
    })
    return (ok and divisible and linear_ok and reduction_ok), witness


def _divisors_from_factorization(field, factors):
    """The monic divisors m of n with mu(n/m) != 0, with that value.

    ``factors`` lists the monic irreducible factors of n with multiplicity.
    mu(n/m) vanishes unless n/m is squarefree, so each divisor keeps or
    drops one copy of each distinct prime: yields (m, (-1)^(number dropped)).
    """
    one = polyring(field).one
    mult = collections.Counter(factors)
    for drop in itertools.product((0, 1), repeat=len(mult)):
        powers = (f ** (e - d) for (f, e), d in zip(mult.items(), drop))
        yield functools.reduce(operator.mul, powers, one), (-1) ** sum(drop)


def carlitz_cyclotomic(field, factors):
    """The cyclotomic factor W_n(X): the classes of exact C-division points.

    n is supplied as its list of monic irreducible factors (with
    multiplicity).  W_n is the Moebius-alternating product of the torsion
    polynomials Phi^C_m(X) over monic divisors m of n, carried out by exact
    division; inexactness signals an internal inconsistency.
    """
    if not factors:
        raise DomainError("the cyclotomic polynomial needs a nonconstant index")
    for f in factors:
        if not is_irreducible(f):
            raise DomainError("factor %r is not monic irreducible" % (f,))
    divisors = list(_divisors_from_factorization(field, factors))
    expected_degree = sum(mu * field.q ** m.degree for m, mu in divisors)
    # Phi^C_1(X) = X for m = 1; r >= 1 distinct primes give 2^(r-1) divisors
    # of each sign, so neither product is empty
    phis = [(carlitz_torsion_poly(field, m), mu) for m, mu in divisors]
    num = functools.reduce(operator.mul, (phi for phi, mu in phis if mu == 1))
    den = functools.reduce(operator.mul, (phi for phi, mu in phis if mu == -1))
    w = num.exact_div(den)
    if w.degree != expected_degree:
        raise InternalConsistencyError(
            "cyclotomic degree %r does not match the Moebius count %d"
            % (w.degree, expected_degree))
    n = functools.reduce(operator.mul, factors)
    phi_n = carlitz_torsion_poly(field, n)
    if not (phi_n % w).is_zero():
        raise InternalConsistencyError("W_n does not divide Phi^C_n exactly")
    return w
