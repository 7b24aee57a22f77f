"""x-expansions of Drinfeld modular forms and the wp-adic congruence audit.

A form is represented by its expansion at the infinity cusp plus (weight,
type) tags; products multiply expansions and add tags.  The Hasse lift is
the tau^d coefficient of Phi_wp on the Tate-Drinfeld module: it has weight
q^d - 1, type 0, and expansion congruent to 1 mod wp, which is everything
the congruence machinery uses.

The congruence depth of f1 and f2 is the least wp-valuation of the
coefficients of f1 - f2.  The valuation lives in fields
(``fields.min_wp_valuation``, which values coefficient differences given
as pairs of coefficients); this module only aligns the two series'
coefficients order by order, so the difference series is never built and
orders where f1 and f2 agree are skipped.  Over F_p the first differing
order is valued alone (a unit constant term ends ``series_wp_valuation``
there), and the other differences are valued together, as one block of
bytes rows divided by wp column by column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InternalConsistencyError
from .fields import min_wp_valuation, polyring
from .series import TruncSeries
from .tate import td_instance


@dataclass(frozen=True)
class FormExpansion:
    weight: int
    type_m: int
    series: object  # TruncSeries over A
    wp_prec: int = None  # set when coefficients are only known mod wp^n

    def __mul__(self, other):
        if not isinstance(other, FormExpansion):
            return NotImplemented
        q = self.series.ring.q
        wp_prec = self.wp_prec
        if other.wp_prec is not None:
            wp_prec = other.wp_prec if wp_prec is None else min(wp_prec,
                                                                other.wp_prec)
        return FormExpansion(self.weight + other.weight,
                             (self.type_m + other.type_m) % max(1, q - 1),
                             self.series * other.series, wp_prec)

    def pow(self, n):
        if n < 0:
            raise DomainError("forms are not inverted here")
        q = self.series.ring.q
        if n == 0:
            out_series = TruncSeries.one(self.series.ring, self.series.prec)
        else:
            out_series = self.series ** n
        return FormExpansion(self.weight * n, (self.type_m * n) % max(1, q - 1),
                             out_series, self.wp_prec)


def hasse_lift_expansion(field, wp, prec):
    """The weight-(q^d - 1) lift of the Hasse invariant as an x-expansion.

    Realized as alpha_d, the tau^d coefficient of Phi_wp on TD(Lambda).  The
    congruences alpha_d = 1 mod wp and alpha_i = 0 mod wp (0 < i < d) are
    asserted; a failure falsifies the identification and is a hard error.
    """
    td = td_instance(field, wp, polyring(field).one, prec)
    d = wp.degree
    phi_wp = td.module.phi(wp)
    for i in range(1, d):
        if not td.mod_wp(phi_wp.coeff(i)).is_zero():
            raise InternalConsistencyError(
                "tau^%d coefficient of Phi_wp is nonzero mod wp" % i)
    alpha_d = phi_wp.coeff(d)
    if not td.mod_wp(alpha_d - td.S.one).is_zero():
        raise InternalConsistencyError("alpha_d is not congruent to 1 mod wp")
    return FormExpansion(field.q ** d - 1, 0, alpha_d)


def coefficient_monomial(field, wp, prec, alpha, beta):
    """The generator a1^alpha * a2^beta with its weight tag."""
    td = td_instance(field, wp, polyring(field).one, prec)
    q = field.q
    series = td.S.one
    if alpha:
        series = series * td.a1 ** alpha
    if beta:
        series = series * td.a2 ** beta
    return FormExpansion((q - 1) * alpha + (q * q - 1) * beta, 0,
                         series.truncate(prec))


def lp(n, p):
    """Smallest N with p^N >= n."""
    if n < 1:
        raise DomainError("lp needs a positive integer")
    N = 0
    power = 1
    while power < n:
        power *= p
        N += 1
    return N


def series_wp_valuation(series, wp, cap):
    """min over known coefficients of the wp-valuation, capped.

    A coefficient in a view A/(wp^n) is valued by its representative, of
    degree below n deg wp, so a nonzero one has valuation below n; only a
    series zero to precision reaches a cap above n.  The coefficients are
    valued by ``fields.min_wp_valuation``: the first nonzero one alone,
    then the others together up to its valuation; a coefficient over
    another field than wp's raises DomainError.
    """
    return min_wp_valuation(((c, None) for c in series.coeffs), wp, cap)


def _coefficients(s, lo, hi):
    """The coefficients of s at the orders lo <= k < hi, where lo <= s.val;
    None at the orders where s is zero."""
    head = min(s.val, hi) - lo
    body = list(s.coeffs[:hi - lo - head])
    return [None] * head + body + [None] * (hi - lo - head - len(body))


def _difference_wp_valuation(s1, s2, wp, cap):
    """``series_wp_valuation(s1 - s2, wp, cap)``, without building s1 - s2.

    Over the window that ``TruncSeries.__sub__`` keeps (orders
    min(val1, val2) up to min(prec, max(end1, end2)), prec = min(prec1,
    prec2)) the coefficients of s1 and s2 are paired order by order
    and valued by ``fields.min_wp_valuation``, which skips the orders where
    they agree.
    """
    if s2.ring is not s1.ring:
        raise DomainError("mismatched series rings")
    prec = min(s1.prec, s2.prec)
    lo = min(s1.val, s2.val)
    hi = min(prec, max(s1.val + len(s1.coeffs), s2.val + len(s2.coeffs)))
    return min_wp_valuation(zip(_coefficients(s1, lo, hi),
                                _coefficients(s2, lo, hi)), wp, cap)


def reduce_mod_wp(form, ring, n):
    """View a form's coefficients in A/(wp^n); congruences up to depth n
    stay exact while the t-degrees are capped.  ``ring`` must be the shared
    ResidueRing handle for wp^n so reduced forms compare against each other."""
    return FormExpansion(form.weight, form.type_m,
                         form.series.map_coeffs(ring.reduce, ring), n)


@dataclass(frozen=True)
class CongruenceDepth:
    depth: int
    not_congruent: bool
    congruent_to_zero: bool
    diff_valuation: int
    f1_valuation: int


def congruence_depth(f1, f2, wp, max_n):
    """Largest n <= max_n with f1 = f2 mod wp^n and f1 != 0 mod wp^n.

    The two failure modes are flagged separately: no congruence at n = 1,
    and congruence only in the range where f1 vanishes mod wp^n (the
    excluded zero-congruence case).  The valuation of f1 - f2 is taken
    by ``fields.min_wp_valuation`` on the coefficient pairs, without
    building the difference series (over F_p on the columns of their
    bytes rows); a coefficient over another field than wp's raises
    DomainError.
    """
    s1 = f1.series if isinstance(f1, FormExpansion) else f1
    s2 = f2.series if isinstance(f2, FormExpansion) else f2
    if s1.ring is not s2.ring:
        raise DomainError("expansions live over different rings")
    D = _difference_wp_valuation(s1, s2, wp, max_n)
    Z = series_wp_valuation(s1, wp, max_n)
    if D == 0:
        return CongruenceDepth(0, True, False, D, Z)
    n = min(D, max_n)
    if Z >= n:
        return CongruenceDepth(0, False, True, D, Z)
    return CongruenceDepth(n, False, False, D, Z)


@dataclass(frozen=True)
class AuditVerdict:
    passed: bool
    vacuous: bool
    depth: int
    modulus: int
    delta_k: int
    lp_depth: int


def weight_congruence_audit(f1, f2, wp, max_n):
    """Check the weight congruence forced by an expansion congruence.

    With n the congruence depth, the verdict is PASS exactly when
    (q^d - 1) p^(lp(n)) divides k1 - k2; the modulus is never weakened.
    Degenerate inputs (no congruence, or congruence to zero) make the
    hypothesis empty and are reported as vacuous non-passes.
    """
    q = f1.series.ring.q
    p = f1.series.ring.p
    d = wp.degree
    res = congruence_depth(f1, f2, wp, max_n)
    delta = f1.weight - f2.weight
    if res.not_congruent or res.congruent_to_zero:
        return AuditVerdict(False, True, res.depth, 0, delta, 0)
    l = lp(res.depth, p)
    modulus = (q ** d - 1) * p ** l
    return AuditVerdict(delta % modulus == 0, False, res.depth, modulus,
                        delta, l)


@dataclass(frozen=True)
class WeightChar:
    """A wp-adic weight: a residue mod q^d - 1 and a p-adic integer stored
    to precision p^L."""
    s0: int
    s1: int
    qd1: int
    p: int
    stored_lp: int

    def __post_init__(self):
        object.__setattr__(self, "s0", self.s0 % max(1, self.qd1))
        object.__setattr__(self, "s1", self.s1 % self.p ** self.stored_lp)


def weight_embed(k, q, d, p, stored_lp=12):
    return WeightChar(k, k, q ** d - 1, p, stored_lp)


def weight_congruent(chi, k, n):
    """chi = k mod (q^d - 1, p^(lp(n))), at the stored p-adic precision."""
    l = lp(n, chi.p)
    if l > chi.stored_lp:
        raise DomainError("insufficient stored p-adic precision")
    if chi.qd1 > 1 and (k - chi.s0) % chi.qd1 != 0:
        return False
    return (k - chi.s1) % chi.p ** l == 0


# padic_limit_sequence costs about one Hasse-lift power per step, linearly
# in steps (q = 7, x-precision 12: about 4 s for 5000 steps on a 2-vCPU
# x86 machine); its own p-adic bound lp(steps, p) <= 12 still admits about
# 1.4e10 steps at p = 7.  The catalogued and tested runs take at most 5.
_MAX_LIMIT_STEPS = 64


def padic_limit_sequence(f, chi, wp, steps, hasse):
    """h_n = f * hasse^(j_n) with k_n = k + (q^d - 1) j_n tracking chi.

    j_n is the smallest nonnegative solution of
    (q^d - 1) j = s1 - k mod p^(lp(n)), so j_n = j_(n-1) mod p^L with
    L = lp(n - 1).  Since hasse = 1 mod wp, hasse^(p^L) = 1 mod wp^(p^L), and
    successive terms agree mod wp^(p^L) (mod wp^wp_prec in a view A/(wp^n),
    where valuations saturate); this is asserted, and each h_n carries the
    weight tag k_n.
    """
    k = f.weight
    p = chi.p
    qd1 = chi.qd1
    if qd1 > 1 and (k - chi.s0) % qd1 != 0:
        raise DomainError("weight character disagrees with f mod q^d - 1")
    if steps > _MAX_LIMIT_STEPS:
        raise DomainError("steps = %d exceeds the input bound %d"
                          % (steps, _MAX_LIMIT_STEPS))
    if lp(steps, p) > chi.stored_lp:
        raise DomainError("insufficient stored p-adic precision")
    out = []
    prev = None
    for n in range(1, steps + 1):
        mod = p ** lp(n, p)
        inv = pow(qd1 % mod, -1, mod)
        j = ((chi.s1 - k) * inv) % mod
        h = f * hasse.pow(j)
        if h.weight != k + qd1 * j:
            raise InternalConsistencyError("weight tag drifted")
        if prev is not None:
            need = p ** lp(n - 1, p)
            if h.wp_prec is not None:
                need = min(need, h.wp_prec)
            if _difference_wp_valuation(h.series, prev.series, wp,
                                        need) < need:
                raise InternalConsistencyError(
                    "successive congruence h_%d = h_%d mod wp^%d failed"
                    % (n, n - 1, need))
        out.append((k + qd1 * j, h))
        prev = h
    return out
