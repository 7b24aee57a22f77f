"""Truncated power and Laurent series with absolute x-adic precision.

A series is a window of known coefficients [val, prec): orders below val are
zero, orders at or above prec are unknown.  Precision is absolute and is
propagated through every operation:

* addition: min of the precisions,
* multiplication: min(val1 + prec2, val2 + prec1),
* inversion of x^v * u: prec - 2v,
* substitution f(g): min(val(g) * prec(f), prec(g) + (val(f) - 1) * val(g)),
* p-th powers via the freshman's dream multiply precision by p.

The zero-to-precision element is stored with an empty coefficient window and
val == prec.  ``x ** n`` and ``frob`` come from the element base shared with
F_q and A (``fields.RingElement``); ``x ** 0`` is one to the relative
precision prec - val of x, at least 1.

Every product is formed by ``dot``, a sum of products with the precision
the separate products would give their sum; ``f * g`` and ``f.scale(c)``
are its one-term cases.  A term (a, b, k) stands for a b^(q^k): ``dot``
reads its precision from the uncut b and twists only the orders of b that
can reach the sum, so twisted sums in B{tau} (``tau.TauPoly``) and in the
Tate-Drinfeld engine need no cut of their own.

Storage.  Over a packed A/(m) (p prime) a series keeps its coefficients
as one bytes block (``block``): row i is x-order val + i, each row has
stride S = 2 deg m - 1 (``ResidueRing.stride``), its low deg m bytes the
coefficient indices of the representative and the rest zero.  ``coeffs``,
the tuple of ``AResidue``, is built from the block on first read and kept;
the constructor takes either form.  Over every other ring ``block`` is the
tuple ``coeffs`` itself.

Over A = F_p[t] and its quotients A/(m), p prime, the sum is one
Kronecker-packed linear combination: each operand's n = prec - val
coefficients become one integer, one bigint product per term replaces n^2
polynomial products, the products are shifted to their x-valuations and
added, and the rows are read back once as slices of the sum's bytes,
reduced mod p by byte translates.  Over F_p[t] that is
``fields.kronecker_dot`` on the element rows.  Over A/(m) it is
``fields.block_dot`` on the blocks, which are already in the Kronecker
layout (a product row of t-degree up to 2 deg m - 2 fits its S slots), so
an operand is packed by one ``int.from_bytes`` and the product stays a
block, reduced mod m for all rows at once, column by column.  The
coefficients are those of the schoolbook product, bit for bit, which
``_element_dot`` runs over F_q[t] and A/(m) with q = p^e, e > 1, and F_q.

Inversion follows the same split as products.  Over the packed rings it is
Newton's iteration y <- y + y (1 - u y) (Brent & Kung, J. ACM 25, 1978),
which doubles the number of known terms with two Kronecker products per
step; elsewhere the term recurrence runs, over the nonzero terms of u only.
An inverse is unique, so both give the same coefficients.

Substitution runs Horner's rule only over the terms c_k x^k with
k < ceil(certified / val g): the others land at or beyond the certified
precision and cannot change the result.  ``substitution_window`` holds that
rule.  The Tate-Drinfeld engine evaluates nu_g from a stored table of the
powers of F_g under the same rule (``tate.TateDrinfeld.nu``), so Horner's
``substitute`` is the oracle its tests compare against.
"""

from __future__ import annotations

from .errors import DomainError, PrecisionError
from .fields import (RingElement, block_add, block_dot, block_neg,
                     horner, kronecker_dot)


class TruncSeries(RingElement):
    __slots__ = ("ring", "val", "block", "coeffs", "prec")

    def __init__(self, ring, val, coeffs, prec, normalize=True):
        S = getattr(ring, "stride", None)
        if S:
            # only a series over a packed A/(m) builds its coefficient
            # tuple lazily: a class with __getattr__ reads every attribute
            # slower
            self.__class__ = _BlockSeries
        if type(coeffs) is bytes:  # a block over a packed A/(m)
            if normalize:
                coeffs = coeffs[:max(0, prec - val) * S]
                body = coeffs.lstrip(b"\0")
                if body:
                    z = (len(coeffs) - len(body)) // S
                    end = -(-len(coeffs.rstrip(b"\0")) // S)
                    coeffs = coeffs[z * S:end * S]
                    val += z
                else:
                    coeffs, val = b"", prec
            self.block = coeffs
        else:
            if normalize:
                coeffs = list(coeffs)
                # drop unknown orders
                if val + len(coeffs) > prec:
                    del coeffs[max(0, prec - val):]
                while coeffs and not coeffs[0]:
                    coeffs.pop(0)
                    val += 1
                while coeffs and not coeffs[-1]:
                    coeffs.pop()
                if not coeffs:
                    val = prec
            self.coeffs = coeffs = tuple(coeffs)
            self.block = ring.pack_block(coeffs) if S else coeffs
        self.ring = ring
        self.val = val
        self.prec = prec

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(ring, prec):
        return TruncSeries(ring, prec, (), prec, normalize=False)

    @staticmethod
    def one(ring, prec):
        return TruncSeries.constant(ring.one, ring, prec)

    @staticmethod
    def constant(c, ring, prec):
        if prec <= 0:
            raise PrecisionError("constant needs positive precision")
        if not c:
            return TruncSeries.zero(ring, prec)
        return TruncSeries(ring, 0, (c,), prec, normalize=False)

    @staticmethod
    def x_power(ring, k, prec):
        if k >= prec:
            raise PrecisionError("x^%d is not visible at precision %d" % (k, prec))
        return TruncSeries(ring, k, (ring.one,), prec, normalize=False)

    # -- queries ----------------------------------------------------------

    def is_zero(self):
        return not self.block

    def __bool__(self):
        return bool(self.block)

    def order(self):
        """x-adic valuation; None for the zero-to-precision element."""
        return self.val if self.block else None

    def coeff(self, k):
        if k >= self.prec:
            raise PrecisionError("coefficient of x^%d beyond precision %d"
                                 % (k, self.prec))
        if k < self.val or k >= self.val + len(self.coeffs):
            return self.ring.zero
        return self.coeffs[k - self.val]

    def coeff_range(self):
        return range(self.val, self.val + len(self.coeffs))

    def leading(self):
        if not self.block:
            raise DomainError("zero-to-precision series has no leading coefficient")
        return self.coeffs[0]

    def agrees_with(self, other, upto=None):
        """Equality of known coefficients up to the joint precision."""
        if other.ring is not self.ring:
            return False
        n = min(self.prec, other.prec)
        if upto is not None:
            n = min(n, upto)
        lo = min(self.val, other.val)
        for k in range(lo, n):
            if self.coeff(k) != other.coeff(k):
                return False
        return True

    # -- arithmetic -------------------------------------------------------

    def _zip(self, other):
        if isinstance(other, TruncSeries):
            if other.ring is not self.ring:
                raise DomainError("mismatched series rings")
            return other
        try:
            c = self.ring.coerce(other)
        except (DomainError, TypeError):
            return None
        return TruncSeries.constant(c, self.ring, self.prec) if c else \
            TruncSeries.zero(self.ring, self.prec)

    def __add__(self, other):
        o = self._zip(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        if not self.block:
            return o.truncate(prec)
        if not o.block:
            return self.truncate(prec)
        lo = min(self.val, o.val)
        if type(o.block) is bytes:  # over a packed A/(m): one block sum
            return TruncSeries(self.ring, lo, block_add(
                self.ring, self.block, o.block, o.val - self.val), prec)
        hi = min(prec, max(self.val + len(self.coeffs), o.val + len(o.coeffs)))
        out = [self.coeff(k) + o.coeff(k) for k in range(lo, hi)]
        return TruncSeries(self.ring, lo, out, prec)

    __radd__ = __add__

    def __neg__(self):
        if type(self.block) is bytes:
            return TruncSeries(self.ring, self.val,
                               block_neg(self.ring, self.block), self.prec,
                               normalize=False)
        return TruncSeries(self.ring, self.val, tuple(-c for c in self.coeffs),
                           self.prec, normalize=False)

    def __sub__(self, other):
        o = self._zip(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        if not o.block:
            return self.truncate(prec)
        lo = min(self.val, o.val)
        if type(o.block) is bytes:
            return TruncSeries(self.ring, lo, block_add(
                self.ring, self.block, o.block, o.val - self.val, True), prec)
        hi = min(prec, max(self.val + len(self.coeffs), o.val + len(o.coeffs)))
        out = [self.coeff(k) - o.coeff(k) for k in range(lo, hi)]
        return TruncSeries(self.ring, lo, out, prec)

    def __mul__(self, other):
        o = self._zip(other)
        if o is None:
            return NotImplemented
        return dot(self.ring, ((self, o),))

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply by an exact coefficient-ring element."""
        return dot(self.ring, ((c, self),))

    def inv(self):
        if not self.block:
            raise PrecisionError("cannot invert a zero-to-precision series")
        relprec = self.prec - self.val
        if relprec < 1:
            raise PrecisionError("precision underflow in series inversion")
        try:
            lead_inv = self.coeffs[0].inv()
        except DomainError:
            raise DomainError("leading series coefficient is not a unit")
        if getattr(self.ring, "packed", False):
            out = _newton_inverse(self.coeffs[:relprec], lead_inv, relprec,
                                  self.ring)
        else:
            out = _recurrence_inverse(self.coeffs[:relprec], lead_inv,
                                      relprec, self.ring)
        return TruncSeries(self.ring, -self.val, out, relprec - self.val)

    def _one(self):
        """The unit of ``x ** 0``, to the relative precision of self."""
        return TruncSeries.one(self.ring, max(1, self.prec - self.val))

    def pth_power(self, k=1):
        """(sum c_i x^i)^(p^k) = sum c_i^(p^k) x^(i p^k); precision multiplies."""
        if k == 0:
            return self
        step = self.ring.p ** k
        prec = self.prec * step
        if not self.block:
            return TruncSeries.zero(self.ring, prec)
        zero = self.ring.zero
        out = [zero] * ((len(self.coeffs) - 1) * step + 1)
        out[::step] = [c.pth_power(k) for c in self.coeffs]
        return TruncSeries(self.ring, self.val * step, out, prec, normalize=False)

    def derivative(self):
        """Termwise d/dx; the integer factor is reduced into the prime field."""
        ring = self.ring
        out = []
        for i, c in enumerate(self.coeffs):
            k = self.val + i
            out.append(c * ring.from_int(k))
        val = self.val - 1
        return TruncSeries(ring, val, out, self.prec - 1)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return TruncSeries(self.ring, min(self.val, prec), self.block, prec)

    def shift(self, k):
        """Multiply by x^k (k may be negative); exact on the stored window."""
        return TruncSeries(self.ring, self.val + k, self.block, self.prec + k,
                           normalize=False)

    def substitution_window(self, g):
        """(val g, certified, top) for the composite self(g).

        The one copy of the precision rule, shared by ``substitute`` and the
        power-table evaluation of ``tate.TateDrinfeld.nu``.  certified is
        min(val(g) prec(self), prec(g) + (k - 1) val(g)) for the first
        nonzero term c_k x^k with k != 0.  A term c_k g^k with
        k >= ceil(certified / val g) lands at or beyond certified, so only
        the first top stored coefficients can change the result.  A g that
        is zero to precision counts as having valuation prec(g).
        """
        if g.ring is not self.ring:
            raise DomainError("mismatched series rings in substitution")
        gval = g.order()
        if gval is None:
            gval = g.prec
        if gval <= 0:
            raise DomainError("substitution target must have positive valuation")
        certified = gval * self.prec
        if not self.block:
            return gval, certified, 0
        for k in self.coeff_range():
            if k != 0 and self.coeff(k):
                certified = min(certified, g.prec + (k - 1) * gval)
                break
        if certified < 1:
            raise PrecisionError("substitution cannot certify any precision")
        top = min(len(self.coeffs), -(-certified // gval) - self.val)
        return gval, certified, top

    def substitute(self, g):
        """Compose: substitute the series g for x in self, by Horner's rule.

        g must have positive valuation.  self may have a Laurent tail
        (val < 0); g is then inverted to carry it.  The Tate-Drinfeld engine
        evaluates nu_g from a table of powers of g instead; this Horner run
        is the reference it is tested against.
        """
        gval, certified, top = self.substitution_window(g)
        if not self.block:
            return TruncSeries.zero(self.ring, certified)
        # Horner on x^(-val) * self, then scale by g^val
        acc = horner(self.coeffs[:top], g, TruncSeries.zero(
            self.ring, certified - min(0, self.val) * gval))
        if self.val > 0:
            acc = acc * (g ** self.val)
        elif self.val < 0:
            acc = acc * (g.inv() ** (-self.val))
        return acc.truncate(certified)

    # -- structure checks --------------------------------------------------

    def in_subring(self, step):
        """True when every known coefficient sits in an order divisible by step."""
        for k in self.coeff_range():
            if k % step != 0 and self.coeff(k):
                return False
        return True

    def compress(self, step):
        """Rewrite a series in x^step as a series in y = x^step."""
        if not self.in_subring(step):
            raise DomainError("series does not lie in the x^%d subring" % step)
        prec = -(-self.prec // step)
        if not self.block:
            return TruncSeries.zero(self.ring, prec)
        val = self.val // step
        out = [self.coeff(k * step) for k in range(val, prec)
               if k * step < self.prec]
        return TruncSeries(self.ring, val, out, prec)

    def map_coeffs(self, func, ring):
        return TruncSeries(ring, self.val, tuple(func(c) for c in self.coeffs),
                           self.prec)

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return (other.ring is self.ring and other.val == self.val
                    and other.block == self.block and other.prec == self.prec)
        return NotImplemented

    def __repr__(self):
        ring = self.ring
        names = getattr(ring, "to_str", repr)
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append("(%s)*x^%d" % (names(c), self.val + i))
        body = " + ".join(parts) if parts else "0"
        return "%s + O(x^%d)" % (body, self.prec)


class _BlockSeries(TruncSeries):
    """A series over a packed A/(m), whose ``coeffs`` are built from its
    block on first read and kept."""

    __slots__ = ()

    def __getattr__(self, name):
        # only the coefficient tuple of a block is ever missing
        if name != "coeffs":
            raise AttributeError(name)
        coeffs = self.coeffs = self.ring.unpack_block(self.block)
        return coeffs


def dot(ring, terms, prec=None):
    """sum a b^(q^k) over the terms (a, b, k), a plain (a, b) meaning k = 0:
    b a series over ``ring``, a a series over it or an element of ``ring``
    (the constant a, exact); a ``SeriesRing`` stands for its coefficient
    ring with prec its precision.  Each term's precision,
    min(val a + Q prec b, Q val b + prec a) with Q = q^k (for a constant
    Q prec b, and val a = 0), is read from the uncut b; the least, capped
    at prec, is the sum's precision top.  Only then is b cut to the orders
    below ceil((top - val a) / Q), the only ones that reach top, and
    twisted.  The
    products, shifted to their x-valuations, become rows once:
    ``fields.kronecker_dot`` on the packed rings, ``_element_dot`` elsewhere.
    """
    if isinstance(ring, SeriesRing):
        ring, prec = ring.ring, ring.prec
    blocks = getattr(ring, "stride", None)
    rows, twisted = [], []
    top = prec
    for term in terms:
        a, b = term[0], term[1]
        Q = ring.q ** term[2] if len(term) > 2 else 1
        if isinstance(a, TruncSeries):
            here = min(a.val + Q * b.prec, Q * b.val + a.prec)
            val, a = a.val, a.block
        else:
            here, val, a = Q * b.prec, 0, ring.coerce(a)
            a = (a,) if a else ()
            if blocks:
                a = ring.pack_block(a)
        if top is None or here < top:
            top = here
        if a and b.block:
            if Q == 1:
                rows.append((val + b.val, a, b.block))
            else:
                twisted.append((val, a, b, term[2], Q))
    for val, a, b, k, Q in twisted:  # the cut needs the final top
        b = b.truncate(-(-(top - val) // Q)).frob(k)
        rows.append((val + b.val, a, b.block))
    if not rows:
        return TruncSeries.zero(ring, top)
    if len(rows) == 1:  # a product: no pass over the terms
        lo, a, b = rows[0]
        rows = ((0, a, b),)
    else:
        lo = min([v for v, _, _ in rows])
        rows = [(v - lo, a, b) for v, a, b in rows]
    if top <= lo:
        return TruncSeries.zero(ring, top)
    form = block_dot if blocks else kronecker_dot if getattr(
        ring, "packed", False) else _element_dot
    return TruncSeries(ring, lo, form(rows, top - lo, ring), top)


def _element_dot(terms, n, ring):
    """``fields.kronecker_dot`` for the rings it does not pack, by the
    schoolbook loop: the first n coefficients of sum x^s a b over the terms
    (s, a, b), up to the last row any term reaches; a term with s >= n
    reaches none.  A row still ``ring.zero`` takes its first product as is."""
    zero = ring.zero
    out = []
    for s, a, b in terms:
        if s >= n:
            continue
        a, b = a[:n - s], b[:n - s]
        end = min(n, s + len(a) + len(b) - 1)
        if end > len(out):
            out += [zero] * (end - len(out))
        for i, x in enumerate(a, s):
            if x:
                for j, y in enumerate(b[:end - i], i):
                    if y:
                        v = out[j]
                        out[j] = x * y if v is zero else v + x * y
    return out


def _newton_inverse(u, lead_inv, n, ring):
    """The first n coefficients of 1/u by Newton's iteration
    y <- y + y (1 - u y), which doubles the number of correct terms; both
    products are one-term ``kronecker_dot`` calls (``_element_block_dot``
    over A/(m)).  u y = 1 + O(x^m) before a step, so the residual starts
    at x^m, and its leading zeros are skipped: they would only widen the
    packed operand."""
    product = _element_block_dot if getattr(ring, "stride", None) \
        else kronecker_dot
    y = [lead_inv]
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        uy = product(((0, u[:m2], y),), m2, ring)[m:]
        z = next((k for k, c in enumerate(uy) if c), None)
        if z is None:
            y += [ring.zero] * (m2 - m)
        else:
            corr = product(((0, y[:m2 - m - z], uy[z:]),), m2 - m - z, ring)
            y += [ring.zero] * z + [-c for c in corr]
            y += [ring.zero] * (m2 - len(y))
        m = m2
    return y


def _element_block_dot(terms, n, ring):
    """``fields.block_dot`` on sequences of elements of a packed A/(m): the
    operands packed into blocks, the product's rows unpacked."""
    pack = ring.pack_block
    return ring.unpack_block(block_dot([(s, pack(a), pack(b))
                                        for s, a, b in terms], n, ring))


def _recurrence_inverse(u, lead_inv, n, ring):
    """The first n coefficients of 1/u by the term recurrence; only the
    nonzero u_j, j >= 1, enter it, summed in order of j."""
    terms = [(j, c) for j, c in enumerate(u[1:n], 1) if c]
    zero = ring.zero
    out = [zero] * n
    out[0] = lead_inv
    for k in range(1, n):
        acc = zero
        for j, c in terms:
            if j > k:
                break
            if out[k - j]:
                acc = acc + c * out[k - j]
        out[k] = -(lead_inv * acc)
    return out


class SeriesRing:
    """Handle pairing a coefficient ring with a default working precision."""

    def __init__(self, ring, prec):
        self.ring = ring
        self.prec = prec
        self.p = ring.p
        self.q = ring.q
        self.zero = TruncSeries.zero(ring, prec)
        self.one = TruncSeries.one(ring, prec)

    @property
    def base_field(self):
        return self.ring.base_field

    @property
    def theta(self):
        return TruncSeries.constant(self.ring.theta, self.ring, self.prec)

    def from_int(self, n):
        return self.constant(self.ring.from_int(n))

    def constant(self, c):
        c = self.ring.coerce(c)
        if not c:
            return self.zero
        return TruncSeries.constant(c, self.ring, self.prec)

    def x(self, k=1):
        return TruncSeries.x_power(self.ring, k, self.prec)

    def coerce(self, x):
        if isinstance(x, TruncSeries) and x.ring is self.ring:
            return x
        return self.constant(x)

    def structure(self, a):
        return self.constant(self.ring.structure(a))

    def __repr__(self):
        return "%r[[x]] (prec %d)" % (self.ring, self.prec)


def newton_slopes(points):
    """Lower convex hull of (exponent, valuation) pairs.

    Returns the hull vertices in increasing exponent order; segments between
    consecutive vertices carry the slopes of the Newton polygon.
    """
    pts = sorted(points)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep the hull lower-convex
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull
