"""Exact arithmetic for small finite fields, the ring A = F_q[t], and its
quotients.

Conventions shared by the whole package:

* q = p^e is fixed once by the base field; ``frob`` always means the q-power
  map, even on extension rings where it is not the identity.
* ``FqElem``, ``DensePoly`` and ``series.TruncSeries`` share one element
  base, ``RingElement``: ``x ** n``, ``frob`` and reflected subtraction.
* Polynomials are dense, stored low degree first, with no trailing zeros.
  ``DensePoly`` holds that storage, its coefficientwise operations and
  operand coercion (``_coerce``) for ``Poly``, ``tau.TauPoly`` and
  ``AResidue`` (an element of A/(m) as its reduced representative).  Each
  subclass supplies its product, ``pth_power`` and, where units exist,
  ``inv``; ``Poly`` adds division and gcd.
* Over a prime field F_p, coefficient arithmetic runs on integer indices
  below the element layer: ``Poly`` products and division, the products,
  p-th powers and sums of products (``ResidueRing.dot``) of A/(m), and the
  wp-adic valuation of coefficient differences (``min_wp_valuation``)
  convolve and eliminate on ints (``_mul_ints``, ``_divmod_ints``) and
  reduce once, building elements only for the result.  Over F_q with
  q = p^e, e > 1, an index is not additive, and the same operations run on
  the field elements.  Sums, differences and negations of ``DensePoly``
  rows over any F_q index the field's addition and negation tables
  inline.  No other module reads the indices.
* The degree of the zero polynomial is the sentinel ``NEG_INF``, never an
  integer, so division loops can compare degrees without off-by-one traps.
* Ring handles (Fq, PolyRing, ResidueRing) are lightweight objects exposing
  ``zero``, ``one``, ``p``, ``q``, ``from_int``, ``coerce`` and, where it
  makes sense, ``theta`` (the image of t) and ``structure`` (the A-algebra
  map a -> a(theta)).
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import sys
from array import array

from .errors import DomainError, InternalConsistencyError

NEG_INF = float("-inf")

_MAX_TABLE_Q = 128

# Phi^C_a has tau^i coefficients of t-degree about q^i, so the work on an
# input polynomial a grows like q^deg a.  Parsed input is admitted while
# q^deg <= 2^16; the catalogued examples stay far below (carlitz phi at
# q = 7 with deg a = 4: 2401).  Extension fields share the bound, since
# find_root scans them element by element.
_MAX_INPUT_SIZE = 2 ** 16


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def power(base, n, mul=operator.mul):
    """base^n for n >= 1 by square-and-multiply.

    The result starts from the first factor, not from one, and the last
    squaring (whose value is never used) is skipped, so a truncated series
    loses no precision to either.  ``mul`` defaults to the ring product;
    a modular product gives powers in a quotient.
    """
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def horner(coeffs, x, zero):
    """sum coeffs[i] * x^i by Horner's rule, accumulated from ``zero``.

    x may live in a larger ring than the coefficients: the accumulator's
    addition coerces each nonzero coefficient.
    """
    acc = zero
    for c in reversed(coeffs):
        acc = acc * x
        if c:
            acc = acc + c
    return acc


_SLOT_TYPES = {1: "B", 2: "H", 4: "I", 8: "Q"}


@functools.cache
def _lane_tables(p, w):
    """For each byte of a w-byte slot, in native byte order, the translate
    table v -> v 256^k mod p, with 256^k the byte's weight; built on first
    use and kept per (p, w)."""
    weights = range(w) if sys.byteorder == "little" else range(w - 1, -1, -1)
    return tuple(bytes(v * pow(256, k, p) % p for v in range(256))
                 for k in weights)


def _reduce_slots(raw, p, w):
    """The w-byte unsigned slots of raw (native byte order), each reduced
    mod p, as bytes, one per slot.

    w = 1 is one translate through v -> v mod p.  For w > 1 byte lane j
    (``raw[j::w]``) is translated by v -> v 256^k mod p, its weight reduced;
    while w (p - 1) < 256 the lanes add as little-endian ints with no carry
    from byte to byte, and one more mod-p translate finishes.  Beyond that
    each slot is reduced on its own.
    """
    if w * (p - 1) >= 256:
        return bytes([v % p for v in memoryview(raw).cast(_SLOT_TYPES[w])])
    if w == 1:
        return raw.translate(_lane_tables(p, 1)[0])
    acc = sum(int.from_bytes(raw[j::w].translate(table), "little")
              for j, table in enumerate(_lane_tables(p, w)))
    return acc.to_bytes(len(raw) // w, "little").translate(
        _lane_tables(p, 1)[0])


def kronecker_dot(terms, n, ring):
    """The first n coefficients of sum x^s (sum a_i x^i)(sum b_j x^j) over
    the terms (s, a, b), s >= 0, over F_p[t] or over a quotient A/(m) of it.

    a and b are sequences of elements of ``ring`` (``packed`` true: F_p[t]
    or A/(m) with p prime); an element of A/(m) holds the coefficients of
    its reduced representative (t-length at most deg m).  Each operand is
    packed into one integer: x-row i, t-slot j sits in slot i*S + j of w
    bytes.  All terms share one layout, S = max da + max db - 1 slots per
    row, with each pair's shorter t-length da on the a side.  A slot of
    one product sums at most min(len) * da terms below p^2, and w (1, 2, 4
    or 8 bytes) holds the largest such bound, so one bigint product
    carries nothing from slot to slot.  The operands hold fewer than 2^40
    coefficients, so the slot sum stays below 2^54 and w never exceeds 8.

    Products are shifted by s rows and summed as integers.  w is sized from
    the widest single product, not from the whole sum: when the running
    slot bound would pass 2^(8w) - 1 the sum is flushed (reduced mod p by
    ``_reduce_slots`` and widened back to w bytes per slot), so a flushed
    slot holds less than p, which the sizing of a sum of several terms
    leaves room for.  Kronecker substitution is linear (Harvey, arXiv:
    0712.4046), so the sum is read back once.

    Read-back: the bytes of the n rows asked for are reduced mod p all at
    once (``_reduce_slots``: byte translates, no call per slot while
    w (p - 1) < 256), and each row is a slice of the reduced bytes.  Over
    A/(m) a row of t-length above deg m is then reduced mod m on its
    integers (``_divmod_ints`` with the ring's ``fold``, computed once per
    ring) before any element is built.  Reduction is A-linear, so this
    equals the sum of the reduced products, and the canonical
    representative (degree < deg m) is the schoolbook one.  Over A/(t^k)
    that remainder is the low slice of the row.  The list stops after the
    last row any term reaches; rows that are zero after reduction share
    ``ring.zero``.
    """
    field = ring.base_field
    p = field.p
    square = (p - 1) ** 2
    items = []
    da = db = wide = rows = 0
    for s, a, b in terms:
        if s >= n:
            continue
        a, b = a[:n - s], b[:n - s]
        if not a or not b:
            continue
        ta = max(len(c.coeffs) for c in a)
        tb = max(len(c.coeffs) for c in b)
        if ta > tb:
            a, b, ta, tb = b, a, tb, ta
        if not ta:
            continue
        la, lb = len(a), len(b)
        bound = (la if la < lb else lb) * ta * square
        items.append((s, a, b, bound))
        # running maxima, compared inline: this loop runs once per product
        if ta > da:
            da = ta
        if tb > db:
            db = tb
        if bound > wide:
            wide = bound
        if s + la + lb - 1 > rows:
            rows = s + la + lb - 1
    if not items:
        return []
    S = da + db - 1
    if rows > n:
        rows = n
    if len(items) > 1:
        wide += p - 1  # room for a flushed slot
    w = 1
    while wide >> (8 * w):
        w *= 2
    code = _SLOT_TYPES[w]
    nbytes = rows * S * w
    mask = (1 << (8 * nbytes)) - 1

    def pack(polys):
        buf = array(code, bytes(w * S * len(polys)))
        for i, c in enumerate(polys):
            if c.coeffs:
                buf[i * S:i * S + len(c.coeffs)] = array(
                    code, [x.idx for x in c.coeffs])
        return int.from_bytes(buf, sys.byteorder)

    limit = 1 << (8 * w)
    acc = None
    for s, a, b, bound in items:
        prod = pack(a) * pack(b)
        if s:
            prod <<= 8 * w * S * s
        if acc is None:
            acc, held = prod, bound
            continue
        if held + bound >= limit:  # flush: reduce mod p, widen back to w
            reduced = _reduce_slots((acc & mask).to_bytes(
                nbytes, sys.byteorder), p, w)
            if w > 1:
                low = 0 if sys.byteorder == "little" else w - 1
                widened = bytearray(nbytes)
                widened[low::w] = reduced
                reduced = widened
            acc, held = int.from_bytes(reduced, sys.byteorder), p - 1
        acc += prod
        held += bound
    reduced = _reduce_slots((acc & mask).to_bytes(nbytes, sys.byteorder),
                            p, w)
    del acc, prod  # freed before the rows are built
    modulus = getattr(ring, "modulus", None)
    if modulus is None:
        cls, owner = Poly, field
    else:
        cls, owner = AResidue, ring
        dm = modulus.degree
        fold = ring.fold
    els = field._els
    zero = ring.zero
    out = []
    width = min(S, dm) if modulus is not None and not fold else S
    for i in range(rows):
        row = reduced[i * S:i * S + width]
        if modulus is not None and width > dm:
            vals = list(row)
            _divmod_ints(vals, dm, fold, p)
            row = bytes(vals[:dm])
        row = row.rstrip(b"\0")
        if not row:
            out.append(zero)
            continue
        out.append(cls(owner, tuple(map(els.__getitem__, row)),
                       normalize=False))
    return out


def _fold(m):
    """[(j, -m_j mod p)] over the nonzero terms below the top of the monic
    associate of m, a nonzero polynomial over F_p with p prime."""
    p = m.ring.p
    inv = pow(m.leading().idx, -1, p)
    return [(j, -c.idx * inv % p) for j, c in enumerate(m.coeffs[:-1]) if c]


def _elems(field, vals):
    """The elements of the prime field ``field`` at the ints vals, each in
    [0, p), as a tuple with trailing zeros dropped."""
    return tuple(map(field._els.__getitem__, bytes(vals).rstrip(b"\0")))


def _mul_ints(a, b, out=None):
    """The integer convolution of two nonempty int lists, low degree first,
    unreduced: out[i + j] gains a_i b_j.  Added into ``out`` when given (of
    length at least len(a) + len(b) - 1), else into a new list of zeros."""
    if out is None:
        out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _divmod_ints(vals, dm, fold, p):
    """Divide sum vals[i] t^i by a monic m of degree dm over F_p, in place.

    vals holds ints >= 0 of any size, low degree first, and ``fold`` is
    ``_fold(m)``.  Eliminating from the top down leaves the remainder in
    vals[:dm] and the quotient in vals[dm:], every entry reduced to
    [0, p).  For m = t^dm (empty fold) nothing moves and nothing is
    reduced: the remainder is the low slice, as given, so a caller with
    entries beyond [0, p) reduces it itself.
    """
    if not fold:
        return
    for k in range(len(vals) - 1, dm - 1, -1):
        c = vals[k] % p
        vals[k] = c
        if c:
            s = k - dm
            for j, f in fold:
                vals[s + j] += c * f
    for i in range(min(dm, len(vals))):
        vals[i] %= p


class RingElement:
    """Powers, the Frobenius and reflected subtraction, defined once on a
    subclass's ``_one()`` (the value of ``x ** 0``), ``inv``, ``pth_power(k)``
    (the p^k-th power), ``__neg__`` and ``__add__``."""

    __slots__ = ()

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** -n
        if n == 0:
            return self._one()
        return power(self, n)

    def frob(self, k=1):
        """The q^k-th power, q = p^e the order of the base field."""
        return self.pth_power(self.ring.base_field.e * k)

    def __rsub__(self, other):
        return (-self) + other


class FqElem(RingElement):
    """Element of a small finite field, interned and table driven.  Its
    ``frob`` is the identity: pth_power(e k) runs no table step."""

    __slots__ = ("ring", "idx")

    def __init__(self, ring, idx):
        self.ring = ring
        self.idx = idx

    def __add__(self, other):
        if isinstance(other, FqElem) and other.ring is self.ring:
            return self.ring._els[self.ring._add[self.idx][other.idx]]
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self.ring._els[self.ring._neg[self.idx]]

    def __sub__(self, other):
        if isinstance(other, FqElem) and other.ring is self.ring:
            ring = self.ring
            return ring._els[ring._add[self.idx][ring._neg[other.idx]]]
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, FqElem) and other.ring is self.ring:
            return self.ring._els[self.ring._mul[self.idx][other.idx]]
        return NotImplemented

    __rmul__ = __mul__

    def _one(self):
        return self.ring.one

    def inv(self):
        j = self.ring._inv[self.idx]
        if j is None:
            raise DomainError("division by zero in F_q")
        return self.ring._els[j]

    def pth_power(self, k=1):
        i = self.idx
        for _ in range(k % self.ring.e if self.ring.e > 1 else 0):
            i = self.ring._frobp[i]
        return self.ring._els[i]

    def __bool__(self):
        return self.idx != 0

    def __eq__(self, other):
        return isinstance(other, FqElem) and other.ring is self.ring \
            and other.idx == self.idx

    def __hash__(self):
        return hash((id(self.ring), self.idx))

    def __repr__(self):
        return self.ring.to_str(self)


class Fq:
    """The finite field F_q = F_p[u]/(m(u)) with q = p^e.

    All q elements are interned at construction and arithmetic runs off
    precomputed tables, so elements are cheap enough to use as coefficients
    in the series kernels.  Intended for desk-scale q (q <= 128).
    """

    def __init__(self, p, e=1, modulus=None):
        if not _is_prime(p):
            raise DomainError("p must be prime, got %r" % (p,))
        if e < 1:
            raise DomainError("extension degree must be positive")
        q = p ** e
        if q > _MAX_TABLE_Q:
            raise DomainError("field order %d too large for table arithmetic" % q)
        if modulus is None:
            modulus = (0, 1) if e == 1 else self._find_modulus(p, e)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise DomainError("modulus must be monic of degree %d" % e)
        m = None
        if e > 1:
            prime = fq(p)
            m = Poly(prime, (prime.from_int(c) for c in modulus))
            if not is_irreducible(m):
                raise DomainError("modulus is reducible over F_p")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        self.theta = None
        self._build_tables(m)

    @staticmethod
    def _find_modulus(p, e):
        """The first irreducible in the fixed order of monic_polys(e)."""
        return next(tuple(c.idx for c in m.coeffs)
                    for m in polyring(fq(p)).monic_polys(e) if is_irreducible(m))

    def _vec(self, idx):
        out = []
        for _ in range(self.e):
            out.append(idx % self.p)
            idx //= self.p
        return tuple(out)

    def _idx(self, vec):
        return horner(tuple(c % self.p for c in vec), self.p, 0)

    def _build_tables(self, m):
        """Tables of F_p[u]/(m); m is the modulus as a Poly over F_p, or None
        for the prime field itself."""
        p, e, q = self.p, self.e, self.q
        vecs = [self._vec(i) for i in range(q)]
        self._add = [[self._idx(tuple((a + b) % p for a, b in zip(vecs[i], vecs[j])))
                      for j in range(q)] for i in range(q)]
        self._neg = [self._idx(tuple((-a) % p for a in vecs[i])) for i in range(q)]
        if m is None:
            mul = [[(i * j) % p for j in range(q)] for i in range(q)]
        else:
            polys = [Poly(m.ring, (m.ring.from_int(c) for c in v)) for v in vecs]
            mul = [[self._idx([c.idx for c in ((a * b) % m).coeffs])
                    for b in polys] for a in polys]
        self._mul = mul
        inv = [None] * q
        for i in range(1, q):
            for j in range(1, q):
                if mul[i][j] == 1:
                    inv[i] = j
                    break
        self._inv = inv
        self._els = tuple(FqElem(self, i) for i in range(q))
        frobp = []
        for i in range(q):
            acc = 1
            for _ in range(p):
                acc = mul[acc][i]
            frobp.append(acc)
        self._frobp = frobp
        self.zero = self._els[0]
        self.one = self._els[1]
        self.gen = self._els[self._idx((0, 1) + (0,) * (e - 2))] if e > 1 else self.one

    # -- handle protocol -------------------------------------------------

    def from_int(self, n):
        return self._els[n % self.p]

    def coerce(self, x):
        if isinstance(x, FqElem) and x.ring is self:
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise DomainError("cannot coerce %r into F_%d" % (x, self.q))

    def elements(self):
        return self._els

    @property
    def order(self):
        return self.q

    @property
    def base_field(self):
        return self

    def to_str(self, a):
        if self.e == 1:
            return str(a.idx)
        vec = self._vec(a.idx)
        terms = []
        for k in range(self.e - 1, -1, -1):
            c = vec[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = "u" if k == 1 else "u^%d" % k
                terms.append(var if c == 1 else "%d*%s" % (c, var))
        return "+".join(terms) if terms else "0"

    def parse(self, s):
        """Element from an integer (read mod p) or, for q = p^e, a u-string
        such as '2*u^2+u+1'; malformed input raises DomainError."""
        vec = [0] * self.e
        for sign, coef, k in _terms(s, "u", r"\d+"):
            if k >= self.e:
                raise DomainError("u^%d is not reduced in F_%d" % (k, self.q))
            vec[k] += sign * int(coef or 1)
        return self._els[self._idx(vec)]

    def __repr__(self):
        return "F_%d" % self.q


_FQ_CACHE = {}


def fq(q, modulus=None):
    """Memoized field constructor; q may be any prime power <= 128."""
    key = (q, modulus)
    if key in _FQ_CACHE:
        return _FQ_CACHE[key]
    if q > _MAX_TABLE_Q:
        # before the trial division, whose cost grows with q
        raise DomainError("field order %d too large for table arithmetic" % q)
    # the least divisor p >= 2 of q is prime; q is a prime power iff p^e = q
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    e = 0
    while p is not None and q % p ** (e + 1) == 0:
        e += 1
    if p is None or p ** e != q:
        raise DomainError("%d is not a prime power" % q)
    field = Fq(p, e, modulus)
    _FQ_CACHE[key] = field
    return field


def _coeff_field(coeffs):
    """The field of a coefficient tuple whose entries are ``FqElem``, else
    None: over F_q the coefficientwise sums of ``DensePoly`` index the
    field's tables inline instead of calling an element method per entry."""
    if coeffs and type(coeffs[0]) is FqElem:
        return coeffs[0].ring
    return None


class DensePoly(RingElement):
    """Coefficients over a ring handle, low degree first, no trailing zeros.

    The core of ``Poly``, ``tau.TauPoly`` and ``AResidue``; for an
    ``AResidue`` the handle is the quotient ring A/(m) and the coefficients
    are those of the reduced representative, over F_q.  Sums, negation,
    equality, hashing and operand coercion act coefficientwise and keep the
    operand's own type, so no two of these classes mix or compare equal.
    Powers and the Frobenius come from ``RingElement``; each subclass
    supplies its product, ``pth_power(k)`` and, where units exist, ``inv``.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs, normalize=True):
        if normalize:
            coeffs = list(coeffs)
            while coeffs and not coeffs[-1]:
                coeffs.pop()
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        field = _coeff_field(a)
        if field is not None:
            add, els = field._add, field._els
            out = [els[add[x.idx][y.idx]] for x, y in zip(a, b)]
            out += a[len(b):]
        else:
            out = list(a)
            for i, c in enumerate(b):
                out[i] = out[i] + c
        return type(self)(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        a = self.coeffs
        field = _coeff_field(a)
        if field is not None:
            neg, els = field._neg, field._els
            out = tuple([els[neg[c.idx]] for c in a])
        else:
            out = tuple(-c for c in a)
        return type(self)(self.ring, out, normalize=False)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        field = _coeff_field(a or b)
        if field is not None:
            add, neg, els = field._add, field._neg, field._els
            out = [els[add[x.idx][neg[y.idx]]] for x, y in zip(a, b)]
            out += a[len(b):] if len(a) > len(b) else \
                [els[neg[c.idx]] for c in b[len(a):]]
        else:
            out = [x - y for x, y in zip(a, b)]
            out += a[len(b):] if len(a) > len(b) else [-c for c in b[len(a):]]
        return type(self)(self.ring, out)

    def _coerce(self, other):
        """other over this ring, a scalar as a constant (an element of A is
        a scalar of a polynomial over A), or NotImplemented."""
        cls = type(self)
        if type(other) is cls and other.ring is self.ring:
            return other
        try:
            c = self.ring.coerce(other)
        except (DomainError, TypeError):
            return NotImplemented
        if type(c) is cls and c.ring is self.ring:
            return c
        return cls(self.ring, (c,))

    def _one(self):
        return self._coerce(1)

    def __eq__(self, other):
        if type(other) is type(self):
            return other.ring is self.ring and other.coeffs == self.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def map_coeffs(self, func, ring):
        return type(self)(ring, tuple(func(c) for c in self.coeffs))

    def inv(self):
        raise DomainError("%s has no inverse" % type(self).__name__)


def _schoolbook(a, b, zero):
    """The product of two nonempty coefficient sequences, low degree first,
    as a list that may end in zeros.  Over a prime field it is the integer
    convolution of the indices (``_mul_ints``), reduced once mod p."""
    if type(zero) is FqElem and zero.ring.e == 1:
        p, els = zero.ring.p, zero.ring._els
        return [els[v % p] for v in _mul_ints([c.idx for c in a],
                                               [c.idx for c in b])]
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return out


class Poly(DensePoly):
    """Dense univariate polynomial over a ring handle.

    Used both for elements of A = F_q[t] (coefficients in Fq) and for
    polynomials in an outer variable with coefficients in A or a quotient
    ring.  The variable commutes with the coefficients.
    """

    __slots__ = ()

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(self.ring, (), normalize=False)
        return Poly(self.ring, _schoolbook(a, b, self.ring.zero))

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, Poly) or other.ring is not self.ring:
            raise DomainError("mismatched rings in division")
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(self.ring, (), normalize=False), self
        field, db = self.ring, other.degree
        if type(field) is Fq and field.e == 1:
            # on the indices, by the monic associate of other
            p = field.p
            vals = [c.idx for c in rem]
            _divmod_ints(vals, db, _fold(other), p)
            inv = pow(other.coeffs[-1].idx, -1, p)
            return (Poly(field, _elems(field, [v * inv % p for v in vals[db:]]),
                         normalize=False),
                    Poly(field, _elems(field, vals[:db]), normalize=False))
        lead = other.leading()
        inv_lead = lead.inv() if lead != self.ring.one else None
        quot = [self.ring.zero] * (dq + 1)
        while len(rem) - 1 >= db:
            top = rem[-1]
            if not top:
                rem.pop()
                continue
            c = top * inv_lead if inv_lead is not None else top
            shift = len(rem) - 1 - db
            quot[shift] = c
            for i, bc in enumerate(other.coeffs):
                if bc:
                    rem[shift + i] = rem[shift + i] - c * bc
            rem.pop()
        return Poly(self.ring, quot), Poly(self.ring, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise DomainError("division is not exact")
        return q

    def inv(self):
        """Inverse of a unit; in F_q[t] the units are the nonzero constants."""
        if self.degree != 0:
            raise DomainError("non-constant polynomial is not a unit")
        return Poly(self.ring, (self.coeffs[0].inv(),), normalize=False)

    def pth_power(self, k=1):
        """Freshman's-dream power: (sum a_i t^i)^(p^k) = sum a_i^(p^k) t^(i p^k)."""
        if k == 0 or not self.coeffs:
            return self
        step = self.ring.p ** k
        zero = self.ring.zero
        out = [zero] * ((len(self.coeffs) - 1) * step + 1)
        if type(self.ring) is Fq and self.ring.e == 1:  # c^p = c in F_p
            out[::step] = self.coeffs
        else:
            out[::step] = [c.pth_power(k) for c in self.coeffs]
        return Poly(self.ring, out, normalize=False)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a * Poly(a.ring, (a.leading().inv(),))

    def pow_mod(self, n, modulus):
        if n == 0:
            return Poly(self.ring, (self.ring.one,), normalize=False)
        return power(self % modulus, n, lambda a, b: (a * b) % modulus)

    def __repr__(self):
        ring = self.ring
        if isinstance(ring, Fq):
            return poly_to_tstring(self)
        return "Poly(%r)" % (self.coeffs,)


class PolyRing:
    """Handle for F_q[t] (or an outer polynomial ring over another handle)."""

    def __init__(self, base, var="t"):
        self.base = base
        self.var = var
        self.zero = Poly(base, (), normalize=False)
        self.one = Poly(base, (base.one,), normalize=False)
        self.gen = Poly(base, (base.zero, base.one), normalize=False)
        self.p = base.p
        self.q = base.q
        # F_p[t] with p prime: series products over it are kronecker_dot's
        self.packed = isinstance(base, Fq) and base.e == 1

    @property
    def base_field(self):
        return self.base.base_field

    @property
    def theta(self):
        # The structure map A -> A sends t to itself.
        return self.gen

    def from_int(self, n):
        c = self.base.from_int(n)
        return Poly(self.base, (c,))

    def coerce(self, x):
        if isinstance(x, Poly) and x.ring is self.base:
            return x
        c = self.base.coerce(x)
        return Poly(self.base, (c,))

    def structure(self, a):
        if not (isinstance(a, Poly) and a.ring is self.base):
            raise DomainError("expected an element of %r" % self)
        return a

    def poly(self, coeffs):
        return Poly(self.base, tuple(self.base.coerce(c) for c in coeffs))

    def monic_polys(self, degree):
        """All monic degree-d polynomials, in a fixed deterministic order."""
        base = self.base
        for coeffs in _coefficient_tuples(base, degree):
            yield Poly(base, coeffs + (base.one,), normalize=False)

    def monic_irreducibles(self, max_degree):
        for d in range(1, max_degree + 1):
            for f in self.monic_polys(d):
                if is_irreducible(f):
                    yield f

    def __repr__(self):
        return "%r[%s]" % (self.base, self.var)


def _coefficient_tuples(field, n):
    """All n-tuples over the finite field ``field``, lowest entry first, in
    the order of k = 0, 1, ..., q^n - 1 written in base q (entry i is the
    digit of q^i).  Searches that take the first hit (``_find_modulus``,
    ``extension_with_embedding``, ``find_root``) depend on this order."""
    for digits in itertools.product(field.elements(), repeat=n):
        yield digits[::-1]


_POLYRING_CACHE = {}


def polyring(field, var="t"):
    key = (id(field), var)
    if key not in _POLYRING_CACHE:
        _POLYRING_CACHE[key] = PolyRing(field, var)
    return _POLYRING_CACHE[key]


@functools.cache
def is_irreducible(f):
    """Irreducibility over F_q: no factor of degree <= deg(f)/2, detected via
    gcd(f, t^(q^i) - t).  Kept per polynomial, since a command tests its wp
    when parsing and again in each engine; a kept key holds its ring, so the
    ring id in its hash is not reused.  A DomainError is not kept."""
    if not isinstance(f.ring, Fq):
        raise DomainError("irreducibility test expects F_q coefficients")
    if not f.is_monic():
        raise DomainError("irreducibility test expects a monic polynomial")
    n = f.degree
    if n < 1:
        raise DomainError("irreducibility test expects positive degree")
    if n == 1:
        return True
    ring = polyring(f.ring)
    t = ring.gen
    power = t
    for _ in range(1, n // 2 + 1):
        power = power.pow_mod(f.ring.q, f)
        g = f.gcd(power - t)
        if g.degree != 0:
            return False
    return True


class AResidue(DensePoly):
    """Element of A/(m): the coefficients over F_q of its reduced
    representative (degree < deg m), with the quotient-ring handle as
    ``ring``.  Sums, negation, equality, hashing and coercion are
    ``DensePoly``'s."""

    __slots__ = ()

    @property
    def value(self):
        """The reduced representative as an element of A."""
        return Poly(self.ring.field, self.coeffs, normalize=False)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        ring = self.ring
        if not a or not b:
            return ring.zero
        if ring.packed:
            return ring._from_ints(_mul_ints([c.idx for c in a],
                                             [c.idx for c in b]))
        field = ring.field
        return ring._residue(Poly(field, _schoolbook(a, b, field.zero)))

    __rmul__ = __mul__

    def inv(self):
        g, s = _half_xgcd(self.value, self.ring.modulus)
        if g.degree != 0:
            raise DomainError("element is not invertible in %r" % self.ring)
        return self.ring._residue(s * g.leading().inv())

    def pth_power(self, k=1):
        """x^(p^k) by substitution: sum_i x_i^(p^k) (t^(p^k))^i mod m.

        Raising to p^k is a ring endomorphism in characteristic p, so the
        image of x = sum x_i t^i is the sum of the reduced images
        t^(i p^k) mod m (``ResidueRing._pth_images``) scaled by the x_i^(p^k).
        Once the table is built this costs O(deg m^2) field operations for
        every k, instead of reducing a representative of degree about
        (deg m - 1) p^k.
        """
        if k == 0 or not self.coeffs:
            return self
        ring = self.ring
        if ring.packed:  # x_i^(p^k) = x_i over F_p
            acc = [0] * ring.degree
            for img, c in zip(ring._pth_images(k), self.coeffs):
                if c:
                    x = c.idx
                    for j, y in enumerate(img.coeffs):
                        acc[j] += x * y.idx
            return ring._from_ints(acc)
        field = ring.field
        acc = [field.zero] * ring.degree
        for img, c in zip(ring._pth_images(k), self.coeffs):
            if c:
                c = c.pth_power(k)
                for j, x in enumerate(img.coeffs):
                    acc[j] = acc[j] + x * c
        return AResidue(ring, acc)

    def __repr__(self):
        return "(%s mod %s)" % (poly_to_tstring(self.value),
                                poly_to_tstring(self.ring.modulus))


def _half_xgcd(a, m):
    """(g, s) with s*a = g mod m, by the extended Euclidean algorithm."""
    ring = a.ring
    one = Poly(ring, (ring.one,), normalize=False)
    zero = Poly(ring, (), normalize=False)
    r0, r1 = a % m, m
    s0, s1 = one, zero
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    return r0, s0


class ResidueRing:
    """A/(modulus), with lift and reduce maps.

    When the modulus is irreducible this is the field F_(q^d); ``theta`` is
    the class of t, which is then a root of the modulus.  An extension field
    built around a root of some other prime (``extension_with_embedding``)
    resets theta to that root, and ``structure`` evaluates A at it.
    """

    def __init__(self, modulus):
        if not isinstance(modulus.ring, Fq):
            raise DomainError("residue ring expects a modulus over F_q")
        if not modulus.is_monic() or modulus.degree < 1:
            raise DomainError("modulus must be monic and nonconstant")
        self.field = modulus.ring
        self.modulus = modulus
        self.p = self.field.p
        self.q = self.field.q
        self.zero = AResidue(self, (), normalize=False)
        self.one = AResidue(self, (self.field.one,), normalize=False)
        self.degree = modulus.degree
        self.order = self.q ** self.degree
        # over F_p, p prime: series products over A/(m) are kronecker_dot's,
        # which reduces its rows with this ring's fold of the modulus
        self.packed = self.field.e == 1
        self.fold = _fold(modulus) if self.packed else None
        self.theta = self._residue(polyring(self.field).gen)
        self._pth = {}

    @property
    def base_field(self):
        return self.field

    def _pth_images(self, k):
        """The reduced t^(i p^k) mod m for 0 <= i < deg m, memoised by k.

        Built from T = t^(p^k) mod m by ``pow_mod`` and its successive
        powers mod m.  The class of t is used, not ``theta``: an extension
        field's theta is the image of another ring's t.
        """
        images = self._pth.get(k)
        if images is None:
            m = self.modulus
            T = polyring(self.field).gen.pow_mod(self.p ** k, m)
            images = [self.one.value]
            for _ in range(1, self.degree):
                images.append((images[-1] * T) % m)
            self._pth[k] = images
        return images

    def _residue(self, a):
        """The class of a, an element of A over this ring's field."""
        return AResidue(self, (a % self.modulus).coeffs, normalize=False)

    def _from_ints(self, vals):
        """The class of sum vals[i] t^i over a packed ring, vals a list of
        ints >= 0 of any size (consumed): reduced once mod m and mod p by
        ``_divmod_ints`` with the ring's fold, then built as an element."""
        dm, p = self.degree, self.p
        _divmod_ints(vals, dm, self.fold, p)
        del vals[dm:]
        if not self.fold:  # m = c t^dm: _divmod_ints reduced nothing
            vals = [v % p for v in vals]
        row = _elems(self.field, vals)
        return AResidue(self, row, normalize=False) if row else self.zero

    def dot(self, u, v):
        """sum u_i v_i for sequences u and v of this ring's elements.  Over
        a packed ring the products are summed as one integer list
        (``_mul_ints``), reduced once by ``_from_ints``; otherwise an index
        is not additive, and the element products are summed."""
        if not self.packed:
            return sum(map(operator.mul, u, v), self.zero)
        acc = [0] * (2 * self.degree - 1)
        for x, y in zip(u, v):
            if x.coeffs and y.coeffs:
                _mul_ints([c.idx for c in x.coeffs], [c.idx for c in y.coeffs],
                          acc)
        return self._from_ints(acc)

    def reduce(self, a):
        if not (isinstance(a, Poly) and a.ring is self.field):
            raise DomainError("reduce expects an element of A")
        return self._residue(a)

    def lift(self, r):
        if not (isinstance(r, AResidue) and r.ring is self):
            raise DomainError("lift expects an element of this ring")
        return r.value

    def structure(self, a):
        """The A-algebra map a -> a(theta)."""
        if not (isinstance(a, Poly) and a.ring is self.field):
            raise DomainError("structure map expects an element of A")
        return horner(a.coeffs, self.theta, self.zero)

    def from_int(self, n):
        return AResidue(self, (self.field.from_int(n),))

    def coerce(self, x):
        if isinstance(x, AResidue) and x.ring is self:
            return x
        if isinstance(x, FqElem) and x.ring is self.field:
            return AResidue(self, (x,))
        if isinstance(x, int):
            return self.from_int(x)
        raise DomainError("cannot coerce %r into %r" % (x, self))

    def elements(self):
        for coeffs in _coefficient_tuples(self.field, self.degree):
            yield AResidue(self, coeffs)

    def element_key(self, r):
        """Deterministic sort key for elements (coefficient indices, low first)."""
        coeffs = r.coeffs
        return tuple(c.idx for c in coeffs) + (0,) * (self.degree - len(coeffs))

    def __repr__(self):
        return "A/(%s)" % poly_to_tstring(self.modulus)


def find_root(f, ring):
    """Smallest root of an A-polynomial in a finite residue ring, or None."""
    for cand in ring.elements():
        if not horner(f.coeffs, cand, ring.zero):
            return cand
    return None


def residue_field_with_theta(wp, m=1):
    """The field F_(q^(d*m)) together with a distinguished root theta of wp.

    For m = 1 this is A/(wp) itself.  For m > 1 it is the degree-m extension
    of A/(wp) built by ``extension_with_embedding``, a single-level quotient
    A/(P) with P irreducible of degree d*m, and theta is the smallest root of
    wp in it.
    """
    if not is_irreducible(wp):
        raise DomainError("characteristic polynomial must be irreducible")
    return extension_with_embedding(ResidueRing(wp), m)[0]


def extension_with_embedding(k, m):
    """Degree-m extension K of the residue field k plus the embedding map.

    The embedding sends the class of t in k to the smallest root of k's
    modulus in K; theta is carried along so the A-algebra structures agree.
    """
    if m < 1:
        raise DomainError("extension degree must be positive")
    if m == 1:
        return k, lambda r: r
    ring = polyring(k.field)
    target = k.degree * m
    _check_field_order(ring.q, target)
    # irreducibles of every degree exist, and K holds every root of k.modulus
    K = ResidueRing(next(c for c in ring.monic_polys(target)
                         if is_irreducible(c)))
    root = find_root(k.modulus, K)
    if root is None:
        raise InternalConsistencyError("%r has no root in %r" % (k.modulus, K))

    def embed(r):
        return horner(r.coeffs, root, K.zero)

    K.theta = embed(k.theta)
    return K, embed


def _check_field_order(q, degree):
    if q ** degree > _MAX_INPUT_SIZE:
        raise DomainError("extension field order %d^%d exceeds the input bound "
                          "2^16" % (q, degree))


def min_wp_valuation(pairs, wp, cap):
    """min(cap, least wp-adic valuation of a - b) over the pairs (a, b).

    a and b are the coefficient tuples (``coeffs``) of elements of A, or
    of reduced representatives in A/(m), over the field of wp; () is zero.
    Equal pairs are skipped, and each difference is valued only up to the
    running minimum.  Over F_p, p prime, a difference is a list of
    integers mod p, divided by the monic associate of wp one power at a
    time (``_divmod_ints`` with ``_fold(wp)``, computed once per call);
    over F_q with q = p^e, e > 1, an index is not additive, and it is a
    ``Poly`` divided by wp.  A nonempty tuple over another field raises
    DomainError.
    """
    field = wp.ring
    prime = field.e == 1
    if prime:
        p, dm, fold, zero = field.p, wp.degree, _fold(wp), field.zero
    v = cap
    for a, b in pairs:
        if a == b:
            continue
        if a and a[0].ring is not field or b and b[0].ring is not field:
            raise DomainError("mismatched rings in division")
        w = 0
        if prime:
            if b:
                vals = [(x.idx - y.idx) % p for x, y in
                        itertools.zip_longest(a, b, fillvalue=zero)]
            else:
                vals = [x.idx for x in a]
            while w < v:
                _divmod_ints(vals, dm, fold, p)
                if any(vals[:dm]):
                    break
                del vals[:dm]
                w += 1
        else:
            r = Poly(field, a) - Poly(field, b)
            while w < v:
                r, rem = divmod(r, wp)
                if rem:
                    break
                w += 1
        v = w
        if v == 0:
            return 0
    return v


def wp_valuation(a, wp, cap=64):
    """wp-adic valuation of a in A, capped (cap for the zero polynomial):
    ``min_wp_valuation`` of the one pair (a, 0), so over F_p it runs on
    the integer coefficients and never divides a ``Poly``."""
    return min_wp_valuation(((a.coeffs, ()),), wp, cap)


# -- text encodings ------------------------------------------------------

def poly_to_tstring(a, var="t"):
    """Human-readable t-polynomial form, e.g. 't^2+t+1'."""
    if a.is_zero():
        return "0"
    field = a.ring
    terms = []
    for k in range(len(a.coeffs) - 1, -1, -1):
        c = a.coeffs[k]
        if not c:
            continue
        cs = field.to_str(c)
        if k == 0:
            terms.append(cs if field.e == 1 else "(%s)" % cs)
        else:
            v = var if k == 1 else "%s^%d" % (var, k)
            if cs == "1":
                terms.append(v)
            elif field.e == 1:
                terms.append("%s*%s" % (cs, v))
            else:
                terms.append("(%s)*%s" % (cs, v))
    return "+".join(terms)


def poly_to_bracket(a):
    """Canonical coefficient-list encoding, low degree first: '[1,1,1]'."""
    return "[%s]" % ",".join(a.ring.to_str(c) for c in a.coeffs)


def _terms(s, var, coef):
    """The terms of a sum such as '2*t^3-t+1' in the variable var.

    Returns (sign, coefficient or None, exponent) triples; the coefficient
    matches the regex ``coef`` and a constant term has exponent 0.  Signs
    split terms only outside parentheses, so a parenthesised coefficient may
    hold a sum of its own.  Input that is not such a sum, in full, raises
    DomainError.
    """
    term = re.compile(r"\s*([+-]?)\s*(?:(%s)(?:\s*\*?\s*(%s)(?:\s*\^\s*(\d+))?)?"
                      r"|(%s)(?:\s*\^\s*(\d+))?)\s*" % (coef, var, var))
    out = []
    pos = 0
    while pos < len(s) or not out:
        m = term.match(s, pos)
        if m is None or (pos and not m.group(1)):
            raise DomainError("cannot parse %r as a polynomial in %s" % (s, var))
        sign, c, v1, k1, v2, k2 = m.groups()
        k = int(k1 or k2 or 1) if (v1 or v2) else 0
        out.append((-1 if sign == "-" else 1, c, k))
        pos = m.end()
    return out


def parse_apoly(ring, s):
    """Parse an element of A from bracket form '[c0,c1,...]' or a t-string.

    Bracket entries are field elements: integers, or u-strings when q is not
    prime.  A t-string is a sum of terms c, c*t and c*t^k whose coefficients
    are integers or parenthesised field elements, e.g. '2*t^2-t+1' or
    '(u)*t^2+t+(u+1)'.  Malformed input raises DomainError, and so does a
    polynomial with q^deg > 2^16 or a t-string term t^k with q^k > 2^16;
    the latter is caught before any list of length k is built.
    """
    field = ring.base if isinstance(ring, PolyRing) else ring
    max_degree = 0
    while field.q ** (max_degree + 1) <= _MAX_INPUT_SIZE:
        max_degree += 1
    s = s.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise DomainError("unterminated coefficient list: %r" % s)
        inner = s[1:-1].strip()
        if not inner:
            return Poly(field, ())
        out = Poly(field, tuple(field.parse(part) for part in inner.split(",")))
        _check_degree(out.degree, max_degree)
        return out
    coeffs = {}
    for sign, coef, k in _terms(s, "t", r"\d+|\([^()]*\)"):
        _check_degree(k, max_degree)
        if coef is None:
            c = field.one
        elif coef.startswith("("):
            c = field.parse(coef[1:-1])
        else:
            c = field.from_int(int(coef))
        coeffs[k] = coeffs.get(k, field.zero) + (c if sign > 0 else -c)
    out = [field.zero] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Poly(field, tuple(out))


def _check_degree(k, max_degree):
    if k > max_degree:
        raise DomainError("t-degree %d exceeds the input bound %d (q^deg <= 2^16)"
                          % (k, max_degree))
