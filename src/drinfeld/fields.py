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
* Over a prime field F_p, ``Poly`` and ``AResidue`` store the indices of
  their coefficients as one bytes row (``row``: low degree first, no
  trailing zero), and ``coeffs``, the public tuple of ``FqElem``, is built
  from it on first read and kept.  Every integer path reads and writes
  that row: sums, differences and negations add rows as little-endian
  ints (2 (p - 1) < 256, so no byte carries) and reduce with one byte
  translate; products and sums of products (``Poly`` and ``AResidue``
  ``*``, ``AResidue.pth_power``, ``ResidueRing.dot``, ``kronecker_dot``)
  are Kronecker substitutions of the rows, read back once, with slots
  sized by the operands' nonzero coefficients in ``kronecker_dot``; a
  series over A/(m) is one block of rows (``ResidueRing.pack_block``),
  multiplied by ``block_dot`` and valued by ``block_wp_valuation``;
  division (``Poly.__divmod__``) eliminates on the row's ints
  (``_divmod_ints``), and the wp-adic valuation of differences
  (``min_wp_valuation``) divides a block of rows by wp column by column
  (``_column_valuation``).  No element is built for an intermediate or a
  result.  Over F_q with q = p^e, e > 1, an index is not additive:
  ``row`` is the tuple ``coeffs`` itself, the same operations run on the
  field elements, and sums index the field's addition and negation tables
  inline.  No other module reads the rows or the indices.  Timings
  before and after rows: ``BENCH_26.json``; of the slot rule and the
  column valuation: ``BENCH_27.json``; of series blocks: ``BENCH_28.json``.
* A residue field F_(q^d) = A/(wp), or an extension of it, built by
  ``residue_field_with_theta`` or ``extension_with_embedding`` (memoised
  per process, and the only ``ResidueRing`` constructors that prove
  irreducibility) is marked as a field.  If its order is at most ``_MAX_LOG_ORDER`` it gets
  discrete-log tables from a primitive element g on its first
  multiplicative operation (Zech/discrete-log tables, Lidl & Niederreiter,
  *Finite Fields*, ch. 9): the log of each nonzero row and the interned
  powers g^i.  ``AResidue`` ``*``, ``inv`` and ``pth_power`` (so ``frob``)
  are then one or two lookups, and ``ResidueRing.dot`` (so
  ``sheaves.mat_mul``) sums the looked-up product rows as integers and
  reads them back once.  Rows are bytes over F_p and ``FqElem`` tuples
  over F_(p^e); both are hashable, so one path serves every q.  Larger
  fields, views A/(wp^n) and rings built directly with ``ResidueRing``
  keep the general paths.  Timings and the cut-over sweep:
  ``BENCH_29.json``.
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

# A residue field of order at most this gets discrete-log tables
# (``ResidueRing._tables``), built on its first multiplicative operation:
# a lookup replaces each product, inverse and Frobenius.  A build costs
# 1-13 us an element, the search for a primitive element included, so a
# light command pays it whole: in the sweep across p = 2, 3, 5, 7 and
# q = 4, 8, 9, 16, 25, 27, 32 (BENCH_29.json) the slowest build at or
# below 2^11 took 4.4 ms (F_(7^3)), and from 2^11 to 2^12 15 ms (F_(5^5)).
# Larger fields keep the general paths.
_MAX_LOG_ORDER = 2 ** 11

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


def _prime_factors(n):
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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


_SLOT_TYPES = {2: "H", 4: "I", 8: "Q"}  # array codes of the wide slots


@functools.cache
def _scale_table(p, c):
    """The byte translate table v -> c v mod p over F_p, for every byte v;
    c = 1 reduces a byte mod p and c = p - 1 negates a reduced one."""
    return bytes(c * v % p for v in range(256))


@functools.cache
def _lane_tables(p, w):
    """For each byte of a w-byte little-endian slot the translate table
    v -> v 256^k mod p, with 256^k the byte's weight; kept per (p, w)."""
    return tuple(_scale_table(p, pow(256, k, p)) for k in range(w))


def _reduce_slots(raw, p, w):
    """The w-byte unsigned little-endian slots of raw, each reduced mod p,
    as bytes, one per slot.

    w = 1 is one translate through v -> v mod p.  For w > 1 byte lane k
    (``raw[k::w]``) is translated by v -> v 256^k mod p, its weight reduced;
    while w (p - 1) < 256 the lanes add as little-endian ints with no carry
    from byte to byte, and one more mod-p translate finishes.  Beyond that
    each slot is reduced on its own.
    """
    if w * (p - 1) >= 256:
        slots = array(_SLOT_TYPES[w], raw)
        if sys.byteorder == "big":
            slots.byteswap()
        return bytes([v % p for v in slots])
    if w == 1:
        return raw.translate(_scale_table(p, 1))
    acc = sum(int.from_bytes(raw[k::w].translate(table), "little")
              for k, table in enumerate(_lane_tables(p, w)))
    return acc.to_bytes(len(raw) // w, "little").translate(_scale_table(p, 1))


def _slot_width(bound):
    """The least w in 1, 2, 4, 8 with bound < 2^(8w)."""
    w = 1
    while bound >> (8 * w):
        w *= 2
    return w


def _packed(row, w):
    """row as one integer, each byte the low byte of its own w-byte
    little-endian slot."""
    if w > 1:
        buf = bytearray(len(row) * w)
        buf[::w] = row
        row = buf
    return int.from_bytes(row, "little")


def _dot_rows(pairs, p):
    """sum a b over the pairs (a, b) of rows over F_p, at least one pair,
    reduced mod p, as one row that may end in zeros: every product has one
    slot layout, and the integer products are summed and read back once."""
    bound = n = 0
    for a, b in pairs:
        bound += min(len(a), len(b))
        if len(a) + len(b) > n:
            n = len(a) + len(b)
    w = _slot_width(bound * (p - 1) ** 2)
    acc = sum(_packed(a, w) * _packed(b, w) for a, b in pairs)
    return _reduce_slots(acc.to_bytes((n - 1) * w, "little"), p, w)


def _nonzeros(rows):
    """The number of nonzero coefficients in the rows: one join and one
    count, and the joined copy is dropped on return."""
    joined = b"".join(rows)
    return len(joined) - joined.count(0)


def _add_rows(a, b, p):
    """a + b for rows over F_p, normalized: the rows add as little-endian
    ints with no carry, since 2 (p - 1) < 256, and one translate reduces
    every byte mod p."""
    total = int.from_bytes(a, "little") + int.from_bytes(b, "little")
    return total.to_bytes(max(len(a), len(b)), "little").translate(
        _scale_table(p, 1)).rstrip(b"\0")


def kronecker_dot(terms, n, ring):
    """The first n coefficients of sum x^s (sum a_i x^i)(sum b_j x^j) over
    the terms (s, a, b), s >= 0, over F_p[t], p prime (series over A/(m)
    are blocks, multiplied by ``block_dot``).

    a and b are sequences of elements of ``ring``, each a bytes row.  Each
    operand is packed into one integer: x-row i, t-slot j sits in slot
    i*S + j of w bytes, little-endian.  All terms share one layout,
    S = max da + max db - 1 slots per row, with each pair's shorter
    t-length da on the a side.  A slot of one product sums products
    a_(i,j) b_(i',j') below p^2, and it has at most
    min(min(len) * da, nnz(a), nnz(b)) of them, nnz being the number of
    nonzero coefficients (nonzero bytes) of an operand: the slot fixes
    i + i' and j + j' (j + j' < S, so slots do not overlap), so each of its
    products pairs a distinct coefficient of a with one of b, and only
    pairs of nonzero coefficients add anything.  w (1, 2, 4 or 8 bytes)
    holds the largest such bound, so one bigint product carries nothing
    from slot to slot.  Sparse operands thus get narrow slots, and a
    shorter integer to multiply, whatever their length.  The operands hold
    fewer than 2^40 coefficients, so the slot sum stays below 2^54 and w
    never exceeds 8.  For w = 1 a packed operand is its rows, joined.

    Products are shifted by s rows and summed as integers (``_sum_products``:
    w is sized from the widest single product, and the sum is flushed when
    its slot bound would overflow).  Kronecker substitution is linear
    (Harvey, arXiv:0712.4046), so the sum is read back once: the bytes of
    the n rows asked for are reduced mod p all at once (``_reduce_slots``:
    byte translates, no call per slot while w (p - 1) < 256), and each row
    is a slice of the reduced bytes.  The list stops after the last row
    any term reaches; rows that are zero share ``ring.zero``.
    """
    field = ring.base_field
    p = field.p
    square = (p - 1) ** 2
    items = []
    da = db = 0
    for s, a, b in terms:
        if s >= n:
            continue
        a = [c.row for c in a[:n - s]]
        b = [c.row for c in b[:n - s]]
        if not a or not b:
            continue
        ta, tb = max(map(len, a)), max(map(len, b))
        if ta > tb:
            a, b, ta, tb = b, a, tb, ta
        if not ta:
            continue
        la, lb = len(a), len(b)
        bound = min((la if la < lb else lb) * ta,
                    _nonzeros(a), _nonzeros(b)) * square
        items.append((s, a, b, la, lb, bound))
        # running maxima, compared inline: this loop runs once per product
        if ta > da:
            da = ta
        if tb > db:
            db = tb
    if not items:
        return []
    S = da + db - 1

    def pack(rows, w):
        return _packed(b"".join([c.ljust(S, b"\0") for c in rows]), w)

    reduced, rows = _sum_products(items, n, S, p, S, pack)
    zero = ring.zero
    out = []
    for i in range(rows):
        row = reduced[i * S:i * S + S].rstrip(b"\0")
        out.append(_with_row(Poly, field, row) if row else zero)
    return out


def _sum_products(items, n, S, p, keep, pack):
    """sum x^s a b over the items (s, a, b, la, lb, bound), a and b
    operands of la and lb rows of S slots, as the reduced bytes of its
    first rows (one byte a slot) and that row count: the rows any product
    reaches, at most n.

    ``pack(a, w)`` is an operand as one integer with w-byte slots.  w holds
    the largest single ``bound`` (and, for a sum of several, a flushed
    slot's p - 1 more); the products are shifted by s rows and summed as
    integers.  When the running bound would pass 2^(8w) - 1 the sum is
    flushed: reduced mod p by ``_reduce_slots`` and widened back to w
    bytes a slot.  Only the low ``keep`` slots of each row are read back;
    the others read as zero.
    """
    wide = rows = 0
    for s, _, _, la, lb, bound in items:
        if bound > wide:
            wide = bound
        if s + la + lb - 1 > rows:
            rows = s + la + lb - 1
    if rows > n:
        rows = n
    if len(items) > 1:
        wide += p - 1  # room for a flushed slot
    w = _slot_width(wide)
    nbytes = rows * S * w
    if keep == S:
        mask = (1 << (8 * nbytes)) - 1
    else:
        mask = int.from_bytes((b"\xff" * (keep * w) + bytes((S - keep) * w))
                              * rows, "little")
    limit = 1 << (8 * w)
    acc = None
    for s, a, b, _, _, bound in items:
        prod = pack(a, w) * pack(b, w)
        if s:
            prod <<= 8 * w * S * s
        if acc is None:
            acc, held = prod, bound
            continue
        if held + bound >= limit:  # flush: reduce mod p, widen back to w
            acc = _packed(_reduce_slots(
                (acc & mask).to_bytes(nbytes, "little"), p, w), w)
            held = p - 1
        acc += prod
        held += bound
    return _reduce_slots((acc & mask).to_bytes(nbytes, "little"), p, w), rows


def block_dot(terms, n, ring):
    """The first n rows of sum x^s a b over the terms (s, a, b), s >= 0, a
    and b blocks over a packed A/(m) (``ResidueRing.stride``), as a block
    that stops after the last row any term reaches.

    A block holds one row of S = 2 deg m - 1 bytes per x-order: the low
    deg m bytes are the coefficient indices of the representative, the
    rest zero.  That is the Kronecker layout of the product already, t-slot
    j of row i at byte i*S + j, and a product row of t-degree up to
    2 deg m - 2 fits its S slots; so for w = 1 an operand is packed by one
    ``int.from_bytes`` of its block, and by ``_packed`` beyond.  The slot
    bound of ``kronecker_dot`` applies with t-length deg m and nnz the
    nonzero bytes of a block (``len(block) - block.count(0)``), and
    ``_sum_products`` sums and reads back.  The sum is then reduced mod m:
    for m = t^k the high columns are masked off at the read-back; otherwise
    the columns 2 deg m - 2 down to deg m are folded into the low ones with
    the ring's fold (``_divide_columns``, as ``_column_valuation`` divides),
    for all rows at once.
    """
    p, S, dm = ring.p, ring.stride, ring.degree
    square = (p - 1) ** 2
    items = []
    for s, a, b in terms:
        if s >= n:
            continue
        a, b = a[:(n - s) * S], b[:(n - s) * S]
        la, lb = len(a) // S, len(b) // S
        bound = min((la if la < lb else lb) * dm, la * S - a.count(0),
                    lb * S - b.count(0)) * square
        if bound:
            items.append((s, a, b, la, lb, bound))
    if not items:
        return b""
    fold = ring.fold
    reduced, rows = _sum_products(items, n, S, p, S if fold else dm, _packed)
    if not fold:
        return reduced
    w = _column_width(fold, p)
    cols = _columns(reduced, S, w)
    _divide_columns(cols, dm, fold, p, w, rows * w)
    out = bytearray(len(reduced))
    for j in range(dm):
        out[j::S] = cols[j].to_bytes(rows * w, "little")[::w]
    return bytes(out)


def block_add(ring, a, b, shift, negate=False):
    """a + x^shift b (a - x^shift b when negate) for two blocks over the
    packed ``ring``, as a block whose row 0 is the lower of the two row 0s;
    shift may be negative.  b is negated by one translate, the blocks are
    aligned by zero rows and added with one ``_add_rows``, and the last
    row is padded back to the stride.  Rows that cancel stay as zero rows:
    the ``TruncSeries`` constructor strips them."""
    S, p = ring.stride, ring.p
    if negate:
        b = block_neg(ring, b)
    if shift > 0:
        b = bytes(shift * S) + b
    elif shift < 0:
        a = bytes(-shift * S) + a
    row = _add_rows(a, b, p)
    return row.ljust(-(-len(row) // S) * S, b"\0")


def block_neg(ring, a):
    """-a for a block over the packed ``ring``: one translate, which keeps
    zero bytes zero and so the block's layout."""
    return a.translate(_scale_table(ring.p, ring.p - 1))


def _fold(m):
    """[(j, -m_j mod p)] over the nonzero terms below the top of the monic
    associate of m, a nonzero polynomial over F_p with p prime."""
    p, row = m.ring.p, m.row
    inv = pow(row[-1], -1, p)
    return [(j, -c * inv % p) for j, c in enumerate(row[:-1]) if c]


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

    ``row`` is the storage.  Where the subclass's ``_keeps_row(ring)`` is
    true (a ``Poly`` over F_p, an ``AResidue`` over F_p; p prime) it is the
    bytes of the coefficient indices, and ``coeffs``, the public tuple of
    ``FqElem``, is built from it on first read and kept.  Otherwise ``row``
    is the tuple ``coeffs`` itself.  The constructor takes either form.
    """

    __slots__ = ("ring", "row", "coeffs")

    def __init__(self, ring, coeffs, normalize=True):
        self.ring = ring
        if self._keeps_row(ring):
            if type(coeffs) is not bytes:
                coeffs = bytes([c.idx for c in coeffs]).rstrip(b"\0")
            elif normalize:
                coeffs = coeffs.rstrip(b"\0")
            self.row = coeffs
            return
        if normalize:
            coeffs = list(coeffs)
            while coeffs and not coeffs[-1]:
                coeffs.pop()
        self.row = self.coeffs = tuple(coeffs)

    @staticmethod
    def _keeps_row(ring):
        return False

    def __getattr__(self, name):
        # only the coefficient tuple of a bytes row is ever missing
        if name != "coeffs":
            raise AttributeError(name)
        coeffs = self.coeffs = tuple(map(self.ring.base_field._els.__getitem__,
                                         self.row))
        return coeffs

    @property
    def degree(self):
        return len(self.row) - 1 if self.row else NEG_INF

    def is_zero(self):
        return not self.row

    def __bool__(self):
        return bool(self.row)

    def leading(self):
        if not self.row:
            raise DomainError("zero polynomial has no leading coefficient")
        c = self.row[-1]
        return self.ring.base_field._els[c] if type(c) is int else c

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.row, other.row
        if type(a) is bytes:
            return _with_row(type(self), self.ring,
                             _add_rows(a, b, self.ring.p))
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
        a = self.row
        if type(a) is bytes:
            p = self.ring.p
            return _with_row(type(self), self.ring,
                             a.translate(_scale_table(p, p - 1)))
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
        a, b = self.row, other.row
        if type(a) is bytes:
            p = self.ring.p
            return _with_row(type(self), self.ring, _add_rows(
                a, b.translate(_scale_table(p, p - 1)), p))
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
            return other.ring is self.ring and other.row == self.row
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ring), self.row))

    def map_coeffs(self, func, ring):
        return type(self)(ring, tuple(func(c) for c in self.coeffs))

    def inv(self):
        raise DomainError("%s has no inverse" % type(self).__name__)


def _with_row(cls, ring, row):
    """The element of cls over ring whose storage is row, a normalized bytes
    row, built without the constructor's checks."""
    x = object.__new__(cls)
    x.ring = ring
    x.row = row
    return x


def _schoolbook(a, b, zero):
    """The product of two nonempty coefficient sequences, low degree first,
    as a list that may end in zeros."""
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

    @staticmethod
    def _keeps_row(ring):
        return type(ring) is Fq and ring.e == 1

    def is_monic(self):
        return bool(self.row) and self.leading() == self.ring.one

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.row, other.row
        if not a or not b:
            return Poly(self.ring, (), normalize=False)
        if type(a) is bytes:  # a nonzero top times a nonzero top
            return _with_row(Poly, self.ring,
                             _dot_rows(((a, b),), self.ring.p))
        return Poly(self.ring, _schoolbook(a, b, self.ring.zero))

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, Poly) or other.ring is not self.ring:
            raise DomainError("mismatched rings in division")
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        a, b = self.row, other.row
        dq = len(a) - len(b)
        if dq < 0:
            return Poly(self.ring, (), normalize=False), self
        field, db = self.ring, other.degree
        if type(a) is bytes:
            # on the indices, by the monic associate of other
            p = field.p
            vals = list(a)
            _divmod_ints(vals, db, _fold(other), p)
            quot = bytes(vals[db:]).translate(
                _scale_table(p, pow(b[-1], -1, p)))
            return (_with_row(Poly, field, quot),
                    _with_row(Poly, field, bytes(vals[:db]).rstrip(b"\0")))
        rem = list(a)
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
        if k == 0 or not self.row:
            return self
        step = self.ring.p ** k
        if type(self.row) is bytes:  # c^p = c in F_p
            out = bytearray((len(self.row) - 1) * step + 1)
            out[::step] = self.row
            return _with_row(Poly, self.ring, bytes(out))
        out = [self.ring.zero] * ((len(self.coeffs) - 1) * step + 1)
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

    @staticmethod
    def _keeps_row(ring):
        return ring.packed

    @property
    def value(self):
        """The reduced representative as an element of A."""
        return Poly(self.ring.field, self.row, normalize=False)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.row, o.row
        ring = self.ring
        if not a or not b:
            return ring.zero
        log = ring._log
        if log is not None:  # a field with tables: g^(i + j)
            if not log:
                log = ring._tables()
            return ring._exp[log[a] + log[b]]
        return ring._product(a, b)

    __rmul__ = __mul__

    def inv(self):
        ring = self.ring
        log = ring._log
        if log is not None and self.row:  # g^(-i); zero raises below
            if not log:
                log = ring._tables()
            return ring._exp[len(log) - log[self.row]]
        g, s = _half_xgcd(self.value, ring.modulus)
        if g.degree != 0:
            raise DomainError("element is not invertible in %r" % ring)
        return ring._residue(s * g.leading().inv())

    def pth_power(self, k=1):
        """x^(p^k): in a field with tables g^(i p^k mod (order - 1)) for
        x = g^i, otherwise by substitution: sum_i x_i^(p^k) (t^(p^k))^i mod m.

        Raising to p^k is a ring endomorphism in characteristic p, so the
        image of x = sum x_i t^i is the sum of the reduced images
        t^(i p^k) mod m (``ResidueRing._pth_images``) scaled by the x_i^(p^k).
        Once the table is built this costs O(deg m^2) field operations for
        every k, instead of reducing a representative of degree about
        (deg m - 1) p^k; over F_p it is deg m small-integer multiples of
        the packed images, summed and read back once.
        """
        row = self.row
        if k == 0 or not row:
            return self
        ring = self.ring
        log = ring._log
        if log is not None:
            if not log:
                log = ring._tables()
            n = len(log)
            return ring._exp[log[row] * pow(ring.p, k, n) % n]
        if type(row) is bytes:  # x_i^(p^k) = x_i, each image packed
            acc = sum(c * img for c, img in zip(row, ring._pth_images(k)) if c)
            w = ring._pth_w
            row = _reduce_slots(acc.to_bytes(ring.degree * w, "little"),
                                ring.p, w).rstrip(b"\0")
            return _with_row(AResidue, ring, row) if row else ring.zero
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

    The field constructors (``residue_field_with_theta``,
    ``extension_with_embedding``) mark the rings they prove to be fields
    (``_mark_field``).  A marked field of order at most ``_MAX_LOG_ORDER``
    builds discrete-log tables on its first product, inverse, p-th power or
    dot (``_tables``), and those operations then read them: x y is
    ``_exp[log x + log y]``, x^-1 is ``_exp[n - log x]`` and x^(p^k) is
    ``_exp[log x p^k mod n]``, with n = order - 1.  Above the cut-over a
    light command would pay more for the build than for its whole run, so
    those fields, like every unmarked ring, keep the general paths:
    Kronecker products reduced mod m, ``_half_xgcd`` and ``_pth_images``.
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
        # over F_p, p prime: elements are bytes rows, and series over A/(m)
        # are blocks of rows of stride 2 deg m - 1, multiplied by block_dot,
        # which reduces with this ring's fold of the modulus
        self.packed = self.field.e == 1
        self.fold = _fold(modulus) if self.packed else None
        self.zero = AResidue(self, (), normalize=False)
        self.one = AResidue(self, (self.field.one,), normalize=False)
        self.degree = modulus.degree
        self.stride = 2 * self.degree - 1 if self.packed else None
        self.order = self.q ** self.degree
        self._pth_w = _slot_width(self.degree * (self.p - 1) ** 2)
        self.theta = self._residue(polyring(self.field).gen)
        self._pth = {}
        # None: no tables; {} (set by _mark_field): tables not built yet
        self._log = None

    @property
    def base_field(self):
        return self.field

    def _mark_field(self):
        """Called by the field constructors on a ring they proved a field:
        at or below the cut-over ``_MAX_LOG_ORDER`` its tables are built on
        the first multiplicative operation (``_tables``)."""
        if self.order <= _MAX_LOG_ORDER:
            self._log = {}
        return self

    def _tables(self):
        """Build and return the discrete-log table of this field.

        g is the first primitive element of ``_primitive`` (t + c, c a
        constant, where one is).  ``_exp[i]`` is g^i, an interned element,
        listed twice over so that a sum of two logs needs no reduction;
        ``_log`` maps each nonzero row to its log i, 0 <= i < order - 1;
        over a packed ring ``_exp_ints[i]`` is the row of g^i as one
        integer, a byte a coefficient, for ``dot``.  Each power is the one
        before times g, not a general product: for g = t + c over a packed
        field a shift, a fold and a translate of one integer
        (``_linear_power_ints``), otherwise a product on index vectors
        through the tables of F_q (``_index_powers``).  Two threads may
        both build: the tables are equal, and ``_log`` is set last.
        """
        n = self.order - 1
        g, c = self._primitive()
        if self.packed and c is not None and 3 * (self.p - 1) < 256:
            ints = self._linear_power_ints(c, n)
            d = self.degree
            exp = [_with_row(AResidue, self, x.to_bytes(d, "little")
                             .rstrip(b"\0")) for x in ints]
        else:
            exp = self._index_powers(g, n)
            ints = [int.from_bytes(x.row, "little") for x in exp] \
                if self.packed else None
        log = {x.row: i for i, x in enumerate(exp)}
        if len(log) != n:
            raise InternalConsistencyError("%r is not a field of order %d"
                                           % (self, n + 1))
        if self.packed:
            self._exp_ints = ints + ints
        self._exp = exp + exp
        self._log = log
        return log

    def _primitive(self):
        """(g, c): the first element g of multiplicative order order - 1,
        found by the general product, and c, the index of the constant,
        when g = t + c (the classes of t + c come first, c in field order;
        then ``elements``, with c None)."""
        n = self.order - 1
        cofactors = [n // r for r in _prime_factors(n)]

        def mul(x, y):  # nonzero in a field
            return self._product(x.row, y.row)

        t = self._residue(polyring(self.field).gen)
        candidates = itertools.chain(
            ((t + c, c.idx) for c in self.field.elements()),
            ((x, None) for x in self.elements()))
        for g, c in candidates:
            if g and all(power(g, k, mul) != self.one for k in cofactors):
                return g, c
        raise InternalConsistencyError("%r has no primitive element" % self)

    def _linear_power_ints(self, c, n):
        """The rows of g^i, 0 <= i < n, for g = t + c over a packed field,
        as integers, a byte a coefficient; g^n = 1 is checked.  x g is x
        shifted up one byte, its byte d folded back (h t^d = sum_j h f_j t^j
        over the ring's fold), plus c x; each byte is below 3 p, and one
        translate reduces it (one xor for p = 2)."""
        d, p = self.degree, self.p
        top = 8 * d
        mask = (1 << top) - 1
        row = bytearray(d)
        for j, f in self.fold:
            row[j] = f
        folds = [int.from_bytes(bytes(row).translate(_scale_table(p, h)),
                                "little") for h in range(p)]
        mod, scale = _scale_table(p, 1), _scale_table(p, c)
        x, out = 1, []
        for _ in range(n):
            out.append(x)
            y = x << 8
            h = y >> top
            if p == 2:
                y &= mask
                if h:
                    y ^= folds[1]
                x = y ^ x if c else y
            elif h or c:
                y = (y & mask) + folds[h]
                if c:
                    y += int.from_bytes(x.to_bytes(d, "little")
                                        .translate(scale), "little")
                x = int.from_bytes(y.to_bytes(d, "little").translate(mod),
                                   "little")
            else:
                x = y
        return self._closed(out, x, 1)

    def _index_powers(self, g, n):
        """g^i, 0 <= i < n, for any primitive g: each power times g on the
        vector of its coefficient indices, through the field's addition
        and multiplication tables, from the reduced images t^j g mod m
        (for g = t + c all but the last have two terms).  Elements are
        built once, from the vectors; g^n = 1 is checked."""
        field, m = self.field, self.modulus
        add, mul, els = field._add, field._mul, field._els
        images = [g.value]
        for _ in range(1, self.degree):
            images.append((images[-1] * polyring(field).gen) % m)
        images = [[(k, c.idx) for k, c in enumerate(img.coeffs) if c]
                  for img in images]
        one = [1] + [0] * (self.degree - 1)
        x, out = one, []
        for _ in range(n):
            out.append(x)
            acc = [0] * self.degree
            for c, img in zip(x, images):
                if c:
                    by = mul[c]
                    for k, v in img:
                        acc[k] = add[acc[k]][by[v]]
            x = acc
        return [AResidue(self, [els[i] for i in v])
                for v in self._closed(out, x, one)]

    def _closed(self, powers, last, one):
        """powers, once the power after them, last, is one again."""
        if last != one:
            raise InternalConsistencyError(
                "%r has no primitive element of order %d" % (self, len(powers)))
        return powers

    def _product(self, a, b):
        """The class of the product of two nonzero rows, by the general
        path: over a packed ring one ``_dot_rows`` reduced by
        ``_from_ints``, otherwise the schoolbook product reduced mod m."""
        if type(a) is bytes:
            return self._from_ints(list(_dot_rows(((a, b),), self.p)))
        field = self.field
        return self._residue(Poly(field, _schoolbook(a, b, field.zero)))

    def _pth_images(self, k):
        """The reduced t^(i p^k) mod m for 0 <= i < deg m, memoised by k.

        Built from T = t^(p^k) mod m by ``pow_mod`` and its successive
        powers mod m.  The class of t is used, not ``theta``: an extension
        field's theta is the image of another ring's t.  Over a packed ring
        each image is kept as one integer (``_packed``) in slots of
        ``_pth_w`` bytes, which hold a sum of deg m images scaled by
        integers below p.
        """
        images = self._pth.get(k)
        if images is None:
            m = self.modulus
            T = polyring(self.field).gen.pow_mod(self.p ** k, m)
            images = [self.one.value]
            for _ in range(1, self.degree):
                images.append((images[-1] * T) % m)
            if self.packed:
                images = [_packed(img.row, self._pth_w) for img in images]
            self._pth[k] = images
        return images

    def _residue(self, a):
        """The class of a, an element of A over this ring's field."""
        return AResidue(self, (a % self.modulus).row, normalize=False)

    def _from_ints(self, vals):
        """The class of sum vals[i] t^i over a packed ring, vals a list of
        ints >= 0 of any size (consumed): reduced once mod m and mod p by
        ``_divmod_ints`` with the ring's fold, kept as its bytes row."""
        dm, p = self.degree, self.p
        if self.fold:
            _divmod_ints(vals, dm, self.fold, p)
            row = bytes(vals[:dm])
        else:  # m = c t^dm: the remainder is the low slice, reduced here
            row = bytes([v % p for v in vals[:dm]])
        row = row.rstrip(b"\0")
        return _with_row(AResidue, self, row) if row else self.zero

    def dot(self, u, v):
        """sum u_i v_i for sequences u and v of this ring's elements.  Over
        a packed ring the row products are summed as integers and read
        back once: in a field with tables each product row is looked up
        (``_exp_ints``), a byte a coefficient, and the sum is reduced mod p
        whenever a byte could pass 255; otherwise the products are
        ``_dot_rows``, reduced by ``_from_ints``.  Over F_(p^e) an index is
        not additive, and the element products are summed."""
        log = self._log
        if log is not None and self.packed:
            if not log:
                log = self._tables()
            ints = self._exp_ints
            room = 255 // (self.p - 1)  # products a byte holds
            mod = _scale_table(self.p, 1)
            d = self.degree
            acc = held = 0
            for x, y in zip(u, v):
                if x.row and y.row:
                    if held == room:
                        acc = int.from_bytes(acc.to_bytes(d, "little")
                                             .translate(mod), "little")
                        held = 1
                    acc += ints[log[x.row] + log[y.row]]
                    held += 1
            row = acc.to_bytes(d, "little").translate(mod).rstrip(b"\0")
            return _with_row(AResidue, self, row) if row else self.zero
        if not self.packed:
            return sum(map(operator.mul, u, v), self.zero)
        pairs = [(x.row, y.row) for x, y in zip(u, v) if x.row and y.row]
        if not pairs:
            return self.zero
        return self._from_ints(list(_dot_rows(pairs, self.p)))

    def pack_block(self, elems):
        """The block of a sequence of this packed ring's elements: each
        row padded with zeros to ``stride`` bytes, joined (``block_dot``)."""
        S = self.stride
        return b"".join([c.row.ljust(S, b"\0") for c in elems])

    def unpack_block(self, block):
        """The elements of a block's rows, as a tuple; zero rows share
        ``zero``."""
        dm, zero = self.degree, self.zero
        rows = [block[i:i + dm].rstrip(b"\0")
                for i in range(0, len(block), self.stride)]
        return tuple([_with_row(AResidue, self, r) if r else zero
                      for r in rows])

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
    wp in it.  Memoised per (wp, m), so a process builds each field, and
    its discrete-log tables, once; a DomainError is not kept.
    """
    return _residue_field(wp, m)


@functools.cache
def _residue_field(wp, m):
    if m != 1:
        return extension_with_embedding(_residue_field(wp, 1), m)[0]
    if not is_irreducible(wp):
        raise DomainError("characteristic polynomial must be irreducible")
    return ResidueRing(wp)._mark_field()


@functools.cache
def extension_with_embedding(k, m):
    """Degree-m extension K of the residue field k plus the embedding map.

    The embedding sends the class of t in k to the smallest root of k's
    modulus in K; theta is carried along so the A-algebra structures agree.
    K is a field by construction, and gets tables (``ResidueRing._mark_field``)
    before the root search runs.  Memoised per (k, m); the kept key holds
    k, so its id is not reused.
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
                         if is_irreducible(c)))._mark_field()
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


def _column_width(fold, p):
    """The lane width of a column divided with ``fold``: between two
    reductions a column takes at most one addition c f < p^2 from each fold
    entry, on top of its own reduced value."""
    return _slot_width(len(fold) * (p - 1) ** 2 + p - 1)


def _columns(block, width, w):
    """The t-columns of a block of width-byte rows (its trailing zero bytes
    may be cut): column j holds the t^j coefficient of every row, one
    integer with a w-byte lane per row."""
    return [_packed(block[j::width], w) for j in range(width)]


def _divide_columns(cols, d, fold, p, w, size):
    """Divide every lane of the t-columns cols (``_columns``, size bytes
    each) by the monic m of degree d whose fold is ``fold``, in place.

    From the top column down, each column is reduced mod p (one translate,
    ``_reduce_slots`` for w > 1) and, at or above d, added f times into
    column k - d + j for each fold entry (j, f): one small-integer multiply
    and one add a fold entry, for all lanes at once.  The columns below d
    are then the remainders and the others the quotients, all reduced.
    """
    mod = _scale_table(p, 1)
    for k in range(len(cols) - 1, -1, -1):
        c = cols[k]
        if c:  # reduced inline: this loop runs once per column
            raw = c.to_bytes(size, "little")
            c = cols[k] = int.from_bytes(raw.translate(mod), "little") \
                if w == 1 else _packed(_reduce_slots(raw, p, w), w)
            if c and k >= d:
                s = k - d
                for j, f in fold:
                    cols[s + j] += c * f


def _column_valuation(diff, width, wp, fold, cap):
    """min(cap, least wp-adic valuation) over the nonzero polynomials of
    ``diff``, a bytes block of width-byte rows over F_p, p prime (its
    trailing zero bytes may be cut), all valued at once; ``fold`` is
    ``_fold(wp)``.

    The block is sliced into t-columns (``_columns``), and all rows are
    divided by the monic associate of wp together (``_divide_columns``), w
    holding what a column takes between reductions (``_column_width``), so
    nothing carries from lane to lane.  A block of one lane (a single row;
    the first differing pair of ``min_wp_valuation`` is one) holds one
    coefficient a column, and it is divided by ``_divmod_ints``, one ``% p``
    a column, which costs less than a translate's bytes round trip.  The
    low deg wp columns are then the remainders and the others the
    quotients, so the least valuation is the number of divisions made
    before a remainder column is nonzero.  For wp = c t^d (empty fold) a
    division drops the d low columns, and for wp = t the valuation is the
    index of the first nonzero column.
    """
    p = wp.ring.p
    d = wp.degree
    if not fold:
        for j in range(min(width, d * cap)):
            if diff[j::width].rstrip(b"\0"):
                return j // d
        return cap
    one = len(diff) <= width
    if one:
        cols = list(diff)
    else:
        w = _column_width(fold, p)
        size = -(-len(diff) // width) * w  # bytes of a column
        cols = _columns(diff, width, w)
    for v in range(cap):
        if one:
            _divmod_ints(cols, d, fold, p)
        else:
            _divide_columns(cols, d, fold, p, w, size)
        if any(cols[:d]):
            return v
        del cols[:d]
    return cap


def min_wp_valuation(pairs, wp, cap):
    """min(cap, least wp-adic valuation of a - b) over the pairs (a, b).

    a and b are elements of A, or reduced representatives in A/(m) (the
    ``AResidue`` itself), over the field of wp; None is zero.  Equal pairs
    are skipped.  The first differing pair is valued alone, and a
    valuation of 0 returns at once without reading the other pairs (the
    usual case for a form, whose constant term is a unit).

    Over F_p, p prime, the remaining differences are then valued together,
    up to that valuation: their bytes rows are zero-padded to one width
    and joined, the b block is negated (one translate), and the two blocks
    are added as integers and reduced mod p (``_add_rows``; each byte sum
    is below 2p - 1 < 256, so nothing carries).  ``_column_valuation``
    divides that block by wp column by column.  Over F_q with q = p^e,
    e > 1, an index is not additive: each difference is a ``Poly`` divided
    by wp one power at a time, up to the running minimum.  A nonzero
    element over another field raises DomainError.
    """
    field = wp.ring
    prime = field.e == 1
    zero = b"" if prime else ()
    if prime:
        p, fold = field.p, _fold(wp)
        neg = _scale_table(p, p - 1)
    a_rows = b_rows = None  # over F_p, the differences after the first
    v = cap
    for x, y in pairs:
        a = zero if x is None else x.row
        b = zero if y is None else y.row
        if a == b:
            continue
        if a and x.ring.base_field is not field or \
                b and y.ring.base_field is not field:
            raise DomainError("mismatched rings in division")
        if a_rows is not None:
            a_rows.append(a)
            b_rows.append(b)
            continue
        if prime:
            diff = _add_rows(a, b.translate(neg), p) if b else a
            v = _column_valuation(diff, len(diff), wp, fold, v)
            a_rows, b_rows = [], []
        else:
            r = Poly(field, a) - Poly(field, b)
            w = 0
            while w < v:
                r, rem = divmod(r, wp)
                if rem:
                    break
                w += 1
            v = w
        if v == 0:
            return 0
    if a_rows:
        width = max(max(map(len, a_rows)), max(map(len, b_rows)))
        diff = _add_rows(b"".join([a.ljust(width, b"\0") for a in a_rows]),
                         b"".join([b.ljust(width, b"\0") for b in b_rows]
                                  ).translate(neg), p)
        v = _column_valuation(diff, width, wp, fold, v)
    return v


def block_wp_valuation(ring, a, b, wp, cap):
    """min(cap, least wp-adic valuation) over the rows of a - b, for two
    aligned blocks over the packed ``ring`` (row i of each is the same
    x-order; either may be shorter, and b may be empty).

    b is negated by one translate and added to a with one integer add
    (``_add_rows``), and one ``_column_valuation`` of width ``stride``
    divides every row of the difference by wp at once: no row is split
    off and no element is built.  A nonzero difference over another field
    than wp's raises DomainError.
    """
    p = ring.p
    diff = _add_rows(a, b.translate(_scale_table(p, p - 1)), p) if b else \
        a.rstrip(b"\0")
    if not diff:
        return cap
    if ring.field is not wp.ring:
        raise DomainError("mismatched rings in division")
    return _column_valuation(diff, ring.stride, wp, _fold(wp), cap)


def wp_valuation(a, wp, cap=64):
    """wp-adic valuation of a in A, capped (cap for the zero polynomial):
    ``min_wp_valuation`` of the one pair (a, 0), so over F_p it runs on
    the bytes row and never divides a ``Poly``."""
    return min_wp_valuation(((a, None),), wp, cap)


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
