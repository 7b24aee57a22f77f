import pytest

from drinfeld import fields
from drinfeld.fields import Poly, fq, polyring
from drinfeld.series import TruncSeries
from drinfeld.tate import td_instance


def slot_counter(monkeypatch):
    """Record the number of coefficient slots each series twist builds."""
    built = []
    pth_power = TruncSeries.pth_power

    def counting(s, k=1):
        out = pth_power(s, k)
        built.append(len(out.coeffs))
        return out

    monkeypatch.setattr(TruncSeries, "pth_power", counting)
    return built


@pytest.fixture(scope="session")
def F2():
    return fq(2)


@pytest.fixture(scope="session")
def F3():
    return fq(3)


@pytest.fixture(scope="session")
def F4():
    return fq(4)


@pytest.fixture(scope="session")
def A2(F2):
    return polyring(F2)


@pytest.fixture(scope="session")
def A3(F3):
    return polyring(F3)


def long_divmod(a, b):
    """(quotient, remainder) of Polys over F_q, b nonzero, by long division
    on the field elements.  It shares no code with ``Poly.__divmod__``,
    which runs on integer indices over F_p."""
    rem = list(a.coeffs)
    d = b.degree
    inv = b.leading().inv()
    quot = [a.ring.zero] * max(len(rem) - d, 0)
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top] * inv
        quot[top - d] = c
        for i, bc in enumerate(b.coeffs):
            rem[top - d + i] = rem[top - d + i] - c * bc
    return Poly(a.ring, quot), Poly(a.ring, rem[:d])


def rows_dot(terms, n, ring):
    """The first n x-rows of sum x^s a b over the terms (s, a, b) of element
    sequences, by the package's kernel: ``fields.kronecker_dot`` over
    F_p[t]; over a packed A/(m), ``fields.block_dot`` on the operands'
    blocks, its rows read back as elements."""
    if getattr(ring, "stride", None) is None:
        return fields.kronecker_dot(terms, n, ring)
    pack = ring.pack_block
    return list(ring.unpack_block(fields.block_dot(
        [(s, pack(a), pack(b)) for s, a, b in terms], n, ring)))


def divmod_valuation(a, wp, cap):
    """v_wp(a) capped at cap (cap for a = 0) by one long division per power
    of wp: the reference for fields.wp_valuation, which runs on integer
    coefficients over F_p."""
    v = 0
    while a and v < cap:
        a, r = long_divmod(a, wp)
        if r:
            return v
        v += 1
    return cap


def td_config(name, prec=8):
    """The four standing Tate-Drinfeld configurations, memoized."""
    q, wp_name, f_name = name
    field = fq(q)
    A = polyring(field)
    t = A.gen
    wp = {"t": t, "t2": t * t + t + A.one}[wp_name]
    f = {"1": A.one, "t": t}[f_name]
    return td_instance(field, wp, f, prec)


TD_CONFIGS = [(2, "t", "1"), (2, "t", "t"), (3, "t", "1"), (2, "t2", "1")]
