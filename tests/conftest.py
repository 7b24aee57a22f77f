import pytest

from drinfeld.fields import fq, polyring
from drinfeld.tate import td_instance


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


def divmod_valuation(a, wp, cap):
    """v_wp(a) capped at cap (cap for a = 0) by one Poly long division per
    power of wp: the reference for fields.wp_valuation, which runs on
    integer coefficients over F_p."""
    v = 0
    while a and v < cap:
        a, r = divmod(a, wp)
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
