"""Independent references for master's numbers, built from the definitions alone.

p_n(x) = prod_{k=1..n} (4^k x - 1)/(4^k - 1) in Fractions, the elementary
symmetric numbers e_j of (1, 4, ..., 4^(n-1)) from prod (1 + 4^k t), and
g_n(theta) = sum_k A_k*(theta/2^k)*cot(theta/2^k) through mpmath's tan. master
takes its integers and its constant g_n(pi/2) by other routes; this module
imports nothing from arctancert, so the tests check master against something
that shares none of its code.
"""

from fractions import Fraction
from functools import lru_cache

from mpmath import mp


@lru_cache(maxsize=None)
def pn_coefficients(n):
    """(A_0, ..., A_n), lowest degree first, multiplied out one factor at a time."""
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        w = Fraction(4**k, 4**k - 1)  # the factor w*x - 1/(4^k - 1)
        lift = [Fraction(0)] + [w * c for c in coeffs]
        coeffs = [a - c / (4**k - 1) for a, c in zip(lift, coeffs + [Fraction(0)])]
    return tuple(coeffs)


def elementary_symmetric(n):
    """(e_0, ..., e_n) over (1, 4, ..., 4^(n-1)), the coefficients of prod (1 + 4^k t)."""
    e = [1]
    for w in (4**k for k in range(n)):
        e = [e[0]] + [e[j] + w * e[j - 1] for j in range(1, len(e))] + [w * e[-1]]
    return tuple(e)


def gn_eval(n, theta):
    """g_n(theta) rounded to the caller's precision.

    The sum cancels about n^2/3 leading digits of g_n - 1, so it runs that many
    digits wider, and ten more; it has no proved error bound.
    """
    with mp.workdps(mp.dps + n * n // 3 + 10):
        th = mp.mpf(theta)
        acc = mp.fsum(mp.mpf(c.numerator) / c.denominator * (th / 2**k) / mp.tan(th / 2**k)
                      for k, c in enumerate(pn_coefficients(n)))
    return +acc


@lru_cache(maxsize=None)
def gn_end(n):
    """g_n(pi/2) at 400 digits, the reference that master's constants are rounded from."""
    with mp.workdps(400):
        return gn_eval(n, mp.pi / 2)
