"""The general order-n bound family.

Exact ingredients first: p_n(x) = prod_{k=1..n} (4^k x - 1)/(4^k - 1) expanded
in rational arithmetic, the elementary symmetric numbers of (1, 4, ..., 4^(n-1)),
and their product D = prod(4^k - 1). The runtime pieces follow: the raw
approximant a_n built from nested radicals, the endpoint function g_n evaluated
at extended precision, and the assembled two-sided bound

    k_low * D * a_n(x)  <  arctan x  <  k_high * D * a_n(x)

with {k_low, k_high} = {1, g_n(pi/2)} and k_high - k_low < 4^-n.

Two independent evaluation routes are kept on purpose: the e_j/L_j alternating
sum behind a_n, and the A_k-weighted cotangent sum behind g_n. Their exact
coefficient identity D*A_j/2^j == (-1)^(n-j)*2^j*e_j is asserted in the tests,
which guards the easy-to-botch sign structure.

g_n(pi/2) - 1 has about n^2/3 leading zeros, which the cotangent sum cancels,
so g_n is evaluated at a precision derived from n: max(50, 20 + 3n^2/5)
digits, 50 up to order 7 and 173 at order 16, which leaves at least 30
significant digits in k_high - k_low at every order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath import mp

from .core import BoundPair
from .fixedpoint import MAX_ORDER
from .numerics import FLOAT, require_int, require_nonnegative

CONSTANT_DIGITS = 50  # the least precision of g_n and of the constants, at orders up to 7


def _check_order(n):
    require_int(n, "order n", 1, MAX_ORDER)


def _working_digits(n: int) -> int:
    # the precision g_n is evaluated at; see the module docstring
    return max(CONSTANT_DIGITS, 20 + 3 * n * n // 5)


@lru_cache(maxsize=None)
def denominator_product(n: int) -> int:
    """D = prod_{k=1..n} (4^k - 1)."""
    _check_order(n)
    d = 1
    for k in range(1, n + 1):
        d *= 4**k - 1
    return d


@lru_cache(maxsize=None)
def pn_coefficients(n: int) -> tuple:
    """Exact coefficients (A_0, ..., A_n) of prod_{k=1..n} (4^k x - 1)/(4^k - 1).

    By construction p_n(1) = 1 (the coefficients sum to one) and
    p_n(4^-j) = 0 for j = 1..n.
    """
    _check_order(n)
    num = [1]  # the numerator prod (4^k x - 1) has integer coefficients
    for k in range(1, n + 1):
        w = 4**k
        num = [-num[0]] + [w * num[i - 1] - num[i] for i in range(1, len(num))] + [w * num[-1]]
    d = denominator_product(n)
    return tuple(Fraction(c, d) for c in num)


@lru_cache(maxsize=None)
def elementary_symmetric(n: int) -> tuple:
    """(e_0, ..., e_n) over the list (1, 4, ..., 4^(n-1)), via prod(1 + 4^k t)."""
    _check_order(n)
    e = [1]
    for k in range(n):
        w = 4**k
        e = [e[0]] + [e[j] + w * e[j - 1] for j in range(1, len(e))] + [w * e[-1]]
    return tuple(e)


def a_n(n: int, x):
    """x over the alternating nested-radical sum: the raw order-n approximant.

    a_n(x) = x / sum_j (-1)^(n-j) * L_j(x) * 2^j * e_j, with a_n(0) = 0 and
    a_n(x)*D/x -> 1 as x -> 0. The plain-constant sandwich rescales this by
    D (see master_bounds).
    """
    _check_order(n)
    num, den = _a_n(n, x, require_nonnegative(x))
    return num / den


@lru_cache(maxsize=None)
def _signed_e(n: int, c) -> tuple:
    # (-1)^(n-j)*e_j*2^j, j = 0..n, once per order and row c: exact ints for the mpf row and
    # fixedpoint.master_kernel (an mpf of one would round before the product does), doubles for float
    e = elementary_symmetric(n)
    return tuple((float if c is FLOAT else int)((-1) ** (n - j) * e[j] << j) for j in range(n + 1))


def _a_n(n: int, x, c):
    # a_n = num/den in the number row c that x was validated into, with x and
    # every L_j divided by s = sqrt(1+x^2), so no x in the float range
    # overflows: num = sin t, ell_0 = cos t and ell_{k+1} = ell_k + hypot(sin t,
    # ell_k) for t = arctan x. sin t is taken as x*cos t rather than as
    # sincos's x/s: at float the pairs then miss arctan x less often. _signed_e's doubles
    # are what int * float rounds each integer to, so every term and the fsum are unchanged.
    coeffs = _signed_e(n, c)
    ell = 1 / c.hypot(1, x)
    num = x * ell
    terms = [coeffs[0] * ell]
    for a in coeffs[1:]:
        ell += c.hypot(num, ell)
        terms.append(a * ell)
    den = c.fsum(terms)
    assert den > 0, f"a_{n} denominator must be positive, got {den} at x={x}"
    return num, den


def gn_eval(n: int, theta):
    """g_n(theta) = sum_k A_k * f(theta/2^k) with f(y) = y*cot(y).

    Monotone on (0, pi/2] with g_n -> 1 as theta -> 0; increasing for odd n,
    decreasing for even n. Its value at pi/2 is the non-unit constant of the
    order-n sandwich. The sum is taken at the working precision derived from
    n; theta is converted and range-checked at the caller's precision, so
    pi/2 rounded there is accepted.
    """
    _check_order(n)
    coeffs = pn_coefficients(n)
    th = mp.mpf(theta)
    if not mp.isfinite(th) or not 0 < th <= mp.pi / 2 + mp.eps * 4:
        raise ValueError(f"theta must lie in (0, pi/2], got {theta!r}")
    with mp.workdps(_working_digits(n)):
        acc = mp.mpf(0)
        for k, c in enumerate(coeffs):
            y = th / 2**k
            acc += mp.mpf(c.numerator) / c.denominator * (y / mp.tan(y))
        return +acc


class MasterParams(NamedTuple):
    """Everything fixed by the order: D and the endpoint constants.

    k_low/k_high carry the working precision derived from n; scale_low and
    scale_high are k_low*D and k_high*D rounded once to double, for the float
    evaluation path. A read-only record; ``_replace`` and ``_asdict`` copy it.
    """

    n: int
    denom_product: int
    k_low: mp.mpf
    k_high: mp.mpf
    scale_low: float
    scale_high: float


def constant_side(n: int) -> str:
    """The order-n pair's side with the constant g_n(pi/2), which exceeds 1 exactly for odd n."""
    return "upper" if n % 2 else "lower"


@lru_cache(maxsize=None)
def master_params(n: int) -> MasterParams:
    """Assemble and cache the order-n parameters.

    The parity rule (constant_side) is derived from the sign of p_n beyond its
    roots and asserted here rather than assumed.
    """
    _check_order(n)
    with mp.workdps(_working_digits(n)):
        g_end = gn_eval(n, mp.pi / 2)
        one = mp.mpf(1)
        upper = constant_side(n) == "upper"
        assert g_end > one if upper else g_end < one, f"expected g_{n}(pi/2) {'>' if upper else '<'} 1, got {g_end}"
        k_low, k_high = (one, g_end) if upper else (g_end, one)
        assert k_high - k_low < mp.mpf(4) ** -n
        d = denominator_product(n)
        return MasterParams(
            n=n,
            denom_product=d,
            k_low=k_low,
            k_high=k_high,
            scale_low=float(k_low * d),
            scale_high=float(k_high * d),
        )


def master_bounds(n: int, x) -> BoundPair:
    """The order-n sandwich (k_low * D * a_n(x), k_high * D * a_n(x)).

    Order 1 reproduces the Shafer-Fink pair, order 2 the order-2 closed
    form; the pair gap shrinks like 4^-n. The enclosure is nominal at float
    (see BoundPair): from n = 6 the two scales round to one double. At mpf a
    margin (about 1/x) below working precision can miss too.
    """
    params = master_params(n)
    c = require_nonnegative(x)
    num, den = _a_n(n, x, c)
    return BoundPair(_scale(params, False, num, den, c), _scale(params, True, num, den, c))


def master_side(n: int, upper: bool, x):
    """master_bounds(n, x).upper if upper, else .lower, from one a_n evaluation."""
    params = master_params(n)
    c = require_nonnegative(x)
    return _scale(params, upper, *_a_n(n, x, c), c)


def _scale(params: MasterParams, upper: bool, num, den, c):
    # one side k*D*num/den of the pair, k = k_high if upper else k_low, in the number row c
    if c is FLOAT:
        # x last: x/den alone underflows at tiny x, where den is about D (1e82 at n = 16)
        return num * ((params.scale_high if upper else params.scale_low) / den)
    return (params.k_high if upper else params.k_low) * (params.denom_product * (num / den))
