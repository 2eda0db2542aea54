"""The general order-n bound pair (Theorem 3), whose orders 1 and 2 are sf and t2.

Exact ingredients first: D = prod(4^k - 1) and the integers D*A_k, the
coefficients of D*p_n(x) = prod_{k=1..n} (4^k x - 1). D*A_j = (-1)^(n-j)*4^j*e_j,
e_j the elementary symmetric numbers of (1, 4, ..., 4^(n-1)), so a_n's alternating
sum takes its (-1)^(n-j)*e_j*2^j as D*A_j/2^j. The runtime pieces follow: the raw
approximant a_n built from nested radicals, the endpoint constant g_n(pi/2), and
the assembled two-sided bound

    k_low * D * a_n(x)  <  arctan x  <  k_high * D * a_n(x)

with {k_low, k_high} = {1, g_n(pi/2)} and k_high - k_low < 4^-n.

g_n(theta) = sum_k A_k*(theta/2^k)*cot(theta/2^k). At theta = pi/2 the cotangents
are the half-angle radicals themselves, so master_params sums g_n(pi/2) in floored
integers (_gn_end), with a proved error, and rounds it once to nearest. The tests
check the constants and the e_j by independent routes, g_n's through mpmath's tan.

g_n(pi/2) - 1 has about n^2/3 leading zeros, which the cotangent sum cancels,
so the constants carry a precision derived from n: max(50, 20 + 3n^2/5)
digits, 50 up to order 7 and 173 at order 16, which leaves at least 30
significant digits in k_high - k_low at every order.

The pairs' two scan rules (``verify``) close the module: _master_constants
gives the fixed-point one, fixedpoint.master_kernel, its constants; the float
one, _master_error, sums E = f - arctan x in float as (e, b), b bounding the
float sum's distance from E. D*a_n(x) = theta/g_n(theta), theta = arctan x, so
with S = 1 - g_n(theta) = sum_{m>n} b_m p_n(4^-m) theta^(2m), b_m the
coefficients 2^(2m)|B_2m|/(2m)! of y*cot y (DLMF 4.19), the unit side has E =
theta*S/(1 - S) and the constant side theta*(S(theta) - S(pi/2))/(1 - S(theta)).
b is first order in the unit roundoff U, with a few percent of slack; what
underflows errs by under 2^-1000, which the scan guard's mpf term absorbs.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps
from typing import NamedTuple

from mpmath import mp
# pi_fixed: pi*2^bits within one unit (fixedpoint)
from mpmath.libmp import dps_to_prec, from_man_exp, pi_fixed, round_nearest, to_fixed

from .core import BoundPair
from .fixedpoint import MAX_ORDER, nearest
from .numerics import FLOAT, MPF, TOP, require_int, require_nonnegative

CONSTANT_DIGITS = 50  # the least precision of g_n and of the constants, at orders up to 7
U = 2.0**-53  # unit roundoff of a double
_MASTER_TERMS = 30  # terms of master's S past t^(n+1); H takes n + 1 more
_SUM_TERMS = 41  # terms of master's c_m summed for the d_i
with mp.workdps(30):  # the nearest doubles to 2/pi and 4/pi^2, each within U
    _TWO_OVER_PI, _FOUR_OVER_PI2 = float(2 / mp.pi), float(4 / mp.pi**2)


def _check_order(n) -> int:
    return require_int(n, "order n", 1, MAX_ORDER)


def _order_cached(fn):
    # fn cached behind the order check on the int it returns: no bad n is hashed, nor a bool
    cached = lru_cache(maxsize=None)(fn)
    return wraps(fn)(lambda n: cached(_check_order(n)))


def _working_digits(n: int) -> int:
    # the precision g_n is evaluated at; see the module docstring
    return max(CONSTANT_DIGITS, 20 + 3 * n * n // 5)


def denominator_product(n: int) -> int:
    """D = prod_{k=1..n} (4^k - 1)."""
    _check_order(n)
    return math.prod(4**k - 1 for k in range(1, n + 1))


def _pn_numerator(n: int) -> list:
    # D*A_k, k = 0..n, lowest degree first: the coefficients of prod_{k=1..n} (4^k x - 1)
    num = [1]
    for w in (4**k for k in range(1, n + 1)):
        num = [-num[0]] + [w * num[i - 1] - num[i] for i in range(1, len(num))] + [w * num[-1]]
    return num


def a_n(n: int, x):
    """x over the alternating nested-radical sum: the raw order-n approximant.

    a_n(x) = x / sum_j (-1)^(n-j) * L_j(x) * 2^j * e_j, with a_n(0) = 0 and
    a_n(x)*D/x -> 1 as x -> 0; each (-1)^(n-j)*2^j*e_j is D*A_j/2^j, A_j p_n's
    coefficients. The plain-constant sandwich rescales this by D (see master_bounds).
    """
    _check_order(n)
    num, den = _a_n(n, x, require_nonnegative(x))
    return num / den


@lru_cache(maxsize=None)
def _signed_e(n: int, c) -> tuple:
    # (-1)^(n-j)*e_j*2^j = D*A_j/2^j, j = 0..n, once per order and row c, exact since 4^j divides
    # D*A_j: ints for the mpf row and fixedpoint.master_kernel (an mpf of one would round before
    # the product does), doubles for float
    return tuple((float if c is FLOAT else int)(a >> j) for j, a in enumerate(_pn_numerator(n)))


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
    if not den > 0:
        raise ValueError(f"a_{n} denominator must be positive, got {den} at x={x}")
    return num, den


def _gn_end(n: int, guard: int = 16):
    # g_n(pi/2) rounded to nearest at _working_digits(n), from floored integers at scale 2^W,
    # W = prec + guard. At theta = pi/2 the cotangent sum's arguments are y_k = pi/2^(k+1), and
    # c_k = cot y_k follows from c_0 = cot(pi/2) = 0 by the half-angle step c_(k+1) = c_k +
    # sqrt(1 + c_k^2), _a_n's radicals at t = pi/2; so g_n(pi/2) = (pi/2)*sum_k A_k 2^-k c_k,
    # whose k = 0 term is 0. In units of 2^-W:
    # - C_1 = 2^W exactly. A root loses at most its argument's error (c/sqrt(1 + c^2) < 1) and
    #   floors one unit more, so C_k lies in (c_k 2^W - 2^(k-1), c_k 2^W]: each step can double.
    # - s = sum_k (D*A_k) C_k 2^(n-k), exact from the integers D*A_k, over D*2^n is 2^W*sum_k
    #   A_k 2^-k c_k = 2^W*(2/pi)g_n(pi/2) <= 2^W*2/3 (g_n(pi/2) <= g_1(pi/2) = pi/3) within
    #   sum_k |A_k|/2 = |p_n(-1)|/2 = prod (4^k + 1)/(2(4^k - 1)) < 0.985 units.
    # - pi*2^W is pi_fixed(W), or pi_fixed at MAX_ORDER's W, k >= 1 bits wider, which mpmath
    #   computes once for every order, rounded to nearest: within 2^-k + 1/2, one unit in all.
    #   It moves the product (pi/2)*s/(D*2^n) by under 1/3, s's error moves it by under
    #   (pi/2)*0.985 < 1.548, and the two errors' product by under 2^-W: under 1.89 in all.
    #   The quotient's floor v adds under one, so g_n(pi/2)*2^W lies in (v - 1.89, v + 2.89).
    # Rounding is monotone, so where v - 2 and v + 3 round alike, so does g_n(pi/2). Where they
    # do not, the sum is redone with the guard doubled (Ziv): g_n(pi/2) is pi times a nonzero
    # algebraic number, no tie, so some guard settles it.
    prec = dps_to_prec(_working_digits(n))
    big = prec + guard
    c = s = 0
    for k, a in enumerate(_pn_numerator(n)[1:], 1):  # a: D*A_k
        c += math.isqrt((1 << 2 * big) + c * c)
        s += (a * c) << (n - k)
    wide = max(big, dps_to_prec(_working_digits(MAX_ORDER)) + guard)  # one pi for every order
    v = (nearest(pi_fixed(wide), 1 << (wide - big)) * s) // (denominator_product(n) << (n + big + 1))
    lo, hi = (from_man_exp(v + e, -big, prec, round_nearest) for e in (-2, 3))
    return mp.make_mpf(lo) if lo == hi else _gn_end(n, 2 * guard)


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


@_order_cached
def master_params(n: int) -> MasterParams:
    """Assemble and cache the order-n parameters.

    The non-unit constant g_n(pi/2) is summed in integers with a proved error
    and rounded to nearest at the working precision derived from n; no mpmath
    tan or pi is computed. The parity rule (constant_side) is derived from the
    sign of p_n beyond its roots and checked here rather than assumed, as is
    the gap k_high - k_low < 4^-n; either failing raises ValueError, under
    python -O too.
    """
    with mp.workdps(_working_digits(n)):
        g_end = _gn_end(n)
        one = mp.mpf(1)
        upper = constant_side(n) == "upper"
        if not (g_end > one if upper else g_end < one):
            raise ValueError(f"expected g_{n}(pi/2) {'>' if upper else '<'} 1, got {g_end}")
        k_low, k_high = (one, g_end) if upper else (g_end, one)
        if not k_high - k_low < mp.mpf(4) ** -n:
            raise ValueError(f"expected k_high - k_low < 4^-{n}, got {k_high - k_low}")
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


def _master_side(params: MasterParams, upper: bool, x):
    """master_bounds(params.n, x).upper if upper, else .lower, from one a_n evaluation: master's body."""
    c = FLOAT if type(x) is float and 0.0 <= x <= TOP else require_nonnegative(x)
    num, den = _a_n(params.n, x, c)  # a starred call would cost about 0.1 us more
    return _scale(params, upper, num, den, c)


def _scale(params: MasterParams, upper: bool, num, den, c):
    # one side k*D*num/den of the pair, k = k_high if upper else k_low, in the number row c
    if c is FLOAT:
        # x last: x/den alone underflows at tiny x, where den is about D (1e82 at n = 16)
        return num * ((params.scale_high if upper else params.scale_low) / den)
    return (params.k_high if upper else params.k_low) * (params.denom_product * (num / den))


def _horner_constants(coeffs, bits):
    # Horner coefficients of sum_i a_i t^i (highest degree first, rounded once to float)
    # for a_i*2^bits given as integers of one sign, the last of coeffs being the first
    # one left out; the mean degree plus one, M = sum (i+1)|a_i| / sum |a_i|; and the
    # rest of the series relative to its sum, for t in [0, 1] and terms past the last
    # shrinking by 1/3: 1.5*|a_K|/|a_0|. The running mean of i + 1 in sum (i+1)|a_i| t^i /
    # sum |a_i| t^i grows with t (its derivative in log t is a variance), so M bounds it on [0, 1].
    *a, after = (ai / (1 << bits) for ai in coeffs)  # int division rounds once
    m = sum((i + 1) * abs(ai) for i, ai in enumerate(a)) / sum(abs(ai) for ai in a)
    return tuple(reversed(a)), m * 1.001, 1.5 * abs(after) / abs(a[0]) * 1.001


def _horner_error(m, d_t):
    # relative error of the float Horner sum of sum_i a_i t^i, one-signed a_i, t in [0, 1]
    # given with relative error d_t: the steps' roundings, 2U per step of a partial sum
    # that reaches the result times t^j, add 2U*sum (i+1)|a_i| t^i <= 2U*M of the sum;
    # the coefficients' rounding U; t's error (M - 1)*d_t, since t*P'/P = M(t) - 1
    return (2 * m + 1) * U + (m - 1) * d_t


def _master_coefficients(n: int, bits: int, count: int) -> tuple:
    # c_m*2^bits rounded to integers for m = n+1, ..., n+count. c_m = b_m*p_n(4^-m)*(pi/2)^(2m)
    # with b_m = 2^(2m)|B_2m|/(2m)! = T_m/((4^m - 1)(2m - 1)!), T_m the m-th tangent number:
    # the exact rational part from T_m and the integers D*A_k of _pn_numerator over one
    # common denominator, times (pi/2)^(2m) in fixed point 64 bits deeper. There (pi/2)^2 lies
    # within 4.2 units of its value, 1.7 of 2^-deep relative, and each of the m products adds
    # one unit, so the power errs by under 2.2m*2^-deep relative and c_m*2^bits, |c_m| < 1, by
    # under 2^-50 before its rounding.
    d_n, ints = denominator_product(n), _pn_numerator(n)  # ints: D*A_k
    tn = _tangent_numbers(MAX_ORDER + count)  # one table serves every order
    deep = bits + 64
    hp2 = (pi_fixed(deep - 1) ** 2) >> deep  # (pi/2)^2
    pw = 1 << deep
    for _ in range(n):
        pw = (pw * hp2) >> deep
    out = []
    for m in range(n + 1, n + count + 1):
        pw = (pw * hp2) >> deep  # (pi/2)^(2m)
        p = sum(a_k << (2 * m * (n - k)) for k, a_k in enumerate(ints))  # D*4^(mn)*p_n(4^-m)
        den = ((1 << 2 * m) - 1) * math.factorial(2 * m - 1) * d_n << (2 * m * n)
        out.append(nearest(tn[m] * p * pw, den << (deep - bits)))
    return tuple(out)


@lru_cache(maxsize=None)
def _master_series(n: int) -> tuple:
    # S(t) = t^(n+1)*P(t) with P(t) = sum_i c_(n+1+i) t^i, and H(t) = sum_i d_i t^i with
    # d_i = sum_{m > max(i, n)} c_m, as _horner_constants of each, from _master_coefficients
    # at 256 + 2n^2 bits, where c_(n+_SUM_TERMS) still exceeds 2^100 units.
    # The d_i sum _SUM_TERMS terms; the rest, under 1.5*3^-41*|c_(n+1)| in each of the
    # n + 32 of them, moves H by under U/50 of itself, which the budget's slack covers.
    # Built on first use, so master_params costs nothing more.
    bits = 256 + 2 * n * n
    c = _master_coefficients(n, bits, _SUM_TERMS)
    d = [0]
    for cm in reversed(c):
        d.append(d[-1] + cm)
    d = d[: -_MASTER_TERMS - 3 : -1]  # d_n, ..., d_(n+_MASTER_TERMS+1)
    return _horner_constants(c[: _MASTER_TERMS + 1], bits) + _horner_constants([d[0]] * n + d, bits)


@lru_cache(maxsize=None)
def _tangent_numbers(top: int) -> tuple:
    # T_0..T_top, T_0 = 0: the integers with tan y = sum T_m y^(2m-1)/(2m-1)!, by the
    # Brent-Harvey recurrence, exact and cheap where bernfrac computes each B_2m
    # numerically (tests/test_tails.py checks b_m against bernfrac)
    t = [0, 1] + [0] * (top - 1)
    for k in range(2, top + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, top + 1):
        for j in range(k, top + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t)


def _master_error(n: int, on_constant: bool, x: float):
    """(e, b) for a side of the order-n pair, from theta = math.atan(x): the side whose
    constant is g_n(pi/2) if on_constant, else the side whose constant is 1."""
    # With t = (theta/(pi/2))^2, S(theta) = sum_{m>n} c_m t^m, and S(theta) - S(pi/2) =
    # -(1 - t)*H(t): c_m t^m - c_m = -(1 - t)*c_m*(1 + t + ... + t^(m-1)), and H collects
    # these powers. 1 - t = omega*(1 + tau) with tau = theta/(pi/2) and omega =
    # arctan(1/x)/(pi/2), so no term cancels, however close theta comes to pi/2.
    #
    # Ratios: p_n(4^-(m+1))/p_n(4^-m) = (1 - 4^-m)/(1 - 4^(n-m)) <= 4/3 (the product
    # telescopes) and b_(m+1)/b_m = zeta(2m+2)/(pi^2 zeta(2m)) < 1/pi^2, so
    # c_(m+1)/c_m <= 1/3, and d_(i+1) = d_i - c_(i+1) <= d_i/3 since d_i <= 1.5*c_(i+1).
    # Every c_m has the sign (-1)^n, so neither sum cancels; |S| <= |S(pi/2)| =
    # |g_n(pi/2) - 1| < 4^-n <= 1/4.
    #
    # Float error. theta errs by 2U (math.atan, within one ulp); t = theta^2*(4/pi^2)
    # by 7U; t^(n+1), a pow within one ulp, by (n+1)*7U + 2U; tau by 4U and 1 + tau by
    # 3U; omega by 4U (math.atan2 within one ulp, the constant and the product by U
    # each). At x = 0, atan2 gives pi/2 and theta = 0 gives e = 0 and b = 0.
    theta = math.atan(x)
    ps, m_s, rest_s, hs, m_h, rest_h = _master_series(n)
    d_t = 7.01 * U
    t = theta * theta * _FOUR_OVER_PI2
    p = 0.0
    for a in ps:
        p = p * t + a
    s = t ** (n + 1) * p
    r_s = (n + 1) * d_t + 3 * U + _horner_error(m_s, d_t) + rest_s
    if not on_constant:
        # e = theta*S/(1 - S): S's relative error, times d(ln e)/d(ln S) = 1/(1 - S) <= 4/3;
        # theta, 1 - S (1.34U), the product and the quotient add 5.34U
        e = theta * s / (1 - s)
        return e, abs(e) * (1.34 * r_s + 5.34 * U) * 1.01
    # e = -theta*omega*(1 + tau)*H/(1 - S): theta, omega, 1 + tau and the four
    # operations add 13U, taken as 14U, H its own error, 1 - S 1.34*(|S|*r_s + U)
    h = 0.0
    for a in hs:
        h = h * t + a
    tau = theta * _TWO_OVER_PI
    e = -theta * (math.atan2(1.0, x) * _TWO_OVER_PI * (1 + tau)) * h / (1 - s)
    r_h = _horner_error(m_h, d_t) + rest_h
    return e, abs(e) * (14 * U + r_h + 1.34 * (abs(s) * r_s + U)) * 1.01


@lru_cache(maxsize=None)
def _master_constants(n: int, on_constant: bool, big: int) -> tuple:
    # fixedpoint.master_kernel's constants(big) once bound to the order-n pair's side: k*D at
    # scale 2^big, k = g_n(pi/2) floored there on the constant side, else 1, and the integers
    # (-1)^(n-j) e_j 2^j
    params = master_params(n)
    g = params.k_high if constant_side(n) == "upper" else params.k_low
    kd = (to_fixed(g._mpf_, big) if on_constant else 1 << big) * params.denom_product
    return kd, _signed_e(n, MPF)
