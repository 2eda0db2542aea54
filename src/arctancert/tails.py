"""Errors of the master pairs in float, for the certification scan's float tier.

In float, the master pairs get their error summed from its tail, as (e, b): e
approximating the error E = f - arctan x and b bounding the float computation's
distance from E. master, and sf and t2, which are master 1 and 2, have D*a_n(x)
= theta/g_n(theta) with theta = arctan x, and S = 1 - g_n(theta) = sum_{m>n} b_m
p_n(4^-m) theta^(2m), b_m = 2^(2m)|B_2m|/(2m)! the coefficients of y*cot y (DLMF
4.19). The unit side has E = theta*S/(1 - S), the side with the constant
g_n(pi/2) has E = theta*(S(theta) - S(pi/2))/(1 - S(theta)). Every other row but
t takes the K-ulp rule (families.ulp_rule), and t has no float rule. Every row's
fixed-point rule and kernel, master's too, is in ``fixedpoint``;
master_constants gives master's kernel its constants.

The float bounds are first order in the unit roundoff U; every constant carries
a few percent of slack for the second-order terms. Quantities that underflow err
by under 2^-1000 absolutely, which the scan's mpf term absorbs. b includes
neither the mpf term nor the final ulp(e): the scan's guard adds them (see
``verify``).
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import pi_fixed, to_fixed  # pi_fixed: pi*2^bits within one unit (fixedpoint)

from .fixedpoint import nearest
from .master import _signed_e, denominator_product, master_params, pn_coefficients
from .numerics import MPF

U = 2.0**-53  # unit roundoff of a double
_MASTER_TERMS = 30  # terms of master's S past t^(n+1); H takes n + 1 more
_SUM_TERMS = 41  # terms of master's c_m summed for the d_i
with mp.workdps(30):  # the nearest doubles to 2/pi and 4/pi^2, each within U
    _TWO_OVER_PI, _FOUR_OVER_PI2 = float(2 / mp.pi), float(4 / mp.pi**2)


def _horner_constants(coeffs, bits):
    # Horner coefficients of sum_i a_i t^i (highest degree first, rounded once to float)
    # for a_i*2^bits given as integers of one sign, the last of coeffs being the first
    # one left out; the mean degree plus one, M = sum (i+1)|a_i| / sum |a_i|; and the
    # rest of the series relative to its sum, for t in [0, 1] and terms past the last
    # shrinking by 1/3:
    # 1.5*|a_K|/|a_0|. The running mean of i + 1 in sum (i+1)|a_i| t^i / sum |a_i| t^i
    # grows with t (its derivative in log t is a variance), so M bounds it on [0, 1].
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
    # the exact rational part from T_m and the integers D*A_k of pn_coefficients over one
    # common denominator, times (pi/2)^(2m) in fixed point 64 bits deeper. There (pi/2)^2 lies
    # within 4.2 units of its value, 1.7 of 2^-deep relative, and each of the m products adds
    # one unit, so the power errs by under 2.2m*2^-deep relative and c_m*2^bits, |c_m| < 1, by
    # under 2^-50 before its rounding.
    d_n = denominator_product(n)
    ints = [int(a * d_n) for a in pn_coefficients(n)]  # D*A_k, exact
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
        out.append(nearest(_tangent_number(m) * p * pw, den << (deep - bits)))
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


def _tangent_number(m: int) -> int:
    # T_m, from a table built to the next multiple of 64
    return _tangent_numbers(-(-m // 64) * 64)[m]


def master_error(n: int, constant_side: bool, x: float):
    """(e, b) for the order-n master pair, from theta = math.atan(x).

    constant_side picks the side whose constant is g_n(pi/2); the other side's
    constant is 1.
    """
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
    if not constant_side:
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
def master_constants(n: int, constant_side: bool, big: int) -> tuple:
    # fixedpoint.master_kernel's constants(big) once bound to the order-n pair's side: k*D at
    # scale 2^big, k = g_n(pi/2) floored there or 1, and the integers (-1)^(n-j) e_j 2^j.
    # g_n(pi/2) is k_high for odd n, else k_low (master.constant_side).
    params = master_params(n)
    k = params.k_high if n % 2 else params.k_low
    kd = (to_fixed(k._mpf_, big) if constant_side else 1 << big) * params.denom_product
    return kd, _signed_e(n, MPF)
