"""Errors of the families in float and in fixed point, for the certification scan's tiers.

In float, the master pairs get their error summed from its tail, as (e, b): e
approximating the error E = f - arctan x and b bounding the float
computation's distance from E. master, and sf and t2, which are master 1 and
2, have D*a_n(x) = theta/g_n(theta) with theta = arctan x, and S = 1 -
g_n(theta) = sum_{m>n} b_m p_n(4^-m) theta^(2m), b_m = 2^(2m)|B_2m|/(2m)! the
coefficients of y*cot y (DLMF 4.19). The unit side has E = theta*S/(1 - S), the
side with the constant g_n(pi/2) has E = theta*(S(theta) - S(pi/2))/(1 -
S(theta)). Every other row but t takes the K-ulp rule (families.ulp_rule), and
t has no float rule.

In fixed point every row has one rule (direct_fixed), as (m, err), m*2^-w
lying within err units of 2^-w of E: its kernel in integers scaled by 2^w, at
x itself, at u = x on [0, 1] or at the lift's u, less arctan x from the
oracle's fixed-point arctan, which reduces x against a cached anchor next to
it (_atan_w, verify._atan_fixed). The kernels are master's nested radicals
(sf and t2 too), t4 and lagrange in closed form, each one quotient or one
product of exact powers of u and the constants pi, 4/pi and sqrt2 (t5 is
lagrange at the lift's u), cheb's Clenshaw sum over coefficients from an
integer recurrence (_cheb_ints), cf's backward recurrence, and the quartic
rows' partial sums (s, t and their blend w; Cuyt et al., Handbook of Continued
Fractions for Special Functions, ch. 11, for cf). pi, there and in master's
coefficients, is mpmath's floor(pi*2^bits), from the series behind mp.pi
(mpmath.libmp.pi_fixed).

The float bounds are first order in the unit roundoff U; every constant
carries a few percent of slack for the second-order terms. Quantities that
underflow err by under 2^-1000 absolutely, which the scan's mpf term
absorbs. The fixed-point bounds count units of 2^-w: each floor adds under
one, each coefficient under 1/2 and a little, and the sums are arranged
(Clenshaw in 2T_2(x), cf's recurrence, which shrinks an error by 4 a step,
Horner in q below 1) so that no step's error grows on its way to the result
(Brent & Zimmermann, Modern Computer Arithmetic, ch. 1 and 4); master's
radicals, which can double an error a step, run at guard bits, and the closed
forms floor only a root, a shift and their final quotient or product, every
other step being exact. e_u, the units a kernel's argument may lie off by,
enters err through a proved bound on the kernel's slope. Neither b nor err
includes the mpf term, nor the final ulp(e) or rounding up: the scan's guards
add them (see ``verify``).
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp
# pi_fixed(bits) is pi*2^bits within one unit: mpmath's floor(pi*2^bits), Chudnovsky's series
# summed 10 or more bits deeper and shifted down, memoized there; mp.pi, which master_params
# and the mpf kernels read, rounds the same series
from mpmath.libmp import pi_fixed, to_fixed

from .master import MAX_ORDER, _signed_e, denominator_product, master_params, pn_coefficients
from .numerics import MPF, require_nonnegative, require_unit
from .verify import _atan_fixed

U = 2.0**-53  # unit roundoff of a double
_MASTER_TERMS = 30  # terms of master's S past t^(n+1); H takes n + 1 more
_SUM_TERMS = 41  # terms of master's c_m summed for the d_i
with mp.workdps(30):  # the nearest doubles to 2/pi and 4/pi^2, each within U
    _TWO_OVER_PI, _FOUR_OVER_PI2 = float(2 / mp.pi), float(4 / mp.pi**2)


def _nearest(num: int, den: int) -> int:
    # num/den rounded to the nearest integer, den > 0
    return (2 * num + den) // (2 * den)


def _atan_w(x: float, w: int) -> int:
    # arctan x at scale 2^w within 1.01 units: verify._atan_fixed at wp = w + 40 errs by three
    # centre values' errors, one fine value's and 11 units more, under 793 + 0.51*wp units of
    # 2^-wp at any wp (verify._table), so by under 0.01 units of 2^-w for w below 2^34 once
    # shifted down, and the shift floors one more
    return _atan_fixed(x, w + 40) >> 40


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
        out.append(_nearest(_tangent_number(m) * p * pw, den << (deep - bits)))
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
def _cheb_ints(count: int, w: int) -> tuple:
    # c_k*2^w rounded to the nearest integer for k = 0..count-1, c_k = 2(-1)^k r^(2k+1)/(2k+1)
    # with r = sqrt2 - 1, the coefficients of cheb_kernel (Mason & Handscomb, ch. 5). Worked at
    # W = w + 16 bits with floored steps, each below its value: r by isqrt within one unit,
    # r^2 by a product within 2r + 2 < 2.83, and p_k = r^(2k+1) by p_(k+1) = p_k*r^2 within
    # e_(k+1) <= r^2*e_k + 2.83*r^(2k+1) + 1, so e_0 = 1, e_1 < 2.35 and e_k < 1.61 after.
    # 2p_k/(2k+1), floored, then lies within 2e_k + 1 < 6 units of 2^-W, under 2^-13 units of
    # 2^-w, so each rounded c_k lies within 1/2 + 2^-13 units of its value.
    big = w + 16
    r = math.isqrt(2 << (2 * big)) - (1 << big)
    r2, p, out = (r * r) >> big, r, []
    for k in range(count):
        c = (((2 * p) // (2 * k + 1)) + (1 << 15)) >> 16
        out.append(-c if k % 2 else c)
        p = (p * r2) >> big
    return tuple(out)


def cheb_kernel(n: int, u: int, e_u: float, w: int):
    """series.cheb_arctan at u*2^-w in [0, 1], given within e_u units."""
    # f_n = sum_{k<=n} c_k T_(2k+1)(u) by Clenshaw in y = 2T_2(u) = 4u^2 - 2 over k = n..0,
    # since T_(2k+3) = y*T_(2k+1) - T_(2k-1) and T_(-1) = T_1 = u: f_n = u*(b_0 - b_1). y is
    # exact at scale 2^(2w), so each step's floor and its coefficient's rounding (_cheb_ints),
    # under 1.51 units, act as a change of c_k by as much, which moves f_n by that times
    # |T_(2k+1)(u)| <= 1; the final product floors once. Across u, f_n = arctan - E with
    # |E'| <= sum_{k>n} |c_k|(2k+1)^2 <= sum_{k>=1} 2(2k+1)r^(2k+1) < 0.6, so |f_n'| < 1.6,
    # which bounds e_u's effect.
    w2 = 2 * w
    y = 4 * u * u - (2 << w2)
    b1 = b2 = 0
    for ck in _cheb_ints(MAX_ORDER + 1, w)[n::-1]:
        b1, b2 = ck + ((y * b1) >> w2) - b2, b1
    return (u * (b1 - b2)) >> w, 1.51 * (n + 1) + 1 + 1.6 * e_u


def _unit_u(x: float, w: int):
    # (u, e_u): u = x in [0, 1] at scale 2^w, floored, so exact or within one unit
    require_unit(x, "u")
    p, q = x.as_integer_ratio()
    u, r = divmod(p << w, q)
    return u, 1 if r else 0


def _lift_u(x: float, w: int):
    # (u, e_u): u = x/(1 + sqrt(1 + x^2)) at scale 2^w for x >= 0. With x = p/q exact,
    # u = p/(q + sqrt(q^2 + p^2)). The denominator d, scaled by 2^w with its root floored,
    # lies within one unit below its value, which is at least 2^(w+1), so the quotient
    # moves by under u*2^w/d < 1 unit, and its floor adds one: u within 2 units.
    require_nonnegative(x)
    p, q = x.as_integer_ratio()
    d = (q << w) + math.isqrt((q * q + p * p) << (2 * w))
    return min((p << (2 * w)) // d, 1 << w), 2


def direct_fixed(kernel, lift, n, x: float, w: int):
    """(m, err) for E = f(x) - arctan x: the kernel in integers less arctan x from _atan_w.

    The one fixed-point rule of every registry row, the counterpart of
    families.ulp_rule. kernel(n, u, e_u, w) returns f's inner kernel at u*2^-w,
    given within e_u units, scaled by 2^w with its error in units; u is x on
    [0, 1] (lift False), or the lift's u (lift True), and f is twice the kernel
    there. With lift None the kernel takes x itself, exact: kernel(n, x, w).
    families.Approximant picks lift from the row's domain.
    """
    if lift is None:
        f, err = kernel(n, x, w)
    elif lift:
        f, err = kernel(n, *_lift_u(x, w), w)
        f, err = 2 * f, 2 * err
    else:
        f, err = kernel(n, *_unit_u(x, w), w)
    return f - _atan_w(x, w), err + 1.01


_MASTER_GUARD = 16  # bits master_kernel carries beyond w


def master_kernel(pair, x: float, w: int):
    """master.master_bounds' side k*D*a_n(x) for pair = (n, constant_side), x >= 0 exact.

    k is g_n(pi/2) from master_params on the constant side, else 1; its distance
    from g_n(pi/2) is the scan's mpf term's (verify._mpf_term_bits).
    """
    # With t = arctan x and x = p/q exact, R = sqrt(p^2 + q^2), cos t = q/R and sin t = p/R;
    # D*a_n = D*sin t/den, den = sum_j (-1)^(n-j) e_j 2^j l_j, l_0 = cos t, l_(j+1) = l_j +
    # sqrt(sin^2 t + l_j^2) (master._a_n), all at W = w + _MASTER_GUARD bits. In units of 2^-W:
    # - r = isqrt(R^2*2^(2W)) lies in (R*2^W - 1, R*2^W], R >= 1, so (q << 2W)/r exceeds
    #   cos t*2^W by under 2^W/r < 1.001, and its floor lies within 1.001; sin t likewise.
    # - A root moves by at most the sum of its arguments' errors and floors one unit more,
    #   so e_(j+1) <= 2e_j + 2.001 and e_j < 3.01*2^j: each radical step can double an error.
    # - den then errs by under 3.01*sum_j e_j 4^j = 3.01*prod_{k<=n} (1 + 4^k) < 6D, as
    #   prod_k (4^k + 1)/(4^k - 1) < 1.97, and den = D*g_n(t)*sin t/t > D*(15/16)*(2/pi) >
    #   0.59D (D*a_n = t/g_n(t); g_n lies between 1 and g_n(pi/2), within 4^-n of 1 and above
    #   it for odd n): under 10.2 units relative for every n, so G need not grow with n.
    # - V = k*D*sin t/den = k*t/g_n(t) < (pi/2)(5/4) < 2, so den moves V by under 20.4
    #   units, k's floor (k >= 15/16) by 2.2, and sin t's 1.001 by k*D*1.001/den < 2.2.
    # Under 25 units of 2^-W is under 0.001 of 2^-w, and the quotient's floor there adds one.
    n, constant_side = pair
    require_nonnegative(x)
    big = w + _MASTER_GUARD
    kd, terms = _master_constants(n, constant_side, big)
    p, q = x.as_integer_ratio()
    r = math.isqrt((p * p + q * q) << (2 * big))
    ell, sin = (q << (2 * big)) // r, (p << (2 * big)) // r
    ss, den = sin * sin, terms[0] * ell
    for c in terms[1:]:
        ell += math.isqrt(ss + ell * ell)
        den += c * ell
    return (kd * sin) // (den << _MASTER_GUARD), 1.01


@lru_cache(maxsize=None)
def _master_constants(n: int, constant_side: bool, big: int) -> tuple:
    # k*D at scale 2^big, k = g_n(pi/2) floored there or 1, and the integers (-1)^(n-j) e_j 2^j.
    # g_n(pi/2) is k_high for odd n, else k_low (master.constant_side).
    params = master_params(n)
    k = params.k_high if n % 2 else params.k_low
    kd = (to_fixed(k._mpf_, big) if constant_side else 1 << big) * params.denom_product
    return kd, _signed_e(n, MPF)


@lru_cache(maxsize=None)
def _constants(w: int) -> tuple:
    # pi, 4/pi and sqrt2 at scale 2^w: pi within 1.01 units (mpmath's pi_fixed); 4/pi =
    # 2^(2w+2)/pi, within 4*1.01/pi^2 < 0.41 units before its floor and 1.41 after; sqrt2 by
    # isqrt, floored, within one
    pi = pi_fixed(w)
    return pi, (4 << 2 * w) // pi, math.isqrt(2 << (2 * w))


def t4_kernel(n, u: int, e_u: float, w: int):
    """Half of core.theorem4_upper at the lift's u, n ignored.

    That is pi*u/((4/pi)*(1 - u^2) + sqrt2*(1 + u)*sqrt(1 + u^2)), u*2^-w in [0, 1] given
    within e_u units.
    """
    # With t = arctan x = 2*arctan u, sin t = 2u/(1 + u^2), cos t = (1 - u^2)/(1 + u^2) and
    # sqrt(2 + 2 sin t) = sqrt2*(1 + u)/sqrt(1 + u^2); multiplying pi*sin t/((4/pi)*cos t +
    # sqrt(2 + 2 sin t)) through by 1 + u^2 gives twice F = pi*u/D. D, at scale 2^(3w) with
    # u^2 exact, errs by under 4.25 units of 2^-w for w >= 16: 4/pi's 1.41 times 1 - u^2 <= 1,
    # sqrt2's one times (1 + u)*sqrt(1 + u^2) <= 2.83, and the floored root of 1 + u^2, within
    # one unit of 2^-2w, and the final shift, under 0.01. D' >= 1 + u + 2u^2 - (8/pi)*u > 0.7,
    # since sqrt2*d((1 + u)*sqrt(1 + u^2))/du = sqrt2*(1 + u + 2u^2)/sqrt(1 + u^2), so D >=
    # 4/pi + sqrt2 + 0.7u > 2.68 + 0.7u: u/D < 0.3 and pi*u/D^2 < 0.28 on [0, 1]. pi's 1.01
    # units times u then move F by under 0.31 units, D's error, under 0.001*D, by under
    # 0.28*4.25/0.999 < 1.2, and the quotient floors once: 2.51 units. Across u, D' <= 4 (the
    # root's derivative grows to 4 at u = 1), so 0 <= u*D' <= 4 < 2D and |F'| = pi*|D -
    # u*D'|/D^2 <= pi/D < 1.17, which bounds e_u's effect.
    w2 = 2 * w
    pi, four_over_pi, sqrt2 = _constants(w)
    uu = u * u
    root = math.isqrt(((1 << w2) + uu) << w2)
    den = four_over_pi * ((1 << w2) - uu) + ((sqrt2 * ((1 << w) + u) * root) >> w)
    return (pi * u << w2) // den, 2.51 + 1.17 * e_u


def lagrange_kernel(n, u: int, e_u: float, w: int):
    """core.lagrange_p in its collected form, n ignored; t5 takes it at the lift's u."""
    # The two Lagrange terms collect to (pi/16)*u*(4 + sqrt2*(1 - u)): (pi/4)*u*(u - sqrt2 +
    # 1)/(2 - sqrt2) has coefficients pi*(2 + sqrt2)/8 times u^2 + (1 - sqrt2)*u, and
    # (pi/8)*u*(u - 1)/((sqrt2 - 1)*(sqrt2 - 2)) = -pi*(4 + 3*sqrt2)/16 times u^2 - u. In one
    # product at scale 2^(4w), floored once: pi's 1.01 units times u*(4 + sqrt2*(1 - u))/16,
    # which grows on [0, 1] to 4/16, move it by under 0.26 units, sqrt2's one times
    # (pi/16)*u*(1 - u) <= pi/64 by under 0.05, and the floor adds one: 1.31 units. Across u,
    # p'(u) = (pi/16)*(4 + sqrt2 - 2*sqrt2*u) lies in [0.5, 1.07], which bounds e_u's effect.
    pi, _, sqrt2 = _constants(w)
    return (pi * u * ((4 << 2 * w) + sqrt2 * ((1 << w) - u))) >> (3 * w + 4), 1.31 + 1.07 * e_u


def cf_kernel(n: int, u: int, e_u: float, w: int):
    """series.cf_arctan's depth-n convergent at u*2^-w in [0, 1], given within e_u units."""
    # d_k = (2k - 1) + k^2 u^2/d_(k+1) from d_(n+1) = 2n + 1, each step floored with u^2
    # exact at scale 2^(2w), and cf_n = u/d_1, floored. Computed and exact d_(k+1) are at
    # least 2k + 1 and u <= 1, so an error in d_(k+1) moves d_k by k^2/(2k + 1)^2 < 1/4 of
    # it: the floors leave d_1 within 4/3 units, which moves u/d_1, d_1 >= 1, by 4/3 more,
    # and its floor adds one: 3.67 units. Across u, |dd_k/du| <= 2k^2/(2k + 1) + |dd_(k+1)/du|/4 < k + |dd_(k+1)/du|/4, so
    # |dd_1/du| <= sum_j (j + 1)/4^j = 16/9 and |d(u/d_1)/du| <= 1 + 16/9 < 2.78.
    uu = u * u
    d = (2 * n + 1) << w
    for k in range(n, 0, -1):
        d = ((2 * k - 1) << w) + k * k * uu // d
    return (u << w) // d, 3.67 + 2.78 * e_u


@lru_cache(maxsize=None)
def _quartic_coefficients(w: int) -> tuple:
    # 1/(4j+1), 1/(2j+1) and 2/(4j+3) at scale 2^w, each rounded to the nearest unit, for
    # j = 0..MAX_ORDER: row j of the quartic-ratio series is q^j*(g/(4j+1) + g^2/(2j+1) +
    # 2g^3/(4j+3)), q = -4g^4, and these rows make the partial sums s_n
    one, rows = 1 << w, range(MAX_ORDER + 1)
    return tuple((_nearest(one, 4 * j + 1), _nearest(one, 2 * j + 1), _nearest(2 * one, 4 * j + 3)) for j in rows)


def _s_t(n: int, u: int, e_u: float, w: int, s: bool = True, t: bool = True) -> tuple:
    # s_kernel's and t_kernel's (m, err) at u, whose rows w_kernel blends, summed in one pass
    # over one coefficient lookup, each row with its own floors; a row not asked for takes
    # g = 0, whose sum 0 the pass skips. s's g = u/(1 + u), floored, lies within 1 + e_u units,
    # since dg/du <= 1; t's g = (1 - u)/2, floored, within (1 + e_u)/2, and pi/4 within 1.01
    # (mpmath's pi_fixed). series._quartic_rows(n, g) at g*2^-w in [0, 1/2], scale 2^w, is g*(A +
    # g*(B + g*C)) with A, B, C summing q^j times row j's three coefficients
    # (_quartic_coefficients), at most 1, 1 and 2/3, by Horner in q = -4g^4, floored once (1
    # unit). A step errs by its coefficient (1/2 unit), its floor (1), the previous error
    # times |q| <= 1/4, and q's unit times the previous sum, under 4/3 of the next
    # coefficient, at most 0.45: so each of A, B, C within 1.95*4/3 < 2.6 units. The three
    # products with g <= 1/2 and their floors leave B + g*C within 4.9 units, A + g*(...)
    # within 6.05 and the sum within 4.03. Across g, |ds_n/dg| <= sum_j 4^j g^(4j)*(1 + 2g +
    # 2g^2) <= 2.5*sum_j 4^-j < 3.34, which bounds the effect of g's error.
    one, sh = 1 << w, 3 * w - 2
    g, h = (u << w) // (u + one) if s else 0, (one - u) >> 1 if t else 0
    q, r = -((g * g) ** 2 >> sh), -((h * h) ** 2 >> sh)
    a = b = c = d = e = f = 0
    for ca, cb, cc in _quartic_coefficients(w)[n::-1]:
        if g:
            a, b, c = ca + ((q * a) >> w), cb + ((q * b) >> w), cc + ((q * c) >> w)
        if h:
            d, e, f = ca + ((r * d) >> w), cb + ((r * e) >> w), cc + ((r * f) >> w)
    s_n = (g * (a + ((g * (b + ((g * c) >> w))) >> w))) >> w
    t_n = pi_fixed(w - 2) - ((h * (d + ((h * (e + ((h * f) >> w))) >> w))) >> w) if t else 0
    return (s_n, 4.1 + 3.34 * (1 + e_u)), (t_n, 1.01 + 4.1 + 1.67 * (1 + e_u))


def s_kernel(n: int, u: int, e_u: float, w: int):
    """series.taylor1_s at u*2^-w in [0, 1], given within e_u units."""
    return _s_t(n, u, e_u, w, True, False)[0]


def t_kernel(n: int, u: int, e_u: float, w: int):
    """series.taylor1_t: pi/4 minus the partial sum at g = (1 - u)/2."""
    return _s_t(n, u, e_u, w, False, True)[1]


def _blend_weight(p: int, u: int, w: int) -> int:
    # l = u^p/(u^p + v^p) at scale 2^w for u*2^-w in [0, 1], v = 1 - u, within 1.01 units.
    # With a <= b the smaller and larger of u and v, the ratio r = a/b floored at W = w + g
    # bits, g = ceil(log2 p) + 8, lies within one unit below its value in [0, 1], and R = r^p
    # by floored squarings within p + p - 1 < 2p units below: each product of two values
    # in [0, 1] errs by the sum of their errors and one unit for its floor. l = R/(1 + R),
    # or 1/(1 + R) where u > v, moves by at most R's error, 2p*2^-g <= 1/128 units of 2^-w,
    # and floors once there.
    big = w + (p - 1).bit_length() + 8
    v = (1 << w) - u
    r, rp = (min(u, v) << big) // max(u, v), 1 << big
    for bit in bin(p)[2:]:  # r^p, leading bit first
        rp = (rp * rp) >> big
        if bit == "1":
            rp = (rp * r) >> big
    return ((rp if u <= v else 1 << big) << w) // ((1 << big) + rp)


def w_kernel(n: int, u: int, e_u: float, w: int):
    """series.blend_w: the blend of t_kernel and s_kernel with the weights of blend_w."""
    # w_n = l*t_n + (1 - l)*s_n, l within 1.01 units for this u (_blend_weight) and within
    # 1.01 + p*e_u of its value: |dl/du| = p*l(1 - l)/(uv) = p*(cosh(s/2)/cosh(ps/2))^2 <= p
    # with u/v = e^s. That moves w_n by as many units times |t_n - s_n|; the blend of the
    # two values adds the larger of their errors, and its floor one unit.
    p, one = 4 * n + 4, 1 << w
    (s, e_s), (t, e_t) = _s_t(n, u, e_u, w)
    lam = _blend_weight(p, u, w)
    gap = (abs(t - s) + e_t + e_s) / one
    return (lam * t + (one - lam) * s) >> w, max(e_t, e_s) + (1.01 + p * e_u) * gap + 1
