"""Float errors of the series families, summed from each family's own tail.

A family whose error has a cancellation-free series gets it here in float,
as (e, b): e approximates the error E = f - arctan x, and b bounds the float
computation's distance from E. The series:

- master, and sf and t2, which are master 1 and 2: D*a_n(x) = theta/g_n(theta)
  with theta = arctan x, and S = 1 - g_n(theta) = sum_{m>n} b_m p_n(4^-m)
  theta^(2m), b_m = 2^(2m)|B_2m|/(2m)! the coefficients of y*cot y (DLMF
  4.19). The unit side has E = theta*S/(1 - S), the side with the constant
  g_n(pi/2) has E = theta*(S(theta) - S(pi/2))/(1 - S(theta)).
- s, t and w: the tail of the quartic-ratio series past row n.
- cheb: -sum_{k>n} c_k T_(2k+1)(x) (Mason & Handscomb, ch. 5).
- lifted rows: 2*E_inner(u), since arctan x = 2*arctan u.

The bounds are first order in the unit roundoff U; every constant carries a
few percent of slack for the second-order terms. Quantities that underflow
err by under 2^-1000 absolutely, which the scan's mpf term absorbs. b does
not include that term, nor the final ulp(e): the scan's guard adds both (see
``verify``).
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp

from .master import MAX_ORDER, denominator_product, pn_coefficients
from .numerics import require_nonnegative, require_unit
from .series import cheb_coefficients

U = 2.0**-53  # unit roundoff of a double
_MASTER_TERMS = 30  # terms of master's S past t^(n+1); H takes n + 1 more
_SUM_TERMS = 41  # terms of master's c_m summed for the d_i
_CHEB_TERMS = 22  # tail terms summed for cheb; the rest is under U*|c_(n+1)|/8
_QUARTIC_TERMS = 30  # the most rows a quartic tail sums; |q| <= 1/4 needs 29
with mp.workdps(30):  # the nearest doubles to 2/pi and 4/pi^2, each within U
    _TWO_OVER_PI, _FOUR_OVER_PI2 = float(2 / mp.pi), float(4 / mp.pi**2)


def _horner_constants(coeffs):
    # Horner coefficients of sum_i a_i t^i (highest degree first, rounded once to float)
    # for exact a_i of one sign, the last of coeffs being the first one left out; the
    # mean degree plus one, M = sum (i+1)|a_i| / sum |a_i|; and the rest of the series
    # relative to its sum, for t in [0, 1] and terms past the last shrinking by 1/3:
    # 1.5*|a_K|/|a_0|. The running mean of i + 1 in sum (i+1)|a_i| t^i / sum |a_i| t^i
    # grows with t (its derivative in log t is a variance), so M bounds it on [0, 1].
    *a, after = (float(ai) for ai in coeffs)
    m = sum((i + 1) * abs(ai) for i, ai in enumerate(a)) / sum(abs(ai) for ai in a)
    return tuple(reversed(a)), m * 1.001, 1.5 * abs(after) / abs(a[0]) * 1.001


def _horner_error(m, d_t):
    # relative error of the float Horner sum of sum_i a_i t^i, one-signed a_i, t in [0, 1]
    # given with relative error d_t: the steps' roundings, 2U per step of a partial sum
    # that reaches the result times t^j, add 2U*sum (i+1)|a_i| t^i <= 2U*M of the sum;
    # the coefficients' rounding U; t's error (M - 1)*d_t, since t*P'/P = M(t) - 1
    return (2 * m + 1) * U + (m - 1) * d_t


@lru_cache(maxsize=None)
def _master_series(n: int) -> tuple:
    # S(t) = t^(n+1)*P(t) with P(t) = sum_i c_(n+1+i) t^i, and H(t) = sum_i d_i t^i with
    # d_i = sum_{m > max(i, n)} c_m, as _horner_constants of each. c_m = b_m*p_n(4^-m)*
    # (pi/2)^(2m) with b_m = 2^(2m)|B_2m|/(2m)! = T_m/((4^m - 1)(2m - 1)!), T_m the m-th
    # tangent number: the exact rational part from T_m and the integers D*A_k of
    # pn_coefficients, over one common denominator, times (pi/2)^(2m) at 40 digits.
    # The d_i sum _SUM_TERMS terms; the rest, under 1.5*3^-41*|c_(n+1)| in each of the
    # n + 32 of them, moves H by under U/50 of itself, which the budget's slack covers.
    # Built on first use, so master_params costs nothing more.
    d_n = denominator_product(n)
    ints = [int(a * d_n) for a in pn_coefficients(n)]  # D*A_k, exact
    tangent = _tangent_numbers()
    with mp.workdps(40):
        c, pi2 = [], (mp.pi / 2) ** 2
        pw = pi2**n
        for m in range(n + 1, n + 1 + _SUM_TERMS):
            pw *= pi2  # (pi/2)^(2m)
            p = sum(a_k << (2 * m * (n - k)) for k, a_k in enumerate(ints))  # D*4^(mn)*p_n(4^-m)
            den = ((1 << 2 * m) - 1) * math.factorial(2 * m - 1) * d_n << (2 * m * n)
            c.append(mp.mpf(tangent[m] * p) / den * pw)
        d = [mp.mpf(0)]
        for cm in reversed(c):
            d.append(d[-1] + cm)
        d = d[: -_MASTER_TERMS - 3 : -1]  # d_n, ..., d_(n+_MASTER_TERMS+1)
        return _horner_constants(c[: _MASTER_TERMS + 1]) + _horner_constants([d[0]] * n + d)  # d_0..d_n = d[0]


@lru_cache(maxsize=None)
def _tangent_numbers() -> list:
    # T_0..T_top for every order, T_0 = 0: the integers with tan y = sum T_m y^(2m-1)/(2m-1)!,
    # by the Brent-Harvey recurrence, exact and cheap where bernfrac computes each B_2m
    # numerically (tests/test_tails.py checks b_m against bernfrac)
    top = MAX_ORDER + _SUM_TERMS
    t = [0, 1] + [0] * (top - 1)
    for k in range(2, top + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, top + 1):
        for j in range(k, top + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


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
    # 3U; omega by 5U (1/x by U, math.atan by one ulp, the constant and the product by
    # U each).
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
    # operations add 14U, H its own error, 1 - S 1.34*(|S|*r_s + U)
    h = 0.0
    for a in hs:
        h = h * t + a
    tau = theta * _TWO_OVER_PI
    e = -theta * (math.atan(1 / x) * _TWO_OVER_PI * (1 + tau)) * h / (1 - s)
    r_h = _horner_error(m_h, d_t) + rest_h
    return e, abs(e) * (14 * U + r_h + 1.34 * (abs(s) * r_s + U)) * 1.01


@lru_cache(maxsize=None)
def _quartic_series(n: int) -> tuple:
    # Horner coefficients, highest j first, of the three series in q below: 1/(4j+1),
    # 1/(2j+1) and 1/(4j+3) for j = n+1..n+_QUARTIC_TERMS, each quotient rounded once
    js = range(n + _QUARTIC_TERMS, n, -1)
    return tuple((1 / (4 * j + 1), 1 / (2 * j + 1), 1 / (4 * j + 3)) for j in js)


def _quartic_tail(n: int, g: float, eps: float):
    # (T, bound) for T = sum_{j>n} q^j*(g/(4j+1) + 2g^2/(4j+2) + 2g^3/(4j+3)), q = -4g^4,
    # 0 <= g <= 1/2 given with relative error eps: T = q^(n+1)*(g*A(q) + g^2*B(q) +
    # 2g^3*C(q)), each of A, B, C a series sum_i q^i/(4(n+1+i) + a) in q.
    #
    # The rows alternate and shrink by |q| <= 1/4, so |T| >= (1 - |q|)*|row n+1|, and
    # the rows after the first K add to at most |q|^K times row n+1: K is taken so
    # that |q|^K <= 2^-58. Row j holds g^(4j+1), g^(4j+2) and g^(4j+3), so eps moves T
    # by sum_j (4j+3)|row j|*eps <= ((4n+7)/(1 - |q|) + 4|q|/(1 - |q|)^2)*|row n+1|*eps.
    # Float error: q errs by 3U, and q^(n+1), a pow within one ulp, by (3n + 5)U. Each of
    # A, B, C alternates with terms shrinking by |q|: its steps err by 2U of partial
    # sums under each step's first coefficient, 2U*(4/3) of the first in all, and the sum
    # is at least 3/4 of it, so 3.56U; the coefficients add 1.78U and q's 3U another 1.8U
    # (|q*A'/A| <= 0.6). g^2 errs by U, 2g^3 by 2U; combining adds 5U and the last
    # product U. In all (3n + 19)U, and the rows past K 1.78*2^-58 of T.
    q = -4 * (g * g) ** 2
    aq = abs(q)
    k = min(_QUARTIC_TERMS, int(58 / -math.log2(aq)) + 1) if aq > 2.0**-58 else 1
    a = b = c = 0.0
    for ca, cb, cc in _quartic_series(n)[-k:]:
        a, b, c = a * q + ca, b * q + cb, c * q + cc
    g2 = g * g
    tail = q ** (n + 1) * (g * a + g2 * b + 2 * (g2 * g) * c)
    grow = ((4 * n + 7) / (1 - aq) + 4 * aq / (1 - aq) ** 2) / (1 - aq)
    return tail, abs(tail) * (grow * eps + (3 * n + 19) * U + 1.78 * 2.0**-58) * 1.01


def s_error(n: int, u: float, v: float, eps_u: float, eps_v: float):
    """(e, b) for s_n at u in [0, 1], v = 1 - u, each given with its relative error."""
    # g = u/(u + 1) errs by eps_u (the map shrinks relative error) plus U for u + 1
    # and U for the quotient; E_s = -tail(g)
    e, b = _quartic_tail(n, u / (u + 1), eps_u + 2.01 * U)
    return -e, b


def t_error(n: int, u: float, v: float, eps_u: float, eps_v: float):
    """(e, b) for t_n: pi/4 - arctan u = arctan((1 - u)/(1 + u)), so E_t = tail((1 - u)/2)."""
    return _quartic_tail(n, v / 2, eps_v)


def w_error(n: int, u: float, v: float, eps_u: float, eps_v: float):
    """(e, b) for w_n, the blend of the s and t errors with the weights of blend_w."""
    # E_w = l*E_t + (1 - l)*E_s with l = u^p/(u^p + v^p). E_t and E_s have opposite
    # signs, so the budget is taken on M = l*|E_t| + (1 - l)*|E_s|, not on |E_w|. The
    # weights err by p*eps + 2U each (pow within one ulp), which moves l by
    # l*(1 - l)*(p*(eps_u + eps_v) + 4U) and E_w by that times |E_t - E_s| <= M/(l*(1 - l));
    # the blend's two products, sum and quotient add 4U of M, and the rest 1.01 covers.
    p = 4 * n + 4
    e_t, b_t = t_error(n, u, v, eps_u, eps_v)
    e_s, b_s = s_error(n, u, v, eps_u, eps_v)
    wu, wv = u**p, v**p
    e = (wu * e_t + wv * e_s) / (wu + wv)
    lu, lv = wu / (wu + wv), wv / (wu + wv)  # l and 1 - l, each relative to itself
    m = lu * abs(e_t) + lv * abs(e_s)
    return e, (lu * b_t + lv * b_s + (p * (eps_u + eps_v) + 9 * U) * m) * 1.01


@lru_cache(maxsize=None)
def _cheb_coefficients() -> tuple:
    # c_k for k = 0..MAX_ORDER + L + 1 at 30 digits, each rounded once to float; and
    # 1/(1 - r^2), r = sqrt2 - 1
    with mp.workdps(30):
        r = mp.sqrt(2) - 1
        c = cheb_coefficients(MAX_ORDER + _CHEB_TERMS + 1, r)
        return tuple(float(ck) for ck in c), float(1 / (1 - r * r))


@lru_cache(maxsize=None)
def _cheb_series(n: int) -> tuple:
    # Horner coefficients, highest k first, of C(y) = sum_i c_(n+1+i) y^i over the
    # L = _CHEB_TERMS tail orders; ka = (2n+3)*A0 + 2*A1 and kb = (4.48n + 11)*A0 + 5.5*A1
    # for A0 = sum |c_(n+1+i)| and A1 = sum i|c_(n+1+i)| (in float, which 1.01 covers);
    # and the rest of the tail, sum_{k>n+L} |c_k| <= |c_(n+L+1)|/(1 - r^2).
    coeffs, ratio = _cheb_coefficients()
    c = coeffs[n + 1 : n + _CHEB_TERMS + 1]
    a0 = sum(abs(ck) for ck in c)
    a1 = sum(i * abs(ck) for i, ck in enumerate(c))
    ka, kb = (2 * n + 3) * a0 + 2 * a1, (4.48 * n + 11) * a0 + 5.5 * a1
    return c[::-1], ka, kb, abs(coeffs[n + _CHEB_TERMS + 1]) * ratio * 1.001


def cheb_error(n: int, x: float, v: float, eps_x: float, eps_v: float):
    """(e, b) for the order-n Chebyshev truncation at x in [0, 1], v = 1 - x."""
    # With x = cos(phi), T_j(x) = Re z^j for z = e^(i*phi) = x + i*s, s = sqrt((1 - x)(1 + x)),
    # so E = -sum_{k>n} c_k Re z^(2k+1) = -Re(z^(2n+3)*C(z^2)).
    #
    # Float error, relative to |z| = 1: s errs by eps_s = (eps_v + eps_x + 2U)/2 + U (1 + x,
    # the product, the root), so z by eta = x*eps_x + s*eps_s; y = z^2 by 2*eta + sqrt5*U (a
    # complex product errs by sqrt5*U, a sum by U); z^(2n+3) = z*y^(n+1) by (2n+3)*eta +
    # 4.48(n+1)*U. Horner on |y| = 1 errs by (sqrt5 + 1)U*sum (i+1)|c_i| for its steps, U*A0
    # for the coefficients, and (2*eta + sqrt5*U)*A1 for y; the last product by sqrt5*U*A0.
    # |C| <= A0, so the sum errs by eta*ka + U*kb, plus the rest of the tail (_cheb_series).
    cs, ka, kb, rest = _cheb_series(n)
    s = math.sqrt(v * (1 + x))
    z = complex(x, s)
    y = z * z
    acc = 0j
    for ck in cs:
        acc = acc * y + ck
    for _ in range(n + 1):  # z^(2n+3)
        z *= y
    eta = x * eps_x + s * ((eps_v + eps_x + 2 * U) / 2 + U)
    return -(z * acc).real, (eta * ka + U * kb) * 1.01 + rest


def on_unit(error, n: int, x: float):
    """error at u = x in [0, 1], exact, with v = 1 - x (exact from 1/2 up, else within U)."""
    require_unit(x, "u")
    return error(n, x, 1 - x, 0.0, U)


def lifted(error, n: int, x: float):
    """2*error at u = x/(1 + sqrt(1 + x^2)) for x >= 0, with v = 1 - u free of cancellation."""
    # s = hypot(1, x) errs by one ulp (2U); u = x/(1 + s) then by 4U, and
    # v = (1 + 1/(s + x))/(1 + s), since s - x = 1/(s + x), by 9U
    require_nonnegative(x)
    s = math.hypot(1.0, x)
    u = x / (1 + s)
    v = (1 + 1 / (s + x)) / (1 + s)
    e, b = error(n, u, v, 4.01 * U, 9.01 * U)
    return 2 * e, 2 * b
