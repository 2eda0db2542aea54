"""Integer fixed point: the oracle's arctan and every registry row's kernel.

Each function is a short run of floored integer steps at a scale 2^w (2^wp for
the oracle's arctan), its bound in units of that scale proved once in a comment
(Brent & Zimmermann, Modern Computer Arithmetic, ch. 1 and 4).

The oracle's arctan calls no library arctangent. It holds x, or 1/x above 1, as
a ratio of integers and reduces it exactly, by Gaussian integer products, against
the centres k/64 and then the fine points j/2^13 (_atan_reduced, _table); one
quotient, under 2^-14, feeds the Maclaurin series at guard bits beyond the working
precision, an argument, not the mpmath context. atan_rounded rounds once, to 1 ulp.

The scan's fixed-point tier has two rules, each a row's kernel at scale 2^w less
atan_fixed, the oracle's reduction floored to 2^-w, within 1.01 units of it:
master_kernel, a side of master's pairs at x itself, and direct_fixed, every
other row's kernel at u = x on [0, 1] or at the lift's u.
The kernels are master's nested radicals (sf and t2 too), t4 and lagrange in
closed form (t5 is lagrange at the lift's u), cheb's Clenshaw sum, cf's backward
recurrence (Cuyt et al., Handbook of Continued Fractions for Special Functions,
ch. 11), and the quartic rows' partial sums (s, t and their blend w). pi, here
and in master's constants and coefficients, is pi_fixed(bits), pi*2^bits within
one unit: mpmath's floor(pi*2^bits), Chudnovsky's series summed 10 or more bits
deeper and shifted down, memoized there; mp.pi, which the mpf kernels read,
rounds the same series. In err each floor adds under one unit, each
coefficient, derived exactly or with guard bits and rounded once, under 1/2 and
a little, and each constant its proved units; the sums are arranged (Clenshaw in
2T_2(x), cf's recurrence, which shrinks an error by 4 a step, Horner in q below
1) so that no step's error grows on its way to the result, master's radicals,
which can double an error a step, run at guard bits, and the closed forms floor
only a root, a shift and their final quotient or product. e_u, the units a
kernel's argument lies off by (x is exact or floored, the lift's u within 2),
enters err through a proved bound on the kernel's slope. The scan's guard adds
the mpf term and the final rounding up (verify._fixed_error).
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import from_man_exp, pi_fixed, round_nearest

from .numerics import require_nonnegative, require_unit, shown

MAX_ORDER = 16  # every row with an order takes n_min..MAX_ORDER, and both tiers' rules hold over it
_GUARD_BITS = 24  # fixed-point bits the oracle carries beyond the working precision
_CENTRES = 2**6  # the oracle reduces against the centres k/_CENTRES, k = 0.._CENTRES
_FINE = 2**13  # and what is left against the fine points j/_FINE, j = 0.._CENTRES
_MASTER_GUARD = 16  # bits master_kernel carries beyond w


def nearest(num: int, den: int) -> int:
    # num/den rounded to the nearest integer, den > 0
    return (2 * num + den) // (2 * den)


def _series(y2: int, wp: int) -> int:
    # arctan(y)/y = sum (-1)^j y^(2j)/(2j+1) scaled by 2^wp, from y^2 so scaled; two terms a pass
    s, p, d = 0, 1 << wp, 1
    while p:
        s += p // d
        p = (p * y2) >> wp
        s -= p // (d + 2)
        p = (p * y2) >> wp
        d += 4
    return s


def _atan_small(z: int, wp: int) -> int:
    # arctan(z) scaled by 2^wp from z scaled by 2^wp, for |z| <= 2^-6
    return (z * _series((z * z) >> wp, wp)) >> wp


@lru_cache(maxsize=None)
def _table(n: int, wp: int) -> tuple:
    # T_k = arctan(k/n) scaled by 2^wp for k = 0..N, N = _CENTRES, built once per n and wp on
    # first use, chained through arctan((k+1)/n) - arctan(k/n) = arctan(n/(n^2 + k(k+1))) <= 1/n.
    # A link errs by under 3 + 2*terms/n units of 2^-wp (the quotient and the final product
    # under one each; the series' error, under 1.5 units a term, scaled by its argument), and
    # the series takes under wp/(2*log2 n) + 2 terms, so T_k errs by under k links at any wp.
    # The centres (n = N) err by under N*(3.07 + wp/384): under 2^9 up to wp of about 1,880
    # bits (565 digits), one bit more per doubling of wp beyond. The fine values (n = _FINE)
    # err by under N*(3.001 + wp/106,496): under 2^8 up to wp of about 106,000.
    t = [0]
    for k in range(_CENTRES):
        t.append(t[-1] + _atan_small((n << wp) // (n * n + k * (k + 1)), wp))
    return tuple(t)


def _parts(x):
    # (man, exp) with x = man*2^exp exactly, for a float, an int or an mpf, whatever mp.prec
    if isinstance(x, float):
        man, den = x.as_integer_ratio()  # exact, and cheaper than building an mpf
        return man, 1 - den.bit_length()
    if isinstance(x, mp.mpf):
        return x._mpf_[1:3]
    if isinstance(x, int):
        return int(x), 0
    raise ValueError(f"x must be a float, an int or an mpf, got {shown(x)}")


def _oracle_bits(prec: int) -> int:
    # the oracle's fixed-point bits for a result of prec bits
    return prec + _GUARD_BITS + 16


def atan_fixed(x, w: int) -> int:
    # arctan of x >= 0 scaled by 2^w, within 1.01 units: the oracle's reduction (_atan_reduced)
    # at its working width wp = w + 40, floored where atan_rounded rounds. At any x > 0 and wp
    # it errs by under 793 + 0.51*wp units of 2^-wp (its three centre values and one fine
    # value, _table, and its one quotient and the series, 5), so by under 0.01 units of 2^-w
    # for w below 2^34 once shifted down, and the shift floors one more.
    man, exp = _parts(x)
    wp = _oracle_bits(w)
    return _atan_reduced(man, exp, x > 1, wp) >> (wp - w)


def _atan_reduced(man: int, exp: int, above: bool, wp: int) -> int:
    # arctan x scaled by 2^wp for x = man*2^exp >= 0, above telling x > 1. y = x, or 1/x
    # reflected through pi/2 = 2*T_N, N = _CENTRES, is held exactly as im/re. A step against the
    # points k/n of a table, the centres (n = N), then the fine points j/2^13, takes k nearest
    # n*im/re and multiplies re + i*im by n - ik: that subtracts arctan(k/n) exactly, adds T_k,
    # or -T_(-k), and leaves |im/re| = |y - c|/(1 + y*c) <= 1/(2n), c = k/n, k*y >= 0. im = 0
    # ends it with no series (x = 0, and x = 1, for pi, build no fine table); else one floored
    # quotient z of im/re, within 2^-14, feeds the series, about wp/28 terms. Three centre values
    # enter at most, each within 2^9 units (_table), one fine value within 2^8, and z's floor,
    # the series' floors scaled by |z| and its product's floor under 5: 3*2^9 + 2^8 + 5 < 2^11.
    bits = exp + man.bit_length()  # 2^(bits - 1) <= x < 2^bits
    if bits > wp:  # arctan(1/x) under one unit, read off: no integer much wider than wp and man
        return 2 * _table(_CENTRES, wp)[_CENTRES]
    if bits <= -wp:  # arctan x under one unit, likewise
        return 0
    num, den = man << max(exp, 0), 1 << max(-exp, 0)
    re, im = (num, den) if above else (den, num)
    r = 0
    for n in (_CENTRES, _FINE):
        k = nearest(n * im, re)
        r += _table(n, wp)[k] if k >= 0 else -_table(n, wp)[-k]
        re, im = n * re + k * im, n * im - k * re
        if not im:
            break
    else:
        r += _atan_small((im << wp) // re, wp)
    return 2 * _table(_CENTRES, wp)[_CENTRES] - r if above else r


def atan_rounded(x, prec: int):
    # arctan of x >= 0 rounded once to prec bits; x's parts and both comparisons are exact,
    # so nothing reads mp.prec. x <= 2^-13 = 1/_FINE sums the Maclaurin series relative to x,
    # at x^2 <= 2^-26, so tiny x keeps full relative accuracy. Larger x is reduced
    # (_atan_reduced): the results lie above arctan 2^-13 > 2^-13.01 within 2^11 units of
    # 2^-wp, so wp keeps over 15 bits beyond prec relative to them.
    man, exp = _parts(x)
    wp = _oracle_bits(prec)
    if x <= 1 / _FINE:
        s = _series((man * man << wp) >> -2 * exp, wp)  # x < 1, so exp <= 0
        return mp.make_mpf(from_man_exp(man * s, exp - wp, prec, round_nearest))
    return mp.make_mpf(from_man_exp(_atan_reduced(man, exp, x > 1, wp), -wp, prec, round_nearest))


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


def direct_fixed(kernel, lift: bool, n, x: float, w: int):
    """(m, err) for E = f(x) - arctan x: the kernel in integers less arctan x from atan_fixed.

    The fixed-point rule of every row but the pairs' (master_kernel), like families.ulp_rule.
    kernel(n, u, e_u, w) gives f's inner kernel at u*2^-w, given within e_u units, scaled by
    2^w with its error in units: u is the lift's u if lift, where f is twice the kernel, else
    x in [0, 1], so cf past 1, which its float and mpf kernels take, keeps the mpf tier
    (tests/test_verify.py, test_end_search_runs_where_the_flag_cannot_settle_it[cf(n=2)-0:2-2.0]).
    """
    f, err = kernel(n, *(_lift_u if lift else _unit_u)(x, w), w)
    if lift:
        f, err = 2 * f, 2 * err
    return f - atan_fixed(x, w), err + 1.01


def master_kernel(constants, x: float, w: int):
    """(m, err) for E = k*D*a_n(x) - arctan x, x >= 0 exact: a side of master.master_bounds.

    The pairs' fixed-point rule, the counterpart of master._master_error. constants(big),
    master._master_constants bound to the order and side, gives k*D at scale 2^big and the
    integers (-1)^(n-j) e_j 2^j; k is g_n(pi/2) on the constant side, else 1, its distance
    from g_n(pi/2) the mpf term's (verify._mpf_term_bits).
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
    # Under 25 units of 2^-W is under 0.001 of 2^-w, its floor there adds one, atan_fixed 1.01.
    require_nonnegative(x)
    big = w + _MASTER_GUARD
    kd, terms = constants(big)
    p, q = x.as_integer_ratio()
    r = math.isqrt((p * p + q * q) << (2 * big))
    ell, sin = (q << (2 * big)) // r, (p << (2 * big)) // r
    ss, den = sin * sin, terms[0] * ell
    for c in terms[1:]:
        ell += math.isqrt(ss + ell * ell)
        den += c * ell
    return (kd * sin) // (den << _MASTER_GUARD) - atan_fixed(x, w), 1.01 + 1.01


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
    return tuple((nearest(one, 4 * j + 1), nearest(one, 2 * j + 1), nearest(2 * one, 4 * j + 3)) for j in rows)


def _rows(n: int, g: int, w: int) -> int:
    # series._quartic_rows(n, g) at g*2^-w in [0, 1/2], scale 2^w, is g*(A + g*(B + g*C)) with A, B,
    # C summing q^j times row j's three coefficients (_quartic_coefficients), at most 1, 1 and 2/3,
    # by Horner in q = -4g^4, floored once (1 unit). A step errs by its coefficient (1/2 unit), its
    # floor (1), the previous error times |q| <= 1/4, and q's unit times the previous sum, under 4/3
    # of the next coefficient, at most 0.45: so each of A, B, C within 1.95*4/3 < 2.6 units. The
    # three products with g <= 1/2 and their floors leave B + g*C within 4.9 units, A + g*(...)
    # within 6.05 and the sum within 4.03. Across g, |ds_n/dg| <= sum_j 4^j g^(4j)*(1 + 2g + 2g^2)
    # <= 2.5*sum_j 4^-j < 3.34, which bounds the effect of an error in g.
    q = -((g * g) ** 2 >> (3 * w - 2))
    a = b = c = 0
    for ca, cb, cc in _quartic_coefficients(w)[n::-1]:
        a, b, c = ca + ((q * a) >> w), cb + ((q * b) >> w), cc + ((q * c) >> w)
    return (g * (a + ((g * (b + ((g * c) >> w))) >> w))) >> w


def s_kernel(n: int, u: int, e_u: float, w: int):
    """series.taylor1_s at u*2^-w in [0, 1], given within e_u units."""
    # g = u/(1 + u), floored, lies within 1 + e_u units, as dg/du <= 1; _rows bounds the rest
    return _rows(n, (u << w) // (u + (1 << w)), w), 4.1 + 3.34 * (1 + e_u)


def t_kernel(n: int, u: int, e_u: float, w: int):
    """series.taylor1_t: pi/4 minus the partial sum at g = (1 - u)/2."""
    # g = (1 - u)/2, floored, lies within (1 + e_u)/2 units, and pi/4 within 1.01 (mpmath's
    # pi_fixed); _rows bounds the rest
    return pi_fixed(w - 2) - _rows(n, ((1 << w) - u) >> 1, w), 1.01 + 4.1 + 1.67 * (1 + e_u)


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
    (s, e_s), (t, e_t) = s_kernel(n, u, e_u, w), t_kernel(n, u, e_u, w)
    lam = _blend_weight(p, u, w)
    gap = (abs(t - s) + e_t + e_s) / one
    return (lam * t + (one - lam) * s) >> w, max(e_t, e_s) + (1.01 + p * e_u) * gap + 1
