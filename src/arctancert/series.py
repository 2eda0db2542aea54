"""Series-based arctangent approximants.

Four families: the truncated Chebyshev expansion of arctan(m*x), one kernel
for every scale m; convergents of the Gauss continued fraction; the
quartic-ratio series around x = 1 (s_n, its reflection t_n, and their blend
w_n); and the exact-rational Machin evaluation of pi built from the same
series row. Their lifts to R+ are ``core.LiftedApproximant`` applied to
these kernels.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .numerics import FLOAT, TOP, require_finite, require_int, require_unit


def cheb_coefficients(n: int, ratio=None) -> list:
    """Coefficients c_k = 2*(-1)^k * r^(2k+1) / (2k+1) for k = 0..n.

    With the default r = 1/(1+sqrt2) these are the odd-degree Chebyshev
    coefficients of arctan on [-1,1]; magnitudes decrease strictly and
    signs alternate.
    """
    require_int(n, "truncation index n", 0)
    r = 1 / (1 + FLOAT.sqrt2) if ratio is None else ratio
    r2 = r * r
    out = []
    p = r
    for k in range(n + 1):
        c = 2 * p / (2 * k + 1)
        out.append(c if k % 2 == 0 else -c)
        p *= r2
    return out


@lru_cache(maxsize=256)
def _coefficients(n: int, m, row, prec: int) -> tuple:
    # keyed on the row and its precision (the mpf row reads mp.prec); n and m come checked or from
    # a registry row. Bounded, since m is the caller's: the table and float_eval make the same 9 keys
    return tuple(cheb_coefficients(n, row.reduce(m)))


def _clenshaw_odd(coeffs, x):
    # Clenshaw over degree 2n+1 in (odd, even) step pairs; even coefficients and a_0 are 0
    x2 = 2 * x  # exact
    b1 = b2 = x * 0
    for a in coeffs[:0:-1]:
        b1, b2 = x2 * b1 - b2 + a, b1
        b1, b2 = x2 * b1 - b2, b1
    b1, b2 = x2 * b1 - b2 + coeffs[0], b1
    return x * b1 - b2


def cheb_arctan(n: int, x, m=1):
    """Truncated Chebyshev expansion of arctan(m*x) over [-1,1], summed by Clenshaw.

    The coefficients are those of cheb_coefficients at the ratio
    r = m/(1 + sqrt(1+m^2)), which is 1/(1+sqrt2) at the default m = 1.
    Odd in x; uniform error on [-1,1] at most 2r^(2n+3)/((2n+3)(1-r^2)),
    below (1+sqrt2)^-(2n+3) at m = 1.
    """
    require_int(n, "truncation index n", 0)
    if m != 1 or type(m) is not int:  # the default scale needs no check
        c = _check_cheb(x)  # x before the scale, whose type follows x's row
        require_finite(m, "m")
        if not m > 0:
            raise ValueError(f"m must be > 0, got {m!r}")
        if c is FLOAT:  # one cache key per scale, whatever its type: a float x answers a float
            m = float(m)
            if m > TOP:  # an mpf past the float range, which float() takes to inf
                raise ValueError("m lies beyond the float range; pass an mpf instead")
        elif isinstance(m, Fraction):  # the mpf row divides no Fraction
            m = mp.mpf(m.numerator) / m.denominator
    return _cheb(n, x, m)


def _check_cheb(x):  # cheb_arctan's check of x, returning its row
    c = require_finite(x)
    if abs(x) > 1:
        raise ValueError(f"|x| must be <= 1, got {x!r}")
    return c


def _cheb(n: int, x, m=1):
    # cheb_arctan's body: a float in [-1, 1] passes after one comparison, any other x meets its check
    c = FLOAT if type(x) is float and -1.0 <= x <= 1.0 else _check_cheb(x)
    return _clenshaw_odd(_coefficients(n, m, c, c.prec), x)


def cf_arctan(n: int, x):
    """Depth-n convergent of arctan's continued fraction, by backward recurrence.

    Starting from the tail d = 2n+1, fold d = (2k-1) + k^2 x^2 / d for
    k = n..1 and return x/d. Reproduces the closed-form convergents; error
    on [0,1] at most 1/(2*4^n). At float every partial denominator is finite
    while n^2*x^2 is, and past that x must be an mpf.
    """
    require_int(n, "depth n", 1)
    return _cf(n, x)


def _cf(n: int, x):
    # cf_arctan's body: a float in [-1, 1] passes after one comparison, any other x meets its check
    if type(x) is not float or not -1.0 <= x <= 1.0:
        if require_finite(x) is FLOAT and not n * n * (x * x) <= TOP:  # exact for an int x
            raise ValueError(f"n^2*x^2 lies beyond the float range at n = {n}, x = {x!r}")
    xx = x * x
    d = 2 * n + 1
    for k in range(n, 0, -1):
        d = (2 * k - 1) + k * k * xx / d
    return x / d


def _quartic_rows(n: int, g):
    """Rows j = 0..n of sum_j q^j * (g/(4j+1) + 2g^2/(4j+2) + 2g^3/(4j+3)), q = -4g^4.

    Generic over the number type of g: float, mpf or Fraction.
    """
    g2 = g * g
    g3x2 = 2 * (g2 * g)
    q = -4 * g2 * g2
    acc = g * 0
    qj = acc + 1
    for j in range(n + 1):
        # g2/(2j+1) is the quotient 2g^2/(4j+2), and doubling is exact, so both round alike
        acc += qj * (g / (4 * j + 1) + g2 / (2 * j + 1) + g3x2 / (4 * j + 3))
        qj *= q
    return acc


def taylor1_s(n: int, u):
    """Partial sum s_n of the quartic-ratio series for arctan u on [0,1].

    s_n(u) = sum_{j<=n} q^j * (g/(4j+1) + 2g^2/(4j+2) + 2g^3/(4j+3)) with
    g = u/(u+1) and q = -4g^4. Pointwise error at most (sqrt2*u/(u+1))^(4n);
    an upper bound of arctan for even n, a lower bound for odd n. At u = 1/t
    it is the depth-n series for arctan(1/t), t >= 1.
    """
    require_int(n, "truncation index n", 0)
    return _s(n, u)


def _s(n: int, u):  # taylor1_s's body, which checks u in one comparison at a float in [0, 1]
    if type(u) is not float or not 0.0 <= u <= 1.0:
        require_unit(u, "u")
    return _quartic_rows(n, u / (u + 1))


def taylor1_t(n: int, u):
    """Reflected partial sum t_n(u) = pi/4 - s_n((1-u)/(1+u)), in expanded form.

    Evaluated directly as pi/4 minus the series row at g = (1-u)/2; agrees
    with the composed form to rounding. t_n(1) = pi/4 exactly; pointwise
    error at most ((1-u)/sqrt2)^(4n). Bound direction is opposite to s_n's:
    a lower bound for even n, an upper bound for odd n. At float, near u = 0
    the difference of two values near pi/4 errs by ulps of pi/4, not of
    arctan u, so t takes no float rule: the scan's fixed-point tier decides
    each of its points (``fixedpoint.t_kernel``).
    """
    require_int(n, "truncation index n", 0)
    return _t(n, u)


def _t(n: int, u):  # taylor1_t's body, which checks u in one comparison at a float in [0, 1]
    c = FLOAT if type(u) is float and 0.0 <= u <= 1.0 else require_unit(u, "u")
    return c.pi / 4 - _quartic_rows(n, (1 - u) / 2)


def blend_w(n: int, u):
    """Weighted blend of s_n and t_n with weights u^(4n+4) and (1-u)^(4n+4).

    A convex combination, so it inherits whichever bound direction the pair
    shares; uniform error on [0,1] at most 20^-n.
    """
    require_int(n, "truncation index n", 0)
    return _blend(n, u)


def _blend(n: int, u):
    # blend_w's body: taylor1_t's and taylor1_s's bodies, which check u, then the weights
    t, s = _t(n, u), _s(n, u)
    p = 4 * n + 4
    wu = u**p
    wv = (1 - u) ** p
    return (wu * t + wv * s) / (wu + wv)


def machin_pi_fraction(terms: int) -> Fraction:
    """Exact rational truncation of the two-series Machin evaluation of pi.

    pi = 16*arctan(1/5) - 4*arctan(1/239) with both arctangents expanded by
    the quartic-ratio series, at g = 1/6 and g = 1/240; row j of the dominant
    series carries a factor (-1/324)^j, the other (-1/829440000)^j. Keeping
    the accumulation in rational arithmetic leaves rounding out of the digit
    comparisons.
    """
    require_int(terms, "terms", 1)
    return 16 * _quartic_rows(terms - 1, Fraction(1, 6)) - 4 * _quartic_rows(terms - 1, Fraction(1, 240))


def machin_pi(terms: int, dps: int = 50):
    """machin_pi_fraction rounded to the nearest mpf at dps digits, an integer >= 1."""
    require_int(dps, "dps", 1)
    v = machin_pi_fraction(terms)
    with mp.workdps(dps):
        # fdiv takes both integers exactly and rounds once; mpf(numerator) would
        # round the numerator first, and the two roundings reach 1.1 ulp at 66 digits
        return mp.fdiv(v.numerator, v.denominator)
