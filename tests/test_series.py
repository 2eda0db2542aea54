import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from arctancert.families import Approximant
from arctancert.series import (
    _clenshaw_odd,
    _coefficients,
    _quartic_rows,
    blend_w,
    cf_arctan,
    cheb_arctan,
    cheb_coefficients,
    machin_pi,
    machin_pi_fraction,
    taylor1_s,
    taylor1_t,
)

CHEB0_AT_1 = 0.8284271247461901  # 2/(1+sqrt2)
ATAN_02 = 0.1973955598498807583700498
ATAN_05 = 0.4636476090008061162142562
ATAN_5 = 1.373400766945015860861272
ATAN_3 = 1.249045772398254425829917
ATAN_1_239 = 0.004184076002074723864538215
PI_4 = 0.7853981633974483


def chebyshev_T(k, x):
    """Reference T_k(x) by the three-term recurrence T_{k+1} = 2x*T_k - T_{k-1}."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not abs(x) <= 1:
        raise ValueError(f"|x| must be <= 1, got {x!r}")
    prev, cur = 1.0, x
    for _ in range(k):
        prev, cur = cur, 2 * x * cur - prev
    return prev


def taylor1_t_from_s(n, u):
    """Reference composed form pi/4 - s_n((1-u)/(1+u)) of taylor1_t."""
    return math.pi / 4 - taylor1_s(n, (1 - u) / (1 + u))

def test_chebyshev_T_values():
    assert chebyshev_T(0, 0.73) == 1.0
    assert chebyshev_T(3, 0.5) == -1.0  # cos(3*arccos(1/2)) = cos(pi)
    assert chebyshev_T(5, 1.0) == 1.0

def test_chebyshev_T_matches_trig_form():
    for k in (1, 2, 7, 16, 33, 64):
        for i in range(257):
            x = -1 + 2 * i / 256
            assert abs(chebyshev_T(k, x) - math.cos(k * math.acos(x))) <= 1e-12

def test_chebyshev_T_domain():
    with pytest.raises(ValueError):
        chebyshev_T(3, 1.5)
    with pytest.raises(ValueError):
        chebyshev_T(-1, 0.5)

def test_cheb_coefficients_alternate_and_decay():
    cs = cheb_coefficients(10)
    assert len(cs) == 11
    for k, c in enumerate(cs):
        assert (c > 0) == (k % 2 == 0)
    mags = [abs(c) for c in cs]
    assert all(a > b for a, b in zip(mags, mags[1:]))

def test_cheb_arctan_values():
    assert cheb_arctan(4, 0.0) == 0.0
    assert cheb_arctan(0, 1.0) == pytest.approx(CHEB0_AT_1, rel=1e-15)

def test_cheb_arctan_is_odd():
    for x in (0.1, 0.35, 0.99):
        assert cheb_arctan(5, -x) == pytest.approx(-cheb_arctan(5, x), rel=1e-15)

def test_cheb_arctan_matches_direct_sum():
    # Clenshaw against naive coefficient-times-polynomial summation
    for n in (0, 2, 5):
        cs = cheb_coefficients(n)
        for i in range(41):
            x = i / 40
            direct = math.fsum(c * chebyshev_T(2 * k + 1, x) for k, c in enumerate(cs))
            assert cheb_arctan(n, x) == pytest.approx(direct, abs=1e-14)

def test_cheb_arctan_domain():
    with pytest.raises(ValueError):
        cheb_arctan(3, 1.0001)
    # non-integer orders are usage errors, not TypeErrors
    with pytest.raises(ValueError):
        cheb_coefficients(2.5)
    with pytest.raises(ValueError):
        cheb_arctan(2.5, 0.5)
    cheb_arctan(2, 0.5)
    with pytest.raises(ValueError):  # not served from the entry cached for n = 2
        cheb_arctan(2.0, 0.5)

def _cheb_points():
    rng = random.Random(9)
    return [1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324] + [rng.uniform(-1, 1) for _ in range(44)]

def test_cheb_scaled_matches_plain_at_m_1():
    # at m = 1 the ratio m/(1+hypot(1, m)) rounds exactly as 1/(1+sqrt2) does, at every precision
    for n in range(17):
        for x in _cheb_points():
            plain = _clenshaw_odd(cheb_coefficients(n), x)
            assert cheb_arctan(n, x) == cheb_arctan(n, x, 1.0) == plain
        for dps in (50, 70):
            with mp.workdps(dps):
                coeffs = cheb_coefficients(n, 1 / (1 + mp.sqrt(2)))
                for x in map(mp.mpf, _cheb_points()):
                    assert cheb_arctan(n, x) == cheb_arctan(n, x, 1.0) == _clenshaw_odd(coeffs, x)

def test_cheb_scaled_oracle_spots():
    assert cheb_arctan(20, 0.5, 2.0) == pytest.approx(PI_4, abs=1e-8)
    assert cheb_arctan(30, 0.1, 5.0) == pytest.approx(ATAN_05, abs=1e-6)

def _cheb_tail(n, m):
    # truncation tail bound 2*r^(2n+3)/((2n+3)*(1-r^2)) with r = m/(1+sqrt(1+m^2))
    r = m / (1 + math.hypot(1, m))
    return 2 * r ** (2 * n + 3) / ((2 * n + 3) * (1 - r * r))

@pytest.mark.parametrize("m", [2, 3, 5, 10])
def test_cheb_scaled_converges_for_integer_scales(m):
    n = 25
    tail = _cheb_tail(n, m)
    for i in range(-19, 20):
        x = i / 20
        err = abs(cheb_arctan(n, x, m) - math.atan(m * x))
        assert err <= tail + 1e-14

def test_cheb_scaled_domain():
    # the expansion of arctan(m*x) converges on the closed interval, so x = +-1 is in the domain
    for m in (0.5, 2.0, 5.0, 10.0):
        for n in (0, 4, 12):
            for x in (1.0, -1.0):
                assert abs(cheb_arctan(n, x, m) - math.atan(m * x)) <= _cheb_tail(n, m) + 1e-14
    for m in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            cheb_arctan(3, 0.5, m)
    for x in (1.0001, -1.5):
        with pytest.raises(ValueError):
            cheb_arctan(3, x, 2.0)

def test_a_scale_past_the_float_range_is_refused_at_a_float_x_and_taken_at_an_mpf():
    # float(m) is inf for an mpf m past the float range, so a float x refuses it as it refuses
    # an int or a Fraction there; an mpf x keeps it, where r rounds to 1
    for m in (mp.mpf("1e400"), 10**400, Fraction(10**400, 3)):
        with pytest.raises(ValueError, match="^m lies beyond the float range; pass an mpf instead$"):
            cheb_arctan(4, 0.5, m)
    with mp.workdps(50):
        assert abs(cheb_arctan(4, mp.mpf(0.5), mp.mpf("1e400")) - mp.mpf(473) / 315) < mp.mpf(10) ** -48

@pytest.mark.parametrize("first", ["fraction", "float"])
def test_a_scale_of_any_type_answers_alike_whatever_came_first(first):
    # a Fraction scale, which the mpf row cannot divide, and the float it equals share one cache
    # key; each answers the same on a cold cache, whichever of them asks first
    _coefficients.cache_clear()
    scales = {"fraction": Fraction(1, 2), "float": 0.5}
    order = [first] + [k for k in scales if k != first]
    for x in (0.5, mp.mpf(0.5)):
        got = [cheb_arctan(3, x, scales[k]) for k in order]
        assert got[0] == got[1] and type(got[0]) is type(x)

def test_scaled_coefficient_cache_stays_bounded():
    # the cache is keyed by the caller's m, so a sweep of distinct scales fills it to its
    # bound and no further, and every value is still the expansion of arctan(m*x)
    bound = _coefficients.cache_info().maxsize
    for i in range(1000):
        m = 1.5 + i / 1000
        assert abs(cheb_arctan(8, 0.5, m) - math.atan(0.5 * m)) <= _cheb_tail(8, m) + 1e-14
    assert bound == 256 and _coefficients.cache_info().currsize == bound

def test_cheb_lifted_spots(cfg):
    from arctancert.verify import oracle_arctan

    cheb_lifted_4 = Approximant("cheb-lifted", n=4)
    assert cheb_lifted_4(0.0) == 0.0
    bound4 = (3 + 2 * math.sqrt(2)) ** -4
    assert abs(cheb_lifted_4(1e3) - float(oracle_arctan(1e3, cfg))) < bound4
    bound8 = (3 + 2 * math.sqrt(2)) ** -8
    assert abs(Approximant("cheb-lifted", n=8)(1.0) - PI_4) < bound8

def test_cf_closed_forms_at_one():
    assert cf_arctan(1, 1.0) == pytest.approx(0.75, rel=1e-15)
    assert cf_arctan(2, 1.0) == pytest.approx(19 / 24, rel=1e-15)
    assert cf_arctan(3, 1.0) == pytest.approx(40 / 51, rel=1e-15)

def test_cf_matches_closed_forms_on_grid():
    k1 = lambda x: x / (1 + x * x / 3)
    k2 = lambda x: x * (15 + 4 * x * x) / (15 + 9 * x * x)
    k3 = lambda x: 5 * x * (21 + 11 * x * x) / (105 + 90 * x * x + 9 * x**4)
    for i in range(1025):
        x = i / 1024
        for n, ref in ((1, k1(x)), (2, k2(x)), (3, k3(x))):
            got = cf_arctan(n, x)
            assert abs(got - ref) <= 4 * math.ulp(max(abs(ref), 1e-300))

def test_cf_domain():
    with pytest.raises(ValueError):
        cf_arctan(0, 0.5)
    # at float, n^2*x^2 past the float range is refused: the fold would give 0.0 (n = 1) or nan
    for n, x in ((1, 1.35e154), (2, 1e200), (3, 1.3e154)):
        with pytest.raises(ValueError):
            cf_arctan(n, x)
        with mp.workdps(30):
            assert mp.isfinite(cf_arctan(n, mp.mpf(x)))
    # just below the bound the value is right: x/(1 + x^2/3), about 3/x
    assert cf_arctan(1, 1.3e154) == pytest.approx(3 / 1.3e154, rel=1e-15)

@given(st.integers(min_value=1, max_value=10), st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_cf_positive_denominator(n, x):
    v = cf_arctan(n, x)
    assert v >= 0.0
    assert math.isfinite(v)

def test_cf_lifted_spots():
    cf_lifted_3 = Approximant("cf-lifted", n=3)
    assert cf_lifted_3(0.0) == 0.0
    assert abs(cf_lifted_3(5.0) - ATAN_5) < 4.0**-3

def test_taylor1_s_values():
    assert taylor1_s(2, 0.0) == 0.0
    assert taylor1_s(0, 1.0) == pytest.approx(5 / 6, rel=1e-15)
    assert taylor1_s(1, 1.0) == pytest.approx(109 / 140, rel=1e-15)
    assert taylor1_s(0, 1.0) > PI_4  # even truncation overshoots
    assert taylor1_s(1, 1.0) < PI_4  # odd truncation undershoots

def test_taylor1_t_values():
    assert taylor1_t(0, 1.0) == PI_4  # exact: the series part vanishes
    assert taylor1_t(0, 0.0) == pytest.approx(PI_4 - 5 / 6, rel=1e-13)
    assert abs(taylor1_t(2, 0.0)) < (1 / math.sqrt(2)) ** 8

def test_taylor1_t_matches_composed_form():
    for n in (0, 1, 3, 5):
        for i in range(101):
            u = i / 100
            assert abs(taylor1_t(n, u) - taylor1_t_from_s(n, u)) < 1e-12

@pytest.mark.parametrize("bad", [-0.2, 1.2, math.nan])
def test_taylor1_domain(bad):
    with pytest.raises(ValueError):
        taylor1_s(2, bad)
    with pytest.raises(ValueError):
        taylor1_t(2, bad)
    with pytest.raises(ValueError):
        blend_w(2, bad)

def test_blend_w_endpoints():
    assert blend_w(3, 0.0) == 0.0
    assert blend_w(3, 1.0) == PI_4

@given(st.integers(min_value=0, max_value=4), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_blend_w_is_convex_combination(n, u):
    s = taylor1_s(n, u)
    t = taylor1_t(n, u)
    w = blend_w(n, u)
    assert min(s, t) - 1e-15 <= w <= max(s, t) + 1e-15

def test_blend_w_lifted_spots():
    w_lifted_2 = Approximant("w-lifted", n=2)
    assert w_lifted_2(0.0) == 0.0
    assert abs(w_lifted_2(3.0) - ATAN_3) < 2 * 20.0**-2
    assert abs(Approximant("w-lifted", n=4)(1e6) - math.atan(1e6)) < 1e-8

def test_arctan_recip_series_spots():
    # arctan(1/t) by the quartic-ratio series is s_n at u = 1/t
    assert taylor1_s(3, 1 / 5.0) == pytest.approx(ATAN_02, abs=1e-8)
    assert taylor1_s(1, 1 / 239.0) == pytest.approx(ATAN_1_239, abs=1e-15)
    assert taylor1_s(10, 1 / 1.0) == pytest.approx(PI_4, abs=1e-6)

def test_arctan_recip_series_domain():
    with pytest.raises(ValueError):
        taylor1_s(3, 1 / 0.99)

def test_machin_first_row_exact():
    # 8*(1/3 + 1/18 + 1/162) - (1/60 + 1/14400 + 1/5184000), by hand
    assert machin_pi_fraction(1) == Fraction(256, 81) - Fraction(86761, 5184000)
    assert machin_pi_fraction(1) == Fraction(5432413, 1728000)

def test_machin_converges_to_pi():
    with mp.workdps(40):
        err = abs(machin_pi(10, dps=40) - mp.pi)
        assert err < mp.mpf(10) ** -20

def test_machin_error_strictly_decreases():
    with mp.workdps(60):
        errs = [abs(machin_pi(k, dps=60) - mp.pi) for k in range(1, 11)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

def test_machin_domain():
    with pytest.raises(ValueError):
        machin_pi_fraction(0)


@pytest.mark.parametrize("dps", [0, -5, 30.0, None])
def test_machin_pi_needs_a_positive_integer_precision(dps):
    # mp.workdps takes 0 and negative digits too, and rounds pi to 3.0 or 4.0 there
    with pytest.raises(ValueError):
        machin_pi(12, dps=dps)
    assert abs(machin_pi(12, dps=1) - math.pi) < 0.05  # one digit, the least precision allowed


def _clenshaw_reference(coeffs, x):
    # b_j = a_j + 2x*b_{j+1} - b_{j+2} down from degree 2n+1, a_j = 0 for even j; x*b_1 - b_2
    b1 = b2 = x * 0
    for j in range(2 * len(coeffs) - 1, 0, -1):
        a_j = coeffs[(j - 1) // 2] if j % 2 else 0
        b1, b2 = 2 * x * b1 - b2 + a_j, b1
    return x * b1 - b2


def _quartic_reference(n, g):
    # sum_{j<=n} q^j * (g/(4j+1) + 2g^2/(4j+2) + 2g^3/(4j+3)), q = -4g^4, term by term
    acc, qj = g * 0, g * 0 + 1
    for j in range(n + 1):
        acc += qj * (g / (4 * j + 1) + 2 * (g * g) / (4 * j + 2) + 2 * (g * g * g) / (4 * j + 3))
        qj *= -4 * (g * g) * (g * g)
    return acc


@pytest.mark.parametrize("digits", [None, 50, 70])
def test_summation_kernels_match_their_textbook_recurrences_exactly(digits):
    # the kernels reorder the recurrences only where rounding cannot tell, so the
    # values must be the same numbers at float and at every mpf precision
    rng = random.Random(20260718)
    xs = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-200] + [rng.uniform(-1, 1) for _ in range(12)]
    gs = [0.0, 0.5, 1.0, 1e-200] + [rng.random() for _ in range(12)]
    with mp.workdps(digits or 15):
        num = float if digits is None else mp.mpf
        ratio = num(1) / (1 + (math.sqrt(2) if digits is None else mp.sqrt(2)))
        for n in range(17):
            coeffs = cheb_coefficients(n, ratio)
            for x in map(num, xs):
                assert _clenshaw_odd(coeffs, x) == _clenshaw_reference(coeffs, x)
            for g in map(num, gs):
                assert _quartic_rows(n, g) == _quartic_reference(n, g)
    for terms in range(1, 10):
        expected = 16 * _quartic_reference(terms - 1, Fraction(1, 6)) - 4 * _quartic_reference(
            terms - 1, Fraction(1, 240)
        )
        assert machin_pi_fraction(terms) == expected
