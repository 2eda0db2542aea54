import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from arctancert.core import (
    LiftedApproximant,
    lagrange_p,
    lift_interval_map,
    shafer_fink_bounds,
    theorem2_bounds,
    theorem4_upper,
    theorem5_approx,
)
from arctancert.master import MAX_ORDER, a_n, master_bounds
from arctancert.numerics import FLOAT, MPF
from arctancert.verify import oracle_arctan

from conftest import log_grid, nested_radical_seq
from master_reference import elementary_symmetric

# frozen via extended-precision evaluation of the closed forms
SF_LOWER_1 = 0.7836116248912243
SF_UPPER_1 = 0.8205961746752770
T2_LOWER_1 = 0.7848435108809564
T2_UPPER_1 = 0.7854047879153436
T4_AT_1 = 0.8083626396469424
PI_4 = 0.7853981633974483
ATAN_1E6 = 1.570795326794896619564655


def nested_radical_L(j, x):
    """L_j(x), the last entry of nested_radical_seq."""
    return nested_radical_seq(j, x)[-1]


def test_shafer_fink_at_zero():
    assert shafer_fink_bounds(0.0) == (0.0, 0.0)


def test_shafer_fink_frozen_values():
    lo, up = shafer_fink_bounds(1.0)
    assert lo == pytest.approx(SF_LOWER_1, rel=1e-15)
    assert up == pytest.approx(SF_UPPER_1, rel=1e-15)
    assert lo < PI_4 < up


@pytest.mark.parametrize("bad", [-1.0, -1e-9, math.inf, math.nan])
def test_shafer_fink_domain_errors(bad):
    with pytest.raises(ValueError):
        shafer_fink_bounds(bad)


def test_nested_radical_values():
    assert nested_radical_L(0, 123.0) == 1.0
    assert nested_radical_L(1, 1.0) == pytest.approx(1 + math.sqrt(2), rel=1e-15)
    assert nested_radical_L(2, 0.0) == 4.0
    assert [float(v) for v in nested_radical_seq(3, 0.0)] == [1.0, 2.0, 4.0, 8.0]


@given(st.floats(min_value=0.0, max_value=1e3), st.integers(min_value=0, max_value=10))
@settings(max_examples=50, deadline=None)
def test_nested_radical_invariants(x, j):
    vals = nested_radical_seq(j, x)
    assert vals[0] == 1.0
    for k in range(j):
        assert vals[k + 1] == vals[k] + math.hypot(x, vals[k])
        assert vals[k + 1] > vals[k]
    for k, v in enumerate(vals):
        assert v >= 2.0**k


def test_nested_radical_cot_identity(cfg):
    # L_j(x) == x / tan(arctan(x)/2^j), checked against the oracle angle
    with mp.workdps(50):
        for x in log_grid(1e-3, 1e3, 25):
            theta = oracle_arctan(x, cfg)
            vals = nested_radical_seq(10, x)
            for j in range(1, 11):
                ref = mp.mpf(x) / mp.tan(theta / 2**j)
                assert abs(vals[j] - ref) / ref < 1e-12


def test_nested_radical_past_the_float_range():
    x = 1.7e308
    assert nested_radical_seq(1, x)[-1] == 1 + x
    with pytest.raises(ValueError, match="beyond the float range"):
        nested_radical_seq(3, x)
    with mp.workdps(50):
        vals = nested_radical_seq(3, mp.mpf(x))
        # L_3(x) = x/tan(arctan(x)/8), and arctan(x) = pi/2 - 1/x to within 1e-924
        ref = x / mp.tan((mp.pi / 2 - 1 / mp.mpf(x)) / 8)
        assert abs(vals[3] - ref) <= mp.mpf(1e-45) * ref


def test_nested_radical_domain():
    with pytest.raises(ValueError):
        nested_radical_L(-1, 1.0)
    with pytest.raises(ValueError):
        nested_radical_L(2, -0.5)
    with pytest.raises(ValueError):  # not range()'s TypeError
        nested_radical_L(2.5, 1.0)


def test_theorem2_frozen_values():
    assert theorem2_bounds(0.0) == (0.0, 0.0)
    lo, up = theorem2_bounds(1.0)
    assert lo == pytest.approx(T2_LOWER_1, rel=1e-15)
    assert up == pytest.approx(T2_UPPER_1, rel=1e-15)
    assert lo < PI_4 < up


def test_theorem2_pair_gap_is_constant_multiple():
    # (upper - lower) == (45 - pi*(3+8*sqrt2)) * f(x) with f = upper/45
    c = 45 - math.pi * (3 + 8 * math.sqrt(2))
    for x in log_grid(1e-4, 1e6, 60):
        lo, up = theorem2_bounds(x)
        assert (up - lo) == pytest.approx(c * up / 45, rel=1e-12)


def test_theorem4_values():
    assert theorem4_upper(0.0) == 0.0
    assert theorem4_upper(1.0) == pytest.approx(T4_AT_1, rel=1e-14)
    big = theorem4_upper(1e6)
    assert abs(big - math.pi / 2) < 1e-5
    assert big > ATAN_1E6


def test_sandwich_on_log_grid(cfg):
    # 10^4 log-spaced points in (1e-6, 1e6): strict enclosure at dps 50
    pts = log_grid(1e-6, 1e6, 10_000)
    with mp.workdps(50):
        for x in pts:
            xm = mp.mpf(x)
            ref = oracle_arctan(x, cfg)
            lo1, up1 = shafer_fink_bounds(xm)
            assert lo1 < ref < up1
            lo2, up2 = theorem2_bounds(xm)
            assert lo2 < ref < up2
            assert theorem4_upper(xm) > ref
            # the order-2 pair is strictly narrower everywhere
            assert up2 - lo2 < up1 - lo1


def test_theorem2_side_dominance_is_regional():
    # neither side of the order-2 pair dominates Shafer-Fink's globally:
    # the lower crosses near x~0.64, the upper near x~203
    assert theorem2_bounds(0.5).lower < shafer_fink_bounds(0.5).lower
    assert theorem2_bounds(1.0).lower > shafer_fink_bounds(1.0).lower
    assert theorem2_bounds(100.0).upper < shafer_fink_bounds(100.0).upper
    assert theorem2_bounds(1000.0).upper > shafer_fink_bounds(1000.0).upper
    for x in log_grid(1.0, 100.0, 50):
        lo1, up1 = shafer_fink_bounds(x)
        lo2, up2 = theorem2_bounds(x)
        assert lo2 >= lo1 and up2 <= up1


def test_theorem4_crossover_with_shafer_fink_upper():
    # theorem4 is looser below the crossover in (0.71, 0.72), tighter above
    d_71 = theorem4_upper(0.71) - shafer_fink_bounds(0.71).upper
    d_72 = theorem4_upper(0.72) - shafer_fink_bounds(0.72).upper
    assert d_71 > 0 > d_72


def test_lagrange_nodes():
    assert lagrange_p(0.0) == 0.0
    assert lagrange_p(math.sqrt(2) - 1) == pytest.approx(math.pi / 8, rel=1e-14)
    assert lagrange_p(1.0) == pytest.approx(math.pi / 4, rel=1e-15)


@pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
def test_lagrange_domain(bad):
    with pytest.raises(ValueError):
        lagrange_p(bad)


def test_theorem5_values():
    assert theorem5_approx(0.0) == 0.0
    # x=1 reduces to the interpolation node sqrt2-1, so the value is pi/4
    assert theorem5_approx(1.0) == pytest.approx(PI_4, rel=1e-14)
    assert abs(theorem5_approx(1.0) - PI_4) < 1 / 115


@pytest.mark.parametrize("x", [1e150, 4e153, 5e153, 1e200, 1.7e308])
def test_theorem5_finite_near_the_top_of_the_float_range(x):
    v = theorem5_approx(x)
    assert math.isfinite(v) and abs(v - math.pi / 2) < 1 / 115


@pytest.mark.parametrize("x", [1e154, 1e200, 1.7e308])
@pytest.mark.parametrize("pair", [shafer_fink_bounds, theorem2_bounds], ids=lambda f: f.__name__)
def test_pairs_enclose_the_oracle_near_the_top_of_the_float_range(pair, x):
    # the true margins (about 1/x) lie far below double resolution, so each
    # side must reach the oracle rounded to float
    ref = float(oracle_arctan(x))
    lower, upper = pair(x)
    assert lower <= ref <= upper


def _kernel_values(x):
    yield from shafer_fink_bounds(x)
    yield from theorem2_bounds(x)
    yield theorem4_upper(x)
    for n in range(1, MAX_ORDER + 1):
        yield a_n(n, x)


def _edge_values(x):
    yield from _kernel_values(x)
    for n in range(1, MAX_ORDER + 1):
        yield from master_bounds(n, x)


@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e150, 6e307, 1.7e308])
def test_closed_forms_finite_from_the_bottom_to_the_top_of_the_float_range(x):
    for v in _edge_values(x):
        assert math.isfinite(v) and v >= 0
    with mp.workdps(50):
        for v in _edge_values(mp.mpf(x)):
            assert mp.isfinite(v) and v >= 0
    if x > 1e300:
        assert abs(theorem4_upper(x) - math.pi / 2) <= 4 * math.ulp(math.pi / 2)


def _paper_forms(x):
    # the closed forms as the paper writes them, in sqrt(1+x^2), in _kernel_values' order
    s = mp.sqrt(1 + x * x)
    r2 = mp.sqrt(2)
    f = x / (7 + 6 * s + 16 * r2 * mp.sqrt(s * s + s))
    yield 3 * x / (1 + 2 * s)
    yield mp.pi * x / (1 + 2 * s)
    yield mp.pi * (3 + 8 * r2) * f
    yield 45 * f
    yield mp.pi * x / (4 / mp.pi + r2 * mp.sqrt(1 + x * x + x * s))
    for n in range(1, MAX_ORDER + 1):
        e, big_l, den = elementary_symmetric(n), mp.mpf(1), 0
        for j in range(n + 1):
            den += (-1) ** (n - j) * e[j] * 2**j * big_l
            big_l += mp.sqrt(x * x + big_l * big_l)
        yield x / den


def test_sin_cos_forms_agree_with_the_paper_forms():
    for x in log_grid(1e-300, 1e300, 61):
        with mp.workdps(80):
            want = list(_paper_forms(mp.mpf(x)))
        with mp.workdps(50):
            got = list(_kernel_values(mp.mpf(x)))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= mp.mpf(1e-45) * w, x


def test_theorem5_matches_lifted_interpolant():
    for x in (0.0, 0.5, 2.0, 100.0, 1e150):
        assert theorem5_approx(x) == LiftedApproximant(lagrange_p)(x)


@pytest.mark.parametrize(
    "x, message",
    [(-1, "x must be non-negative, got -1"), (math.nan, "x must be finite, got nan"),
     ("a", "x must be a real number, got str")],
    ids=["-1", "nan", "str"],
)
def test_theorem5_refuses_x_in_the_words_of_its_check(x, message):
    for f in (theorem5_approx, LiftedApproximant(lagrange_p)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            f(x)


@pytest.mark.parametrize("value", ["x", [1], (0.5,), None, 1j, Fraction(1, 2), mp.mpc(0.5, 0.5)], ids=repr)
def test_a_lifted_value_that_is_no_real_number_raises_value_error(value):
    # 2*value would double a str or a list and pass it on; the scan takes what verify's
    # _signed_error takes, an int, a float or an mpf
    for x, shown in ((0.5, "0.5"), (mp.mpf(2), r"mpf\('2\.0'\)")):
        with pytest.raises(ValueError, match=rf"^inner must return a real number, got \w+ at x = {shown}$"):
            LiftedApproximant(lambda u: value)(x)


def test_a_lifted_int_float_or_mpf_value_is_doubled():
    for value in (1, True, 0.25, mp.mpf("0.25")):
        got = LiftedApproximant(lambda u: value)(0.5)
        assert got == 2 * value and type(got) is type(2 * value)


def _theorem5_closed_form(x, c):
    # theorem 5 as pi/8 * r*(4 + sqrt2*(1 - r)) in the reduced argument r, written out
    r = c.reduce(x)
    return c.pi / 8 * r * (4 + c.sqrt2 * (1 - r))


@given(st.one_of(st.just(0.0), st.floats(-150.0, 150.0).map(lambda t: 10.0**t), st.floats(0.0, 1.0)))
@settings(max_examples=300, deadline=None)
def test_theorem5_equals_its_closed_form_bit_for_bit(x):
    # 2*lagrange_p(r) scales (pi/16)*r by 2 exactly wherever nothing is subnormal, at
    # float and at mpf. At float (pi/16)*r is subnormal for x under about 2e-307, where it
    # has lost bits that pi/8*r keeps, so the draws stay at 0 and above 1e-150
    assume(x == 0 or x >= 1e-150)
    assert theorem5_approx(x) == _theorem5_closed_form(x, FLOAT)
    with mp.workdps(50):
        assert theorem5_approx(mp.mpf(x)) == _theorem5_closed_form(mp.mpf(x), MPF)


def test_lift_identities(cfg):
    with mp.workdps(50):
        f = lambda u: oracle_arctan(u, cfg)
        assert abs(LiftedApproximant(f)(mp.mpf(1)) - oracle_arctan(1.0, cfg)) < mp.mpf(10) ** -30
    assert LiftedApproximant(lagrange_p)(1.0) == theorem5_approx(1.0)
    assert LiftedApproximant(lagrange_p)(0.0) == 2 * lagrange_p(0.0)


def test_lift_interval_map_values():
    assert lift_interval_map(math.sqrt(2) - 1) == pytest.approx(1.0, rel=1e-15)
    assert lift_interval_map(0.5) == pytest.approx(4 / 3, rel=1e-15)
    assert lift_interval_map(1e-9) == pytest.approx(2e-9, rel=1e-9)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_lift_interval_map_domain(bad):
    with pytest.raises(ValueError):
        lift_interval_map(bad)


@given(st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_lifted_approximant_matches_lift(x):
    wrapped = LiftedApproximant(lagrange_p)
    assert wrapped(x) == 2 * lagrange_p(FLOAT.reduce(x))
    twice = LiftedApproximant(wrapped)
    assert twice(x) == 4 * lagrange_p(FLOAT.reduce(FLOAT.reduce(x)))


@given(st.floats(min_value=0.0, max_value=1e15))
@settings(max_examples=100, deadline=None)
def test_reduce_arg_lands_in_unit_interval(x):
    u = FLOAT.reduce(x)
    assert 0.0 <= u < 1.0


def test_mpf_row_constants_follow_the_active_precision():
    for digits in (50, 70):
        with mp.workdps(digits):
            assert MPF.pi == +mp.pi and MPF.sqrt2 == mp.sqrt(2) and MPF.prec == mp.prec


def test_bisection_identity_residual(cfg):
    with mp.workdps(50):
        for x in (0.3, 1.0, 7.0, 1e5):
            u = MPF.reduce(mp.mpf(x))
            resid = abs(2 * oracle_arctan(u, cfg) - oracle_arctan(x, cfg))
            assert resid < mp.mpf(10) ** -30
