import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import bernfrac, mp
from mpmath.libmp import pi_fixed

from arctancert import fixedpoint, master
from arctancert.core import lagrange_p, theorem4_upper
from arctancert.families import FAMILIES, FLOAT_ULPS, Approximant
from arctancert.master import MAX_ORDER
from arctancert.series import (
    blend_w,
    cf_arctan,
    cheb_arctan,
    cheb_coefficients,
    machin_pi_fraction,
    taylor1_s,
    taylor1_t,
)
from arctancert.verify import (
    BoundKind,
    Interval,
    OracleConfig,
    _fixed_error,
    _float_errors,
    _mpf_term_bits,
    _sample_points,
    oracle_arctan,
    oracle_pi,
    sup_error,
)

# every registry row: each order up to MAX_ORDER, each side
ROWS = [
    Approximant(ident, n=n, side=side)
    for ident, info in FAMILIES.items()
    for n in (range(info.n_min, MAX_ORDER + 1) if info.needs_n else (None,))
    for side in (("lower", "upper") if info.kind is BoundKind.TWO_SIDED else (None,))
]


def _points(unit):
    # 0, and log-uniform over the whole float domain [5e-324, 1.8e308]; on unit domains 0
    # and 1, and log-uniform and uniform draws over [5e-324, 1]. Both guards take a value
    # at every one of them
    if not unit:
        return st.one_of(st.just(0.0), st.floats(min_value=-323.3, max_value=308.25).map(lambda t: 10.0**t))
    return st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(min_value=-323.3, max_value=0.0).map(lambda t: 10.0**t),
        st.floats(min_value=5e-324, max_value=1.0),
    )


def _check_budget(ap, x):
    # B bounds |e - E| for E at 40, 50 and 70 digits, and is no vacuous bound: master's
    # tail, on the pairs, about 1e-14 of |E|, or of the claimed bound where E passes
    # through zero; the K-ulp rule, on every other row but t, its K ulp of arctan x. t has
    # no float rule, so the guard takes no value from it. Both guards read the working
    # precision, so they are called at it, as the scan does.
    for digits in (40, 50, 70):
        cfg = OracleConfig(digits, digits - 10)
        with mp.workdps(digits):
            exact = ap(mp.mpf(x)) - oracle_arctan(x, cfg)
            got = _float_errors(ap.rough_error, (x,), _mpf_term_bits())[0]  # the budget the scan uses
        if ap.rough_error is None:
            assert got == (0.0, math.inf)
            continue
        e, b = got
        with mp.workdps(digits):
            assert abs(e - exact) <= b, (ap.label, x, digits, e, float(exact), b)
        room = 1e-12 * (abs(e) + (ap.claim or 0)) if ap.side else (FLOAT_ULPS + 1) * math.ulp(math.atan(x))
        assert b <= room + 2.0**-110, (ap.label, x, b)


@pytest.mark.parametrize("ap", ROWS, ids=lambda ap: ap.label)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_tail_budget_bounds_the_distance_from_the_mpf_error(ap, data):
    _check_budget(ap, data.draw(_points(FAMILIES[ap.family].claim_interval == "0:1")))


def test_every_float_rule_holds_at_zero():
    # the scan's guard takes x = 0 from every float rule: the K-ulp kernels and master's
    # tail give exactly 0. The rows without a float rule are t's 17 orders
    assert len(ROWS) == 172
    ruled = [ap for ap in ROWS if ap.rough_error is not None]
    assert {ap.label for ap in ROWS} - {ap.label for ap in ruled} == {f"t(n={n})" for n in range(MAX_ORDER + 1)}
    for ap in ruled:
        _check_budget(ap, 0.0)


@pytest.mark.parametrize(
    "x",
    [
        pytest.param(x, id=name)
        for x, name in (
            (5e-324, "5e-324"),
            (1e-200, "1e-200"),
            (2.2250738585072014e-308, "2.2250738585072014e-308"),
            (1e200, "1e200"),
            (1.7976931348623157e308, "1.7976931348623157e308"),
        )
    ],
)
def test_guards_take_a_value_across_the_whole_float_range(x):
    # both budgets hold on every row at the smallest subnormal, at 1e-200 and at the
    # smallest normal double, and on every row over R+ at 1e200 and at the largest double:
    # the scan takes a value at each
    for ap in ROWS:
        if x <= ap.claim_interval.hi:
            _check_budget(ap, x)
            _check_fixed_budget(ap, x)


def _check_fixed_budget(ap, x):
    # the fixed-point tier's B bounds |m*2^-w - E| for E at 40, 50 and 70 digits, at a
    # coarse scale and at the scan's one scale, w = mp.prec, where B is no vacuous
    # bound: within 2^-96 of |E| and a little over the mpf term. The
    # one fixed rule: every row's kernel in integers less the oracle's fixed arctan
    for digits in (40, 50, 70):
        cfg = OracleConfig(digits, digits - 10)
        with mp.workdps(digits):
            exact = ap(mp.mpf(x)) - oracle_arctan(x, cfg)
            k, w = _mpf_term_bits(), mp.prec
            got = [(v, _fixed_error(ap.fixed_error, x, v, k)) for v in (64, w)]
            for v, (m, b) in got:
                assert abs(m - mp.ldexp(exact, v)) <= b, (ap.label, x, digits, v, m, float(exact), b)
        assert b <= 2.0 ** (w - 96) * abs(exact) + 2 ** (w - k + 1) + 2**10, (ap.label, x, digits, b)


@pytest.mark.parametrize("ap", ROWS, ids=lambda ap: ap.label)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_fixed_budget_bounds_the_distance_from_the_mpf_error(ap, data):
    _check_fixed_budget(ap, data.draw(_points(FAMILIES[ap.family].claim_interval == "0:1")))


@settings(max_examples=150, deadline=None)
@given(ap=st.sampled_from(ROWS), data=st.data())
def test_fixed_budget_at_the_working_precision_is_the_narrowest(ap, data):
    # the absolute budget B*2^-w at w = mp.prec, the scan's one scale, is no wider than
    # at each multiple of 32 below it, from 64: a finer scale shrinks the rule's own
    # error and its rounding, and the mpf term 2^-k is the same at every w >= k, so one
    # scale is never coarser than one picked for the point's |E|
    x = data.draw(_points(FAMILIES[ap.family].claim_interval == "0:1"))
    digits = data.draw(st.sampled_from([40, 50, 70]))
    with mp.workdps(digits):
        k, top = _mpf_term_bits(), mp.prec
        _, b_top = _fixed_error(ap.fixed_error, x, top, k)
        for w in range(64, top, 32):
            _, b = _fixed_error(ap.fixed_error, x, w, k)
            assert b_top <= b << (top - w), (ap.label, x, digits, w, b_top, b)


def test_every_fixed_rule_holds_at_zero():
    # every registry row has a fixed-point rule, and x = 0 takes it on all 172, the
    # g-constant side included
    assert len(ROWS) == 172 and all(ap.fixed_error is not None for ap in ROWS)
    for ap in ROWS:
        _check_fixed_budget(ap, 0.0)


@settings(max_examples=150, deadline=None)
@given(ap=st.sampled_from(ROWS), data=st.data())
def test_mpf_error_lies_within_the_mpf_term(ap, data):
    # E at working precision, 40, 50 or 70 digits, lies within the mpf term of E computed
    # 30 digits higher, for every registry row. Master's constants carry their own
    # precision at both, so their share of the term is argued, not tested, here.
    x = data.draw(_points(FAMILIES[ap.family].claim_interval == "0:1"))
    digits = data.draw(st.sampled_from([40, 50, 70]))
    with mp.workdps(digits + 30):
        ref = ap(mp.mpf(x)) - oracle_arctan(x, OracleConfig(digits + 30, digits + 20))
    with mp.workdps(digits):
        exact = ap(mp.mpf(x)) - oracle_arctan(x, OracleConfig(digits, digits - 10))
        term = mp.ldexp(1, -_mpf_term_bits())
    with mp.workdps(digits + 30):
        assert abs(exact - ref) <= term, (ap.label, x, digits, float(exact - ref))


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=-150.0, max_value=150.0).map(lambda t: 10.0**t))
@example(x=0.0)
def test_library_atan_within_one_ulp(x):
    # both float rules take math.atan(x) for arctan x, and master's constant side
    # math.atan2(1, x) for arctan(1/x), pi/2 at 0, on this premise
    cfg = OracleConfig(50, 30)
    ref = oracle_arctan(x, cfg)
    with mp.workdps(50):
        inv = oracle_arctan(1 / mp.mpf(x), cfg) if x else oracle_pi(cfg) / 2
        assert abs(math.atan(x) - ref) <= math.ulp(float(ref))
        assert abs(math.atan2(1.0, x) - inv) <= math.ulp(float(inv))


def test_library_atan_within_one_ulp_at_the_table_grid_points():
    # the same premise, at every point the standard table's grids sample (10,404 points)
    cfg = OracleConfig(50, 30)
    for iv in (Interval(0.0, 1.0), Interval(0.0, math.inf)):
        for grid in (65, 4097):
            for x in _sample_points(iv, grid):
                ref = oracle_arctan(x, cfg)
                with mp.workdps(50):
                    assert abs(math.atan(x) - ref) <= math.ulp(float(ref)), x


@pytest.mark.parametrize("bits", [0, 1, 63, 64, 167, 491, 492, 512, 1000, 2048, 5120])
def test_integer_machin_pi_lies_within_its_bound(bits):
    # the fixed tier's pi, mpmath's floor(pi*2^bits), within 1.01 units of 2^-bits at widths
    # from 0 to 5,120 bits. The exact Machin fraction at bits/4 + 4 rows lies within
    # 4*324^-rows of pi, far below one unit of 2^-bits, so it stands for pi here
    exact = machin_pi_fraction(bits // 4 + 4) * 2**bits
    assert abs(pi_fixed(bits) - exact) <= Fraction(101, 100)


# each fixed kernel of an argument u in [0, 1], with the function it computes there and
# its lowest order; t4's is half of Theorem 4 at the x whose lift is u
UNIT_KERNELS = {
    "cheb": (fixedpoint.cheb_kernel, cheb_arctan, 0),
    "cf": (fixedpoint.cf_kernel, cf_arctan, 1),
    "s": (fixedpoint.s_kernel, taylor1_s, 0),
    "t": (fixedpoint.t_kernel, taylor1_t, 0),
    "w": (fixedpoint.w_kernel, blend_w, 0),
    "t4": (fixedpoint.t4_kernel, lambda n, u: theorem4_upper(2 * u / (1 - u * u)) / 2, None),
    "lagrange": (fixedpoint.lagrange_kernel, lambda n, u: lagrange_p(u), None),
}


@pytest.mark.parametrize("e_u", [0, 1, 2, 8])
@pytest.mark.parametrize("name", UNIT_KERNELS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_unit_kernel_budget_covers_an_argument_off_by_e_u_units(name, e_u, data):
    # the kernel at u = u0 + d, |d| <= e_u, lies within its err of f(u0*2^-w)*2^w, f at mpf
    # 64 bits deeper: err's slope term covers every e_u, where the table's rows pass only
    # 0 to 2 (u of a lift lies within 2 units). u stays in [0, 1], as the rules keep it
    kernel, f, n_min = UNIT_KERNELS[name]
    w = data.draw(st.sampled_from([64, 169]), "w")
    n = None if n_min is None else data.draw(st.integers(n_min, MAX_ORDER), "n")
    u0 = data.draw(st.one_of(st.sampled_from([0, 1, (1 << w) - 1]), st.integers(0, (1 << w) - 1)), "u0")
    d = data.draw(st.one_of(st.sampled_from([-e_u, e_u]), st.integers(-e_u, e_u)), "d")
    m, err = kernel(n, min(max(u0 + d, 0), 1 << w), e_u, w)
    with mp.workprec(w + 64):
        assert abs(m - mp.ldexp(f(n, mp.ldexp(u0, -w)), w)) <= err, (name, n, w, u0, d, m, err)


@pytest.mark.parametrize("w", [64, 160, 256])
def test_integer_cheb_coefficients_lie_within_their_bound(w):
    # cheb_kernel's coefficients from their integer recurrence: each c_k*2^w within
    # 1/2 + 2^-13 units of series.cheb_coefficients at 300 bits (r = sqrt2 - 1)
    got = fixedpoint._cheb_ints(MAX_ORDER + 24, w)
    with mp.workprec(300):
        ref = cheb_coefficients(MAX_ORDER + 23, mp.sqrt(2) - 1)
        assert len(got) == len(ref) == MAX_ORDER + 24
        for m, c in zip(got, ref):
            assert abs(m - mp.ldexp(c, w)) <= 0.5 + 2**-13, (w, m)


@example(n=6, u=0.5, w=64)
@example(n=16, u=0.49, w=160)
@example(n=3, u=0.53, w=64)
@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, MAX_ORDER), u=st.floats(0.0, 1.0), w=st.sampled_from([64, 160]))
def test_blend_weight_lies_within_its_bound(n, u, w):
    # w's weight l = u^p/(u^p + v^p), p = 4n + 4, within 1.01 units of 2^-w at u*2^-w exact
    p, ui = 4 * n + 4, math.floor(u * 2**w)
    exact = Fraction(ui**p << w, ui**p + ((1 << w) - ui) ** p)
    assert abs(fixedpoint._blend_weight(p, ui, w) - exact) <= Fraction(101, 100), (n, u, w)


def test_tangent_numbers_give_the_cotangent_coefficients():
    # b_m = 2^(2m)|B_2m|/(2m)! = T_m/((4^m - 1)(2m - 1)!), checked against bernfrac
    t = master._tangent_numbers(64)
    for m in range(1, len(t)):
        num, den = bernfrac(2 * m)
        assert Fraction(t[m], (4**m - 1) * math.factorial(2 * m - 1)) == Fraction(4**m * abs(num), den * math.factorial(2 * m))


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_master_tail_coefficients_share_a_sign_and_shrink_by_a_third(n):
    # the ratio bounds the master budget's remainder terms rest on, on the coefficients
    # as summed (Horner order, highest degree first)
    ps, _, _, hs, _, _ = master._master_series(n)
    for coeffs in (ps[::-1], hs[::-1]):
        assert all(math.copysign(1.0, c) == (-1) ** n for c in coeffs)
        assert all(abs(b) <= abs(a) / 3 * (1 + 1e-12) for a, b in zip(coeffs[n + 1 :], coeffs[n + 2 :]))
    assert all(abs(b) <= abs(a) / 3 * (1 + 1e-12) for a, b in zip(ps[::-1], ps[-2::-1]))


def test_tail_row_outside_its_domain_is_settled_at_mpf_and_raises(cfg):
    # the tail needs no kernel evaluation, so it checks the kernel's domain itself: a
    # point the kernel rejects gets an infinite budget, and the scan's mpf value raises
    ap = Approximant("cheb", n=3)
    with pytest.raises(ValueError):
        ap.rough_error(1.5)
    assert _float_errors(ap.rough_error, (1.5,), 116) == [(0.0, math.inf)]
    assert _fixed_error(ap.fixed_error, 1.5, 128, 116) == (0, math.inf)
    with pytest.raises(ValueError):
        sup_error(ap, Interval(0.0, 2.0), 65, cfg=cfg)


def _two_pass_w(n, u, e_u, w):
    # s_kernel, t_kernel and w_kernel in their two-pass form, the reference for the shared
    # pass: each row summed on its own with the same floors, so every integer is the same
    def row_sum(g):
        q = -((g * g) ** 2 >> (3 * w - 2))
        a = b = c = 0
        for ca, cb, cc in fixedpoint._quartic_coefficients(w)[n::-1]:
            a, b, c = ca + ((q * a) >> w), cb + ((q * b) >> w), cc + ((q * c) >> w)
        return (g * (a + ((g * (b + ((g * c) >> w))) >> w))) >> w

    one = 1 << w
    s, e_s = row_sum((u << w) // (u + one)), 4.1 + 3.34 * (1 + e_u)
    t, e_t = pi_fixed(w - 2) - row_sum((one - u) >> 1), 1.01 + 4.1 + 1.67 * (1 + e_u)
    p = 4 * n + 4
    lam = fixedpoint._blend_weight(p, u, w)
    gap = (abs(t - s) + e_t + e_s) / one
    return (s, e_s), (t, e_t), ((lam * t + (one - lam) * s) >> w, max(e_t, e_s) + (1.01 + p * e_u) * gap + 1)


def test_one_pass_quartic_rows_give_the_two_pass_integers():
    rng = random.Random("quartic")
    for _ in range(2000):
        n, w = rng.randrange(MAX_ORDER + 1), rng.choice((60, 149, 169, 300))
        u = rng.choice((0, 1 << w, rng.randrange(1 << w), (1 << w) - rng.randrange(1 << 20)))
        e_u = rng.choice((0.0, 1.0, 2.0, rng.random() * 10))
        want = _two_pass_w(n, u, e_u, w)
        got = fixedpoint.s_kernel(n, u, e_u, w), fixedpoint.t_kernel(n, u, e_u, w), fixedpoint.w_kernel(n, u, e_u, w)
        assert got == want, (n, u, e_u, w)
