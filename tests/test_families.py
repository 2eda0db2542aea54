import math
import random
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from arctancert import core, families, fixedpoint, master, series
from arctancert.families import FAMILIES, FLOAT_ULPS, Approximant, ulp_rule
from arctancert.master import MAX_ORDER
from arctancert.numerics import row_of
from arctancert.verify import BoundKind, Interval, OracleConfig, _mpf_term_bits, oracle_arctan

# every registry family once, each side of a pair family separately
INSTANCES = [
    Approximant(ident, n=max(info.n_min, 3) if info.needs_n else None, side=side)
    for ident, info in FAMILIES.items()
    for side in (("lower", "upper") if info.kind is BoundKind.TWO_SIDED else (None,))
]


@pytest.mark.parametrize("ap", INSTANCES, ids=lambda ap: ap.label)
def test_values_returned_in_kind(ap):
    x = 0.375 if FAMILIES[ap.family].claim_interval == "0:1" else 3.0
    assert type(ap(x)) is float
    with mp.workdps(50):
        v50 = ap(mp.mpf(x))
    assert isinstance(v50, mp.mpf)
    with mp.workdps(70):
        assert abs(v50 - ap(mp.mpf(x))) < mp.mpf(10) ** -45


@pytest.mark.parametrize("ap", INSTANCES, ids=lambda ap: ap.label)
def test_ints_beyond_the_float_range_raise_value_error(ap):
    with pytest.raises(ValueError):
        ap(10**400)


# every registry row, order up to MAX_ORDER and side
_ROWS = [
    Approximant(ident, n=n, side=side)
    for ident, info in FAMILIES.items()
    for n in (range(info.n_min, MAX_ORDER + 1) if info.needs_n else (None,))
    for side in (("lower", "upper") if info.kind is BoundKind.TWO_SIDED else (None,))
]
# the rows on the K-ulp rule, whose budgets rest on their float value lying within K/4 ulp
# of arctan x of the mpf value: all but t (no float rule, see series.taylor1_t) and the
# pairs sf, t2 and master (their error series in float, master.master_error)
BUDGETED = [ap for ap in _ROWS if getattr(ap.rough_error, "func", None) is ulp_rule]
# the pairs' sides, whose budgets rest on no such premise (tests/test_tails.py checks them
# over every double); their float values are held to K/4 ulp on [1e-150, 1e150] alone,
# since near the bottom of the float range t2's lower side reaches 16.2 ulp (at 1e-310)
PAIRS = [ap for ap in _ROWS if ap.side]


def _domain_points(unit):
    # 0, the least subnormal, a subnormal, the least normal double and the domain's top;
    # log-uniform over the whole float domain [5e-324, 1.8e308], or [5e-324, 1] on unit
    # domains; and uniform draws
    top = 1.0 if unit else 1.7976931348623157e308
    return st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, top]),
        st.floats(min_value=-323.3, max_value=0.0 if unit else 308.25).map(lambda t: 10.0**t),
        st.floats(min_value=5e-324, max_value=1.0 if unit else 1e3),
    )


# the pairs' range: 0, log-uniform over [1e-150, 1e150], and linear
_PAIR_POINTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=-150.0, max_value=150.0).map(lambda t: 10.0**t),
    st.floats(min_value=1e-150, max_value=1e3),
)


def _check_quarter_budget(ap, x):
    assert ap.rough_error is not None
    value = ap(x)
    with mp.workdps(50):
        gap = abs(value - ap(mp.mpf(x)))
        ulp = math.ulp(float(oracle_arctan(x)))
    assert gap <= FLOAT_ULPS / 4 * ulp, (ap.label, x)


@pytest.mark.parametrize("ap", BUDGETED + PAIRS, ids=lambda ap: ap.label)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_float_within_a_quarter_budget_of_mpf(ap, data):
    # over every double on the K-ulp rows; on [1e-150, 1e150] on the pairs (see PAIRS)
    points = _domain_points(not ap.claim_interval.unbounded) if ap.side is None else _PAIR_POINTS
    _check_quarter_budget(ap, data.draw(points))


def test_float_within_a_quarter_budget_of_mpf_at_zero():
    # ulp(arctan 0) is the least subnormal, so every float value must be exact there
    for ap in BUDGETED + PAIRS:
        _check_quarter_budget(ap, 0.0)


def test_only_unbudgeted_rows_are_t_and_high_orders():
    # t has no float rule, so the fixed-point tier decides each of its points; an order
    # past MAX_ORDER has no rule at all
    ap = Approximant("t", n=3)
    assert ap.rough_error is None and ap.fixed_error is not None
    assert Approximant("cf", n=MAX_ORDER + 1).rough_error is None
    assert Approximant("cf", n=MAX_ORDER + 1).fixed_error is None
    assert Approximant("cheb", n=MAX_ORDER + 1).rough_error is None
    # t_n is pi/4 minus a row close to pi/4: near u = 0 its float value errs by
    # ulps of pi/4, far more than FLOAT_ULPS ulps of arctan u, so t takes no K-ulp rule
    with mp.workdps(50):
        gap = abs(ap(1e-6) - ap(mp.mpf(1e-6)))
    assert gap > FLOAT_ULPS * math.ulp(1e-6)


def test_only_these_rows_keep_a_float_tail():
    # every other row but t, which has no float rule, takes the K-ulp rule, and the
    # fixed-point tier decides what its budget of 64 ulp of arctan x leaves open. master,
    # and sf and t2, its orders 1 and 2, keep their error series in float: master's |E|
    # (near 5e-17 at n = 6) lies below 64 ulp of arctan x, and on the K-ulp rule master
    # n = 5 and 6 settle most of their grid-4097 points in fixed point. s, w and w-lifted
    # need no tail: w's |E| lies under the mpf term 2^-149 over much of [0, 1], but the
    # scan compares such tiny enclosures only where a decision needs them
    rules = {ap.family: getattr(ap.rough_error, "func", None) for ap in INSTANCES}
    assert {ident for ident, rule in rules.items() if rule is master.master_error} == {"sf", "t2", "master"}
    assert {ident for ident, rule in rules.items() if rule is not ulp_rule} == {"sf", "t2", "master", "t"}
    # so the K/4 premise test holds the 119 cases of the ten K-ulp rows over every double,
    # and the 36 pair sides on their own range
    assert len(BUDGETED) == 119 and {ap.family for ap in BUDGETED} == set(FAMILIES) - {"sf", "t2", "master", "t"}
    assert len(PAIRS) == 36 and {ap.family for ap in PAIRS} == {"sf", "t2", "master"}


def _valid_orders(info):
    return range(info.n_min, MAX_ORDER + 1) if info.needs_n else [None]


def test_claim_is_the_registry_claim_at_every_valid_order():
    for ident, info in FAMILIES.items():
        side = "lower" if info.kind is BoundKind.TWO_SIDED else None
        for n in _valid_orders(info):
            expected = None if info.claim is None else info.claim(n)
            assert Approximant(ident, n=n, side=side).claim == expected, (ident, n)
    assert Approximant("cf", n=3).claim == 0.5 * 4.0**-3
    assert Approximant("sf", side="upper").claim is None


@pytest.mark.parametrize("ident", sorted(ident for ident, info in FAMILIES.items() if info.needs_n))
def test_claim_needs_a_valid_order(ident):
    # the order is checked when the Approximant is built, before any claim is read
    info = FAMILIES[ident]
    side = "lower" if info.kind is BoundKind.TWO_SIDED else None
    for bad in (None, info.n_min - 1, 2.0):
        with pytest.raises(ValueError):
            Approximant(ident, n=bad, side=side)


@pytest.mark.parametrize("ident", sorted(ident for ident, info in FAMILIES.items() if info.needs_n))
def test_an_order_past_any_index_raises_value_error(ident):
    # the claims' float powers (4.0**-n, (1 + sqrt2)**-(2n + 3), ...) raise OverflowError at
    # n = 10**400, so construction rejects every order past sys.maxsize before binding a claim.
    # Nothing is evaluated at these orders
    side = "lower" if FAMILIES[ident].kind is BoundKind.TWO_SIDED else None
    for bad in (10**400, sys.maxsize + 1):
        with pytest.raises(ValueError, match=f"n of family '{ident}'"):
            Approximant(ident, n=bad, side=side)
    if ident == "master":  # master's evaluator binds master_params(n), which refuses n past MAX_ORDER
        with pytest.raises(ValueError, match=r"order n must be an integer in \[1, 16\]"):
            Approximant(ident, n=sys.maxsize, side=side)
    else:
        assert Approximant(ident, n=sys.maxsize, side=side).n == sys.maxsize


def test_row_facts_are_bound_at_construction(monkeypatch):
    # label, claim, slope, monotone and claim_interval are read from the registry once,
    # when the Approximant is built, and are read-only
    built = [(Approximant("cheb", n=4), "cheb(n=4)", (1 + math.sqrt(2)) ** -11, families._cheb_slope(4), 0),
             (Approximant("t", n=3), "t(n=3)", 4.0**-3, None, -1),
             (Approximant("cf-lifted", n=2), "cf-lifted(n=2)", 4.0**-2, None, 1),
             (Approximant("t2", side="upper"), "t2.upper", None, None, 0)]

    def gone(ident):
        raise AssertionError(f"family_info({ident!r}) called after construction")

    monkeypatch.setattr(families, "family_info", gone)
    monkeypatch.setattr(Interval, "parse", gone)
    for ap, label, claim, slope, monotone in built:
        assert (ap.label, ap.claim, ap.slope, ap.monotone) == (label, claim, slope, monotone)
        assert ap.claim_interval == (Interval(0.0, 1.0) if ap.family in ("cheb", "t") else Interval(0.0, math.inf))
        for name in ("label", "claim", "slope", "monotone", "claim_interval"):
            with pytest.raises(AttributeError):
                setattr(ap, name, None)
    assert not any(isinstance(vars(Approximant).get(name), property)
                   for name in ("label", "claim", "slope", "monotone", "claim_interval"))


def _cheb_slope_sum(n):
    # _cheb_slope's exact sum at every order, rounded up to a double
    r = Fraction(4142136, 10**7)
    q, j = r * r, n + 1
    return math.nextafter(float(2 * r * q**j * ((2 * j + 1) / (1 - q) + 2 * q / (1 - q) ** 2)), math.inf)


def test_cheb_slope_is_its_exact_sum_at_every_order():
    # from n = 426 the sum rounds to 0.0 and the bound is the least subnormal, taken
    # without the sum, so a high order binds its slope at no cost
    assert all(families._cheb_slope(n) == _cheb_slope_sum(n) for n in range(601))
    assert families._cheb_slope(425) == 1e-323 and families._cheb_slope(426) == 5e-324
    ap = Approximant("cheb-lifted", n=10**4)
    assert ap.slope == 5e-324 and ap.rough_error is None


# the rows with a bound S on |E'|: cheb 0..16, cheb-lifted 1..16, lagrange and t5
SLOPED = [Approximant(ident, n=n) for ident, info in FAMILIES.items() if info.slope for n in _valid_orders(info)]


@st.composite
def _slope_pairs(draw):
    # a sloped row and x < y in its domain: x near 0, near 1, anywhere, or (lifted) near 1e8
    ap = draw(st.sampled_from(SLOPED))
    top = 1.0 if FAMILIES[ap.family].claim_interval == "0:1" else 1e9
    near = [st.floats(0.0, 1e-3), st.floats(1e-12, 0.1).map(lambda t: 1 - t), st.floats(0.0, top)]
    if top > 1:
        near.append(st.floats(-0.5, 0.5).map(lambda t: 1e8 * (1 + t)))
    x = draw(st.one_of(near))
    y = min(top, x + max(x, 1.0) * 10.0 ** draw(st.floats(-12.0, 0.0)))
    return ap, x, y


@example(case=(Approximant("cheb", n=3), 0.999, 1.0))  # cheb's |E'| peaks at x = 1
@example(case=(Approximant("cheb", n=16), 0.99, 0.995))
@example(case=(Approximant("cheb-lifted", n=1), 0.0, 1e-3))  # the lifted rows' at x = 0
@example(case=(Approximant("lagrange"), 0.0, 1e-3))
@example(case=(Approximant("t5"), 9e7, 1.1e8))
@settings(max_examples=300, deadline=None)
@given(case=_slope_pairs())
def test_slope_bounds_the_error_derivative(case):
    # |E(x) - E(y)| <= S*(y - x) for the exact E; the mpf values lie within 2^-k of it
    ap, x, y = case
    assume(x < y)
    cfg = OracleConfig(50, 30)
    with mp.workdps(50):
        e_x, e_y = (ap(mp.mpf(v)) - oracle_arctan(v, cfg) for v in (x, y))
        gap = ap.slope * (mp.mpf(y) - mp.mpf(x)) + 2 * mp.ldexp(1, -_mpf_term_bits())
        assert abs(e_x - e_y) <= gap, (ap.label, x, y)


# the rows whose |E| is proved monotone: cf and cf-lifted 1..16 and s 0..16 rise, t 0..16 falls
MONOTONE = [Approximant(ident, n=n) for ident, info in FAMILIES.items() if info.monotone for n in _valid_orders(info)]


@st.composite
def _monotone_pairs(draw):
    # a flagged row and x < y in its claim interval: x near 0, near 1, anywhere, or (lifted) near 1e8
    ap = draw(st.sampled_from(MONOTONE))
    top = 1.0 if ap.claim_interval.hi == 1 else 1e9
    near = [st.floats(0.0, 1e-3), st.floats(1e-12, 0.1).map(lambda t: 1 - t), st.floats(0.0, top)]
    if top > 1:
        near.append(st.floats(-0.5, 0.5).map(lambda t: 1e8 * (1 + t)))
    x = draw(st.one_of(near))
    y = min(top, x + max(x, 1.0) * 10.0 ** draw(st.floats(-12.0, 0.0)))
    return ap, x, y


@example(case=(Approximant("cf", n=8), 0.999, 1.0))
@example(case=(Approximant("cf-lifted", n=16), 9e7, 1.1e8))
@example(case=(Approximant("s", n=0), 0.0, 1e-3))
@example(case=(Approximant("t", n=16), 0.0, 1e-12))
@example(case=(Approximant("t", n=3), 0.99, 1.0))
@settings(max_examples=300, deadline=None)
@given(case=_monotone_pairs())
def test_monotone_rows_move_at_their_rate(case):
    # |E| moves in the flagged direction with |d log|E|/dx| >= 1/(c(1 + c)), c = max(1, x):
    # the smaller end of the pair times exp((y - x)/(c(1 + c))), c = max(1, y), stays at or
    # below the larger. At 100 digits each mpf E lies within tau = 2^(20 - prec) of the exact
    # one (the kernels' and the oracle's parts of verify._mpf_term_bits)
    ap, x, y = case
    assume(x < y)
    cfg = OracleConfig(100, 80)
    with mp.workdps(100):
        e_x, e_y = (abs(ap(mp.mpf(v)) - oracle_arctan(v, cfg)) for v in (x, y))
        c = max(1, mp.mpf(y))
        grow = mp.exp((mp.mpf(y) - mp.mpf(x)) / (c * (1 + c)))
        small, big = (e_x, e_y) if ap.monotone > 0 else (e_y, e_x)
        tau = mp.ldexp(1, 20 - mp.prec)
        assert small * grow <= big + tau * (1 + grow), (ap.label, x, y)


def test_unknown_family_raises_value_error():
    with pytest.raises(ValueError, match="unknown family 'nosuch'"):
        Approximant("nosuch")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"family": "sf"},
        {"family": "t2", "side": "middle"},
        {"family": "master", "n": 2, "side": None},
        {"family": "cf", "n": 1, "side": "lower"},
        {"family": "t5", "side": "upper"},
    ],
    ids=lambda kw: "-".join(str(v) for v in kw.values()),
)
def test_side_is_checked_against_the_kind(kwargs):
    # a pair needs side lower or upper; every other row takes none
    with pytest.raises(ValueError, match="side"):
        Approximant(**kwargs)


# each non-pair row's integer kernel, and whether its domain, 0:inf or 0:1, implies the lift
FIXED_KERNELS = {
    "t4": (fixedpoint.t4_kernel, True),
    "lagrange": (fixedpoint.lagrange_kernel, False),
    "t5": (fixedpoint.lagrange_kernel, True),
    "cheb": (fixedpoint.cheb_kernel, False),
    "cheb-lifted": (fixedpoint.cheb_kernel, True),
    "cf": (fixedpoint.cf_kernel, False),
    "cf-lifted": (fixedpoint.cf_kernel, True),
    "s": (fixedpoint.s_kernel, False),
    "t": (fixedpoint.t_kernel, False),
    "w": (fixedpoint.w_kernel, False),
    "w-lifted": (fixedpoint.w_kernel, True),
}


def test_every_non_pair_row_has_a_fixed_kernel_case():
    assert set(FIXED_KERNELS) == {ident for ident, info in FAMILIES.items() if info.kind is not BoundKind.TWO_SIDED}


@pytest.mark.parametrize("ident", list(FIXED_KERNELS))
def test_fixed_rule_takes_the_lift_its_domain_implies(ident):
    kernel, lift = FIXED_KERNELS[ident]
    info = FAMILIES[ident]
    n = max(info.n_min, 3) if info.needs_n else None
    ap = Approximant(ident, n=n)
    for x in (0.5, 3.0) if lift else (0.5,):
        assert ap.fixed_error(x, 169) == fixedpoint.direct_fixed(kernel, lift, n, x, 169), (ident, x)


# --- every route gives its public composition, and every route checks its argument ---


def _blend(n, u):
    # series.blend_w as the composition it was written as, from the public s and t kernels
    p = 4 * n + 4
    wu, wv = u**p, (1 - u) ** p
    return (wu * series.taylor1_t(n, u) + wv * series.taylor1_s(n, u)) / (wu + wv)


# the public kernel each lifted row lifts, and w's test-local blend
_PUBLIC = {
    "t5": lambda n, u: core.lagrange_p(u),
    "cheb-lifted": series.cheb_arctan,
    "cf-lifted": series.cf_arctan,
    "w-lifted": _blend,
    "w": _blend,
}


def _composed(ap, x):
    # Approximant(...)(x) rebuilt from public kernels: a lifted row is twice its kernel at
    # the lift's u, w the blend above, any other row its registry kernel (and side)
    info = FAMILIES[ap.family]
    if info.lifted:
        return 2 * _PUBLIC[ap.family](ap.n, row_of(x).reduce(x))
    if ap.family == "w":
        return _blend(ap.n, x)
    v = info.kernel(x) if ap.n is None else info.kernel(ap.n, x)
    return getattr(v, ap.side) if ap.side else v


def _bits(v):
    return v.hex() if isinstance(v, float) else v._mpf_


@pytest.mark.parametrize("ident", sorted(FAMILIES))
def test_every_route_gives_its_public_composition_bit_for_bit(ident):
    info = FAMILIES[ident]
    rng = random.Random(f"composition:{ident}")
    if info.claim_interval == "0:1":
        xs = [0.0, 5e-324, 1.0] + [rng.random() for _ in range(8)]
    else:
        xs = [0.0, 5e-324, 1.0, 1e150, 1.7e308] + [10 ** rng.uniform(-300, 300) for _ in range(8)]
    for n in range(info.n_min, MAX_ORDER + 1) if info.needs_n else (None,):
        for side in ("lower", "upper") if info.kind is BoundKind.TWO_SIDED else (None,):
            ap = Approximant(ident, n=n, side=side)
            for x in xs:
                assert _bits(ap(x)) == _bits(_composed(ap, x)), (ap.label, x)
            with mp.workdps(50):
                for x in map(mp.mpf, xs):
                    assert _bits(ap(x)) == _bits(_composed(ap, x)), (ap.label, x)


def _rejected(ident):
    # the arguments a row's evaluator must refuse: NaN, the infinities and an int past the
    # float range everywhere; -1.0 where its kernel's domain starts at 0; 1.5 on [0, 1].
    # cheb's kernel is odd and takes [-1, 1], and cf's takes any x whose n^2*x^2 is finite
    # (series.cheb_arctan, series.cf_arctan), so -1.0 is a value there, and 1.5 is for cf
    bad = [math.nan, math.inf, -math.inf, 10**400]
    if ident not in ("cheb", "cf"):
        bad.append(-1.0)
    if FAMILIES[ident].claim_interval == "0:1" and ident != "cf":
        bad.append(1.5)
    return bad


@pytest.mark.parametrize("ap", INSTANCES, ids=lambda ap: ap.label)
def test_every_route_raises_value_error_at_float_and_at_mpf(ap):
    for x in _rejected(ap.family):
        with pytest.raises(ValueError):
            ap(x)
        with mp.workdps(50):
            with pytest.raises(ValueError):
                ap(x if isinstance(x, int) else mp.mpf(x))


# each public kernel at order 3 where it takes one, with the arguments it refuses. Each id
# is fixed text, the kernel's name or the first 40 characters of its repr, so that a
# change to a repr renames no test; a_n's stops before its memory address, which varies
_KERNELS = [
    pytest.param(core.shafer_fink_bounds, "0:inf", id="shafer_fink_bounds-'0:inf'"),
    pytest.param(core.theorem2_bounds, "0:inf", id="theorem2_bounds-'0:inf'"),
    pytest.param(core.theorem4_upper, "0:inf", id="theorem4_upper-'0:inf'"),
    pytest.param(core.theorem5_approx, "0:inf", id="theorem5_approx-'0:inf'"),
    pytest.param(
        core.LiftedApproximant(partial(series.cf_arctan, 3)),
        "0:inf",
        id="LiftedApproximant(inner=functools.partia-'0:inf'",
    ),
    pytest.param(partial(master.master_bounds, 3), "0:inf", id="functools.partial(<function master_bound-'0:inf'"),
    pytest.param(partial(master.a_n, 3), "0:inf", id="functools.partial(<function a_n at 0x-'0:inf'"),
    pytest.param(core.lagrange_p, "0:1", id="lagrange_p-'0:1'"),
    pytest.param(partial(series.taylor1_s, 3), "0:1", id="functools.partial(<function taylor1_s at-'0:1'"),
    pytest.param(partial(series.taylor1_t, 3), "0:1", id="functools.partial(<function taylor1_t at-'0:1'"),
    pytest.param(partial(series.blend_w, 3), "0:1", id="functools.partial(<function blend_w at 0-'0:1'"),
    pytest.param(partial(series.cheb_arctan, 3), "-1:1", id="functools.partial(<function cheb_arctan -'-1:1'"),
    pytest.param(partial(series.cf_arctan, 3), "reals", id="functools.partial(<function cf_arctan at-'reals'"),
]


@pytest.mark.parametrize("kernel, domain", _KERNELS)
def test_public_kernels_raise_value_error_at_float_and_at_mpf(kernel, domain):
    bad = [math.nan, math.inf, -math.inf, 10**400]
    bad += {"0:inf": [-1.0], "0:1": [-1.0, 1.5], "-1:1": [1.5, -1.5], "reals": []}[domain]
    for x in bad:
        with pytest.raises(ValueError):
            kernel(x)
        with mp.workdps(50):
            with pytest.raises(ValueError):
                kernel(x if isinstance(x, int) else mp.mpf(x))


@pytest.mark.parametrize(
    "kernel",
    [master.master_bounds, master.a_n, series.cheb_arctan, series.cf_arctan, series.taylor1_s, series.taylor1_t,
     series.blend_w],
    ids=lambda f: f.__name__,
)
def test_public_kernels_reject_a_non_integer_order(kernel):
    kernel(2, 0.5)  # a valid order first, so that no cache entry for 2 lets 2.0 through
    for n in (2.0, 2.5, "2"):
        with pytest.raises(ValueError):
            kernel(n, 0.5)
