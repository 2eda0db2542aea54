import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from arctancert.core import lagrange_p, theorem5_approx, shafer_fink_bounds
from arctancert.families import FAMILIES, Approximant
from arctancert.series import cf_arctan
from arctancert.verify import (
    BoundKind,
    Interval,
    OracleConfig,
    _oracle_cached,
    _sample_points,
    certify_bound,
    default_config,
    norm_transfer_check,
    oracle_arctan,
    oracle_pi,
    sup_error,
)

PI_4_STR = "0.7853981633974483096156608458199"
PI_2_STR = "1.5707963267948966192313216916398"


def test_oracle_config_validation():
    OracleConfig(50, 30)
    with pytest.raises(ValueError):
        OracleConfig(45, 29)
    with pytest.raises(ValueError):
        OracleConfig(39, 30)
    with pytest.raises(ValueError):
        OracleConfig(41, 35)
    with pytest.raises(ValueError):
        OracleConfig(50, 30, reduction_threshold=0.0)


def test_default_config_env_override(monkeypatch):
    monkeypatch.delenv("ARCTAN_CERT_DIGITS", raising=False)
    assert default_config().report_digits == 30
    monkeypatch.setenv("ARCTAN_CERT_DIGITS", "36")
    c = default_config()
    assert c.report_digits == 36 and c.working_digits == 56
    monkeypatch.setenv("ARCTAN_CERT_DIGITS", "10")  # clamped up
    assert default_config().report_digits == 30
    monkeypatch.setenv("ARCTAN_CERT_DIGITS", "lots")
    with pytest.raises(ValueError):
        default_config()


def test_oracle_values(cfg):
    assert oracle_arctan(0.0, cfg) == 0
    with mp.workdps(50):
        assert abs(oracle_arctan(1.0, cfg) - mp.mpf(PI_4_STR)) < mp.mpf(10) ** -29
        assert abs(oracle_arctan(math.inf, cfg) - mp.mpf(PI_2_STR)) < mp.mpf(10) ** -29


def test_oracle_against_library_atan(cfg):
    # independent cross-check: mpmath's own arctangent at higher precision
    with mp.workdps(60):
        for i in range(50):
            x = math.tan(1e-6 + (math.pi / 2 - 2e-6) * i / 49)
            got = oracle_arctan(x, cfg)
            ref = mp.atan(mp.mpf(x))
            assert abs(got - ref) / ref < mp.mpf(10) ** -30


def _ulps_off(got, x, working_digits):
    # distance to mpmath's arctangent at 40 more digits, in ulps at working precision
    with mp.workdps(working_digits):
        prec = mp.prec
    with mp.workdps(working_digits + 40):
        ref = mp.atan(x)
        return abs(got - ref) / mp.ldexp(1, mp.frexp(ref)[1] - prec)


# 2^-10, 1 and 2 each come with their float neighbours
_EDGE_POINTS = [5e-324, 2.0**-1074 * 3, 1e-300, 1e154, 1.7e308] + [
    math.nextafter(v, toward) for v in (2.0**-10, 1.0, 2.0) for toward in (0.0, v, math.inf)
]


@pytest.mark.parametrize("threshold", [2.0**-10, 0.3])
@pytest.mark.parametrize("digits", [40, 50, 120])
def test_oracle_within_one_ulp(digits, threshold):
    cfg = OracleConfig(working_digits=digits, report_digits=30, reduction_threshold=threshold)
    with mp.workdps(digits + 30):
        wide = mp.sqrt(2) / 3  # more bits than the working precision carries
    for x in [*_EDGE_POINTS, wide]:
        assert _ulps_off(oracle_arctan(x, cfg), x, digits) <= 1, x


def test_oracle_cold_and_warm_agree():
    cfg = OracleConfig(working_digits=50, report_digits=30, reduction_threshold=0.3)
    x = 0.7071067811865476
    before = _oracle_cached.cache_info()
    cold = oracle_arctan(x, cfg)
    warm = oracle_arctan(x, cfg)
    after = _oracle_cached.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert cold == warm


def test_oracle_accepts_ints_beyond_the_float_range(cfg):
    # an int is never NaN or inf; 10**400 has no float, and its arctan is pi/2 at working precision
    assert _ulps_off(oracle_arctan(10**400, cfg), 10**400, cfg.working_digits) <= 1
    with mp.workdps(cfg.working_digits):
        assert abs(oracle_arctan(10**400, cfg) - mp.pi / 2) <= mp.ldexp(1, 1 - mp.prec)
    assert oracle_arctan(3, cfg) == oracle_arctan(3.0, cfg)
    with pytest.raises(ValueError):
        oracle_arctan(-(10**400), cfg)


def test_oracle_domain():
    with pytest.raises(ValueError):
        oracle_arctan(-0.5)
    with pytest.raises(ValueError):
        oracle_arctan(math.nan)
    with pytest.raises(ValueError):
        oracle_arctan(-math.inf)
    for bad in ("nan", "-inf", "-0.5"):
        with pytest.raises(ValueError):
            oracle_arctan(mp.mpf(bad))
    assert oracle_arctan(mp.mpf("inf")) == oracle_arctan(math.inf)


def test_oracle_pi_matches_library(cfg):
    with mp.workdps(50):
        assert abs(oracle_pi(cfg) - mp.pi) < mp.mpf(10) ** -45


def test_machin_consistent_with_oracle_arctangents():
    # the two-series value equals 16*arctan(1/5) - 4*arctan(1/239)
    c60 = OracleConfig(working_digits=60, report_digits=45)
    from arctancert.series import machin_pi

    with mp.workdps(60):
        combo = 16 * oracle_arctan(mp.mpf(1) / 5, c60) - 4 * oracle_arctan(mp.mpf(1) / 239, c60)
        assert abs(machin_pi(40, dps=60) - combo) < mp.mpf(10) ** -40


def test_oracle_self_agreement_across_precisions():
    c40 = OracleConfig(working_digits=40, report_digits=30)
    c60 = OracleConfig(working_digits=60, report_digits=45)
    with mp.workdps(70):
        for i in range(20):
            x = math.tan(1e-4 + (math.pi / 2 - 2e-4) * i / 19)
            a = oracle_arctan(x, c40)
            b = oracle_arctan(x, c60)
            assert abs(a - b) / b < mp.mpf(10) ** -30


def test_interval_parse_and_str():
    iv = Interval.parse("0:1")
    assert (iv.lo, iv.hi) == (0.0, 1.0) and not iv.unbounded
    iv = Interval.parse("0:inf")
    assert iv.unbounded
    assert str(Interval(0.0, 1e6)) == "0:1000000"
    assert str(Interval(0.0, math.inf)) == "0:inf"


@pytest.mark.parametrize("bad", ["5", "2:1", "abc:1", "-1:2", "1:1", "inf:2"])
def test_interval_errors(bad):
    with pytest.raises(ValueError):
        Interval.parse(bad)


def test_sample_points_bounded_respects_openness():
    iv = Interval(0.0, 1.0)
    pts = _sample_points(iv, 65)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert all(a < b for a, b in zip(pts, pts[1:]))
    open_iv = Interval(0.0, 1.0, lo_open=True, hi_open=True)
    pts_open = _sample_points(open_iv, 65)
    assert pts_open[0] > 0.0 and pts_open[-1] < 1.0


def test_sample_points_unbounded():
    iv = Interval(0.0, math.inf, lo_open=True, hi_open=True)
    pts = _sample_points(iv, 65)
    assert len(pts) == 65
    assert pts[0] == pytest.approx(1e-8, rel=1e-6)
    assert pts[-1] > 1e7
    with pytest.raises(ValueError):
        _sample_points(iv, 63)


def test_sup_error_of_oracle_is_tiny(cfg):
    f = lambda x: oracle_arctan(x, cfg)
    rep = sup_error(f, Interval(0.0, 1.0), 257, cfg=cfg)
    assert rep.sup_error <= 1e-25
    assert rep.bound_kind is BoundKind.APPROXIMATION
    assert rep.satisfied


def test_sup_error_lagrange_under_claim(cfg):
    rep = sup_error(
        lagrange_p,
        Interval(0.0, 1.0, lo_open=True, hi_open=True),
        1025,
        cfg=cfg,
        claimed_bound=1 / 230,
    )
    assert rep.satisfied and rep.sup_error < 1 / 230
    assert rep.min_gap == pytest.approx(1 / 230 - rep.sup_error, rel=1e-12)
    # the refined maximum sits near u ~ 0.157
    assert 0.1 < rep.arg_max < 0.2


def test_sup_error_lifted_doubles_lagrange(cfg):
    inner = sup_error(lagrange_p, Interval(0.0, 1.0, lo_open=True, hi_open=True), 1025, cfg=cfg)
    outer = sup_error(
        theorem5_approx,
        Interval(0.0, math.inf, lo_open=True, hi_open=True),
        1025,
        cfg=cfg,
        claimed_bound=1 / 115,
    )
    assert outer.satisfied and outer.sup_error < 1 / 115
    assert outer.sup_error == pytest.approx(2 * inner.sup_error, rel=1e-3)


def test_sup_error_grid_doubling_growth(cfg):
    iv = Interval(0.0, 1.0, lo_open=True, hi_open=True)
    small = sup_error(lagrange_p, iv, 513, cfg=cfg)
    big = sup_error(lagrange_p, iv, 1025, cfg=cfg)
    assert big.sup_error >= small.sup_error - 1e-11


def test_sup_error_validates_grid(cfg):
    with pytest.raises(ValueError):
        sup_error(lagrange_p, Interval(0.0, 1.0), 32, cfg=cfg)


def test_certify_shafer_fink_directions(cfg):
    iv = Interval(0.0, 1e6, lo_open=True)
    low = certify_bound(Approximant("sf", side="lower"), BoundKind.LOWER, iv, 513, cfg=cfg)
    up = certify_bound(Approximant("sf", side="upper"), "upper", iv, 513, cfg=cfg)
    assert low.satisfied and low.min_gap >= 0
    assert up.satisfied and up.min_gap >= 0
    assert low.bound_kind is BoundKind.LOWER


def test_certify_flags_corrupted_bound(cfg):
    scaled = lambda x: 0.999 * shafer_fink_bounds(x).upper
    rep = certify_bound(scaled, BoundKind.UPPER, Interval(0.0, 1e6, lo_open=True), 257, cfg=cfg)
    assert not rep.satisfied
    assert rep.min_gap < 0


def test_certify_rejects_wrong_direction(cfg):
    # an upper-bound family certified as a lower bound must fail
    rep = certify_bound(
        Approximant("s", n=2), BoundKind.LOWER, Interval(0.0, 1.0), 129, cfg=cfg
    )
    assert not rep.satisfied and rep.min_gap < 0


def test_certify_kind_validation(cfg):
    with pytest.raises(ValueError):
        certify_bound(lagrange_p, BoundKind.APPROXIMATION, Interval(0.0, 1.0), 129, cfg=cfg)


def test_norm_transfer_lagrange(cfg):
    assert norm_transfer_check(lagrange_p, math.sqrt(2) - 1, 513, cfg=cfg)


def test_norm_transfer_cf(cfg):
    assert norm_transfer_check(lambda x: cf_arctan(2, x), 0.5, 513, cfg=cfg)


def test_norm_transfer_oracle_trivial(cfg):
    assert norm_transfer_check(lambda x: oracle_arctan(x, cfg), 0.5, 129, cfg=cfg)


def test_norm_transfer_domain(cfg):
    with pytest.raises(ValueError):
        norm_transfer_check(lagrange_p, 1.0, cfg=cfg)


def _outcome(rep):
    return rep.sup_error, rep.arg_max, rep.min_gap, rep.satisfied


def _without_budget(ap):
    # the same approximant as a plain callable, which carries no float_ulps
    return lambda x: ap(x)


@pytest.mark.parametrize(
    "ap, iv",
    [
        (Approximant("cheb-lifted", n=4), Interval(0.0, math.inf, lo_open=True, hi_open=True)),
        (Approximant("w", n=3), Interval(0.0, 1.0, lo_open=True)),
        (Approximant("w-lifted", n=1), Interval(0.0, math.inf, lo_open=True, hi_open=True)),
        (Approximant("lagrange"), Interval(0.0, 1.0)),
        (Approximant("cf", n=2), Interval(0.25, 3.0)),
    ],
    ids=lambda v: getattr(v, "label", None) or str(v),
)
def test_sup_error_two_precision_scan_matches_all_mpf(cfg, ap, iv):
    fast = sup_error(ap, iv, 257, cfg=cfg, claimed_bound=0.01)
    slow = sup_error(_without_budget(ap), iv, 257, cfg=cfg, claimed_bound=0.01)
    assert _outcome(fast) == _outcome(slow)
    assert slow.evals_float == 0 and fast.evals_float > 0
    assert fast.evals_mpf < slow.evals_mpf


@pytest.mark.parametrize(
    "ap, kind, iv",
    [
        (Approximant("sf", side="lower"), "lower", Interval(0.0, 1e6, lo_open=True)),
        (Approximant("sf", side="upper"), "upper", Interval(0.0, 1e6, lo_open=True)),
        (Approximant("t4"), "upper", Interval(0.0, math.inf, lo_open=True, hi_open=True)),
        (Approximant("master", n=3, side="lower"), "lower", Interval(0.0, 1000.0, lo_open=True)),
        (Approximant("s", n=2), "lower", Interval(0.0, 1.0)),
    ],
    ids=str,
)
def test_certify_bound_two_precision_scan_matches_all_mpf(cfg, ap, kind, iv):
    fast = certify_bound(ap, kind, iv, 257, cfg=cfg)
    slow = certify_bound(_without_budget(ap), kind, iv, 257, cfg=cfg)
    assert _outcome(fast) == _outcome(slow)
    assert slow.evals_float == 0 and fast.evals_float > 0
    assert fast.evals_mpf < slow.evals_mpf


@st.composite
def _certifications(draw):
    # a registry row, order, side, interval, grid and precision, as (ap, kind, iv, grid, cfg)
    ident = draw(st.sampled_from(sorted(FAMILIES)))
    info = FAMILIES[ident]
    n = draw(st.integers(info.n_min, 8)) if info.needs_n else None
    kind = draw(st.sampled_from(["lower", "upper"]))
    ap = Approximant(ident, n=n, side=kind if info.kind is BoundKind.TWO_SIDED else None)
    hi = 1.0 if info.claim_interval == "0:1" else draw(st.sampled_from([math.inf, 3.0, 1e6]))
    lo = draw(st.one_of(st.just(0.0), st.floats(0.0, min(hi, 1e6) / 2)))
    iv = Interval(lo, hi, lo_open=lo == 0.0, hi_open=math.isinf(hi))
    digits = draw(st.sampled_from([50, 60]))
    return ap, kind, iv, draw(st.integers(64, 400)), OracleConfig(digits, digits - 20)


@settings(max_examples=20, deadline=None)
@given(case=_certifications())
def test_settle_rules_match_all_mpf_on_random_rows(case):
    ap, kind, iv, grid, cfg = case
    for certify in (
        lambda f: sup_error(f, iv, grid, cfg=cfg, claimed_bound=0.01),
        lambda f: certify_bound(f, kind, iv, grid, cfg=cfg),
    ):
        fast, slow = certify(ap), certify(_without_budget(ap))
        assert _outcome(fast) == _outcome(slow)
        assert fast.evals_mpf <= slow.evals_mpf


def test_callable_without_budget_is_evaluated_wholly_at_mpf(cfg):
    iv = Interval(0.0, 1.0, lo_open=True, hi_open=True)
    rep = sup_error(lagrange_p, iv, 257, cfg=cfg)
    assert rep.evals_float == 0
    assert rep.evals_mpf > len(_sample_points(iv, 257))  # the grid and the refinements
    rep = certify_bound(_without_budget(Approximant("sf", side="lower")), "lower", iv, 129, cfg=cfg)
    assert rep.evals_float == 0 and rep.evals_mpf == len(_sample_points(iv, 129))


def test_tiny_error_row_is_scanned_wholly_at_mpf(cfg):
    # the g-constant side of master n = 6 stays within about 1e-15 of arctan, under
    # the float budget, so the settle rule alone evaluates every grid point at mpf
    iv = Interval(0.0, math.inf, lo_open=True, hi_open=True)
    ap = Approximant("master", n=6, side="lower")
    rep = sup_error(ap, iv, 129, cfg=cfg)
    slow = sup_error(_without_budget(ap), iv, 129, cfg=cfg)
    assert rep.sup_error < 1e-12
    assert _outcome(rep)[:2] == _outcome(slow)[:2]
    assert rep.evals_mpf == slow.evals_mpf


class _FloatTrouble:
    """cf_arctan(2, x) that claims a float budget but fails at float on part of the grid."""

    float_ulps = 64

    def __call__(self, x):
        if isinstance(x, float) and x > 0.5:
            if x > 0.75:
                raise ZeroDivisionError("float trouble")
            return math.nan
        return cf_arctan(2, x)


def test_failed_float_values_are_settled_at_mpf(cfg):
    iv = Interval(0.0, 1.0, lo_open=True)
    fast = sup_error(_FloatTrouble(), iv, 257, cfg=cfg, claimed_bound=0.01)
    slow = sup_error(lambda x: cf_arctan(2, x), iv, 257, cfg=cfg, claimed_bound=0.01)
    assert _outcome(fast) == _outcome(slow)
    assert 0 < fast.evals_float


def test_points_outside_the_budget_range_are_settled_at_mpf(cfg):
    # below 1e-150 the float budget is untested, so the scan evaluates there at mpf;
    # certify_bound makes no golden-section probes, so each other point is one float evaluation
    iv = Interval(0.0, 1e-140)
    rep = certify_bound(Approximant("cf", n=2), "lower", iv, 129, cfg=cfg)
    pts = _sample_points(iv, 129)
    outside = sum(x < 1e-150 for x in pts)
    assert outside > 0
    assert rep.evals_float == len(pts) - outside
    assert rep.evals_mpf >= outside
