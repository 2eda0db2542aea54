import bisect
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import dps_to_prec

from arctancert import fixedpoint, verify
from arctancert.core import lagrange_p, theorem5_approx, shafer_fink_bounds
from arctancert.families import FAMILIES, Approximant, ulp_rule
from arctancert.master import MAX_ORDER
from arctancert.series import cf_arctan, machin_pi
from arctancert.verify import (
    DEFAULT_GRID,
    BoundKind,
    Interval,
    OracleConfig,
    _Lazy,
    _abs_bounds,
    _margin_pick,
    _maxima_pick,
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
    with pytest.raises(ValueError):  # not the comparison's TypeError
        OracleConfig("50", 30)
    with pytest.raises(ValueError):  # digits are whole
        OracleConfig(50.5, 30)
    with pytest.raises(ValueError):  # not dps_to_prec's OverflowError
        OracleConfig(10**400)
    assert OracleConfig(sys.maxsize).working_digits == sys.maxsize  # built, never evaluated


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: OracleConfig(45, 29), "report_digits must be an integer >= 30, got 29"),
        (lambda: OracleConfig(39, 30), "working_digits must be an integer >= 40, got 39"),
        (lambda: OracleConfig(41, 35), "working_digits must be an integer >= 45, got 41"),
        (lambda: OracleConfig("50", 30), "working_digits must be an integer >= 40, got '50'"),
        (lambda: OracleConfig(50, None), "report_digits must be an integer >= 30, got None"),
        (lambda: OracleConfig(sys.maxsize + 1), "working_digits must be an integer <= sys.maxsize, got 9223372036854775808"),
        (lambda: Interval(0.0, math.nan), "interval endpoints must not be NaN"),
        (lambda: Interval(-1.0, 2.0), "lo must be finite and >= 0, got -1.0"),
        (lambda: Interval(math.inf, math.inf), "lo must be finite and >= 0, got inf"),
        (lambda: Interval(2.0, 1.0), "need lo < hi, got 2.0:1.0"),
        (lambda: Interval(10**400, math.inf), "interval endpoints must lie in the float range or be inf"),
        (lambda: Interval(0.0, 1.0)._replace(hi=0.0), "need lo < hi, got 0.0:0.0"),
    ],
)
def test_config_and_interval_refusals_keep_their_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_default_config_env_override(monkeypatch):
    monkeypatch.delenv("ARCTAN_CERT_DIGITS", raising=False)
    assert default_config().report_digits == 30
    monkeypatch.setenv("ARCTAN_CERT_DIGITS", "36")
    c = default_config()
    assert c.report_digits == 36 and c.working_digits == 56
    monkeypatch.setenv("ARCTAN_CERT_DIGITS", "10")  # clamped up
    assert default_config().report_digits == 30
    monkeypatch.setenv("ARCTAN_CERT_DIGITS", str(10**400))  # past sys.maxsize
    with pytest.raises(ValueError, match="^working_digits must be an integer <= sys.maxsize"):
        default_config()
    monkeypatch.setenv("ARCTAN_CERT_DIGITS", "lots")
    with pytest.raises(ValueError, match="^ARCTAN_CERT_DIGITS must be an integer, got 'lots'$"):
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


def _fine_seams(centres):
    # the second step's seams near each centre c: y = (c + d)/(1 - c*d), where the first step
    # leaves z = d exactly, for d = j/2^14: the fine points j/2^13 (j even, up to the table's
    # end 2^-7) and the midpoints between them, where the nearest fine point flips (j odd)
    ds = [s * j / 2**14 for j in (1, 2, 3, 64, 65, 127, 128) for s in (-1, 1)]
    return [y for c in centres for d in ds if (y := (c + d) / (1 - c * d)) > 0]


# the reduction's seams, each with its float neighbours: the centres k/64 (2^-6, where the
# relative series ends, and 1, where the reflection starts, among them), the midpoints
# (k+1/2)/64 where the nearest centre flips, the fine seams around every centre, and the
# same seams of 1/x above 1 (2 among them)
_SEAMS = [k / 64 for k in range(1, 65)] + [(2 * k + 1) / 128 for k in range(64)]
_SEAMS += _fine_seams([k / 64 for k in range(65)])
_EDGE_POINTS = [5e-324, 2.0**-1074 * 3, 1e-300, 1e154, 1.7e308] + [
    math.nextafter(v, toward) for v in _SEAMS + [1 / c for c in _SEAMS] for toward in (0.0, v, math.inf)
]


@pytest.mark.parametrize("digits", [40, 50, 120])
def test_oracle_within_one_ulp(digits):
    cfg = OracleConfig(working_digits=digits, report_digits=30)
    with mp.workdps(digits + 30):
        wide = mp.sqrt(2) / 3  # more bits than the working precision carries
    for x in [*_EDGE_POINTS, wide]:
        assert _ulps_off(oracle_arctan(x, cfg), x, digits) <= 1, x


@given(st.floats(min_value=5e-324, max_value=1.8e308), st.integers(min_value=40, max_value=150))
@settings(max_examples=200, deadline=None)
def test_oracle_within_one_ulp_everywhere(x, digits):
    cfg = OracleConfig(working_digits=digits, report_digits=30)
    assert _ulps_off(oracle_arctan(x, cfg), x, digits) <= 1


def _fixed_points():
    # 0, the smallest subnormal, 1e-300, the top of the float range, and, each with its
    # neighbouring doubles, 1 and 2^-14, 2^-13, 1/128 and 1/64, where a step of the reduction
    # meets point 0; mantissas whose low 33 bits are all 0, all 1, or 2^32; at the fine seams
    # of a few centres and at their reciprocals, the doubles whose top 20 mantissa bits lie
    # either side of the seam, each with its low 33 bits all 0 and all 1; and the reduction's
    # seams (_EDGE_POINTS)
    pts = [0.0, 5e-324, 1e-300, 1.7e308]
    pts += [math.nextafter(c, to) for c in (1.0, 2.0**-14, 2.0**-13, 1 / 128, 1 / 64) for to in (0.0, c, math.inf)]
    for top in (0x80005, 0xFFFFF, 0xAAAAA):  # 20 bits, so each mantissa has 53
        for low in (0, 2**33 - 1, 2**32):
            pts += [math.ldexp(top << 33 | low, e) for e in (-1074, -600, -60, -52, -45, 0, 100, 970)]
    for y in _fine_seams([k / 64 for k in (0, 1, 2, 32, 63, 64)]):
        for seam in (y, 1 / y):
            m, e = math.frexp(seam)
            for top in (math.floor(m * 2**20), math.floor(m * 2**20) + 1):
                pts += [math.ldexp(top << 33 | low, e - 53) for low in (0, 2**33 - 1)]
    return pts + _EDGE_POINTS


# the scan calls atan_fixed at scale 2^169 at its default 50 digits, dps_to_prec(50);
# _WP_50, 209 bits, is the oracle's working width for that scale, at which atan_fixed sums
_WP_50 = fixedpoint._oracle_bits(dps_to_prec(50))
_FIXED_SCALES = [150, dps_to_prec(50), _WP_50, 400, 1000]


def _check_atan_fixed(x, w):
    # fixedpoint.atan_fixed within 1.01 units of 2^-w of arctan x, against mpmath.atan 80 bits
    # deeper
    got = fixedpoint.atan_fixed(x, w)
    with mp.workprec(w + 80):
        off = got - mp.ldexp(mp.atan(mp.mpf(x)), w)
        assert abs(off) <= 1.01, (x, w, float(off))


@pytest.mark.parametrize("w", _FIXED_SCALES)
def test_fixed_arctan_lies_within_its_bound_at_edge_points(w):
    for x in _fixed_points():
        _check_atan_fixed(x, w)


@settings(max_examples=100, deadline=None)
@given(
    x=st.one_of(st.floats(0.0, 1.7976931348623157e308), st.floats(-324.0, 308.0).map(lambda t: 10.0**t)),
    w=st.sampled_from(_FIXED_SCALES),
)
def test_fixed_arctan_lies_within_its_bound(x, w):
    _check_atan_fixed(x, w)


def _link_units(n, wp):
    # fixedpoint._table's bound on one link, in units of 2^-wp: 3 + 2*terms/n, where the series
    # takes under wp/(2*log2 n) + 2 terms
    return 3 + 2 * (wp / (2 * math.log2(n)) + 2) / n


@pytest.mark.parametrize("wp", [150, _WP_50, 442, 1000])
@pytest.mark.parametrize("n", [fixedpoint._CENTRES, fixedpoint._FINE])
def test_table_entries_lie_within_their_bound(n, wp):
    # T_k within k links of arctan(k/n), against mpmath.atan 80 bits deeper; so the centres
    # lie within 2^9 units and the fine values within 2^8, as the reduction's budget takes
    assert fixedpoint._CENTRES * _link_units(n, wp) < (2**9 if n == fixedpoint._CENTRES else 2**8)
    table = fixedpoint._table(n, wp)
    assert len(table) == fixedpoint._CENTRES + 1 and table[0] == 0
    with mp.workprec(wp + 80):
        for k, t in enumerate(table):
            assert abs(t - mp.ldexp(mp.atan(mp.mpf(k) / n), wp)) <= k * _link_units(n, wp), (n, wp, k)


def test_oracle_refuses_a_fraction_with_value_error(cfg):
    # the argument checks are comparisons, which a Fraction passes; its parts are not exact
    # integers the oracle takes, so it names the types it does take
    with pytest.raises(ValueError, match=r"^x must be a float, an int or an mpf, got Fraction\(1, 3\)$"):
        oracle_arctan(Fraction(1, 3), cfg)


def test_oracle_does_not_depend_on_the_ambient_precision():
    # the oracle takes its precision from cfg alone: an int's parts are exact, both above
    # 2^53 and past the float range, and so are those of an mpf with more bits than either
    # ambient precision carries, one of them just above 1/64, where the relative series ends
    with mp.workprec(1200):
        wides = [mp.sqrt(2) / 3, mp.mpf(1) / 64 + mp.mpf(2) ** -1100]
    cfg = OracleConfig(working_digits=50, report_digits=30)
    for x in [2**60 + 1, 10**400, *wides]:
        values = []
        for ambient in (15, 300):
            _oracle_cached.cache_clear()
            with mp.workdps(ambient):
                values.append(oracle_arctan(x, cfg))
        assert values[0] == values[1], x
        assert _ulps_off(values[0], x, cfg.working_digits) <= 1, x


def test_oracle_pi_is_its_arctan_1_scaled_and_machin_to_the_bit():
    # pi and pi/2 are the oracle's arctan 1, the centre table's T_N rounded once, scaled
    # exactly; the Machin series, which shares no code with the table, rounds to the same mpf
    for wd in [*range(40, 151), 200, 300, 600]:
        cfg = OracleConfig(working_digits=wd, report_digits=30)
        quarter = oracle_arctan(1, cfg)
        assert oracle_pi(cfg) == mp.ldexp(quarter, 2) == machin_pi(wd // 2 + 4, dps=wd), wd
        assert oracle_arctan(math.inf, cfg) == mp.ldexp(quarter, 1), wd


def test_oracle_at_infinity_reads_the_cached_arctan_1():
    cfg = OracleConfig(working_digits=48, report_digits=30)
    oracle_arctan(1, cfg)
    before = _oracle_cached.cache_info()
    oracle_arctan(math.inf, cfg)
    after = _oracle_cached.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (0, 1)


def test_oracle_cold_and_warm_agree():
    cfg = OracleConfig(working_digits=47, report_digits=30)  # no other test asks for x at 47 digits
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
    # no number at all: its comparison with 0 raises TypeError, which the oracle names
    for bad in ("1", None, [1]):
        with pytest.raises(ValueError, match=r"^x must be a real number, got "):
            oracle_arctan(bad)


def test_oracle_pi_matches_library(cfg):
    with mp.workdps(50):
        assert abs(oracle_pi(cfg) - mp.pi) < mp.mpf(10) ** -45


def test_oracle_at_infinity_within_half_ulp_at_every_precision():
    # pi/2 is the oracle's arctan 1 doubled: T_N, within 2^9 units of 2^-(prec + 40), that is
    # 2^-31 ulp, rounded once, so it is the nearest mpf unless pi lies that close to a midpoint
    for digits in range(40, 151):
        assert _ulps_off(oracle_arctan(math.inf, OracleConfig(digits, 30)), math.inf, digits) <= 0.5, digits


def test_machin_consistent_with_oracle_arctangents():
    # the two-series value equals 16*arctan(1/5) - 4*arctan(1/239)
    c60 = OracleConfig(working_digits=60, report_digits=45)
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


def test_interval_parse_reads_every_spelling_of_infinity():
    # float() reads each as +inf, the unbounded end; only a written finite number past the
    # float range is refused as such, and -inf as hi fails lo < hi
    for text in ("0:inf", "0:+inf", "0:Infinity", "0:+INFINITY", "0: inf "):
        assert Interval.parse(text) == Interval(0.0, math.inf)
    with pytest.raises(ValueError, match="^need lo < hi, got 0.0:-inf$"):
        Interval.parse("0:-inf")
    with pytest.raises(ValueError, match="^interval hi lies past the float range"):
        Interval.parse("0:1e400")


@pytest.mark.parametrize(
    "bad",
    ["5", "2:1", "abc:1", "-1:2", "1:1", "inf:2", "0:nan",
     # a written number past the float range, which float() reads as inf: only 'inf' is unbounded
     "0:1e400", "0:-1e400", "1e400:inf",
     # ints past the float range, passed to Interval directly
     pytest.param((0, 10**400), id="0:10**400"), pytest.param((10**400, math.inf), id="10**400:inf")],
)
def test_interval_errors(bad):
    with pytest.raises(ValueError):
        Interval.parse(bad) if isinstance(bad, str) else Interval(*bad)


def test_sample_points_bounded_hold_both_ends():
    iv = Interval(0.0, 1.0)
    pts = _sample_points(iv, 65)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert all(a < b for a, b in zip(pts, pts[1:]))
    # every other grid point rounds to one of the ends, which both stay
    assert _sample_points(Interval(0.0, 5e-324), 64) == [0.0, 5e-324]


def test_sample_points_unbounded():
    iv = Interval(0.0, math.inf)
    pts = _sample_points(iv, 65)
    assert len(pts) == 65
    assert pts[0] == pytest.approx(1e-8, rel=1e-6)
    assert pts[-1] > 1e7
    with pytest.raises(ValueError):
        _sample_points(iv, 63)


@pytest.mark.parametrize("lo", [0.0, 1.0, 5e7, 9e7])
def test_sample_points_unbounded_stay_at_or_above_lo(lo):
    # at 1 and 9e7 tan rounds the grid's first point below lo; lo is sampled instead
    pts = _sample_points(Interval(lo, math.inf), 65)
    assert len(pts) == 65 and min(pts) >= lo
    assert pts[0] == pytest.approx(max(lo, 1e-8), rel=1e-6)


def test_sample_points_unbounded_past_the_grid_top_raise():
    # the tan-mapped grid stops at tan(pi/2 - 1e-8), about 1e8: an interval starting
    # past it would be sampled backwards, below its own lo
    with pytest.raises(ValueError, match="past the tan-mapped grid's top"):
        _sample_points(Interval(1e12, math.inf), 65)


def test_sample_points_are_a_new_list_of_floats_on_every_call():
    # each grid is built once per process, and every call gets its own list
    iv = Interval(0.0, 1.0)
    first = _sample_points(iv, 65)
    first[0] = -1.0
    first.append(2.0)
    again = _sample_points(iv, 65)
    assert again is not first and again[0] == 0.0 and again[-1] == 1.0 and len(again) == 97
    for ints, floats in ((Interval(0, 1), iv), (Interval(1, math.inf), Interval(1.0, math.inf))):
        pts = _sample_points(ints, 65)
        assert pts == _sample_points(floats, 65) and all(type(p) is float for p in pts)


def test_grid_cache_stays_bounded():
    cache = verify._grid
    assert cache.cache_info().maxsize is not None
    for k in range(cache.cache_info().maxsize + 4):
        _sample_points(Interval(0.0, 1.0 + k / 8), 64)
    assert cache.cache_info().currsize <= cache.cache_info().maxsize


def test_oracle_cache_holds_one_default_grid_and_no_more():
    # the reuse the cache serves is a pair's second side scanning the grid the first one did,
    # so it holds one bounded grid at the default size, with room for that grid's probes
    maxsize = _oracle_cached.cache_info().maxsize
    assert len(_sample_points(Interval(0.0, 1.0), DEFAULT_GRID)) <= maxsize <= 2 * DEFAULT_GRID


def test_oracle_cache_stays_bounded():
    cfg = OracleConfig(working_digits=40, report_digits=30)
    maxsize = _oracle_cached.cache_info().maxsize
    for k in range(1, maxsize + 5):
        oracle_arctan(k * 5e-324, cfg)  # distinct subnormals, whose series ends at its first term
    assert _oracle_cached.cache_info().currsize == maxsize


def test_a_pair_second_side_finds_its_oracle_values_cached(cfg):
    # sf's margins over [0, 1e-148] are settled at mpf on every grid point; the upper side
    # scans the grid the lower one did and computes no oracle value again
    iv = Interval(0.0, 1e-148)
    _oracle_cached.cache_clear()
    low = certify_bound(Approximant("sf", side="lower"), BoundKind.LOWER, iv, 65, cfg=cfg)
    up = certify_bound(Approximant("sf", side="upper"), BoundKind.UPPER, iv, 65, cfg=cfg)
    assert low.oracle_cold == low.evals_mpf == up.evals_mpf == len(_sample_points(iv, 65))
    assert up.oracle_cold == 0


def test_a_scan_on_a_new_grid_reports_what_a_warm_one_does(cfg):
    ap, iv = Approximant("w", n=6), Interval(0.0, 1.0)
    sup_error(ap, iv, 65, cfg=cfg)  # the oracle's values, in both runs below
    warm = sup_error(ap, iv, 65, cfg=cfg)
    verify._grid.cache_clear()
    assert sup_error(ap, iv, 65, cfg=cfg) == warm


def test_sup_error_of_oracle_is_tiny(cfg):
    f = lambda x: oracle_arctan(x, cfg)
    rep = sup_error(f, Interval(0.0, 1.0), 257, cfg=cfg)
    assert rep.sup_error <= 1e-25
    assert rep.bound_kind is BoundKind.APPROXIMATION
    assert rep.satisfied


def test_sup_error_lagrange_under_claim(cfg):
    rep = sup_error(
        lagrange_p,
        Interval(0.0, 1.0),
        1025,
        cfg=cfg,
        claimed_bound=1 / 230,
    )
    assert rep.satisfied and rep.sup_error < 1 / 230
    assert rep.min_gap == pytest.approx(1 / 230 - rep.sup_error, rel=1e-12)
    # the refined maximum sits near u ~ 0.157
    assert 0.1 < rep.arg_max < 0.2


def test_sup_error_lifted_doubles_lagrange(cfg):
    inner = sup_error(lagrange_p, Interval(0.0, 1.0), 1025, cfg=cfg)
    outer = sup_error(
        theorem5_approx,
        Interval(0.0, math.inf),
        1025,
        cfg=cfg,
        claimed_bound=1 / 115,
    )
    assert outer.satisfied and outer.sup_error < 1 / 115
    assert outer.sup_error == pytest.approx(2 * inner.sup_error, rel=1e-3)


def test_sup_error_grid_doubling_growth(cfg):
    iv = Interval(0.0, 1.0)
    small = sup_error(lagrange_p, iv, 513, cfg=cfg)
    big = sup_error(lagrange_p, iv, 1025, cfg=cfg)
    assert big.sup_error >= small.sup_error - 1e-11


def test_sup_error_validates_grid(cfg):
    with pytest.raises(ValueError):
        sup_error(lagrange_p, Interval(0.0, 1.0), 32, cfg=cfg)
    with pytest.raises(ValueError):
        sup_error(Approximant("cf", n=2), Interval(0, 1), 100.0, cfg=cfg)
    with pytest.raises(ValueError):
        norm_transfer_check(lagrange_p, 0.5, 200.0, cfg=cfg)


def test_certify_shafer_fink_directions(cfg):
    iv = Interval(0.0, 1e6)
    low = certify_bound(Approximant("sf", side="lower"), BoundKind.LOWER, iv, 513, cfg=cfg)
    up = certify_bound(Approximant("sf", side="upper"), "upper", iv, 513, cfg=cfg)
    assert low.satisfied and low.min_gap >= 0
    assert up.satisfied and up.min_gap >= 0
    assert low.bound_kind is BoundKind.LOWER


def test_certify_flags_corrupted_bound(cfg):
    scaled = lambda x: 0.999 * shafer_fink_bounds(x).upper
    rep = certify_bound(scaled, BoundKind.UPPER, Interval(0.0, 1e6), 257, cfg=cfg)
    assert not rep.satisfied
    assert rep.min_gap < 0


@pytest.mark.parametrize("n", [6, 8])
def test_certify_refuses_a_side_lowered_below_arctan_by_1e_30(cfg, n):
    # the verdict tolerates two mpf terms, 2*2^-149 at 50 digits, and no more: an upper side
    # that crosses arctan by 1e-30 at every x > 0 is refused, as one 1e-44 below is, while
    # the side itself passes
    side = Approximant("master", n=n, side="upper")
    iv = Interval.parse("0:inf")
    assert certify_bound(side, "upper", iv, 65, cfg=cfg).satisfied
    for shift in ("1e-30", "1e-44"):
        lowered = lambda x, d=mp.mpf(shift): side(x) - d if x > 0 else side(x)
        rep = certify_bound(lowered, "upper", iv, 65, cfg=cfg)
        assert not rep.satisfied and rep.min_gap < 0, shift


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


def _bound_case(ap, kind, iv):
    # a certify_bound case, its id built from the fields, so that a repr renames no test
    return pytest.param(ap, kind, iv, id=f"Approximant(family={ap.family!r}, n={ap.n!r}, side={ap.side!r})-{kind}-{iv}")


def _without_budget(ap):
    # the same approximant as a plain callable, which carries neither hook, rough_error
    # nor fixed_error: every grid point and every search probe is evaluated at mpf
    return lambda x: ap(x)


def _without_fixed(ap):
    # the same approximant with its float hook but no fixed-point one: a search's fixed
    # tier takes no value, so it goes on from float to mpf with the same probes
    def f(x):
        return ap(x)

    f.rough_error = ap.rough_error
    return f


def _without_slope(ap):
    # the same approximant with both hooks but neither a bound on |E'| nor a monotone |E|:
    # every search runs to its end
    f = _without_fixed(ap)
    f.fixed_error = ap.fixed_error
    return f


@pytest.mark.parametrize(
    "ap, iv",
    [
        (Approximant("cheb-lifted", n=4), Interval(0.0, math.inf)),
        (Approximant("w", n=3), Interval(0.0, 1.0)),
        (Approximant("w-lifted", n=1), Interval(0.0, math.inf)),
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
        _bound_case(Approximant("sf", side="lower"), "lower", Interval(0.0, 1e6)),
        _bound_case(Approximant("sf", side="upper"), "upper", Interval(0.0, 1e6)),
        _bound_case(Approximant("t4"), "upper", Interval(0.0, math.inf)),
        _bound_case(Approximant("master", n=3, side="lower"), "lower", Interval(0.0, 1000.0)),
        _bound_case(Approximant("s", n=2), "lower", Interval(0.0, 1.0)),
    ],
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
    n = draw(st.integers(info.n_min, 16 if ident == "master" else 8)) if info.needs_n else None
    kind = draw(st.sampled_from(["lower", "upper"]))
    ap = Approximant(ident, n=n, side=kind if info.kind is BoundKind.TWO_SIDED else None)
    hi = 1.0 if info.claim_interval == "0:1" else draw(st.sampled_from([math.inf, 3.0, 1e6]))
    lo = draw(st.one_of(st.just(0.0), st.floats(0.0, min(hi, 1e6) / 2)))
    iv = Interval(lo, hi)
    digits = draw(st.sampled_from([50, 60]))
    return ap, kind, iv, draw(st.integers(64, 400)), OracleConfig(digits, digits - 20)


def _case(ident, n, kind, hi, digits):
    side = kind if FAMILIES[ident].kind is BoundKind.TWO_SIDED else None
    return Approximant(ident, n=n, side=side), kind, Interval(0.0, hi), 65, OracleConfig(digits, digits - 20)


# the float-only run's (evals_mpf, search_mpf, refined, pruned) at each example below, for
# sup_error and then certify_bound: without a fixed-point hook the search's fixed tier gives
# (0, inf) at every probe and passes both on to mpf: the counts of a search that skips it
FLOAT_ONLY_COUNTS = {
    _case("sf", None, "lower", math.inf, 60): ((34, 33, 1, 0), (2, 0, 0, 0)),
    _case("t2", None, "upper", math.inf, 50): ((34, 33, 1, 0), (2, 0, 0, 0)),
    _case("master", 4, "lower", math.inf, 50): ((32, 31, 1, 0), (2, 0, 0, 0)),
    _case("cheb", 3, "upper", 1.0, 60): ((113, 106, 3, 0), (1, 0, 0, 0)),
    _case("cheb-lifted", 2, "lower", math.inf, 50): ((114, 111, 3, 0), (2, 0, 0, 0)),
    _case("t4", None, "upper", math.inf, 50): ((33, 32, 1, 0), (2, 0, 0, 0)),
    _case("lagrange", None, "lower", 1.0, 60): ((74, 66, 2, 0), (1, 0, 0, 0)),
    _case("t5", None, "lower", math.inf, 50): ((71, 69, 2, 0), (1, 0, 0, 0)),
    _case("cf", 5, "upper", 1.0, 60): ((15, 14, 1, 0), (1, 0, 0, 0)),
    _case("cf-lifted", 3, "upper", math.inf, 50): ((48, 47, 1, 0), (1, 0, 0, 0)),
    _case("s", 2, "upper", 1.0, 60): ((8, 7, 1, 0), (10, 0, 0, 0)),
    _case("t", 1, "upper", 1.0, 50): ((145, 48, 1, 0), (97, 0, 0, 0)),
    _case("w", 2, "lower", 1.0, 60): ((38, 37, 1, 0), (1, 0, 0, 0)),
    _case("w-lifted", 1, "upper", math.inf, 50): ((43, 42, 1, 0), (1, 0, 0, 0)),
}


# every family, besides the random draws: each row's fixed-point rule is its kernel in
# integers less the oracle's fixed arctan
@example(case=_case("sf", None, "lower", math.inf, 60))
@example(case=_case("t2", None, "upper", math.inf, 50))
@example(case=_case("master", 4, "lower", math.inf, 50))
@example(case=_case("cheb", 3, "upper", 1.0, 60))
@example(case=_case("cheb-lifted", 2, "lower", math.inf, 50))
@example(case=_case("t4", None, "upper", math.inf, 50))
@example(case=_case("lagrange", None, "lower", 1.0, 60))
@example(case=_case("t5", None, "lower", math.inf, 50))
@example(case=_case("cf", 5, "upper", 1.0, 60))
@example(case=_case("cf-lifted", 3, "upper", math.inf, 50))
@example(case=_case("s", 2, "upper", 1.0, 60))
@example(case=_case("t", 1, "upper", 1.0, 50))
@example(case=_case("w", 2, "lower", 1.0, 60))
@example(case=_case("w-lifted", 1, "upper", math.inf, 50))
@settings(max_examples=20, deadline=None)
@given(case=_certifications())
def test_settle_rules_match_all_mpf_on_random_rows(case):
    # every run here is without a bound on |E'|: a run without the fixed-point tier would
    # stop a search at another probe than one with it (test_pruning_changes_no_outcome)
    ap, kind, iv, grid, cfg = case
    counts = []
    for certify in (
        lambda f: sup_error(f, iv, grid, cfg=cfg, claimed_bound=0.01),
        lambda f: certify_bound(f, kind, iv, grid, cfg=cfg),
    ):
        fast, float_only, slow = certify(_without_slope(ap)), certify(_without_fixed(ap)), certify(_without_budget(ap))
        counts.append((float_only.evals_mpf, float_only.search_mpf, float_only.refined, float_only.pruned))
        assert _outcome(fast) == _outcome(float_only) == _outcome(slow)
        assert slow.evals_float == slow.search_fixed == float_only.search_fixed == 0
        assert slow.settle_fixed == float_only.settle_fixed == 0
        # the float tier runs alike with or without the fixed-point one, which only saves mpf
        assert fast.evals_float == float_only.evals_float and fast.refined == float_only.refined
        assert fast.evals_mpf <= float_only.evals_mpf <= slow.evals_mpf
        # the same grid points settle: in fixed point or at mpf in the fast run, at mpf in
        # the float-only one, and in the all-mpf one, which has no float bounds to leave a
        # point out, every grid point
        settled = [r.settle_fixed + r.evals_mpf - r.search_mpf for r in (fast, float_only, slow)]
        assert settled[0] == settled[1] <= settled[2] == len(_sample_points(iv, grid))
        # each float-only search value at mpf is a probe or a final value of the fast search
        assert fast.search_mpf + fast.search_fixed + fast.refined >= float_only.search_mpf
    if case in FLOAT_ONLY_COUNTS:
        assert tuple(counts) == FLOAT_ONLY_COUNTS[case]


@st.composite
def _sloped_scans(draw):
    # a row with a bound on |E'|, an interval in its domain and a grid, as (ap, iv, grid)
    ident = draw(st.sampled_from(sorted(ident for ident, info in FAMILIES.items() if info.slope)))
    info = FAMILIES[ident]
    ap = Approximant(ident, n=draw(st.integers(info.n_min, 16)) if info.needs_n else None)
    if info.claim_interval == "0:1":
        ends = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True).map(sorted)
        lo, hi = draw(st.one_of(st.just([0.0, 1.0]), ends))
    else:
        lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
        hi = draw(st.sampled_from([math.inf, lo + 1.0, 2 * lo + 5.0]))
    return ap, Interval(lo, hi), draw(st.integers(64, 300))


@example(case=(Approximant("cheb", n=3), Interval(0.0, 1.0), 65))
@settings(max_examples=25, deadline=None)
@given(case=_sloped_scans())
def test_pruning_changes_no_outcome(case):
    # a search stopped because it cannot beat the best value would not have changed it:
    # the same report, with no evaluation more, as the runs that search to the end
    ap, iv, grid = case
    pruned = sup_error(ap, iv, grid, claimed_bound=ap.claim)
    full = sup_error(_without_slope(ap), iv, grid, claimed_bound=ap.claim)
    assert _outcome(pruned) == _outcome(full) and pruned.refined == full.refined
    assert full.pruned == 0
    for name in ("evals_float", "evals_mpf", "search_mpf", "search_fixed"):
        assert getattr(pruned, name) <= getattr(full, name), name
    if case == (Approximant("cheb", n=3), Interval(0.0, 1.0), 65):
        # two of its three searches refine maxima that end below the grid's largest error
        assert pruned.pruned == 2 and pruned.search_fixed < full.search_fixed


def _flagged_intervals(ident, rng):
    # the claim interval and two random sub-intervals of it, with a grid each
    if FAMILIES[ident].claim_interval == "0:1":
        ivs = [Interval(0.0, 1.0)] + [Interval(*sorted(rng.uniform(0.0, 1.0) for _ in "ab")) for _ in "ab"]
    else:
        lo = rng.choice([0.0, 10 ** rng.uniform(-3, 7)])
        ivs = [Interval(0.0, math.inf), Interval(lo, math.inf), Interval(lo, (lo or 1.0) * (1 + 10 ** rng.uniform(-3, 2)))]
    return [(iv, rng.randint(64, 300)) for iv in ivs]


_COUNTS = ("evals_float", "evals_mpf", "search_mpf", "search_fixed", "refined", "pruned", "settle_fixed")


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ident", sorted(ident for ident, info in FAMILIES.items() if info.monotone))
def test_monotone_skip_changes_no_outcome(ident, seed):
    # sup_error on a row whose |E| is proved monotone, where it evaluates the grid end alone,
    # reports what the full scan of the same row without its flag reports, with no float
    # evaluation, one search started and pruned, and one point settled; the full scan too
    # starts one search, and runs it. Where it declines, it is the full scan, count for
    # count. On the whole claim interval, whose grid maximum lies at that end, it evaluates
    # the end alone. certify_bound always scans the grid
    rng = random.Random(f"{ident}/{seed}")
    info = FAMILIES[ident]
    ap = Approximant(ident, n=rng.randint(info.n_min, 16))
    plain = _without_slope(ap)
    for j, (iv, grid) in enumerate(_flagged_intervals(ident, rng)):
        flagged, full = (sup_error(f, iv, grid, claimed_bound=ap.claim) for f in (ap, plain))
        assert _outcome(flagged) == _outcome(full), (ap.label, iv, grid)
        if flagged.pruned > full.pruned or j == 0:  # the end alone
            assert (flagged.evals_float, flagged.search_mpf, flagged.search_fixed) == (0, 0, 0)
            assert (flagged.refined, flagged.pruned, flagged.settle_fixed + flagged.evals_mpf) == (1, 1, 1)
            assert flagged.arg_max == _sample_points(iv, grid)[-1 if ap.monotone > 0 else 0]
            assert (full.refined, full.pruned) == (1, 0) and full.search_fixed > 0
        else:
            assert [getattr(flagged, name) for name in _COUNTS] == [getattr(full, name) for name in _COUNTS]
        kind = rng.choice(["lower", "upper"])
        bound = certify_bound(ap, kind, iv, grid)
        assert _outcome(bound) == _outcome(certify_bound(plain, kind, iv, grid))
        assert bound.evals_float == (0 if ap.rough_error is None else len(_sample_points(iv, grid)))


@pytest.mark.parametrize(
    "ap, iv, end",
    [
        # cf's |E| is proved monotone on [0, 1] alone, so on 0:2 its end search runs
        (Approximant("cf", n=2), Interval(0.0, 2.0), 2.0),
        # |E| at the end lies near 2^-149 times 1/REFINE_TOL, so the search's final point may
        # lie within the mpf term of it: the rate cannot show that the end is the outcome, the
        # full scan runs, and its search here beats the grid value by less than 2*2^-149
        (Approximant("t", n=10), Interval(0.8574956976627317, 0.9994667260078469), 0.8574956976627317),
        (Approximant("t", n=16), Interval(0.6317247125396113, 0.7328950321941883), 0.6317247125396113),
    ],
    ids=lambda v: getattr(v, "label", None) or str(v),
)
def test_end_search_runs_where_the_flag_cannot_settle_it(ap, iv, end):
    flagged, full = (sup_error(f, iv, 65, claimed_bound=ap.claim) for f in (ap, _without_slope(ap)))
    assert _outcome(flagged) == _outcome(full)
    assert flagged.pruned == full.pruned == 0 and flagged.refined == 1
    assert flagged.search_fixed == full.search_fixed > 0
    assert abs(flagged.arg_max - end) <= (iv.hi - iv.lo) / 64  # in the end's grid cell


@pytest.mark.parametrize("n", range(7))
def test_t_skips_its_search_at_zero(n):
    # t's |E| falls on [0, 1], so its grid maximum at x = 0 alone is evaluated, and not searched
    ap = Approximant("t", n=n)
    flagged, full = (sup_error(f, Interval(0.0, 1.0), 65) for f in (ap, _without_slope(ap)))
    assert _outcome(flagged) == _outcome(full) and flagged.arg_max == 0.0
    assert (flagged.refined, flagged.pruned, flagged.search_fixed) == (1, 1, 0)
    assert full.search_fixed == 48


def _enclosed(lo, hi, value):
    # a _Lazy within [1 + lo*u, 1 + hi*u], u = 2^-52 the spacing of doubles above 1, whose
    # mpf value is 1 + value*u; the list records each resolution
    calls = []

    def get():
        calls.append(value)
        return 1 + value * u

    u = mp.ldexp(1, -52)
    return _Lazy(1 + lo * u, 1 + hi * u, get), calls


def test_enclosure_rules_resolve_only_where_the_bounds_cannot_decide():
    below, above = 1.0, 1.0 + 2**-52
    with mp.workdps(50):
        # the reported float's rule: round to nearest at both ends, resolving only where
        # they differ, so an enclosure across the midpoint resolves and one holding a
        # double need not
        for lo, hi, value, nearest, resolved in (
            (0.125, 0.25, 0.2, below, False),
            (-0.125, 0.125, 0.0625, below, False),
            (0.625, 0.875, 0.75, above, False),
            (0.25, 0.75, 0.625, above, True),
            (0.25, 0.75, 0.375, below, True),
        ):
            v, calls = _enclosed(lo, hi, value)
            assert float(v) == nearest and bool(calls) is resolved
        # comparisons: disjoint bounds decide; overlapping ones, or bounds holding the
        # number compared with, resolve both sides first
        (a, a_calls), (b, b_calls) = _enclosed(0.125, 0.25, 0.2), _enclosed(0.5, 0.75, 0.6)
        assert a < b and b >= a and not (a_calls or b_calls)
        (a, a_calls), (b, b_calls) = _enclosed(0.125, 0.5, 0.2), _enclosed(0.25, 0.75, 0.6)
        assert a < b and a_calls and b_calls
        a, a_calls = _enclosed(-0.125, 0.125, 0.0625)
        assert a > 1.0 and a_calls
        # below the normal range the doubles give way to the exact bounds
        tiny = mp.ldexp(1, -1100)
        a = _Lazy(tiny, tiny)
        assert a > 0 and -a < 0 and not (a <= 0) and a < 2 * tiny
        # c - v maps the bounds, rounded at mp.prec, and resolves through its operand
        a, a_calls = _enclosed(0.125, 0.25, 0.2)
        gap = 2.0 - a
        assert float(gap) == 1.0 and not a_calls
        assert gap.exact() == 1 - 0.2 * mp.ldexp(1, -52) and a_calls == [0.2]


def test_abs_of_an_enclosure_across_zero_stays_open_until_a_comparison_needs_it():
    with mp.workdps(50):
        u = mp.ldexp(1, -60)
        calls = []

        def get():
            calls.append(1)
            return -u / 4

        a = abs(_Lazy(-u, u / 2, get))
        assert (a.lo, a.hi) == (0, u) and a.open and not calls
        # the bounds decide what lies outside [0, u]; a number inside resolves the value
        assert a >= 0 and a < 2 * u and not (a > u) and not calls
        assert a > u / 8 and calls == [1]
        assert a.exact() == abs(-u / 4) == u / 4 and calls == [1]
        # an enclosure on one side of 0 is itself or its negation, a settled value too
        v = _Lazy(u, 2 * u, get)
        assert abs(v) is v and (abs(-v).lo, abs(-v).hi) == (u, 2 * u)
        assert abs(_Lazy(-u, -u)).lo == u


def test_top_local_maxima_test_the_cut_before_the_neighbours():
    # points under the cut are left out before their rank against a neighbour is read, so
    # neighbouring enclosures that overlap stay open there
    with mp.workdps(50):
        (a, a_calls), (b, b_calls) = _enclosed(0.125, 0.5, 0.2), _enclosed(0.25, 0.75, 0.6)
        bounds = [a, b, 4.0, 1.0]
        assert verify._top_local_maxima(bounds, bounds, 2.0) == [2]
        assert not (a_calls or b_calls)


def test_settle_leaves_out_of_the_argmax_what_the_settled_doubles_rule_out(cfg):
    # w n = 12's K-ulp budget (about 7e-15) is wider than its sup (under 20^-12), so on the
    # float bounds all 97 grid points could be the argmax. Once settled, 96 of them have an
    # upper double below the largest lower double, many of them tiny enclosures across 0
    # that overlap; settle leaves them out, resolves no settled value, and picks the
    # argmax that the mpf values give
    ap = Approximant("w", n=12)
    with mp.workdps(cfg.working_digits):
        err = verify._Errors(ap, Interval(0.0, 1.0), 65, cfg, 1)
        err.bound_grid()
        a_lo, a_hi = _abs_bounds(err.lo, err.hi)
        near = [i for i, h in enumerate(a_hi) if h >= max(a_lo)]
        lo, hi, best = err.settle(_maxima_pick)
        top = max(verify._bounds(lo[i], False)[0] for i in near)
        kept = [i for i in near if verify._bounds(hi[i], False)[1] >= top]
        assert len(near) == len(err.pts) == 97 and kept == [best]
        assert all(v.open for v in err.settled.values())
        exact = [abs(verify._signed_error(ap, 1, cfg, x)) for x in err.pts]
    assert best == max(range(len(exact)), key=exact.__getitem__)


def test_smallest_margin_leaves_out_what_the_doubles_rule_out(cfg):
    # w n = 9 is no upper bound: its smallest margin, near -6e-16, lies far below the
    # margins of its tiny enclosures across 0, which overlap one another, so min_gap is
    # read with none of them resolved, and is the margin that the mpf values give
    ap, iv = Approximant("w", n=9), Interval(0.0, 1.0)
    fast = certify_bound(ap, "upper", iv, 65, cfg=cfg)
    assert _outcome(fast) == _outcome(certify_bound(_without_budget(ap), "upper", iv, 65, cfg=cfg))
    assert not fast.satisfied and fast.evals_mpf == 0


@pytest.mark.parametrize(
    "ap, kind, iv",
    [
        _bound_case(Approximant("master", n=12, side="lower"), "lower", Interval(0.0, math.inf)),
        _bound_case(Approximant("master", n=6, side="upper"), "upper", Interval(0.0, math.inf)),
        _bound_case(Approximant("cf-lifted", n=3), "upper", Interval(0.0, math.inf)),
        _bound_case(Approximant("w", n=2), "lower", Interval(0.0, 1.0)),
    ],
)
def test_settled_value_encloses_its_mpf_value(cfg, ap, kind, iv):
    # a settled point's enclosure holds the mpf value it stands for, down to master
    # n = 12, whose |E| (about 1e-51) lies below the mpf term that the enclosure carries
    with mp.workdps(cfg.working_digits):
        err = verify._Errors(ap, iv, 64, cfg, -1 if kind == "lower" else 1)
        for x in err.pts[::4]:
            v = err.value(x)
            lo, hi = v.lo, v.hi
            assert v.open and lo < hi
            assert lo <= v.exact() <= hi


def test_fixed_tier_works_at_the_working_precision(cfg, monkeypatch):
    # every fixed-point evaluation a scan makes, settled points, probes and final values
    # alike, is at the one scale 2^-mp.prec, whatever the row's |E|
    scales = []

    def record(hook, x, w, k, _real=verify._fixed_error):
        scales.append(w)
        return _real(hook, x, w, k)

    monkeypatch.setattr(verify, "_fixed_error", record)
    unit, whole = Interval(0.0, 1.0), Interval(0.0, math.inf)
    for ap, iv in [
        (Approximant("cheb", n=0), unit),
        (Approximant("cheb", n=8), unit),
        (Approximant("master", n=6, side="upper"), whole),
        (Approximant("w", n=3), unit),
    ]:
        sup_error(ap, iv, 65, cfg=cfg)
    certify_bound(Approximant("t4"), "upper", whole, 65, cfg=cfg)
    with mp.workdps(cfg.working_digits):
        assert scales and set(scales) == {mp.prec}


def test_callable_without_budget_is_evaluated_wholly_at_mpf(cfg):
    iv = Interval(0.0, 1.0)
    rep = sup_error(lagrange_p, iv, 257, cfg=cfg)
    assert rep.evals_float == 0
    assert rep.evals_mpf > len(_sample_points(iv, 257))  # the grid and the refinements
    rep = certify_bound(_without_budget(Approximant("sf", side="lower")), "lower", iv, 129, cfg=cfg)
    assert rep.evals_float == 0 and rep.evals_mpf == len(_sample_points(iv, 129))


class _Raising:
    """An approximant as a callable whose rough_error and fixed_error raise at every point."""

    def __init__(self, ap):
        self.ap, self.calls = ap, 0

    def __call__(self, x):
        return self.ap(x)

    def rough_error(self, x):
        self.calls += 1
        raise ValueError("no float value")

    def fixed_error(self, x, w):
        raise ValueError("no fixed value")


@pytest.mark.parametrize(
    "ap, iv",
    [
        (Approximant("cheb", n=4), Interval(0.0, 1.0)),
        (Approximant("sf", side="lower"), Interval(0.0, math.inf)),
        (Approximant("t", n=2), Interval(0.0, 1.0)),
    ],
    ids=lambda v: str(v) if isinstance(v, Interval) else v.label,
)
def test_a_missing_hook_answers_as_a_raising_one(cfg, ap, iv):
    # each guard gives (0, inf) for a hook that is missing and for one that raises, so the
    # scan decides both alike, at mpf; only a hook it calls counts as an evaluation, so
    # the raising copy's float and search fixed-point counts differ, and the oracle cache
    # holds the first scan's values for the second
    scans = [
        lambda f: sup_error(f, iv, 65, cfg=cfg, claimed_bound=ap.claim),
        lambda f: certify_bound(f, "lower", iv, 65, cfg=cfg),
        lambda f: certify_bound(f, "upper", iv, 65, cfg=cfg),
    ]
    for scan in scans:
        raising = _Raising(ap)
        plain, got = scan(_without_budget(ap)), scan(raising)
        assert plain.evals_float == 0 and got.evals_float == raising.calls > 0
        # sup_error, arg_max, min_gap, satisfied and the other counts; repr, so a nan min_gap equals itself
        rest = dict(family="", evals_float=0, search_fixed=0, oracle_cold=0)
        assert repr(got._replace(**rest)) == repr(plain._replace(**rest))
    for hook in (None, raising.rough_error):
        assert verify._float_errors(hook, (0.5,), 149) == [(0.0, math.inf)]
    for hook in (None, raising.fixed_error):
        assert verify._fixed_error(hook, 0.5, 169, 149) == (0, math.inf)


def test_report_counts_cold_oracle_values(cfg):
    # a second identical run finds every oracle value in the cache, and reports the rest
    # alike; bare callables, since a registry row reads its values from fixed point
    for hi, run in (  # grids no other test scans
        (0.6180339887, lambda iv: sup_error(_without_budget(Approximant("cf", n=3)), iv, 129, cfg=cfg)),
        (
            0.7071067811,
            lambda iv: certify_bound(_without_budget(Approximant("sf", side="upper")), "upper", iv, 129, cfg=cfg),
        ),
    ):
        iv = Interval(0.0, hi)
        first, second = run(iv), run(iv)
        assert first.oracle_cold > 0 and second.oracle_cold == 0
        assert second._replace(oracle_cold=first.oracle_cold) == first


def test_tiny_error_row_settles_fewer_points_at_mpf(cfg):
    # the g-constant side of master n = 6 stays within about 1e-15 of arctan, under
    # the K-ulp rule's budget, which settled every grid point at mpf; its tail's budget,
    # relative to E, leaves the same outcome with fewer mpf evaluations
    iv = Interval(0.0, math.inf)
    ap = Approximant("master", n=6, side="lower")
    rep = sup_error(ap, iv, 129, cfg=cfg)
    slow = sup_error(_without_budget(ap), iv, 129, cfg=cfg)
    assert rep.sup_error < 1e-12
    assert _outcome(rep) == _outcome(slow)
    assert rep.evals_mpf < slow.evals_mpf / 2
    assert rep.evals_mpf - rep.search_mpf < len(_sample_points(iv, 129)) / 4


class _FloatTrouble:
    """cf_arctan(2, x) that claims a float budget but fails at float on part of the grid."""

    def rough_error(self, x):
        return ulp_rule(self, x)

    def __call__(self, x):
        if isinstance(x, float) and x > 0.5:
            if x > 0.75:
                raise ZeroDivisionError("float trouble")
            return math.nan
        return cf_arctan(2, x)


def test_failed_float_values_are_settled_at_mpf(cfg):
    iv = Interval(0.0, 1.0)
    fast = sup_error(_FloatTrouble(), iv, 257, cfg=cfg, claimed_bound=0.01)
    slow = sup_error(lambda x: cf_arctan(2, x), iv, 257, cfg=cfg, claimed_bound=0.01)
    assert _outcome(fast) == _outcome(slow)
    assert 0 < fast.evals_float


@pytest.mark.parametrize(
    "value, certify, gap",
    [
        (math.nan, lambda f, iv, cfg: sup_error(f, iv, 65, cfg=cfg, claimed_bound=0.5), math.nan),
        (math.nan, lambda f, iv, cfg: certify_bound(f, "upper", iv, 65, cfg=cfg), math.nan),
        (math.inf, lambda f, iv, cfg: sup_error(f, iv, 65, cfg=cfg, claimed_bound=0.5), -math.inf),
    ],
    ids=["nan-sup_error", "nan-certify_bound", "inf-sup_error"],
)
def test_a_non_finite_value_is_an_unsatisfied_verdict(cfg, value, certify, gap):
    # every comparison with a NaN is false, so max, min and the claim would pass over one;
    # the first point evaluated at mpf where E is not finite, the first grid point above
    # 0.5, ends the scan there with |E| as its sup, as inf does
    iv = Interval(0.0, 1.0)
    rep = certify(lambda x: value if x > 0.5 else x, iv, cfg)
    assert not rep.satisfied
    assert rep.arg_max == min(x for x in _sample_points(iv, 65) if x > 0.5)
    assert repr((rep.sup_error, rep.min_gap)) == repr((abs(value), gap))


def test_points_near_zero_are_float_evaluations(cfg):
    # below 1e-150 too the float tier takes a value: certify_bound makes no golden-section
    # probes, so each grid point, 0 among them, is one float evaluation
    iv = Interval(0.0, 1e-148)
    ap = Approximant("cf", n=2)
    rep = certify_bound(ap, "lower", iv, 129, cfg=cfg)
    pts = _sample_points(iv, 129)
    assert any(0 < x < 1e-150 for x in pts)
    assert rep.evals_float == len(pts)
    assert _outcome(rep) == _outcome(certify_bound(_without_budget(ap), "lower", iv, 129, cfg=cfg))


def _hex(got):
    # a guard's (e, B), or None, bit for bit
    return None if got is None else tuple(float(v).hex() for v in got)


class _Odd(Exception):
    """No float failure: the guard must let it through."""


# what a drawn hook does at one point
_HOOK_ACTS = ["value", "value", "nan", "inf", "-inf", "arith", "valueerror", "odd"]


def _drawn_hook(acts, calls):
    # a rough_error hook acting at each x as acts[x] says, recording where it is called
    def hook(x):
        calls.append(x)
        act = acts[x]
        if act == "arith":
            raise ZeroDivisionError("float trouble")
        if act == "valueerror":
            raise ValueError("outside the kernel's domain")
        if act == "odd":
            raise _Odd(x)
        return {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}.get(act, _drawn_e(x)), _drawn_b(x)

    return hook


def _drawn_e(x):
    return math.sin(x) * 1e-3


def _drawn_b(x):
    return 64 * math.ulp(math.atan(x))


# grids holding 0, the smallest subnormal, points under 1e-150 and points above 1e150
_GRID_POINTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-150, 1e150, 1.7e308]),
    st.floats(5e-324, 1e-150, exclude_max=True),
    st.floats(1e150, 1.7e308, exclude_min=True),
    st.floats(min_value=-150.0, max_value=150.0).map(lambda t: 10.0**t),
)


@st.composite
def _hooked_grids(draw):
    # a sorted grid, and what the hook does at each of its points
    xs = sorted(draw(st.lists(_GRID_POINTS, min_size=1, max_size=40, unique=True)))
    return xs, [draw(st.sampled_from(_HOOK_ACTS)) for _ in xs]


# points where b + 2^-k + ulp(e), summed in another order, rounds to another double
@example(case=([0.0, 1.0137223441605712e-37], ["value", "value"]), k=116)
@example(case=([1.4920963276941121e-47, 1e150], ["value", "nan"]), k=149)
@settings(max_examples=300, deadline=None)
@given(case=_hooked_grids(), k=st.sampled_from([116, 149]))
def test_list_guard_gives_what_the_guard_gives_point_by_point(case, k):
    # the grid goes through the guard at once, search probes one point at a time: bit for
    # bit the same (e, B), the hook called at the same points, once each and in order,
    # and any other exception let through
    xs, drawn = case
    acts = dict(zip(xs, drawn))
    whole, single = [], []
    try:
        got = verify._float_errors(_drawn_hook(acts, whole), xs, k)
    except _Odd as exc:
        got = exc.args
    one_hook, each = _drawn_hook(acts, single), []
    try:
        each = [verify._float_errors(one_hook, (x,), k)[0] for x in xs]
    except _Odd as exc:
        each = exc.args
    odd = [x for x in xs if acts[x] == "odd"]
    if odd:
        assert got == each == (odd[0],) and whole == single == xs[: xs.index(odd[0]) + 1]
        return
    assert [_hex(g) for g in got] == [_hex(g) for g in each]
    assert whole == single == xs
    for x, g in zip(xs, got):
        if acts[x] != "value":
            assert g == (0.0, math.inf)
        else:  # B = b + 2^-k + ulp(e), summed in that order
            e = _drawn_e(x)
            assert _hex(g) == _hex((e, _drawn_b(x) + math.ldexp(1.0, -k) + math.ulp(e)))
    none = [(0.0, math.inf)]  # a missing hook answers as a raising one does
    assert verify._float_errors(None, xs, k) == none * len(xs) and verify._float_errors(None, xs[:1], k) == none


@pytest.mark.parametrize("ident", sorted(FAMILIES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_grid_at_once_gives_each_rows_float_bounds_point_by_point(cfg, ident, data):
    # on the row's table grid at a random order and side: the float bounds and the
    # evals_float count the scan sets up from the whole grid at once are those that the
    # guard gives one point at a time
    info = FAMILIES[ident]
    n = data.draw(st.integers(info.n_min, MAX_ORDER + 1)) if info.needs_n else None
    side = data.draw(st.sampled_from(["lower", "upper"])) if info.kind is BoundKind.TWO_SIDED else None
    sign = data.draw(st.sampled_from([-1, 1]))
    if info.needs_n and n > MAX_ORDER:  # every row refuses an order past master's when it is built
        with pytest.raises(ValueError, match=f"^n of family '{ident}' must be an integer in"):
            Approximant(ident, n=n, side=side)
        return
    ap = Approximant(ident, n=n, side=side)
    with mp.workdps(cfg.working_digits):
        err = verify._Errors(ap, Interval.parse(info.claim_interval), 65, cfg, sign)
        err.bound_grid()
        grid_evals = err.evals_float
        bounds = [(lo, hi) for lo, hi in zip(err.lo, err.hi)]
        for x, (lo, hi) in zip(err.pts, bounds):
            e, b = err.rough(x)
            assert _hex((lo, hi)) == _hex((e - b, e + b)), (ap.label, x)
    assert err.evals_float == 2 * grid_evals
    assert grid_evals == (0 if ap.rough_error is None else len(err.pts))


def test_golden_section_brackets_near_the_top_of_the_float_range(cfg):
    # both ends of a bracket lie above 9e307, where their sum overflows; the search
    # halves them first, so its tolerance and its returned point stay finite
    rep = sup_error(Approximant("t5"), Interval(9e307, 1e308), 65, cfg=cfg)
    assert rep.refined > 0
    assert 9e307 <= rep.arg_max <= 1e308
    assert math.isfinite(rep.sup_error)


class _Profile:
    """arctan plus a piecewise-linear error through the knots (x, E), 0.01 outside them.

    It takes the K-ulp rule with K = float_ulps, and its float values carry the
    extra error float_error, which the budget must cover. Every call is recorded
    as (x, "float") or (x, "mpf").
    """

    def __init__(self, knots, float_ulps, float_error=0.0):
        self.xs, self.es = zip(*knots)
        self.float_ulps, self.float_error = float_ulps, float_error
        self.calls = []

    def rough_error(self, x):
        atan = math.atan(x)
        return self(x) - atan, self.float_ulps * math.ulp(atan)

    def error(self, x):
        k = bisect.bisect_right(self.xs, x)
        if k == 0 or k == len(self.xs):
            return 0.01
        (x0, x1), (e0, e1) = self.xs[k - 1 : k + 1], self.es[k - 1 : k + 1]
        return e0 + (e1 - e0) * (x - x0) / (x1 - x0)

    def __call__(self, x):
        if isinstance(x, float):
            self.calls.append((x, "float"))
            return math.atan(x) + self.error(x) + self.float_error
        self.calls.append((float(x), "mpf"))
        return mp.atan(x) + self.error(x)


def test_neighbour_whose_rank_is_open_is_settled(cfg):
    # grid point i is a local maximum of |E| below the peak at k = i+2. Its
    # neighbour j = i+1 is certainly below k, so j is no candidate itself, but
    # it ranks against i only within the float budget (about 6e-5 here). Only
    # settling j as i's neighbour makes i a certain local maximum, and only
    # refining i finds the error's true peak, 1.01, between i and j.
    iv = Interval(0.0, 1.0)
    pts = _sample_points(iv, 64)
    i = 40
    knots = [
        (pts[i - 1], 0.01),
        (pts[i], 1.0),
        ((pts[i] + pts[i + 1]) / 2, 1.01),
        (pts[i + 1], 1.0 - 1e-6),
        (pts[i + 2], 1.001),
        (pts[i + 3], 0.01),
    ]
    f = _Profile(knots, 2**40, float_error=1e-5)
    fast = sup_error(f, iv, 64, cfg=cfg)
    slow = sup_error(_without_budget(f), iv, 64, cfg=cfg)
    assert _outcome(fast) == _outcome(slow)
    assert fast.refined == slow.refined == 2
    assert fast.sup_error == pytest.approx(1.01, abs=1e-9)


def test_local_maximum_below_half_the_peak_is_neither_settled_nor_refined(cfg):
    # a local maximum of 0.4 next to a peak of 1.0: it lies under the cut at half
    # the peak, so neither scan refines it, and the fast scan evaluates it only at float
    iv = Interval(0.0, 1.0)
    pts = _sample_points(iv, 64)
    p, m = 30, 70
    knots = [(pts[p - 1], 0.01), (pts[p], 1.0), (pts[p + 1], 0.01)]
    knots += [(pts[m - 1], 0.01), (pts[m], 0.4), (pts[m + 1], 0.01)]
    fast_f, slow_f = _Profile(knots, 64), _Profile(knots, 64)
    fast = sup_error(fast_f, iv, 64, cfg=cfg)
    slow = sup_error(_without_budget(slow_f), iv, 64, cfg=cfg)
    assert _outcome(fast) == _outcome(slow)
    assert fast.refined == slow.refined == 1
    assert fast.sup_error == pytest.approx(1.0, abs=1e-9)
    assert fast.evals_mpf < slow.evals_mpf
    near_m = [c for c in fast_f.calls if pts[m - 1] < c[0] < pts[m + 1]]
    assert near_m == [(pts[m], "float")]
    assert [c[0] for c in slow_f.calls if pts[m - 1] < c[0] < pts[m + 1]] == [pts[m]]


# one bound of sign*E: ties, and the infinite bounds of a point the float tier takes no
# value at, besides any finite value
_BOUND = st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, math.inf]) | st.floats(-4.0, 4.0)


def _tightening(loose, tight):
    # ((lo, hi), (lo', hi')) from two lists of (lo, hi), one pair per point
    return tuple(tuple(map(list, zip(*pairs))) for pairs in (loose, tight))


@st.composite
def _tightenings(draw):
    # float bounds lo <= hi on sign*E over a grid of 2 to 40 points, and tighter ones
    # lo <= lo' <= hi' <= hi: each point's kept, or two draws clamped into [lo, hi]
    loose, tight = [], []
    for a, b, c, d, keep in draw(st.lists(st.tuples(*[_BOUND] * 4, st.booleans()), min_size=2, max_size=40)):
        lo, hi = sorted((a, b))
        loose.append((lo, hi))
        tight.append((lo, hi) if keep else tuple(sorted(min(max(v, lo), hi) for v in (c, d))))
    return _tightening(loose, tight)


_ZERO, _LOW = (0.0, 0.0), (0.5, 0.5)


# a certain top drops below the cut that the tightened peak raises: with _TOP tops left
# (the third top, 2, under the new cut 2.5), and with fewer (the three tops of 1 under 2);
# the two points of 0.5 at the end are named should the floor fall
@example(case=_tightening(
    [_ZERO, (3.0, 3.0), _ZERO, (3.0, 3.0), _ZERO, (2.0, 2.0), _ZERO, (0.0, 5.0), _ZERO, _LOW, _LOW],
    [_ZERO, (3.0, 3.0), _ZERO, (3.0, 3.0), _ZERO, (2.0, 2.0), _ZERO, (5.0, 5.0), _ZERO, _LOW, _LOW],
))
@example(case=_tightening(
    [_ZERO, (1.0, 1.0), _ZERO, (1.0, 1.0), _ZERO, (1.0, 1.0), _ZERO, (0.0, 4.0), _ZERO, _LOW, _LOW],
    [_ZERO, (1.0, 1.0), _ZERO, (1.0, 1.0), _ZERO, (1.0, 1.0), _ZERO, (4.0, 4.0), _ZERO, _LOW, _LOW],
))
@settings(max_examples=300, deadline=None)
@given(case=_tightenings())
def test_picks_name_fewer_points_on_tighter_bounds(case):
    # settle's single pass rests on this (see _Errors.settle): on bounds within the ones
    # it was given, each pick names a subset of the points it named there
    (lo, hi), (lo2, hi2) = case
    for pick in (_maxima_pick, _margin_pick):
        loose = set(pick(lo, hi, *_abs_bounds(lo, hi)))
        assert set(pick(lo2, hi2, *_abs_bounds(lo2, hi2))) <= loose, pick.__name__
