import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from arctancert import master
from arctancert.core import shafer_fink_bounds, theorem2_bounds
from arctancert.families import Approximant
from arctancert.master import (
    MAX_ORDER,
    a_n,
    denominator_product,
    elementary_symmetric,
    gn_eval,
    master_bounds,
    master_params,
    pn_coefficients,
)
from arctancert.numerics import FLOAT, MPF
from arctancert.verify import oracle_arctan

from conftest import log_grid, nested_radical_seq

A1_AT_1 = 0.2612038749637414
A2_AT_1 = 0.017453439731452079
G2_END = "0.9992853659119179931447772904516"


def _poly(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_pn_coefficients_low_orders():
    assert pn_coefficients(1) == (Fraction(-1, 3), Fraction(4, 3))
    assert pn_coefficients(2) == (Fraction(1, 45), Fraction(-20, 45), Fraction(64, 45))


@pytest.mark.parametrize("n", range(1, 17))
def test_pn_exact_roots_and_normalization(n):
    coeffs = pn_coefficients(n)
    assert sum(coeffs, Fraction(0)) == 1
    assert _poly(coeffs, Fraction(1)) == 1
    for j in range(1, n + 1):
        assert _poly(coeffs, Fraction(1, 4**j)) == 0


def test_pn_domain():
    with pytest.raises(ValueError):
        pn_coefficients(0)
    with pytest.raises(ValueError):
        pn_coefficients(33)


def test_elementary_symmetric_small():
    assert elementary_symmetric(1) == (1, 1)
    assert elementary_symmetric(2) == (1, 5, 4)
    assert elementary_symmetric(3) == (1, 21, 84, 64)


@pytest.mark.parametrize("n", range(1, 9))
def test_sign_sum_identity(n):
    # sum_j (-1)^(n-j) 4^j e_j equals prod(4^k - 1): the generating polynomial at t = -4
    e = elementary_symmetric(n)
    total = sum((-1) ** (n - j) * 4**j * e[j] for j in range(n + 1))
    assert total == denominator_product(n)


@pytest.mark.parametrize("n", range(1, 17))
def test_coefficient_identity_between_routes(n):
    # D*A_j/2^j == (-1)^(n-j) * 2^j * e_j, exactly: ties a_n's sum to p_n
    coeffs = pn_coefficients(n)
    e = elementary_symmetric(n)
    d = denominator_product(n)
    for j in range(n + 1):
        assert d * coeffs[j] / 2**j == Fraction((-1) ** (n - j) * 2**j * e[j])


def test_a_n_values():
    assert a_n(1, 0.0) == 0.0
    assert a_n(1, 1.0) == pytest.approx(A1_AT_1, rel=1e-15)
    assert a_n(2, 1.0) == pytest.approx(A2_AT_1, rel=1e-15)
    # normalized slope at the origin: a_3(x)*D/x -> 1
    x = 1e-8
    assert a_n(3, x) * 2835 / x == pytest.approx(1.0, abs=1e-15)
    assert denominator_product(3) == 2835


def test_a_n_matches_closed_forms_pointwise():
    for x in log_grid(1e-4, 1e6, 40):
        s = math.hypot(1.0, x)
        body = x / (1 + 2 * s)
        assert abs(a_n(1, x) - body) <= 4 * math.ulp(body)
        f2 = x / (7 + 6 * s + 16 * math.hypot(x, 1 + s))
        assert abs(a_n(2, x) - f2) <= 4 * math.ulp(f2)


def test_a_n_domain():
    with pytest.raises(ValueError):
        a_n(0, 1.0)
    with pytest.raises(ValueError):
        a_n(3, -1.0)


def test_gn_endpoint_values():
    with mp.workdps(50):
        g1 = gn_eval(1, mp.pi / 2)
        assert abs(g1 - mp.pi / 3) < mp.mpf(10) ** -40
        g2 = gn_eval(2, mp.pi / 2)
        assert abs(g2 - mp.mpf(G2_END)) < mp.mpf(10) ** -30


@pytest.mark.parametrize("n", range(1, 7))
def test_gn_tends_to_one_at_zero(n):
    g = gn_eval(n, 1e-6)
    assert abs(g - 1) < mp.mpf(10) ** -10


@pytest.mark.parametrize("bad", [0.0, -0.5, 2.0, math.nan])
def test_gn_domain(bad):
    with pytest.raises(ValueError):
        gn_eval(2, bad)


@pytest.mark.parametrize("n", range(1, 7))
def test_gn_sampled_monotonicity(n):
    # monotone on a 1024-point grid of (0, pi/2]; increasing for odd n,
    # decreasing for even n; adjacent steps below oracle noise are tolerated
    with mp.workdps(50):
        thetas = [mp.pi / 2 * (i + 1) / 1024 for i in range(1024)]
        vals = [gn_eval(n, th) for th in thetas]
        noise = mp.mpf(10) ** -45
        diffs = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
        if n % 2:
            assert all(d >= -noise for d in diffs)
            assert vals[-1] > vals[0]
        else:
            assert all(d <= noise for d in diffs)
            assert vals[-1] < vals[0]


@pytest.mark.parametrize("n", range(1, 9))
def test_endpoint_gap_shrinks_like_4_to_minus_n(n):
    with mp.workdps(50):
        g = gn_eval(n, mp.pi / 2)
        assert abs(g - 1) < mp.mpf(4) ** -n


def _gn_end_reference(n):
    # g_n(pi/2) summed at 400 digits, independent of master's precision rule
    with mp.workdps(400):
        th = mp.pi / 2
        return +mp.fsum(
            mp.mpf(c.numerator) / c.denominator * (th / 2**k) / mp.tan(th / 2**k)
            for k, c in enumerate(pn_coefficients(n))
        )


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_master_params_parity_and_gap(n):
    params = master_params(n)
    assert params.denom_product == denominator_product(n)
    with mp.workdps(400):
        if n % 2:
            assert params.k_low == 1 and params.k_high > 1
        else:
            assert params.k_high == 1 and params.k_low < 1
        gap = params.k_high - params.k_low
        assert gap < mp.mpf(4) ** -n
        ref_gap = abs(_gn_end_reference(n) - 1)
        assert abs(gap - ref_gap) < ref_gap * mp.mpf(10) ** -20


# master's own checks raise ValueError, which python -O keeps, where an assert would vanish
def test_a_negative_denominator_raises_value_error(monkeypatch):
    negated = {c: tuple(-a for a in master._signed_e(3, c)) for c in (FLOAT, MPF)}
    monkeypatch.setattr(master, "_signed_e", lambda n, c: negated[c])
    for c, x in ((FLOAT, 0.5), (MPF, mp.mpf(0.5))):
        with pytest.raises(ValueError, match="a_3 denominator must be positive"):
            master._a_n(3, x, c)


@pytest.mark.parametrize(
    "n, g_end, message",
    [
        (3, lambda n: mp.mpf(1), r"expected g_3\(pi/2\) > 1"),  # odd n: the constant must exceed 1
        (4, lambda n: 1 - 2 * mp.mpf(4) ** -n, r"expected k_high - k_low < 4\^-4"),  # below 1, too far
    ],
    ids=["parity", "gap"],
)
def test_master_params_checks_raise_value_error(monkeypatch, n, g_end, message):
    monkeypatch.setattr(master, "gn_eval", lambda n, theta: g_end(n))
    with pytest.raises(ValueError, match=message):
        master_params.__wrapped__(n)  # the uncached body


def test_master_params_known_constants():
    p1 = master_params(1)
    p2 = master_params(2)
    with mp.workdps(50):
        assert abs(p1.k_high - mp.pi / 3) < mp.mpf(10) ** -40
        assert abs(p2.k_low - mp.mpf(G2_END)) < mp.mpf(10) ** -30


def test_master_params_cached():
    assert master_params(4) is master_params(4)


def test_master_bounds_reduce_to_closed_forms():
    for x in log_grid(1e-4, 1e6, 60):
        for got, ref in (
            (master_bounds(1, x), shafer_fink_bounds(x)),
            (master_bounds(2, x), theorem2_bounds(x)),
        ):
            for g, r in zip(got, ref):
                assert abs(g - r) <= 4 * math.ulp(r)


def test_master_bounds_sandwich_spot_check(cfg):
    from arctancert.verify import oracle_arctan

    with mp.workdps(50):
        ref = oracle_arctan(7.0, cfg)
        lo, hi = master_bounds(4, mp.mpf(7))
        assert lo < ref < hi
        assert hi - lo < mp.mpf(4) ** -4 * denominator_product(4) * a_n(4, mp.mpf(7))


@pytest.mark.parametrize("n", range(12, MAX_ORDER + 1))
def test_master_bounds_enclose_atan_at_high_orders(n):
    with mp.workdps(200):
        for x in ("0.5", "3", "1e6"):
            lo, hi = master_bounds(n, mp.mpf(x))
            assert lo < mp.atan(mp.mpf(x)) < hi


@pytest.mark.parametrize("x", [1e154, 1e200, 1.7e308])
def test_master_bounds_near_the_top_of_the_float_range(x):
    ref = float(oracle_arctan(x))
    lower, upper = master_bounds(1, x)
    assert lower <= ref <= upper  # order 1 is the Shafer-Fink pair
    for n in range(2, MAX_ORDER + 1):
        lower, upper = master_bounds(n, x)
        assert math.isfinite(lower) and math.isfinite(upper)
        assert abs(lower - ref) < 2 * 4.0**-n and abs(upper - ref) < 2 * 4.0**-n


@pytest.mark.parametrize("x", [1e-300, 1e-250, 1e-200])
def test_master_bounds_at_the_bottom_of_the_float_range(x):
    # a_n(x) = x/den with den about D, up to 1e82, so x/den alone would underflow
    for n in range(1, MAX_ORDER + 1):
        for side in master_bounds(n, x):
            assert side > 0
            assert abs(side - x) <= (4.0**-n + 1e-15) * x


def test_denominator_identity_between_forms():
    # D * sum_k float(A_k)/2^k * L_k agrees with the integer-weighted sum
    for n in range(1, 7):
        coeffs = [float(c) for c in pn_coefficients(n)]
        e = elementary_symmetric(n)
        d = denominator_product(n)
        for x in log_grid(1e-3, 1e3, 30):
            ell = nested_radical_seq(n, x)
            via_pn = d * math.fsum(coeffs[k] / 2**k * ell[k] for k in range(n + 1))
            via_sym = math.fsum((-1) ** (n - j) * (e[j] << j) * ell[j] for j in range(n + 1))
            assert via_pn == pytest.approx(via_sym, rel=1e-12)


def _per_call_a_n(n, x, c):
    # master._a_n in its per-call form, the reference for the cached coefficients: the
    # integers (-1)^(n-j)*e_j*2^j built on every call and multiplied into each L_j as ints
    e = elementary_symmetric(n)
    ell = [1 / c.hypot(1, x)]
    num = x * ell[0]
    for _ in range(n):
        ell.append(ell[-1] + c.hypot(num, ell[-1]))
    sign = -1 if n % 2 else 1
    terms = []
    for j in range(n + 1):
        terms.append(sign * (e[j] << j) * ell[j])
        sign = -sign
    return num, c.fsum(terms)


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_cached_coefficients_give_the_per_call_products_bit_for_bit(n):
    params = master_params(n)
    rng = random.Random(f"a_n:{n}")
    xs = [0.0, 5e-324, 1.0, 1e150, 1.7e308] + [10 ** rng.uniform(-300, 300) for _ in range(40)]
    for x in xs:
        num, den = _per_call_a_n(n, x, FLOAT)
        want = (num * (params.scale_low / den), num * (params.scale_high / den))
        assert [v.hex() for v in master_bounds(n, x)] == [v.hex() for v in want], x
    with mp.workdps(50):
        for x in map(mp.mpf, xs[:12]):
            num, den = _per_call_a_n(n, x, MPF)
            scaled = params.denom_product * (num / den)
            got = master_bounds(n, x)
            assert (got.lower._mpf_, got.upper._mpf_) == ((params.k_low * scaled)._mpf_, (params.k_high * scaled)._mpf_)


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_master_side_evaluator_matches_the_pair_bit_for_bit(n):
    # Approximant("master", n, side) forms its side alone (master._master_side); it must equal
    # the pair's field exactly, at float and at 50-digit mpf
    rng = random.Random(f"master side {n}")
    xs = [0.0, 5e-324, 1.0, 1e150, 1.7e308] + [10 ** rng.uniform(-300, 300) for _ in range(12)]
    xs += [rng.uniform(0.0, 4.0) for _ in range(8)]
    for side in ("lower", "upper"):
        ap = Approximant("master", n=n, side=side)
        for x in xs:
            assert ap(x).hex() == getattr(master_bounds(n, x), side).hex(), (side, x)
        with mp.workdps(50):
            for x in map(mp.mpf, xs):
                assert ap(x)._mpf_ == getattr(master_bounds(n, x), side)._mpf_, (side, x)
