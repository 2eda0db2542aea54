"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure) and then asserts, so the suite doubles as a human-readable
certification report.
"""

import math

from mpmath import mp

from arctancert.core import (
    lagrange_p,
    shafer_fink_bounds,
    theorem2_bounds,
    theorem5_approx,
)
from arctancert.families import Approximant
from arctancert.master import a_n, master_bounds
from arctancert.series import cf_arctan, machin_pi, taylor1_s, taylor1_t
from arctancert.numerics import FLOAT, MPF
from arctancert.verify import (
    BoundKind,
    Interval,
    OracleConfig,
    _sample_points,
    certify_bound,
    oracle_arctan,
    oracle_pi,
    sup_error,
)

from master_reference import gn_eval

GRID = 4097
SQRT2 = math.sqrt(2)

R_PLUS = Interval(0.0, math.inf)
UNIT = Interval(0.0, 1.0)
UP_TO_1E6 = Interval(0.0, 1e6)

CFG = OracleConfig(working_digits=50, report_digits=30)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} [{status}] {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_criterion_01_shafer_fink_directions():
    low = certify_bound(Approximant("sf", side="lower"), BoundKind.LOWER, UP_TO_1E6, GRID, cfg=CFG)
    up = certify_bound(Approximant("sf", side="upper"), BoundKind.UPPER, UP_TO_1E6, GRID, cfg=CFG)
    ok = low.satisfied and up.satisfied and low.min_gap >= 0 and up.min_gap >= 0
    _report(1, "Shafer-Fink lower/upper on (0,1e6]", ok,
            f"min_gap lower={low.min_gap:.3e} upper={up.min_gap:.3e}")


def test_criterion_02_theorem2():
    low = certify_bound(Approximant("t2", side="lower"), BoundKind.LOWER, UP_TO_1E6, GRID, cfg=CFG)
    up = certify_bound(Approximant("t2", side="upper"), BoundKind.UPPER, UP_TO_1E6, GRID, cfg=CFG)
    # the pair gap is the constant (45 - pi*(3+8*sqrt2)) times the shared body
    c = 45 - math.pi * (3 + 8 * SQRT2)
    worst = 0.0
    for x in _sample_points(R_PLUS, GRID):
        lo_v, up_v = theorem2_bounds(x)
        worst = max(worst, abs((up_v - lo_v) - c * up_v / 45) / up_v)
    with mp.workdps(40):
        endpoint_gap = 1 - mp.pi * (3 + 8 * mp.sqrt(2)) / 45
        ten_digits_ok = abs(endpoint_gap - mp.mpf("7.146340880820068552e-4")) < mp.mpf("1e-14")
        below = endpoint_gap < mp.mpf(1) / 16
    ok = low.satisfied and up.satisfied and worst < 1e-12 and ten_digits_ok and below
    _report(2, "order-2 bounds, gap consistency, 1-g2(pi/2) < 1/16", ok,
            f"gap-consistency worst={worst:.2e}, 1-g2={float(endpoint_gap):.10e}")


def test_criterion_03_master_family():
    details = []
    ok = True
    for n in range(1, 7):
        low = certify_bound(
            Approximant("master", n=n, side="lower"), BoundKind.LOWER, UP_TO_1E6, GRID, cfg=CFG
        )
        up = certify_bound(
            Approximant("master", n=n, side="upper"), BoundKind.UPPER, UP_TO_1E6, GRID, cfg=CFG
        )
        with mp.workdps(50):
            gap = abs(gn_eval(n, mp.pi / 2) - 1)
            gap_ok = gap < mp.mpf(4) ** -n
        ok = ok and low.satisfied and up.satisfied and gap_ok
        details.append(f"n={n} gap={float(gap):.2e}")
    # orders 1 and 2 reduce to the closed forms within 4 ulp, both as raw
    # bodies (a_n vs the closed-form denominators) and as scaled pairs
    worst_ulp = 0.0
    for i in range(2048):
        x = 10.0 ** (-6 + 12 * i / 2047)
        s = math.hypot(1.0, x)
        body1 = x / (1 + 2 * s)
        body2 = x / (7 + 6 * s + 16 * math.hypot(x, 1 + s))
        worst_ulp = max(worst_ulp, abs(a_n(1, x) - body1) / math.ulp(body1))
        worst_ulp = max(worst_ulp, abs(a_n(2, x) - body2) / math.ulp(body2))
        for got, ref in (
            (master_bounds(1, x), shafer_fink_bounds(x)),
            (master_bounds(2, x), theorem2_bounds(x)),
        ):
            for g, r in zip(got, ref):
                worst_ulp = max(worst_ulp, abs(g - r) / math.ulp(r))
    ok = ok and worst_ulp <= 4
    _report(3, "master family n=1..6 sandwich, endpoint gaps, reductions", ok,
            f"worst reduction ulp={worst_ulp:.2f}; " + "; ".join(details))


def test_criterion_04_chebyshev():
    ok = True
    details = []
    for n in range(0, 9):
        claim = (1 + SQRT2) ** -(2 * n + 3)
        rep = sup_error(Approximant("cheb", n=n), UNIT, GRID, cfg=CFG, claimed_bound=claim)
        ok = ok and rep.satisfied
        if n in (0, 8):
            details.append(f"cheb n={n} sup={rep.sup_error:.3e} <= {claim:.3e}")
    for n in range(1, 9):
        claim = (3 + 2 * SQRT2) ** -n
        rep = sup_error(Approximant("cheb-lifted", n=n), R_PLUS, GRID, cfg=CFG, claimed_bound=claim)
        ok = ok and rep.satisfied
        if n in (1, 8):
            details.append(f"lifted n={n} sup={rep.sup_error:.3e} <= {claim:.3e}")
    _report(4, "Chebyshev truncations n=0..8 and lifted n=1..8", ok, "; ".join(details))


def test_criterion_05_continued_fraction():
    ok = True
    details = []
    for n in range(1, 9):
        rep = sup_error(
            Approximant("cf", n=n), UNIT, GRID, cfg=CFG, claimed_bound=0.5 * 4.0**-n
        )
        rep_l = sup_error(
            Approximant("cf-lifted", n=n), R_PLUS, GRID, cfg=CFG, claimed_bound=4.0**-n
        )
        ok = ok and rep.satisfied and rep_l.satisfied
        if n in (1, 8):
            details.append(f"n={n} sup={rep.sup_error:.3e} lifted={rep_l.sup_error:.3e}")
    closed = {
        1: lambda x: x / (1 + x * x / 3),
        2: lambda x: x * (15 + 4 * x * x) / (15 + 9 * x * x),
        3: lambda x: 5 * x * (21 + 11 * x * x) / (105 + 90 * x * x + 9 * x**4),
    }
    worst_ulp = 0.0
    for i in range(1024):
        x = (i + 1) / 1024
        for n, ref_fn in closed.items():
            ref = ref_fn(x)
            worst_ulp = max(worst_ulp, abs(cf_arctan(n, x) - ref) / math.ulp(ref))
    ok = ok and worst_ulp <= 4
    _report(5, "continued-fraction convergents n=1..8 and closed forms", ok,
            f"closed-form worst ulp={worst_ulp:.2f}; " + "; ".join(details))


def test_criterion_06_lagrange_and_lifted():
    rep_p = sup_error(lagrange_p, UNIT, GRID, cfg=CFG, claimed_bound=1 / 230)
    rep_5 = sup_error(theorem5_approx, R_PLUS, GRID, cfg=CFG, claimed_bound=1 / 115)
    worst = 0.0
    for x in _sample_points(UP_TO_1E6, 1025):
        worst = max(worst, abs(theorem5_approx(x) - 2 * lagrange_p(FLOAT.reduce(x))))
    ok = rep_p.satisfied and rep_5.satisfied and worst == 0
    _report(6, "interpolant sup < 1/230, lifted sup < 1/115, identity", ok,
            f"sup_p={rep_p.sup_error:.4e} sup_lift={rep_5.sup_error:.4e} id-worst={worst:.1e}")


def test_criterion_07_series_at_one():
    ok = True
    details = []
    pts = _sample_points(UNIT, GRID)
    with mp.workdps(50):
        tol = mp.mpf(10) ** -25
        r2 = mp.sqrt(2)
        for n in range(0, 6):
            dir_ok = True
            env_ok = True
            for u in pts:
                um = mp.mpf(u)
                ref = oracle_arctan(u, CFG)
                s_v = taylor1_s(n, um)
                t_v = taylor1_t(n, um)
                if n % 2 == 0:  # s over, t under
                    dir_ok = dir_ok and s_v - ref >= -tol and ref - t_v >= -tol
                else:  # s under, t over
                    dir_ok = dir_ok and ref - s_v >= -tol and t_v - ref >= -tol
                if 1 <= n <= 5:
                    env_s = (r2 * um / (um + 1)) ** (4 * n)
                    env_t = ((1 - um) / r2) ** (4 * n)
                    env_ok = env_ok and abs(s_v - ref) <= env_s + tol and abs(t_v - ref) <= env_t + tol
            ok = ok and dir_ok and env_ok
            details.append(f"n={n} dir={'ok' if dir_ok else 'BAD'} env={'ok' if env_ok else 'BAD'}")
    for n in range(1, 7):
        rep = sup_error(Approximant("w", n=n), UNIT, GRID, cfg=CFG, claimed_bound=20.0**-n)
        ok = ok and rep.satisfied
        if n in (1, 6):
            details.append(f"w n={n} sup={rep.sup_error:.3e}")
    _report(7, "series at x=1: parity directions, envelopes, blend sup", ok, "; ".join(details))


def test_criterion_08_machin_pi():
    with mp.workdps(60):
        target = oracle_pi(OracleConfig(working_digits=60, report_digits=45))
        err12 = abs(machin_pi(12, dps=60) - target)
        agree_ok = err12 < mp.mpf(10) ** -25
        errs = [abs(machin_pi(k, dps=60) - target) for k in range(1, 11)]
        mono_ok = all(a > b for a, b in zip(errs, errs[1:]))
    _report(8, "Machin pi: 25-digit agreement at 12 terms, monotone errors", agree_ok and mono_ok,
            f"err(12)={float(err12):.2e}")


def test_criterion_09_oracle_integrity():
    c40 = OracleConfig(working_digits=40, report_digits=30)
    c60 = OracleConfig(working_digits=60, report_digits=45)
    worst_resid = mp.mpf(0)
    worst_rel = mp.mpf(0)
    with mp.workdps(70):
        for i in range(100):
            theta = 1e-8 + (math.pi / 2 - 2e-8) * i / 99
            x = math.tan(theta)
            u = MPF.reduce(mp.mpf(x))
            resid = abs(2 * oracle_arctan(u, CFG) - oracle_arctan(x, CFG))
            worst_resid = max(worst_resid, resid)
            a = oracle_arctan(x, c40)
            b = oracle_arctan(x, c60)
            worst_rel = max(worst_rel, abs(a - b) / b)
        ok = worst_resid <= mp.mpf(10) ** -28 and worst_rel <= mp.mpf(10) ** -30
    _report(9, "oracle bisection residual and cross-precision agreement", ok,
            f"residual={float(worst_resid):.1e} rel40v60={float(worst_rel):.1e}")


def test_criterion_10_mutation_sanity():
    uppers = {
        "sf": Approximant("sf", side="upper"),
        "t2": Approximant("t2", side="upper"),
        "t4": Approximant("t4"),
        "master3": Approximant("master", n=3, side="upper"),
    }
    ok = True
    details = []
    for name, f in uppers.items():
        damaged = lambda x, f=f: 0.999 * f(x)
        rep = certify_bound(damaged, BoundKind.UPPER, UP_TO_1E6, 1025, cfg=CFG)
        flipped = (not rep.satisfied) and rep.min_gap < 0
        ok = ok and flipped
        details.append(f"{name} min_gap={rep.min_gap:.2e}")
    _report(10, "0.999-scaled upper bounds all flip to violated", ok, "; ".join(details))
