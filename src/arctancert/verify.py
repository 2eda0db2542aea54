"""Extended-precision arctangent oracle and the sup-norm certification harness.

The oracle never calls a library arctangent. It halves its argument through
the identity arctan x = 2*arctan(x/(1+sqrt(1+x^2))) until the remainder drops
below a threshold, sums the Maclaurin series there, and doubles back. These
steps run in integer fixed point with guard bits beyond the working
precision, and the result is rounded once, so it lies within one unit in the
last place at working precision. pi is taken from the exact-rational Machin
series and cross-checked against the reduction path once per working
precision.

Certification is sampling-based evidence, not interval-arithmetic proof: a
grid is laid over the requested interval (a tan-mapped grid when the interval
is unbounded, uniform plus Chebyshev-spaced points when bounded), the worst
few local error maxima are sharpened by golden-section search to a bracket
below REFINE_TOL*max(1, x), and margins are reported against the claimed bound.

The scan runs at two precisions. Each grid point is first evaluated in float
against the oracle rounded to float, giving an error e with a budget
B = K*ulp(arctan x) + ulp(e) that bounds its distance from the error at the
oracle's working precision. K is the approximant's ``float_ulps``
(``families.FLOAT_ULPS``, 64, for every budgeted registry row); the property
it rests on, float within K/4 ulp of arctan x of the 50-digit value, is
tested for every family, order and side in tests/test_families.py. Both
certifications then run one settle loop, which re-evaluates at mpf every
point a decision could rest on until none is left: for sup_error a point that
could be a refined local maximum or the global maximum, for certify_bound one
whose margin could be the smallest or whose |E| the largest. Points outside
[1e-150, 1e150], the range the budget is tested on, and points whose float
value raises or is not finite are evaluated at mpf; a callable without
``float_ulps`` gets an infinite budget, so all of its points are.
Golden-section search compares in float while the budgets settle each
comparison and at mpf from the first one they do not. Every decision is
therefore the one an all-mpf scan makes, and every reported value (sup error,
argmax, margins) is computed at mpf.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest

from .core import LiftedApproximant, lift_interval_map
from .series import machin_pi

_THETA_EDGE = 1e-8  # exclusion buffer at both ends of the tan-mapped grid
_INVPHI = (math.sqrt(5) - 1) / 2

DEFAULT_GRID = 4097
REFINE_TOL = 1e-12  # golden-section brackets stop below REFINE_TOL*max(1, x)
_TOP = 3  # local maxima of |E| refined by golden-section search
_GUARD_BITS = 24  # fixed-point bits the oracle carries beyond the working precision
_FLOAT_RANGE = (1e-150, 1e150)  # arguments over which float_ulps budgets are tested


class BoundKind(Enum):
    LOWER = "lower"
    UPPER = "upper"
    TWO_SIDED = "two_sided"
    APPROXIMATION = "approximation"


@dataclass(frozen=True)
class OracleConfig:
    """Precision policy for the oracle.

    working_digits is the arithmetic precision, report_digits the accuracy
    actually promised to callers; the gap absorbs accumulated rounding.
    """

    working_digits: int = 50
    report_digits: int = 30
    reduction_threshold: float = 2.0**-10

    def __post_init__(self):
        if self.report_digits < 30:
            raise ValueError("report_digits must be >= 30")
        if self.working_digits < 40:
            raise ValueError("working_digits must be >= 40")
        if self.working_digits < self.report_digits + 10:
            raise ValueError("working_digits must be >= report_digits + 10")
        if not 0 < self.reduction_threshold <= 0.5:
            raise ValueError("reduction_threshold must lie in (0, 0.5]")


def default_config() -> OracleConfig:
    """Default precision, honoring the ARCTAN_CERT_DIGITS override (min 30)."""
    env = os.environ.get("ARCTAN_CERT_DIGITS")
    report = max(30, int(env)) if env else 30
    return OracleConfig(working_digits=report + 20, report_digits=report)


def _shift(v: int, s: int) -> int:
    return v << s if s >= 0 else v >> -s


def _atan_core(x, threshold):
    # arctan of x >= 0 at the active precision: halve, Maclaurin, double back,
    # all on integers scaled by 2^wp, then round once. The reduced y stays
    # above threshold/4, so wp keeps _GUARD_BITS beyond mp.prec relative to it.
    if isinstance(x, float):
        man, den = x.as_integer_ratio()  # exact, and cheaper than building an mpf
        exp = 1 - den.bit_length()
    else:
        _, man, exp, _ = (x if isinstance(x, mp.mpf) else mp.mpf(x))._mpf_
    if not man:
        return mp.mpf(0)
    t_frac, t_exp = math.frexp(threshold)
    wp = mp.prec + _GUARD_BITS + 3 - t_exp
    one = 1 << wp
    halvings = 0
    if x >= 2:
        # first halving as 1/(r + sqrt(1+r^2)) with r = 1/x, so x never squares
        r = (1 << (wp - exp)) // man if wp >= exp else 0
        man, exp, halvings = (one << wp) // (r + math.isqrt((one << wp) + r * r)), -wp, 1
    if x > threshold:
        y = _shift(man, exp + wp)
        t = int(t_frac * 2**53) << (wp + t_exp - 53)
        while y > t:
            y = (y << wp) // (one + math.isqrt((one << wp) + y * y))
            halvings += 1
        man, exp = y, -wp
    # sum (-1)^j y^(2j)/(2j+1) relative to y, so tiny x keeps full relative accuracy
    y2 = _shift(man * man, 2 * exp + wp)
    s, p, j = 0, one, 0
    while p:
        s += p // (2 * j + 1) if j % 2 == 0 else -(p // (2 * j + 1))
        p = (p * y2) >> wp
        j += 1
    return mp.make_mpf(from_man_exp(man * s, exp - wp + halvings, mp.prec, round_nearest))


@lru_cache(maxsize=None)
def _pi_internal(working_digits: int):
    """Machin-series pi at the given precision, cross-checked against the reduction path."""
    with mp.workdps(working_digits):
        terms = working_digits // 2 + 4  # ~2.5 digits per dominant-series row
        from_series = machin_pi(terms, dps=working_digits)
        from_reduction = 4 * _atan_core(mp.mpf(1), 2.0**-10)
        if abs(from_series - from_reduction) > mp.mpf(10) ** (5 - working_digits):
            raise ArithmeticError("internal pi cross-check failed")
        return +from_series


@lru_cache(maxsize=262144)
def _oracle_cached(x, working_digits, threshold):
    with mp.workdps(working_digits):
        return _atan_core(x, threshold)


def oracle_arctan(x, cfg: Optional[OracleConfig] = None):
    """Reference arctan(x), accurate to cfg.report_digits significant digits.

    Accepts non-negative floats, ints or mpf values; +inf returns pi/2.
    """
    cfg = cfg or default_config()
    # comparisons only, so a float, an int past the float range and an mpf all pass
    if x != x:
        raise ValueError("x must not be NaN")
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x!r}")
    if x == math.inf:
        with mp.workdps(cfg.working_digits):
            return _pi_internal(cfg.working_digits) / 2
    return _oracle_cached(x, cfg.working_digits, cfg.reduction_threshold)


def oracle_pi(cfg: Optional[OracleConfig] = None):
    """The oracle's internal pi at its working precision."""
    cfg = cfg or default_config()
    return _pi_internal(cfg.working_digits)


@dataclass(frozen=True)
class Interval:
    """A sampling domain [lo, hi] with endpoint openness; hi may be +inf."""

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if math.isinf(self.lo) or self.lo < 0:
            raise ValueError(f"lo must be finite and >= 0, got {self.lo!r}")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got {self.lo!r}:{self.hi!r}")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.hi)

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse 'lo:hi' with 'inf' allowed as hi."""
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"interval must look like 'lo:hi', got {text!r}")
        try:
            lo = float(parts[0])
            hi = math.inf if parts[1].strip().lower() == "inf" else float(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad interval {text!r}: {exc}") from None
        return cls(lo, hi)

    def __str__(self) -> str:
        return f"{_fmt_endpoint(self.lo)}:{_fmt_endpoint(self.hi)}"


def _fmt_endpoint(v: float) -> str:
    if math.isinf(v):
        return "inf"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


@dataclass(frozen=True)
class ErrorReport:
    """Outcome of one certification run."""

    family: str
    interval: Interval
    sup_error: float
    arg_max: float
    claimed_bound: Optional[float]
    bound_kind: BoundKind
    satisfied: bool
    min_gap: float
    evals_float: int = 0  # approximant evaluations in double precision
    evals_mpf: int = 0  # and at the oracle's working precision


def _sample_points(iv: Interval, grid_points: int) -> list:
    if grid_points < 64:
        raise ValueError(f"grid_points must be >= 64, got {grid_points}")
    if iv.unbounded:
        th_lo = max(math.atan(iv.lo), _THETA_EDGE)
        th_hi = math.pi / 2 - _THETA_EDGE
        step = (th_hi - th_lo) / (grid_points - 1)
        pts = [math.tan(th_lo + i * step) for i in range(grid_points)]
    else:
        lo, hi = iv.lo, iv.hi
        step = (hi - lo) / (grid_points - 1)
        pts = [lo + i * step for i in range(grid_points)]
        pts[-1] = hi
        m = grid_points // 2 + 1
        pts.extend(lo + (hi - lo) * 0.5 * (1 - math.cos(math.pi * i / m)) for i in range(1, m))
        pts.sort()
    out = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    if iv.lo_open:
        out = [p for p in out if p > iv.lo]
    if iv.hi_open:
        out = [p for p in out if p < iv.hi]
    if len(out) < 2:
        raise ValueError(f"interval {iv} is degenerate at this grid size")
    return out


class _Errors:
    """The signed error E = f - arctan of one approximant over a grid, at two precisions.

    rough(x) evaluates f in float against the oracle rounded to float and
    returns (e, B): B = K*ulp(arctan x) + ulp(e) bounds |e - E|, where K is
    f's ``float_ulps``. B is infinite when f carries no K, when x lies
    outside _FLOAT_RANGE, or when the float value raises or is not finite.
    exact(x) is E at mpf. The grid keeps one (est, bud) pair per point, and
    settle() replaces it by (E, 0). Evaluations are counted per precision.
    """

    def __init__(self, f: Callable, pts: list, cfg: OracleConfig):
        self.f, self.pts, self.cfg = f, pts, cfg
        self.ulps = getattr(f, "float_ulps", None)
        self.evals_float = self.evals_mpf = 0
        rough = [self.rough(p) for p in pts]
        self.est = [e for e, _ in rough]
        self.bud = [b for _, b in rough]

    def rough(self, x: float):
        if self.ulps is None or not _FLOAT_RANGE[0] <= x <= _FLOAT_RANGE[1]:
            return 0.0, math.inf
        self.evals_float += 1
        ref = float(oracle_arctan(x, self.cfg))
        try:
            e = self.f(x) - ref
        except (ArithmeticError, ValueError):  # settled at mpf, where a real failure raises again
            return 0.0, math.inf
        if not math.isfinite(e):
            return 0.0, math.inf
        return e, self.ulps * math.ulp(ref) + math.ulp(e)

    def exact(self, x: float):
        self.evals_mpf += 1
        return self.f(mp.mpf(x)) - oracle_arctan(x, self.cfg)

    def settle(self, pick):
        """Settle the points pick(bounds()) names, until it names only settled ones; return the bounds."""
        while True:
            lo, hi = self.bounds()
            todo = [i for i in dict.fromkeys(pick(lo, hi)) if self.bud[i]]  # a pick may repeat a point
            if not todo:
                return lo, hi
            for i in todo:
                self.est[i], self.bud[i] = self.exact(self.pts[i]), 0

    def bounds(self):
        """Lists lo, hi with lo[i] <= E_i <= hi[i], both E_i once settled."""
        pairs = list(zip(self.est, self.bud))
        return [e - b if b else e for e, b in pairs], [e + b if b else e for e, b in pairs]


def _abs_bounds(lo, hi):
    # bounds on |E| from bounds on E; both equal |E| where lo == hi
    a_lo = [l if l > 0 else -h if h < 0 else 0 for l, h in zip(lo, hi)]
    a_hi = [max(-l, h) for l, h in zip(lo, hi)]
    return a_lo, a_hi


def _top_local_maxima(lo, hi):
    # the _TOP grid points certainly at least as large as their neighbours,
    # largest first; with every point settled (lo == hi) these are the exact local maxima
    n = len(lo)
    idxs = [
        i
        for i in range(n)
        if (i == 0 or lo[i] >= hi[i - 1]) and (i == n - 1 or lo[i] >= hi[i + 1])
    ]
    idxs.sort(key=lo.__getitem__, reverse=True)
    return idxs[:_TOP]


def _maxima_pick(lo, hi):
    # each point that could be a top local maximum of |E| (it is not below a neighbour,
    # and its upper bound reaches the lowest certain one), with its neighbours while
    # its own rank against them is open
    lo, hi = _abs_bounds(lo, hi)
    tops = _top_local_maxima(lo, hi)
    floor = lo[tops[-1]] if len(tops) == _TOP else -math.inf
    n = len(lo)
    todo = []
    for i in range(n):
        if hi[i] < floor:
            continue
        nbrs = [j for j in (i - 1, i + 1) if 0 <= j < n]
        if any(hi[i] < lo[j] for j in nbrs):
            continue
        todo.append(i)
        if not all(lo[i] >= hi[j] for j in nbrs):
            todo.extend(nbrs)
    return todo


def _golden_max(err: _Errors, a: float, b: float):
    # golden-section search for the maximum of |E| on [a, b]. Comparisons run
    # in float while the two budgets settle them; at the first one they do not,
    # both probes are redone at mpf and the search goes on at mpf. The probe
    # points depend only on a, b and _INVPHI, so every decision is the one an
    # all-mpf search makes, and the returned maximum is evaluated at mpf.
    def rough(x):
        e, bud = err.rough(x)
        return abs(e), bud

    def exact(x):
        return abs(err.exact(x)), 0

    g = rough
    tol = REFINE_TOL * max(1.0, abs(a + b) / 2)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    (gc, bc), (gd, bd) = g(c), g(d)
    while (b - a) > tol:
        if g is rough and not abs(gc - gd) > bc + bd:
            g = exact
            (gc, bc), (gd, bd) = g(c), g(d)
        if gc < gd:
            a, c, gc, bc = c, d, gd, bd
            d = a + _INVPHI * (b - a)
            gd, bd = g(d)
        else:
            b, d, gd, bd = d, c, gc, bc
            c = b - _INVPHI * (b - a)
            gc, bc = g(c)
    x = (a + b) / 2
    return x, exact(x)[0]


def _report(f: Callable, interval: Interval, err: _Errors, **fields) -> ErrorReport:
    # the family label is the approximant's own: its label, else its __name__
    label = getattr(f, "label", None) or getattr(f, "__name__", None) or "approximant"
    return ErrorReport(label, interval, evals_float=err.evals_float, evals_mpf=err.evals_mpf, **fields)


def sup_error(
    f: Callable,
    interval: Interval,
    grid_points: int = DEFAULT_GRID,
    *,
    cfg: Optional[OracleConfig] = None,
    claimed_bound: Optional[float] = None,
) -> ErrorReport:
    """Estimate sup |f - arctan| over the interval.

    The grid is scanned at two precisions (see the module docstring); the top
    three local maxima of the error are then refined by golden-section search
    until the bracket is narrower than REFINE_TOL*max(1, x), REFINE_TOL = 1e-12.
    When claimed_bound is given, satisfied means the refined sup stayed at or
    under it. The report counts the approximant's evaluations per precision.
    """
    cfg = cfg or default_config()
    pts = _sample_points(interval, grid_points)
    with mp.workdps(cfg.working_digits):
        err = _Errors(f, pts, cfg)
        lo, hi = _abs_bounds(*err.settle(_maxima_pick))
        best_i = max(range(len(pts)), key=lo.__getitem__)
        best_x, best_e = pts[best_i], lo[best_i]
        for i in _top_local_maxima(lo, hi):
            a = pts[i - 1] if i > 0 else pts[i]
            b = pts[i + 1] if i + 1 < len(pts) else pts[i]
            x_r, e_r = _golden_max(err, a, b)
            if e_r > best_e:
                best_x, best_e = x_r, e_r
        satisfied = claimed_bound is None or bool(best_e <= claimed_bound)
        min_gap = math.nan if claimed_bound is None else float(claimed_bound - best_e)
    return _report(
        f,
        interval,
        err,
        sup_error=float(best_e),
        arg_max=float(best_x),
        claimed_bound=claimed_bound,
        bound_kind=BoundKind.APPROXIMATION,
        satisfied=satisfied,
        min_gap=min_gap,
    )


def certify_bound(
    f: Callable,
    kind: BoundKind | str,
    interval: Interval,
    grid_points: int = DEFAULT_GRID,
    *,
    cfg: Optional[OracleConfig] = None,
) -> ErrorReport:
    """Check that f stays on one side of arctan across the sampled interval.

    min_gap is the smallest signed margin (oracle - f for a lower bound,
    f - oracle for an upper bound); the verdict tolerates violations up to
    oracle noise, 10^-(report_digits-5). The scan settles each point whose
    margin could be the smallest, and each whose |E| could be the largest
    (the reported sup_error). Then min_gap is exact and every other margin
    lies above it, so no other point can change the verdict. The grid is not
    refined.
    """
    kind = BoundKind(kind) if not isinstance(kind, BoundKind) else kind
    if kind not in (BoundKind.LOWER, BoundKind.UPPER):
        raise ValueError("kind must be LOWER or UPPER")
    cfg = cfg or default_config()
    pts = _sample_points(interval, grid_points)

    def margins(lo, hi):
        # bounds on the signed margin from bounds on E
        return ([-h for h in hi], [-l for l in lo]) if kind is BoundKind.LOWER else (lo, hi)

    def pick(lo, hi):
        (m_lo, m_hi), (a_lo, a_hi) = margins(lo, hi), _abs_bounds(lo, hi)
        ceiling, floor = min(m_hi), max(a_lo)
        return [i for i in range(len(lo)) if m_lo[i] <= ceiling or a_hi[i] >= floor]

    with mp.workdps(cfg.working_digits):
        err = _Errors(f, pts, cfg)
        lo, hi = err.settle(pick)
        min_gap = min(margins(lo, hi)[0])
        a_lo = _abs_bounds(lo, hi)[0]
        i_sup = max(range(len(pts)), key=a_lo.__getitem__)
        tol = mp.mpf(10) ** (5 - cfg.report_digits)
        satisfied = bool(min_gap >= -tol)
    return _report(
        f,
        interval,
        err,
        sup_error=float(a_lo[i_sup]),
        arg_max=float(pts[i_sup]),
        claimed_bound=None,
        bound_kind=kind,
        satisfied=satisfied,
        min_gap=float(min_gap),
    )


def norm_transfer_check(
    f: Callable,
    t: float,
    grid_points: int = 1025,
    *,
    cfg: Optional[OracleConfig] = None,
) -> bool:
    """Check the lifting norm identity on matched intervals.

    Measures ||LiftedApproximant(f) - arctan|| on (0, 2t/(1-t^2)) against twice
    ||f - arctan|| on (0, t); true when they agree within 1% relative
    (sampling allowance) or both vanish to oracle noise.
    """
    if not 0 < t < 1:
        raise ValueError(f"t must lie in (0, 1), got {t!r}")
    cfg = cfg or default_config()
    inner = sup_error(f, Interval(0.0, t, lo_open=True), grid_points, cfg=cfg)
    outer_hi = lift_interval_map(t)
    lifted = LiftedApproximant(f)
    outer = sup_error(lifted, Interval(0.0, outer_hi, lo_open=True), grid_points, cfg=cfg)
    a = outer.sup_error
    b = 2 * inner.sup_error
    if max(a, b) < 1e-20:
        return True
    return abs(a - b) <= 0.01 * max(a, b)
