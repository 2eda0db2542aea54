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
few local error maxima are sharpened by golden-section search, and margins
are reported against the claimed bound. Approximants are evaluated at the
oracle's working precision so that margins far below double rounding remain
meaningful.
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
DEFAULT_REFINE_TOL = 1e-12
_GUARD_BITS = 24  # fixed-point bits the oracle carries beyond the working precision


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
    report = 30
    env = os.environ.get("ARCTAN_CERT_DIGITS")
    if env:
        report = max(30, int(env))
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
    if isinstance(x, mp.mpf):
        nan, infinite = mp.isnan(x), mp.isinf(x)
    elif isinstance(x, int):  # never NaN or inf, and may lie beyond the float range
        nan = infinite = False
    else:
        nan, infinite = math.isnan(x), math.isinf(x)
    if nan:
        raise ValueError("x must not be NaN")
    if infinite:
        if x < 0:
            raise ValueError("x must be non-negative")
        with mp.workdps(cfg.working_digits):
            return _pi_internal(cfg.working_digits) / 2
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x!r}")
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
    def parse(cls, text: str, lo_open: bool = False, hi_open: bool = False) -> "Interval":
        """Parse 'lo:hi' with 'inf' allowed as hi."""
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"interval must look like 'lo:hi', got {text!r}")
        try:
            lo = float(parts[0])
            hi = math.inf if parts[1].strip().lower() == "inf" else float(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad interval {text!r}: {exc}") from None
        return cls(lo, hi, lo_open=lo_open, hi_open=hi_open)

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


def _sample_points(iv: Interval, grid_points: int) -> list:
    if grid_points < 64:
        raise ValueError(f"grid_points must be >= 64, got {grid_points}")
    pts: list = []
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
    out = []
    prev = None
    for p in pts:
        if p != prev:
            out.append(p)
            prev = p
    if iv.lo_open:
        out = [p for p in out if p > iv.lo]
    if iv.hi_open:
        out = [p for p in out if p < iv.hi]
    if len(out) < 2:
        raise ValueError(f"interval {iv} is degenerate at this grid size")
    return out


def _signed_errors(f: Callable, pts, cfg: OracleConfig) -> list:
    # f - arctan at each grid point; run inside mp.workdps(cfg.working_digits)
    return [f(mp.mpf(p)) - oracle_arctan(p, cfg) for p in pts]


def _abs_err_fn(f: Callable, cfg: OracleConfig) -> Callable:
    def g(x: float):
        return abs(f(mp.mpf(x)) - oracle_arctan(x, cfg))

    return g


def _top_local_maxima(values, top=3):
    n = len(values)
    idxs = []
    for i in range(n):
        left_ok = i == 0 or values[i] >= values[i - 1]
        right_ok = i == n - 1 or values[i] >= values[i + 1]
        if left_ok and right_ok:
            idxs.append(i)
    idxs.sort(key=lambda i: values[i], reverse=True)
    return idxs[:top]


def _golden_max(g: Callable, a: float, b: float, refine_tol: float):
    # golden-section search for the maximum of g on [a, b]
    tol = refine_tol * max(1.0, abs(a + b) / 2)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    gc, gd = g(c), g(d)
    while (b - a) > tol:
        if gc < gd:
            a, c, gc = c, d, gd
            d = a + _INVPHI * (b - a)
            gd = g(d)
        else:
            b, d, gd = d, c, gc
            c = b - _INVPHI * (b - a)
            gc = g(c)
    x = (a + b) / 2
    return x, g(x)


def _label_for(f, label):
    if label:
        return label
    return getattr(f, "label", None) or getattr(f, "__name__", None) or "approximant"


def sup_error(
    f: Callable,
    interval: Interval,
    grid_points: int = DEFAULT_GRID,
    refine_tol: float = DEFAULT_REFINE_TOL,
    *,
    cfg: Optional[OracleConfig] = None,
    claimed_bound: Optional[float] = None,
    label: Optional[str] = None,
) -> ErrorReport:
    """Estimate sup |f - arctan| over the interval.

    Grid evaluation happens at the oracle's working precision; the top three
    local maxima of the error are then refined by golden-section search until
    the bracket width falls below refine_tol*max(1, x). When claimed_bound is
    given, satisfied means the refined sup stayed at or under it.
    """
    cfg = cfg or default_config()
    pts = _sample_points(interval, grid_points)
    g = _abs_err_fn(f, cfg)
    with mp.workdps(cfg.working_digits):
        errs = [abs(e) for e in _signed_errors(f, pts, cfg)]
        best_i = max(range(len(pts)), key=errs.__getitem__)
        best_x, best_e = pts[best_i], errs[best_i]
        for i in _top_local_maxima(errs):
            a = pts[i - 1] if i > 0 else pts[i]
            b = pts[i + 1] if i + 1 < len(pts) else pts[i]
            if not a < b:
                continue
            x_r, e_r = _golden_max(g, a, b, refine_tol)
            if e_r > best_e:
                best_x, best_e = x_r, e_r
        satisfied = True
        min_gap = math.nan
        if claimed_bound is not None:
            satisfied = bool(best_e <= claimed_bound)
            min_gap = float(claimed_bound - best_e)
    return ErrorReport(
        family=_label_for(f, label),
        interval=interval,
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
    label: Optional[str] = None,
) -> ErrorReport:
    """Check that f stays on one side of arctan across the sampled interval.

    min_gap is the smallest signed margin (oracle - f for a lower bound,
    f - oracle for an upper bound); the verdict tolerates violations up to
    oracle noise, 10^-(report_digits-5).
    """
    kind = BoundKind(kind) if not isinstance(kind, BoundKind) else kind
    if kind not in (BoundKind.LOWER, BoundKind.UPPER):
        raise ValueError("kind must be LOWER or UPPER")
    cfg = cfg or default_config()
    pts = _sample_points(interval, grid_points)
    with mp.workdps(cfg.working_digits):
        errs = _signed_errors(f, pts, cfg)
        min_gap = -max(errs) if kind is BoundKind.LOWER else min(errs)
        i_sup = max(range(len(pts)), key=lambda i: abs(errs[i]))
        tol = mp.mpf(10) ** (5 - cfg.report_digits)
        satisfied = bool(min_gap >= -tol)
    return ErrorReport(
        family=_label_for(f, label),
        interval=interval,
        sup_error=float(abs(errs[i_sup])),
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
