"""Extended-precision arctangent oracle and the sup-norm certification harness.

The oracle is fixedpoint.atan_rounded, an integer arctan that calls no library
one: x's parts reduce exactly against two tables, one quotient feeds a short
series, and the sum rounds once, within one unit in the last place at working
precision. A non-negative finite float with an OracleConfig reaches the cache
after one comparison, any other argument after its checks. Values are cached by
x and precision (_oracle_cached), 2*DEFAULT_GRID of them: one bounded grid at
DEFAULT_GRID, 6,145 points, and its probes, so a pair's second side finds every
value its first side computed over that grid, which a smaller LRU, traversed in
grid order, would have evicted. An eviction can change a report's oracle_cold
count, never a value. pi is 4*arctan(1), the centre table's last value rounded
once and scaled exactly, the constant that every x > 1 reflects through; the
Machin series (series.machin_pi), which the pi command compares with it, shares
no code with it.

Certification is sampling-based evidence, not interval-arithmetic proof: a
grid is laid over the requested closed interval (a tan-mapped grid when it is
unbounded, which stops at tan(pi/2 - 1e-8), about 1e8, so that an interval
starting there or beyond raises ValueError; uniform plus Chebyshev-spaced
points when bounded), the three largest local error maxima within half the
largest grid error are sharpened by golden-section search to a bracket below
REFINE_TOL*max(1, x), and margins are reported against the claimed bound. A
smaller local maximum could only win if the error more than doubled inside
one grid cell.

The scan has three tiers: float, fixed point and mpf. Each grid point and
each golden-section probe is first evaluated in float, through the
approximant's ``rough_error(x)`` hook, if it has one. The hook is the
family's float rule; it takes arctan x from math.atan(x), tested to lie
within one ulp of it, and returns (e, b): e approximates E = f(x) - arctan x,
and b bounds the float computation's distance from E. ``families.Approximant``
has two rules. The tail rule, for sf, t2 and master, sums master's error
series in float (``master._master_error``), so b is relative to E: the float
sum's own error with the truncated rest of the series, and the effect of
rounding arctan x to float. The K-ulp rule, for t4, lagrange, t5, cheb, cf,
s, w and the lifted cheb, cf and w, takes e = f(x) - math.atan(x) with b =
K*ulp(arctan x), K = 64 (``families.FLOAT_ULPS``); it rests on the float
kernel lying within K/4 ulp of arctan x of the 50-digit value. t, whose float
kernel errs by ulps of pi/4, has no float rule: its hook is None. No row
takes an order past 16, so t and a plain callable are the only ones without.

Every approximant also has a ``fixed_error(x, w)`` hook, the row's one
fixed-point rule (``fixedpoint``, where the rule and its bounds are stated),
returning (m, err): m*2^-w lies within err units of 2^-w of E. Golden-section
probes, settled grid points and each search's final value use this tier, at the
one scale 2^-mp.prec, 20 bits below the mpf term 2^-k, where each row's budget
is about that term, so one scale serves master's |E| near 1e-17 and cheb's near
1e-2.

Both tiers have one guard each, _float_errors and _fixed_error, which decide
when to trust a hook, and both give every point a value and a budget: the
budget is infinite, with the value 0, where there is no value, because the
callable lacks the hook, the hook raises ArithmeticError or ValueError, or e is
not finite. Evaluations are counted only where the hook gives a value. Every
rule takes a value at every double, where it is tested for every order up to 16
and every side (tests/test_tails.py). The float guard takes a list of points:
the scan hands it the whole grid once, and each golden-section probe is a list
of one (_Errors.rough). The hook itself stays per point, so a plain callable
can carry one, and a kernel keeps its own argument checks. Each grid is built
once per process for its endpoints and size and kept in a small bounded cache
(_sample_points). At 0 every float rule is exact. The float budget is
B = b + 2^-k + ulp(e) and the fixed one B = 1.01*err + 2^-k, rounded up to
whole units: ulp(e) covers the rounding of e, 1.01 the float arithmetic of err,
and the mpf term 2^-k the mpf kernel's, the oracle's and master's constants'
own error, so that B bounds the distance from the mpf value E (_mpf_term_bits:
k = min(prec, 169) - 20, 149 at 50 digits). A point the float tier decides
costs no oracle evaluation, and one with an infinite float budget, as every
point of t, is settled by every pick; a settled point with an infinite fixed
budget is evaluated at mpf, where a real failure raises again.

Both certifications run one scan body with two settle rules. One pick on the
float bounds settles every point a decision could rest on: for sup_error a
point that could be a refined local maximum or the global maximum, for
certify_bound one whose margin (arctan - f for a lower bound, f - arctan for
an upper one) could be the smallest or whose |E| the largest. Tighter bounds
make either pick name fewer points, and a settled value lies within its float
bounds, so a second pick would name no new one. A settled value is the fixed
guard's enclosure [L, H] = [(m - B)*2^-w, (m + B)*2^-w] of its mpf value, a
_Lazy. The scan then gets the |E| bounds, with the settled values, and the
grid argmax; sup_error refines, certify_bound reads the smallest margin.
Golden-section search compares in float while the budgets settle each
comparison; at the first one they do not, it redoes both probes in fixed point
and goes on there, and at the first one the fixed budgets do not settle, it
redoes both at mpf and stays there. A callable without a fixed hook goes from
float to mpf. Its final value is an enclosure too, and the report's
search_fixed counts the fixed-point probes and final values, as search_mpf
counts the mpf ones. Where the approximant has a proved bound S on |E'| (its
``slope``), a search stops as soon as its probes' upper bounds, plus S times
their distance to the bracket's far end, show that no point of the bracket can
beat the largest |E| found so far (_golden_max); it could change nothing, and
the report counts it as pruned. A search whose bracket holds the largest |E|
found so far, as one at an interval's end often does, is never stopped so.
Where the approximant's |E| is proved monotone over an interval holding the
scanned one (its ``monotone`` over its ``claim_interval``), sup_error settles
the grid end |E| grows toward and no other point (_monotone_end). The proved
rate of change shows, where that end's |E| is large enough against the mpf
term, that neighbouring grid points near the top differ by more than two mpf
terms, so that the end is the full scan's only top local maximum, and that the
search there cannot beat it. The report is then the full scan's, with no float
evaluation: one search started and pruned, one point settled. Elsewhere the
full scan runs. certify_bound always runs it.
Every later comparison of settled or final values (the argmax, the order of
the local maxima, the refined maxima against the grid's, the claim, the
smallest margin and its tolerance) reads the enclosures, and resolves both
sides to mpf first where they overlap or one holds the number it is compared
with. A reported float is read from the enclosure where both ends round to the
same double, and resolved to mpf otherwise; min_gap, the claim less the sup at
mp.prec, maps the enclosure through that same rounded subtraction. Every
decision and every reported value (sup error, argmax, margins) is therefore
the one an all-mpf scan gives, and mpf is computed only where an enclosure
cannot decide. A non-finite mpf E, at a settled point, a search probe or a
final value, ends the scan with that point as arg_max, |E| there (nan or inf)
as sup_error, and satisfied false (_NonFinite).
"""

from __future__ import annotations

import math
import operator
import os
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

from mpmath import mp
from mpmath.libmp import dps_to_prec, from_man_exp, round_ceiling, round_floor, to_float

from .core import LiftedApproximant, lift_interval_map
from .fixedpoint import atan_rounded
from .master import CONSTANT_DIGITS
from .numerics import Frozen, require_int, shown

_THETA_EDGE = 1e-8  # exclusion buffer at both ends of the tan-mapped grid
_INVPHI = (math.sqrt(5) - 1) / 2

DEFAULT_GRID = 4097
REFINE_TOL = 1e-12  # golden-section brackets stop below REFINE_TOL*max(1, x)
_TOP = 3  # local maxima of |E| refined by golden-section search
_MASTER_PREC = dps_to_prec(CONSTANT_DIGITS)  # bits of master's constants, 169 or more
_UP = 1 + 2.0**-48  # rounds up a search's bound, formed in a few roundings (_golden_max)


class BoundKind(Enum):
    LOWER = "lower"
    UPPER = "upper"
    TWO_SIDED = "two_sided"
    APPROXIMATION = "approximation"


class OracleConfig(Frozen):
    """Precision policy for the oracle.

    working_digits is the arithmetic precision, within one ulp of which every
    oracle value lies, pi too; report_digits, ten or more below, the accuracy
    promised to callers, the gap absorbing their accumulated rounding. Both
    are read-only, and configs with equal ones compare equal and hash alike.
    """

    __slots__ = ("working_digits", "report_digits", "prec")
    _key_fields = ("working_digits", "report_digits")  # prec is derived from them

    def __init__(self, working_digits: int = 50, report_digits: int = 30):
        require_int(working_digits, "working_digits", 40)  # first: past sys.maxsize the message names it
        require_int(report_digits, "report_digits", 30)
        require_int(working_digits, "working_digits", report_digits + 10)
        self.working_digits, self.report_digits = working_digits, report_digits
        self.prec = dps_to_prec(working_digits)  # the oracle's bits, converted once


def default_config() -> OracleConfig:
    """Default precision, honoring the ARCTAN_CERT_DIGITS override (min 30)."""
    env = os.environ.get("ARCTAN_CERT_DIGITS")
    try:
        report = max(30, int(env)) if env else 30
    except ValueError:
        raise ValueError(f"ARCTAN_CERT_DIGITS must be an integer, got {shown(env)}") from None
    return OracleConfig(working_digits=report + 20, report_digits=report)


def _config(cfg) -> OracleConfig:
    # cfg, checked once at an entry, or the default config for None
    if cfg is None:
        return default_config()
    if not isinstance(cfg, OracleConfig):
        raise ValueError(f"cfg must be an OracleConfig, got {type(cfg).__name__}")
    return cfg


_oracle_cached = lru_cache(maxsize=2 * DEFAULT_GRID)(atan_rounded)  # keyed by x and OracleConfig.prec


def oracle_arctan(x, cfg: Optional[OracleConfig] = None):
    """Reference arctan(x) at cfg.working_digits, within one ulp there.

    Accepts non-negative floats, ints or mpf values; +inf returns pi/2, arctan
    1 doubled. cfg.report_digits only bounds the digits a caller is promised.
    The last 2*DEFAULT_GRID values are cached, one default grid and its probes;
    a non-negative finite float with an OracleConfig reaches them after one
    comparison, any other argument after its checks.
    """
    cfg = cfg if type(cfg) is OracleConfig else _config(cfg)
    if type(x) is float and 0.0 <= x < math.inf:
        return _oracle_cached(x, cfg.prec)
    # comparisons only, so a float, an int past the float range and an mpf all pass
    if x != x:
        raise ValueError("x must not be NaN")
    try:
        negative = x < 0
    except TypeError:  # a str, None, a list: no number
        raise ValueError(f"x must be a real number, got {type(x).__name__}") from None
    if negative:
        raise ValueError(f"x must be non-negative, got {shown(x)}")
    if x == math.inf:
        return mp.ldexp(_oracle_cached(1, cfg.prec), 1)
    return _oracle_cached(x, cfg.prec)


def oracle_pi(cfg: Optional[OracleConfig] = None):
    """4*arctan(1) from the oracle, within one ulp at cfg.working_digits.

    Its centre table shares no code with series.machin_pi; cfg.report_digits
    only bounds the digits a caller is promised.
    """
    cfg = _config(cfg)
    return mp.ldexp(_oracle_cached(1, cfg.prec), 2)


class Interval(NamedTuple("Interval", [("lo", float), ("hi", float)])):
    """The closed sampling domain [lo, hi], hi possibly +inf; a 0:inf grid starts near 1e-8."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        try:
            nan = math.isnan(lo) or math.isnan(hi)
        except OverflowError:  # an int past the float range
            raise ValueError("interval endpoints must lie in the float range or be inf") from None
        except TypeError:  # a str, None, a list
            kinds = f"{type(lo).__name__}:{type(hi).__name__}"
            raise ValueError(f"interval endpoints must be real numbers, got {kinds}") from None
        if nan:
            raise ValueError("interval endpoints must not be NaN")
        if math.isinf(lo) or lo < 0:
            raise ValueError(f"lo must be finite and >= 0, got {lo!r}")
        if not lo < hi:
            raise ValueError(f"need lo < hi, got {lo!r}:{hi!r}")
        return super().__new__(cls, lo, hi)

    @classmethod
    def _make(cls, fields):  # so that _replace checks its fields too
        return cls(*fields)

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.hi)

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse 'lo:hi', hi inf in any spelling float() reads; a finite number past the float range is refused."""
        if not isinstance(text, str):
            raise ValueError(f"interval must be a str 'lo:hi', got {type(text).__name__}")
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"interval must look like 'lo:hi', got {shown(text)}")
        try:
            lo, hi = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"bad interval: lo and hi must be numbers, got {shown(text)}") from None
        for name, p, v in zip(("lo", "hi"), parts, (lo, hi)):
            if math.isinf(v) and "inf" not in p.lower():  # float() reads 1e400 as inf
                raise ValueError(f"interval {name} lies past the float range; 'inf' is unbounded")
        return cls(lo, hi)

    def __str__(self) -> str:
        return f"{_fmt_endpoint(self.lo)}:{_fmt_endpoint(self.hi)}"


def _fmt_endpoint(v: float) -> str:
    if math.isinf(v):
        return "inf"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


class ErrorReport(NamedTuple):
    """Outcome of one certification run, a read-only record (``_asdict`` maps it by field)."""

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
    refined: int = 0  # golden-section searches started
    pruned: int = 0  # of them, those stopped or skipped because they could not beat the best value
    search_mpf: int = 0  # of evals_mpf, the golden-section probes and final values
    search_fixed: int = 0  # golden-section probes and final values evaluated in fixed point
    settle_fixed: int = 0  # grid points settled in fixed point, never evaluated at mpf
    oracle_cold: int = 0  # oracle values computed rather than found in its cache


def _sample_points(iv: Interval, grid_points: int) -> list:
    """Sorted distinct grid points of iv, both ends included when it is bounded.

    An unbounded grid is uniform in arctan x on [max(arctan lo, 1e-8), pi/2 - 1e-8],
    so 0:inf starts near 1e-8; tan steps by about 2 even where that range is one ulp.
    Each grid is built once per process from iv's endpoints as doubles, and a new
    list of it is returned on every call.
    """
    require_int(grid_points, "grid_points", 64)
    return list(_grid(float(iv.lo), float(iv.hi), grid_points))


@lru_cache(maxsize=16)
def _grid(lo: float, hi: float, grid_points: int) -> tuple:
    # the grid of _sample_points, kept by endpoints and size: a table scans two grids
    if math.isinf(hi):
        th_lo = max(math.atan(lo), _THETA_EDGE)
        th_hi = math.pi / 2 - _THETA_EDGE
        if th_lo >= th_hi:
            raise ValueError(
                f"interval {_fmt_endpoint(lo)}:inf starts past the tan-mapped grid's top, {math.tan(th_hi):.9g}"
            )
        step = (th_hi - th_lo) / (grid_points - 1)
        # tan may round the first point below lo; it is sampled at lo instead
        pts = [max(math.tan(th_lo + i * step), lo) for i in range(grid_points)]
    else:
        step = (hi - lo) / (grid_points - 1)
        pts = [lo + i * step for i in range(grid_points)]
        pts[-1] = hi
        m = grid_points // 2 + 1
        pts.extend(lo + (hi - lo) * 0.5 * (1 - math.cos(math.pi * i / m)) for i in range(1, m))
        pts.sort()
    return tuple(p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1])


def _mpf_term_bits() -> int:
    # k with the mpf term 2^-k: the distance of the mpf error E from the exact one. At
    # p = mp.prec bits, the mpf kernels err by under 2^18 units of 2^-p in max(1, arctan x)
    # < 2 at p >= 136 (40 digits), 2^(19 - p); the oracle by one ulp of arctan x < 2,
    # 2^(1 - p); master's constants g_n(pi/2), rounded to nearest at q = _MASTER_PREC bits
    # or more, by under 2^-q relative, which moves k*D*a_n, near arctan x < 2, by under 2^(1 - q).
    # The sum is under 2^(20 - min(p, q)): 2^-116 at 40 digits, 2^-149 at 50 and 70.
    # Tested at 40, 50 and 70 digits against E computed 30 digits higher
    # (tests/test_tails.py), which leaves out master's constants, and with both tiers' budgets.
    return min(mp.prec, _MASTER_PREC) - 20


def _float_errors(hook: Optional[Callable], xs, k: int) -> list:
    # the float tier's one guard (see the module docstring): for non-negative doubles xs,
    # (e, B) at each from the rough_error hook with the mpf term 2^-k, and (0.0, inf)
    # where it takes no value, a missing hook included. It takes every double: below
    # 1e-150 e and E are a few times x at most, under 1e-149 and far below the mpf term
    # 2^-k (k <= 149) that every B carries, and the K-ulp rule's premise is tested over
    # every double (tests/test_families.py)
    if hook is None:
        return [(0.0, math.inf)] * len(xs)
    term = math.ldexp(1.0, -k)
    out = []
    for x in xs:
        try:
            e, b = hook(x)
            if math.isfinite(e):
                out.append((e, b + term + math.ulp(e)))
                continue
        except (ArithmeticError, ValueError):
            pass
        out.append((0.0, math.inf))
    return out


def _fixed_error(hook: Optional[Callable], x: float, w: int, k: int):
    # the fixed-point tier's one guard (see the module docstring): (m, B) from the
    # fixed_error hook at x and scale w with the mpf term 2^-k, both in units of 2^-w,
    # B an integer, and (0, inf) where it takes no value, a missing hook included
    if hook is None:
        return 0, math.inf
    try:
        m, b = hook(x, w)
        return m, math.ceil(b * 1.01) + (1 << max(0, w - k))
    except (ArithmeticError, ValueError):
        return 0, math.inf


class _Lazy:
    """A value within the exact bounds lo <= v <= hi, resolved to its mpf value on demand.

    A settled point's sign*E enters with its fixed-point enclosure, or as its mpf
    value (lo == hi) where it has none; down and up are doubles at or beyond the
    bounds (_double). A comparison, and float(), read the bounds, the doubles first,
    where every value within them gives the same answer, and otherwise resolve
    both sides to mpf first, so each gives what the mpf values give. The scan's
    negation, halving and c - v round at mp.prec as on the mpf value and are
    monotone, so they map the bounds to bounds and resolve through their operand.
    """

    __slots__ = ("lo", "hi", "down", "up", "_get")

    def __init__(self, lo, hi, get=None):
        self.lo, self.hi, self._get = lo, hi, get
        self.down, self.up = _double(lo, round_floor), _double(hi, round_ceiling)

    @property
    def open(self) -> bool:
        return self._get is not None

    def exact(self):
        if self._get is not None:
            v = self._get()
            self.__init__(v, v)  # the point v from now on
        return self.lo

    def _map(self, f):
        a, b = f(self.lo), f(self.hi)
        if self._get is None:
            return _Lazy(a, a)
        return _Lazy(min(a, b), max(a, b), lambda: f(self.exact()))

    def __neg__(self):
        return self._map(operator.neg)

    def __truediv__(self, k):  # k > 0
        return self._map(lambda v: v / k)

    def __rsub__(self, c):
        return self._map(lambda v: c - v)

    def __abs__(self):
        # across 0 the bounds are [0, max(-lo, hi)], resolved only on demand
        if self.lo < 0 < self.hi:
            return _Lazy(mp.zero, max(-self.lo, self.hi), lambda: abs(self.exact()))
        return self if self.lo >= 0 else -self

    def _decide(self, other, op, below: bool):
        # op(self, other) for op < or <= (below) or > or >=: decided by the doubles, then by
        # the exact bounds, where op holds at the nearest ends or fails at the farthest,
        # else on the mpf values
        for exact in (False, True):
            (a_lo, a_hi), (b_lo, b_hi) = _bounds(self, exact), _bounds(other, exact)
            near, far = ((a_hi, b_lo), (a_lo, b_hi)) if below else ((a_lo, b_hi), (a_hi, b_lo))
            if op(*near):
                return True
            if not op(*far):
                return False
        return op(self.exact(), other.exact() if isinstance(other, _Lazy) else other)

    def __lt__(self, other):
        return self._decide(other, operator.lt, True)

    def __le__(self, other):
        return self._decide(other, operator.le, True)

    def __gt__(self, other):
        return self._decide(other, operator.gt, False)

    def __ge__(self, other):
        return self._decide(other, operator.ge, False)

    def __float__(self):
        # float() of the mpf value rounds to nearest, which is monotone: where both bounds
        # round to one double, so does every value between them
        lo, hi = float(self.lo), float(self.hi)
        return lo if lo == hi else float(self.exact())


def _bounds(v, exact: bool):
    if not isinstance(v, _Lazy):
        return v, v
    return (v.lo, v.hi) if exact else (v.down, v.up)


def _double(v, rnd) -> float:
    # v rounded to a double in the direction rnd, round_floor or round_ceiling. Outside the
    # normal range to_float may round twice, overflow or underflow, so there the bound is
    # the infinity that way, which leaves the decision to the exact bounds
    _, man, exp, bc = v._mpf_
    if not man or -1021 <= exp + bc <= 1024:
        return to_float(v._mpf_, rnd=rnd)
    return -math.inf if rnd == round_floor else math.inf


class _Errors:
    """The error sign*E, E = f - arctan, of one approximant over a grid, on three tiers.

    sign is -1 for the margin of a lower bound, arctan - f, and 1 otherwise.
    bound_grid() puts the grid through the float guard _float_errors at once, and
    each search probe goes through rough(x), the same guard at one point: it
    returns (e, B), e sign*E in float and B a bound on its distance from the mpf
    value, infinite where the guard takes no float value. fixed(x) returns the
    same from _fixed_error, in integer units of 2^-w, w = mp.prec, for search
    probes, and exact(x) (sign*E, 0) at mpf for those that reach mpf. value(x) is
    sign*E as a _Lazy within the enclosure that fixed(x) gives, for settled points
    and each search's final value. bound_grid() keeps float bounds lo[i] <= sign*E_i
    <= hi[i] on every point, and settle() sets both to the settled value. Evaluations are
    counted per precision and phase, and oracle misses from the scan's start.
    """

    def __init__(self, f: Callable, iv: Interval, grid_points: int, cfg: OracleConfig, sign: int):
        self.misses = _oracle_cached.cache_info().misses
        self.f, self.pts, self.cfg, self.sign = f, _sample_points(iv, grid_points), cfg, sign
        self.hook = getattr(f, "rough_error", None)
        self.fixed_hook = getattr(f, "fixed_error", None)
        self.slope = getattr(f, "slope", None)  # a bound on |E'| over f's domain, if f has one
        self.evals_float = self.evals_fixed = self.probes_mpf = 0
        self.settled, self.ends = {}, []  # the grid's settled values by index; the searches' final ones
        # read once: the scan runs at one precision, and the fixed tier at its one scale 2^-w
        self.k, self.w = _mpf_term_bits(), mp.prec

    def bound_grid(self):
        # the whole grid through the guard at once; a point it takes no value at is unbounded
        rough, sign = _float_errors(self.hook, self.pts, self.k), self.sign
        self.lo = [sign * e - b for e, b in rough]
        self.hi = [sign * e + b for e, b in rough]
        self.evals_float += len(rough) - self.hi.count(math.inf)  # the points the hook gave a value at

    def rough(self, x: float):
        e, b = _float_errors(self.hook, (x,), self.k)[0]  # a search probe, a list of one
        self.evals_float += b != math.inf
        return self.sign * e, b

    def fixed(self, x: float):
        m, b = _fixed_error(self.fixed_hook, x, self.w, self.k)
        self.evals_fixed += b != math.inf
        return self.sign * m, b

    def exact(self, x: float):
        self.probes_mpf += 1
        return _signed_error(self.f, self.sign, self.cfg, x), 0

    def value(self, x: float) -> _Lazy:
        # sign*E at x within [(m - B)*2^-w, (m + B)*2^-w] from the fixed guard, which
        # holds the mpf value; at mpf where the guard gives no finite budget. The value
        # does not refer back to the scan, so that neither outlives it.
        get = partial(_signed_error, self.f, self.sign, self.cfg, x)
        m, b = self.fixed(x)
        if b == math.inf:
            v = get()
            return _Lazy(v, v)
        w = self.w
        return _Lazy(mp.make_mpf(from_man_exp(m - b, -w)), mp.make_mpf(from_man_exp(m + b, -w)), get)

    # One pick settles every point a decision could rest on. Both picks are monotone: on
    # tighter bounds, lo <= lo' <= hi' <= hi at each point (and so on |E|), a pick names a
    # subset of what it named before. _margin_pick's ceiling min(hi) only falls and its
    # floor max(a_lo) only rises. In _maxima_pick cut = max(lo)/2 only rises, and a
    # certain top stays certain, as lo[i] >= hi[j] survives tightening. So floor only
    # rises: with fewer than _TOP old tops it was the old cut; if a top drops below the
    # new cut, the old floor, at most that top's old lower bound, was already below it;
    # else the _TOP-th lower bound only rose. A point left out for hi < floor or for hi
    # below a neighbour's lo stays out, and a neighbour added while a rank is open was
    # added before. A settled value lies within its float bounds, since the float guard's
    # B bounds the distance to the mpf value, so settling only tightens the bounds: a
    # second pick could name only points the first one settled.
    def settle(self, pick):
        """Settle the points pick(lo, hi, a_lo, a_hi) names, in one pass.

        a_lo and a_hi are the bounds on |E| from the float bounds lo and hi, so the
        pick compares floats alone. Each point it names takes its settled value, a
        _Lazy enclosure of its mpf value, in lo and hi. Returns the bounds on |E| and
        the index of the largest lower one, whose point every settle rule settles,
        so that its bound is |E| itself.
        """
        lo, hi, done = self.lo, self.hi, self.settled
        a_lo, a_hi = _abs_bounds(lo, hi)
        for i in pick(lo, hi, a_lo, a_hi):
            if i not in done:  # a pick may repeat a point
                done[i] = self.value(self.pts[i])
        # the float bounds enclose the settled ones, so a point whose float upper bound lies
        # below the largest float lower bound is not the argmax, nor one whose upper double
        # lies below the largest lower double once settled; the rest are compared exactly
        top = max(a_lo)
        near = [i for i, h in enumerate(a_hi) if h >= top]
        for i, v in done.items():
            lo[i] = hi[i] = v
            a_lo[i] = a_hi[i] = abs(v)
        top = max(_bounds(a_lo[i], False)[0] for i in near)
        near = [i for i in near if _bounds(a_hi[i], False)[1] >= top]
        return a_lo, a_hi, max(near, key=a_lo.__getitem__)


class _NonFinite(Exception):
    """Raised with (x, v): a non-finite mpf value v of sign*E at x, which ends the scan."""


def _signed_error(f: Callable, sign: int, cfg: OracleConfig, x: float):
    # sign*E at x, at mpf. Every comparison with a NaN is false, so that max, min and the
    # claim would pass over one: a non-finite value ends the scan here instead
    y = f(mp.mpf(x))
    if not isinstance(y, (int, float, mp.mpf)):
        raise ValueError(f"f must return a real number, got {type(y).__name__} at x = {x!r}")
    v = sign * (y - oracle_arctan(x, cfg))
    if not mp.isfinite(v):
        raise _NonFinite(x, v)
    return v


def _abs_bounds(lo, hi):
    # bounds on |E| from float bounds on E (or on -E)
    a_lo = [l if l > 0 else -h if h < 0 else 0 for l, h in zip(lo, hi)]
    a_hi = [max(-l, h) for l, h in zip(lo, hi)]
    return a_lo, a_hi


def _top_local_maxima(lo, hi, cut):
    # the _TOP grid points certainly at least cut and as large as their neighbours, largest
    # first; with every point settled (lo == hi) these are the exact local maxima not below
    # cut. A number is compared with cut's doubles first, as a comparison with a _Lazy cut
    # would: at or above its upper one it passes, below its lower one it is left out
    n, (c_down, c_up) = len(lo), _bounds(cut, False)
    idxs = [
        i
        for i, v in enumerate(lo)
        if ((v >= c_up or (v >= c_down and v >= cut)) if type(v) is not _Lazy else v >= cut)
        and (i == 0 or v >= hi[i - 1])
        and (i == n - 1 or v >= hi[i + 1])
    ]
    idxs.sort(key=lo.__getitem__, reverse=True)
    return idxs[:_TOP]


def _maxima_pick(_e_lo, _e_hi, lo, hi):
    # each point that could be a top local maximum of |E| (not below a neighbour, and
    # reaching the lowest certain one, or half the largest lower bound while fewer are
    # certain), with its neighbours while its own rank against them is open; from the
    # bounds lo, hi on |E| alone
    cut = max(lo) / 2
    tops = _top_local_maxima(lo, hi, cut)
    floor = lo[tops[-1]] if len(tops) == _TOP else cut
    last = len(lo) - 1
    todo = []
    for i, h in enumerate(hi):
        if h < floor or (i > 0 and h < lo[i - 1]) or (i < last and h < lo[i + 1]):
            continue
        todo.append(i)
        v = lo[i]
        if not ((i == 0 or v >= hi[i - 1]) and (i == last or v >= hi[i + 1])):
            todo.extend(j for j in (i - 1, i + 1) if 0 <= j <= last)
    return todo


def _margin_pick(lo, hi, a_lo, a_hi):
    # each point whose margin (the scanned sign*E) could be the smallest, or whose |E| the largest
    ceiling, floor = min(hi), max(a_lo)
    return [i for i in range(len(lo)) if lo[i] <= ceiling or a_hi[i] >= floor]


def _refine_tol(a: float, b: float) -> float:
    # the width below which a search on [a, b] stops; halves first: a + b may overflow
    return REFINE_TOL * max(1.0, a / 2 + b / 2)


def _monotone_end(f: Callable, iv: Interval, err: _Errors):
    # (x, |E|) at the grid end that f's proved monotone |E| grows toward, its value settled,
    # where the rate shows that sup_error's full scan reports that end and nothing else; else
    # None, with nothing settled, and the full scan settles what its pick names. Over f's
    # claim interval, here holding iv, |d log|E|/dx| >= 1/(c(1 + c)), c = max(1, x)
    # (families.FamilyInfo.monotone), so >= 1/(C(1 + C)) on the grid, C = max(1, its top).
    # Of grid neighbours p < q, then, the exact |E| nearer the end exceeds the other by t/(1 +
    # t) of itself or more, t = (q - p)/(C(1 + C)), as 1 - e^-t >= t/(1 + t). Let V be the end's
    # mpf |E|, tau the least t/(1 + t) on the grid, and each mpf value within the mpf term 2^-k
    # of the exact one.
    # - Where (V/2 - 2^-k)*tau > 2*2^-k, each point whose mpf |E| reaches V/2, the full scan's
    #   cut, lies strictly below its neighbour toward the end: the end is the grid's argmax and
    #   its only top local maximum, and the full scan makes one search, on the end's cell [a, b].
    # - That search's final point lies delta = 0.3*min(b - a, tol) or more inside [a, b], its
    #   last bracket being [a, b] or one golden step, _INVPHI, below a width over tol. Its exact
    #   |E| <= |E(end)|*exp(-delta/(C(1 + C))) <= |E(end)|*(1 - rho), rho = delta/(2C(1 + C)),
    #   so where rho*V >= 2*2^-k its mpf value lies at or below V: the search changes nothing,
    #   and counts as pruned.
    # Both hold where V*min(rho, tau/2) >= (2 + tau)*2^-k, read at V's lower double and formed
    # in a few roundings, which _UP covers. Below that, |E| may move by less than the mpf term
    # between neighbours, and the full scan decides.
    home, pts = getattr(f, "claim_interval", None), err.pts
    end = {1: len(pts) - 1, -1: 0}.get(getattr(f, "monotone", 0))
    if end is None or home is None or not (home.lo <= iv.lo and iv.hi <= home.hi):
        return None
    e = err.value(pts[end])
    v = abs(e)
    a, b = (pts[end - 1], pts[end]) if end else (pts[0], pts[1])
    c = max(1.0, pts[-1])
    rho = 0.3 * min(b - a, _refine_tol(a, b)) / (2 * c * (1 + c))
    t = min(map(operator.sub, pts[1:], pts)) / (c * (1 + c))
    tau = t / (1 + t)
    if not _bounds(v, False)[0] * min(rho, tau / 2) >= _UP * (2 + tau) * math.ldexp(1.0, -err.k):
        return None
    err.settled[end] = e
    return pts[end], v


def _golden_max(err: _Errors, a: float, b: float, best):
    # golden-section search for the maximum of |E| on [a, b], on one ordered list of tiers,
    # each a probe of err giving (sign*E, budget) and the budget's unit: float, fixed point
    # ((0, inf) at every probe where err has no fixed-point hook), mpf. Comparisons run on a
    # tier while the two budgets settle them; at the first one they do not, both probes are
    # redone on the next tier, and the search goes on there. The probe points depend only on
    # a, b and _INVPHI, so every decision is the one an all-mpf search makes. The returned
    # maximum is a _Lazy within its fixed-point enclosure.
    #
    # best is the largest |E| found so far. Given a bound S on |E'| (err.slope), the
    # search stops and returns None once it cannot beat best. After each probe, with the
    # tier's upper bound h(p) on |E_mpf(p)| at the probes p = c, d, U = min_p (h(p) +
    # S*max(p - a, b - p)) + 2*2^-k bounds |E_mpf| on [a, b]: the mean-value theorem moves
    # the exact E by at most S*|x - p|, and E_mpf lies within 2^-k of it at p and at x.
    # The final value lies in [a, b], so it lies at or below U, and where best's lower
    # double reaches U, the scan's "final value > best" is false. Reading that double,
    # never best's mpf value, keeps the check free of evaluations. U is formed from values
    # in hand in a handful of roundings, of doubles (or of mpf values on the mpf tier),
    # which the factor 1 + 2^-48 covers.
    tiers = [(err.rough, 1.0), (err.fixed, math.ldexp(1.0, -err.w)), (err.exact, 1.0)]
    probe, unit = tiers.pop(0)

    def g(x):
        e, bud = probe(x)
        return abs(e), bud

    slope = err.slope
    if slope is not None:
        best_lo, pad = _bounds(best, False)[0], 2 * math.ldexp(1.0, -err.k)
    tol = _refine_tol(a, b)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    (gc, bc), (gd, bd) = g(c), g(d)
    while True:
        if slope is not None and best_lo >= _UP * (
            pad + min((gc + bc) * unit + slope * max(c - a, b - c), (gd + bd) * unit + slope * max(d - a, b - d))
        ):
            return None
        if not (b - a) > tol:
            break
        if tiers and not abs(gc - gd) > bc + bd:
            probe, unit = tiers.pop(0)
            (gc, bc), (gd, bd) = g(c), g(d)
            continue
        if gc < gd:
            a, c, gc, bc = c, d, gd, bd
            d = a + _INVPHI * (b - a)
            gd, bd = g(d)
        else:
            b, d, gd, bd = d, c, gc, bc
            c = b - _INVPHI * (b - a)
            gc, bc = g(c)
    x = a / 2 + b / 2
    err.ends.append(err.value(x))
    return x, abs(err.ends[-1])


def _scan(f: Callable, interval: Interval, grid_points: int, cfg, kind: BoundKind, claimed_bound=None) -> ErrorReport:
    # The one scan body. An APPROXIMATION settles under _maxima_pick and refines
    # its largest local maxima, or reads the one grid end _monotone_end proves to be
    # its outcome; a bound direction settles its margins under _margin_pick and
    # reads the smallest. Both report the largest |E| found, and a non-finite mpf
    # E, where one is computed, as an unsatisfied verdict at its point.
    # The family label is the approximant's own: its label, else its __name__.
    if not callable(f):
        raise ValueError(f"f must be a callable approximant, got {type(f).__name__}")
    if not isinstance(interval, Interval):
        raise ValueError(f"interval must be an Interval, got {type(interval).__name__}")
    label = getattr(f, "label", None) or getattr(f, "__name__", None) or "approximant"
    cfg = _config(cfg)
    approximation = kind is BoundKind.APPROXIMATION
    refined = pruned = 0
    searched_from = None  # err.evals_fixed where the searches begin, if they do
    with mp.workdps(cfg.working_digits):
        err = _Errors(f, interval, grid_points, cfg, -1 if kind is BoundKind.LOWER else 1)
        pts = err.pts
        try:
            end = _monotone_end(f, interval, err) if approximation else None
            if end is not None:  # the end alone, whose one search is pruned
                (best_x, best_e), refined, pruned = end, 1, 1
            else:
                err.bound_grid()
                lo, hi, best_i = err.settle(_maxima_pick if approximation else _margin_pick)
                searched_from = err.evals_fixed
                best_x, best_e = pts[best_i], lo[best_i]
                tops = _top_local_maxima(lo, hi, best_e / 2) if approximation else []
                refined = len(tops)
                for i in tops:
                    a = pts[i - 1] if i > 0 else pts[i]
                    b = pts[i + 1] if i + 1 < len(pts) else pts[i]
                    got = _golden_max(err, a, b, best_e)
                    if got is None:
                        pruned += 1
                    elif got[1] > best_e:
                        best_x, best_e = got
            if approximation:
                satisfied = claimed_bound is None or bool(best_e <= claimed_bound)
                min_gap = math.nan if claimed_bound is None else claimed_bound - best_e
            else:
                # a margin whose lower double lies above the smallest upper double is not the smallest
                ceiling = min(_bounds(v, False)[1] for v in err.lo)
                min_gap = min(v for v in err.lo if _bounds(v, False)[0] <= ceiling)
                satisfied = bool(min_gap >= -mp.ldexp(1, 1 - err.k))  # two mpf terms
            # every value is read here, at the working precision, resolving at mpf where it must
            sup, gap = float(best_e), float(min_gap)
        except _NonFinite as bad:
            # no bound holds there: sup_error is |E| there, nan or inf, and min_gap the claim
            # less it, or nan for a bound direction, whose margins then have no minimum
            (best_x, v), satisfied = bad.args, False
            sup = float(abs(v))
            gap = claimed_bound - sup if approximation and claimed_bound is not None else math.nan
        settle_mpf, ends_mpf = (sum(not v.open for v in vs) for vs in (err.settled.values(), err.ends))
    return ErrorReport(
        label,
        interval,
        sup_error=sup,
        arg_max=float(best_x),
        claimed_bound=claimed_bound,
        bound_kind=kind,
        satisfied=satisfied,
        min_gap=gap,
        evals_float=err.evals_float,
        evals_mpf=settle_mpf + ends_mpf + err.probes_mpf,
        refined=refined,
        pruned=pruned,
        search_mpf=ends_mpf + err.probes_mpf,
        search_fixed=0 if searched_from is None else err.evals_fixed - searched_from,
        settle_fixed=len(err.settled) - settle_mpf,
        oracle_cold=_oracle_cached.cache_info().misses - err.misses,
    )


def sup_error(
    f: Callable,
    interval: Interval,
    grid_points: int = DEFAULT_GRID,
    *,
    cfg: Optional[OracleConfig] = None,
    claimed_bound: Optional[float] = None,
) -> ErrorReport:
    """Estimate sup |f - arctan| over the interval.

    The grid is scanned on three tiers (see the module docstring); the three
    largest local maxima of the error within half the largest grid error are
    then refined by golden-section search until the bracket is narrower than
    REFINE_TOL*max(1, x), REFINE_TOL = 1e-12. A smaller one could only win if
    the error more than doubled inside one grid cell. Where f has a proved
    bound on |E'| (its slope attribute), a search stops once that bound shows
    it cannot beat the largest error found so far. Where f's |E| is proved
    monotone over an interval holding this one (its monotone and
    claim_interval attributes), only the grid end it grows toward is
    evaluated, wherever the proved rate shows that the full scan would report
    that end and that its search there is pruned; the report is then the full
    scan's, with one search started and pruned. When claimed_bound is
    given, satisfied means the refined sup stayed at or under it; a non-finite
    value of f at a point evaluated at mpf makes it false, with that value's
    |E| (nan or inf) as sup_error at its point. The report
    counts the approximant's evaluations per precision, the searches started
    and of them those stopped early or skipped (pruned), the search probes and final
    values evaluated at mpf and in fixed point, the settled grid points
    evaluated in fixed point alone, and the oracle values computed cold.
    ValueError refuses an f that is not callable, a value of f at mpf that is not
    an int, a float or an mpf (naming its x), and a claimed_bound that is not
    None, an int, a float or an mpf, or is nan.
    """
    real = isinstance(claimed_bound, (int, float, mp.mpf)) and not mp.isnan(claimed_bound)
    if claimed_bound is not None and not real:
        raise ValueError(f"claimed_bound must be None or a real number, got {shown(claimed_bound)}")
    return _scan(f, interval, grid_points, cfg, BoundKind.APPROXIMATION, claimed_bound)


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
    the scan's own noise, two mpf terms 2*2^-k (k = 149 at 50 digits), so
    report_digits enters no verdict. The scan settles each point whose margin
    could be the smallest, and each whose |E| could be the largest (the
    reported sup_error). Then min_gap is exact and every other margin lies
    above it, so no other point can change the verdict. The grid is not
    refined; a bounded grid from 0 samples x = 0, where every bound meets arctan.
    A non-finite value of f at a point evaluated at mpf leaves no smallest
    margin: satisfied is false and min_gap nan, with |E| there as sup_error.
    ValueError refuses an f that is not callable, and a value of f at mpf that
    is not an int, a float or an mpf, naming its x.
    """
    kind = BoundKind(kind)
    if kind not in (BoundKind.LOWER, BoundKind.UPPER):
        raise ValueError("kind must be LOWER or UPPER")
    return _scan(f, interval, grid_points, cfg, kind)


def norm_transfer_check(
    f: Callable,
    t: float,
    grid_points: int = 1025,
    *,
    cfg: Optional[OracleConfig] = None,
) -> bool:
    """Check the lifting norm identity on matched intervals.

    Measures ||LiftedApproximant(f) - arctan|| on [0, 2t/(1-t^2)] against twice
    ||f - arctan|| on [0, t]; true when they agree within 1% relative
    (sampling allowance) or both vanish to oracle noise.
    """
    outer_hi = lift_interval_map(t)
    cfg = _config(cfg)
    inner = sup_error(f, Interval(0.0, t), grid_points, cfg=cfg)
    lifted = LiftedApproximant(f)
    outer = sup_error(lifted, Interval(0.0, outer_hi), grid_points, cfg=cfg)
    a = outer.sup_error
    b = 2 * inner.sup_error
    if max(a, b) < 1e-20:
        return True
    return abs(a - b) <= 0.01 * max(a, b)
