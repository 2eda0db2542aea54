"""Closed-form arctangent bounds and the half-angle lifting operator.

The fixed-order bound families live here: the classical Shafer-Fink pair,
its order-2 strengthening, a one-off upper bound, a quadratic interpolant,
and the nested-radical sequence that the general-order machinery in
``master`` is built from. Everything is a pure function accepting a float
or an mpmath value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .numerics import HUGE, Scalar, require_finite, require_nonnegative, require_unit


class BoundPair(NamedTuple):
    """A lower/upper pair enclosing arctan(x)."""

    lower: Scalar
    upper: Scalar


def shafer_fink_bounds(x) -> BoundPair:
    """Two-sided Shafer-Fink bound: 3x/(1+2*sqrt(1+x^2)) < arctan x < pi*x/(1+2*sqrt(1+x^2)).

    Strict for x > 0; both sides vanish at x = 0. The lower bound is tight
    as x -> 0, the upper bound as x -> inf. Above HUGE both are evaluated
    with x divided out, as 3/d' and pi/d' with d' = 1/x + 2*sqrt(1/x^2 + 1).
    """
    c = require_nonnegative(x)
    if x > HUGE:
        r = 1 / x
        den = r + 2 * c.hypot(1, r)
        return BoundPair(3 / den, c.pi / den)
    den = 1 + 2 * c.hypot(1, x)
    return BoundPair(3 * x / den, c.pi * x / den)


def nested_radical_seq(j: int, x) -> list:
    """Values L_0..L_j of the recursion L_0 = 1, L_{k+1} = L_k + sqrt(x^2 + L_k^2).

    L_k(x) equals x/tan(arctan(x)/2^k) for x > 0 (repeated cotangent
    bisection), so the sequence is strictly increasing with L_k(0) = 2^k.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    c = require_nonnegative(x)
    val = c.one
    out = [val]
    for _ in range(j):
        val = val + c.hypot(x, val)
        out.append(val)
    return out


def theorem2_bounds(x) -> BoundPair:
    """Order-2 two-sided bound: pi*(3+8*sqrt2)*f(x) < arctan x < 45*f(x).

    Here f(x) = x/(7 + 6*s + 16*sqrt2*sqrt(s^2+s)) with s = sqrt(1+x^2); the
    radical is evaluated as hypot(x, 1+s), equal since x^2+(1+s)^2 = 2s(s+1).
    The pair gap is a factor ~66 narrower than Shafer-Fink's, though neither
    side dominates its Shafer-Fink counterpart pointwise. Above HUGE, f is
    evaluated with x divided out of its denominator.
    """
    c = require_nonnegative(x)
    if x > HUGE:
        r = 1 / x
        s = c.hypot(r, 1)  # sqrt(1+x^2)/x
        f = 1 / (7 * r + 6 * s + 16 * c.hypot(1, r + s))
    else:
        s = c.hypot(1, x)
        f = x / (7 + 6 * s + 16 * c.hypot(x, 1 + s))
    return BoundPair(c.pi * (3 + 8 * c.sqrt2) * f, 45 * f)


def theorem4_upper(x):
    """Upper bound pi*x/(4/pi + sqrt2*sqrt(1 + x^2 + x*sqrt(1+x^2))).

    Tends to pi/2 as x -> inf. Not pointwise comparable with the
    Shafer-Fink upper bound: tighter only for x above ~0.711.
    """
    c = require_nonnegative(x)
    pi = c.pi
    s = c.hypot(1, x)
    return pi * x / (4 / pi + c.sqrt2 * c.sqrt_prod(s, s + x))


def lagrange_p(u):
    """Quadratic interpolant of arctan through (0, 0), (sqrt2-1, pi/8), (1, pi/4)."""
    c = require_unit(u, "u")
    pi, r2 = c.pi, c.sqrt2
    return pi / 4 * u * (u - r2 + 1) / (2 - r2) + pi / 8 * u * (u - 1) / ((r2 - 1) * (r2 - 2))


def theorem5_approx(x):
    """The lifted interpolant in closed form; within 1/115 of arctan on all of R+.

    Equals 2*lagrange_p(x/(1+sqrt(1+x^2))) up to rounding. Written in the
    reduced argument r = x/(1+sqrt(1+x^2)) as pi/8 * r*(4 + sqrt2*(1 - r)),
    so nothing squares and the value tends to pi/2 as x -> inf.
    """
    c = require_nonnegative(x)
    r = c.reduce(x)
    return c.pi / 8 * r * (4 + c.sqrt2 * (1 - r))


def lift_interval_map(t):
    """Outer endpoint 2t/(1-t^2) whose lifted error matches twice the inner error on (0,t)."""
    require_finite(t, "t")
    if not 0 < t < 1:
        raise ValueError(f"t must lie in (0, 1), got {t!r}")
    return 2 * t / (1 - t * t)


@dataclass(frozen=True)
class LiftedApproximant:
    """An approximant on [0,1] lifted to R+ by repeated argument halving.

    Each application contributes one halving: value(x) = 2*inner(u) with
    u = x/(1+sqrt(1+x^2)) per lift. This is the library's one lifting
    operator: it turns an approximant valid on [0,1] into one valid on all
    of R+, preserving lower/upper bound direction.
    """

    inner: Callable
    lifts: int = 1

    def __post_init__(self):
        if not isinstance(self.lifts, int) or self.lifts < 0:
            raise ValueError(f"lifts must be an integer >= 0, got {self.lifts!r}")

    def __call__(self, x):
        c = require_nonnegative(x)
        k = self.lifts
        while k:  # cheaper per call than iterating a range
            x = c.reduce(x)
            k -= 1
        return (1 << self.lifts) * self.inner(x)
