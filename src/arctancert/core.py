"""Closed-form arctangent bounds and the half-angle lifting operator.

The fixed-order bound families live here: the classical Shafer-Fink pair,
its order-2 strengthening, a one-off upper bound and a quadratic
interpolant. ``master`` builds the paper's general order from the
overflow-free ratios L_k/sqrt(1+x^2) of its nested-radical sequence L_k.
Everything is a pure function accepting a float or an mpmath value.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .numerics import FLOAT, TOP, Frozen, Scalar, require_finite, require_nonnegative, require_unit


class BoundPair(NamedTuple):
    """A lower/upper pair enclosing arctan(x).

    The strict enclosure is the mathematical one that certify_bound checks.
    At float the pair is nominal (sf misses on 64 of 400 log-spaced points in
    [1e-8, 1e8]), and at mpf a margin below working precision can miss too.
    """

    lower: Scalar
    upper: Scalar


def shafer_fink_bounds(x) -> BoundPair:
    """Two-sided Shafer-Fink bound: 3x/(1+2*sqrt(1+x^2)) < arctan x < pi*x/(1+2*sqrt(1+x^2)).

    Strict for x > 0; nominal at float, and at mpf once the margin (about 1/x)
    lies below working precision (see BoundPair). Both sides vanish at
    x = 0. The lower bound is tight as x -> 0, the upper bound as x -> inf.
    With numerator and denominator divided by sqrt(1+x^2), both sides are
    evaluated as 3*sin t/(2 + cos t) and pi*sin t/(2 + cos t), t = arctan x.
    """
    c = FLOAT if type(x) is float and 0.0 <= x <= TOP else require_nonnegative(x)
    sin, cos = c.sincos(x)
    den = 2 + cos
    return BoundPair(3 * sin / den, c.pi * sin / den)


def theorem2_bounds(x) -> BoundPair:
    """Order-2 two-sided bound: pi*(3+8*sqrt2)*f(x) < arctan x < 45*f(x).

    Here f(x) = x/(7 + 6*s + 16*sqrt2*sqrt(s^2+s)) with s = sqrt(1+x^2); the
    radical is evaluated as hypot(x, 1+s), equal since x^2+(1+s)^2 = 2s(s+1).
    The pair gap is a factor ~66 narrower than Shafer-Fink's, though neither
    side dominates its Shafer-Fink counterpart pointwise. With s divided out,
    f = sin t/(7*cos t + 6 + 16*hypot(sin t, 1 + cos t)), t = arctan x. The
    enclosure is nominal at float, and at mpf once the margin (about 1/x) lies
    below working precision (see BoundPair).
    """
    c = FLOAT if type(x) is float and 0.0 <= x <= TOP else require_nonnegative(x)
    sin, cos = c.sincos(x)
    f = sin / (7 * cos + 6 + 16 * c.hypot(sin, 1 + cos))
    return BoundPair(c.pi * (3 + 8 * c.sqrt2) * f, 45 * f)


def theorem4_upper(x):
    """Upper bound pi*x/(4/pi + sqrt2*sqrt(1 + x^2 + x*sqrt(1+x^2))).

    Strict for x > 0, nominal at float as BoundPair is: it lies below the
    oracle rounded to float at 6 of 400 log-spaced x in [1e-8, 1e8] and 4
    of 400 in [1e8, 1e308]. Tends to pi/2 as x -> inf. Not pointwise
    comparable with the Shafer-Fink upper bound: tighter only for x above
    ~0.711. With sqrt(1+x^2) divided out it reads pi*sin t/((4/pi)*cos t +
    sqrt(2 + 2*sin t)), t = arctan x; at sin t = 1 the root is exactly 2 in
    float, where sqrt2*sqrt(2) rounds above it.
    """
    c = FLOAT if type(x) is float and 0.0 <= x <= TOP else require_nonnegative(x)
    pi = c.pi
    sin, cos = c.sincos(x)
    return pi * sin / (4 / pi * cos + c.sqrt(2 + 2 * sin))


def lagrange_p(u):
    """Quadratic interpolant of arctan through (0, 0), (sqrt2-1, pi/8), (1, pi/4).

    Evaluated in the collected form (pi/16)*u*(4 + sqrt2*(1 - u)), which equals
    the Lagrange form (fixedpoint.lagrange_kernel derives it). It is the body of
    the lagrange and t5 rows: a float in [0, 1] passes after one comparison.
    """
    c = FLOAT if type(u) is float and 0.0 <= u <= 1.0 else require_unit(u, "u")
    return c.pi / 16 * u * (4 + c.sqrt2 * (1 - u))


def theorem5_approx(x):
    """The lifted interpolant; within 1/115 of arctan on all of R+.

    Equals 2*lagrange_p(x/(1+sqrt(1+x^2))) through LiftedApproximant: the reduced
    argument lies in [0, 1), nothing squares, and the value tends to pi/2 as x -> inf.
    """
    return _THEOREM5(x)


def lift_interval_map(t):
    """Outer endpoint 2t/(1-t^2) whose lifted error matches twice the inner error on (0,t)."""
    require_finite(t, "t")
    if not 0 < t < 1:
        raise ValueError(f"t must lie in (0, 1), got {t!r}")
    return 2 * t / (1 - t * t)


class LiftedApproximant(Frozen):
    """An approximant on [0,1] lifted to R+ by one argument halving.

    value(x) = 2*inner(u) with u = x/(1+sqrt(1+x^2)), the library's one
    lifting operator: valid on [0,1] becomes valid on R+, bound direction
    kept; nest it to halve more than once. It checks x once, a float from 0
    to the largest double by one comparison; a registry row's inner is its
    kernel's body, which re-tests u, in [0, 1) by construction, by one more.
    An inner that is not callable is refused with ValueError, and so is a
    value of inner that is not an int, a float or an mpf.
    """

    __slots__ = ("inner",)  # a slot, since every call reads it
    _key_fields = ("inner",)

    def __init__(self, inner: Callable):
        if not callable(inner):
            raise ValueError(f"inner must be a callable approximant, got {type(inner).__name__}")
        self.inner = inner

    def __call__(self, x):
        c = FLOAT if type(x) is float and 0.0 <= x <= TOP else require_nonnegative(x)
        v = self.inner(c.reduce(x))
        if type(v) is not float and not isinstance(v, int | Scalar):
            raise ValueError(f"inner must return a real number, got {type(v).__name__} at x = {x!r}")
        return 2 * v


_THEOREM5 = LiftedApproximant(lagrange_p)
