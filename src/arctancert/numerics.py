"""The number context every approximation kernel computes in.

Each kernel is written once and runs on a ``float`` in fast double precision
or on an ``mpmath.mpf`` at the active mpmath precision, answering in kind.
The second mode is what the certification harness uses to measure tiny bound
margins without double rounding getting in the way.

Every kernel takes each function and constant it needs from its argument's
row: ``FLOAT`` (the ``math`` functions, double pi and sqrt2) or ``MPF`` (the
mpmath functions, with pi and sqrt2 read at the active precision on each
access). Each kernel's body checks its own argument and takes the row from
the check, ``c = FLOAT if type(x) is float and lo <= x <= hi else
require_*(x)``: a float in its domain passes after one chained comparison,
and any other x meets a ``require_*`` validator, which raises ValueError or
returns the row. A public kernel checks only its order (and cheb's scale)
before its body; a registry row (``families.Approximant``) binds the body
with its order. Check, then cache: no cache hashes an argument before its
entry's check has run, and a cache stays only where the traffic (the table,
the benchmark's workloads, the commands, the tests) reuses its values. Both
rows share two overflow-free argument maps: ``reduce``, the half-angle
reduction, and ``sincos``, the sine and cosine of arctan x, in which the
closed-form kernels are written so that no x from 0 to the top of the float
range squares or overflows.

The read-only value types (OracleConfig, Approximant, LiftedApproximant)
share one base, ``Frozen``: slots set once, and equality, hash and repr by a
key of fields that each class names once.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction

from mpmath import mp

Scalar = float | mp.mpf
_MPF = mp.mpf
TOP = sys.float_info.max  # the largest double, the top of the float domain [0, TOP]


class _Row:
    def reduce(self, x):
        """Half-angle reduction u = x/(1 + sqrt(1+x^2)), mapping [0, inf) into [0, 1).

        hypot never forms x*x, so the reduction is overflow-safe for large x.
        """
        return x / (1 + self.hypot(1, x))

    def sincos(self, x):
        """(sin t, cos t) of t = arctan x, as (x/s, 1/s) with s = hypot(1, x).

        Both lie in [0, 1] for x >= 0, so a closed form in sqrt(1+x^2) with
        numerator and denominator divided by s cannot overflow.
        """
        s = self.hypot(1, x)
        return x / s, 1 / s


class _FloatRow(_Row):
    hypot, fsum, isfinite, sqrt = math.hypot, math.fsum, math.isfinite, math.sqrt
    pi, sqrt2 = math.pi, math.sqrt(2.0)
    prec = 0  # cache key: this row has a single precision


class _MpfRow(_Row):
    hypot, fsum, isfinite = mp.hypot, mp.fsum, mp.isfinite
    sqrt = staticmethod(mp.sqrt)  # a plain function, unlike the bound methods above
    pi = property(lambda self: +mp.pi)
    sqrt2 = property(lambda self: mp.sqrt(2))
    prec = property(lambda self: mp.prec)


FLOAT, MPF = _FloatRow(), _MpfRow()


def require_finite(x, name="x"):
    """Raise ValueError unless x is a finite real number, and return the row x computes in.

    An mpf gets the mpf row; a float, an int or a Fraction the float row. An
    int too large for a double is rejected here rather than overflowing in
    a kernel, and so is a str, None, a complex or a list, rather than raising
    TypeError there.
    """
    row = MPF if isinstance(x, _MPF) else FLOAT
    try:
        finite = row.isfinite(x)
    except OverflowError:
        raise ValueError(f"{name} lies beyond the float range; pass an mpf instead") from None
    except TypeError:
        raise ValueError(f"{name} must be a real number, got {type(x).__name__}") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {x!r}")
    return row


def require_nonnegative(x, name="x"):
    row = require_finite(x, name)
    if x < 0:
        raise ValueError(f"{name} must be non-negative, got {x!r}")
    return row


def require_unit(x, name="x"):
    row = require_finite(x, name)
    if not 0 <= x <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return row


def require_int(v, name, lo, hi=None):
    """Raise ValueError unless v is an int in [lo, hi], and at most sys.maxsize.

    A bool passes as the int it equals, and shares its entry in a cache keyed on orders.
    The message names v as ``shown`` does.
    """
    if not isinstance(v, int) or v < lo or (hi is not None and v > hi):
        limit = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    elif v > sys.maxsize:
        limit = "<= sys.maxsize"
    else:
        return
    raise ValueError(f"{name} must be an integer {limit}, got {shown(v)}")


LONG_TEXT = 64  # the most characters of a str that a message quotes


def shown(v) -> str:
    """v as a message quotes it: repr(v), an int or a Fraction with a term past 128 bits by its
    size (past 4,300 digits Python refuses to print it), a str past LONG_TEXT by its length."""
    if isinstance(v, int | Fraction) and (bits := max(abs(v.numerator), v.denominator).bit_length()) > 128:
        return f"an integer of {bits} bits" if isinstance(v, int) else f"a Fraction with a term of {bits} bits"
    if isinstance(v, str) and len(v) > LONG_TEXT:
        return f"a string of {len(v)} characters"
    return repr(v)


class Frozen:
    """Read-only slots, compared, hashed and printed by the fields named in _key_fields.

    __init__ sets each slot once; assigning or deleting one later raises
    AttributeError. Equal means the same type and key; a one-field key hashes
    as that field. The key is an operator.attrgetter, built once per class.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls._key_fields)

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return type(other) is type(self) and self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._key_fields)
        return f"{type(self).__name__}({fields})"
