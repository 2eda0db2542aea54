import math

import pytest

from arctancert.numerics import require_int, require_nonnegative
from arctancert.verify import OracleConfig


@pytest.fixture(scope="session")
def cfg():
    return OracleConfig(working_digits=50, report_digits=30)


def log_grid(lo, hi, n):
    """n log-spaced points in [lo, hi], endpoints included."""
    la, lb = math.log10(lo), math.log10(hi)
    return [10.0 ** (la + i * (lb - la) / (n - 1)) for i in range(n)]


def nested_radical_seq(j: int, x) -> list:
    """Values L_0..L_j of the recursion L_0 = 1, L_{k+1} = L_k + sqrt(x^2 + L_k^2).

    The nested-radical sequence of the paper's general-order construction, a
    reference for ``master``, which builds its a_n from L_k/sqrt(1+x^2).
    L_k(x) equals x/tan(arctan(x)/2^k) for x > 0 (repeated cotangent
    bisection), so the sequence is strictly increasing with L_k(0) = 2^k.
    At float, L_j passes the float range once x is near its top; pass an mpf
    there.
    """
    require_int(j, "j", 0)
    c = require_nonnegative(x)
    val = c.sqrt(1)  # L_0 = 1, in the row's number type
    out = [val]
    for _ in range(j):
        val = val + c.hypot(x, val)
        out.append(val)
    if not c.isfinite(val):  # the sequence increases, so the last entry overflows first
        raise ValueError(f"L_{j}({x!r}) lies beyond the float range; pass an mpf instead")
    return out
