"""Workload definitions: inputs made from the seed, and the independent checks.

The family and order lists are written out here rather than read from the
library's registry, so that a registry refactor cannot change what the
benchmark runs; ``test_perfbench.py`` flags any drift from the registry.

Every check compares against ``mpmath.atan`` at the report digits + 20,
never against the library's own oracle, and every claim is restated here
from the paper's statements rather than taken from the library.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import sys
import time

import mpmath
from mpmath import mp

WORKLOADS = ("standard_table", "float_eval", "oracle_points")

# --- standard_table -------------------------------------------------------

TABLE_FAMILIES = (
    "sf,t2,t4,master:1..6,lagrange,t5,cheb:0..8,cheb-lifted:1..8,"
    "cf:1..8,cf-lifted:1..8,w:0..6,w-lifted:0..6"
)
TABLE_ROWS = 58
TABLE_DIGITS = 30  # default report digits; working precision is 50
# The timed passes run the table at a small grid: one pass takes about 4 s,
# so a run holds several. One pass at the default grid checks the CSV.
TABLE_TIMED_GRID = 65
TABLE_FULL_GRID = 4097
# sha256 of the table's CSV per grid, at the commit that defined this benchmark
TABLE_DIGESTS = {
    TABLE_TIMED_GRID: "5184cafddaa191266164da64c30ef477c0d90159b31482aabacb99ac300ffc6a",
    TABLE_FULL_GRID: "df9fa68cfda848e60f6a8b6a47f4d5911a90e0c95006cd42f1f9c05262f5b47b",
}


def table_argv(grid: int) -> list:
    return ["table", "--families", TABLE_FAMILIES, "--grid", str(grid)]

# --- float_eval -----------------------------------------------------------

MAX_ORDER = 16
PAIR_FAMILIES = ("sf", "t2", "master")
FLOAT_EVAL_ORDERS = {
    "sf": (None,),
    "t2": (None,),
    "t4": (None,),
    "master": tuple(range(1, MAX_ORDER + 1)),
    "lagrange": (None,),
    "t5": (None,),
    "cheb": tuple(range(0, 9)),
    "cheb-lifted": tuple(range(1, 9)),
    "cf": tuple(range(1, 9)),
    "cf-lifted": tuple(range(1, 9)),
    # s and t are not in the table; they run at w's orders, since w blends them
    "s": tuple(range(0, 7)),
    "t": tuple(range(0, 7)),
    "w": tuple(range(0, 7)),
    "w-lifted": tuple(range(0, 7)),
}
UNIT_DOMAIN = frozenset(("lagrange", "cheb", "cf", "s", "t", "w"))
FLOAT_CHECK_DIGITS = 50  # default report digits (30) + 20
POINTS_PER_ROUND = 16
DBL_TRUE_MIN = 5e-324
EXTREMES = (0.0, DBL_TRUE_MIN, sys.float_info.max)
# known float defects (known_defect): counted in `failed`, but expected
MASTER_PARAMS_RAISES = range(12, 16)
RANGE_EDGE = 1e153
ROUNDING_ULPS = 64

# --- oracle_points --------------------------------------------------------

ORACLE_DIGITS = (30, 100)
ORACLE_POINTS_PER_ROUND = 256

# --- work per run ----------------------------------------------------------
# A run does a fixed amount of work for a given --seconds, so that two commits
# compared at the same --seconds do the same work and hold the same inputs in
# memory. The rates are roughly what the commit that defined the benchmark
# managed, checks included, on a shared 2-vCPU x86-64 machine (Python 3.11,
# mpmath 1.3.0, python backend). A table pass took about 4 s there; an
# untraced table run makes TABLE_PASSES of them whatever --seconds is, so that
# every row has that many samples.

ROUNDS_PER_SECOND = {"float_eval": 7.0, "oracle_points": 5.0}
TABLE_PASSES = 8
TABLE_TRACED_PAIRS = 3  # untraced and traced table passes in a traced run


def rounds(workload: str, seconds: float) -> int:
    """Rounds of float_eval or oracle_points a run of the given length performs."""
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


# --- machine speed ---------------------------------------------------------
# The shared machine's speed drifts by up to about 1.5x over minutes and swings
# within seconds, and a run sees whatever spell it falls in. Each timed unit of
# work is therefore preceded by speed_probe(): a fixed mpmath computation that
# never touches the library. A unit's times are reported scaled to a machine
# on which the probe takes PROBE_NOMINAL_S, roughly the probe's time in a fast
# spell of the machine that defined the benchmark. A change to the library
# cannot move the probe; the machine's spells move both alike.

PROBE_STEPS = 400
PROBE_NOMINAL_S = 0.006


def speed_probe(clock=time.perf_counter) -> float:
    """Seconds a fixed 50-digit mpmath computation takes now, with collection off."""
    enabled = gc.isenabled()
    gc.disable()  # so that the size of the library's heap cannot slow the probe
    try:
        t0 = clock()
        with mp.workdps(50):
            acc, x = mp.mpf(0), mp.mpf(1) / 3
            for i in range(PROBE_STEPS):
                acc = (acc * x + i) / (x + 1) + mp.sqrt(acc + 1)
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def at_nominal_speed(seconds: float, probe_s: float) -> float:
    """seconds measured when the probe took probe_s, scaled to the nominal probe time."""
    return seconds * PROBE_NOMINAL_S / probe_s


def working_digits(report_digits: int) -> int:
    """The library's default precision policy: work 20 digits above the report."""
    return report_digits + 20


def setup_plan(workload: str) -> dict:
    """The public first-use calls a workload pays once: oracle pi per precision, master_params per order."""
    digits = {"standard_table": (TABLE_DIGITS,), "float_eval": (), "oracle_points": ORACLE_DIGITS}[workload]
    orders = {"standard_table": range(1, 7), "float_eval": range(1, MAX_ORDER + 1), "oracle_points": ()}[workload]
    return {
        "configs": [(d, working_digits(d)) for d in digits],
        "orders": list(orders),
        "cli": workload == "standard_table",
    }


def float_eval_instances():
    """(family, n, side) for every evaluated instance, pair families once per side."""
    out = []
    for fam, orders in FLOAT_EVAL_ORDERS.items():
        sides = ("lower", "upper") if fam in PAIR_FAMILIES else (None,)
        out.extend((fam, n, side) for n in orders for side in sides)
    return out


def _stratified_log(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """count points log-uniform in [lo, hi], one in each of count equal slices of the log range.

    Stratifying keeps every round's mix of magnitudes, and so its cost, the
    same from seed to seed; only the position within each slice is random.
    """
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / count
    return [math.exp(a + (i + rng.random()) * width) for i in range(count)]


def float_eval_points(rng: random.Random):
    """One round's inputs: (points on [0, inf), points on [0, 1]).

    The half-line set always holds 0 and the two extremes, three more points
    spread log-uniformly over the whole float range, and the rest spread
    log-uniformly over [1e-3, 1e3]. The unit set holds both ends and points
    spread uniformly between.
    """
    full = _stratified_log(rng, DBL_TRUE_MIN, sys.float_info.max, 3)
    mid = _stratified_log(rng, 1e-3, 1e3, POINTS_PER_ROUND - len(EXTREMES) - 3)
    inner = POINTS_PER_ROUND - 2
    unit = [0.0, 1.0] + [(i + rng.random()) / inner for i in range(inner)]
    return list(EXTREMES) + full + mid, unit


def oracle_points(rng: random.Random, count: int, seen: set) -> list:
    """count new distinct points: a quarter spread log-uniformly over the positive
    float range, the rest over [1e-3, 1e3], where certification grids lie.

    The whole range alone would put half the points below the oracle's
    reduction threshold, where a call costs a few series terms, and the median
    op would sit on the step between the two costs.
    """
    out = []
    full = count // 4
    for lo, hi, k in ((DBL_TRUE_MIN, sys.float_info.max, full), (1e-3, 1e3, count - full)):
        for x in _stratified_log(rng, lo, hi, k):
            while x in seen:  # redraw a repeat from the whole band; never happens in practice
                x = _stratified_log(rng, lo, hi, 1)[0]
            seen.add(x)
            out.append(x)
    rng.shuffle(out)  # the costliest magnitudes would otherwise run back to back
    return out


def reference_atan(x: float, digits: int):
    """arctan(x) from mpmath at digits significant digits; the check's ground truth."""
    with mp.workdps(digits):
        return mpmath.atan(mp.mpf(x))


def claimed_error(fam: str, n, x):
    """The paper's error claim for an approximation family at x, as an mpf."""
    r2 = mp.sqrt(2)
    u = mp.mpf(x)
    if fam == "lagrange":
        return mp.mpf(1) / 230
    if fam == "t5":
        return mp.mpf(1) / 115
    if fam == "cheb":
        return (1 + r2) ** -(2 * n + 3)
    if fam == "cheb-lifted":
        return (3 + 2 * r2) ** -n
    if fam == "cf":
        return mp.mpf(4) ** -n / 2
    if fam == "cf-lifted":
        return mp.mpf(4) ** -n
    if fam == "s":
        return (r2 * u / (u + 1)) ** (4 * n)
    if fam == "t":
        return ((1 - u) / r2) ** (4 * n)
    if fam == "w":
        return mp.mpf(20) ** -n
    if fam == "w-lifted":
        return 2 * mp.mpf(20) ** -n
    raise ValueError(f"no error claim for family {fam!r}")


def float_eval_verdict(fam: str, n, side, x: float, value, ref) -> str:
    """'ok', 'raised', 'nonfinite' or 'wrong' for one float evaluation.

    value is the kernel's result or the exception it raised. A pair side or
    the one-sided t4 bound is wrong on the wrong side of arctan; an
    approximation is wrong outside its claimed error.
    """
    if isinstance(value, Exception):
        return "raised"
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        return "nonfinite"
    if not math.isfinite(v):
        return "nonfinite"
    with mp.workdps(FLOAT_CHECK_DIGITS):
        if side == "lower":
            ok = mp.mpf(v) <= ref
        elif side == "upper" or fam == "t4":
            ok = mp.mpf(v) >= ref
        else:
            ok = abs(mp.mpf(v) - ref) <= claimed_error(fam, n, x)
    return "ok" if ok else "wrong"


def schedule(instances, half_line, unit):
    """(instance, x) in evaluation order: point by point, every instance at each.

    Point-major order spreads each instance's evaluations over the whole
    round, so a burst of interference on a shared machine slows a few
    evaluations of many instances rather than all of one, and the tail stays
    steady. The two point sets have the same length.
    """
    for j in range(len(half_line)):
        for inst in instances:
            yield inst, (unit if inst[0] in UNIT_DOMAIN else half_line)[j]


def evaluate(instances, half_line, unit, clock):
    """Time each (family, n, side, fn) instance at every point of its domain.

    Returns (wall, op_s, values): the timed phase, one latency per
    evaluation, and each result or the exception it raised, in schedule()
    order.
    """
    values, op_s = [], []
    t_round = clock()
    for (_fam, _n, _side, fn), x in schedule(instances, half_line, unit):
        t0 = clock()
        try:
            v = fn(x)
        except Exception as exc:  # a raising kernel is a counted failure
            v = exc
        op_s.append(clock() - t0)
        values.append(v)
    return clock() - t_round, op_s, values


def known_defect(fam: str, n, side, x: float, verdict: str, value, ref):
    """The known defect class of a failed float evaluation, or None if there is none.

    The classes are ROADMAP item 2's float defects, as found at the commit that
    defined this benchmark:

    - 'master_params': master n = 12..15 raise AssertionError, because
      master_params works at a fixed 50 digits;
    - 'range_edge': any failure at x above 1e153 or below 1e-153 (but not 0),
      where x*x and the kernels' intermediates overflow or underflow;
    - 'rounding': a value on the wrong side of arctan, or outside the claim,
      by at most ROUNDING_ULPS ulp of arctan(x): pair sides whose true margin
      is below rounding, and claims finer than a double can express.
    """
    if verdict == "raised" and fam == "master" and n in MASTER_PARAMS_RAISES and isinstance(value, AssertionError):
        return "master_params"
    if x > RANGE_EDGE or 0 < x < 1 / RANGE_EDGE:
        return "range_edge"
    if verdict == "wrong":
        with mp.workdps(FLOAT_CHECK_DIGITS):
            miss = abs(mp.mpf(float(value)) - ref)
            if side is None and fam != "t4":
                miss -= claimed_error(fam, n, x)
            if miss <= ROUNDING_ULPS * math.ulp(float(ref)):
                return "rounding"
    return None


def verdicts(instances, half_line, unit, values) -> list:
    """One verdict per value evaluate() returned, in the same order.

    A failure in a known defect class reads '<verdict>:<class>'; a bare
    'raised', 'nonfinite' or 'wrong' is unexplained.
    """
    refs = {x: reference_atan(x, FLOAT_CHECK_DIGITS) for x in half_line + unit}
    out = []
    for ((fam, n, side, _fn), x), v in zip(schedule(instances, half_line, unit), values):
        verdict = float_eval_verdict(fam, n, side, x, v, refs[x])
        if verdict != "ok":
            cls = known_defect(fam, n, side, x, verdict, v, refs[x])
            if cls:
                verdict = f"{verdict}:{cls}"
        out.append(verdict)
    return out


def failed_count(verdict_counts: dict) -> int:
    """Ops that raised, were non-finite or failed their check."""
    return sum(verdict_counts.values()) - verdict_counts.get("ok", 0)


def unexplained_count(verdict_counts: dict) -> int:
    """Failed ops that fall in no known defect class (see known_defect)."""
    return sum(verdict_counts.get(v, 0) for v in ("raised", "nonfinite", "wrong"))


def table_side(fam: str, n):
    """The side a two-sided family reports in the table: its g-constant side."""
    if fam not in PAIR_FAMILIES:
        return None
    order = {"sf": 1, "t2": 2}.get(fam, n)
    return "upper" if order % 2 else "lower"


def table_row_ok(line: str, approximant) -> bool:
    """A table CSV row passes if satisfied and its sup_error matches a re-evaluation.

    The re-evaluation runs the row's approximant (built by approximant(family,
    n=..., side=...)) at its arg_max at the table's working precision and
    compares with mpmath.atan there.
    """
    digits = working_digits(TABLE_DIGITS)
    try:
        fam, n_txt, _iv, sup_txt, arg_txt, _claim, satisfied = line.split(",")
        n = int(n_txt) if n_txt else None
        x = float(arg_txt)
        approx = approximant(fam, n=n, side=table_side(fam, n))
        with mp.workdps(digits):
            redo = float(abs(approx(mp.mpf(x)) - reference_atan(x, digits)))
        reported = float(sup_txt)
    except (ValueError, ArithmeticError):  # a malformed row, or a kernel that raises there
        return False
    return satisfied == "true" and abs(redo - reported) <= 1e-9 * reported + 1e-25


def latency_summary(samples) -> dict:
    """Median and tail of op latencies (seconds in, ms out).

    The tail is the highest percentile with at least ten samples beyond it;
    with fewer than eleven samples it is the maximum.
    """
    data = sorted(samples)
    n = len(data)
    beyond = min(10, n - 1)
    return {
        "p50_ms": statistics.median(data) * 1e3,
        "tail_ms": data[n - 1 - beyond] * 1e3,
        "tail_pct": 100.0 * (n - beyond) / n,
        "samples": n,
    }
