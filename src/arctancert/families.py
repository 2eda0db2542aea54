"""Registry of the approximation families exposed to the CLI and the table.

Each family gets an identifier, a reference label, its claimed bound, a
domain, and a way to build a callable evaluator. Evaluators accept floats or
mpf values like the underlying kernels.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

from . import core, fixedpoint, master, series
from .numerics import Frozen, require_int, shown
from .verify import BoundKind, Interval

_SQRT2 = math.sqrt(2)
# K: at float every kernel on the K-ulp rule lies within K/4 ulp of arctan x of its mpf
# value, checked over every double, orders up to MAX_ORDER (tests/test_families.py)
FLOAT_ULPS = 64


class FamilyInfo(NamedTuple):
    """One registry row, a read-only record (``_replace`` copies it with fields changed).

    kernel takes (n, x) when needs_n, else (x); a two-sided family's kernel
    returns a BoundPair, and master's takes master_params(n) and a side for n.
    kernel is the body of the row's public kernel, which checks its own x (see
    ``numerics``); sf's, t2's, t4's and lagrange's are the public kernels.
    claim maps n to the claimed uniform error bound.
    A lifted family's kernel is a [0,1] kernel's body, lifted once to R+ by
    core.LiftedApproximant, which checks x. A two-sided family's
    pair_order is its order in the master family, where that order is fixed.
    float_rule is False on t alone, which has no float rule (see
    Approximant for each row's rule). fixed is the row's kernel in integers
    (``fixedpoint``), which Approximant makes its fixed-point rule
    (``fixedpoint.direct_fixed``), at the lift's u where claim_interval is 0:inf
    and at u = x where it is 0:1; a pair row carries none. claim_interval is
    the text of the interval the claims apply to; Approximant parses it once,
    at construction. A row that needs_n takes every order from n_min to
    MAX_ORDER, master's range, and no other.
    slope maps n to a proved bound on |dE/dx| over the row's domain, E = f -
    arctan, which lets the scan stop a golden-section search that cannot beat
    its best value; it is None where a row has none. monotone is a proved
    direction of |E| in x over the claim interval, at every order, with a
    rate: +1 where |E| rises, d log|E|/dx >= 1/(c(1 + c)) with c = max(1, x),
    -1 where it falls as fast, 0 (the default) no claim. Where the scanned
    interval lies within the claim interval, sup_error evaluates the grid end
    |E| grows toward alone wherever the rate shows that the full scan would
    report that end (verify._monotone_end).
    """

    ident: str
    reference: str
    bound_text: str
    domain_text: str
    kind: BoundKind
    needs_n: bool
    n_min: int = 0
    claim_interval: str = "0:inf"  # where the claimed bound applies
    kernel: Optional[Callable] = None
    claim: Optional[Callable] = None
    lifted: bool = False
    pair_order: Optional[int] = None
    float_rule: bool = True
    fixed: Optional[Callable] = None
    slope: Optional[Callable] = None
    monotone: int = 0


@lru_cache(maxsize=master.MAX_ORDER + 1)  # the advertised orders 0..16; the table asks for 0..8
def _cheb_slope(n: int) -> float:
    # A bound on |E'| over [-1, 1] at order n. E = f_n - arctan = -sum_{k>n} c_k T_(2k+1) with
    # |c_k| = 2r^(2k+1)/(2k+1), r = sqrt2 - 1 (fixedpoint._cheb_ints), and Markov's |T_m'| <= m^2 on
    # [-1, 1] (Mason & Handscomb, ch. 2) gives |E'| <= S(n) = sum_{k>n} 2(2k+1) r^(2k+1). With
    # q = r^2 and j = n + 1, sum_{k>=j} (2k+1) q^k = q^j ((2j+1)/(1-q) + 2q/(1-q)^2). S grows
    # with r, so S at the rational R = 0.4142136 > r, exact, and rounded up to a double bounds
    # it. cheb-lifted takes the same S in x: E(x) = 2E_cheb(u) with du/dx = (1 - u^2)^2/(2(1 +
    # u^2)) <= 1/2 at the lift's u = x/(1 + sqrt(1 + x^2)).
    r = Fraction(4142136, 10**7)
    q, j = r * r, n + 1
    s = 2 * r * q**j * ((2 * j + 1) / (1 - q) + 2 * q / (1 - q) ** 2)
    return math.nextafter(float(s), math.inf)


# lagrange's p(u) = (pi/16)u(4 + sqrt2(1 - u)) (core.lagrange_p) has the linear p'(u) =
# (pi/16)(4 + sqrt2 - 2sqrt2*u), from 1.064 at u = 0 down to 0.507 at u = 1, and arctan' =
# 1/(1 + u^2) lies in [1/2, 1] on [0, 1], so |E'| <= max(1.064 - 1/2, 1 - 0.507) < 0.57. t5 is
# 2p at the lift's u, whose du/dx <= 1/2 (_cheb_slope), so the same bound holds in x on [0, inf).
_LAGRANGE_SLOPE = 0.57


_APPROX, _TWO, _UP = BoundKind.APPROXIMATION, BoundKind.TWO_SIDED, BoundKind.UPPER

FAMILIES: dict[str, FamilyInfo] = {
    info.ident: info
    for info in (
        FamilyInfo("sf", "Theorem 1", "3x/d < arctan x < πx/d, d = 1+2√(1+x²)", "[0,∞)", _TWO, False,
                   kernel=core.shafer_fink_bounds, pair_order=1),
        FamilyInfo("t2", "Theorem 2", "π(3+8√2)f < arctan x < 45f", "[0,∞)", _TWO, False,
                   kernel=core.theorem2_bounds, pair_order=2),
        FamilyInfo("t4", "Theorem 4", "arctan x < πx/(4/π+√2√(1+x²+x√(1+x²)))", "[0,∞)", _UP, False,
                   kernel=core.theorem4_upper, fixed=fixedpoint.t4_kernel),
        FamilyInfo("master", "Theorem 3", "K_high−K_low < 4^-n", "[0,∞)", _TWO, True, 1,
                   kernel=master._master_side),
        FamilyInfo("lagrange", "Lagrange interpolant", "sup < 1/230 on (0,1)", "[0,1]", _APPROX, False, 0, "0:1",
                   kernel=core.lagrange_p, claim=lambda n: 1 / 230, slope=lambda n: _LAGRANGE_SLOPE,
                   fixed=fixedpoint.lagrange_kernel),
        FamilyInfo("t5", "Theorem 5", "sup < 1/115", "[0,∞)", _APPROX, False,
                   kernel=core.lagrange_p, claim=lambda n: 1 / 115, lifted=True, slope=lambda n: _LAGRANGE_SLOPE,
                   fixed=fixedpoint.lagrange_kernel),
        FamilyInfo("cheb", "Chebyshev series", "(1+√2)^-(2n+3) on [0,1]", "[-1,1]", _APPROX, True, 0, "0:1",
                   kernel=series._cheb, claim=lambda n: (1 + _SQRT2) ** -(2 * n + 3),
                   slope=_cheb_slope, fixed=fixedpoint.cheb_kernel),
        FamilyInfo("cheb-lifted", "Theorem 6", "(3+2√2)^-n", "[0,∞)", _APPROX, True, 1,
                   kernel=series._cheb, claim=lambda n: (3 + 2 * _SQRT2) ** -n, lifted=True,
                   slope=_cheb_slope, fixed=fixedpoint.cheb_kernel),
        # cf's |E| rises on (0, 1] at the monotone rate. arctan(x)/x = F(z) = int dmu(s)/(1 +
        # zs), z = x^2, dmu = ds/(2sqrt(s)) on [0, 1], a Stieltjes function, and depth n of
        # series.cf_arctan is its Pade approximant R = [m-1/m] (n = 2m - 1) or [m/m] (n = 2m)
        # in z (Cuyt et al., ch. 11). The m-point Gauss rule of dmu gives F - [m-1/m] = z^(2m)
        # int q_m(s)^2 dmu(s) / ((1 + zs) prod_i (1 + z s_i)^2), q_m the degree-m orthogonal
        # polynomial of dmu and s_i in (0, 1) its zeros (Baker & Graves-Morris, Pade
        # Approximants, 2nd ed., ch. 5). The integrand's log-derivative in z is (sum_i 2/(1 +
        # z s_i) - zs/(1 + zs))/z, positive for z <= 1, where each 2/(1 + z s_i) >= 1 > zs/(1 +
        # zs). [m/m] follows the same way from F = 1 - zG, G(z) = int s dmu(s)/(1 + zs), with
        # one factor z more. So |F - R| rises with z, and |E| = x|F - R| has d log|E|/dx >=
        # 1/x. cf-lifted's E(x) = 2E_cf(u) at the lift's u, so on [0, inf) its d log|E|/dx >=
        # d log u/dx = 1/(x sqrt(1 + x^2)) >= 1/(x(1 + x)).
        FamilyInfo("cf", "continued fraction", "1/(2·4^n) on [0,1]", "[0,1]", _APPROX, True, 1, "0:1",
                   kernel=series._cf, claim=lambda n: 0.5 * 4.0**-n,
                   fixed=fixedpoint.cf_kernel, monotone=1),
        FamilyInfo("cf-lifted", "continued fraction, lifted", "4^-n", "[0,∞)", _APPROX, True, 1,
                   kernel=series._cf, claim=lambda n: 4.0**-n, lifted=True, fixed=fixedpoint.cf_kernel,
                   monotone=1),
        # the pointwise envelopes of s and t peak at 4^-n. s's |E| rises on (0, 1] at the
        # monotone rate: its rows sum the integrand of arctan u = int_0^g (1 + 2t + 2t^2)/(1 +
        # 4t^4) dt, g = u/(1 + u), as a geometric series in -4t^4, so E_s = -(-4)^(n+1) H(g),
        # H(g) = int_0^g h, h(t) = t^(4n+4)/(1 - 2t + 2t^2) > 0. h rises on [0, 1/2], which
        # holds g, so H <= g*h(g) and d log|E_s|/du >= g'/g = 1/(u(1 + u)). t's E_t(u) =
        # -E_s(v), v = (1 - u)/(1 + u), v' = -2/(1 + u)^2, so d log|E_t|/du <= v'/(v(1 + v)) =
        # -1/(1 - u) <= -1 on [0, 1).
        FamilyInfo("s", "series at x=1", "(√2·u/(u+1))^(4n) pointwise", "[0,1]", _APPROX, True, 0, "0:1",
                   kernel=series._s, claim=lambda n: 4.0**-n, fixed=fixedpoint.s_kernel, monotone=1),
        # no float rule: t's float kernel is pi/4 less a row near pi/4, so near u = 0 it errs by
        # ulps of pi/4, far more than the K-ulp rule allows of arctan u; the fixed tier decides t
        FamilyInfo("t", "series at x=1, reflected", "((1−u)/√2)^(4n) pointwise", "[0,1]", _APPROX, True, 0, "0:1",
                   kernel=series._t, claim=lambda n: 4.0**-n,
                   float_rule=False, fixed=fixedpoint.t_kernel, monotone=-1),
        FamilyInfo("w", "blended series at x=1", "20^-n", "[0,1]", _APPROX, True, 0, "0:1",
                   kernel=series._blend, claim=lambda n: 20.0**-n, fixed=fixedpoint.w_kernel),
        FamilyInfo("w-lifted", "blended series, lifted", "2·20^-n", "[0,∞)", _APPROX, True, 0,
                   kernel=series._blend, claim=lambda n: 2 * 20.0**-n, lifted=True, fixed=fixedpoint.w_kernel),
    )
}


def family_info(ident: str) -> FamilyInfo:
    """The registry row of ident; ValueError for any other value, a list or None too."""
    try:
        return FAMILIES[ident]
    except (KeyError, TypeError):  # TypeError: an unhashable ident
        raise ValueError(f"unknown family {shown(ident)}; see the 'list' command") from None


class Approximant(Frozen):
    """Descriptor of one family instance, callable at either precision.

    Pair families (sf, t2, master) need a side. The evaluator is the row's
    body with its order and lift (and master's parameters and side, which
    master._master_side computes alone) bound once, at construction; the body
    checks x itself. Every row refuses an order outside n_min..MAX_ORDER
    first. Every approximant targets arctan x; cheb's expansion of arctan(m*x)
    is series.cheb_arctan(n, x, m). Approximants compare and hash by family,
    n and side, and every attribute is read-only.

    The registry row's facts at this order are bound at construction too:
    label, the family with its order and side; claim, the registry's uniform
    error bound, None without one; slope, its proved bound on |dE/dx| over the
    row's domain, None without one; monotone, its proved direction of |E| over
    claim_interval, 1 or -1 (see FamilyInfo), 0 for none; and claim_interval,
    the Interval its claims (bound, monotone) apply to.

    rough_error(x) and fixed_error(x, w) are the scan's float and fixed-point
    rules (see ``verify``): (e, b) from the float tier, or a raise, and (m,
    err) in units of 2^-w, an integer kernel at scale 2^w less the oracle's
    fixed arctan, which every row has at every order it takes. sf, t2 and
    master bind both from master, their error series summed in float
    (``master._master_error``) and their side in integers with master's
    constants (``fixedpoint.master_kernel``); a pair row carries no fixed.
    t has no float rule; every other row has the K-ulp rule (ulp_rule) and
    its kernel at the argument its domain implies (``fixedpoint.direct_fixed``).
    """

    __slots__ = ("family", "n", "side", "label", "claim", "slope", "monotone", "claim_interval",
                 "_eval", "_pick", "rough_error", "fixed_error")
    _key_fields = ("family", "n", "side")

    def __init__(self, family: str, n: Optional[int] = None, side: Optional[str] = None):
        info = family_info(family)
        if info.needs_n:  # every row's order range is master's: n_min..MAX_ORDER
            n = require_int(n, f"n of family {family!r}", info.n_min, master.MAX_ORDER)  # a bool as its int
        elif n is not None:
            raise ValueError(f"family {family!r} does not take n")
        if info.kind is BoundKind.TWO_SIDED:
            if side not in ("lower", "upper"):
                raise ValueError(f"family {family!r} needs side 'lower' or 'upper'")
        elif side is not None:
            raise ValueError(f"family {family!r} does not take a side")
        self.family, self.n, self.side = family, n, side
        body = family if n is None else f"{family}(n={n})"
        self.label = f"{body}.{side}" if side else body
        self.claim = None if info.claim is None else info.claim(n)
        self.slope = None if info.slope is None else info.slope(n)
        self.monotone = info.monotone
        self.claim_interval = Interval.parse(info.claim_interval)
        fn = info.kernel if n is None else partial(info.kernel, n)
        pick = side  # __call__ picks the side of sf's and t2's pairs
        if info.kernel is master._master_side:  # master's body forms its side alone
            fn, pick = partial(master._master_side, master.master_params(n), side == "upper"), None
        if info.lifted:  # the lift's __call__, bound: a call skips the instance's slot lookup
            fn = core.LiftedApproximant(fn).__call__
        self._eval, self._pick = fn, pick
        # rough_error and fixed_error at this order, side and lift
        if info.kind is BoundKind.TWO_SIDED:
            order = info.pair_order or n
            args = order, side == master.constant_side(order)
            self.rough_error = partial(master._master_error, *args)
            self.fixed_error = partial(fixedpoint.master_kernel, partial(master._master_constants, *args))
        else:
            # the K-ulp rule reads the evaluator itself, so a float value skips __call__
            self.rough_error = partial(ulp_rule, fn) if info.float_rule else None
            # the kernel takes the lift's u on a row claimed over R+, and u = x on a [0, 1] row
            self.fixed_error = partial(fixedpoint.direct_fixed, info.fixed, self.claim_interval.unbounded, n)

    def __call__(self, x):
        # the side is picked here, not by a wrapper, so a raising kernel's
        # traceback carries no extra frame
        if self._pick is None:
            return self._eval(x)
        return getattr(self._eval(x), self._pick)

    def __reduce__(self):  # copied and pickled by its key, not by its bound evaluator
        return Approximant, self._key(self)


def ulp_rule(f: Callable, x: float):
    """The K-ulp rule, a rough_error for any float kernel f.

    e = f(x) - math.atan(x) and b = K*ulp(arctan x), K = FLOAT_ULPS. It rests
    on f's float value lying within K/4 ulp of arctan x of its mpf value, which
    tests/test_families.py checks over every double for each row on this
    rule, and on math.atan lying within one ulp of arctan x
    (tests/test_tails.py). Over every double, tests/test_tails.py checks the
    budget the scan builds from it. It is the float rule of t4, lagrange, t5,
    cheb, cheb-lifted, cf, cf-lifted, s, w and w-lifted, whose f is the row's
    evaluator: its body, which passes a float in its domain after one comparison.
    """
    atan = math.atan(x)
    return f(x) - atan, FLOAT_ULPS * math.ulp(atan)


def table_entry(ident: str, n: Optional[int]):
    """(approximant, claimed_bound, row kind) for one certification-table row.

    Approximation families report their claimed uniform bound. Two-sided
    families report the error of the best-constant side, the one whose
    constant is g_n(pi/2): exact at both ends of the domain, with sup error
    below (k_high - k_low)*(pi/2)/k_low, which shrinks like 4^-n. The
    one-sided upper bound carries no uniform claim.
    """
    info = family_info(ident)
    if info.kind is not BoundKind.TWO_SIDED:
        approx = Approximant(ident, n=n)
        return approx, approx.claim, info.kind
    order = info.pair_order or n
    params = master.master_params(order)
    claim = float(params.k_high - params.k_low) * (math.pi / 2) / float(params.k_low)
    return Approximant(ident, n=n, side=master.constant_side(order)), claim, BoundKind.APPROXIMATION


def list_rows() -> list:
    """One formatted line per family: ident, reference, claimed bound, domain."""
    rows = []
    for info in FAMILIES.values():
        rows.append(f"{info.ident:<12}  {info.reference:<28}  {info.bound_text:<44}  {info.domain_text}")
    return rows
