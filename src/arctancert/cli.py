"""Command-line front end.

Subcommands: ``list`` (family metadata), ``eval`` (evaluate one family at a
point against the oracle), ``certify`` (run a bound/sup-norm certification),
``table`` (CSV error table over families and orders), ``pi`` (Machin-series
pi against the oracle's, 4*arctan 1 from its centre table: two routes that
share no code).

Exit codes: 0 all certifications satisfied (for ``eval``: every value
finite), 1 at least one violated (for ``eval``: a value not finite), 2 usage
or I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

from mpmath import mp

from .families import Approximant, FAMILIES, family_info, list_rows, table_entry
from .master import MAX_ORDER
from .numerics import LONG_TEXT, require_int, shown
from .series import cheb_arctan, machin_pi
from .verify import (
    BoundKind,
    DEFAULT_GRID,
    ErrorReport,
    Interval,
    certify_bound,
    default_config,
    oracle_arctan,
    oracle_pi,
    sup_error,
)

CSV_HEADER = "family,n,interval,sup_error,arg_max,claimed_bound,satisfied"

# the bound directions a family of each kind is checked for
_SIDES = {BoundKind.TWO_SIDED: ("lower", "upper"), BoundKind.UPPER: ("upper",)}


def _sci(v: float) -> str:
    return f"{v:.16e}"


def _opt(v) -> str:
    return "" if v is None else _sci(v)


def _flag(b: bool) -> str:
    return "true" if b else "false"


def _signed_oracle(x: float, cfg):
    if x < 0:
        return -oracle_arctan(-x, cfg)
    return oracle_arctan(x, cfg)


def _side_approximants(ident: str, n, kind=None):
    # (side, check kind, Approximant) per direction to check: kind, else each of _SIDES,
    # else one (None, APPROXIMATION, ...) checked against the family's claim
    info = family_info(ident)
    for side in (kind,) if kind else _SIDES.get(info.kind, (None,)):
        approx = Approximant(ident, n=n, side=side if info.kind is BoundKind.TWO_SIDED else None)
        yield side, BoundKind(side or "approximation"), approx


def _check(approx: Approximant, claim, kind: BoundKind, interval: Interval, grid: int, cfg) -> ErrorReport:
    # the one dispatch: an approximation goes to sup_error against claim, a bound direction to certify_bound
    if kind is BoundKind.APPROXIMATION:
        return sup_error(approx, interval, grid, cfg=cfg, claimed_bound=claim)
    return certify_bound(approx, kind, interval, grid, cfg=cfg)


def _parse_params(ident: str, items) -> dict:
    # m scales cheb's expansion to arctan(m*x), which eval compares with its own oracle
    out = {}
    for item in items or ():
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"parameter must look like key=value, got {shown(item)}")
        if key != "m":
            raise ValueError(f"unknown parameter {shown(key)} (supported: m)")
        if ident != "cheb":
            raise ValueError("parameter m only applies to family 'cheb'")
        if key in out:
            raise ValueError(f"parameter {key!r} given more than once")
        try:
            out["m"] = float(val)
        except ValueError:
            raise ValueError(f"parameter m must be a number, got {shown(val)}") from None
    return out


def cmd_list(args) -> int:
    for row in list_rows():
        print(row)
    return 0


def cmd_eval(args) -> int:
    ident = args.family
    m = _parse_params(ident, args.param).get("m")
    cfg = default_config()
    x = args.x
    if isinstance(x, str):  # refused by float() and too long to quote (_number)
        raise ValueError(f"--x must be a number, got {shown(x)}")

    rows = []  # (side, value, target oracle)
    for side, _, approx in _side_approximants(ident, args.n):
        value = approx(x) if m is None else cheb_arctan(args.n, x, m)  # names a bad m before the oracle does
        rows.append((side or "", value, float(_signed_oracle(x if m is None else m * x, cfg))))

    if args.format == "csv":
        print("family,n,x,side,value,oracle,signed_error")
        for side, value, ref in rows:
            n_txt = "" if args.n is None else str(args.n)
            print(f"{ident},{n_txt},{_sci(x)},{side},{_sci(value)},{_sci(ref)},{_sci(value - ref)}")
    else:
        print(f"family  {ident}" + (f"  n={args.n}" if args.n is not None else ""))
        print(f"x       {x:.17g}")
        print(f"oracle  {rows[0][2]:.17g}")
        for side, value, ref in rows:
            tag = f"{side:<6}" if side else "value "
            print(f"{tag}  {value:.17g}   error {value - ref:+.6e}")
    bad = [side or "value" for side, value, _ in rows if not math.isfinite(value)]
    if bad:
        print(f"error: {ident} returned a non-finite {' and '.join(bad)} at x = {x!r}", file=sys.stderr)
        return 1
    return 0


def _print_report(r: ErrorReport, grid: int) -> None:
    print(f"family       {r.family}")
    print(f"interval     {r.interval}")
    print(f"kind         {r.bound_kind.value}")
    print(f"grid         {grid}")
    print(f"sup_error    {_sci(r.sup_error)}  at x = {r.arg_max:.17g}")
    if r.claimed_bound is not None:
        print(f"claimed      {_sci(r.claimed_bound)}")
    if not math.isnan(r.min_gap):
        print(f"min_gap      {_sci(r.min_gap)}")
    print(
        f"evals        {r.evals_float} float, {r.evals_mpf} mpf ({r.search_mpf} in search), "
        f"{r.settle_fixed + r.search_fixed} fixed ({r.search_fixed} in search), "
        f"{r.refined} refined ({r.pruned} pruned), {r.oracle_cold} oracle cold"
    )
    print(f"satisfied    {_flag(r.satisfied)}")


def cmd_certify(args) -> int:
    ident = args.family
    interval = Interval.parse(args.interval)
    cfg = default_config()

    reports = []
    for _, kind, approx in _side_approximants(ident, args.n, args.kind):
        reports.append(_check(approx, approx.claim, kind, interval, args.grid, cfg))

    if args.format == "csv":
        print(CSV_HEADER)
        for r in reports:
            print(_csv_row(ident, args.n, r))
    else:
        for i, r in enumerate(reports):
            if i:
                print()
            _print_report(r, args.grid)
    return 0 if all(r.satisfied for r in reports) else 1


def _parse_family_specs(text: str) -> list:
    # the (ident, n) rows of a --families value, each item checked here, in the table's order: by
    # family, then order, duplicates kept. Each range's ends are checked against an Approximant's
    # orders, n_min..MAX_ORDER, so a bad order is refused before any row runs
    rows = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        ident, sep, rng = item.partition(":")
        info = family_info(ident)
        if not sep:
            if info.needs_n:
                raise ValueError(f"family {ident!r} needs an order: use {ident}:a..b")
            rows.append((ident, None))
            continue
        if not info.needs_n:
            raise ValueError(f"family {ident!r} does not take an order range")
        lo, sep2, hi = rng.partition("..")
        try:
            a = int(lo)
            b = int(hi) if sep2 else a
        except ValueError:
            raise ValueError(f"bad order range {shown(rng)} in {shown(item)}") from None
        if b < a:
            raise ValueError(f"empty order range {shown(rng)}")
        for end in (a, b):
            require_int(end, f"n of family {ident!r}", info.n_min, MAX_ORDER)
        rows += ((ident, n) for n in range(a, b + 1))
    if not rows:
        raise ValueError("no families given")
    return sorted(rows)  # a family's rows all have an order, or all None


def _csv_row(ident: str, n, r: ErrorReport) -> str:
    n_txt = "" if n is None else str(n)
    return ",".join(
        (
            ident,
            n_txt,
            str(r.interval),
            _sci(r.sup_error),
            _sci(r.arg_max),
            _opt(r.claimed_bound),
            _flag(r.satisfied),
        )
    )


def cmd_table(args) -> int:
    specs = _parse_family_specs(args.families)
    shared = Interval.parse(args.interval) if args.interval else None
    cfg = default_config()

    rows = []
    ok = True
    for ident, n in specs:
        approx, claim, kind = table_entry(ident, n)
        # without an explicit interval each family is measured where its claim holds; an
        # UPPER row has no uniform claim, and its verdict is the direction check
        report = _check(approx, claim, kind, shared or approx.claim_interval, args.grid, cfg)
        ok = ok and report.satisfied
        rows.append(_csv_row(ident, n, report))

    payload = "\n".join([CSV_HEADER, *rows]) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if ok else 1


def cmd_pi(args) -> int:
    cfg = default_config()
    require_int(args.digits, "--digits", 1, cfg.report_digits)
    value = machin_pi(args.terms, dps=cfg.working_digits)
    with mp.workdps(cfg.working_digits):
        err = abs(value - oracle_pi(cfg))
        print(f"pi({args.digits} digits, {args.terms} terms) = {mp.nstr(value, args.digits)}")
        print(f"abs error vs oracle pi: {mp.nstr(err, 3)}")
    return 0


def _number(kind):
    # argparse's type=int or type=float, except that a refused value too long to quote stays
    # text: the command (require_int, for an int) then names it by its length, with no usage lines
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            if len(text) > LONG_TEXT:
                return text
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None

    return parse


_int = _number(int)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arctancert",
        description="Evaluate arctangent approximation families and certify their error bounds.",
    )
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("list", help="list families, references, claimed bounds, domains")
    sp.set_defaults(func=cmd_list)

    # family_info checks --family, and its list is in --help
    family_help = "one of: " + ", ".join(sorted(FAMILIES))
    sp = sub.add_parser("eval", help="evaluate one family at a point")
    sp.add_argument("--family", required=True, help=family_help)
    sp.add_argument("--n", type=_int)
    sp.add_argument("--x", type=_number(float), required=True)
    sp.add_argument("--param", action="append", metavar="KEY=VALUE")
    sp.add_argument("--format", choices=("text", "csv"), default="text")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("certify", help="certify a bound direction or sup-norm claim")
    sp.add_argument("--family", required=True, help=family_help)
    sp.add_argument("--n", type=_int)
    sp.add_argument("--interval", required=True, metavar="LO:HI")
    sp.add_argument("--kind", choices=("lower", "upper"))
    sp.add_argument("--grid", type=_int, default=DEFAULT_GRID)
    sp.add_argument("--format", choices=("text", "csv"), default="text")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("table", help="emit a CSV error table")
    sp.add_argument("--families", required=True, metavar="FAM[:A..B][,...]")
    sp.add_argument("--interval", metavar="LO:HI", help="shared interval (default: each family's claim domain)")
    sp.add_argument("--grid", type=_int, default=DEFAULT_GRID)
    sp.add_argument("--output", metavar="PATH")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("pi", help="Machin-series pi against the oracle's independent 4*arctan(1)")
    sp.add_argument("--terms", type=_int, default=12)
    sp.add_argument("--digits", type=_int, default=30)
    sp.set_defaults(func=cmd_pi)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
