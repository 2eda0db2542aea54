import hashlib
import math
import re
import tracemalloc

import pytest

from arctancert import cli, verify
from arctancert.cli import CSV_HEADER, main
from arctancert.verify import BoundKind


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_rows(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    master_row = next(l for l in lines if l.startswith("master"))
    assert "Theorem 3" in master_row
    assert "K_high−K_low < 4^-n" in master_row
    assert "[0,∞)" in master_row
    cf_row = next(l for l in lines if l.startswith("cf "))
    assert "continued fraction" in cf_row
    assert "1/(2·4^n) on [0,1]" in cf_row


def test_eval_sf(capsys):
    code, out, _ = run(capsys, "eval", "--family", "sf", "--x", "1")
    assert code == 0
    assert "0.78361162489122" in out  # lower
    assert "0.82059617467527" in out  # upper
    assert "0.78539816339744" in out  # oracle


def test_eval_cf(capsys):
    code, out, _ = run(capsys, "eval", "--family", "cf", "--n", "2", "--x", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,x,side,value,oracle,signed_error"
    value = float(lines[1].split(",")[4])
    assert value == pytest.approx(19 / 24, rel=1e-15)


def test_eval_master_matches_t2(capsys):
    code, out_master, _ = run(
        capsys, "eval", "--family", "master", "--n", "2", "--x", "1", "--format", "csv"
    )
    assert code == 0
    code, out_t2, _ = run(capsys, "eval", "--family", "t2", "--x", "1", "--format", "csv")
    assert code == 0
    vals_master = [float(line.split(",")[4]) for line in out_master.strip().splitlines()[1:]]
    vals_t2 = [float(line.split(",")[4]) for line in out_t2.strip().splitlines()[1:]]
    # the two routes round differently: a few ulp apart, not bit for bit
    assert len(vals_master) == len(vals_t2) == 2
    for m, t in zip(vals_master, vals_t2):
        assert abs(m - t) <= 8 * math.ulp(t)


def test_eval_scaled_cheb(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--family", "cheb", "--n", "8", "--x", "0.5", "--param", "m=2", "--format", "csv",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(math.atan(1.0), abs=1e-5)
    assert float(row[5]) == pytest.approx(math.atan(1.0), abs=1e-20)
    # x = 1 closes the scaled domain as it does the plain one
    code, out, _ = run(
        capsys, "eval", "--family", "cheb", "--n", "8", "--x", "1", "--param", "m=2", "--format", "csv"
    )
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[4]) == pytest.approx(math.atan(2.0), abs=2e-5)


def test_eval_non_finite_value_exits_1(capsys, monkeypatch):
    nan_kernel = cli.FAMILIES["t4"]._replace(kernel=lambda x: math.nan)
    monkeypatch.setitem(cli.FAMILIES, "t4", nan_kernel)
    code, out, err = run(capsys, "eval", "--family", "t4", "--x", "2")
    assert code == 1
    assert "nan" in out and "non-finite" in err


def test_eval_negative_x_uses_odd_symmetry(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "cheb", "--n", "6", "--x", "-0.5", "--format", "csv"
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(-math.atan(0.5), abs=1e-15)
    assert float(row[4]) < 0


def test_eval_usage_errors(capsys):
    assert run(capsys, "eval", "--family", "nope", "--x", "1")[0] == 2
    assert run(capsys, "eval", "--family", "sf", "--n", "2", "--x", "1")[0] == 2
    assert run(capsys, "eval", "--family", "master", "--x", "1")[0] == 2
    assert run(capsys, "eval", "--family", "cheb", "--n", "2", "--x", "0.5", "--param", "q=1")[0] == 2
    assert run(capsys, "eval", "--family", "cheb", "--n", "2", "--x", "0.5", "--param", "m2")[0] == 2
    code, _, err = run(capsys, "eval", "--family", "lagrange", "--x", "3")
    assert code == 2 and "error" in err
    # the kernel names a bad m before the oracle is asked for arctan(m*x)
    code, out, err = run(capsys, "eval", "--family", "cheb", "--n", "3", "--x", "0.5", "--param", "m=nan")
    assert (code, out, err) == (2, "", "error: m must be finite, got nan\n")
    # every row's orders are master's, n_min..16: an order past them is refused before any kernel runs
    for ident, n, lo in (("cf", "17", 1), ("cheb", "17", 0), ("cf", "1000000000", 1)):
        code, out, err = run(capsys, "eval", "--family", ident, "--n", n, "--x", "0.5")
        assert (code, out, err) == (2, "", f"error: n of family '{ident}' must be an integer in [{lo}, 16], got {n}\n")


def test_eval_refuses_a_float_past_the_kernel_range(capsys):
    # eval takes x as a float, so the refusal names the float range and offers no mpf
    code, out, err = run(capsys, "eval", "--family", "cf", "--n", "2", "--x", "1e200")
    assert code == 2 and out == ""
    assert err == "error: n^2*x^2 lies beyond the float range at n = 2, x = 1e+200\n"


def test_eval_rejects_m_outside_cheb(capsys):
    # m scales cheb only; elsewhere it is a usage error, never silently ignored
    code, _, err = run(capsys, "eval", "--family", "sf", "--x", "0.5", "--param", "m=2")
    assert code == 2 and "m only applies" in err
    assert run(capsys, "eval", "--family", "cf", "--n", "2", "--x", "0.5", "--param", "m=2")[0] == 2
    assert run(capsys, "eval", "--family", "cheb", "--n", "2", "--x", "0.5", "--param", "m=inf")[0] == 2
    # a repeated key is refused, not overridden by the last one
    code, _, err = run(capsys, "eval", "--family", "cheb", "--n", "8", "--x", "0.5", "--param", "m=2", "--param", "m=3")
    assert code == 2 and "more than once" in err


def test_certify_w(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--family", "w", "--n", "3", "--interval", "0:1",
        "--grid", "257", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    row = lines[1].split(",")
    assert float(row[3]) <= 1.25e-4
    assert row[6] == "true"


def test_certify_t5(capsys):
    code, out, _ = run(
        capsys, "certify", "--family", "t5", "--interval", "0:inf", "--grid", "257"
    )
    assert code == 0
    assert "satisfied    true" in out


def _evals(capsys, *args):
    # the eight counts of certify's evals line at grid 129
    code, out, _ = run(capsys, "certify", *args, "--grid", "129")
    assert code == 0
    (line,) = [l for l in out.splitlines() if l.startswith("evals")]
    words = line.replace(",", " ").replace("(", " ").split()
    return [int(w) for w in words if w.isdigit()]


def test_certify_reports_evaluations_per_precision(capsys):
    counts = _evals(capsys, "--family", "w", "--n", "2", "--interval", "0:1")
    n_float, n_mpf, n_search, n_fixed, n_search_fixed, n_refined, n_pruned, n_cold = counts
    assert n_float > 0
    assert 1 <= n_refined <= 3  # golden-section searches, one per refined local maximum
    # w has no bound on |E'| and no monotone |E|, its maximum lying inside [0, 1], so no
    # search stops early
    assert n_pruned == 0
    # w's float rule is the K-ulp one, and its fixed-point rule the kernel in integers:
    # every comparison the float budgets leave open is decided in fixed point, and the
    # settled points and the search's final value are read from their fixed-point
    # enclosures, so nothing is evaluated at mpf
    assert n_mpf == n_search == 0
    assert n_fixed > n_search_fixed > 0
    assert n_cold <= 129 * 2 + n_float + n_mpf  # each cold oracle value is a grid point's or an evaluation's


def test_certify_skips_the_end_search_of_a_monotone_row(capsys):
    # cf's |E| rises on [0, 1], so its one local maximum is the grid point x = 1, which alone
    # is evaluated, once in fixed point: one search started, and skipped. On 0:1.2, past the
    # interval its |E| is proved monotone on, the whole grid is scanned
    counts = _evals(capsys, "--family", "cf", "--n", "2", "--interval", "0:1")
    n_float, n_mpf, n_search, n_fixed, n_search_fixed, n_refined, n_pruned, n_cold = counts
    assert (n_refined, n_pruned, n_fixed) == (1, 1, 1)
    assert n_float == n_mpf == n_search == n_search_fixed == 0
    n_float, *_, n_pruned, _ = _evals(capsys, "--family", "cf", "--n", "2", "--interval", "0:1.2")
    assert n_float > 0 and n_pruned == 0


def test_certify_sf_upper_kind(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--family", "sf", "--interval", "0:inf", "--kind", "upper", "--grid", "257",
    )
    assert code == 0
    assert "min_gap" in out


def test_certify_two_sided_runs_both(capsys):
    code, out, _ = run(
        capsys, "certify", "--family", "master", "--n", "3", "--interval", "0:1000", "--grid", "129"
    )
    assert code == 0
    assert out.count("satisfied    true") == 2


def test_certify_wrong_direction_exits_1(capsys):
    code, out, _ = run(
        capsys,
        "certify", "--family", "s", "--n", "2", "--interval", "0:1",
        "--kind", "lower", "--grid", "129",
    )
    assert code == 1
    assert "satisfied    false" in out


def test_certify_usage_errors(capsys, monkeypatch):
    assert run(capsys, "certify", "--family", "sf", "--interval", "1:0")[0] == 2
    assert run(capsys, "certify", "--family", "sf", "--interval", "junk")[0] == 2
    assert run(capsys, "certify", "--family", "w", "--interval", "0:1")[0] == 2  # missing n
    # past the unbounded grid's top, about 1e8, rather than a verdict on points below lo
    assert run(capsys, "certify", "--family", "t5", "--interval", "1e12:inf", "--grid", "65")[0] == 2
    # a written endpoint past the float range, rather than an unbounded interval
    assert run(capsys, "certify", "--family", "t5", "--interval", "0:1e400", "--grid", "65")[0] == 2
    # an order past any index, whose claim has no float, rather than an OverflowError
    assert run(capsys, "certify", "--family", "cf", "--n", str(10**400), "--interval", "0:1", "--grid", "65")[0] == 2
    # and an order past MAX_ORDER = 16, which every row refuses as master does, before any scan
    for ident, n, lo in (("cf", "17", 1), ("cheb", "17", 0), ("cf", "1000000000", 1)):
        code, out, err = run(capsys, "certify", "--family", ident, "--n", n, "--interval", "0:1", "--grid", "65")
        assert (code, out, err) == (2, "", f"error: n of family '{ident}' must be an integer in [{lo}, 16], got {n}\n")
    # so are working digits past sys.maxsize, which dps_to_prec's float would overflow
    monkeypatch.setenv("ARCTAN_CERT_DIGITS", str(10**400))
    assert run(capsys, "certify", "--family", "cf", "--n", "3", "--interval", "0:1", "--grid", "65")[0] == 2


def test_table_master_orders(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _, _ = run(
        capsys,
        "table", "--families", "master:1..4", "--interval", "0:inf",
        "--grid", "257", "--output", str(out_path),
    )
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    sups = [float(l.split(",")[3]) for l in lines[1:]]
    for a, b in zip(sups, sups[1:]):
        assert b < a / 2  # roughly 4x decay per order
    assert all(l.split(",")[6] == "true" for l in lines[1:])
    # deterministic across runs
    code, _, _ = run(
        capsys,
        "table", "--families", "master:1..4", "--interval", "0:inf",
        "--grid", "257", "--output", str(out_path) + ".again",
    )
    assert code == 0
    assert (tmp_path / "table.csv.again").read_text(encoding="utf-8") == text


def test_table_mixed_families_sorted(capsys):
    code, out, _ = run(
        capsys,
        "table", "--families", "w:2..3,cf:1..2", "--interval", "0:1", "--grid", "129",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["cf", "cf", "w", "w"]
    assert [l.split(",")[1] for l in lines[1:]] == ["1", "2", "2", "3"]


def test_table_defaults_to_claim_domains(capsys):
    code, out, _ = run(capsys, "table", "--families", "cf:2..2,cf-lifted:2..2", "--grid", "129")
    assert code == 0
    lines = out.strip().splitlines()
    by_family = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    assert by_family["cf"][2] == "0:1"
    assert by_family["cf-lifted"][2] == "0:inf"
    assert by_family["cf"][6] == by_family["cf-lifted"][6] == "true"


STANDARD_TABLE = (
    "sf,t2,t4,master:1..6,lagrange,t5,cheb:0..8,cheb-lifted:1..8,"
    "cf:1..8,cf-lifted:1..8,w:0..6,w-lifted:0..6"
)


def test_standard_table_csv_unchanged_at_grid_65(monkeypatch, capsys):
    # the 58-row table's CSV must stay byte-identical across changes
    monkeypatch.delenv("ARCTAN_CERT_DIGITS", raising=False)
    code, out, _ = run(capsys, "table", "--families", STANDARD_TABLE, "--grid", "65")
    assert code == 0
    assert len(out.splitlines()) == 59
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5184cafddaa191266164da64c30ef477c0d90159b31482aabacb99ac300ffc6a"


def test_standard_table_evaluation_totals_at_grid_65(monkeypatch, capsys):
    # the grid-65 table's evaluations, summed over its 58 reports: float evaluations, mpf
    # evaluations and of them the golden-section ones, search probes and final values in
    # fixed point, searches started, grid points settled in fixed point alone, and
    # searches stopped or skipped because a proved bound on |E'|, or a proved monotone
    # |E|, shows they cannot beat the best value: 35 by the slope, and 16 at the grid end
    # of cf n = 1..8 (x = 1) and cf-lifted n = 1..8 (near 1e8). Those 16 rows evaluate
    # their end alone, settled in fixed point, and make none of the 1,296 float
    # evaluations of their grids (97 points on 0:1, 65 on 0:inf). An all-mpf scan would
    # make 9,574 mpf evaluations; here the float and fixed-point tiers decide every point,
    # so the table makes none. The counts are deterministic, so all seven totals are
    # pinned: a count, not a timing
    reports = []
    for name in ("sup_error", "certify_bound"):
        real = getattr(cli, name)

        def keep(*args, _real=real, **kwargs):
            reports.append(_real(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, name, keep)
    monkeypatch.delenv("ARCTAN_CERT_DIGITS", raising=False)
    assert run(capsys, "table", "--families", STANDARD_TABLE, "--grid", "65")[0] == 0
    assert len(reports) == 58
    names = ("evals_float", "evals_mpf", "search_mpf", "search_fixed", "refined", "settle_fixed", "pruned")
    totals = [sum(getattr(r, name) for r in reports) for name in names]
    assert totals == [4407, 0, 0, 1603, 92, 119, 51]


def _report_text(r) -> str:
    # every ErrorReport field, in order, as text that Python 3.10-3.12 all print alike:
    # a float by float.hex, the interval by str, the kind by its value, the label, a
    # count, satisfied and a missing claim by str
    def text(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, BoundKind):
            return v.value
        return str(v)

    return ",".join(map(text, r)) + "\n"


@pytest.mark.parametrize(
    "grid, digest",
    [
        (65, "013025a528e4a9c6cb7f8ab6caed1ca5b24e6a71a616d866db616143b3a028b5"),
        (4097, "f3145c0c6f71e238137e312f417e86a6800703b00a4b0f501ed708e04bcfb3a0"),
    ],
)
def test_standard_table_reports_unchanged(monkeypatch, grid, digest):
    # every field of the 58 rows' reports, counts included, built as cmd_table builds them.
    # oracle_cold counts the oracle's cache misses, so the cache starts empty, as in a new
    # process
    monkeypatch.delenv("ARCTAN_CERT_DIGITS", raising=False)
    cfg = cli.default_config()
    verify._oracle_cached.cache_clear()
    text = ""
    for ident, n in cli._parse_family_specs(STANDARD_TABLE):
        approx, claim, kind = cli.table_entry(ident, n)
        text += _report_text(cli._check(approx, claim, kind, approx.claim_interval, grid, cfg))
    assert text.count("\n") == 58
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_table_usage_errors(tmp_path, capsys):
    assert run(capsys, "table", "--families", "", "--grid", "129")[0] == 2
    assert run(capsys, "table", "--families", "w", "--grid", "129")[0] == 2  # w needs a range
    assert run(capsys, "table", "--families", "sf:1..2", "--grid", "129")[0] == 2
    assert run(capsys, "table", "--families", "cf:a..b", "--grid", "129")[0] == 2
    assert run(capsys, "table", "--families", "cf:3..1", "--grid", "129")[0] == 2
    # a range past MAX_ORDER is refused whole, before its first row runs
    for spec, bad in (("cheb:0..17", "'cheb' must be an integer in [0, 16], got 17"),
                      ("cf:1..999999999999", "'cf' must be an integer in [1, 16], got 999999999999")):
        assert run(capsys, "table", "--families", spec, "--grid", "129") == (2, "", f"error: n of family {bad}\n")
    code, _, err = run(capsys, "table", "--families", "nosuch", "--grid", "129")
    assert code == 2 and "unknown family 'nosuch'; see the 'list' command" in err
    code, _, err = run(
        capsys,
        "table", "--families", "cf:1..1", "--grid", "129",
        "--output", str(tmp_path / "nodir" / "x.csv"),
    )
    assert code == 2 and "error" in err


def test_an_order_range_is_never_expanded_whole(capsys):
    # a 12-digit range is refused by its ends, past MAX_ORDER, allocating a few KB where a list
    # of the range would exhaust memory; the table command refuses it before any row runs
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^n of family 'cf' must be an integer in \[1, 16\], got 999999999999$"):
            cli._parse_family_specs("sf,cf:1..999999999999,t4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000, peak
    assert run(capsys, "table", "--families", "sf,cf:1..999999999999,t4", "--grid", "65")[:2] == (2, "")


def test_family_specs_come_in_the_tables_row_order():
    # by family, then by order, a family without one first; duplicates kept
    text = "w:3..5,cf:2..4,sf,w:0..3, cf:3,t4,sf,cheb:2"
    want = [("cf", 2), ("cf", 3), ("cf", 3), ("cf", 4), ("cheb", 2), ("sf", None), ("sf", None), ("t4", None),
            ("w", 0), ("w", 1), ("w", 2), ("w", 3), ("w", 3), ("w", 4), ("w", 5)]
    assert cli._parse_family_specs(text) == want


def test_pi_command(capsys):
    code, out, _ = run(capsys, "pi", "--terms", "10", "--digits", "20")
    assert code == 0
    assert "3.1415926535897932385" in out
    code, out, _ = run(capsys, "pi", "--terms", "12", "--digits", "30")
    assert code == 0
    assert "3.14159265358979323846264338328" in out


def test_pi_usage_errors(capsys):
    assert run(capsys, "pi", "--terms", "0")[0] == 2
    # a count of 401 digits is named by its size, not echoed
    code, _, err = run(capsys, "pi", "--terms", str(10**400))
    assert code == 2 and err == "error: terms must be an integer <= sys.maxsize, got an integer of 1329 bits\n"
    assert run(capsys, "pi", "--digits", "99")[0] == 2


_LONG = "1" + "0" * 5000  # an integer too long for int(), and for a message to quote
_XS = "x" * 5000  # a text that no option reads, too long to quote


@pytest.mark.parametrize(
    "argv",
    [("pi", "--terms", _LONG), ("pi", "--digits", _LONG), ("eval", "--family", "cf", "--n", _LONG, "--x", "0.5"),
     ("certify", "--family", "cf", "--n", _LONG, "--interval", "0:1"),
     ("certify", "--family", "cf", "--n", "3", "--interval", "0:1", "--grid", _LONG),
     ("table", "--families", "cf:1..2", "--grid", _LONG), ("table", "--families", "cf:1.." + "9" * 5000),
     ("ARCTAN_CERT_DIGITS", "1" * 5000),
     ("certify", "--family", _XS, "--interval", "0:1"), ("certify", "--family", "cf", "--n", "3", "--interval", _XS),
     ("certify", "--family", "cf", "--n", "3", "--interval", "0:" + _XS),
     ("eval", "--family", "cf", "--n", "3", "--x", _XS),
     ("eval", "--family", "cheb", "--n", "3", "--x", "0.5", "--param", "m=" + _XS)],
    ids=["pi-terms", "pi-digits", "eval-n", "certify-n", "certify-grid", "table-grid", "table-families", "env-digits",
         "certify-family", "certify-interval", "certify-interval-hi", "eval-x", "eval-param"],
)
def test_a_usage_error_names_a_huge_argument_by_its_length(capsys, monkeypatch, argv):
    # refused, with a message that neither echoes the argument nor prints argparse's usage lines
    if argv[0] == "ARCTAN_CERT_DIGITS":
        monkeypatch.setenv(*argv)
        argv = ("certify", "--family", "cf", "--n", "3", "--interval", "0:1", "--grid", "65")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and len(err.encode()) < 200
    # an unknown family's message keeps its pointer to the 'list' command after the length
    tail = "; see the 'list' command\n" if argv[1:3] == ("--family", _XS) else "\n"
    assert err.startswith("error: ") and err.endswith(" characters" + tail), err


def test_a_short_refused_int_keeps_argparse_message(capsys):
    code, _, err = run(capsys, "certify", "--family", "cf", "--n", "lots", "--interval", "0:1")
    assert code == 2 and err.startswith("usage: ")
    assert err.endswith("arctancert certify: error: argument --n: invalid int value: 'lots'\n")


def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# `certify` output at grid 65 as recorded before the sup_error/certify_bound scan
# bodies were merged, with the evals lines recorded again once the series families'
# float errors came from their tails (w's counts moved, and every line gained the
# search probes), once every interval was closed (each 0:1 and 0:1000 grid gained
# x = 0, where master's upper margin is 0), and once the search gained its fixed-point
# tier (every line gained the fixed probes; w's search moved 23 of its 24 mpf probes
# there, and only its final value stays at mpf), and once settled points and final
# values came from their fixed-point enclosures (each fixed count gained them; what
# stays at mpf is a margin whose enclosure holds a double: sf.lower's 5.6e-43 near
# x = 1e-8, master's 0 at x = 0), and once the evals line gained the searches stopped
# early, `(N pruned)`, 0 on each of these rows, and once the fixed count gained each search's
# final value (w's `24 fixed (23 in search)` became `25 fixed (24 in search)`) and master's
# constant side took x = 0 in float (its float bounds there show that x = 0 holds the
# smallest margin, so x = 1000 is no longer settled: `2 fixed` became `1 fixed`), and
# once w left its float tail for the K-ulp rule, whose wider budget leaves more of its
# search's comparisons to the fixed-point tier (`128 float ... 25 fixed (24 in search)`
# became `111 float ... 42 fixed (41 in search)`). lagrange and t5, recorded before their
# fixed kernels took floored integer steps, pin the fixed tier's closed forms:
# (arguments after --family, exit code, CSV output, text output)
CERTIFY_GOLDEN = [
    (
        "sf --interval 0:inf",
        0,
        """\
family,n,interval,sup_error,arg_max,claimed_bound,satisfied
sf,,0:inf,7.0796324294896656e-02,9.9999999995423689e+07,,true
sf,,0:inf,4.1159107999168422e-02,1.8708683949138323e+00,,true
""",
        """\
family       sf.lower
interval     0:inf
kind         lower
grid         65
sup_error    7.0796324294896656e-02  at x = 99999999.995423689
min_gap      5.5555555555555551e-43
evals        65 float, 1 mpf (0 in search), 1 fixed (0 in search), 0 refined (0 pruned), 1 oracle cold
satisfied    true

family       sf.upper
interval     0:inf
kind         upper
grid         65
sup_error    4.1159107999168422e-02  at x = 1.8708683949138323
min_gap      4.7197551196597744e-10
evals        65 float, 0 mpf (0 in search), 2 fixed (0 in search), 0 refined (0 pruned), 0 oracle cold
satisfied    true
""",
    ),
    (
        "t4 --interval 0:inf",
        0,
        """\
family,n,interval,sup_error,arg_max,claimed_bound,satisfied
t4,,0:inf,3.1055780725045341e-02,4.7296478124498853e-01,,true
""",
        """\
family       t4
interval     0:inf
kind         upper
grid         65
sup_error    3.1055780725045341e-02  at x = 0.47296478124498853
min_gap      4.7571149937668428e-18
evals        65 float, 0 mpf (0 in search), 2 fixed (0 in search), 0 refined (0 pruned), 0 oracle cold
satisfied    true
""",
    ),
    (
        "lagrange --interval 0:1",
        0,
        """\
family,n,interval,sup_error,arg_max,claimed_bound,satisfied
lagrange,,0:1,4.3299841293913391e-03,1.5677702546291636e-01,4.3478260869565218e-03,true
""",
        """\
family       lagrange
interval     0:1
kind         approximation
grid         65
sup_error    4.3299841293913391e-03  at x = 0.15677702546291636
claimed      4.3478260869565218e-03
min_gap      1.7841957565182540e-05
evals        127 float, 0 mpf (0 in search), 39 fixed (31 in search), 2 refined (1 pruned), 0 oracle cold
satisfied    true
""",
    ),
    (
        "t5 --interval 0:inf",
        0,
        """\
family,n,interval,sup_error,arg_max,claimed_bound,satisfied
t5,,0:inf,8.6599682587826781e-03,3.2145510749300665e-01,8.6956521739130436e-03,true
""",
        """\
family       t5
interval     0:inf
kind         approximation
grid         65
sup_error    8.6599682587826781e-03  at x = 0.32145510749300665
claimed      8.6956521739130436e-03
min_gap      3.5683915130365079e-05
evals        100 float, 0 mpf (0 in search), 34 fixed (32 in search), 2 refined (1 pruned), 0 oracle cold
satisfied    true
""",
    ),
    (
        "w --n 3 --interval 0:1",
        0,
        """\
family,n,interval,sup_error,arg_max,claimed_bound,satisfied
w,3,0:1,1.0556642653591596e-07,4.9169510609570283e-01,1.2500000000000000e-04,true
""",
        """\
family       w(n=3)
interval     0:1
kind         approximation
grid         65
sup_error    1.0556642653591596e-07  at x = 0.49169510609570283
claimed      1.2500000000000000e-04
min_gap      1.2489443357346409e-04
evals        111 float, 0 mpf (0 in search), 42 fixed (41 in search), 1 refined (0 pruned), 0 oracle cold
satisfied    true
""",
    ),
    (
        "s --n 2 --kind lower --interval 0:1",
        1,
        """\
family,n,interval,sup_error,arg_max,claimed_bound,satisfied
s,2,0:1,1.1909419416570295e-03,1.0000000000000000e+00,,false
""",
        """\
family       s(n=2)
interval     0:1
kind         lower
grid         65
sup_error    1.1909419416570295e-03  at x = 1
min_gap      -1.1909419416570295e-03
evals        97 float, 0 mpf (0 in search), 1 fixed (0 in search), 0 refined (0 pruned), 0 oracle cold
satisfied    false
""",
    ),
    (
        "master --n 3 --kind upper --interval 0:1000",
        0,
        """\
family,n,interval,sup_error,arg_max,claimed_bound,satisfied
master,3,0:1000,2.9765256406562151e-06,2.2640387134577056e+00,,true
""",
        """\
family       master(n=3).upper
interval     0:1000
kind         upper
grid         65
sup_error    2.9765256406562151e-06  at x = 2.2640387134577056
min_gap      0.0000000000000000e+00
evals        97 float, 1 mpf (0 in search), 1 fixed (0 in search), 0 refined (0 pruned), 1 oracle cold
satisfied    true
""",
    ),
]


# `eval` output as recorded while cheb's scale m was still a field of Approximant:
# (arguments after eval, exit code, stdout)
EVAL_GOLDEN = [
    (
        "--family cheb --n 8 --x 0.5 --param m=2",
        0,
        """\
family  cheb  n=8
x       0.5
oracle  0.78539816339744828
value   0.78540794446210249   error +9.781065e-06
""",
    ),
    (
        "--family cheb --n 8 --x 0.5 --param m=2 --format csv",
        0,
        """\
family,n,x,side,value,oracle,signed_error
cheb,8,5.0000000000000000e-01,,7.8540794446210249e-01,7.8539816339744828e-01,9.7810646542129120e-06
""",
    ),
    (
        "--family cheb --n 8 --x 1 --param m=2 --format csv",
        0,
        """\
family,n,x,side,value,oracle,signed_error
cheb,8,1.0000000000000000e+00,,1.1071570906145658e+00,1.1071487177940904e+00,8.3728204753885649e-06
""",
    ),
    (
        "--family cheb --n 6 --x -0.5 --param m=0.5",
        0,
        """\
family  cheb  n=6
x       -0.5
oracle  -0.24497866312686414
value   -0.24497866307310287   error +5.376127e-11
""",
    ),
    (
        "--family master --n 3 --x 7",
        0,
        """\
family  master  n=3
x       7
oracle  1.4288992721907328
lower   1.4288975397286763   error -1.732462e-06
upper   1.4289015049048248   error +2.232714e-06
""",
    ),
    (
        "--family w-lifted --n 3 --x 1e6 --format csv",
        0,
        """\
family,n,x,side,value,oracle,signed_error
w-lifted,3,1.0000000000000000e+06,,1.5707953267948966e+00,1.5707953267948966e+00,0.0000000000000000e+00
""",
    ),
]


@pytest.mark.parametrize("args, code, out", EVAL_GOLDEN, ids=[c[0] for c in EVAL_GOLDEN])
def test_eval_output_unchanged(monkeypatch, capsys, args, code, out):
    monkeypatch.delenv("ARCTAN_CERT_DIGITS", raising=False)
    assert run(capsys, "eval", *args.split()) == (code, out, "")


@pytest.mark.parametrize("args, code, csv, text", CERTIFY_GOLDEN, ids=[c[0].split()[0] for c in CERTIFY_GOLDEN])
def test_certify_output_unchanged_at_grid_65(monkeypatch, capsys, args, code, csv, text):
    # CSV and exit code byte for byte; the text up to the oracle-cold count, which
    # depends on what earlier runs in this process left in the oracle's cache
    monkeypatch.delenv("ARCTAN_CERT_DIGITS", raising=False)
    argv = ["certify", "--family", *args.split(), "--grid", "65"]
    assert run(capsys, *argv, "--format", "csv") == (code, csv, "")
    got_code, got_text, _ = run(capsys, *argv)
    cold = re.compile(r"\d+ oracle cold")
    assert got_code == code
    assert cold.sub("N oracle cold", got_text) == cold.sub("N oracle cold", text)
