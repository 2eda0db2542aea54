"""Tests of the benchmark itself: span accounting, failure counting, pinned lists."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import Tracer, install, layer_metrics  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def boom():
        clock.now += 0.25
        raise ValueError("boom")

    def middle():
        clock.now += 1.0
        tracer.call("leaf", leaf)
        try:
            tracer.call("boom", boom)
        except ValueError:
            pass

    def outer():
        clock.now += 0.5
        tracer.call("middle", middle)
        tracer.call("leaf", leaf)

    tracer.call("outer", outer)
    # [calls, total_s, self_s, failed]
    assert tracer.spans["outer"] == [1, 5.75, 0.5, 0]
    assert tracer.spans["middle"] == [1, 3.25, 1.0, 0]
    assert tracer.spans["leaf"] == [2, 4.0, 4.0, 0]
    assert tracer.spans["boom"] == [1, 0.25, 0.25, 1]
    assert sum(rec[2] for rec in tracer.spans.values()) == tracer.spans["outer"][1]


def test_raising_and_wrong_approximants_count_as_failed():
    def raising(x):
        raise ArithmeticError("deliberately broken")

    def wrong(x):
        return math.atan(x) + 0.01  # outside lagrange's 1/230 claim

    instances = [
        ("lagrange", None, None, raising),
        ("lagrange", None, None, wrong),
        ("lagrange", None, None, math.atan),
        ("sf", None, "lower", lambda x: math.atan(x) * 1.5 + 1e-3),  # above arctan
    ]
    half_line = [0.5, 2.0]
    unit = [0.25, 0.75]
    _wall, op_s, values = wl.evaluate(instances, half_line, unit, FakeClock())
    verdicts = wl.verdicts(instances, half_line, unit, values)
    assert verdicts == ["raised", "wrong", "ok", "wrong"] * 2
    counts = {v: verdicts.count(v) for v in set(verdicts)}
    assert wl.failed_count(counts) / len(op_s) == 6 / 8
    assert wl.unexplained_count(counts) == 6  # none of them is a known defect, so the run is incorrect


def test_known_float_defects_are_classified():
    x = 0.5
    ref = wl.reference_atan(x, wl.FLOAT_CHECK_DIGITS)
    raised = AssertionError("expected g_12(pi/2) < 1")
    assert wl.known_defect("master", 12, "upper", x, "raised", raised, ref) == "master_params"
    assert wl.known_defect("master", 11, "upper", x, "raised", raised, ref) is None
    assert wl.known_defect("master", 12, "upper", x, "raised", ValueError("other"), ref) is None

    top = sys.float_info.max
    assert wl.known_defect("t5", None, None, top, "nonfinite", math.inf, wl.reference_atan(top, 50)) == "range_edge"
    assert wl.known_defect("t5", None, None, 2.0, "nonfinite", math.inf, wl.reference_atan(2.0, 50)) is None

    below = math.nextafter(math.nextafter(float(ref), 0.0), 0.0)  # under arctan by less than two ulp
    assert wl.float_eval_verdict("sf", None, "upper", x, below, ref) == "wrong"
    assert wl.known_defect("sf", None, "upper", x, "wrong", below, ref) == "rounding"
    far = float(ref) - 1e-9
    assert wl.known_defect("sf", None, "upper", x, "wrong", far, ref) is None

    counts = {"ok": 5, "raised:master_params": 2, "wrong:rounding": 1}
    assert (wl.failed_count(counts), wl.unexplained_count(counts)) == (3, 0)
    assert wl.unexplained_count({**counts, "wrong": 1}) == 1


def test_table_row_must_match_a_re_evaluation():
    from mpmath import mp

    from arctancert.families import Approximant

    x = 0.625
    with mp.workdps(50):
        sup = float(abs(Approximant("cf", n=2)(mp.mpf(x)) - wl.reference_atan(x, 50)))

    def row(sup_error, satisfied="true"):
        return f"cf,2,0:1,{sup_error:.16e},{x:.16e},3.1250000000000000e-02,{satisfied}"

    assert wl.table_row_ok(row(sup), Approximant)
    assert not wl.table_row_ok(row(sup * 1.001), Approximant)
    assert not wl.table_row_ok(row(sup, "false"), Approximant)
    assert not wl.table_row_ok("cf,2,0:1,garbled", Approximant)


def test_nonfinite_values_fail():
    ref = wl.reference_atan(1.0, wl.FLOAT_CHECK_DIGITS)
    assert wl.float_eval_verdict("t5", None, None, 1.0, math.inf, ref) == "nonfinite"
    assert wl.float_eval_verdict("t5", None, None, 1.0, math.nan, ref) == "nonfinite"


def test_float_eval_list_matches_registry():
    from arctancert.cli import _parse_family_specs
    from arctancert.families import FAMILIES
    from arctancert.master import MAX_ORDER
    from arctancert.verify import BoundKind

    assert set(wl.FLOAT_EVAL_ORDERS) == set(FAMILIES)
    assert wl.MAX_ORDER == MAX_ORDER
    assert wl.FLOAT_EVAL_ORDERS["master"] == tuple(range(1, MAX_ORDER + 1))
    for fam, orders in wl.FLOAT_EVAL_ORDERS.items():
        info = FAMILIES[fam]
        if info.needs_n:
            assert min(orders) >= info.n_min, fam
        else:
            assert orders == (None,), fam
    assert set(wl.PAIR_FAMILIES) == {f for f, i in FAMILIES.items() if i.kind is BoundKind.TWO_SIDED}
    assert wl.UNIT_DOMAIN == {f for f, i in FAMILIES.items() if i.domain_text in ("[0,1]", "[-1,1]")}

    table = {}
    for fam, n in _parse_family_specs(wl.TABLE_FAMILIES):
        table.setdefault(fam, []).append(n)
    assert sum(len(v) for v in table.values()) == wl.TABLE_ROWS
    for fam, orders in table.items():
        if fam != "master":
            assert wl.FLOAT_EVAL_ORDERS[fam] == tuple(orders), fam


def test_tracer_wrappers_are_removed_and_classify_oracle_calls():
    from mpmath import mp

    from arctancert import cli, families, master, verify

    before = (families.Approximant.__call__, verify.oracle_arctan, cli.sup_error, master.master_params)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        families.Approximant("master", n=2, side="upper")(0.5)
        with mp.workdps(50):
            families.Approximant("cheb", n=3)(mp.mpf("0.5"))
        cfg = verify.OracleConfig()
        verify.oracle_arctan(0.375, cfg)
        verify.oracle_arctan(0.375, cfg)
    finally:
        uninstall()
    assert (families.Approximant.__call__, verify.oracle_arctan, cli.sup_error, master.master_params) == before

    metrics = layer_metrics(tracer.spans)
    assert metrics["families.approximant.calls.float"] == (1, "count")
    assert metrics["families.approximant.calls.mpf"] == (1, "count")
    assert metrics["master.bounds.us_float"][0] > 0
    assert metrics["series.cheb.us_mpf"][0] > 0
    assert metrics["core.sf.us_float"][0] is None  # unmeasured, not zero
    assert metrics["master.master_params.calls"] == (1, "count")
    assert metrics["verify.oracle.calls"] == (2, "count")
    assert metrics["verify.oracle.distinct_frac"] == (0.5, "ratio")
    assert metrics["verify.sup_error.self_s"][0] is None


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"]
    layers = layer_metrics({})
    layers["trace.overhead_s"] = (None, "s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: unit for k, (_v, unit) in layers.items()}


def test_latency_tail_keeps_ten_samples_beyond():
    lat = wl.latency_summary([i / 1000 for i in range(1, 101)])
    assert lat["tail_ms"] == pytest.approx(90.0)
    assert lat["tail_pct"] == 90.0
    assert lat["p50_ms"] == pytest.approx(50.5)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "float_eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_scales_times_and_leaves_collection_as_it_was():
    import gc

    assert gc.isenabled()
    assert wl.speed_probe() > 0
    assert gc.isenabled()
    # a unit measured while the probe ran twice as slow as nominal reads half
    assert wl.at_nominal_speed(3.0, 2 * wl.PROBE_NOMINAL_S) == pytest.approx(1.5)
