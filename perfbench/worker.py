"""One benchmark job in a fresh interpreter; prints one JSON line on stdout.

Usage: python3 -I perfbench/worker.py '<job as JSON>'

Jobs: {"kind": "setup", "plan": P} times import plus first-use set-up;
{"kind": "standard_table", "grid": g, "trace": bool} runs one table pass at
grid g; {"kind": W, "seed": s, "rounds": r, "trace": bool} runs r rounds of
workload W. The parent, ``run.py``, starts every job in its own interpreter
so that each one pays the cold caches a command-line user pays.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

# Bound in main() after a set-up job has had its chance to time a cold import
# of the library, which brings mpmath in with it.
wl = mp = Tracer = install = None


def _check_source(module) -> None:
    if not Path(module.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"arctancert was imported from {module.__file__}, not from {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def run_setup(plan: dict) -> dict:
    t0 = time.perf_counter()
    import arctancert

    if plan["cli"]:
        import arctancert.cli  # noqa: F401
    for report, working in plan["configs"]:
        arctancert.oracle_pi(arctancert.OracleConfig(working, report))
    failed = 0
    for n in plan["orders"]:
        try:
            arctancert.master_params(n)
        except Exception:  # orders the library advertises but cannot set up are counted
            failed += 1
    setup_s = time.perf_counter() - t0
    _check_source(arctancert)
    import workloads

    return {"setup_s": setup_s, "probe_s": workloads.speed_probe(), "master_params_failed": failed}


def _provenance() -> dict:
    import mpmath

    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
    }


def run_standard_table(grid: int, trace: bool) -> dict:
    from arctancert import cli
    from arctancert.families import Approximant

    _check_source(cli)
    tracer = Tracer() if trace else None
    uninstall = install(tracer) if trace else None

    # The loop calls table_entry once at the start of each row. An untraced
    # pass runs the speed probe there, outside the row's time; a traced pass
    # leaves it out, so that the spans cover the whole pass.
    starts, ends, probe_s = [], [], []
    table_entry = cli.table_entry

    def stamped(*args, **kwargs):
        ends.append(time.perf_counter())  # of the previous row
        if not trace:
            probe_s.append(wl.speed_probe())
        starts.append(time.perf_counter())
        return table_entry(*args, **kwargs)

    cli.table_entry = stamped
    argv = wl.table_argv(grid)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = tracer.call("cli", cli.main, argv) if trace else cli.main(argv)
    except Exception:  # every row of a table that crashed counts as failed
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    cli.table_entry = table_entry
    if uninstall:
        uninstall()

    payload = buf.getvalue()
    lines = payload.splitlines()[1:] if rc in (0, 1) else []
    row_s = [b - a for a, b in zip(starts, ends[1:] + [t0 + wall])] or [wall]
    wall -= sum(probe_s)
    failed = wl.TABLE_ROWS - len(lines)
    failed += sum(not wl.table_row_ok(line, Approximant) for line in lines)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return {
        "rc": rc,
        "unit": {"wall_s": wall, **wl.latency_summary(row_s)},
        "op_s": row_s,
        "probe_s": probe_s,
        "attempted": wl.TABLE_ROWS,
        "failed": failed,
        "digest": digest,
        "digest_ok": digest == wl.TABLE_DIGESTS[grid],
        "peak_rss_mb": _peak_rss_mb(),
        "spans": tracer.spans if trace else None,
        "inputs": {
            "grid": grid,
            "digits": wl.TABLE_DIGITS,
            "check_digits": wl.working_digits(wl.TABLE_DIGITS),
            "rows": wl.TABLE_ROWS,
        },
        "provenance": _provenance(),
    }


def _rounds(count: int, one_round) -> dict:
    """Run one_round() count times, each after the speed probe; summarise each round and tally the verdicts."""
    units = []
    counts: dict = {}
    for _ in range(count):
        probe_s = wl.speed_probe()
        wall, op_s, verdicts = one_round()
        units.append({"wall_s": wall, "probe_s": probe_s, **wl.latency_summary(op_s)})
        for v in verdicts:
            counts[v] = counts.get(v, 0) + 1
    return {"units": units, "verdicts": counts, "attempted": sum(counts.values())}


def run_float_eval(seed: int, rounds: int, trace: bool) -> dict:
    from arctancert import master
    from arctancert.families import Approximant

    _check_source(master)
    tracer = Tracer() if trace else None
    uninstall = install(tracer) if trace else None
    for n in wl.setup_plan("float_eval")["orders"]:
        try:
            master.master_params(n)
        except Exception:  # n = 12..15 raise at this commit; float_eval counts it per call
            pass
    instances = [
        (fam, n, side, Approximant(fam, n=n, side=side)) for fam, n, side in wl.float_eval_instances()
    ]
    rng = random.Random(f"float_eval:{seed}")
    points = 0

    def one_round():
        nonlocal points
        half_line, unit = wl.float_eval_points(rng)
        wall, op_s, values = wl.evaluate(instances, half_line, unit, time.perf_counter)
        points += len(half_line) + len(unit)
        return wall, op_s, wl.verdicts(instances, half_line, unit, values)

    out = _rounds(rounds, one_round)
    if uninstall:
        uninstall()
    out.update(
        failed=wl.failed_count(out["verdicts"]),
        peak_rss_mb=_peak_rss_mb(),
        spans=tracer.spans if trace else None,
        inputs={
            "precision": "float",
            "check_digits": wl.FLOAT_CHECK_DIGITS,
            "instances": len(instances),
            "points": points,
        },
        provenance=_provenance(),
    )
    return out


def run_oracle_points(seed: int, rounds: int, trace: bool) -> dict:
    from arctancert import verify

    _check_source(verify)
    tracer = Tracer() if trace else None
    uninstall = install(tracer) if trace else None
    cfgs = [verify.OracleConfig(wl.working_digits(d), d) for d in wl.ORACLE_DIGITS]
    for cfg in cfgs:
        verify.oracle_pi(cfg)
    rng = random.Random(f"oracle_points:{seed}")
    seen: set = set()
    clock = time.perf_counter
    points = 0

    def one_round():
        nonlocal points
        xs = wl.oracle_points(rng, wl.ORACLE_POINTS_PER_ROUND, seen)
        results, op_s = [], []
        t_round = clock()
        for x in xs:
            t0 = clock()
            # verify.oracle_arctan is looked up per call, so a traced run sees the wrapper
            pairs = [(verify.oracle_arctan(x, cfg), verify.oracle_arctan(x, cfg)) for cfg in cfgs]
            op_s.append(clock() - t0)
            results.append(pairs)
        wall = clock() - t_round
        points += len(xs)
        verdicts = []
        for x, pairs in zip(xs, results):
            ok = True
            for digits, (cold, warm) in zip(wl.ORACLE_DIGITS, pairs):
                ref = wl.reference_atan(x, wl.working_digits(digits))
                with mp.workdps(wl.working_digits(digits)):
                    ok = ok and cold == warm and abs(cold - ref) <= abs(ref) * mp.mpf(10) ** -digits
            verdicts.append("ok" if ok else "wrong")
        return wall, op_s, verdicts

    out = _rounds(rounds, one_round)
    if uninstall:
        uninstall()
    out.update(
        failed=wl.failed_count(out["verdicts"]),
        peak_rss_mb=_peak_rss_mb(),
        spans=tracer.spans if trace else None,
        inputs={
            "digits": list(wl.ORACLE_DIGITS),
            "check_digits": [wl.working_digits(d) for d in wl.ORACLE_DIGITS],
            "points": points,
        },
        provenance=_provenance(),
    )
    return out


def main(argv) -> int:
    global wl, mp, Tracer, install
    job = json.loads(argv[1])
    kind = job["kind"]
    if kind == "setup":
        sys.stdout.write(json.dumps(run_setup(job["plan"])) + "\n")
        return 0
    import workloads as wl
    from mpmath import mp
    from tracer import Tracer, install

    if kind == "standard_table":
        out = run_standard_table(job["grid"], job["trace"])
    elif kind == "float_eval":
        out = run_float_eval(job["seed"], job["rounds"], job["trace"])
    elif kind == "oracle_points":
        out = run_oracle_points(job["seed"], job["rounds"], job["trace"])
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
