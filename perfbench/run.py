"""arctancert benchmark: one workload per call, one JSON result on the last line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload standard_table --seed 1 --seconds 10 --trace 0

Workloads (see README.md for why each exists):

- standard_table: the 58-row certification table through ``cli.main``;
  an op is one table row. The timed passes run at grid 65; in a traced run,
  one untimed pass at the default grid 4097 checks the CSV against the seed
  digest.
- float_eval: every family and advertised order through ``Approximant`` at
  float on seeded points; an op is one kernel evaluation.
- oracle_points: seeded distinct points through ``oracle_arctan``, cold then
  warm, at 30 and 100 report digits; an op is one point.

Every job runs in a fresh interpreter (``worker.py``), single-threaded, one
at a time, with ``ARCTAN_CERT_DIGITS`` removed from its environment. With
``--trace 0`` the run times set-up several times and the workload once and
reports the end-to-end metrics; with ``--trace 1`` it runs the workload
untraced and traced and reports the per-layer metrics and the tracing
overhead. Text lines go first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 11
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def _child(job: dict, deadline: float) -> dict:
    """Run one worker job in a fresh interpreter and return its JSON output."""
    env = {k: v for k, v in os.environ.items() if k != "ARCTAN_CERT_DIGITS"}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for job {job['kind']}")
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(WORKER), json.dumps(job)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=remaining,
            check=False,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise ChildFailed(f"job {job['kind']} ran past the time limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"job {job['kind']} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _table(wl, trace: bool, deadline: float) -> dict:
    """Run the table's passes at the small grid, each in a fresh interpreter.

    Untraced, the run makes TABLE_PASSES passes and times each row at its
    fastest pass. Traced, each traced pass follows an untraced one, so that the
    two sides of the tracing overhead meet the machine in the same state, and
    one untimed pass at the full grid checks the CSV against the seed digest;
    an untraced run leaves that pass out, to spend its time on timed passes.
    Every pass's rows are checked and its CSV digest compared with the
    reference.
    """

    def one(grid, traced):
        return _child({"kind": "standard_table", "grid": grid, "trace": traced}, deadline)

    full = plain = None
    if trace:
        pairs = [(one(wl.TABLE_TIMED_GRID, False), one(wl.TABLE_TIMED_GRID, True)) for _ in range(wl.TABLE_TRACED_PAIRS)]
        plain, passes = [a for a, _ in pairs], [b for _, b in pairs]
        full = one(wl.TABLE_FULL_GRID, False)
    else:
        passes = [one(wl.TABLE_TIMED_GRID, False) for _ in range(wl.TABLE_PASSES)]
    checked = passes + (plain or []) + ([full] if full else [])
    failed = sum(p["failed"] for p in checked)
    timed = {}
    if not trace:
        # Every pass replays the same rows in a fresh interpreter. Slowness the
        # program causes itself (a collection, an eviction, a lazy rebuild)
        # recurs at the same row in every pass and stays in the row's fastest
        # time; what the speed probe before each row does not account for of
        # the machine's spells does not recur at the same row, and drops out.
        row_s = [
            min(wl.at_nominal_speed(t, probe) for t, probe in zip(times, probes))
            for times, probes in zip(zip(*(p["op_s"] for p in passes)), zip(*(p["probe_s"] for p in passes)))
        ]
        rows = wl.latency_summary(row_s)
        timed = {
            "wall_s": sum(row_s),
            "p50_ms": rows["p50_ms"],
            "tail_ms": rows["tail_ms"],
            "tail_rule": f"p{rows['tail_pct']:.4g} of the {rows['samples']} rows, each at its fastest of {len(passes)} passes",
        }
    detail = {
        "passes": len(passes),
        "timed_digest": passes[0]["digest"],
        "timed_digest_matches_reference": all(p["digest_ok"] for p in passes + (plain or [])),
    }
    if full:
        detail["full_pass"] = {
            "grid": wl.TABLE_FULL_GRID,
            "wall_s": full["unit"]["wall_s"],
            "digest": full["digest"],
            "digest_matches_reference": full["digest_ok"],
        }
    return {
        **timed,
        "units": [p["unit"] for p in passes],
        "plain_units": [p["unit"] for p in plain] if plain else None,
        "attempted": sum(p["attempted"] for p in checked),
        "failed": failed,
        "correct": failed == 0 and all(p["rc"] == 0 and p["digest_ok"] for p in checked),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in checked),
        # the spans of the fastest traced pass, whose wall_s the traced run reports
        "spans": min(passes, key=lambda p: p["unit"]["wall_s"])["spans"],
        "detail": detail,
        "inputs": {**passes[0]["inputs"], "full_grid": wl.TABLE_FULL_GRID if full else None},
        "provenance": passes[0]["provenance"],
    }


def _rounds(wl, name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Run float_eval or oracle_points: one job of seeded rounds, or an untraced and a traced one."""
    job = {"kind": name, "seed": seed, "rounds": wl.rounds(name, seconds)}
    jobs = [_child({**job, "trace": False}, deadline)]
    if trace:
        jobs.append(_child({**job, "trace": True}, deadline))
    counts: dict = {}
    for j in jobs:
        for verdict, count in j["verdicts"].items():
            counts[verdict] = counts.get(verdict, 0) + count
    if name == "float_eval":
        # float_eval counts ROADMAP item 2's known defects in `failed`; a failure
        # outside their classes (workloads.known_defect) makes the run incorrect
        correct = wl.unexplained_count(counts) == 0
    else:
        correct = wl.failed_count(counts) == 0
    units = jobs[-1]["units"]

    def median(key):
        return statistics.median(wl.at_nominal_speed(u[key], u["probe_s"]) for u in units)

    return {
        "wall_s": median("wall_s"),
        "p50_ms": median("p50_ms"),
        "tail_ms": median("tail_ms"),
        "tail_rule": f"p{units[0]['tail_pct']:.4g} of the {units[0]['samples']} ops of a round, median of {len(units)} rounds",
        "units": units,
        "plain_units": jobs[0]["units"] if trace else None,
        "attempted": sum(counts.values()),
        "failed": wl.failed_count(counts),
        "correct": correct,
        "peak_rss_mb": max(j["peak_rss_mb"] for j in jobs),
        "spans": jobs[-1]["spans"],
        "detail": {"rounds": job["rounds"], "verdicts": counts},
        "inputs": jobs[-1]["inputs"],
        "provenance": jobs[-1]["provenance"],
    }


def _fastest(units: list, key: str) -> float:
    """The smallest value of a per-unit figure; a traced run compares its fastest units."""
    return min(u[key] for u in units)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "arctancert" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'arctancert'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads as wl
    from tracer import layer_metrics

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S

    def workload(trace):
        if args.workload == "standard_table":
            return _table(wl, trace, deadline)
        return _rounds(wl, args.workload, args.seed, args.seconds, trace, deadline)

    try:
        if args.trace:
            run = workload(True)
        else:
            # set-up runs on both sides of the workload, so that one slow spell
            # of a shared machine cannot cover every repeat
            job = {"kind": "setup", "plan": wl.setup_plan(args.workload)}
            setups = [_child(job, deadline) for _ in range(SETUP_REPEATS // 2 + 1)]
            run = workload(False)
            setups += [_child(job, deadline) for _ in range(SETUP_REPEATS // 2)]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        **run["provenance"],
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": run["inputs"],
        **run["detail"],
    }
    print("run record " + json.dumps(record))

    if "full_pass" in run["detail"]:
        full = run["detail"]["full_pass"]
        print(f"grid {full['grid']} pass: {full['wall_s']:.6g} s, csv sha256 {full['digest']}"
              f" matches the reference: {full['digest_matches_reference']}")
    if args.workload == "standard_table":
        print(f"grid {wl.TABLE_TIMED_GRID} passes: csv sha256 {run['detail']['timed_digest']}"
              f" matches the reference in every pass: {run['detail']['timed_digest_matches_reference']}")
    if args.trace:
        traced_wall, plain_wall = _fastest(run["units"], "wall_s"), _fastest(run["plain_units"], "wall_s")
        overhead = traced_wall - plain_wall
        layers = layer_metrics(run["spans"])
        layers["trace.overhead_s"] = (overhead, "s")
        print(f"traced wall_s {traced_wall:.6f} s, untraced {plain_wall:.6f} s, overhead {overhead:.6f} s")
        if args.workload == "standard_table":
            self_sum = sum(rec[2] for rec in run["spans"].values())
            gap = traced_wall - self_sum
            print(f"layer self times sum to {self_sum:.6f} s; traced wall_s - sum = {gap:.6f} s"
                  f" (within overhead: {abs(gap) <= abs(overhead)})")
        for name, (value, unit) in layers.items():
            print(f"{name:40s} " + ("unmeasured (its wrapper saw no call)" if value is None else f"{value:.6g} {unit}"))
        # the result line needs a number for every metric; an unmeasured layer reads 0 there
        metrics = {name: _metric(0 if value is None else value, unit) for name, (value, unit) in layers.items()}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(wl.at_nominal_speed(s["setup_s"], s["probe_s"]) for s in setups), "s"),
            "wall_s": _metric(run["wall_s"], "s"),
            "op_p50_ms": _metric(run["p50_ms"], "ms"),
            "op_tail_ms": _metric(run["tail_ms"], "ms"),
            "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
        }
        for name, m in metrics.items():
            print(f"{name:12s} {m['value']:.6g} {m['unit']}")
        print(f"op_tail_ms is {run['tail_rule']}")
        print(f"failed_frac  {run['failed'] / run['attempted']:.6g} ({run['failed']} of {run['attempted']} ops)")
        print(f"master_params failures during set-up: {setups[0]['master_params_failed']}")
        if args.workload == "float_eval":
            print(f"float_eval failures outside the known defect classes: {wl.unexplained_count(run['detail']['verdicts'])}")

    result = {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
