"""Run the benchmark once per seed and report each end-to-end metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py --workloads float_eval,oracle_points --seeds 1-10 --out runs.json
    python3 perfbench/steadiness.py --seeds 11-20 --against runs.json

Every run is untraced and lasts run_seconds from BENCHMARK.json. The spread
is the distance between the first and third quartile of the runs
(``statistics.quantiles(values, n=4)``) as a share of their median; the
benchmark counts as steady when every spread is below a third of the
metric's bound in BENCHMARK.json (setup_s is reported but not held to it).
With ``--against`` an earlier set's output, it also counts as steady only if
no metric's median is worse than that set's by more than the bound.
Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write every run's result here as JSON")
    parser.add_argument("--against", help="an earlier --out file of the same code to compare medians with")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    report = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                                                           if k in bounds), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            if name in bounds:
                held = name == "setup_s" or spread < bounds[name] / 3
                line = f"  {name:12s} median {med:.6g}  spread {spread:.4f}  bound/3 {bounds[name] / 3:.4f}"
                line += "  ok" if held else "  TOO WIDE"
                if workload in earlier:
                    before = earlier[workload]["summary"][name]["median"]
                    worse = (med - before if lower_is_better[name] else before - med) / before
                    summary[name]["worse_than_earlier"] = worse
                    held_median = worse <= bounds[name]
                    held = held and held_median
                    line += f"  vs earlier median {before:.6g}: {worse:+.4f} {'ok' if held_median else 'WORSE'}"
                steady = steady and held
                print(line)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
