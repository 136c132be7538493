"""A/A steadiness check: two independent sets of runs of the same code.

Run from the repository root::

    python3 perfbench/steadiness.py

Each set runs ``perfbench/run.py`` once per seed (1..10) on every
workload, so both sets see the same ``PYTHONHASHSEED`` sequence; the
sets alternate run by run.  For every workload and end-to-end metric it
prints each set's median and quartiles, each set's spread (quartile
distance over the median) and whether the second median is within the
metric's bound of the first.  The observed figures are written to
``steadiness.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Runs per set and workload, as many as the benchmark's own check makes.
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result "
                         f"{result}\n{completed.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: dict = {}
    for workload in workloads:
        sets: list[list[dict]] = [[], []]
        for seed in range(1, RUNS + 1):
            for runs in sets:
                runs.append(one_run(workload, seed, spec["run_seconds"]))
                print(f"{workload} seed {seed}: {runs[-1]}",
                      file=sys.stderr, flush=True)
        report[workload] = {}
        for metric, bound in bounds.items():
            stats = [summary([run[metric] for run in runs]) for runs in sets]
            row = {"bound": bound, "sets": stats}
            line = f"{workload:<9} {metric:<12} bound {bound:.0%}"
            for index, s in enumerate(stats, 1):
                line += (f" | set {index}: median {s['median']:.4g} "
                         f"[{s['q1']:.4g}, {s['q3']:.4g}] "
                         f"spread {s['spread']:.1%}")
            change = stats[1]["median"] / stats[0]["median"] - 1
            row["median_change"] = change
            row["agree"] = abs(change) <= bound
            line += (f" | change {change:+.1%} "
                     f"{'agree' if row['agree'] else 'DISAGREE'}")
            report[workload][metric] = row
            print(line, flush=True)
    record = {
        "run_seconds": spec["run_seconds"],
        "runs_per_set": RUNS,
        "workloads": report,
    }
    (BENCH_DIR / "steadiness.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
