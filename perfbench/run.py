"""Benchmark of the Armada reproduction: explore, verify and validate.

Run from the repository root::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 40 --trace 0

Each run starts fresh single-threaded worker processes one after the
other (never two at once), each with its own empty compiled-stepper
cache, proof-cache root and ``HOME`` under ``.perfbench_work/``, and
with ``PYTHONHASHSEED`` derived from ``--seed``:

* ``--trace 0``: ``PROCESSES`` workers, each setting up and then
  running timed passes for its share of ``--seconds``.  Prints
  ``setup_s`` (mean set-up) and ``pass_s`` (mean pass), both CPU
  time in reference seconds, and ``peak_rss_mb`` (median of the
  workers' peak resident memory).
* ``--trace 1``: one worker that sets up with spans installed, runs
  untraced passes, then one traced, profiled pass.  Prints every
  per-layer metric, the share of the traced pass no layer claims and
  the tracing overhead, and writes the spans to
  ``.perfbench_work/spans/<workload>-seed<seed>.jsonl``.

Every pass is checked against ``answers.json``; a pass with a wrong
verdict counts as failed.  The last line of standard output is the JSON
result.  Before the first worker, bytecode of ``src/`` and of this
directory is compiled in an untimed step, so no timed run pays for it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: Known answers every pass is checked against.
ANSWERS = BENCH_DIR / "answers.json"
WORKLOADS = ("explore", "verify", "validate")
#: Worker processes of an untraced run; each times one set-up and at
#: least one pass.
PROCESSES = 5
#: Wall-clock limit of one worker process.
WORKER_TIMEOUT = 150


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def hash_seed(seed: int) -> int:
    """``PYTHONHASHSEED`` of a run: the run's seed, in the allowed range."""
    return seed % 4294967296


def prepare() -> None:
    """Untimed: compile the bytecode every worker imports."""
    for directory in (SRC / "repro", BENCH_DIR):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise SystemExit(f"perfbench: cannot compile {directory}")


def spans_path(args) -> Path:
    return WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"


def run_worker(workload: str, mode: str, args, seconds: float):
    """One worker process, from a fresh scratch directory; returns its
    result record."""
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=WORK))
    try:
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))),
            PYTHONHASHSEED=str(hash_seed(args.seed)),
            PYTHONDONTWRITEBYTECODE="1",
            ARMADA_STEPC_CACHE=str(scratch / "stepc"),
            ARMADA_CACHE_DIR=str(scratch / "proof-cache"),
            ARMADA_SERVE_DIR=str(scratch / "serve"),
            HOME=str(scratch / "home"),
            TMPDIR=str(scratch),
        )
        out = scratch / "result.json"
        command = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", workload, "--mode", mode,
            "--seconds", str(seconds),
            "--answers", str(ANSWERS), "--scratch", str(scratch),
            "--out", str(out), "--spans", str(spans_path(args)),
        ]
        # Worker output goes to our stderr: stdout ends with the result.
        subprocess.run(command, env=env, stdout=sys.stderr, check=True,
                       timeout=WORKER_TIMEOUT)
        with open(out) as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def untraced_run(args) -> tuple[dict, dict]:
    """``PROCESSES`` workers one after the other, each setting up and
    then running timed passes for its share of ``--seconds``.  Time a
    worker leaves unused goes to the workers after it.

    ``setup_s`` and ``pass_s`` are the mean CPU time of the run's
    set-ups and passes in reference seconds: times ``REFERENCE_S`` over
    the mean of the reference samples the workers took after their
    passes (see ``reference.py``).  CPU time rather than wall time,
    because each worker is one single-threaded, CPU-bound process, and
    CPU time leaves out the time the hypervisor takes the virtual CPU
    away.  The unscaled CPU and wall times are printed on standard
    error."""
    workers: list[dict] = []
    started = time.perf_counter()
    for index in range(PROCESSES):
        used = time.perf_counter() - started
        share = max(args.seconds - used, 0.0) / (PROCESSES - index)
        workers.append(run_worker(args.workload, "passes", args, share))
    references = [t for w in workers for t in w["reference_s"]]
    scale = reference.REFERENCE_S / statistics.mean(references)
    setup_cpu = statistics.mean(w["setup_cpu_s"] for w in workers)
    pass_cpu = statistics.mean(t for w in workers for t in w["pass_cpu_s"])
    values = {
        "setup_s": setup_cpu * scale,
        "pass_s": pass_cpu * scale,
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }
    print(f"{len(references)} reference samples, mean "
          f"{statistics.mean(references):.4f} s (scale {scale:.4f})",
          file=sys.stderr)
    print(f"mean CPU time: set-up {setup_cpu:.4f} s, pass {pass_cpu:.4f} s",
          file=sys.stderr)
    for name in ("setup_s", "setup_cpu_s", "pass_s", "pass_cpu_s"):
        samples = [w[name] for w in workers]
        print(f"{name} samples: {samples}", file=sys.stderr)
    merged = {
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "mismatches": [m for w in workers for m in w["mismatches"]],
    }
    return merged, {
        name: {"value": values[name], "unit": unit}
        for name, unit in metric_units("end_to_end").items()
    }


def traced_run(args) -> tuple[dict, dict]:
    main = run_worker(args.workload, "trace", args, args.seconds)
    units = metric_units("per_layer")
    metrics = main["metrics"]
    report = [f"traced run of {args.workload}:"]
    for name, unit in units.items():
        report.append(f"  {name:<26} {metrics[name]:>14.6g} {unit}")
    report.append(
        f"  unclaimed share of the traced pass: "
        f"{metrics['trace.unclaimed_share']:.1%}"
    )
    report.append(
        f"  tracing overhead: {metrics['trace.overhead']:.2f}x "
        f"(traced pass {metrics['trace.pass_s']:.3f} s / untraced pass "
        f"{metrics['trace.untraced_pass_s']:.3f} s)"
    )
    report.append("  self time by layer in the traced pass:")
    for layer, seconds in sorted(main["layers"].items(),
                                 key=lambda item: -item[1]):
        share = seconds / metrics["trace.pass_s"]
        report.append(f"    {layer:<18} {seconds:9.3f} s {share:7.1%}")
    report.append(f"  spans written to {spans_path(args)}")
    print("\n".join(report))
    return main, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in units.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, "
          f"PYTHONHASHSEED={hash_seed(args.seed)}", file=sys.stderr)
    prepare()
    try:
        main, metrics = (traced_run if args.trace else untraced_run)(args)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        print(f"perfbench: worker failed: {error}", file=sys.stderr)
        return 1
    for mismatch in main["mismatches"]:
        print(f"known-answer mismatch: {mismatch}", file=sys.stderr)
    print(json.dumps({
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
