"""One benchmark worker: a fresh, single-threaded process.

Started by ``run.py`` with ``PYTHONPATH`` holding ``src`` and this
directory, a fresh stepper cache in ``$ARMADA_STEPC_CACHE``, and
``PYTHONHASHSEED`` fixed from the run's seed.  Modes:

* ``passes``: set up, then run timed passes, each followed by samples
  of the reference workload (``reference.py``), for ``--seconds``
  seconds;
* ``trace``: set up with spans installed, run untraced passes for half
  of ``--seconds``, then one pass with spans, the profiler and the GC
  clock, and report every per-layer metric.

The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

import reference

#: Known-answer mismatches kept for the report.
MAX_MISMATCHES = 10


def _peak_rss_mb() -> float:
    """The process's peak resident memory since start or since the last
    :func:`_reset_peak_rss` (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reset_peak_rss() -> None:
    """Lower the peak resident memory to the current one, so the next
    reading covers only what runs after this call."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _timed_pass(workload, record: dict) -> tuple[float, float]:
    """Run one pass, count it, and return its CPU time and wall time.
    A pass whose verdicts differ from the known answers, or that
    raises, is a failed operation; the run goes on."""
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        mismatches = workload.run_pass()
    except Exception:
        mismatches = [traceback.format_exc(limit=3)]
    cpu = time.process_time() - cpu_started
    wall = time.perf_counter() - started
    record["attempted"] += 1
    if mismatches:
        record["failed"] += 1
        kept = record["mismatches"]
        kept += mismatches[:MAX_MISMATCHES - len(kept)]
    return cpu, wall


def _passes(workload, record: dict, seconds: float) -> None:
    """Timed passes, each followed by its reference samples, until the
    next pass would end after *seconds*.  CPU and wall times of the
    passes go to ``record["pass_cpu_s"]`` and ``record["pass_s"]``, the
    reference samples to ``record["reference_s"]``.  The peak resident
    memory is read over each pass alone, so the reference's own memory
    never counts in ``record["peak_rss_mb"]``."""
    cpu_times = record.setdefault("pass_cpu_s", [])
    wall_times = record.setdefault("pass_s", [])
    references = record.setdefault("reference_s", [])
    rounds: list[float] = []
    started = time.perf_counter()
    while not rounds or (
        time.perf_counter() - started + statistics.median(rounds)
        <= seconds
    ):
        round_started = time.perf_counter()
        _reset_peak_rss()
        cpu, wall = _timed_pass(workload, record)
        record["peak_rss_mb"] = max(record["peak_rss_mb"], _peak_rss_mb())
        cpu_times.append(cpu)
        wall_times.append(wall)
        references += reference.samples_after(cpu)
        rounds.append(time.perf_counter() - round_started)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("passes", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--answers", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    with open(args.answers) as handle:
        answers = json.load(handle)

    started = time.perf_counter()
    cpu_started = time.process_time()
    import repro  # noqa: F401  -- set-up time starts with this import
    from workloads import WORKLOADS

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](answers, args.scratch)
    workload.setup()
    setup_cpu_s = time.process_time() - cpu_started
    setup_s = time.perf_counter() - started

    record = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s,
              "peak_rss_mb": _peak_rss_mb(),
              "attempted": 0, "failed": 0, "mismatches": []}
    if args.mode == "passes":
        _passes(workload, record, args.seconds)
    elif args.mode == "trace":
        import cProfile

        from tracing import Attribution, GcClock, layer_metrics

        tracer.uninstall()
        setup_phase = tracer.take()
        _passes(workload, record, args.seconds / 2)
        # Builtins are not profiled: their time stays in the self time
        # of the Python function that called them, and the profiler's
        # own cost per builtin call disappears.
        profile = cProfile.Profile(builtins=False)
        tracer.install()
        with GcClock() as gc_clock:
            profile.enable()
            _, traced_s = _timed_pass(workload, record)
            profile.disable()
        tracer.uninstall()
        traced = tracer.take()
        attribution = Attribution(profile)
        record["layers"] = dict(attribution.layers)
        record["metrics"] = layer_metrics(
            setup_phase, traced, attribution, gc_clock,
            traced_s, statistics.median(record["pass_s"]),
        )
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans, "w") as out:
            setup_phase.write_spans(out, "setup")
            traced.write_spans(out, "traced_pass")
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
