"""Layer attribution for the benchmark's traced run.

Two instruments, both installed only in the traced worker and both kept
in memory until the run ends:

* **Spans** around the public entry point of each coarse layer
  (:data:`SPANS`).  The wrappers are patched in from here; no file of
  the program changes.  A span records its name, start, end and the
  span that was open when it started.  Per-call hot entry points (the
  interpreter's ``enabled_transitions``/``next_state``) only add to the
  per-name totals, because a record per call would outweigh the work.
* **A deterministic profiler** (``cProfile``) over the same traced pass
  for the per-state hot paths a span per call would dwarf: the compiled
  stepper, state hashing/equality, the ample-set reducer and the
  refinement check's stutter closure.  Each function's self time is
  assigned to a layer by :data:`MODULE_LAYERS`; builtins are not
  profiled, so their time is their caller's, and time in the standard
  library goes to the layer of the code that called it.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: (span name, module, attribute path, hot).  Spans sharing a name are
#: one layer entry point: their totals count the outermost call only.
SPANS = (
    ("lang.check", "repro.lang.frontend", "check_program", False),
    ("machine.translate", "repro.machine.translator", "translate_level",
     False),
    ("stepc.compile", "repro.compiler.stepc", "stepper_for", False),
    ("explore.explore", "repro.explore.explorer", "Explorer.explore", False),
    ("explore.sweep", "repro.explore.explorer", "Explorer.walk", False),
    ("explore.sweep", "repro.explore.explorer",
     "Explorer.reachable_states", False),
    ("engine.run_all", "repro.proofs.engine", "ProofEngine.run_all", False),
    ("prover.prove", "repro.verifier.prover", "Prover.prove_valid", False),
    ("farm.discharge", "repro.farm", "VerificationFarm.discharge", False),
    ("farm.cache.get", "repro.farm.cache", "ProofCache.get", False),
    ("farm.cache.put", "repro.farm.cache", "ProofCache.put", False),
    ("refine.check", "repro.explore.refinement_check", "check_refinement",
     False),
    ("machine.step", "repro.machine.program",
     "StateMachine.enabled_transitions", True),
    ("machine.step", "repro.machine.program", "StateMachine.next_state",
     True),
)

#: Source path (relative to ``src/``) prefix -> layer; first match wins.
MODULE_LAYERS = (
    ("repro/lang/", "lang"),
    ("repro/machine/translator.py", "machine.translate"),
    ("repro/machine/state.py", "state"),
    ("repro/machine/pmap.py", "state"),
    ("repro/machine/values.py", "state"),
    ("repro/machine/", "machine.interp"),
    ("repro/memmodel/", "machine.interp"),
    ("repro/compiler/", "stepc.build"),
    ("repro/explore/por.py", "por"),
    ("repro/explore/dpor.py", "por"),
    ("repro/explore/refinement_check.py", "refine"),
    ("repro/explore/", "explore"),
    ("repro/proofs/", "engine"),
    ("repro/strategies/", "strategies"),
    ("repro/verifier/", "prover"),
    ("repro/farm/", "farm"),
    ("repro/analysis/", "analysis"),
    ("repro/obs/", "obs"),
    ("repro/", "repro.other"),
)

#: (source path, function name) -> layer, overriding the module's.
#: State hashing covers the cached hashes ``state.py`` assigns to
#: ``__hash__`` after the classes are built, and the ``__eq__``/
#: ``__hash__`` that ``dataclasses`` generates once
#: :func:`relabel_generated_methods` has filed them under their module.
FUNCTION_LAYERS = {
    ("repro/machine/state.py", "_frame_hash"): "state.hash_eq",
    ("repro/machine/state.py", "_thread_hash"): "state.hash_eq",
    ("repro/machine/state.py", "_program_hash"): "state.hash_eq",
    ("repro/machine/state.py", "__hash__"): "state.hash_eq",
    ("repro/machine/state.py", "__eq__"): "state.hash_eq",
    ("repro/machine/pmap.py", "__hash__"): "state.hash_eq",
    ("repro/machine/pmap.py", "__eq__"): "state.hash_eq",
    ("repro/machine/pmap.py", "_entry_hash"): "state.hash_eq",
    ("repro/machine/values.py", "__hash__"): "state.hash_eq",
    ("repro/machine/values.py", "__eq__"): "state.hash_eq",
    ("repro/explore/refinement_check.py", "_stutter_closure"):
        "refine.closure",
}

#: The compiled stepper's generated code (``compile()`` file name).
GENERATED_STEPPER = "<armada-stepc"
#: Runtime helpers of the generated code live in this module; their
#: time counts as stepping when generated code calls them.
STEPC_MODULE = "repro/compiler/stepc.py"

#: Layers outside the program: their time is the unclaimed share.
UNNAMED = ("bench.driver", "bench.tracing", "repro.other", "python.other")


class Phase:
    """What one phase (the set-up or the traced pass) recorded: the raw
    spans, ``(calls, seconds)`` per span name (seconds of outermost
    calls only) and the counters."""

    def __init__(self, spans, totals, counts) -> None:
        self.spans = spans
        self.totals = totals
        self.counts = counts

    def total(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0))[0]

    def write_spans(self, out, phase: str) -> None:
        for span_id, parent, name, start, end in self.spans:
            out.write(json.dumps({
                "phase": phase, "id": span_id, "parent": parent,
                "name": name, "start": start, "end": end,
            }) + "\n")


class Tracer:
    """Patches the span wrappers in and out and records what they see."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object, object]] = []
        self._functions: list[tuple[object, object]] = []
        self._rebound: list[tuple[object, str, object]] = []
        #: name -> [calls, seconds of outermost calls, open calls]
        self._acc: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self._open = [0]  # ids of the open spans; 0 is the root
        self._next_id = 0
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._steppers: set[int] = set()

    # -- recording ------------------------------------------------------

    def take(self) -> Phase:
        """Hand over everything recorded so far and start afresh."""
        phase = Phase(
            self.spans,
            {name: (acc[0], acc[1]) for name, acc in self._acc.items()},
            self.counts,
        )
        self.spans = []
        self.counts = defaultdict(float)
        self._steppers = set()
        for acc in self._acc.values():
            acc[0], acc[1] = 0, 0.0
        return phase

    def _begin(self, acc: list) -> tuple[int, int, float]:
        self._next_id += 1
        span = (self._next_id, self._open[-1], time.perf_counter())
        self._open.append(span[0])
        acc[2] += 1
        return span

    def _end(self, name: str, acc: list, span: tuple) -> None:
        end = time.perf_counter()
        self._open.pop()
        acc[0] += 1
        acc[2] -= 1
        if not acc[2]:
            acc[1] += end - span[2]
        self.spans.append((span[0], span[1], name, span[2], end))

    def _observe(self, name: str, args: tuple, result) -> None:
        """Counters read off an entry point's arguments and result."""
        counts = self.counts
        if name == "lang.check":
            counts["lang.levels"] += len(result.program.levels)
        elif name == "stepc.compile" and result is not None:
            self._steppers.add(id(result))
            counts["stepc.steppers"] = len(self._steppers)
        elif name == "explore.explore":
            counts["explore.states"] += result.states_visited
            counts["explore.transitions"] += result.transitions_taken
            if result.por_stats is not None:
                counts["por.ample_states"] += result.por_stats.ample_states
                counts["por.transitions_pruned"] += (
                    result.por_stats.transitions_pruned
                )
        elif name == "engine.run_all":
            counts["engine.proofs"] += len(result.outcomes)
        elif name == "farm.discharge":
            counts["engine.obligations"] += len(args[1])
        elif name == "farm.cache.get":
            counts["farm.cache.hits" if result is not None
                   else "farm.cache.misses"] += 1
        elif name == "refine.check":
            counts["refine.product_states"] += result.product_states

    def _wrap(self, name: str, fn, hot: bool):
        acc = self._acc[name]
        perf_counter = time.perf_counter
        if hot:
            # One frame per call and no span record: only the totals.
            @functools.wraps(fn)
            def traced_hot(*args, **kwargs):
                acc[2] += 1
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    acc[0] += 1
                    acc[2] -= 1
                    if not acc[2]:
                        acc[1] += perf_counter() - start
            return traced_hot

        begin, end, observe = self._begin, self._end, self._observe
        if inspect.isgeneratorfunction(fn):
            # Consumed by list() in the program, so the span covers the
            # whole enumeration and nothing else.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                span = begin(acc)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    end(name, acc, span)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = begin(acc)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(name, acc, span)
            observe(name, args, result)
            return result
        return traced

    # -- patching -------------------------------------------------------

    def _targets(self):
        from repro.strategies import available_strategies
        from repro.strategies.base import Strategy

        available_strategies()  # registers every built-in strategy
        for name, module_name, path, hot in SPANS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            yield name, owner, attr, hot
        pending = list(Strategy.__subclasses__())
        while pending:
            cls = pending.pop()
            pending += cls.__subclasses__()
            if "generate" in vars(cls):
                yield "strategies.generate", cls, "generate", False

    def install(self) -> None:
        """Patch every entry point.  A module-level function is also
        replaced wherever a loaded module imported it by name."""
        relabel_generated_methods()
        if not self._patches and not self._functions:
            for name, owner, attr, hot in self._targets():
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original, hot)
                if inspect.isclass(owner):
                    self._patches.append((owner, attr, original, wrapper))
                else:
                    self._functions.append((original, wrapper))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        for original, wrapper in self._functions:
            for module in list(sys.modules.values()):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._rebound.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        for module, key, original in self._rebound:
            setattr(module, key, original)
        self._rebound = []


def relabel_generated_methods() -> None:
    """File the methods ``dataclasses`` generates for the program's
    classes (``__eq__``, ``__hash__``, ``__init__``) under the module
    that defines the class.  Their code is compiled from a string, so
    the profiler would otherwise see ``<string>`` and give their time to
    the callers' layers.  Only the code's file name changes."""
    for module_name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if not module_name.startswith("repro.") or path is None:
            continue
        for cls in list(vars(module).values()):
            if not inspect.isclass(cls) or cls.__module__ != module_name:
                continue
            for method in vars(cls).values():
                code = getattr(method, "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    method.__code__ = code.replace(co_filename=path)


class GcClock:
    """Time spent in the cyclic garbage collector (``gc.callbacks``)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


# -- profiler attribution ---------------------------------------------


def _source_path(filename: str) -> str | None:
    """``repro/...`` for program files, ``perfbench/...`` for ours."""
    path = filename.replace("\\", "/")
    if path.startswith(str(BENCH_DIR)):
        return "perfbench/" + path[len(str(BENCH_DIR)) + 1:]
    index = path.rfind("/repro/")
    if index >= 0 and path.endswith(".py"):
        return path[index + 1:]
    return None


def fixed_layer(func: tuple) -> str | None:
    """The layer of a profiled function, or None when it depends on the
    caller (the standard library, stepper runtime helpers)."""
    filename, _, name = func
    if filename.startswith(GENERATED_STEPPER):
        return "stepc.step"
    path = _source_path(filename)
    if path is None or path == STEPC_MODULE:
        return None
    if path.startswith("perfbench/"):
        return "bench.tracing" if path == "perfbench/tracing.py" \
            else "bench.driver"
    layer = FUNCTION_LAYERS.get((path, name))
    if layer is not None:
        return layer
    for prefix, layer in MODULE_LAYERS:
        if path.startswith(prefix):
            return layer
    return "repro.other"


class Attribution:
    """Self time per layer from one ``cProfile`` run."""

    def __init__(self, profile) -> None:
        self.stats = pstats.Stats(profile).stats
        self._dist: dict[tuple, dict[str, float]] = {}
        self.layers: dict[str, float] = defaultdict(float)
        for func, (_, _, tt, _, callers) in self.stats.items():
            for layer, share in self._self_shares(func, callers).items():
                self.layers[layer] += tt * share

    def _edge(self, func: tuple, caller: tuple) -> dict[str, float]:
        """Where *func*'s time goes when *caller* called it."""
        layer = fixed_layer(func)
        if layer is not None:
            return {layer: 1.0}
        dist = self._caller_dist(caller)
        if _source_path(func[0]) == STEPC_MODULE:
            step = dist.get("stepc.step", 0.0)
            return {"stepc.step": step, "stepc.build": 1.0 - step}
        return dist

    def _caller_dist(self, func: tuple) -> dict[str, float]:
        layer = fixed_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in self._dist:
            return self._dist[func]
        self._dist[func] = {"python.other": 1.0}  # breaks call cycles
        entry = self.stats.get(func)
        callers = entry[4] if entry else {}
        dist = self._self_shares(func, callers, weight=3)
        self._dist[func] = dist
        return dist

    def _self_shares(self, func, callers, weight: int = 2):
        """Layer shares of *func*'s time, split over its callers by the
        time each edge contributed (self time, or total for callers)."""
        layer = fixed_layer(func)
        if layer is not None:
            return {layer: 1.0}
        edges = [(c, v[weight]) for c, v in callers.items()]
        whole = sum(w for _, w in edges)
        if whole <= 0:
            edges = [(c, 1.0) for c, _ in edges]
            whole = float(len(edges))
        if not edges:
            return {"python.other": 1.0}
        shares: dict[str, float] = defaultdict(float)
        for caller, w in edges:
            for layer, share in self._edge(func, caller).items():
                shares[layer] += share * w / whole
        return shares

    def calls(self, filename_prefix: str, name: str) -> int:
        """Calls of functions called *name* whose file name starts with
        *filename_prefix* (or whose source path equals it)."""
        return sum(
            entry[1] for (filename, _, fname), entry in self.stats.items()
            if fname == name and (
                filename.startswith(filename_prefix)
                or (_source_path(filename) or "") == filename_prefix
            )
        )


def layer_metrics(setup: Phase, traced: Phase, attribution: Attribution,
                  gc_clock: GcClock, traced_pass_s: float,
                  untraced_pass_s: float) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``: set-up layers from
    the traced set-up, the rest from the one traced pass.  Every verify
    pass translates and loads steppers again in its fresh engines, so
    those two layers also report their traced-pass totals."""
    counts = traced.counts
    layers = attribution.layers
    explore_s = traced.total("explore.explore")
    hits = counts["farm.cache.hits"]
    lookups = hits + counts["farm.cache.misses"]
    claimed = sum(
        seconds for layer, seconds in layers.items() if layer not in UNNAMED
    )
    return {
        "lang.check_s": setup.total("lang.check"),
        "lang.levels": setup.counts["lang.levels"],
        "machine.translate_s": setup.total("machine.translate"),
        "stepc.compile_s": setup.total("stepc.compile"),
        "stepc.steppers": setup.counts["stepc.steppers"],
        "machine.translate_pass_s": traced.total("machine.translate"),
        "stepc.compile_pass_s": traced.total("stepc.compile"),
        "stepc.step_s": layers["stepc.step"],
        "stepc.step_calls": attribution.calls(
            GENERATED_STEPPER, "enabled_and_next"
        ),
        "state.hash_eq_s": layers["state.hash_eq"],
        "explore.explore_s": explore_s,
        "explore.states": counts["explore.states"],
        "explore.transitions": counts["explore.transitions"],
        "explore.states_per_s": (
            counts["explore.states"] / explore_s if explore_s else 0.0
        ),
        "por.ample_s": layers["por"],
        "por.ample_states": counts["por.ample_states"],
        "por.transitions_pruned": counts["por.transitions_pruned"],
        "engine.proofs": counts["engine.proofs"],
        "engine.obligations": counts["engine.obligations"],
        "strategies.generate_s": traced.total("strategies.generate"),
        "prover.prove_s": traced.total("prover.prove"),
        "prover.calls": traced.calls("prover.prove"),
        "explore.sweep_s": traced.total("explore.sweep"),
        "explore.sweeps": traced.calls("explore.sweep"),
        "farm.discharge_s": traced.total("farm.discharge"),
        "farm.cache.hits": hits,
        "farm.cache.misses": counts["farm.cache.misses"],
        "farm.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "farm.cache.get_s": traced.total("farm.cache.get"),
        "farm.cache.put_s": traced.total("farm.cache.put"),
        "refine.check_s": traced.total("refine.check"),
        "refine.product_states": counts["refine.product_states"],
        "refine.closure_s": layers["refine.closure"],
        "refine.closure_calls": attribution.calls(
            "repro/explore/refinement_check.py", "_stutter_closure"
        ),
        "machine.step_s": traced.total("machine.step"),
        "machine.step_calls": traced.calls("machine.step"),
        "python.gc_s": gc_clock.seconds,
        "python.gc_collections": gc_clock.collections,
        "trace.pass_s": traced_pass_s,
        "trace.untraced_pass_s": untraced_pass_s,
        "trace.overhead": traced_pass_s / untraced_pass_s,
        "trace.unclaimed_share": max(0.0, 1.0 - claimed / traced_pass_s),
    }
