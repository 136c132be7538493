"""The three benchmark workloads: set-up, one timed pass, answer check.

Every workload calls ``repro``'s public entry points the way the
``armada`` command line does, with the option values read from the
CLI's own parser (``build_parser``) rather than copied here.  Two
options are pinned because the benchmark must stay one single-threaded
process: ``--shard-workers 0`` and ``--jobs 1``.

A workload object is built after ``import repro``; :meth:`setup` does
everything a user pays before the first verdict (front end,
translation, compiled-stepper generation into the empty per-run cache,
a tiny warm-up that finishes lazy imports) and :meth:`run_pass` is one
timed operation.  ``run_pass`` returns the list of known-answer
mismatches; an empty list is a correct pass.
"""

from __future__ import annotations

import shutil
import tempfile

from repro.casestudies import load
from repro.cli import build_parser
from repro.compiler.stepc import stepper_for
from repro.farm import FarmConfig, VerificationFarm
from repro.farm.exploration import run_exploration
from repro.lang.frontend import check_program
from repro.machine.translator import translate_level
from repro.proofs.engine import ProofEngine

#: The serve benchmark's two-level lock counter (one ``weakening``
#: proof, 119 product states under whole-program validation).
LOCK_LEVEL = """
level L%d {
  var counter: uint32;
  var mutex: uint64;
  var done: uint32;
  void worker() {
    var i: uint32;
    i := 0;
    while (i < 1) {
      lock(&mutex);
      counter := counter + 1;
      unlock(&mutex);
      i := i + 1;
    }
  }
  void main() {
    var t1: uint64;
    var t2: uint64;
    t1 := create_thread worker();
    t2 := create_thread worker();
    join(t1);
    join(t2);
    done := 1;
    print_uint32(counter);
  }
}
"""

LOCK_PAIR = (
    LOCK_LEVEL % 0 + LOCK_LEVEL % 1
    + "proof LockCounterWeakening { refinement L0 L1 weakening }\n"
)


def _off_by_one_pair() -> str:
    """A deliberately non-refining pair: the running example's
    implementation against a copy whose best-length update stores
    ``len + 1``.  The printed result differs, so the whole-program
    check must refute the proof with a counterexample trace."""
    impl = dict(load("tsp").levels)["Implementation"]
    buggy = impl.replace("level Implementation", "level OffByOne").replace(
        "best_len := len;", "best_len := len + 1;"
    )
    if buggy.count("OffByOne") != 1 or "len + 1" not in buggy:
        raise RuntimeError("tsp Implementation level changed shape")
    return (
        impl + buggy
        + "proof OffByOneWeakening {\n"
        "  refinement Implementation OffByOne\n  weakening\n}\n"
    )


def cli_defaults(*argv: str):
    """Option values of ``armada <argv> <file>`` as the parser fills
    them in, with the process-count options pinned to one process."""
    command, *flags = argv
    opts = build_parser().parse_args([command, "<benchmark>", *flags])
    if hasattr(opts, "shard_workers"):
        opts.shard_workers = 0
    if hasattr(opts, "jobs"):
        opts.jobs = 1
    return opts


def outcome_rows(result) -> dict:
    """An exploration's verdicts in the shape ``answers.json`` stores:
    final outcomes, UB reasons, assert failures, invariant violations
    and whether the state budget cut the search."""
    return {
        "outcomes": sorted(
            [kind, [str(v) for v in log]]
            for kind, log in result.final_outcomes
        ),
        "ub": sorted(result.ub_reasons),
        "assert_failures": result.assert_failures,
        "violations": sorted(v.invariant_name for v in result.violations),
        "hit_state_budget": result.hit_state_budget,
    }


class Workload:
    name = ""

    def __init__(self, answers: dict, scratch: str) -> None:
        self.answers = answers[self.name]
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> list[str]:
        raise NotImplementedError


class ExploreWorkload(Workload):
    """``armada explore`` with its default options over the two
    largest queue levels."""

    name = "explore"
    LEVELS = ("QueueNondet", "QueueHideElements")

    def setup(self) -> None:
        self.opts = cli_defaults("explore")
        checked = check_program(load("queue").source, "<queue>")
        self.machines = {
            level: translate_level(
                checked.contexts[level], memory_model=self.opts.memory_model
            )
            for level in self.LEVELS
        }
        if self.opts.compiled:
            for machine in self.machines.values():
                stepper_for(machine)
        # Warm-up on the running example's small implementation level:
        # finishes the explorer's lazy imports without touching the
        # measured machines.
        tiny = check_program(load("tsp").source, "<tsp>")
        self.explore(translate_level(
            tiny.contexts["Implementation"],
            memory_model=self.opts.memory_model,
        ))

    def explore(self, machine):
        opts = self.opts
        # The same flag folding as ``armada explore``.
        por = opts.por and not opts.dpor and opts.shard_workers <= 1
        result, _ = run_exploration(
            machine,
            max_states=opts.max_states,
            por=por,
            dpor=opts.dpor,
            symmetry=opts.symmetry,
            atomic=opts.atomic,
            shard_workers=opts.shard_workers,
            compiled=opts.compiled,
        )
        return result

    def run_pass(self) -> list[str]:
        mismatches = []
        for level in self.LEVELS:
            got = outcome_rows(self.explore(self.machines[level]))
            want = self.answers[level]
            for key, value in want.items():
                if got[key] != value:
                    mismatches.append(
                        f"{level}: {key} is {got[key]!r}, expected {value!r}"
                    )
        return mismatches


class _VerifyWorkload(Workload):
    """Shared plumbing of the two ``armada verify`` workloads."""

    argv: tuple[str, ...] = ("verify",)

    def programs(self) -> dict[str, str]:
        raise NotImplementedError

    def setup(self) -> None:
        self.opts = cli_defaults(*self.argv)
        self.checked = {
            name: check_program(source, f"<{name}>")
            for name, source in self.programs().items()
        }
        # Translate every level and generate its compiled stepper once,
        # filling the run's empty stepper cache as a first ``armada
        # verify`` would; each pass then translates again in its own
        # engine and loads the generated source from that cache.
        for checked in self.checked.values():
            engine = self.engine(checked, None)
            for level in checked.program.levels:
                machine = engine.machine(level.name)
                if self.opts.compiled:
                    stepper_for(machine)
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def engine(self, checked, farm) -> ProofEngine:
        opts = self.opts
        return ProofEngine(
            checked,
            max_states=opts.max_states,
            validate_refinement=opts.validate,
            farm=farm,
            analyze=opts.analyze,
            por=opts.por,
            memory_model=opts.memory_model,
            compiled=opts.compiled,
            atomic=opts.atomic,
        )

    def verify(self, checked, cache_dir: str):
        opts = self.opts
        farm = VerificationFarm(FarmConfig(
            jobs=opts.jobs,
            mode=opts.farm_mode,
            cache_dir=cache_dir,
            cache_max_bytes=opts.cache_max_bytes,
            obligation_timeout=opts.obligation_timeout,
            chain_deadline=opts.chain_deadline,
            max_retries=opts.max_retries,
        ))
        try:
            return self.engine(checked, farm).run_all()
        finally:
            farm.close()

    def fresh_cache(self) -> str:
        return tempfile.mkdtemp(prefix="proof-cache-", dir=self.scratch)


class VerifyWorkload(_VerifyWorkload):
    """``armada verify`` with its defaults on all five case-study
    chains: cold into an empty proof cache, then warm from it."""

    name = "verify"
    CHAINS = ("tsp", "barrier", "pointers", "mcslock", "queue")

    def programs(self) -> dict[str, str]:
        return {name: load(name).source for name in self.CHAINS}

    def warm_up(self) -> None:
        # The smallest chain (one proof), cold then warm, so the first
        # timed pass pays no lazy import of the prover or the cache.
        cache = self.fresh_cache()
        try:
            for _ in range(2):
                self.verify(self.checked["pointers"], cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def run_pass(self) -> list[str]:
        mismatches = []
        cache = self.fresh_cache()
        try:
            for phase in ("cold", "warm"):
                for name in self.checked:
                    outcome = self.verify(self.checked[name], cache)
                    mismatches += [
                        f"{phase} {name}: {problem}"
                        for problem in self.check(name, outcome)
                    ]
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return mismatches

    def check(self, name: str, outcome) -> list[str]:
        want = self.answers[name]
        problems = []
        got = {
            r.proof_name: "verified" if r.success
            else "inconclusive" if r.inconclusive else "failed"
            for r in outcome.outcomes
        }
        if got != want["proofs"]:
            problems.append(f"proofs {got}, expected {want['proofs']}")
        if list(outcome.chain) != want["chain"]:
            problems.append(
                f"chain {outcome.chain} ({outcome.chain_error}), "
                f"expected {want['chain']}"
            )
        return problems


class ValidateWorkload(_VerifyWorkload):
    """``armada verify --validate always``: every proof also runs the
    whole-program refinement check."""

    name = "validate"
    argv = ("verify", "--validate", "always")

    def programs(self) -> dict[str, str]:
        return {
            "lock_counter": LOCK_PAIR,
            "barrier": load("barrier").source,
            "tsp": load("tsp").source,
            "tsp_off_by_one": _off_by_one_pair(),
        }

    def warm_up(self) -> None:
        # The refuted pair is the cheapest program here (27 product
        # states); one untimed run finishes the refinement check's
        # lazy imports.
        cache = self.fresh_cache()
        try:
            self.verify(self.checked["tsp_off_by_one"], cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def run_pass(self) -> list[str]:
        mismatches = []
        cache = self.fresh_cache()
        try:
            for name in self.checked:
                outcome = self.verify(self.checked[name], cache)
                for result in outcome.outcomes:
                    problem = self.check(result, self.answers[name])
                    if problem:
                        mismatches.append(
                            f"{name}/{result.proof_name}: {problem}"
                        )
                missing = set(self.answers[name]) - {
                    r.proof_name for r in outcome.outcomes
                }
                mismatches += [f"{name}/{p}: not run" for p in missing]
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return mismatches

    @staticmethod
    def check(result, answers: dict) -> str | None:
        want = answers.get(result.proof_name)
        if want is None:
            return "unexpected proof"
        if not result.refinement_checked:
            return "whole-program refinement check did not run"
        if want == "holds":
            return None if result.success else f"failed: {result.error}"
        # "refuted": the whole-program check must fail with a trace.
        if result.success or result.inconclusive:
            return f"expected refuted, got {result.status}"
        lemmas = {
            lemma.name: lemma
            for lemma in (result.script.lemmas if result.script else [])
        }
        check = lemmas.get("WholeProgramRefinement")
        if check is None or check.verdict is None \
                or check.verdict.status != "refuted" \
                or not check.verdict.counterexample:
            return "refinement check did not refute with a counterexample"
        if not any("counterexample trace:" in line for line in check.body):
            return "refutation carries no counterexample trace"
        return None


WORKLOADS = {
    cls.name: cls
    for cls in (ExploreWorkload, VerifyWorkload, ValidateWorkload)
}
