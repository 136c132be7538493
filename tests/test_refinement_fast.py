"""Differential test: the memoized whole-program refinement check
against the un-memoized one it replaced.

:func:`oracle_check_refinement` below is the earlier check kept
verbatim as a slow oracle: it recomputes the high-level stutter
closure for every low-level transition and re-expands every high state
it meets.  The memoized :func:`check_refinement` must agree with it
exactly — verdict, ``product_states``, ``hit_budget``, counterexample
description and the (shortest) counterexample trace — on every
case-study proof the ``validate`` benchmark checks, on the refuted
off-by-one pair, under budget truncation, and on generated programs.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings

from repro.casestudies import load
from repro.cli import main
from repro.explore.refinement_check import (
    RefinementCounterexample,
    RefinementResult,
    check_refinement,
    log_prefix_relation,
    with_ub_conjunct,
)
from repro.lang.frontend import check_level, check_program
from repro.machine.translator import translate_level
from repro.obs import OBS, aggregate_file
from repro.proofs.engine import ProofEngine
from repro.proofs.refinement import relation_from_recipe
from tests.test_fuzz_differential import (
    _single_thread_program,
    _two_thread_program,
)
from tests.test_serve import SLOW_LEVEL

# ----------------------------------------------------------------------
# The slow oracle: the un-memoized interpreted check, verbatim.


def _stutter_closure(machine, states, max_stutter):
    """All states reachable from *states* in at most *max_stutter*
    high-level steps (including zero)."""
    closure = set(states)
    frontier = list(states)
    for _ in range(max_stutter):
        new_frontier = []
        for state in frontier:
            if state.termination is not None:
                continue
            for transition in machine.enabled_transitions(state):
                nxt = machine.next_state(state, transition)
                if nxt not in closure:
                    closure.add(nxt)
                    new_frontier.append(nxt)
        if not new_frontier:
            break
        frontier = new_frontier
    return frozenset(closure)


def oracle_check_refinement(
    low,
    high,
    relation=None,
    max_stutter=8,
    max_product_states=1_000_000,
):
    base = relation if relation is not None else log_prefix_relation
    R = with_ub_conjunct(base)

    low_init = low.initial_state()
    high_init = high.initial_state()
    high_universe = _stutter_closure(
        high, frozenset([high_init]), max_stutter
    )
    initial_set = frozenset(h for h in high_universe if R(low_init, h))
    if not initial_set:
        return RefinementResult(
            holds=False,
            counterexample=RefinementCounterexample(
                low_init, "initial states are not related by R"
            ),
        )

    init_key = (low_init, initial_set)
    parents = {init_key: None}
    frontier = deque((init_key,))
    product_states = 0

    while frontier:
        key = frontier.popleft()
        low_state, high_set = key
        product_states += 1
        if low_state.termination is not None:
            continue
        for transition in low.enabled_transitions(low_state):
            next_low = low.next_state(low_state, transition)
            closure = _stutter_closure(high, high_set, max_stutter)
            next_high = frozenset(
                h for h in closure if R(next_low, h)
            )
            if not next_high:
                return RefinementResult(
                    holds=False,
                    product_states=product_states,
                    counterexample=RefinementCounterexample(
                        next_low,
                        "no high-level state simulates low-level "
                        f"transition {transition.describe()}",
                        _product_trace(parents, key) + (transition,),
                    ),
                )
            next_key = (next_low, next_high)
            if next_key in parents:
                continue
            if len(parents) >= max_product_states:
                return RefinementResult(
                    holds=False,
                    product_states=product_states,
                    hit_budget=True,
                    counterexample=RefinementCounterexample(
                        next_low,
                        "product state budget exhausted",
                        _product_trace(parents, key) + (transition,),
                    ),
                )
            parents[next_key] = (key, transition)
            frontier.append(next_key)
    return RefinementResult(holds=True, product_states=product_states)


def _product_trace(parents, key):
    trace = []
    current = key
    while True:
        entry = parents[current]
        if entry is None:
            break
        current, transition = entry
        trace.append(transition)
    trace.reverse()
    return tuple(trace)


# ----------------------------------------------------------------------
# Fixtures: the proofs the validate benchmark checks.

#: The serve benchmark's two-level lock counter (one weakening proof).
LOCK_PAIR = (
    SLOW_LEVEL % 0 + SLOW_LEVEL % 1
    + "proof LockCounterWeakening { refinement L0 L1 weakening }\n"
)


def _off_by_one_pair() -> str:
    """The tsp implementation against a copy that stores ``len + 1``
    as the best length: the printed result differs, so the check must
    refute the pair."""
    impl = dict(load("tsp").levels)["Implementation"]
    buggy = impl.replace("level Implementation", "level OffByOne").replace(
        "best_len := len;", "best_len := len + 1;"
    )
    assert buggy.count("OffByOne") == 1 and "len + 1" in buggy
    return (
        impl + buggy
        + "proof OffByOneWeakening {\n"
        "  refinement Implementation OffByOne\n  weakening\n}\n"
    )


def _pairs(source: str) -> dict:
    """proof name -> (low machine, high machine, recipe relation)."""
    checked = check_program(source)
    engine = ProofEngine(checked)
    pairs = {}
    for proof in checked.program.proofs:
        relation = relation_from_recipe(
            proof,
            checked.contexts[proof.low_level],
            checked.contexts[proof.high_level],
        )
        pairs[proof.name] = (
            engine.machine(proof.low_level),
            engine.machine(proof.high_level),
            relation,
        )
    return pairs


_SOURCES = {
    "lock_counter": lambda: LOCK_PAIR,
    "tsp": lambda: load("tsp").source,
    "barrier": lambda: load("barrier").source,
    "pointers": lambda: load("pointers").source,
    "tsp_off_by_one": _off_by_one_pair,
}

_PAIR_CACHE: dict[str, dict] = {}


def _study_pairs(name: str) -> dict:
    if name not in _PAIR_CACHE:
        _PAIR_CACHE[name] = _pairs(_SOURCES[name]())
    return _PAIR_CACHE[name]


def _fingerprint(result: RefinementResult) -> tuple:
    example = result.counterexample
    return (
        result.holds,
        result.product_states,
        result.hit_budget,
        None if example is None else example.description,
        None if example is None else example.format_trace(),
    )


def assert_agree(low, high, relation=None, **kwargs) -> RefinementResult:
    fast = check_refinement(low, high, relation, **kwargs)
    slow = oracle_check_refinement(low, high, relation, **kwargs)
    assert _fingerprint(fast) == _fingerprint(slow)
    return fast


# ----------------------------------------------------------------------


# (study, proof) -> expected verdict, so a silent change of the fixture
# cannot turn the comparison into one between two trivial checks.
STUDY_PROOFS = {
    ("lock_counter", "LockCounterWeakening"): True,
    ("tsp", "ImplementationRefinesArbitraryGuard"): True,
    ("tsp", "ArbitraryGuardRefinesBestLenSequential"): True,
    ("barrier", "BarrierIntroducesGhosts"): True,
    ("barrier", "BarrierCementsSafety"): True,
    ("tsp_off_by_one", "OffByOneWeakening"): False,
}


@pytest.mark.parametrize(
    "study,proof", sorted(STUDY_PROOFS), ids=lambda v: str(v)
)
def test_case_study_pairs_agree(study, proof):
    low, high, relation = _study_pairs(study)[proof]
    result = assert_agree(low, high, relation)
    assert result.holds is STUDY_PROOFS[(study, proof)]
    assert result.product_states > 0
    if not result.holds:
        assert result.counterexample.trace


def test_pointers_pairs_agree():
    pairs = _study_pairs("pointers")
    assert pairs
    for low, high, relation in pairs.values():
        assert assert_agree(low, high, relation).product_states > 0


@pytest.mark.parametrize("budget", [5, 30])
def test_budget_truncation_agrees(budget):
    low, high, relation = _study_pairs("lock_counter")[
        "LockCounterWeakening"
    ]
    result = assert_agree(low, high, relation, max_product_states=budget)
    assert result.hit_budget
    assert not result.holds


def test_memo_tables_are_used():
    low, high, relation = _study_pairs("lock_counter")[
        "LockCounterWeakening"
    ]
    result = check_refinement(low, high, relation)
    assert result.high_expansions > 0
    assert result.closure_misses > 0
    assert result.closure_hits > 0
    assert result.relation_calls > 0


def test_counters_reach_the_trace(tmp_path):
    low, high, relation = _study_pairs("lock_counter")[
        "LockCounterWeakening"
    ]
    path = tmp_path / "trace.jsonl"
    OBS.enable(path)
    try:
        result = check_refinement(low, high, relation)
    finally:
        OBS.disable()
    stats = aggregate_file(str(path))
    assert stats.counters["refine.product_states"] == result.product_states
    assert stats.counters["refine.high_expansions"] == \
        result.high_expansions
    assert stats.counters["refine.closure_hits"] == result.closure_hits
    assert stats.counters["refine.closure_misses"] == result.closure_misses
    assert stats.counters["refine.relation_calls"] == result.relation_calls
    assert [row["phase"] for row in stats.phases] == ["refine"]
    assert "refinement checks: 1" in stats.render_text()


def test_verify_prints_the_counterexample_trace(tmp_path, capsys):
    program = tmp_path / "off_by_one.arm"
    program.write_text(_off_by_one_pair())
    assert main([
        "verify", str(program), "--validate", "always", "--no-cache",
    ]) == 1
    out = capsys.readouterr().out
    assert "OffByOneWeakening [weakening]: FAILED" in out
    low, high, relation = _study_pairs("tsp_off_by_one")[
        "OffByOneWeakening"
    ]
    trace = check_refinement(low, high, relation).counterexample
    assert f"  counterexample trace: {trace.format_trace()}\n" in out


def _printed_value_changed(source: str) -> str:
    """The same program with its last print off by an xor."""
    head, sep, tail = source.rpartition("print_uint32(")
    argument, close, rest = tail.partition(")")
    assert sep and close, source
    return f"{head}{sep}{argument} ^ 1{close}{rest}"


def _machine(source: str):
    return translate_level(check_level(source))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(source=_single_thread_program())
def test_generated_single_thread_programs_agree(source):
    assert assert_agree(_machine(source), _machine(source)).holds, source
    changed = _printed_value_changed(source)
    result = assert_agree(_machine(source), _machine(changed))
    assert not result.holds, source


@settings(max_examples=8, derandomize=True, deadline=None)
@given(source=_two_thread_program())
def test_generated_two_thread_programs_agree(source):
    assert assert_agree(_machine(source), _machine(source)).holds, source
    changed = _printed_value_changed(source)
    assert_agree(_machine(source), _machine(changed))
    assert_agree(_machine(changed), _machine(source))
