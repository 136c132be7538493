"""Refinement (simulation) checking between two state machines.

Implements the paper's refinement notion (§3.1.3): "An implementation
refines the specification if every finite behavior of the implementation
may, with the addition of stuttering steps, simulate a finite behavior
of the specification where corresponding state pairs are in R."

The check is the classical subset construction for stuttering trace
inclusion over finite systems: we pair each reachable low-level state
with the *set* of high-level states it might correspond to.  On each
low-level transition, the high-level set is advanced through its
bounded stutter closure and filtered by R; an empty set is a refinement
counterexample.

The stutter closure depends only on the high-level set, so one check
keeps three memo tables and drops them on return: the successors of
each high state (expanded at most once), the closure of each distinct
high-state set, and the successors of each low state.  Both sides step
through the interpreter; DESIGN.md ("Whole-program refinement check")
records why the compiled stepper is not used here.

R is automatically strengthened with the undefined-behaviour conjunct of
§3.2.3: "if the low-level program exhibits undefined behavior, then the
high-level program does."
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.machine.program import StateMachine
from repro.machine.state import ProgramState, TERM_UB
from repro.obs import OBS

#: A refinement relation: R(low_state, high_state) -> bool.
RefinementRelation = Callable[[ProgramState, ProgramState], bool]


def log_prefix_relation(low: ProgramState, high: ProgramState) -> bool:
    """The default R: the low-level console log is a prefix of the
    high-level one while running, and equal at normal termination
    (the paper's running-example relation, §2)."""
    if low.termination is not None and low.termination.kind == "normal":
        if not (high.termination is not None
                and high.termination.kind == "normal"):
            return False
        return low.log == high.log
    n = len(low.log)
    return high.log[:n] == low.log or low.log[: len(high.log)] == high.log


def log_equal_relation(low: ProgramState, high: ProgramState) -> bool:
    """A stricter R: logs agree exactly at every corresponding pair."""
    return low.log == high.log


def with_ub_conjunct(relation: RefinementRelation) -> RefinementRelation:
    """Strengthen R with the automatic UB conjunct (§3.2.3)."""

    def strengthened(low: ProgramState, high: ProgramState) -> bool:
        low_ub = (
            low.termination is not None and low.termination.kind == TERM_UB
        )
        if low_ub:
            high_ub = (
                high.termination is not None
                and high.termination.kind == TERM_UB
            )
            if not high_ub:
                return False
            return True
        return relation(low, high)

    return strengthened


@dataclass
class RefinementCounterexample:
    low_state: ProgramState
    description: str
    #: The low-level transition sequence from the initial state to the
    #: unsimulatable step (inclusive), for diagnosis.
    trace: tuple = ()

    def format_trace(self) -> str:
        if not self.trace:
            return "(no trace)"
        return " ; ".join(t.describe() for t in self.trace)


@dataclass
class RefinementResult:
    holds: bool
    product_states: int = 0
    counterexample: RefinementCounterexample | None = None
    hit_budget: bool = False
    #: High-level states whose successors were computed (each once).
    high_expansions: int = 0
    #: Stutter-closure lookups answered from / added to the memo table.
    closure_hits: int = 0
    closure_misses: int = 0
    #: Evaluations of the (UB-strengthened) refinement relation.
    relation_calls: int = 0

    def __bool__(self) -> bool:
        return self.holds


def _stutter_closure(
    machine: StateMachine,
    states: frozenset[ProgramState],
    max_stutter: int,
    successors: dict[ProgramState, tuple[ProgramState, ...]],
) -> frozenset[ProgramState]:
    """All states reachable from *states* in at most *max_stutter*
    high-level steps (including zero).  *successors* memoizes each
    state's one-step successors and is filled in as states are
    expanded, so a state is expanded at most once per table."""
    closure = set(states)
    frontier = list(states)
    for _ in range(max_stutter):
        new_frontier = []
        for state in frontier:
            if state.termination is not None:
                continue
            nexts = successors.get(state)
            if nexts is None:
                nexts = successors[state] = tuple(
                    machine.next_state(state, transition)
                    for transition in machine.enabled_transitions(state)
                )
            for nxt in nexts:
                if nxt not in closure:
                    closure.add(nxt)
                    new_frontier.append(nxt)
        if not new_frontier:
            break
        frontier = new_frontier
    return frozenset(closure)


def check_refinement(
    low: StateMachine,
    high: StateMachine,
    relation: RefinementRelation | None = None,
    max_stutter: int = 8,
    max_product_states: int = 1_000_000,
) -> RefinementResult:
    """Check that *low* refines *high* under *relation* (default: the
    log-prefix relation), with the UB conjunct added automatically."""
    base = relation if relation is not None else log_prefix_relation
    R = with_ub_conjunct(base)
    if not OBS.enabled:
        return _check(low, high, R, max_stutter, max_product_states)
    with OBS.span("refine", "phase", low=low.level_name,
                  high=high.level_name):
        result = _check(low, high, R, max_stutter, max_product_states)
        OBS.count("refine.product_states", result.product_states)
        OBS.count("refine.high_expansions", result.high_expansions)
        OBS.count("refine.closure_hits", result.closure_hits)
        OBS.count("refine.closure_misses", result.closure_misses)
        OBS.count("refine.relation_calls", result.relation_calls)
        return result


def _check(
    low: StateMachine,
    high: StateMachine,
    R: RefinementRelation,
    max_stutter: int,
    max_product_states: int,
) -> RefinementResult:
    # The three memo tables live for this one check only: each high
    # state is expanded once, each distinct high-state set gets one
    # stutter closure, and each low state is expanded once.
    high_successors: dict[ProgramState, tuple[ProgramState, ...]] = {}
    closures: dict[frozenset, frozenset] = {}
    low_moves: dict[ProgramState, tuple] = {}
    closure_hits = 0

    low_init = low.initial_state()
    high_start = frozenset([high.initial_state()])
    high_universe = closures[high_start] = _stutter_closure(
        high, high_start, max_stutter, high_successors
    )
    relation_calls = len(high_universe)
    initial_set = frozenset(h for h in high_universe if R(low_init, h))

    # BFS over the product (low state, high-state set), with parent
    # pointers instead of per-entry trace tuples: the first path to any
    # product state is a shortest one, so counterexample traces are
    # minimal, and trace storage is O(states), not O(states * depth).
    init_key = (low_init, initial_set)
    parents: dict[tuple, tuple[tuple, object] | None] = {init_key: None}
    frontier: deque[tuple[ProgramState, frozenset]] = deque()
    product_states = 0
    hit_budget = False
    failure = None
    if initial_set:
        frontier.append(init_key)
    else:
        failure = RefinementCounterexample(
            low_init, "initial states are not related by R"
        )

    while frontier and failure is None:
        key = frontier.popleft()
        low_state, high_set = key
        product_states += 1
        if low_state.termination is not None:
            continue
        moves = low_moves.get(low_state)
        if moves is None:
            moves = low_moves[low_state] = tuple(
                (transition, low.next_state(low_state, transition))
                for transition in low.enabled_transitions(low_state)
            )
        if not moves:
            continue
        closure = closures.get(high_set)
        if closure is None:
            closure = closures[high_set] = _stutter_closure(
                high, high_set, max_stutter, high_successors
            )
        else:
            closure_hits += 1
        for transition, next_low in moves:
            relation_calls += len(closure)
            next_high = frozenset(h for h in closure if R(next_low, h))
            if not next_high:
                failure = RefinementCounterexample(
                    next_low,
                    "no high-level state simulates low-level "
                    f"transition {transition.describe()}",
                    _product_trace(parents, key) + (transition,),
                )
                break
            next_key = (next_low, next_high)
            if next_key in parents:
                continue
            if len(parents) >= max_product_states:
                # Honest truncation: the budget is a hard bound on the
                # number of admitted product states, and hitting it is
                # always reported as a failed (inconclusive) check.
                hit_budget = True
                failure = RefinementCounterexample(
                    next_low,
                    "product state budget exhausted",
                    _product_trace(parents, key) + (transition,),
                )
                break
            parents[next_key] = (key, transition)
            frontier.append(next_key)
    return RefinementResult(
        holds=failure is None,
        product_states=product_states,
        counterexample=failure,
        hit_budget=hit_budget,
        high_expansions=len(high_successors),
        closure_hits=closure_hits,
        closure_misses=len(closures),
        relation_calls=relation_calls,
    )


def _product_trace(parents: dict, key: tuple) -> tuple:
    """Low-level transitions from the initial product state to *key*."""
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
