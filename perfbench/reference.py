"""A fixed pure-Python reference workload: the host's speed right now.

On a shared virtual machine the host's speed drifts over minutes: the
same pass of the same program takes 1.5 s in one run and 2.2 s in a run
ten minutes later.  No statistic over a 40 s run removes a drift that
slow.  Each worker therefore times this fixed workload right after every
pass, and ``run.py`` reports the program's times in *reference
seconds*: the measured CPU time, scaled by how much slower or faster
than ``REFERENCE_S`` the reference ran in the same run.  The reference is
code of this benchmark, so a change to the program moves the program's
times and never the reference's.

The work resembles the program's hot paths: a breadth-first search over
small immutable states with cached hashes, set membership and tuple
building.
"""

from __future__ import annotations

import time

#: Nominal CPU time of one reference sample.  Reference seconds are
#: measured seconds times ``REFERENCE_S`` over the run's mean sample.
REFERENCE_S = 0.25
#: Reference CPU time taken after each pass, as a share of the pass's
#: CPU time.  The host's speed also changes within seconds; samples
#: that cover a like share of the same stretch of time as the passes
#: see the same mix of fast and slow moments.
SHARE = 0.5
#: Threads and program counters of the synthetic state space.
THREADS = 4
PCS = 5
CELLS = 6
#: Number of states the search must reach; anything else is a bug.
EXPECTED_STATES = 13352


class _State:
    __slots__ = ("pcs", "mem", "hash")

    def __init__(self, pcs: tuple, mem: tuple) -> None:
        self.pcs = pcs
        self.mem = mem
        self.hash = hash((pcs, mem))

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return self.pcs == other.pcs and self.mem == other.mem


def _search() -> int:
    """Every state of four threads that each step a program counter and
    update one shared cell in an order-dependent way."""
    initial = _State((0,) * THREADS, (0,) * CELLS)
    seen = {initial}
    frontier = [initial]
    while frontier:
        successors = []
        for state in frontier:
            for tid in range(THREADS):
                pc = state.pcs[tid]
                if pc + 1 >= PCS:
                    continue
                cell = (pc + tid) % CELLS
                mem = list(state.mem)
                mem[cell] = (mem[cell] * 2 + tid + 1) % 5
                pcs = state.pcs[:tid] + (pc + 1,) + state.pcs[tid + 1:]
                successor = _State(pcs, tuple(mem))
                if successor not in seen:
                    seen.add(successor)
                    successors.append(successor)
        frontier = successors
    return len(seen)


def sample() -> float:
    """CPU seconds of one reference sample (three searches)."""
    started = time.process_time()
    for _ in range(3):
        states = _search()
        if states != EXPECTED_STATES:
            raise RuntimeError(
                f"reference search reached {states} states, "
                f"expected {EXPECTED_STATES}"
            )
    return time.process_time() - started


def samples_after(pass_cpu_s: float) -> list[float]:
    """Reference samples right after a pass of *pass_cpu_s* CPU
    seconds: at least one, until they add up to ``SHARE`` of it."""
    taken = [sample()]
    while sum(taken) < SHARE * pass_cpu_s:
        taken.append(sample())
    return taken
