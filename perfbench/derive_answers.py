"""Regenerate ``answers.json``, the benchmark's known answers.

Run from the repository root::

    PYTHONPATH=src:perfbench python3 perfbench/derive_answers.py

* ``explore``: the verdicts (final outcomes, UB reasons, assert
  failures, invariant violations, budget cut) of each explored level
  under the slow oracle: the interpreter with full fan-out, no
  reduction and no compiled stepper.  State counts are not stored: a
  change of the default reduction may legitimately alter them.
* ``verify``: every proof of every case-study chain verifies and the
  chain composes from the first level to the last, as the paper
  reports.
* ``validate``: the refining pairs hold under whole-program checking;
  the deliberately broken pair is refuted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.casestudies import load
from repro.farm.exploration import run_exploration
from repro.lang.frontend import check_program
from repro.machine.translator import translate_level

from workloads import (
    ExploreWorkload, VerifyWorkload, cli_defaults, outcome_rows,
)

ANSWERS = Path(__file__).resolve().parent / "answers.json"


def explore_answers() -> dict:
    opts = cli_defaults("explore")
    checked = check_program(load("queue").source, "<queue>")
    answers = {}
    for level in ExploreWorkload.LEVELS:
        machine = translate_level(
            checked.contexts[level], memory_model=opts.memory_model
        )
        result, _ = run_exploration(
            machine, max_states=10_000_000, por=False, compiled=False
        )
        answers[level] = outcome_rows(result)
    return answers


def verify_answers() -> dict:
    answers = {}
    for name in VerifyWorkload.CHAINS:
        study = load(name)
        answers[name] = {
            "proofs": {proof: "verified" for proof, _ in study.recipes},
            "chain": [level for level, _ in study.levels],
        }
    return answers


def validate_answers() -> dict:
    return {
        "lock_counter": {"LockCounterWeakening": "holds"},
        "barrier": {proof: "holds" for proof, _ in load("barrier").recipes},
        "tsp": {proof: "holds" for proof, _ in load("tsp").recipes},
        "tsp_off_by_one": {"OffByOneWeakening": "refuted"},
    }


def main() -> int:
    answers = {
        "explore": explore_answers(),
        "verify": verify_answers(),
        "validate": validate_answers(),
    }
    ANSWERS.write_text(json.dumps(answers, indent=2, sort_keys=True) + "\n")
    print(f"wrote {ANSWERS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
