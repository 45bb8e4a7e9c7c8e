"""Behavior-preservation gates for the pass-manager refactor.

Two committed golden-digest files pin the compiler's output over the
example + Juliet seed corpus for all ten implementations:

* ``tests/golden/ir_digests_tworound.json`` — captured from the
  **pre-refactor** pipeline (hardcoded two-round loop).  The refactored
  manager must reproduce it byte-for-byte when the fixpoint bound is
  pinned to 2 (``pipeline_for(config, max_fixpoint_rounds=2)``): the
  declarative machinery itself is an exact refactor.
* ``tests/golden/ir_digests.json`` — the standard (change-driven,
  converging) pipeline.  The only intentional semantic change is the
  round bound; the idempotence and observation-equivalence tests below
  show the extra rounds are pure additional optimization.

A third file, ``tests/golden/pass_schedules.json``, pins the standard
pipeline's *schedule* over the same corpus: one digest per (program,
implementation) of the rows ``(pass_name, scope, target, applied,
changed, round)``.  A pass's change count decides when a fixpoint group
stops, so a pass that miscounts changes can run extra rounds (or stop
early) and still land on the same final IR; this file catches that.
Regenerate it, only after an intended change to a pass's change count
or the schedule::

    PYTHONPATH=src python -m tests.test_golden_ir
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.compiler import compile_source
from repro.compiler.implementations import DEFAULT_IMPLEMENTATIONS
from repro.compiler.lowering import lower_program
from repro.compiler.passes import optimize
from repro.compiler.passes.manager import PassBudget, pipeline_for, run_pipeline
from repro.ir.printer import format_module
from repro.juliet import build_suite
from repro.minic import load

pytestmark = pytest.mark.passes

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def _load_examples():
    sys.path.insert(0, str(EXAMPLES_DIR))
    try:
        from unstable_code_gallery import EXAMPLES
        from quickstart import LISTING_1
    finally:
        sys.path.pop(0)
    corpus = {
        f"gallery/{i:02d}": src
        for i, (_, src) in enumerate(sorted(EXAMPLES.items()))
    }
    corpus["quickstart/listing1"] = LISTING_1
    return corpus


def _digest(module) -> str:
    return hashlib.sha256(format_module(module).encode("utf-8")).hexdigest()[:16]


def _schedule_digest(report) -> str:
    rows = [
        [app.pass_name, app.scope, app.target, app.applied, app.changed, app.round]
        for app in report.schedule
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()[:16]


def _golden_corpus():
    golden = json.loads((GOLDEN_DIR / "ir_digests.json").read_text())
    programs = _load_examples()
    suite = build_suite(scale=golden["juliet_scale"], seed=golden["juliet_seed"])
    for case in suite.cases:
        programs[f"juliet/{case.uid}/bad"] = case.bad_source
        programs[f"juliet/{case.uid}/good"] = case.good_source
    return programs


def standard_digests(programs) -> dict[str, dict[str, tuple[str, str]]]:
    """Per program, per implementation: the (IR, schedule) digests of the
    standard pipeline's build."""
    digests: dict[str, dict[str, tuple[str, str]]] = {}
    for key, source in programs.items():
        row = digests[key] = {}
        for config in DEFAULT_IMPLEMENTATIONS:
            binary = compile_source(source, config, name=key)
            row[config.name] = (_digest(binary.module), _schedule_digest(binary.pass_report))
    return digests


@pytest.fixture(scope="module")
def corpus():
    return _golden_corpus()


@pytest.fixture(scope="module")
def standard(corpus):
    return standard_digests(corpus)


class TestGoldenDigests:
    def test_standard_pipeline_matches_committed_digests(self, corpus, standard):
        golden = json.loads((GOLDEN_DIR / "ir_digests.json").read_text())["digests"]
        assert set(golden) == set(corpus)
        mismatches = [
            (key, config.name)
            for key in corpus
            for config in DEFAULT_IMPLEMENTATIONS
            if golden[key][config.name] != standard[key][config.name][0]
        ]
        assert not mismatches, f"{len(mismatches)} drifted: {mismatches[:10]}"

    def test_standard_pipeline_matches_committed_schedules(self, corpus, standard):
        # The schedule, change counts included, not just the final IR.
        golden = json.loads((GOLDEN_DIR / "pass_schedules.json").read_text())
        assert set(golden) == set(corpus)
        mismatches = [
            (key, config.name)
            for key in corpus
            for config in DEFAULT_IMPLEMENTATIONS
            if golden[key][config.name] != standard[key][config.name][1]
        ]
        assert not mismatches, f"{len(mismatches)} drifted: {mismatches[:10]}"

    def test_two_round_pipeline_matches_prerefactor_digests(self, corpus):
        # Byte-identity with the pre-refactor compiler: same prelude, same
        # pass order, same two-round truncation, captured before the
        # manager existed.
        golden = json.loads(
            (GOLDEN_DIR / "ir_digests_tworound.json").read_text()
        )["digests"]
        assert set(golden) == set(corpus)
        mismatches = []
        for key, source in corpus.items():
            program = load(source)
            for config in DEFAULT_IMPLEMENTATIONS:
                budget = PassBudget()
                module = lower_program(program, config, name=key, budget=budget)
                run_pipeline(
                    module, config, budget=budget,
                    pipeline=pipeline_for(config, max_fixpoint_rounds=2),
                )
                if golden[key][config.name] != _digest(module):
                    mismatches.append((key, config.name))
        assert not mismatches, f"{len(mismatches)} drifted: {mismatches[:10]}"


class TestIdempotence:
    def test_optimize_twice_is_identity_on_examples(self):
        # Property: the standard pipeline converges, so a second optimize()
        # pass over its own output changes nothing — for every config over
        # every example program.
        for key, source in _load_examples().items():
            for config in DEFAULT_IMPLEMENTATIONS:
                binary = compile_source(source, config, name=key)
                once = format_module(binary.module)
                optimize(binary.module, config)
                twice = format_module(binary.module)
                assert once == twice, f"{key} not idempotent under {config.name}"


class TestObservationEquivalence:
    def test_convergence_beyond_two_rounds_preserves_output(self):
        # The converged build may differ in IR from the legacy two-round
        # build; it must never differ in observable behavior.
        from repro.compiler.binary import CompiledBinary
        from repro.vm import run_binary

        for key, source in _load_examples().items():
            program = load(source)
            for config in DEFAULT_IMPLEMENTATIONS:
                budget = PassBudget()
                module = lower_program(program, config, name=key, budget=budget)
                run_pipeline(
                    module, config, budget=budget,
                    pipeline=pipeline_for(config, max_fixpoint_rounds=2),
                )
                legacy = run_binary(
                    CompiledBinary(module=module, config=config), b""
                )
                converged = run_binary(compile_source(source, config, name=key), b"")
                assert (
                    legacy.stdout, legacy.exit_code, legacy.status.value
                ) == (
                    converged.stdout, converged.exit_code, converged.status.value
                ), f"{key} behavior changed under {config.name}"


if __name__ == "__main__":
    path = GOLDEN_DIR / "pass_schedules.json"
    schedules = {
        key: {name: digests[1] for name, digests in row.items()}
        for key, row in standard_digests(_golden_corpus()).items()
    }
    path.write_text(json.dumps(schedules, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
