"""Checking a program never mutates its AST.

The reducer hands each candidate's checked AST to the interestingness
predicate and, once the candidate is accepted, enumerates its next
sweep over that same AST; the good-twin screens likewise run several
checks over one parsed variant.  That is sound only while every check
treats the AST as read-only.  Pinned here with
:func:`~repro.parallel.cache.program_fingerprint` (a pickle digest of the
whole tree) before and after each check, over the sanitizer-validation
fixtures and every fifth golden-corpus program.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.compdiff import CompDiff
from repro.minic import load
from repro.parallel.cache import program_fingerprint
from repro.sanitizers import all_sanitizers
from repro.static_analysis.ub_oracle import UBOracle
from tests.test_golden_ir import _golden_corpus

pytestmark = pytest.mark.slow

SANVAL_FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "sanval"


def _programs() -> dict[str, str]:
    programs = {
        f"sanval/{path.name}": path.read_text()
        for path in sorted(SANVAL_FIXTURES.glob("*.c"))
    }
    golden = sorted(_golden_corpus().items())
    programs.update(golden[::5])
    return programs


PROGRAMS = _programs()


@pytest.fixture(scope="module")
def engine():
    with CompDiff() as compdiff:
        yield compdiff


def _checks(engine):
    """Every check a predicate or a good-twin screen runs on an AST."""
    yield "diverges", lambda program: engine.diverges(program, [b""])
    yield "check", lambda program: engine.check(program, [b""])
    for sanitizer in all_sanitizers():
        yield f"{sanitizer.name}.check_all", (
            lambda program, sanitizer=sanitizer: sanitizer.check_all(program, [b""])
        )
    for mode in ("intra", "interproc"):
        yield f"oracle-{mode}", (
            lambda program, oracle=UBOracle(mode=mode): oracle.report(program)
        )


@pytest.mark.parametrize("key", sorted(PROGRAMS), ids=lambda key: key.replace("/", "-"))
def test_checks_leave_the_ast_unchanged(engine, key):
    program = load(PROGRAMS[key])
    for label, check in _checks(engine):
        before = program_fingerprint(program)
        check(program)
        assert program_fingerprint(program) == before, f"{label} mutated {key}"
