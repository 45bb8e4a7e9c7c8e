"""Reducer correctness suite: monotone, idempotent, and actually small.

The committed fixtures are multi-function divergent programs (generator
output, checked in as stable bytes).  The invariants pinned here:

* **monotone** — every accepted step's snapshot still satisfies the
  interestingness predicate (re-verified from the recorded trace, not
  trusted from the engine);
* **idempotent at fixpoint** — re-reducing a fixpoint accepts nothing
  and returns the same bytes;
* **effective** — the planted multi-function divergences reduce to at
  most 25 % of the original AST node count;
* **budgeted** — ``step_budget`` caps accepted steps and reports the
  reduction as not-at-fixpoint;
* **parsed once** — the reducer parses a candidate text once per test
  of it, and the predicate's oracle question parses nothing.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

import repro.core.compdiff
import repro.generative.reducer
from repro.core.compdiff import CompDiff
from repro.errors import ReproError
from repro.generative import Candidate, Reducer, StillDiverges
from repro.generative.reducer import single_step_variants
from repro.minic import load
from repro.parallel.cache import program_fingerprint

pytestmark = [pytest.mark.generative, pytest.mark.slow]

FIXTURES = Path(__file__).parent / "fixtures" / "generative"

#: Satellite bound: planted divergences reduce to <= 25% of the nodes.
MAX_REDUCTION_RATIO = 0.25


@pytest.fixture(scope="module")
def engine():
    return CompDiff()


def interesting(predicate, source: str) -> bool:
    return predicate(Candidate.parse(source))


@pytest.fixture(scope="module", params=["planted_overflow_chain.c",
                                        "planted_interproc_uninit.c"])
def reduced(request, engine):
    """Reduce one committed fixture once; tests share the result.

    The reduction runs with ``load`` counted where the reducer and the
    engine look it up, and with the predicate's calls counted: the third
    item maps ``"reducer"``, ``"compdiff"`` and ``"tested"`` to a Counter
    of texts."""
    source = (FIXTURES / request.param).read_text()
    assert len(load(source).functions()) >= 3, "fixture must be multi-function"
    predicate = StillDiverges(engine, [b""], name=request.param)
    assert interesting(predicate, source), "fixture must diverge as committed"
    parsed = {"reducer": Counter(), "compdiff": Counter(), "tested": Counter()}

    def tested(candidate):
        parsed["tested"][candidate.source] += 1
        return predicate(candidate)

    def counted(module, key):
        original = module.load

        def load_counted(text, *args, **kwargs):
            parsed[key][text] += 1
            return original(text, *args, **kwargs)

        return load_counted

    with pytest.MonkeyPatch.context() as patch:
        for module, key in ((repro.generative.reducer, "reducer"),
                            (repro.core.compdiff, "compdiff")):
            patch.setattr(module, "load", counted(module, key))
        result = Reducer(tested).reduce(source)
    return predicate, result, parsed


def test_reduction_reaches_fixpoint_and_bound(reduced):
    predicate, result, _parsed = reduced
    assert result.reached_fixpoint
    assert result.steps, "a planted divergence must admit some reduction"
    assert interesting(predicate, result.reduced_source)
    assert result.reduced_nodes <= MAX_REDUCTION_RATIO * result.original_nodes, (
        f"only reduced {result.original_nodes} -> {result.reduced_nodes} nodes"
    )


def test_reduction_is_monotone(reduced):
    """Every accepted snapshot independently satisfies the predicate,
    and node counts never increase along the trace."""
    predicate, result, _parsed = reduced
    nodes = result.original_nodes
    for step in result.steps:
        assert step.nodes_after <= step.nodes_before <= nodes
        nodes = step.nodes_after
        assert interesting(predicate, step.source), f"non-monotone step: {step.description}"
    assert result.steps[-1].source == result.reduced_source


def test_each_text_is_parsed_once_per_test(reduced, request):
    """Candidates travel as parsed ASTs: the reducer parses a text once
    per predicate test of it (once if it never parses), and the oracle
    question parses nothing."""
    _predicate, result, parsed = reduced
    reducer, tested = parsed["reducer"], parsed["tested"]
    assert sum(tested.values()) == result.tests_run + 1
    overparsed = {
        text: count for text, count in reducer.items() if count > max(tested[text], 1)
    }
    assert not overparsed, f"{len(overparsed)} texts parsed more often than tested"
    if "planted_overflow_chain.c" in request.node.name:
        assert sum(reducer.values()) <= len(reducer) + 1
    assert not parsed["compdiff"], "diverges re-parsed the candidate text"


def test_reduction_is_idempotent_at_fixpoint(reduced):
    predicate, result, _parsed = reduced
    again = Reducer(predicate).reduce(result.reduced_source)
    assert again.steps == []
    assert again.reached_fixpoint
    assert again.reduced_source == result.reduced_source


def test_step_budget_bounds_accepted_steps(engine):
    source = (FIXTURES / "planted_overflow_chain.c").read_text()
    predicate = StillDiverges(engine, [b""], name="budget")
    result = Reducer(predicate, step_budget=2).reduce(source)
    assert len(result.steps) == 2
    assert not result.reached_fixpoint
    assert interesting(predicate, result.reduced_source)


def test_uninteresting_start_is_rejected(engine):
    predicate = StillDiverges(engine, [b""], name="stable")
    with pytest.raises(ReproError):
        Reducer(predicate).reduce("int main(void) { return 0; }\n")


def test_unparsable_text_never_reaches_the_predicate():
    assert Reducer._apply("int main(void { broken") is None
    assert Reducer._apply("int main(void) { return 0; }\n") is not None


def test_single_step_variants_are_valid_programs():
    """Every candidate the reducer can propose re-parses and re-checks,
    and carries the AST its own text parses to."""
    source = (FIXTURES / "planted_overflow_chain.c").read_text()
    count = 0
    for candidate in single_step_variants(source):
        assert isinstance(candidate, Candidate)
        assert candidate.source != source
        assert program_fingerprint(candidate.program) == program_fingerprint(
            load(candidate.source)
        )
        count += 1
        if count >= 40:
            break
    assert count >= 10, "fixture must admit a rich candidate set"

