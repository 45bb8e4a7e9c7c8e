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
  reduction as not-at-fixpoint.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.compdiff import CompDiff
from repro.errors import ReproError
from repro.generative import Reducer, StillDiverges
from repro.generative.reducer import single_step_variants
from repro.minic import count_nodes, load

pytestmark = [pytest.mark.generative, pytest.mark.slow]

FIXTURES = Path(__file__).parent / "fixtures" / "generative"

#: Satellite bound: planted divergences reduce to <= 25% of the nodes.
MAX_REDUCTION_RATIO = 0.25


@pytest.fixture(scope="module")
def engine():
    return CompDiff()


@pytest.fixture(scope="module", params=["planted_overflow_chain.c",
                                        "planted_interproc_uninit.c"])
def reduced(request, engine):
    """Reduce one committed fixture once; tests share the result."""
    source = (FIXTURES / request.param).read_text()
    assert len(load(source).functions()) >= 3, "fixture must be multi-function"
    predicate = StillDiverges(engine, [b""], name=request.param)
    assert predicate(source), "fixture must diverge as committed"
    result = Reducer(predicate).reduce(source)
    return predicate, result


def test_reduction_reaches_fixpoint_and_bound(reduced):
    predicate, result = reduced
    assert result.reached_fixpoint
    assert result.steps, "a planted divergence must admit some reduction"
    assert predicate(result.reduced_source)
    assert result.reduced_nodes <= MAX_REDUCTION_RATIO * result.original_nodes, (
        f"only reduced {result.original_nodes} -> {result.reduced_nodes} nodes"
    )


def test_reduction_is_monotone(reduced):
    """Every accepted snapshot independently satisfies the predicate,
    and node counts never increase along the trace."""
    predicate, result = reduced
    nodes = result.original_nodes
    for step in result.steps:
        assert step.nodes_after <= step.nodes_before <= nodes
        nodes = step.nodes_after
        assert predicate(step.source), f"non-monotone step: {step.description}"
    assert result.steps[-1].source == result.reduced_source


def test_reduction_is_idempotent_at_fixpoint(reduced):
    predicate, result = reduced
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
    assert predicate(result.reduced_source)


def test_uninteresting_start_is_rejected(engine):
    predicate = StillDiverges(engine, [b""], name="stable")
    with pytest.raises(ReproError):
        Reducer(predicate).reduce("int main(void) { return 0; }\n")


def test_single_step_variants_are_valid_programs():
    """Every candidate the reducer can propose re-parses and re-checks."""
    source = (FIXTURES / "planted_overflow_chain.c").read_text()
    count = 0
    for candidate in single_step_variants(source):
        load(candidate)
        count += 1
        if count >= 40:
            break
    assert count >= 10, "fixture must admit a rich candidate set"

