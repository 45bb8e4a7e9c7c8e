"""Lazy oracle questions: ``CompDiff.diverges`` against the full check.

``diverges(program, inputs, partition)`` must always give
``_answer(check(program, inputs), partition)`` while building only the
implementations it needs.  One test pins each exactness rule; the golden
sweep pins the answers over every third program of the 385-program
golden corpus.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.core.compdiff import CompDiff, _answer
from repro.errors import ReproError
from repro.juliet import build_suite
from repro.minic import load
from repro.parallel import CompileCache
from repro.vm import ForkServer

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

#: Uninitialized read: five observation groups under the default set.
UNSTABLE = 'int main(void){ int x; printf("%d\\n", x); return 0; }'
STABLE = 'int main(void){ printf("ok\\n"); return 0; }'
#: Stable on an empty input, unstable on any other.
INPUT_GATED = """
int main(void) {
    int x;
    if (input_size() > 0) {
        printf("%d\\n", x);
    } else {
        printf("ok\\n");
    }
    return 0;
}
"""
#: A fixed loop: -O0 code runs 734 instructions, every optimized build
#: 694, and all print the same line.  At fuel 700 only the -O0 builds
#: time out, and the RQ6 retry lets them finish.
LOOP = """
int main(void) {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 40; i = i + 1) {
        acc = acc + i;
    }
    printf("acc=%d\\n", acc);
    return 0;
}
"""
LOOP_FUEL = 700
#: Fuel for the golden sweep (see the test).
SWEEP_FUEL = 50_000


def _partition(engine: CompDiff, source: str, inputs=(b"",)):
    outcome = engine.check(load(source), list(inputs))
    return next(d for d in outcome.diffs if d.divergent).partition


def _builds(engine: CompDiff) -> int:
    """Implementations built so far, when each build ran one input."""
    return engine.stats.total_executions


def _canonical(groups) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(tuple(sorted(group)) for group in groups if group))


def _perturbed(partition):
    """*partition* one move away: its first implementation leaves its
    group, or, when alone, joins the next group."""
    first = partition[0][0]
    groups = [list(group) for group in partition]
    groups[0].remove(first)
    if groups[0]:
        groups.append([first])
    else:
        groups[1].append(first)
    return _canonical(groups)


@pytest.fixture
def fail_for(monkeypatch):
    """Make compiling (``"compile"``) or running (``"run"``) raise a
    ReproError for one implementation."""

    def install(stage: str, impl: str) -> None:
        if stage == "compile":
            import repro.core.compdiff as compdiff

            real_compile = compdiff.compile_counted

            def compile_counted(program, config, *args, **kwargs):
                if config.name == impl:
                    raise ReproError(f"injected compile failure for {impl}")
                return real_compile(program, config, *args, **kwargs)

            monkeypatch.setattr(compdiff, "compile_counted", compile_counted)
        else:
            real_run = ForkServer.run

            def run(server, *args, **kwargs):
                if server.binary.config.name == impl:
                    raise ReproError(f"injected run failure for {impl}")
                return real_run(server, *args, **kwargs)

            monkeypatch.setattr(ForkServer, "run", run)

    return install


# --------------------------------------------------------------------------
# Answers and counters
# --------------------------------------------------------------------------


def test_questions_count_the_builds_they_skip():
    engine = CompDiff()
    k = len(engine.implementations)
    partition = _partition(CompDiff(), UNSTABLE)
    program = load(UNSTABLE)
    assert engine.diverges(program, [b""]) is True
    assert engine.diverges(program, [b""], partition=partition) is True
    assert engine.diverges(program, [b""], partition=_perturbed(partition)) is False
    questions = engine.stats.snapshot()["questions"]
    assert questions["asked"] == 3
    assert questions["full_checks"] == 0
    assert 0 < _builds(engine) < 3 * k
    assert questions["builds_skipped"] == questions["asked"] * k - _builds(engine)
    assert "oracle questions: asked=3" in engine.stats.render()


def test_anything_diverges_stops_at_the_first_disagreement():
    engine = CompDiff()
    # gcc-O0 and gcc-O1 agree on the uninitialized read; gcc-O2 does not.
    assert engine.diverges(load(UNSTABLE), [b""]) is True
    assert list(engine.stats.exec_counts) == ["gcc-O0", "gcc-O1", "gcc-O2"]
    assert engine.stats.builds_skipped == len(engine.implementations) - 3


def test_pinned_partition_builds_group_leaders_first():
    engine = CompDiff()
    partition = _partition(CompDiff(), UNSTABLE)
    assert engine.diverges(load(UNSTABLE), [b""], partition=partition) is True
    leaders = [group[0] for group in partition]
    rest = [config.name for config in engine.implementations if config.name not in leaders]
    assert list(engine.stats.exec_counts) == leaders + rest


def test_stable_program_agrees_everywhere():
    engine = CompDiff()
    assert engine.diverges(load(STABLE), [b"", b"abc"]) is False
    assert engine.stats.builds_skipped == 0
    assert engine.stats.inputs_checked == 2
    assert engine.diverges(STABLE, [b""]) is False  # source text parses here


# --------------------------------------------------------------------------
# Exactness rules
# --------------------------------------------------------------------------


@pytest.mark.parametrize("pinned", [False, True])
def test_fuel_timeout_falls_back_to_the_full_check(pinned):
    program = load(LOOP)
    outcome = CompDiff(fuel=LOOP_FUEL).check(program, [b""])
    assert outcome.diffs[0].results["gcc-O0"].timed_out is False  # RQ6 retry
    assert not outcome.divergent
    partition = None
    if pinned:
        o0 = ("clang-O0", "gcc-O0")
        names = sorted(config.name for config in CompDiff().implementations)
        partition = (o0, tuple(name for name in names if name not in o0))
    # Both -O0 builds time out on their first run.  Compared as they
    # stand they would split off from the rest, but the RQ6 retry lets
    # them finish and every build agrees.
    engine = CompDiff(fuel=LOOP_FUEL)
    answer = engine.diverges(program, [b""], partition=partition)
    assert answer is False
    assert answer == _answer(outcome, partition)
    assert engine.stats.full_checks == 1
    assert engine.stats.timeout_retries > 0


@pytest.mark.parametrize("stage", ["compile", "run"])
def test_an_early_answer_does_not_wait_for_later_builds(fail_for, stage):
    partition = _partition(CompDiff(), UNSTABLE)
    # clang-Os comes last and fails; the answer is fixed before it.
    fail_for(stage, "clang-Os")
    full = CompDiff().check(load(UNSTABLE), [b""])
    assert full.diffs[0].dropped == ("clang-Os",)
    for question, expected in ((None, True), (_perturbed(partition), False)):
        engine = CompDiff()
        answer = engine.diverges(load(UNSTABLE), [b""], partition=question)
        assert answer is expected
        assert answer == _answer(full, question)
        assert engine.stats.full_checks == 0
        assert engine.stats.builds_skipped > 0


@pytest.mark.parametrize("stage", ["compile", "run"])
def test_a_failed_build_gives_the_degraded_answer(fail_for, stage):
    partition = _partition(CompDiff(), UNSTABLE)
    # Both walks reach gcc-O0 before their answer is fixed.  The full
    # check drops it (k-1), and a nine-way split is not the pinned one.
    fail_for(stage, "gcc-O0")
    engine = CompDiff()
    full = engine.check(load(UNSTABLE), [b""])
    assert full.diffs[0].dropped == ("gcc-O0",)
    assert engine.diverges(load(UNSTABLE), [b""], partition=partition) is False
    assert _answer(full, partition) is False
    assert engine.diverges(load(UNSTABLE), [b""]) is True
    assert engine.stats.full_checks == 2


def test_a_failed_build_raises_what_the_full_check_raises(fail_for):
    fail_for("compile", "gcc-O0")
    pair = tuple(
        config for config in CompDiff().implementations if config.name in ("gcc-O0", "gcc-O2")
    )
    engine = CompDiff(implementations=pair)
    with pytest.raises(ReproError, match="fewer than two implementations"):
        engine.diverges(load(UNSTABLE), [b""])
    assert engine.stats.full_checks == 1


def test_an_input_drops_out_only_once_contradicted():
    engine = CompDiff()
    program = load(INPUT_GATED)
    partition = _partition(CompDiff(), INPUT_GATED, inputs=[b"x"])
    # b"" agrees everywhere and is refuted by the second leader; b"x"
    # still splits the implementations exactly as pinned.
    for inputs in ([b"", b"x"], [b"x", b""]):
        assert engine.diverges(program, inputs, partition=partition) is True
    assert engine.diverges(program, [b"", b"x"]) is True
    assert engine.diverges(program, [b"", b""], partition=partition) is False
    assert engine.stats.full_checks == 0


def test_a_partition_of_one_group_never_holds():
    engine = CompDiff()
    names = tuple(sorted(config.name for config in engine.implementations))
    # Every implementation agrees, which is exactly this one-group
    # partition -- but the full predicate needs a divergence.
    assert engine.diverges(load(STABLE), [b""], partition=(names,)) is False
    assert _answer(CompDiff().check(load(STABLE), [b""]), (names,)) is False
    assert engine.stats.builds_skipped == len(names)
    assert engine.stats.total_executions == 0


def test_a_partition_not_naming_the_implementations_uses_the_full_check():
    engine = CompDiff()
    partition = _partition(CompDiff(), UNSTABLE)
    # Drop a non-leading member of the first group: every group still
    # agrees internally, but the engine's tenth implementation is unnamed.
    partial = (partition[0][:1] + partition[0][2:], *partition[1:])
    unknown = (partition[0] + ("gcc-O9",), *partition[1:])
    full = CompDiff().check(load(UNSTABLE), [b""])
    for question in (partial, unknown):
        assert engine.diverges(load(UNSTABLE), [b""], partition=question) is False
        assert _answer(full, question) is False
    assert engine.stats.full_checks == 2


@pytest.mark.parallel
def test_pooled_engine_answers_from_its_check():
    partition = _partition(CompDiff(), UNSTABLE)
    with CompDiff(workers=2) as engine:
        assert engine.diverges(load(UNSTABLE), [b""], partition=partition) is True
        assert engine.diverges(load(STABLE), [b""]) is False
    assert engine.stats.full_checks == 2
    assert engine.stats.batches >= 2
    assert engine.stats.builds_skipped == 0


# --------------------------------------------------------------------------
# Golden sweep
# --------------------------------------------------------------------------


def _golden_programs() -> dict[str, str]:
    sys.path.insert(0, str(EXAMPLES_DIR))
    try:
        from quickstart import LISTING_1
        from unstable_code_gallery import EXAMPLES
    finally:
        sys.path.pop(0)
    programs = {f"gallery/{i:02d}": src for i, (_, src) in enumerate(sorted(EXAMPLES.items()))}
    programs["quickstart/listing1"] = LISTING_1
    golden = json.loads((GOLDEN_DIR / "ir_digests.json").read_text())
    suite = build_suite(scale=golden["juliet_scale"], seed=golden["juliet_seed"])
    for case in suite.cases:
        programs[f"juliet/{case.uid}/bad"] = case.bad_source
        programs[f"juliet/{case.uid}/good"] = case.good_source
    return programs


@pytest.mark.slow
def test_lazy_answers_match_the_full_check_over_the_golden_corpus():
    programs = _golden_programs()
    assert len(programs) == 385
    # One sampled program (a CWE-190 unsigned-wrap loop) exhausts any
    # fuel; every other one finishes far below SWEEP_FUEL, so the answers
    # are the default fuel's while that program costs a second, not a
    # minute.
    cache = CompileCache(max_entries=64)
    full_engine = CompDiff(compile_cache=cache, fuel=SWEEP_FUEL)
    lazy = CompDiff(compile_cache=cache, fuel=SWEEP_FUEL)
    mismatches = []
    asked = 0
    for key in sorted(programs)[::3]:
        program = load(programs[key])
        outcome = full_engine.check(program, [b""], name=key)
        own = outcome.diffs[0].partition
        for question in (own, _perturbed(own), None):
            asked += 1
            answer = lazy.diverges(program, [b""], partition=question, name=key)
            if answer != _answer(outcome, question):
                mismatches.append((key, question))
    assert asked == 387
    assert not mismatches, mismatches[:5]
    assert lazy.stats.full_checks >= 1  # a TIMEOUT fallback ran
    assert lazy.stats.builds_skipped > 0
