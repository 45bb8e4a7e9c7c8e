"""Verdict engine + evidence chains + SanitizerFinding diagnostics bridge."""

from __future__ import annotations

import pathlib

import pytest

from repro.core.compdiff import CompDiff
from repro.generative.reducer import Candidate
from repro.sanitizers import AddressSanitizer, UndefinedBehaviorSanitizer
from repro.sanitizers.base import SanitizerFinding
from repro.sanval import (
    FN,
    FP,
    ORACLE_KIND_SCOPE,
    TN,
    TP,
    SanitizerStillFires,
    SanitizerStillSilent,
    VerdictEngine,
    expected_kinds,
)
from repro.static_analysis import (
    SANITIZER_KIND_CATEGORY,
    Baseline,
    from_sanitizer_finding,
    to_diagnostics,
    to_sarif,
    validate_sarif,
)
from repro.static_analysis.ub_oracle import UBOracle

pytestmark = pytest.mark.sanval

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "sanval"


@pytest.fixture(scope="module")
def engine():
    compdiff = CompDiff()
    yield VerdictEngine(compdiff)
    compdiff.close()


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def candidate(name: str) -> Candidate:
    return Candidate.parse(fixture(name))


def by_sanitizer(verdicts):
    return {v.sanitizer: v for v in verdicts}


class TestClassification:
    def test_planted_asan_fn(self, engine):
        verdicts = by_sanitizer(
            engine.judge_bad(fixture("asan_far_oob.c"), [b""], seed="asan_far_oob")
        )
        assert verdicts["asan"].outcome == FN
        assert "stack-buffer-overflow" in verdicts["asan"].expected
        # Out-of-scope sanitizers are not blamed for the miss.
        assert verdicts["ubsan"].outcome == TN
        assert verdicts["msan"].outcome == TN

    def test_planted_msan_fn(self, engine):
        verdicts = by_sanitizer(
            engine.judge_bad(fixture("msan_value_flow.c"), [b""], seed="msan_value_flow")
        )
        assert verdicts["msan"].outcome == FN
        assert verdicts["msan"].expected == ("use-of-uninitialized-value",)

    def test_ubsan_tp_on_overflow(self, engine):
        verdicts = by_sanitizer(
            engine.judge_bad(fixture("ubsan_scope.c"), [b""], seed="ubsan_scope")
        )
        assert verdicts["ubsan"].outcome == TP
        assert verdicts["ubsan"].reported_kinds == ("signed-integer-overflow",)

    def test_planted_ubsan_fp_on_clean_twin(self, engine):
        verdicts = engine.judge_good(
            fixture("ubsan_scope.good.c"), [b""], seed="ubsan_scope"
        )
        assert verdicts is not None
        table = by_sanitizer(verdicts)
        assert table["ubsan"].outcome == FP
        assert table["ubsan"].reported_kinds == ("function-type-mismatch",)
        assert table["asan"].outcome == TN

    def test_good_screen_rejects_ub_program(self, engine):
        # The bad side carries a confirmed finding + divergence: the
        # cleanliness screen must refuse to treat it as a twin.
        assert engine.judge_good(fixture("asan_far_oob.c"), [b""], seed="x") is None


class TestEvidenceChain:
    def test_fn_verdict_carries_both_ground_truths(self, engine):
        verdict = by_sanitizer(
            engine.judge_bad(fixture("asan_far_oob.c"), [b""], seed="asan_far_oob")
        )["asan"]
        truth = verdict.truth
        assert truth.divergent
        assert truth.confirmed_checkers == ("oob_access",)
        assert len(truth.oracle_fingerprints) == 1
        assert truth.impl_ref and truth.impl_target
        assert truth.impl_ref != truth.impl_target
        assert len(truth.partition) >= 2
        assert truth.line == 8

    def test_stable_truth_has_single_group_no_culprits(self, engine):
        truth = engine.ground_truth(fixture("ubsan_scope.good.c"), [b""])
        assert not truth.divergent
        assert len(truth.partition) == 1
        assert truth.impl_ref == "" and truth.impl_target == ""

    def test_verdict_json_roundtrips(self, engine):
        verdict = by_sanitizer(
            engine.judge_bad(fixture("msan_value_flow.c"), [b""], seed="s")
        )["msan"]
        payload = verdict.to_json()
        assert payload["outcome"] == FN
        assert payload["truth"]["confirmed_checkers"] == ["uninit_read"]
        assert payload["inputs_hex"] == [""]


class TestScopeMap:
    def test_every_scoped_kind_is_a_documented_detect(self):
        from repro.sanitizers import all_sanitizers

        documented = set()
        for sanitizer in all_sanitizers():
            documented |= sanitizer.detects
        for kinds in ORACLE_KIND_SCOPE.values():
            for kind in kinds:
                assert kind in documented

    def test_expected_kinds_filters_by_sanitizer_scope(self):
        asan = AddressSanitizer()
        ubsan = UndefinedBehaviorSanitizer()
        assert expected_kinds(("signed_overflow",), asan) == ()
        assert expected_kinds(("signed_overflow",), ubsan) == (
            "signed-integer-overflow",
        )
        assert expected_kinds(("eval_order",), ubsan) == ()


class TestDiagnosticsBridge:
    def test_sanitizer_finding_bridges_to_diagnostic(self):
        finding = SanitizerFinding(
            tool="asan",
            kind="heap-buffer-overflow",
            line=7,
            detail="write of 1 byte at 0x7f001234",
            input=b"",
        )
        diag = from_sanitizer_finding(finding)
        assert diag.tool == "asan"
        assert diag.checker == "heap-buffer-overflow"
        assert diag.category == "MemError"
        assert diag.severity == "error"
        assert "0x?" in diag.message and "0x7f001234" not in diag.message

    def test_fingerprint_is_address_and_line_independent(self):
        a = SanitizerFinding("asan", "heap-use-after-free", 7, "read at 0xdead", b"")
        b = SanitizerFinding("asan", "heap-use-after-free", 42, "read at 0xbeef", b"")
        assert from_sanitizer_finding(a).fingerprint == from_sanitizer_finding(b).fingerprint

    def test_to_diagnostics_accepts_sanitizer_findings(self):
        finding = SanitizerFinding("msan", "use-of-uninitialized-value", 3, "", b"")
        diags = to_diagnostics([finding])
        assert len(diags) == 1
        assert diags[0].category == "UninitMem"

    def test_every_detect_kind_has_a_category(self):
        from repro.sanitizers import all_sanitizers

        for sanitizer in all_sanitizers():
            for kind in sanitizer.detects:
                assert kind in SANITIZER_KIND_CATEGORY

    def test_bridged_reports_ride_sarif_and_baseline(self):
        finding = SanitizerFinding("ubsan", "division-by-zero", 4, "div at 0x10", b"")
        diags = to_diagnostics([finding])
        document = to_sarif(diags, artifact_uri="sanval")
        assert validate_sarif(document) == []
        baseline = Baseline.from_diagnostics(diags)
        assert baseline.filter(diags) == []


class TestReductionPredicates:
    def test_still_silent_holds_on_planted_fn(self, engine):
        predicate = SanitizerStillSilent(
            sanitizer=AddressSanitizer(),
            engine=engine.engine,
            oracle=UBOracle(mode="interproc"),
            inputs=[b""],
            checkers=frozenset({"oob_access"}),
        )
        assert predicate(candidate("asan_far_oob.c"))
        # The good twin has no confirmed oob and no divergence.
        assert not predicate(candidate("asan_far_oob.good.c"))

    def test_still_fires_holds_on_planted_fp(self, engine):
        predicate = SanitizerStillFires(
            sanitizer=UndefinedBehaviorSanitizer(),
            engine=engine.engine,
            oracle=UBOracle(mode="interproc"),
            inputs=[b""],
            kind="function-type-mismatch",
        )
        assert predicate(candidate("ubsan_scope.good.c"))
        # The overflow program fires a different kind and is confirmed-UB.
        assert not predicate(candidate("ubsan_scope.c"))
