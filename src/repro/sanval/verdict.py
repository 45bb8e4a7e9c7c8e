"""Verdict engine: classify sanitizer behavior against two ground truths.

A sanitizer's report on a program variant is judged against (1) the
interprocedural UB oracle and (2) the ten-implementation differential
verdict, never against intuition.  The classification per
``(sanitizer, variant)`` pair follows UBfuzz's taxonomy:

* **TP** — the sanitizer fired and the finding is corroborated (an
  oracle-confirmed checker in the sanitizer's scope, or the variant
  actually diverges across implementations);
* **FN** — the oracle *confirms* in-scope UB **and** the differential
  engine diverges on the variant, yet the sanitizer stays silent: a
  missed detection with double ground truth behind it;
* **FP** — the sanitizer fires on a screened good twin (no confirmed
  oracle finding, no divergence): a report with no UB behind it;
* **TN** — silence on a clean variant, or silence on UB outside the
  sanitizer's documented scope (ASan is not *wrong* for ignoring a
  signed overflow).

Scope is mediated by :data:`ORACLE_KIND_SCOPE`, the bridge between the
oracle's checker ids and the sanitizers' report kinds.  Every verdict
carries its full evidence chain — oracle diagnostic fingerprints, the
culprit implementation pair and partition from the differential engine,
and the sanitizer's own (bridged) diagnostics — so a banked FN/FP is
reproducible from the record alone.

The module also ships the two reduction predicates the campaign plugs
into the PR 6 delta-debugging reducer: :class:`SanitizerStillSilent`
pins an FN (oracle still confirms, engine still diverges, sanitizer
still silent) and :class:`SanitizerStillFires` pins an FP (sanitizer
still reports the same kind on a still-clean, still-stable program).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bisect import choose_bisection_pair
from repro.core.compdiff import CompDiff
from repro.generative.reducer import Candidate
from repro.minic import load
from repro.sanitizers import Sanitizer, all_sanitizers
from repro.static_analysis.diagnostics import (
    Diagnostic,
    diagnostic_sort_key,
    from_sanitizer_finding,
    to_diagnostics,
)
from repro.static_analysis.ub_oracle import CONFIRMED, UBOracle

#: UB-oracle checker id -> sanitizer report kinds that cover it.  The
#: inverse direction (kind -> checker) is derivable; keys missing here
#: (eval_order, pointer_cmp, ...) have no sanitizer analog, matching the
#: paper's Table 1 scope discussion.
ORACLE_KIND_SCOPE = {
    "oob_access": (
        "stack-buffer-overflow",
        "heap-buffer-overflow",
        "global-buffer-overflow",
    ),
    "use_after_free": ("heap-use-after-free",),
    "double_free": ("double-free",),
    "bad_free": ("bad-free",),
    "signed_overflow": ("signed-integer-overflow",),
    "div_zero": ("division-by-zero",),
    "shift_ub": ("invalid-shift",),
    "null_deref": ("null-pointer-dereference",),
    "uninit_read": ("use-of-uninitialized-value",),
}

TP = "TP"
FN = "FN"
FP = "FP"
TN = "TN"

#: All outcomes in scoreboard column order.
OUTCOMES = (TP, FN, FP, TN)


def expected_kinds(confirmed_checkers, sanitizer: Sanitizer) -> tuple[str, ...]:
    """Report kinds *sanitizer* should emit for the confirmed checkers."""
    kinds = {
        kind
        for checker in confirmed_checkers
        for kind in ORACLE_KIND_SCOPE.get(checker, ())
        if kind in sanitizer.detects
    }
    return tuple(sorted(kinds))


@dataclass(frozen=True)
class GroundTruth:
    """Oracle + differential evidence for one program variant."""

    #: Engine verdict over the campaign inputs.
    divergent: bool
    #: Canonical implementation partition ((one group) when stable).
    partition: tuple[tuple[str, ...], ...]
    #: Culprit implementation pair of the divergence ("" when stable).
    impl_ref: str
    impl_target: str
    #: Oracle checkers confirmed on this variant, sorted.
    confirmed_checkers: tuple[str, ...]
    #: Fingerprints of the confirmed oracle diagnostics, sorted.
    oracle_fingerprints: tuple[str, ...]
    #: Line of the first confirmed finding (0 when clean) — the carry
    #: relocation focuses on this site.
    line: int
    #: False when the oracle's solver budget ran out somewhere.
    converged: bool

    def to_json(self) -> dict:
        return {
            "divergent": self.divergent,
            "partition": [list(group) for group in self.partition],
            "impl_ref": self.impl_ref,
            "impl_target": self.impl_target,
            "confirmed_checkers": list(self.confirmed_checkers),
            "oracle_fingerprints": list(self.oracle_fingerprints),
            "line": self.line,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class SanVerdict:
    """One classified (sanitizer, variant) outcome with evidence."""

    sanitizer: str
    #: Seed label (fixture id, corpus key, or generator seed).
    seed: str
    #: Relocation kind ("identity" for the untransformed program).
    variant: str
    #: "bad" (UB side) or "good" (stabilized twin).
    role: str
    outcome: str
    #: Kinds the sanitizer was expected to report (FN evidence).
    expected: tuple[str, ...]
    #: What the sanitizer actually reported, bridged to Diagnostics.
    reported: tuple[Diagnostic, ...]
    truth: GroundTruth
    source: str
    #: Campaign inputs the variant was judged over (repro drivers).
    inputs: tuple[bytes, ...] = ()

    @property
    def reported_kinds(self) -> tuple[str, ...]:
        return tuple(sorted({d.checker for d in self.reported}))

    def to_json(self) -> dict:
        return {
            "sanitizer": self.sanitizer,
            "seed": self.seed,
            "variant": self.variant,
            "role": self.role,
            "outcome": self.outcome,
            "expected": list(self.expected),
            "reported": [d.to_json() for d in self.reported],
            "truth": self.truth.to_json(),
            "inputs_hex": [i.hex() for i in self.inputs],
        }

    def render(self) -> str:
        evidence = []
        if self.expected:
            evidence.append(f"expected {','.join(self.expected)}")
        if self.reported_kinds:
            evidence.append(f"reported {','.join(self.reported_kinds)}")
        if self.truth.impl_ref:
            evidence.append(f"culprits {self.truth.impl_ref} vs {self.truth.impl_target}")
        if self.truth.oracle_fingerprints:
            evidence.append(f"oracle {','.join(self.truth.oracle_fingerprints)}")
        detail = f" ({'; '.join(evidence)})" if evidence else ""
        return f"{self.outcome:<2} {self.sanitizer:<5} {self.seed}/{self.variant}{detail}"


class VerdictEngine:
    """Runs the sanitizers over variants and classifies each outcome."""

    def __init__(
        self,
        engine: CompDiff,
        oracle: UBOracle | None = None,
        sanitizers: list[Sanitizer] | None = None,
    ) -> None:
        self.engine = engine
        self.oracle = oracle if oracle is not None else UBOracle(mode="interproc")
        self.sanitizers = sanitizers if sanitizers is not None else all_sanitizers()

    # ------------------------------------------------------------ ground truth

    def ground_truth(self, source: str, inputs: list[bytes], name: str = "sanval") -> GroundTruth:
        """Establish both ground truths for one variant."""
        program = load(source)
        report = self.oracle.report(program, name=name)
        confirmed = [f for f in report.findings if f.confidence == CONFIRMED]
        diagnostics = to_diagnostics(confirmed)
        outcome = self.engine.check(program, inputs, name=name)
        if outcome.divergent:
            diff = next(d for d in outcome.diffs if d.divergent)
            partition = diff.partition
            impl_ref, impl_target = choose_bisection_pair(diff)
        else:
            names = sorted(impl.name for impl in self.engine.implementations)
            partition = (tuple(names),)
            impl_ref = impl_target = ""
        line = min((d.line for d in diagnostics), default=0)
        return GroundTruth(
            divergent=outcome.divergent,
            partition=partition,
            impl_ref=impl_ref,
            impl_target=impl_target,
            confirmed_checkers=tuple(sorted({d.checker for d in diagnostics})),
            oracle_fingerprints=tuple(sorted(d.fingerprint for d in diagnostics)),
            line=line,
            converged=report.converged,
        )

    # ----------------------------------------------------------- classification

    def judge_bad(
        self,
        source: str,
        inputs: list[bytes],
        seed: str,
        variant: str = "identity",
        truth: GroundTruth | None = None,
        name: str = "sanval",
    ) -> list[SanVerdict]:
        """Classify every sanitizer on a UB-side variant."""
        if truth is None:
            truth = self.ground_truth(source, inputs, name=name)
        program = load(source)
        verdicts = []
        for sanitizer in self.sanitizers:
            findings = sanitizer.check_all(program, inputs, name=name)
            reported = tuple(
                sorted(
                    (from_sanitizer_finding(f) for f in findings),
                    key=diagnostic_sort_key,
                )
            )
            expected = expected_kinds(truth.confirmed_checkers, sanitizer)
            if reported:
                outcome = TP if (expected or truth.divergent) else FP
            else:
                outcome = FN if (expected and truth.divergent) else TN
            verdicts.append(
                SanVerdict(
                    sanitizer=sanitizer.name,
                    seed=seed,
                    variant=variant,
                    role="bad",
                    outcome=outcome,
                    expected=expected,
                    reported=reported,
                    truth=truth,
                    source=source,
                    inputs=tuple(inputs),
                )
            )
        return verdicts

    def judge_good(
        self,
        source: str,
        inputs: list[bytes],
        seed: str,
        variant: str = "identity",
        truth: GroundTruth | None = None,
        name: str = "sanval",
    ) -> list[SanVerdict] | None:
        """Classify every sanitizer on a good twin; None if it fails the screen.

        The twin must be genuinely clean — no *confirmed* oracle finding
        and no divergence — before sanitizer silence counts as TN and a
        report counts as FP.  (POSSIBLE-confidence findings do not fail
        the screen: a conservative warning on a stable, unconfirmed
        program is exactly what the FP column exists to measure.)
        """
        if truth is None:
            truth = self.ground_truth(source, inputs, name=name)
        if truth.confirmed_checkers or truth.divergent:
            return None
        program = load(source)
        verdicts = []
        for sanitizer in self.sanitizers:
            findings = sanitizer.check_all(program, inputs, name=name)
            reported = tuple(
                sorted(
                    (from_sanitizer_finding(f) for f in findings),
                    key=diagnostic_sort_key,
                )
            )
            verdicts.append(
                SanVerdict(
                    sanitizer=sanitizer.name,
                    seed=seed,
                    variant=variant,
                    role="good",
                    outcome=FP if reported else TN,
                    expected=(),
                    reported=reported,
                    truth=truth,
                    source=source,
                    inputs=tuple(inputs),
                )
            )
        return verdicts


# --------------------------------------------------------------------------
# Reduction predicates (plug into repro.generative.reducer.Reducer)
# --------------------------------------------------------------------------


@dataclass
class SanitizerStillSilent:
    """FN-pinning predicate: evidence chain intact, sanitizer still silent.

    A candidate stays interesting only while (1) the sanitizer emits no
    report on it, (2) the oracle still *confirms* at least one of the
    pinned checkers, and (3) the differential engine still diverges.
    Checks run cheapest-first; the differential question is last, asked
    of :meth:`CompDiff.diverges`.
    """

    sanitizer: Sanitizer
    engine: CompDiff
    oracle: UBOracle
    inputs: list[bytes]
    #: Oracle checkers pinned from the original FN (any one suffices).
    checkers: frozenset[str]
    name: str = "sanval-reduce"

    def __call__(self, candidate: Candidate) -> bool:
        program = candidate.program
        if self.sanitizer.check_all(program, self.inputs, name=self.name):
            return False
        report = self.oracle.report(program, name=self.name)
        confirmed = {f.checker for f in report.findings if f.confidence == CONFIRMED}
        if not (confirmed & self.checkers):
            return False
        return self.engine.diverges(program, self.inputs, name=self.name)


@dataclass
class SanitizerStillFires:
    """FP-pinning predicate: still fires the kind on a still-clean program."""

    sanitizer: Sanitizer
    engine: CompDiff
    oracle: UBOracle
    inputs: list[bytes]
    #: The report kind pinned from the original FP.
    kind: str
    name: str = "sanval-reduce"

    def __call__(self, candidate: Candidate) -> bool:
        program = candidate.program
        findings = self.sanitizer.check_all(program, self.inputs, name=self.name)
        if not any(f.kind == self.kind for f in findings):
            return False
        report = self.oracle.report(program, name=self.name)
        if any(f.confidence == CONFIRMED for f in report.findings):
            return False
        return not self.engine.diverges(program, self.inputs, name=self.name)
