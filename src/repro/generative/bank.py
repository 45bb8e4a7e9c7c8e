"""The repro corpus bank: versioned, deduped storage for reduced repros.

A campaign's end product is not a log line — it is a *corpus*: the set
of minimal, still-divergent programs it discovered, banked on disk so
later runs extend it and the precision scoreboard can score the oracle
against found-in-the-wild instabilities, not just planted Juliet flaws.

The layout, loading and writing are :mod:`repro.bank`'s; this module
declares the generative entry, :class:`BankedRepro`.  Each banked repro
is a manifest record plus two program files: the reduced divergent
program and its stabilized, non-divergent twin.

Dedupe is by **equivalence class**, not source text: the corpus key
hashes the fired checker set, the culprit pass (``"baseline"`` when the
divergence predates the pass schedule), and the canonical implementation
partition.  Two seeds that reduce to the same *kind* of instability —
same diagnostics, same attribution, same implementations disagreeing —
bank once.  Exact diagnostic fingerprints stay in the metadata for
drill-down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.bank import Bank
from repro.juliet.generator import TestCase

#: Bisect attribution recorded when divergence predates the pass
#: schedule (front-end/layout difference, ``repro bisect`` status
#: ``baseline_divergent``).
BASELINE_CULPRIT = "baseline"

#: Table 5 category -> precision-corpus group, in priority order: a
#: repro whose reduced form fires checkers in several categories is
#: grouped by the first match.  Repros with *no* surviving diagnostic
#: get group "unclassified", which has no expected categories — they
#: contribute divergence counts to ``repro precision`` but never TP/FN.
CATEGORY_GROUP = (
    ("UninitMem", "uninit"),
    ("PointerCmp", "ptr_sub"),
    ("IntError", "integer_error"),
    ("MemError", "memory_error"),
    ("EvalOrder", "eval_order"),
    ("LINE", "line_macro"),
    ("Misc", "ub"),
)

UNCLASSIFIED_GROUP = "unclassified"


def classify_group(categories: set[str]) -> str:
    """Precision-corpus group for a repro firing *categories*."""
    for category, group in CATEGORY_GROUP:
        if category in categories:
            return group
    return UNCLASSIFIED_GROUP


def corpus_key(
    checkers: set[str] | frozenset[str],
    culprit: str,
    partition: tuple[tuple[str, ...], ...],
) -> str:
    """Dedupe key of a repro's equivalence class (16 hex chars)."""
    checker_sig = ",".join(sorted(checkers))
    partition_sig = ";".join(",".join(group) for group in partition)
    blob = f"{checker_sig}#{culprit}#{partition_sig}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class BankedRepro:
    """One banked equivalence class: sources, attribution, provenance."""

    #: Bank format declaration (:mod:`repro.bank`); bump ``VERSION`` on
    #: incompatible layout changes.
    KIND = "generative"
    LIST_NAME = "repros"
    VERSION = 1
    PROGRAMS = {"source": ".c", "good_source": ".good.c"}

    key: str
    #: Generator provenance (seed regenerates the unreduced original).
    seed: int
    profile: str
    generator_version: int
    ub_shapes: tuple[str, ...]
    #: Reduced divergent program and its stabilized twin.
    source: str
    good_source: str
    inputs: list[bytes]
    #: Checkers the UB oracle fires on the reduced program, and their
    #: exact diagnostic fingerprints (drill-down metadata).
    checkers: tuple[str, ...]
    fingerprints: tuple[str, ...]
    group: str
    #: Canonical implementation partition of the reduced divergence.
    partition: tuple[tuple[str, ...], ...]
    #: Bisection pair pinned from the *original* diff.
    impl_ref: str
    impl_target: str
    #: Pass attribution before and after reduction.  ``culprit_drifted``
    #: records the documented ``repro bisect`` instability: reduction
    #: preserves the divergence *verdict* (the predicate pins it) but
    #: not necessarily its *attribution* — see docs/GENERATIVE.md.
    culprit_original: str = BASELINE_CULPRIT
    culprit_reduced: str = BASELINE_CULPRIT
    culprit_drifted: bool = False
    original_nodes: int = 0
    reduced_nodes: int = 0
    reduction_steps: int = 0
    reduction_tests: int = 0

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "seed": self.seed,
            "profile": self.profile,
            "generator_version": self.generator_version,
            "ub_shapes": list(self.ub_shapes),
            "inputs_hex": [i.hex() for i in self.inputs],
            "checkers": list(self.checkers),
            "fingerprints": list(self.fingerprints),
            "group": self.group,
            "partition": [list(group) for group in self.partition],
            "impl_ref": self.impl_ref,
            "impl_target": self.impl_target,
            "culprit_original": self.culprit_original,
            "culprit_reduced": self.culprit_reduced,
            "culprit_drifted": self.culprit_drifted,
            "original_nodes": self.original_nodes,
            "reduced_nodes": self.reduced_nodes,
            "reduction_steps": self.reduction_steps,
            "reduction_tests": self.reduction_tests,
        }

    @staticmethod
    def from_json(data: dict, source: str, good_source: str) -> "BankedRepro":
        return BankedRepro(
            key=data["key"],
            seed=data["seed"],
            profile=data["profile"],
            generator_version=data["generator_version"],
            ub_shapes=tuple(data["ub_shapes"]),
            source=source,
            good_source=good_source,
            inputs=[bytes.fromhex(i) for i in data["inputs_hex"]],
            checkers=tuple(data["checkers"]),
            fingerprints=tuple(data["fingerprints"]),
            group=data["group"],
            partition=tuple(tuple(group) for group in data["partition"]),
            impl_ref=data["impl_ref"],
            impl_target=data["impl_target"],
            culprit_original=data["culprit_original"],
            culprit_reduced=data["culprit_reduced"],
            culprit_drifted=data["culprit_drifted"],
            original_nodes=data["original_nodes"],
            reduced_nodes=data["reduced_nodes"],
            reduction_steps=data["reduction_steps"],
            reduction_tests=data["reduction_tests"],
        )

    def recompute_key(self) -> str:
        return corpus_key(set(self.checkers), self.culprit_original, self.partition)

    def test_case(self) -> TestCase:
        """This repro as a precision-scoreboard case.

        The reduced program is the *bad* variant (its divergence is the
        engine-confirmed ground truth) and the stabilized twin is the
        *good* variant; ``cwe=0`` marks generative provenance.
        """
        return TestCase(
            uid=f"gen_{self.profile}_{self.key}",
            cwe=0,
            group=self.group,
            bad_source=self.source,
            good_source=self.good_source,
            mech="generative",
            flow=self.culprit_original,
            inputs=list(self.inputs),
        )


class CorpusBank(Bank):
    """A generative corpus directory of :class:`BankedRepro` entries."""

    entry_type = BankedRepro

    def add(self, repro: BankedRepro) -> bool:
        # Defined here as well as on Bank: perfbench's tracer wraps the
        # bank layer at ``CorpusBank.add`` in this class's own namespace.
        return super().add(repro)

    def test_cases(self) -> list[TestCase]:
        """The whole corpus as precision-scoreboard cases, key order."""
        return [repro.test_case() for repro in self]
