"""Finding bank for confirmed sanitizer FNs/FPs: reduced, deduped, on disk.

The layout, loading and writing are :mod:`repro.bank`'s, shared with
the generative corpus bank; this module declares the sanval entry,
:class:`BankedFinding`.  Each banked finding is a manifest record plus
one program file: the reduced program that exhibits the FN/FP.

Dedupe is by *evidence class*, not source text: the key hashes the
sanitizer, the outcome, the report kinds involved, the oracle checkers
and their fingerprints, and the implementation partition.  The same
miss rediscovered through a different relocation of the same seed (same
function, same oracle fingerprint) banks once; a miss that moved into a
different function (distinct fingerprint) is new evidence and banks
separately.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.bank import Bank


def finding_key(
    sanitizer: str,
    outcome: str,
    kinds: tuple[str, ...],
    checkers: tuple[str, ...],
    fingerprints: tuple[str, ...],
    partition: tuple[tuple[str, ...], ...],
) -> str:
    """Dedupe key of a finding's evidence class (16 hex chars)."""
    partition_sig = ";".join(",".join(group) for group in partition)
    blob = "#".join(
        (
            sanitizer,
            outcome,
            ",".join(sorted(kinds)),
            ",".join(sorted(checkers)),
            ",".join(sorted(fingerprints)),
            partition_sig,
        )
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class BankedFinding:
    """One banked sanitizer defect: evidence chain + reduced repro."""

    #: Bank format declaration (:mod:`repro.bank`); bump ``VERSION`` on
    #: incompatible layout changes.
    KIND = "sancheck"
    LIST_NAME = "findings"
    VERSION = 1
    PROGRAMS = {"source": ".c"}

    key: str
    sanitizer: str
    #: "FN" or "FP".
    outcome: str
    #: Seed label and relocation kind that first exposed the defect.
    seed: str
    variant: str
    #: Report kinds: expected-but-missing (FN) or spuriously fired (FP).
    kinds: tuple[str, ...]
    #: Oracle side of the evidence chain (empty for FPs by construction).
    checkers: tuple[str, ...]
    oracle_fingerprints: tuple[str, ...]
    #: Differential side: partition + culprit pair ("" for stable FPs).
    partition: tuple[tuple[str, ...], ...]
    impl_ref: str
    impl_target: str
    #: Reduced program exhibiting the defect, and the inputs that drive it.
    source: str
    inputs: list[bytes]
    original_nodes: int = 0
    reduced_nodes: int = 0
    reduction_steps: int = 0
    reduction_tests: int = 0

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "sanitizer": self.sanitizer,
            "outcome": self.outcome,
            "seed": self.seed,
            "variant": self.variant,
            "kinds": list(self.kinds),
            "checkers": list(self.checkers),
            "oracle_fingerprints": list(self.oracle_fingerprints),
            "partition": [list(group) for group in self.partition],
            "impl_ref": self.impl_ref,
            "impl_target": self.impl_target,
            "inputs_hex": [i.hex() for i in self.inputs],
            "original_nodes": self.original_nodes,
            "reduced_nodes": self.reduced_nodes,
            "reduction_steps": self.reduction_steps,
            "reduction_tests": self.reduction_tests,
        }

    @staticmethod
    def from_json(data: dict, source: str) -> "BankedFinding":
        return BankedFinding(
            key=data["key"],
            sanitizer=data["sanitizer"],
            outcome=data["outcome"],
            seed=data["seed"],
            variant=data["variant"],
            kinds=tuple(data["kinds"]),
            checkers=tuple(data["checkers"]),
            oracle_fingerprints=tuple(data["oracle_fingerprints"]),
            partition=tuple(tuple(group) for group in data["partition"]),
            impl_ref=data["impl_ref"],
            impl_target=data["impl_target"],
            source=source,
            inputs=[bytes.fromhex(i) for i in data["inputs_hex"]],
            original_nodes=data["original_nodes"],
            reduced_nodes=data["reduced_nodes"],
            reduction_steps=data["reduction_steps"],
            reduction_tests=data["reduction_tests"],
        )

    def recompute_key(self) -> str:
        return finding_key(
            self.sanitizer,
            self.outcome,
            self.kinds,
            self.checkers,
            self.oracle_fingerprints,
            self.partition,
        )


class FindingBank(Bank):
    """A sanval bank directory of :class:`BankedFinding` entries."""

    entry_type = BankedFinding

    def add(self, finding: BankedFinding) -> bool:
        # Defined here as well as on Bank: perfbench's tracer wraps the
        # findings layer at ``FindingBank.add`` in this class's own namespace.
        return super().add(finding)
