"""Discrepancy triage: clustering the diffs/ directory.

The paper triages manually (§3.2 "Bug-triggering inputs"); automated triage
is called out as an open problem.  This module provides the practical
approximation used by the evaluation drivers: cluster bug-triggering inputs
by their *divergence signature* — the partition of implementations into
same-output groups — optionally refined by the ground-truth bug sites the
instrumented fuzz binary reached.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compdiff import DiffResult


@dataclass(frozen=True)
class DivergenceSignature:
    """Canonical identity of one class of discrepancy."""

    #: Implementation names partitioned by identical output, each group
    #: sorted, groups sorted for canonical form.
    partition: tuple[tuple[str, ...], ...]
    #: Ground-truth bug sites reached (empty when instrumentation is off).
    sites: frozenset[int] = frozenset()

    def __str__(self) -> str:
        groups = " | ".join(",".join(g) for g in self.partition)
        if self.sites:
            return f"[{groups}] sites={sorted(self.sites)}"
        return f"[{groups}]"


def signature_of(diff: DiffResult, sites: frozenset[int] = frozenset()) -> DivergenceSignature:
    return DivergenceSignature(partition=diff.partition, sites=sites)


def triage(
    diffs: list[DiffResult],
    sites_by_input: dict[bytes, frozenset[int]] | None = None,
) -> dict[DivergenceSignature, list[DiffResult]]:
    """Cluster divergent results by signature.

    Returns only divergent entries; non-divergent results are skipped.
    """
    clusters: dict[DivergenceSignature, list[DiffResult]] = {}
    for diff in diffs:
        if not diff.divergent:
            continue
        sites = frozenset()
        if sites_by_input is not None:
            sites = sites_by_input.get(diff.input, frozenset())
        clusters.setdefault(signature_of(diff, sites), []).append(diff)
    return clusters


def attribute_clusters(
    program,
    clusters: dict[DivergenceSignature, list[DiffResult]],
    fuel: int | None = None,
    normalizer=None,
    name: str = "",
) -> dict[DivergenceSignature, "BisectionResult"]:
    """Pass-bisect one representative diff per cluster.

    The cluster signature identifies *which implementations disagree*;
    bisection (:mod:`repro.core.bisect`) adds *which pass application
    makes them disagree* — the attribution step the paper's triage
    discussion (§3.2) leaves manual.  One representative per cluster
    keeps cost at O(log n) truncated builds per signature.
    """
    from repro.core.bisect import bisect_diff
    from repro.vm.machine import DEFAULT_FUEL

    out: dict[DivergenceSignature, "BisectionResult"] = {}
    for signature, members in clusters.items():
        out[signature] = bisect_diff(
            program,
            members[0],
            fuel=DEFAULT_FUEL if fuel is None else fuel,
            normalizer=normalizer,
            name=name,
        )
    return out
