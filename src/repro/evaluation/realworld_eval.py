"""Tables 4/5/6 and Figure 2: CompDiff-AFL++ on the 23 simulated targets.

Per target, one CompDiff-AFL++ campaign finds discrepancy-triggering
inputs (Table 5's Reported row is the number of seeded bugs attributed to
at least one divergent input), and one sanitizer campaign per tool
reproduces RQ3's overlap analysis (Table 6).  The diffs' checksum vectors
feed the Figure 2 subset ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.normalize import OutputNormalizer
from repro.fuzzing import CampaignResult, CompDiffFuzzer, FuzzerOptions
from repro.minic import load
from repro.parallel.cache import CompileCache
from repro.parallel.stats import EngineStats
from repro.static_analysis import UBOracle
from repro.static_analysis.triage import TriageLabel, triage_diff
from repro.targets import SeededBug, Target, build_all_targets

CATEGORIES = ("EvalOrder", "UninitMem", "IntError", "MemError", "PointerCmp", "LINE", "Misc")
SANITIZERS = ("asan", "ubsan", "msan")


@dataclass
class TargetOutcome:
    """One target's campaign results plus sanitizer-campaign hits."""

    target: Target
    campaign: CampaignResult
    #: site -> set of sanitizer names whose campaign reported it.
    sanitizer_hits: dict[int, set[str]] = field(default_factory=dict)
    #: One Table 5 label per campaign diff (``include_triage=True`` runs).
    triage_labels: list[TriageLabel] = field(default_factory=list)
    #: Pass-bisection per divergence signature (``include_bisection=True``
    #: runs): one representative diff per cluster is attributed.
    bisections: dict = field(default_factory=dict)


@dataclass
class RealWorldEvaluation:
    """All §4.3 measurements across the 23 targets."""

    outcomes: list[TargetOutcome] = field(default_factory=list)
    implementations: tuple[str, ...] = ()
    #: Aggregated oracle engine metrics across every campaign (executions,
    #: cache effectiveness, worker restarts/retries/quarantines...).
    oracle_stats: "EngineStats | None" = None

    # ------------------------------------------------------------ queries

    def all_bugs(self) -> list[SeededBug]:
        """Every seeded bug across all evaluated targets."""
        return [bug for outcome in self.outcomes for bug in outcome.target.bugs]

    def found_bugs(self) -> list[SeededBug]:
        """Seeded bugs attributed to at least one divergent input."""
        found = []
        for outcome in self.outcomes:
            for bug in outcome.target.bugs:
                if bug.site in outcome.campaign.sites_diverged:
                    found.append(bug)
        return found

    def sanitizer_found_sites(self, tool: str) -> set[int]:
        """Bug sites the given sanitizer's campaign reported."""
        sites: set[int] = set()
        for outcome in self.outcomes:
            for site, tools in outcome.sanitizer_hits.items():
                if tool in tools:
                    sites.add(site)
        return sites

    def bug_vectors(self) -> dict[int, list[dict[str, int]]]:
        """Per found bug, the checksum vectors of its diff inputs (Fig 2)."""
        vectors: dict[int, list[dict[str, int]]] = {}
        for outcome in self.outcomes:
            campaign = outcome.campaign
            for diff in campaign.diffs:
                sites = campaign.sites_by_input.get(diff.input, frozenset())
                for site in sites:
                    vectors.setdefault(site, []).append(dict(diff.checksums))
        # Restrict to seeded bugs (discard benign-site noise, which cannot
        # occur since benign handlers carry no sites, but be strict).
        seeded = {bug.site for bug in self.all_bugs()}
        return {site: vecs for site, vecs in vectors.items() if site in seeded}


def evaluate_realworld(
    targets: list[Target] | None = None,
    max_executions: int = 4000,
    compdiff_stride: int = 3,
    fuel: int = 300_000,
    rng_seed: int = 1,
    include_sanitizers: bool = True,
    include_triage: bool = False,
    include_bisection: bool = False,
    compile_cache: CompileCache | None = None,
) -> RealWorldEvaluation:
    """Run the §4.3 experiment (scaled by *max_executions* per campaign).

    One compile cache is shared by every campaign so each target's
    binaries are built once regardless of how many tool campaigns run.
    ``include_triage=True`` runs the UB oracle once per target and labels
    every divergence-triggering input with a Table 5 category.
    ``include_bisection=True`` pass-bisects one representative diff per
    divergence signature and stores the attribution on the outcome.
    """
    if targets is None:
        targets = build_all_targets()
    if compile_cache is None:
        compile_cache = CompileCache()
    evaluation = RealWorldEvaluation()
    for target in targets:
        normalizer = OutputNormalizer.standard() if target.needs_normalizer else None
        options = FuzzerOptions(
            rng_seed=rng_seed,
            max_executions=max_executions,
            compdiff_stride=compdiff_stride,
            fuel=fuel,
            normalizer=normalizer,
            compile_cache=compile_cache,
        )
        fuzzer = CompDiffFuzzer(target.source, target.seeds, options, name=target.name)
        campaign = fuzzer.run()
        if not evaluation.implementations:
            evaluation.implementations = fuzzer.implementations
        if fuzzer.oracle_stats is not None:
            if evaluation.oracle_stats is None:
                evaluation.oracle_stats = EngineStats()
            evaluation.oracle_stats.merge(fuzzer.oracle_stats)
        outcome = TargetOutcome(target=target, campaign=campaign)
        if include_triage and campaign.diffs:
            program = load(target.source)
            findings = UBOracle().analyze(program)
            outcome.triage_labels = [
                triage_diff(program, diff, findings, fuel=fuel)
                for diff in campaign.diffs
            ]
        if include_bisection and campaign.diffs:
            from repro.core.triage import attribute_clusters, triage

            clusters = triage(campaign.diffs, campaign.sites_by_input)
            outcome.bisections = attribute_clusters(
                target.source,
                clusters,
                fuel=fuel,
                normalizer=normalizer,
                name=target.name,
            )
        if include_sanitizers:
            for sanitizer in SANITIZERS:
                san_options = FuzzerOptions(
                    rng_seed=rng_seed,
                    max_executions=max_executions,
                    fuel=fuel,
                    enable_compdiff=False,
                    sanitizer=sanitizer,
                    compile_cache=compile_cache,
                )
                san_campaign = CompDiffFuzzer(
                    target.source, target.seeds, san_options, name=target.name
                ).run()
                for site in san_campaign.sites_sanitizer:
                    outcome.sanitizer_hits.setdefault(site, set()).add(sanitizer)
        evaluation.outcomes.append(outcome)
    return evaluation


# ------------------------------------------------------------------ rendering


def render_table4(targets: list[Target] | None = None) -> str:
    """Table 4: the target inventory (paper metadata + generated LoC)."""
    if targets is None:
        targets = build_all_targets()
    lines = [
        f"{'Target':<14} {'Input type':<16} {'Version':>10} {'Paper size':>10} "
        f"{'Sim LoC':>8} {'Seeded bugs':>12}"
    ]
    for target in targets:
        lines.append(
            f"{target.name:<14} {target.input_type:<16} {target.version:>10} "
            f"{target.paper_size:>10} {target.generated_loc:>8} {len(target.bugs):>12}"
        )
    lines.append(f"{'Total':<14} {'':<16} {'':>10} {'':>10} "
                 f"{sum(t.generated_loc for t in targets):>8} "
                 f"{sum(len(t.bugs) for t in targets):>12}")
    return "\n".join(lines)


def render_table5(evaluation: RealWorldEvaluation) -> str:
    """Table 5: bugs by root cause — found (Reported) / Confirmed / Fixed."""
    found_sites = {bug.site for bug in evaluation.found_bugs()}
    lines = [f"{'':<10} " + " ".join(f"{c:>10}" for c in CATEGORIES) + f" {'Total':>7}"]
    for row_name, predicate in (
        ("Seeded", lambda bug: True),
        ("Found", lambda bug: bug.site in found_sites),
        ("Confirmed", lambda bug: bug.site in found_sites and bug.confirmed),
        ("Fixed", lambda bug: bug.site in found_sites and bug.fixed),
    ):
        per_category = {c: 0 for c in CATEGORIES}
        total = 0
        for bug in evaluation.all_bugs():
            if predicate(bug):
                per_category[bug.category] += 1
                total += 1
        lines.append(
            f"{row_name:<10} "
            + " ".join(f"{per_category[c]:>10}" for c in CATEGORIES)
            + f" {total:>7}"
        )
    labels = [
        label for outcome in evaluation.outcomes for label in outcome.triage_labels
    ]
    if labels:
        # Extra row only for include_triage=True runs: divergent *inputs*
        # per triaged root-cause category (an input may repeat a bug).
        per_category = {c: 0 for c in CATEGORIES}
        for label in labels:
            per_category[label.category] = per_category.get(label.category, 0) + 1
        lines.append(
            f"{'Triaged':<10} "
            + " ".join(f"{per_category[c]:>10}" for c in CATEGORIES)
            + f" {len(labels):>7}"
        )
    return "\n".join(lines)


def render_triage(evaluation: RealWorldEvaluation) -> str:
    """Per-target triage summary for ``include_triage=True`` runs.

    One row per target: how many divergence-triggering inputs the
    campaign found, how many the static oracle explained (matched to a
    nearby UB finding), and the category histogram.
    """
    lines = [
        f"{'Target':<14} {'Diffs':>6} {'Explained':>10}  Categories"
    ]
    total = explained_total = 0
    for outcome in evaluation.outcomes:
        labels = outcome.triage_labels
        if not labels:
            continue
        explained = sum(1 for label in labels if label.explained)
        total += len(labels)
        explained_total += explained
        histogram: dict[str, int] = {}
        for label in labels:
            histogram[label.category] = histogram.get(label.category, 0) + 1
        cats = ", ".join(
            f"{c}:{histogram[c]}" for c in CATEGORIES if histogram.get(c)
        )
        lines.append(
            f"{outcome.target.name:<14} {len(labels):>6} {explained:>10}  {cats}"
        )
    pct = 100 * explained_total / total if total else 0.0
    lines.append(
        f"{'Total':<14} {total:>6} {explained_total:>10}  "
        f"({pct:.0f}% of divergences explained by a static finding)"
    )
    return "\n".join(lines)


def render_bisection(evaluation: RealWorldEvaluation) -> str:
    """Per-target pass attribution for ``include_bisection=True`` runs.

    One row per (target, divergence signature): the bisected pair and
    the first pass application that flips the output — automated
    root-cause attribution at transform granularity.
    """
    lines = [f"{'Target':<14} {'Pair':<22} Attribution"]
    histogram: dict[str, int] = {}
    for outcome in evaluation.outcomes:
        for signature, result in outcome.bisections.items():
            pair = f"{result.impl_target} vs {result.impl_ref}"
            if result.attributed:
                detail = result.culprit.label()
                histogram[result.culprit.pass_name] = (
                    histogram.get(result.culprit.pass_name, 0) + 1
                )
            else:
                detail = result.status
                histogram[result.status] = histogram.get(result.status, 0) + 1
            lines.append(f"{outcome.target.name:<14} {pair:<22} {detail}")
    total = sum(histogram.values())
    cats = ", ".join(
        f"{name}:{count}"
        for name, count in sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    lines.append(f"{'Total':<14} {total:>3} signatures attributed  ({cats})")
    return "\n".join(lines)


def render_table6(evaluation: RealWorldEvaluation) -> str:
    """Table 6: of the bugs CompDiff found, how many sanitizers also find."""
    found = evaluation.found_bugs()
    hits = {tool: evaluation.sanitizer_found_sites(tool) for tool in SANITIZERS}
    rows = [
        ("MemError", "asan"),
        ("IntError", "ubsan"),
        ("UninitMem", "msan"),
    ]
    lines = [f"{'Category':<16} {'ASan':>6} {'UBSan':>6} {'MSan':>6} {'Sanitizers':>11} {'CompDiff':>9}"]
    total_overlap = 0
    covered_sites: set[int] = set()
    for category, tool in rows:
        bugs = [bug for bug in found if bug.category == category]
        overlap = sum(1 for bug in bugs if bug.site in hits[tool])
        covered_sites |= {bug.site for bug in bugs if bug.site in hits[tool]}
        total_overlap += overlap
        cells = {t: overlap if t == tool else "-" for t in SANITIZERS}
        lines.append(
            f"{category:<16} {cells['asan']:>6} {cells['ubsan']:>6} {cells['msan']:>6} "
            f"{overlap:>11} {len(bugs):>9}"
        )
    remaining = [bug for bug in found if bug.site not in covered_sites
                 and bug.category not in ("MemError", "IntError", "UninitMem")]
    lines.append(
        f"{'Remaining bugs':<16} {'-':>6} {'-':>6} {'-':>6} {0:>11} {len(remaining):>9}"
    )
    lines.append(
        f"{'Total':<16} {'':>6} {'':>6} {'':>6} {total_overlap:>11} {len(found):>9}"
    )
    return "\n".join(lines)
