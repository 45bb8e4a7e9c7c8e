"""The generate→diff→reduce→bank campaign behind ``repro generate``.

One campaign walks a contiguous seed range through the full pipeline:

1. **generate** — :func:`repro.generative.generator.generate_program`
   synthesizes a checker-clean program for the seed;
2. **diff** — the CompDiff engine (optionally on the supervised worker
   pool) cross-checks it over the campaign inputs;
3. **reduce** — divergent programs are delta-debugged down under a
   *partition-pinned* :class:`~repro.generative.reducer.StillDiverges`
   predicate, so the reduced repro exhibits the same implementation
   partition as the original, not a cheaper unrelated one;
4. **bank** — the reduced repro, its stabilized twin, its UB-oracle
   diagnostics, and its pass attribution land in the
   :class:`~repro.generative.bank.CorpusBank`, deduped by equivalence
   class.

Attribution is bisected twice — once on the original program, once on
the reduced one, against the *same pinned implementation pair* — and
any disagreement is recorded as ``culprit_drifted`` in the banked
metadata rather than papered over: reduction preserves the divergence
verdict by construction, but pass attribution is a property of the
whole program and may legitimately move (docs/GENERATIVE.md).

The seed walk, its checkpoints and the banking step are the campaign
kernel's (:mod:`repro.campaigns.kernel`); this module supplies the
per-seed step.  The bank's keyed dedupe makes replaying the seeds
between the last checkpoint and a crash idempotent, so a resumed
campaign converges on the same corpus as an uninterrupted one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.campaigns.kernel import Campaign
from repro.core.bisect import bisect_divergence, choose_bisection_pair
from repro.core.compdiff import DiffResult
from repro.generative.bank import (
    BASELINE_CULPRIT,
    BankedRepro,
    CorpusBank,
    classify_group,
    corpus_key,
)
from repro.generative.generator import GENERATOR_VERSION, generate_program
from repro.generative.reducer import (
    DEFAULT_STEP_BUDGET,
    DEFAULT_TEST_BUDGET,
    Reducer,
    StillDiverges,
    single_step_variants,
)
from repro.minic import count_nodes, load
from repro.static_analysis.diagnostics import to_diagnostics
from repro.static_analysis.ub_oracle import CHECKER_CATEGORY, UBOracle

#: Good twin of last resort when no single-step stabilization of the
#: reduced repro is both non-divergent and oracle-clean.
FALLBACK_GOOD = 'int main(void) {\n    printf("stable\\n");\n    return 0;\n}\n'


@dataclass
class GenerativeOptions:
    """Campaign configuration (everything verdict-relevant is digested)."""

    #: First generator seed; the campaign walks ``seed .. seed+budget-1``.
    seed: int = 0
    #: Seeds to process.  A budget, not a behavior: resuming with a
    #: larger budget extends a finished campaign.
    budget: int = 20
    profile: str = "ub"
    inputs: list[bytes] = field(default_factory=lambda: [b""])
    #: Reduce before banking (disable to bank raw divergent programs).
    reduce: bool = True
    step_budget: int = DEFAULT_STEP_BUDGET
    test_budget: int = DEFAULT_TEST_BUDGET
    #: Candidate cap for the good-twin stabilization search.
    stabilize_budget: int = 40
    #: Stop early once this many *new* repros banked (None = run out
    #: the budget).  A budget, not a behavior — excluded from digest.
    min_banked: int | None = None
    #: Directory for progress checkpoints (None = no checkpointing).
    checkpoint_dir: str | None = None
    #: Checkpoint cadence in processed seeds.
    checkpoint_every: int = 5
    #: CompDiff worker processes (>1 = the supervised pool).
    workers: int = 1

    def digest(self) -> str:
        """Digest of every option that changes what gets banked."""
        parts = (
            GENERATOR_VERSION,
            self.seed,
            self.profile,
            tuple(self.inputs),
            self.reduce,
            self.step_budget,
            self.test_budget,
            self.stabilize_budget,
        )
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


@dataclass
class GenerativeResult:
    """Outcome of one campaign run."""

    generated: int = 0
    divergent: int = 0
    #: Repros newly banked by this run.
    banked_new: int = 0
    #: Divergent seeds whose equivalence class was already banked.
    duplicates: int = 0
    #: Banked repros whose reduced form attributes to a different pass.
    drifted: int = 0
    #: Corpus keys produced by this run's seeds (banked or duplicate),
    #: in discovery order.
    keys: list[str] = field(default_factory=list)
    #: Bank size after the run.
    corpus_size: int = 0
    #: Seed offset this run resumed from (None = fresh start).
    resumed_at: int | None = None

    def absorb(self, shard: "GenerativeResult") -> None:
        """Add a shard's walk counters (the merge recounts the banking)."""
        self.generated += shard.generated
        self.divergent += shard.divergent
        self.keys.extend(shard.keys)

    def count(self, entry: BankedRepro | None) -> None:
        """Count one banking decision (``None`` is a duplicate)."""
        if entry is None:
            self.duplicates += 1
            return
        self.banked_new += 1
        if entry.culprit_drifted:
            self.drifted += 1

    def finish(self, bank: CorpusBank) -> None:
        self.corpus_size = len(bank)

    def render(self) -> str:
        lines = [
            f"generative campaign: {self.generated} generated, "
            f"{self.divergent} divergent, {self.banked_new} newly banked "
            f"({self.duplicates} duplicate classes, {self.drifted} with "
            f"culprit drift)",
            f"corpus size: {self.corpus_size}",
        ]
        if self.resumed_at is not None:
            lines.append(f"resumed at seed offset {self.resumed_at}")
        return "\n".join(lines)


class GenerativeCampaign(Campaign):
    """Drives one seed range through generate→diff→reduce→bank.

    The seed list is the generator seeds ``seed .. seed+budget-1``; the
    walk, checkpoints and banking are :class:`~repro.campaigns.kernel.Campaign`'s.
    ``policy``/``fault_plan`` configure the supervised worker pool the
    campaign builds when no ``engine`` is passed.
    """

    kind = BankedRepro.KIND
    checkpoint_file = "generate.ckpt"
    result_type = GenerativeResult
    bank_type = CorpusBank

    def __init__(self, options: GenerativeOptions, bank: CorpusBank, **kwargs) -> None:
        super().__init__(options, bank, **kwargs)
        self.oracle = UBOracle(mode="interproc")
        self._intra_oracle = UBOracle(mode="intra")

    @staticmethod
    def seeds(options: GenerativeOptions) -> range:
        return range(options.seed, options.seed + options.budget)

    @classmethod
    def label(cls, options: GenerativeOptions, offset: int) -> str:
        return f"gen-{options.profile}-{options.seed + offset}"

    def stop(self, result: GenerativeResult) -> bool:
        # Discovery-order-dependent, so the sharded runtime refuses it.
        min_banked = self.options.min_banked
        return min_banked is not None and result.banked_new >= min_banked

    # ------------------------------------------------------------- one seed

    def process(self, seed: int, result: GenerativeResult) -> None:
        options = self.options
        generated = generate_program(seed, options.profile)
        result.generated += 1
        name = f"gen-{options.profile}-{seed}"
        outcome = self.engine.check_source(generated.source, options.inputs, name=name)
        if not outcome.divergent:
            return
        result.divergent += 1
        diff = next(d for d in outcome.diffs if d.divergent)
        partition = diff.partition
        impl_ref, impl_target = choose_bisection_pair(diff)
        culprit_original = self._attribute(
            generated.source, diff, impl_ref, impl_target, name
        )

        source = generated.source
        if options.reduce:
            predicate = StillDiverges(
                self.engine, options.inputs, name=name, partition=partition
            )
            reduction = Reducer(
                predicate,
                step_budget=options.step_budget,
                test_budget=options.test_budget,
            ).reduce(source)
            source = reduction.reduced_source
            original_nodes = reduction.original_nodes
            reduced_nodes = reduction.reduced_nodes
            steps = len(reduction.steps)
            tests = reduction.tests_run
        else:
            original_nodes = reduced_nodes = count_nodes(load(source))
            steps = tests = 0

        culprit_reduced = self._attribute(source, diff, impl_ref, impl_target, name)
        diagnostics = to_diagnostics(self.oracle.report(load(source), name=name).findings)
        checkers = {d.checker for d in diagnostics}
        categories = {CHECKER_CATEGORY.get(c, "Misc") for c in checkers}
        key = corpus_key(checkers, culprit_original, partition)

        def make_repro() -> BankedRepro:
            return BankedRepro(
                key=key,
                seed=seed,
                profile=options.profile,
                generator_version=generated.generator_version,
                ub_shapes=generated.ub_shapes,
                source=source,
                good_source=self._stabilize(source, name),
                inputs=list(options.inputs),
                checkers=tuple(sorted(checkers)),
                fingerprints=tuple(sorted(d.fingerprint for d in diagnostics)),
                group=classify_group(categories),
                partition=partition,
                impl_ref=impl_ref,
                impl_target=impl_target,
                culprit_original=culprit_original,
                culprit_reduced=culprit_reduced,
                culprit_drifted=culprit_reduced != culprit_original,
                original_nodes=original_nodes,
                reduced_nodes=reduced_nodes,
                reduction_steps=steps,
                reduction_tests=tests,
            )

        self.bank_key(key, make_repro, result)

    def _attribute(
        self,
        source: str,
        diff: DiffResult,
        impl_ref: str,
        impl_target: str,
        name: str,
    ) -> str:
        """Culprit pass name for *source* under the pinned pair."""
        bisection = bisect_divergence(
            source,
            diff.input,
            impl_ref=impl_ref,
            impl_target=impl_target,
            name=name,
        )
        if bisection.attributed:
            return bisection.culprit.pass_name
        return BASELINE_CULPRIT

    def _stabilize(self, source: str, name: str) -> str:
        """A non-divergent, oracle-clean single-step neighbor of *source*.

        The good twin anchors the false-positive column when the banked
        corpus is scored by ``repro precision``: it must be genuinely
        clean, so candidates are screened against the engine *and* both
        oracle modes.  Falls back to a trivial program when no neighbor
        within the budget qualifies.
        """
        budget = self.options.stabilize_budget
        for candidate in single_step_variants(source):
            if budget <= 0:
                break
            budget -= 1
            program = candidate.program
            if self.engine.diverges(program, self.options.inputs, name=f"{name}-good"):
                continue
            if self.oracle.report(program, name=f"{name}-good").findings:
                continue
            if self._intra_oracle.report(program, name=f"{name}-good").findings:
                continue
            return candidate.source
        return FALLBACK_GOOD
