"""CompDiff-AFL++: the paper's Algorithm 1.

The main loop is stock greybox fuzzing over the instrumented binary
``B_fuzz`` (unhighlighted lines of Algorithm 1); the CompDiff extension
(highlighted lines 9-12) runs every generated input on the k differential
binaries and saves it to ``diffs/`` when outputs disagree.  Sanitizers
compose: pass ``sanitizer=`` to instrument ``B_fuzz`` exactly as AFL++
users do, without touching the differential binaries.
"""

from __future__ import annotations

import copy
import random
import time
from dataclasses import dataclass, field

from repro.campaigns.sigint import DeferredInterrupt
from repro.compiler import (
    DEFAULT_IMPLEMENTATIONS,
    FUZZ_CONFIG,
    CompilerConfig,
    compile_program,
)
from repro.core.compdiff import CompDiff, DiffResult
from repro.core.normalize import OutputNormalizer
from repro.core.triage import DivergenceSignature, signature_of
from repro.errors import CheckpointError, EngineConfigError
from repro.fuzzing.checkpoint import (
    CampaignCheckpoint,
    load_checkpoint,
    options_digest,
    save_checkpoint,
)
from repro.parallel.cache import CompileCache, program_fingerprint
from repro.fuzzing.coverage import CoverageMap
from repro.fuzzing.mutators import MutationEngine, build_dictionary
from repro.fuzzing.seedpool import SeedPool
from repro.minic import ast as minic_ast
from repro.minic import load
from repro.vm import ForkServer
from repro.vm.execution import ExecutionResult


@dataclass
class FuzzerOptions:
    """Campaign configuration (the AFL++ command line, roughly)."""

    rng_seed: int = 0
    #: Execution budget on B_fuzz — the analog of the 24h wall clock.
    max_executions: int = 20_000
    #: Per-execution instruction budget (the timeout threshold).
    fuel: int = 200_000
    #: Run the CompDiff oracle on every Nth generated input (1 = paper's
    #: Algorithm 1; larger strides trade oracle coverage for speed).
    compdiff_stride: int = 1
    enable_compdiff: bool = True
    #: Sanitizer to instrument B_fuzz with (composes with CompDiff, §3.2).
    sanitizer: str | None = None
    implementations: tuple[CompilerConfig, ...] = DEFAULT_IMPLEMENTATIONS
    normalizer: OutputNormalizer | None = None
    splice_probability: float = 0.2
    #: Cap on stored diff-triggering inputs (the diffs/ directory).
    max_saved_diffs: int = 400
    max_saved_crashes: int = 200
    #: §5 future-work extension (NEZHA-style): feed behavioral asymmetry
    #: back into the fuzzer — an input that produced a *new* divergence
    #: signature joins the seed pool even without new edge coverage.
    divergence_feedback: bool = False
    #: Content-addressed compile cache shared across campaigns, so
    #: repeated builds of the same target skip the compiler entirely.
    compile_cache: CompileCache | None = None
    #: Analysis-directed fuzzing (opt-in): multiply the energy of seeds
    #: whose coverage touches a block the IR-level UB oracle flagged.
    #: 1.0 disables it.  This only biases seed scheduling; the CompDiff
    #: verdict for any given input is unaffected.
    analysis_boost: float = 1.0
    #: Directory for periodic atomic campaign checkpoints (None = off).
    #: A killed campaign resumes from the last checkpoint via
    #: ``CompDiffFuzzer.run(resume_from=dir)`` / ``repro fuzz --resume``,
    #: reproducing the uninterrupted campaign's verdicts exactly.
    checkpoint_dir: str | None = None
    #: Executions between periodic checkpoints (journal cadence); 0 or
    #: less journals only the final checkpoint.
    checkpoint_every: int = 1000


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    executions: int = 0
    oracle_executions: int = 0
    edges_covered: int = 0
    queue_size: int = 0
    #: diffs/ — inputs that triggered output discrepancies.
    diffs: list[DiffResult] = field(default_factory=list)
    diffs_found: int = 0
    #: crashes/ — inputs that crashed or tripped the sanitizer on B_fuzz.
    crashes: list[tuple[bytes, ExecutionResult]] = field(default_factory=list)
    crashes_found: int = 0
    #: Ground truth: bug sites reached by each divergent input on B_fuzz.
    sites_by_input: dict[bytes, frozenset[int]] = field(default_factory=dict)
    #: All bug sites ever reached (coverage of seeded bugs).
    sites_reached: set[int] = field(default_factory=set)
    #: Sites attributed to at least one divergent input.
    sites_diverged: set[int] = field(default_factory=set)
    #: Sites attributed to at least one sanitizer report.
    sites_sanitizer: set[int] = field(default_factory=set)

    def signatures(self) -> dict[DivergenceSignature, int]:
        counts: dict[DivergenceSignature, int] = {}
        for diff in self.diffs:
            signature = signature_of(diff, self.sites_by_input.get(diff.input, frozenset()))
            counts[signature] = counts.get(signature, 0) + 1
        return counts


class CompDiffFuzzer:
    """One fuzzing campaign over one target program."""

    def __init__(
        self,
        program: minic_ast.Program | str,
        initial_seeds: list[bytes],
        options: FuzzerOptions | None = None,
        name: str = "target",
    ) -> None:
        self.options = options or FuzzerOptions()
        if self.options.compdiff_stride < 1:
            raise EngineConfigError(
                f"compdiff_stride must be >= 1, got {self.options.compdiff_stride}"
            )
        if isinstance(program, str):
            program = load(program)
        self.name = name
        self.rng = random.Random(self.options.rng_seed)
        # B_fuzz: coverage-instrumented (optionally sanitized) build.
        cache = self.options.compile_cache
        if cache is not None:
            fuzz_binary = cache.compile(
                program,
                FUZZ_CONFIG,
                name=name,
                instrument_coverage=True,
                sanitizer=self.options.sanitizer,
            )
        else:
            fuzz_binary = compile_program(
                program,
                FUZZ_CONFIG,
                name=name,
                instrument_coverage=True,
                sanitizer=self.options.sanitizer,
            )
        self.fuzz_server = ForkServer(fuzz_binary, fuel=self.options.fuel)
        # The k differential binaries.
        self.compdiff: CompDiff | None = None
        self.diff_servers: dict[str, ForkServer] = {}
        if self.options.enable_compdiff:
            self.compdiff = CompDiff(
                implementations=self.options.implementations,
                normalizer=self.options.normalizer or OutputNormalizer(),
                fuel=self.options.fuel,
                compile_cache=cache,
            )
            self.diff_servers = self.compdiff.build(program, name=name)
        self.coverage = CoverageMap()
        dictionary = build_dictionary(
            fuzz_binary.module.magic_constants, fuzz_binary.module.magic_strings
        )
        self.mutator = MutationEngine(self.rng, dictionary)
        self.pool = SeedPool(self.rng, analysis_boost=self.options.analysis_boost)
        self._initial_seeds = [bytes(seed) for seed in initial_seeds] or [b""]
        self._seen_signatures: set[DivergenceSignature] = set()
        self._seen_diff_inputs: set[bytes] = set()
        self._program_fp = program_fingerprint(program)
        self._generated = 0
        #: Coverage edges whose target block carries a static UB finding.
        self._flagged_edges: frozenset[int] = frozenset()
        if self.options.analysis_boost != 1.0:
            self._flagged_edges = self._compute_flagged_edges(fuzz_binary.module)

    def _compute_flagged_edges(self, module) -> frozenset[int]:
        """Edges that enter a block the UB oracle flags, as bitmap indices.

        The checkers run on the *fuzz binary's own* lowering, so block
        labels line up with the coverage ids exactly.  A block can be
        entered from any predecessor (including inter-procedurally via
        calls, where the previous location is the callee's last block),
        so every (possible-prev, flagged-block) pair is folded through
        the AFL edge hash — a cheap over-approximation that errs toward
        boosting.
        """
        from repro.static_analysis.ub_oracle import analyze_modules, flagged_blocks

        report = analyze_modules(module)
        ids = self.fuzz_server.layout.label_ids
        flagged_ids = [
            ids[key] for key in flagged_blocks(report.findings) if key in ids
        ]
        prevs = [0] + list(ids.values())  # 0 = program entry
        size = self.coverage.size
        return frozenset(
            ((prev >> 1) ^ cur) % size for cur in flagged_ids for prev in prevs
        )

    def _trace_touches_flagged(self) -> bool:
        return bool(self._flagged_edges) and not self._flagged_edges.isdisjoint(
            self.coverage.trace
        )

    # ----------------------------------------------------------------- loop

    def run(self, resume_from: str | None = None) -> CampaignResult:
        """Execute the campaign (Algorithm 1) and return its findings.

        With ``resume_from`` set, the loop restarts from the checkpoint
        journaled in that directory (see :mod:`repro.fuzzing.checkpoint`)
        and replays the remaining iterations deterministically: the final
        result is byte-identical to an uninterrupted campaign.  With
        ``options.checkpoint_dir`` set, the loop journals periodically,
        flushes a final checkpoint on completion, and — because SIGINT is
        deferred to the next iteration boundary — flushes a consistent
        checkpoint before propagating ``KeyboardInterrupt`` on Ctrl-C.
        """
        if resume_from is not None:
            result = self._restore(resume_from)
        else:
            result = CampaignResult()
            self._generated = 0
            self._seen_diff_inputs = set()
            for seed in self._initial_seeds:
                self._execute_and_classify(seed, result, force_oracle=True)
                self.pool.add(seed, flagged=self._trace_touches_flagged())
        with DeferredInterrupt(enabled=self.options.checkpoint_dir is not None) as intr:
            while result.executions < self.options.max_executions:
                if intr.pending:
                    self._finalize(result)
                    self._checkpoint(result, force=True)
                    raise KeyboardInterrupt("campaign interrupted; checkpoint flushed")
                parent = self.pool.select()
                if (
                    self.options.splice_probability > 0
                    and self.rng.random() < self.options.splice_probability
                ):
                    other = self.pool.pick_other(parent)
                    candidate = (
                        self.mutator.splice(parent.data, other.data)
                        if other is not None
                        else self.mutator.mutate(parent.data)
                    )
                else:
                    candidate = self.mutator.mutate(parent.data)
                self._generated += 1
                run_oracle = self._generated % self.options.compdiff_stride == 0
                self._execute_and_classify(candidate, result, run_oracle)
                self._checkpoint(result)
        self._finalize(result)
        self._checkpoint(result, force=True)
        return result

    def _finalize(self, result: CampaignResult) -> None:
        result.edges_covered = self.coverage.edges_covered
        result.queue_size = len(self.pool)

    def _execute_and_classify(
        self,
        candidate: bytes,
        result: CampaignResult,
        force_oracle: bool,
    ) -> None:
        # Lines 4-8: execute on B_fuzz with coverage feedback.
        self.coverage.reset_trace()
        execution = self.fuzz_server.run(candidate, coverage=self.coverage)
        result.executions += 1
        result.sites_reached |= execution.bug_sites
        if execution.crashed or execution.sanitizer_report is not None:
            result.crashes_found += 1
            result.sites_sanitizer |= execution.bug_sites
            if len(result.crashes) < self.options.max_saved_crashes:
                result.crashes.append((candidate, execution))
        elif self.coverage.has_new_bits():
            self.pool.add(
                candidate,
                exec_instructions=execution.executed_instructions,
                flagged=self._trace_touches_flagged(),
            )
        # Lines 9-12: the CompDiff oracle.
        if self.compdiff is None or not force_oracle:
            return
        if candidate in self._seen_diff_inputs:
            return
        self._seen_diff_inputs.add(candidate)
        diff = self.compdiff.run_input(self.diff_servers, candidate)
        result.oracle_executions += 1
        if diff.divergent:
            result.diffs_found += 1
            sites = frozenset(execution.bug_sites)
            result.sites_by_input[candidate] = sites
            result.sites_diverged |= sites
            if len(result.diffs) < self.options.max_saved_diffs:
                result.diffs.append(diff)
            if self.options.divergence_feedback:
                signature = signature_of(diff)
                if signature not in self._seen_signatures:
                    self._seen_signatures.add(signature)
                    self.pool.add(
                        candidate, favored=True, flagged=self._trace_touches_flagged()
                    )

    # -------------------------------------------------------- checkpointing

    def _options_digest(self) -> str:
        return options_digest(
            self.options,
            tuple(config.name for config in self.options.implementations),
        )

    def _checkpoint(self, result: CampaignResult, force: bool = False) -> None:
        """Journal the loop state at an iteration boundary (atomic write)."""
        directory = self.options.checkpoint_dir
        if directory is None:
            return
        every = self.options.checkpoint_every
        if not force and (every <= 0 or result.executions % every != 0):
            return
        started = time.perf_counter()
        state = CampaignCheckpoint(
            program_fingerprint=self._program_fp,
            options_digest=self._options_digest(),
            generated=self._generated,
            rng_state=self.rng.getstate(),
            result=result,
            pool_seeds=list(self.pool.seeds),
            pool_next_index=self.pool._next_index,
            pool_dedupe=set(self.pool._dedupe),
            coverage_virgin=dict(self.coverage.virgin),
            seen_diff_inputs=set(self._seen_diff_inputs),
            seen_signatures=set(self._seen_signatures),
            oracle_stats=(
                copy.deepcopy(self.compdiff.stats) if self.compdiff is not None else None
            ),
        )
        save_checkpoint(directory, state)
        if self.compdiff is not None:
            self.compdiff.stats.checkpoint_latencies.append(time.perf_counter() - started)

    def _restore(self, directory: str) -> CampaignResult:
        """Rehydrate the loop state journaled in *directory*."""
        state = load_checkpoint(directory)
        if state.program_fingerprint != self._program_fp:
            raise CheckpointError(
                f"checkpoint in {directory!r} was taken for a different program "
                f"({state.program_fingerprint[:16]}... != {self._program_fp[:16]}...)"
            )
        if state.options_digest != self._options_digest():
            raise CheckpointError(
                f"checkpoint in {directory!r} was taken under different "
                "campaign options; resume with the original flags"
            )
        self._generated = state.generated
        self.rng.setstate(state.rng_state)
        self.pool.seeds = list(state.pool_seeds)
        self.pool._next_index = state.pool_next_index
        self.pool._dedupe = set(state.pool_dedupe)
        self.coverage.virgin = dict(state.coverage_virgin)
        self._seen_diff_inputs = set(state.seen_diff_inputs)
        self._seen_signatures = set(state.seen_signatures)
        if state.oracle_stats is not None and self.compdiff is not None:
            self.compdiff.stats.restore(state.oracle_stats)
        return state.result

    # -------------------------------------------------------------- helpers

    @property
    def implementations(self) -> tuple[str, ...]:
        return tuple(self.diff_servers)

    @property
    def oracle_stats(self):
        """The oracle engine's :class:`repro.parallel.stats.EngineStats`."""
        return self.compdiff.stats if self.compdiff is not None else None
