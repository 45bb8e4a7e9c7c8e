"""The CompDiff differential runner (paper §3.1 workflow).

1) take a set of compiler implementations;
2) compile the program with each to get binaries;
3) run every binary on each test input;
4) report inputs whose outputs differ between any two implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler import DEFAULT_IMPLEMENTATIONS, CompilerConfig
from repro.core.hashing import observation_checksum
from repro.core.normalize import OutputNormalizer
from repro.errors import EngineConfigError, ReproError
from repro.minic import ast as minic_ast
from repro.minic import load
from repro.parallel.cache import CompileCache, compile_counted
from repro.parallel.engine import BatchJob, ParallelEngine
from repro.parallel.faults import FaultPlan
from repro.parallel.stats import EngineStats
from repro.parallel.supervisor import SupervisorPolicy
from repro.vm import ForkServer
from repro.vm.execution import ExecutionResult, deadline_result
from repro.vm.machine import DEFAULT_FUEL

#: RQ6: when only some binaries time out, re-run them with the threshold
#: raised by this factor, up to the retry cap, before believing the
#: discrepancy.
TIMEOUT_RETRY_FACTOR = 8
TIMEOUT_MAX_RETRIES = 2


@dataclass
class DiffResult:
    """Outcome of running one input across all implementations."""

    input: bytes
    observations: dict[str, tuple]
    checksums: dict[str, int]
    results: dict[str, ExecutionResult] = field(repr=False, default_factory=dict)
    #: Implementations dropped from this input's cross-check (k-1
    #: graceful degradation): they persistently failed to compile or
    #: execute, or their task was quarantined.  Never checksummed; the
    #: verdict below is over the surviving implementations only.
    dropped: tuple[str, ...] = ()

    @property
    def divergent(self) -> bool:
        return len(set(self.checksums.values())) > 1

    @property
    def degraded(self) -> bool:
        """True when this verdict came from a k-1 (or smaller) cross-check."""
        return bool(self.dropped)

    def groups(self) -> list[list[str]]:
        """Implementation names grouped by identical observation.

        Ordering is fully deterministic — size descending, ties broken
        lexicographically by each group's first implementation name — so
        triage signatures derived from groups are stable across runs and
        Python hash seeds.
        """
        by_checksum: dict[int, list[str]] = {}
        for name, checksum in self.checksums.items():
            by_checksum.setdefault(checksum, []).append(name)
        return sorted(by_checksum.values(), key=lambda group: (-len(group), group[0]))

    @property
    def partition(self) -> tuple[tuple[str, ...], ...]:
        """The groups in canonical form: each group sorted, groups sorted."""
        return tuple(sorted(tuple(sorted(group)) for group in self.groups()))

    def divergent_for(self, subset: tuple[str, ...]) -> bool:
        """Would this input be flagged using only *subset* implementations?"""
        seen = {self.checksums[name] for name in subset if name in self.checksums}
        return len(seen) > 1


@dataclass
class ObservationMatrix:
    """Per-input checksum vectors, the substrate for subset ablation."""

    implementations: tuple[str, ...]
    rows: list[dict[str, int]] = field(default_factory=list)

    def add(self, diff: DiffResult) -> None:
        self.rows.append(dict(diff.checksums))

    def divergent_for(self, subset: tuple[str, ...]) -> bool:
        for row in self.rows:
            seen = {row[name] for name in subset if name in row}
            if len(seen) > 1:
                return True
        return False

    @property
    def divergent(self) -> bool:
        return self.divergent_for(self.implementations)


@dataclass
class CheckOutcome:
    """Result of checking one program over an input set."""

    matrix: ObservationMatrix
    diffs: list[DiffResult]

    @property
    def divergent(self) -> bool:
        return any(diff.divergent for diff in self.diffs)

    @property
    def divergent_inputs(self) -> list[bytes]:
        return [diff.input for diff in self.diffs if diff.divergent]


def _answer(outcome: CheckOutcome, partition: tuple[tuple[str, ...], ...] | None) -> bool:
    """:meth:`CompDiff.diverges`'s question, answered from a full outcome:
    does some input diverge (with *partition*: split the implementations
    exactly that way)?"""
    return any(
        diff.divergent and (partition is None or diff.partition == partition)
        for diff in outcome.diffs
    )


class CompDiff:
    """Compiler-driven differential testing over a fixed implementation set.

    >>> engine = CompDiff()
    >>> outcome = engine.check_source("int main(void){return 0;}", [b""])
    >>> outcome.divergent
    False

    Per-input oracle calls (:meth:`build` then :meth:`run_input`, the
    fuzzer's path) always run in this process, back to back through the
    k fork servers.  Yes/no questions (:meth:`diverges`, the reducer's
    and the good-twin screens' path) build one implementation at a time
    and stop once the answer is fixed.  ``workers=N`` scatters
    whole-program checks (:meth:`check`, :meth:`check_source`,
    :meth:`check_batch`) across a persistent worker pool
    (:mod:`repro.parallel`) with byte-identical verdicts; call
    :meth:`close` (or use the engine as a context manager) to shut the
    pool down.  ``compile_cache`` memoizes compilation by content so
    repeated checks of identical programs skip the compiler.
    """

    def __init__(
        self,
        implementations: tuple[CompilerConfig, ...] = DEFAULT_IMPLEMENTATIONS,
        normalizer: OutputNormalizer | None = None,
        fuel: int = DEFAULT_FUEL,
        workers: int = 1,
        compile_cache: CompileCache | None = None,
        stats: EngineStats | None = None,
        policy: SupervisorPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if len(implementations) < 2:
            raise EngineConfigError(
                "CompDiff needs at least two compiler implementations"
            )
        names = [config.name for config in implementations]
        if len(set(names)) != len(names):
            raise EngineConfigError(f"duplicate implementation names: {names}")
        if not isinstance(workers, int) or workers < 1:
            raise EngineConfigError(f"workers must be an int >= 1, got {workers!r}")
        self.implementations = tuple(implementations)
        self.normalizer = normalizer if normalizer is not None else OutputNormalizer()
        self.fuel = fuel
        self.workers = int(workers)
        self.compile_cache = compile_cache
        self.stats = stats if stats is not None else EngineStats()
        self._engine: ParallelEngine | None = None
        if self.workers > 1:
            self._engine = ParallelEngine(
                self.implementations,
                fuel=self.fuel,
                workers=self.workers,
                stats=self.stats,
                policy=policy,
                fault_plan=fault_plan,
                normalizer=self.normalizer,
            )

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Shut down the worker pool, if any (idempotent; serial no-op)."""
        if self._engine is not None:
            self._engine.close()

    def __enter__(self) -> "CompDiff":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- compiling

    def build(self, program: minic_ast.Program, name: str = "") -> dict[str, ForkServer]:
        """Compile *program* with every implementation (§3.1 steps 1-2).

        An implementation that fails to compile the program is dropped
        from this program's cross-check (k-1 graceful degradation,
        flagged and counted on every resulting DiffResult) rather than
        aborting — unless fewer than two implementations survive, which
        is a hard error.
        """
        servers: dict[str, ForkServer] = {}
        errors: dict[str, str] = {}
        first_error: ReproError | None = None
        for config in self.implementations:
            try:
                binary = compile_counted(
                    program, config, self.stats, cache=self.compile_cache, name=name
                )
            except ReproError as exc:
                errors[config.name] = str(exc)
                if first_error is None:
                    first_error = exc
                continue
            servers[config.name] = ForkServer(binary, fuel=self.fuel, stats=self.stats)
        if not servers and first_error is not None:
            # The program itself is broken (front-end error in every
            # implementation): surface the original exception type.
            raise first_error
        if len(servers) < 2:
            raise ReproError(
                f"fewer than two implementations can build {name or 'program'!r}: "
                f"{errors}"
            )
        return servers

    def build_source(self, source: str, name: str = "") -> dict[str, ForkServer]:
        return self.build(load(source), name=name)

    # --------------------------------------------------------------- running

    def run_input(self, servers: dict[str, ForkServer], input_bytes: bytes) -> DiffResult:
        """Run one input on every binary and cross-check outputs (§3.1 step 4).

        An implementation whose run raises a :class:`ReproError` (an
        internal VM failure) is dropped from this input's cross-check
        (k-1 graceful degradation) instead of aborting the campaign.
        """
        results: dict[str, ExecutionResult] = {}
        exec_counts = self.stats.exec_counts
        for name, server in servers.items():
            try:
                results[name] = server.run(input_bytes)
            except ReproError as exc:
                results[name] = deadline_result(name, f"execution failed: {exc}")
            else:
                exec_counts[name] += 1
        self._retry_partial_timeouts(servers, input_bytes, results)
        self.stats.inputs_checked += 1
        return self._diff_from_results(input_bytes, results)

    def _diff_from_results(
        self, input_bytes: bytes, results: dict[str, ExecutionResult]
    ) -> DiffResult:
        """Normalize, checksum, and package one input's k results.

        Shared verbatim by the serial and parallel paths: whatever process
        produced the raw results, the observation comparison is identical.
        Results arriving from engine workers already carry their checksum
        (``ExecutionResult.output_checksum``, computed worker-side from the
        same normalizer) and are never re-checksummed here; serial results
        get theirs filled in now, so either way each observation is hashed
        exactly once.  Implementations without a usable result — absent
        entirely (build failure) or present as a ``Status.DEADLINE``
        placeholder (hung or quarantined) — are excluded from the checksums
        and listed in ``DiffResult.dropped``, so the verdict is a flagged
        k-1 cross-check.  Each dropped (input, implementation) cell counts
        once in ``EngineStats.degraded``, here and nowhere else.
        """
        observations: dict[str, tuple] = {}
        checksums: dict[str, int] = {}
        dropped: list[str] = []
        for name, result in results.items():
            if result.deadline_expired:
                dropped.append(name)
                continue
            obs = self.normalizer.normalize_observation(result.observation())
            observations[name] = obs
            if result.output_checksum is None:
                result.output_checksum = observation_checksum(obs)
            checksums[name] = result.output_checksum
        for config in self.implementations:
            if config.name not in results:
                dropped.append(config.name)
        for name in dropped:
            self.stats.degraded[name] += 1
        order = {config.name: i for i, config in enumerate(self.implementations)}
        return DiffResult(
            input=input_bytes,
            observations=observations,
            checksums=checksums,
            results=results,
            dropped=tuple(sorted(dropped, key=lambda name: order.get(name, len(order)))),
        )

    def _retry_partial_timeouts(
        self,
        servers: dict[str, ForkServer],
        input_bytes: bytes,
        results: dict[str, ExecutionResult],
    ) -> None:
        """RQ6: a partially-timed-out input gets its threshold raised until
        the stragglers terminate (or the retry budget runs out).

        Only fuel exhaustion qualifies — ``Status.DEADLINE`` results
        (dropped implementations) are excluded from both the retry set
        and the all-timed-out denominator, so a hung implementation never
        burns fuel-escalation rounds."""
        fuel = self.fuel
        for _ in range(TIMEOUT_MAX_RETRIES):
            live = [
                name for name, result in results.items()
                if not result.deadline_expired
            ]
            timed_out = [name for name in live if results[name].timed_out]
            if not timed_out or len(timed_out) == len(live):
                return
            fuel *= TIMEOUT_RETRY_FACTOR
            for name in timed_out:
                results[name] = servers[name].run(input_bytes, fuel=fuel)
                self.stats.exec_counts[name] += 1
                self.stats.timeout_retries += 1

    # ------------------------------------------------------------ one-shot API

    def check(self, program: minic_ast.Program, inputs: list[bytes], name: str = "") -> CheckOutcome:
        """Full §3.1 workflow for one program over an input set."""
        if self._engine is not None:
            return self.check_batch([(program, inputs, name)])[0]
        servers = self.build(program, name=name)
        matrix = ObservationMatrix(tuple(servers))
        diffs: list[DiffResult] = []
        for input_bytes in inputs:
            diff = self.run_input(servers, input_bytes)
            matrix.add(diff)
            diffs.append(diff)
        return CheckOutcome(matrix=matrix, diffs=diffs)

    def check_source(self, source: str, inputs: list[bytes], name: str = "") -> CheckOutcome:
        if self._engine is not None:
            return self.check_batch([(source, inputs, name)])[0]
        return self.check(load(source), inputs, name=name)

    def check_batch(
        self, jobs: list[tuple[minic_ast.Program | str, list[bytes], str]]
    ) -> list[CheckOutcome]:
        """Run the §3.1 workflow for many ``(program, inputs, name)`` jobs.

        Programs may be checked ASTs or raw source strings (sources are
        parsed where they are compiled — in the workers when parallel).
        With ``workers=1`` this is exactly a loop over :meth:`check`; with
        ``workers=N`` the jobs are scattered across the pool and the
        outcomes are byte-identical to the serial loop.
        """
        if self._engine is None:
            outcomes = []
            for program, inputs, name in jobs:
                if isinstance(program, str):
                    program = load(program)
                outcomes.append(self.check(program, inputs, name=name))
            return outcomes
        batch = [
            BatchJob(program=program, inputs=list(inputs), name=name)
            for program, inputs, name in jobs
        ]
        raw = self._engine.run_batch(batch)
        impl_names = tuple(config.name for config in self.implementations)
        outcomes = []
        for job, rows in zip(batch, raw):
            matrix = ObservationMatrix(impl_names)
            diffs = []
            for input_bytes, results in zip(job.inputs, rows):
                diff = self._diff_from_results(input_bytes, results)
                matrix.add(diff)
                diffs.append(diff)
            outcomes.append(CheckOutcome(matrix=matrix, diffs=diffs))
        return outcomes

    # ------------------------------------------------------------ yes/no API

    def diverges(
        self,
        program: minic_ast.Program | str,
        inputs: list[bytes],
        partition: tuple[tuple[str, ...], ...] | None = None,
        name: str = "",
    ) -> bool:
        """Does :meth:`check` flag *program* on some input?

        With *partition* (a divergence signature's canonical implementation
        partition) the question is whether some input splits the
        implementations exactly that way.  The answer is always
        ``_answer(self.check(program, inputs, name=name), partition)``, but
        serially it is got by building one implementation at a time — one
        compile, then a run of every still-undecided input — and returning
        as soon as the answer is fixed:

        * without a partition, True at the first input whose observation
          differs from that input's first one; False once all k agree;
        * with one, an input drops out when two implementations of one
          group differ or two of different groups agree.  False once every
          input has dropped out; True when one survives all k.  Each
          group's first member runs first, groups in partition order, then
          the rest in :attr:`implementations` order.

        Two finished runs that contradict each other stay contradicted in
        the full check (RQ6 retries re-run only timed-out results, and k-1
        degradation only drops implementations), so an early answer is
        exact.  Anything the lazy walk cannot mirror falls back to the full
        check: a fuel TIMEOUT (the RQ6 retry depends on which other
        implementations timed out), a compile or run :class:`ReproError`
        (k-1 degradation), a partition that does not name exactly
        :attr:`implementations`, and ``workers > 1`` (the pool answers).
        A partition of fewer than two groups never holds: False, unbuilt.
        As in :meth:`check_batch`, *program* may be source text, parsed
        where it is compiled (in the workers when pooled).
        """
        stats = self.stats
        stats.questions_asked += 1
        if partition is not None and len(partition) < 2:
            stats.builds_skipped += len(self.implementations)
            return False
        order = self._question_order(partition)
        if self._engine is not None or order is None:
            return self._full_answer(program, inputs, partition, name)
        if isinstance(program, str):
            program = load(program)
        # Without a partition every implementation is group 0.  Per input:
        # checksum -> the group that produced it, group -> its checksum.
        group_of = {impl: i for i, group in enumerate(partition or ()) for impl in group}
        owners: list[dict[int, int]] = [{} for _ in inputs]
        sums: list[dict[int, int]] = [{} for _ in inputs]
        undecided = list(range(len(inputs)))
        built = 0
        for config in order:
            try:
                binary = compile_counted(
                    program, config, stats, cache=self.compile_cache, name=name
                )
            except ReproError:
                return self._full_answer(program, inputs, partition, name)
            server = ForkServer(binary, fuel=self.fuel, stats=stats)
            built += 1
            group = group_of.get(config.name, 0)
            surviving = []
            for i in undecided:
                try:
                    result = server.run(inputs[i])
                except ReproError:
                    return self._full_answer(program, inputs, partition, name)
                stats.exec_counts[config.name] += 1
                if result.timed_out:
                    return self._full_answer(program, inputs, partition, name)
                obs = self.normalizer.normalize_observation(result.observation())
                checksum = observation_checksum(obs)
                if partition is None:
                    if sums[i].setdefault(group, checksum) != checksum:
                        return self._lazy_answer(True, built, len(inputs))
                    surviving.append(i)
                elif (
                    owners[i].setdefault(checksum, group) == group
                    and sums[i].setdefault(group, checksum) == checksum
                ):
                    surviving.append(i)
            undecided = surviving
            if not undecided:
                return self._lazy_answer(False, built, len(inputs))
        return self._lazy_answer(partition is not None, built, len(inputs))

    def _question_order(
        self, partition: tuple[tuple[str, ...], ...] | None
    ) -> tuple[CompilerConfig, ...] | None:
        """Build order for :meth:`diverges`; None when *partition* does not
        name every implementation exactly once."""
        if partition is None:
            return self.implementations
        names = sorted(config.name for config in self.implementations)
        if not all(partition) or sorted(n for group in partition for n in group) != names:
            return None
        leaders = [group[0] for group in partition]
        by_name = {config.name: config for config in self.implementations}
        rest = [config for config in self.implementations if config.name not in leaders]
        return tuple(by_name[leader] for leader in leaders) + tuple(rest)

    def _lazy_answer(self, answer: bool, built: int, inputs: int) -> bool:
        self.stats.builds_skipped += len(self.implementations) - built
        self.stats.inputs_checked += inputs
        return answer

    def _full_answer(
        self,
        program: minic_ast.Program | str,
        inputs: list[bytes],
        partition: tuple[tuple[str, ...], ...] | None,
        name: str,
    ) -> bool:
        self.stats.full_checks += 1
        return _answer(self.check_batch([(program, inputs, name)])[0], partition)
