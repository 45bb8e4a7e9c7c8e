"""The benchmark's workloads: a fixed list of units each, and its output checks.

Every workload runs serially (``workers=1``) in the calling process.  A
run has three phases, timed by :mod:`perfbench.child`:

* ``build()`` -- set-up: the workload's objects, up to the first unit;
* ``run(progress)`` -- the fixed list of units; campaigns call
  ``progress(offset)`` at each seed boundary;
* ``verify()`` -- output checks that need no recorded value (every
  saved diff and banked repro still diverges on a fresh ``CompDiff``,
  no Juliet good variant diverges); each mismatch fails one unit.

``identity()`` returns the values checked against ``expected.json`` --
at the default workload seed, or at every seed for a workload whose
units do not depend on it -- and compared between the traced and the
untraced run at any seed.
"""

from __future__ import annotations

import hashlib
import json
import os

#: The workload seed whose identity values ``expected.json`` records.
DEFAULT_SEED = 7


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _degraded(engine) -> int:
    return sum(engine.stats.degraded.values())


class Workload:
    """Base: a named fixed list of units; subclasses fill in the phases."""

    name = ""
    #: Modules imported during set-up (timed as ``setup.import_s``).
    modules: tuple[str, ...] = ()
    #: False when the units are the same at every workload seed, so the
    #: recorded identity values hold at every seed.
    seeded = True

    def __init__(self, seed: int, workdir: str, root: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.attempted = 0
        self.failed = 0
        #: Output-check mismatches, one line each.
        self.mismatches: list[str] = []

    def build(self) -> None:
        raise NotImplementedError

    def run(self, progress) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def identity(self) -> dict:
        raise NotImplementedError

    def counts(self) -> dict:
        """Workload-level counts the per-layer metrics need."""
        return {}

    def mismatch(self, message: str) -> None:
        self.mismatches.append(message)
        self.failed += 1


class FuzzTcpdump(Workload):
    """CompDiff-AFL++ (Algorithm 1) on tcpdump-sim from its own seed inputs.

    Unit: one execution of the coverage-instrumented binary B_fuzz.  A
    run is eight campaigns of 500 executions whose fuzzer seeds come
    from the workload seed: one campaign's speed depends on where its
    queue wanders (on a 2-vCPU Xeon VM one 4,000-execution campaign ran
    at 182-221 executions/s across seeds), so eight of them average that
    out.  The
    campaigns share one compile cache, so set-up parses the target eight
    times but compiles B_fuzz and the ten differential binaries once.
    The oracle stride is ``repro fuzz``'s default.
    """

    name = "fuzz-tcpdump"
    modules = ("repro.fuzzing", "repro.targets", "repro.parallel.cache")
    campaigns = 8
    executions = 500
    stride = 3

    def build(self) -> None:
        from repro.fuzzing import CompDiffFuzzer, FuzzerOptions
        from repro.parallel.cache import CompileCache
        from repro.targets import build_target

        target = build_target("tcpdump")
        self.source = target.source
        cache = CompileCache()
        self.fuzzers = [
            CompDiffFuzzer(
                self.source,
                target.seeds,
                FuzzerOptions(
                    rng_seed=self.seed * self.campaigns + index,
                    max_executions=self.executions,
                    compdiff_stride=self.stride,
                    compile_cache=cache,
                ),
                name="tcpdump",
            )
            for index in range(self.campaigns)
        ]

    def run(self, progress) -> None:
        self.attempted = self.campaigns * self.executions
        self.results = [fuzzer.run() for fuzzer in self.fuzzers]
        self.failed += sum(_degraded(fuzzer.compdiff) for fuzzer in self.fuzzers)

    def verify(self) -> None:
        from repro.core.compdiff import CompDiff

        engine = CompDiff()
        servers = engine.build_source(self.source, name="tcpdump")
        for result in self.results:
            for diff in result.diffs:
                if not engine.run_input(servers, diff.input).divergent:
                    self.mismatch(f"saved diff {diff.input.hex()} no longer diverges")

    def identity(self) -> dict:
        return {
            "campaigns": [
                [r.executions, r.oracle_executions, r.edges_covered, r.queue_size,
                 r.diffs_found, r.crashes_found]
                for r in self.results
            ],
        }

    def counts(self) -> dict:
        return {
            "executions": sum(r.executions for r in self.results),
            "oracle_steps": sum(r.oracle_executions for r in self.results),
        }


class GenerateUb(Workload):
    """``repro generate --seed 0 --budget 3 --profile ub`` with reduction.

    Unit: one generator seed.  The three generator seeds are the same at
    every workload seed: per-seed cost is heavy-tailed (on a 2-vCPU Xeon
    VM generator seed 5 alone runs 1,059 reducer tests in about 200 s,
    where seeds 0-4 take 5-14 s), so a window drawn from the workload
    seed would make a run's cost, and ``units_per_s``, depend on the
    draw by up to 40 times.
    """

    name = "generate-ub"
    modules = ("repro.generative",)
    seeded = False
    generator_seed = 0
    budget = 3

    def build(self) -> None:
        from repro.generative import CorpusBank, GenerativeCampaign, GenerativeOptions

        options = GenerativeOptions(
            seed=self.generator_seed,
            budget=self.budget,
            profile="ub",
            checkpoint_dir=os.path.join(self.workdir, "checkpoint"),
        )
        self.bank = CorpusBank(os.path.join(self.workdir, "corpus"))
        self.campaign = GenerativeCampaign(
            options, self.bank, progress=lambda offset: self._progress(offset)
        )

    def run(self, progress) -> None:
        self._progress = progress
        self.attempted = self.budget
        with self.campaign:
            self.result = self.campaign.run()
        self.failed += _degraded(self.campaign.engine)

    def verify(self) -> None:
        from repro.core.compdiff import CompDiff

        engine = CompDiff()
        for repro in self.bank:
            if not engine.check_source(repro.source, repro.inputs, name=repro.key).divergent:
                self.mismatch(f"banked repro {repro.key} no longer diverges")

    def identity(self) -> dict:
        result = self.result
        return {
            "keys": list(result.keys),
            "divergent": result.divergent,
            "banked": result.banked_new,
            "duplicates": result.duplicates,
            "drifted": result.drifted,
        }


class JulietSlice(Workload):
    """``evaluate_juliet`` with three static tools and three sanitizers.

    Unit: one Juliet case, its bad and its good variant.  The slice is
    ``build_suite(scale=0.005)`` at the suite's default seed, 102 cases,
    at every workload seed: one template (CWE-190 ``unsigned_wrap`` in a
    loop) runs out of fuel and costs 30-40 s a case on a 2-vCPU Xeon VM
    where the others cost under 1 s, and suite seeds 1-3 draw zero, two
    and one of it.
    """

    name = "juliet-slice"
    modules = ("repro.juliet", "repro.evaluation.juliet_eval")
    seeded = False
    scale = 0.005

    def build(self) -> None:
        from repro.juliet import build_suite

        self.suite = build_suite(scale=self.scale)

    def run(self, progress) -> None:
        from repro.evaluation.juliet_eval import evaluate_juliet

        self.attempted = len(self.suite.cases)
        self.evaluation = evaluate_juliet(self.suite)
        self.failed += sum(self.evaluation.engine_stats.degraded.values())

    def verify(self) -> None:
        false_positives = self.evaluation.compdiff_false_positives
        for _ in range(false_positives):
            self.mismatch("a Juliet good variant diverges (CompDiff false positive)")

    def identity(self) -> dict:
        from repro.evaluation.juliet_eval import render_table3

        return {
            "cases": len(self.suite.cases),
            "table3": _digest(render_table3(self.evaluation)),
            "compdiff_false_positives": self.evaluation.compdiff_false_positives,
        }


class SancheckMixed(Workload):
    """``repro sancheck`` over the planted fixtures plus two ub seeds.

    Unit: one campaign seed (three fixtures, then generator seeds 0 and
    1).  The seed list is the same at every workload seed, for the same
    reason as generate-ub's: generator seeds 0-5 cost 8-19 s each on a
    2-vCPU Xeon VM.
    """

    name = "sancheck-mixed"
    modules = ("repro.sanval",)
    seeded = False
    generator_seed = 0
    budget = 2

    def build(self) -> None:
        from repro.sanval.bank import FindingBank
        from repro.sanval.campaign import SancheckCampaign, SancheckOptions

        options = SancheckOptions(
            fixtures=os.path.join(self.root, "tests", "fixtures", "sanval"),
            seed=self.generator_seed,
            budget=self.budget,
            checkpoint_dir=os.path.join(self.workdir, "checkpoint"),
        )
        self.bank = FindingBank(os.path.join(self.workdir, "bank"))
        self.campaign = SancheckCampaign(
            options, bank=self.bank, progress=lambda offset: self._progress(offset)
        )

    def run(self, progress) -> None:
        self._progress = progress
        with self.campaign:
            self.result = self.campaign.run()
        self.attempted = self.result.seeds + self.result.skipped
        self.failed += self.result.skipped + _degraded(self.campaign.engine)

    def verify(self) -> None:
        from repro.core.compdiff import CompDiff
        from repro.minic import load
        from repro.sanitizers import all_sanitizers

        engine = CompDiff()
        sanitizers = {sanitizer.name: sanitizer for sanitizer in all_sanitizers()}
        for finding in self.bank:
            fired = sanitizers[finding.sanitizer].check(load(finding.source), finding.inputs)
            if (fired is None) != (finding.outcome == "FN"):
                self.mismatch(f"banked {finding.outcome} {finding.key} no longer replays")
            elif finding.outcome == "FN" and finding.partition:
                if not engine.check_source(finding.source, finding.inputs).divergent:
                    self.mismatch(f"banked FN {finding.key} no longer diverges")

    def identity(self) -> dict:
        return {
            "scoreboard": _digest(self.result.to_json()),
            "bank_keys": self.bank.keys(),
        }

    def counts(self) -> dict:
        return {"relocations_dropped": self.result.dropped}


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (FuzzTcpdump, GenerateUb, JulietSlice, SancheckMixed)
}
