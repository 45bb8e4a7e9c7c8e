"""Outside-in span tracer for the repro layers.

The tracer wraps the public entry points of each ``src/repro`` layer from
outside the program: nothing in ``repro`` knows it is being measured.  A
wrapper replaces every binding its callers look up: the class attribute
of a method, or, for a function, the defining module's attribute and
every ``from ... import`` copy of it in another ``repro`` module.

Spans are kept in memory as ``[name, layer, start, end, parent]`` lists
and written out once, when the run ends.  :func:`layer_metrics` derives
the per-layer metrics from them: a layer's self time is its spans'
durations minus the time of their child spans, and ``other_s`` is the
traced wall time that no span claims.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import Counter
from typing import Callable

#: Every wrapped entry point: (layer, span name, module, attribute path,
#: a workload on which it must record at least one span).
ENTRY_POINTS: tuple[tuple[str, str, str, str, str], ...] = (
    ("minic", "load", "repro.minic", "load", "generate-ub"),
    ("minic", "parse", "repro.minic", "parse", "generate-ub"),
    ("compiler", "compile", "repro.compiler.binary", "compile_module_instrumented", "juliet-slice"),
    ("vm", "reference", "repro.vm.execution", "run_binary", "fuzz-tcpdump"),
    ("vm", "lockstep", "repro.vm.lockstep", "run_lockstep", "juliet-slice"),
    ("vm", "decode", "repro.vm.lockstep", "DecodedProgram.__init__", "juliet-slice"),
    ("vm", "layout", "repro.vm.memory", "ImageLayout.__init__", "juliet-slice"),
    ("core", "check", "repro.core.compdiff", "CompDiff.check", "generate-ub"),
    ("core", "run_input", "repro.core.compdiff", "CompDiff.run_input", "fuzz-tcpdump"),
    ("bisect", "bisect", "repro.core.bisect", "bisect_divergence", "generate-ub"),
    ("generator", "generate", "repro.generative.generator", "generate_program", "generate-ub"),
    ("reducer", "reduce", "repro.generative.reducer", "Reducer.reduce", "generate-ub"),
    ("bank", "add", "repro.generative.bank", "CorpusBank.add", "generate-ub"),
    ("ub_oracle", "report", "repro.static_analysis.ub_oracle", "UBOracle.report", "sancheck-mixed"),
    ("static_tools", "flags", "repro.static_analysis.base", "StaticAnalyzer.flags", "juliet-slice"),
    ("sanitizers", "check_all", "repro.sanitizers.base", "Sanitizer.check_all", "juliet-slice"),
    ("relocate", "variants", "repro.sanval.relocate", "relocation_variants", "sancheck-mixed"),
    ("verdict", "ground_truth", "repro.sanval.verdict", "VerdictEngine.ground_truth", "sancheck-mixed"),
    ("verdict", "judge_bad", "repro.sanval.verdict", "VerdictEngine.judge_bad", "sancheck-mixed"),
    ("verdict", "judge_good", "repro.sanval.verdict", "VerdictEngine.judge_good", "sancheck-mixed"),
    ("findings", "add", "repro.sanval.bank", "FindingBank.add", "sancheck-mixed"),
    ("mutate", "mutate", "repro.fuzzing.mutators", "MutationEngine.mutate", "fuzz-tcpdump"),
    ("mutate", "splice", "repro.fuzzing.mutators", "MutationEngine.splice", "fuzz-tcpdump"),
    ("fuzz", "queue_add", "repro.fuzzing.seedpool", "SeedPool.add", "fuzz-tcpdump"),
    ("fuzz", "queue_select", "repro.fuzzing.seedpool", "SeedPool.select", "fuzz-tcpdump"),
    ("fuzz", "new_bits", "repro.fuzzing.coverage", "CoverageMap.has_new_bits", "fuzz-tcpdump"),
    ("persist", "write", "repro.persist", "atomic_write_bytes", "generate-ub"),
)

#: Pass names reported on their own; every other pass is ``passes.other_s``.
NAMED_PASSES = ("copy_prop", "store_forward", "dce")

#: Metrics that split the traced wall time: they sum to it exactly.
SELF_TIME_METRICS = (
    "minic.self_s",
    "compiler.self_s",
    *(f"passes.{name}_s" for name in NAMED_PASSES + ("other",)),
    "vm.reference_s",
    "vm.lockstep_s",
    "vm.decode_s",
    "vm.layout_s",
    "core.self_s",
    "bisect.self_s",
    "generator.self_s",
    "reducer.self_s",
    "bank.self_s",
    "ub_oracle.self_s",
    "static_tools.self_s",
    "sanitizers.self_s",
    "relocate.self_s",
    "verdict.self_s",
    "findings.self_s",
    "mutate.self_s",
    "fuzz.self_s",
    "persist.self_s",
    "trace.self_s",
    "other_s",
)

_GEN = "generate-ub, sancheck-mixed"

#: The per-layer metrics in report order: (name, unit, better, the
#: end-to-end metric it should move, the workloads where it should).
LAYER_METRICS: tuple[tuple[str, str, str, str, str], ...] = (
    ("minic.calls", "count", "lower", "units_per_s", _GEN),
    ("minic.self_s", "s", "lower", "units_per_s", _GEN),
    ("minic.repeat_share", "ratio", "lower", "units_per_s", _GEN),
    ("compiler.calls", "count", "lower", "units_per_s", _GEN + ", juliet-slice"),
    ("compiler.self_s", "s", "lower", "units_per_s", _GEN + ", juliet-slice"),
    ("compiler.repeat_share", "ratio", "lower", "units_per_s", _GEN),
    ("compiler.fn_repeat_share", "ratio", "lower", "units_per_s", _GEN),
    ("passes.copy_prop_s", "s", "lower", "units_per_s", _GEN),
    ("passes.store_forward_s", "s", "lower", "units_per_s", _GEN),
    ("passes.dce_s", "s", "lower", "units_per_s", _GEN),
    ("passes.other_s", "s", "lower", "units_per_s", _GEN),
    ("vm.runs", "count", "lower", "units_per_s", "fuzz-tcpdump, juliet-slice"),
    ("vm.reference_runs", "count", "lower", "units_per_s", "fuzz-tcpdump"),
    ("vm.reference_s", "s", "lower", "units_per_s", "fuzz-tcpdump"),
    ("vm.lockstep_s", "s", "lower", "units_per_s", "fuzz-tcpdump, juliet-slice"),
    ("vm.decode_calls", "count", "lower", "units_per_s", "juliet-slice"),
    ("vm.decode_s", "s", "lower", "units_per_s", "juliet-slice"),
    ("vm.layout_s", "s", "lower", "units_per_s", "juliet-slice, generate-ub"),
    ("vm.instructions", "count", "lower", "units_per_s", "fuzz-tcpdump, juliet-slice"),
    ("core.inputs", "count", "lower", "units_per_s", "fuzz-tcpdump"),
    ("core.self_s", "s", "lower", "units_per_s", "fuzz-tcpdump"),
    ("core.fuel_retries", "count", "lower", "units_per_s", "fuzz-tcpdump"),
    ("core.degraded", "count", "lower", "units_per_s", "all workloads"),
    ("bisect.calls", "count", "lower", "units_per_s", "generate-ub"),
    ("bisect.self_s", "s", "lower", "units_per_s", "generate-ub"),
    ("generator.self_s", "s", "lower", "units_per_s", _GEN),
    ("reducer.tests", "count", "lower", "units_per_s", _GEN),
    ("reducer.accept_share", "ratio", "higher", "units_per_s", _GEN),
    ("reducer.repeat_share", "ratio", "lower", "units_per_s", _GEN),
    ("reducer.self_s", "s", "lower", "units_per_s", _GEN),
    ("bank.adds", "count", "lower", "units_per_s", "generate-ub"),
    ("bank.self_s", "s", "lower", "units_per_s", "generate-ub"),
    ("ub_oracle.calls", "count", "lower", "units_per_s", "sancheck-mixed, juliet-slice"),
    ("ub_oracle.self_s", "s", "lower", "units_per_s", "sancheck-mixed, juliet-slice"),
    ("static_tools.self_s", "s", "lower", "units_per_s", "juliet-slice"),
    ("sanitizers.calls", "count", "lower", "units_per_s", "juliet-slice, sancheck-mixed"),
    ("sanitizers.self_s", "s", "lower", "units_per_s", "juliet-slice, sancheck-mixed"),
    ("relocate.calls", "count", "lower", "units_per_s", "sancheck-mixed"),
    ("relocate.drop_share", "ratio", "lower", "units_per_s", "sancheck-mixed"),
    ("relocate.self_s", "s", "lower", "units_per_s", "sancheck-mixed"),
    ("verdict.self_s", "s", "lower", "units_per_s", "sancheck-mixed"),
    ("findings.adds", "count", "lower", "units_per_s", "sancheck-mixed"),
    ("findings.self_s", "s", "lower", "units_per_s", "sancheck-mixed"),
    ("mutate.self_s", "s", "lower", "units_per_s", "fuzz-tcpdump"),
    ("fuzz.self_s", "s", "lower", "units_per_s", "fuzz-tcpdump"),
    ("fuzz.oracle_share", "ratio", "lower", "units_per_s", "fuzz-tcpdump"),
    ("fuzz.queue_add_share", "ratio", "lower", "units_per_s", "fuzz-tcpdump"),
    ("persist.writes", "count", "lower", "units_per_s", _GEN),
    ("persist.bytes", "bytes", "lower", "units_per_s", _GEN),
    ("persist.self_s", "s", "lower", "units_per_s", _GEN),
    ("setup.import_s", "s", "lower", "setup_s", "all workloads"),
    ("setup.build_s", "s", "lower", "setup_s", "all workloads (fuzz-tcpdump builds 11 binaries)"),
    ("seeds.max_s", "s", "lower", "units_per_s", _GEN),
    ("seeds.over_deadline", "count", "lower", "units_per_s", _GEN),
    ("trace.self_s", "s", "lower", "none", "all workloads"),
    ("other_s", "s", "lower", "none", "all workloads"),
    ("trace.overhead", "ratio", "lower", "none", "all workloads"),
)

#: Layers whose entries (spans not nested in the same layer) are counted.
_CALL_LAYERS = ("minic", "compiler", "bisect", "ub_oracle", "sanitizers", "relocate")


def resolve(module_name: str, path: str):
    """The (owner, attribute name, current value) a dotted *path* names."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Records spans around the entry points in :data:`ENTRY_POINTS`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, layer, start, end, parent index or -1]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        #: Number of bindings wrapped per entry point, after :meth:`install`.
        self.bindings: dict[str, int] = {}
        #: id(wrapper) -> (wrapper, original), while installed.
        self._originals: dict[int, tuple[Callable, Callable]] = {}
        self._seen_texts: set[str] = set()
        self._seen_compiles: set[tuple] = set()
        self._seen_functions: set[tuple] = set()
        self._seen_candidates: set[str] = set()
        #: id(program AST) -> [weak ref, source text, function texts].
        self._texts: dict[int, list] = {}

    # ------------------------------------------------------------- spans

    def open(self, name: str, layer: str) -> list:
        stack = self._stack
        record = [name, layer, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str, after=None) -> Callable:
        """*fn* inside a span; ``after(args, kwargs, result)`` runs inside it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                tracer.close(record)

        return traced

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every entry point at every binding its callers look up.

        Every defining module is imported first, so no module imported
        halfway through can copy a wrapper instead of the original.
        """
        hooks = {
            ("minic", "load"): self._after_load,
            ("compiler", "compile"): self._after_compile,
            ("vm", "reference"): self._after_run,
            ("vm", "lockstep"): self._after_run,
            ("relocate", "variants"): self._after_relocate,
            ("persist", "write"): self._after_write,
        }
        custom = {
            ("reducer", "reduce"): self._wrap_reduce,
            ("core", "run_input"): self._wrap_run_input,
        }
        targets = [
            (layer, name, f"{module_name}.{path}", resolve(module_name, path))
            for layer, name, module_name, path, _workload in ENTRY_POINTS
        ]
        for layer, name, key, (owner, attr, original) in targets:
            if (layer, name) in custom:
                wrapper = custom[layer, name](original)
            else:
                wrapper = self.wrap(original, name, layer, hooks.get((layer, name)))
            self._originals[id(wrapper)] = (wrapper, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self.bindings[key] = 1
                continue
            self.bindings[key] = self._rebind(original, wrapper)

    def uninstall(self) -> None:
        """Put every original back, also where a module copied a wrapper."""
        for wrapper, original in self._originals.values():
            self._rebind(wrapper, original)
        for layer, name, module_name, path, _workload in ENTRY_POINTS:
            owner, attr, value = resolve(module_name, path)
            if id(value) in self._originals:
                setattr(owner, attr, self._originals[id(value)][1])
        self._originals.clear()

    @staticmethod
    def _rebind(old, new) -> int:
        """Point every ``repro`` module binding of *old* at *new*."""
        count = 0
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for binding, value in list(vars(module).items()):
                if value is old:
                    setattr(module, binding, new)
                    count += 1
        return count

    # --------------------------------------------------------------- hooks

    def _after_load(self, args, kwargs, program) -> None:
        source = args[0] if args else kwargs["source"]
        self.counts["minic.loads"] += 1
        if source in self._seen_texts:
            self.counts["minic.repeats"] += 1
        else:
            self._seen_texts.add(source)
        self._remember(program, source)

    def _remember(self, program, source: str) -> list:
        key = id(program)
        ref = weakref.ref(program, lambda _ref, key=key: self._texts.pop(key, None))
        entry = self._texts[key] = [ref, source, None]
        return entry

    def _after_compile(self, args, kwargs, result) -> None:
        _module, report = result
        counts = self.counts
        for application in report.schedule:
            name = application.pass_name
            counts[f"passes.{name if name in NAMED_PASSES else 'other'}_s"] += application.seconds
            counts["passes.total_s"] += application.seconds
        record = self.open("bookkeeping", "trace")
        try:
            self._count_compile(args, kwargs)
        finally:
            self.close(record)

    def _program_texts(self, program) -> tuple[str, tuple[str, ...]]:
        """*program*'s source text and per-function texts, printed once."""
        from repro.minic import ast, to_source

        entry = self._texts.get(id(program))
        if entry is None or entry[0]() is not program:
            entry = self._remember(program, to_source(program))
        if entry[2] is None:
            entry[2] = tuple(
                to_source(ast.Program(line=0, col=0, decls=[func])) for func in program.functions()
            )
        return entry[1], entry[2]

    def _count_compile(self, args, kwargs) -> None:
        program, config = args[0], args[1]
        limit = args[3] if len(args) > 3 else kwargs.get("max_pass_applications")
        budget = args[4] if len(args) > 4 else kwargs.get("budget")
        if limit is None and budget is not None:
            limit = budget.max_applications
        source, functions = self._program_texts(program)
        counts = self.counts
        counts["compiler.compiles"] += 1
        key = (source, config.name, limit)
        if key in self._seen_compiles:
            counts["compiler.repeats"] += 1
        else:
            self._seen_compiles.add(key)
        for text in functions:
            counts["compiler.fn_compiles"] += 1
            key = (text, config.name, limit)
            if key in self._seen_functions:
                counts["compiler.fn_repeats"] += 1
            else:
                self._seen_functions.add(key)

    def _after_run(self, args, kwargs, result) -> None:
        self.counts["vm.instructions"] += result.executed_instructions

    def _wrap_run_input(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def run_input(engine, servers, input_bytes):
            record = tracer.open("run_input", "core")
            try:
                retries = engine.stats.timeout_retries
                diff = original(engine, servers, input_bytes)
                tracer.counts["core.fuel_retries"] += engine.stats.timeout_retries - retries
                tracer.counts["core.degraded"] += diff.degraded
                return diff
            finally:
                tracer.close(record)

        return run_input

    def _wrap_reduce(self, original: Callable) -> Callable:
        """``Reducer.reduce`` with its predicate counted for the call."""
        tracer = self

        @functools.wraps(original)
        def reduce(reducer, source):
            predicate = reducer.predicate
            reducer.predicate = tracer._wrap_predicate(predicate)
            record = tracer.open("reduce", "reducer")
            try:
                result = original(reducer, source)
                tracer.counts["reducer.accepted"] += len(result.steps)
                return result
            finally:
                tracer.close(record)
                reducer.predicate = predicate

        return reduce

    def _wrap_predicate(self, predicate: Callable) -> Callable:
        tracer = self

        def test(candidate):
            record = tracer.open("test", "reducer")
            try:
                tracer.counts["reducer.tests"] += 1
                if candidate in tracer._seen_candidates:
                    tracer.counts["reducer.repeats"] += 1
                else:
                    tracer._seen_candidates.add(candidate)
                return predicate(candidate)
            finally:
                tracer.close(record)

        return test

    def _after_relocate(self, args, kwargs, variants) -> None:
        # The campaign passes ``line=`` only when relocating a bad
        # variant, the only relocations it may drop.
        if "line" in kwargs:
            self.counts["relocate.bad_variants"] += len(variants)

    def _after_write(self, args, kwargs, result) -> None:
        data = args[1] if len(args) > 1 else kwargs["data"]
        self.counts["persist.bytes"] += len(data)

    # -------------------------------------------------------------- output

    def dump(self, path: str) -> None:
        """Write every span as one JSON array per line, after a header."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"run_id": self.run_id, "spans": len(self.spans)}) + "\n")
            for name, layer, start, end, parent in self.spans:
                handle.write(json.dumps([f"{layer}.{name}", start, end, parent, self.run_id]))
                handle.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, _layer, start, end, _parent in spans]
    for _name, _layer, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, wall_s: float, workload_counts: dict) -> dict[str, float]:
    """Every metric in :data:`LAYER_METRICS` from *tracer*'s spans.

    *wall_s* is the traced wall time the spans fall in.  *workload_counts*
    carries what only the workload knows: executions and oracle steps,
    relocation drops, the set-up split, per-seed wall times and the
    untraced wall time of the same work.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_layer: Counter = Counter()
    by_name: Counter = Counter()
    calls: Counter = Counter()
    for index, (name, layer, _start, _end, parent) in enumerate(spans):
        by_layer[layer] += own[index]
        by_name[f"{layer}.{name}"] += own[index]
        calls[f"{layer}.{name}"] += 1
        if parent < 0 or spans[parent][1] != layer:
            calls[layer] += 1
    counts = tracer.counts

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    executions = workload_counts.get("executions", 0)
    seed_walls = workload_counts.get("seed_walls", [])
    deadline = workload_counts.get("seed_deadline")
    metrics: dict[str, float] = {
        "minic.repeat_share": share(counts["minic.repeats"], counts["minic.loads"]),
        "compiler.self_s": by_layer["compiler"] - counts["passes.total_s"],
        "compiler.repeat_share": share(counts["compiler.repeats"], counts["compiler.compiles"]),
        "compiler.fn_repeat_share": share(
            counts["compiler.fn_repeats"], counts["compiler.fn_compiles"]
        ),
        "vm.runs": calls["vm.reference"] + calls["vm.lockstep"],
        "vm.reference_runs": calls["vm.reference"],
        "vm.reference_s": by_name["vm.reference"],
        "vm.lockstep_s": by_name["vm.lockstep"],
        "vm.decode_calls": calls["vm.decode"],
        "vm.decode_s": by_name["vm.decode"],
        "vm.layout_s": by_name["vm.layout"],
        "vm.instructions": counts["vm.instructions"],
        "core.inputs": calls["core.run_input"],
        "core.fuel_retries": counts["core.fuel_retries"],
        "core.degraded": counts["core.degraded"],
        "reducer.tests": counts["reducer.tests"],
        "reducer.accept_share": share(counts["reducer.accepted"], counts["reducer.tests"]),
        "reducer.repeat_share": share(counts["reducer.repeats"], counts["reducer.tests"]),
        "bank.adds": calls["bank.add"],
        "findings.adds": calls["findings.add"],
        "relocate.drop_share": share(
            workload_counts.get("relocations_dropped", 0), counts["relocate.bad_variants"]
        ),
        "fuzz.oracle_share": share(workload_counts.get("oracle_steps", 0), executions),
        "fuzz.queue_add_share": share(calls["fuzz.queue_add"], executions),
        "persist.writes": calls["persist.write"],
        "persist.bytes": counts["persist.bytes"],
        "setup.import_s": workload_counts.get("import_s", 0.0),
        "setup.build_s": workload_counts.get("build_s", 0.0),
        "seeds.max_s": max(seed_walls, default=0.0),
        "seeds.over_deadline": sum(1 for wall in seed_walls if deadline and wall > deadline),
        "other_s": wall_s - sum(own),
        "trace.overhead": share(wall_s, workload_counts.get("untraced_wall_s", 0.0)),
    }
    for layer in _CALL_LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
    for name in NAMED_PASSES + ("other",):
        metrics[f"passes.{name}_s"] = counts[f"passes.{name}_s"]
    for name, *_rest in LAYER_METRICS:
        layer, _, field = name.partition(".")
        if field == "self_s" and name not in metrics:
            metrics[name] = by_layer[layer]
    return {name: metrics[name] for name, *_rest in LAYER_METRICS}
