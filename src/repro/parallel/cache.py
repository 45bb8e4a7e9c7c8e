"""Content-addressed compile cache for the differential engine.

Compiling one program for all ten implementations costs several
milliseconds — more than executing most inputs — and campaigns, subset
ablations, and repeated ``check()`` calls recompile identical programs
over and over.  The cache keys compiled binaries by
``(program fingerprint, implementation fingerprint, build options)`` so
any engine (serial or parallel, parent or worker process) can reuse an
artifact the moment the same source shows up again.

Fingerprints are *structural*: two :func:`repro.minic.load` calls on the
same source produce distinct AST objects (and distinct checker-assigned
symbol uids), yet must map to the same cache key.  We therefore pickle
the AST through a pickler that replaces :class:`~repro.minic.checker.Symbol`
uids — the only load-order-dependent state the checker attaches — with a
stable structural reduction.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Optional

from repro.compiler.binary import CompiledBinary, compile_program
from repro.compiler.implementations import CompilerConfig
from repro.compiler.passes.manager import pipeline_digest
from repro.minic import ast as minic_ast
from repro.minic.checker import Symbol
from repro.parallel.stats import EngineStats

#: Default number of cached binaries before LRU eviction kicks in.
DEFAULT_CACHE_ENTRIES = 1024


def _symbol_identity(name: str, kind: str, is_static: bool, mangled: str, type_) -> tuple:
    """Reconstruction target for fingerprint pickles (never actually called
    to rebuild a Symbol — only its pickled reference matters)."""
    return (name, kind, is_static, mangled, type_)


class _FingerprintPickler(pickle.Pickler):
    """Pickler whose output is stable across re-loads of the same source.

    ``Symbol.uid`` values come from a process-global counter, so a plain
    ``pickle.dumps`` of a checked AST differs between two ``load()`` calls
    on identical source.  Everything else the parser/checker attach is a
    pure function of the source text.
    """

    def reducer_override(self, obj):  # type: ignore[override]
        if isinstance(obj, Symbol):
            return (
                _symbol_identity,
                (obj.name, obj.kind, obj.is_static, obj.mangled, obj.type),
            )
        return NotImplemented


def program_fingerprint(program: minic_ast.Program | str) -> str:
    """Content hash of a program (AST or raw source), stable across re-loads."""
    if isinstance(program, str):
        return "src:" + hashlib.sha256(program.encode("utf-8")).hexdigest()
    buffer = io.BytesIO()
    _FingerprintPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(program)
    return "ast:" + hashlib.sha256(buffer.getvalue()).hexdigest()


def config_fingerprint(config: CompilerConfig) -> str:
    """Content hash of a compiler implementation's full knob vector *and*
    the pipeline it selects.

    The name alone is not trusted: two configs may share a name but differ
    in a knob (tests do this), and a knob change must miss the cache.  The
    ``extra`` escape hatch is excluded, matching the config's own
    equality semantics.

    The :func:`~repro.compiler.passes.manager.pipeline_digest` component
    makes cached artifacts invalidate when the *pipeline* changes even if
    the knob vector does not — bumping a pass's ``version``, reordering a
    pipeline, or changing a fixpoint bound all produce a new digest.
    """
    parts = []
    for field in fields(config):
        if field.name == "extra":
            continue
        parts.append(f"{field.name}={getattr(config, field.name)!r}")
    parts.append(f"pipeline={pipeline_digest(config)}")
    return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()


def cache_key(
    program: minic_ast.Program | str,
    config: CompilerConfig,
    name: str = "",
    instrument_coverage: bool = False,
    sanitizer: str | None = None,
    program_fp: str | None = None,
) -> tuple:
    """The full content-addressed key for one compiled artifact."""
    fp = program_fp if program_fp is not None else program_fingerprint(program)
    return (fp, config_fingerprint(config), name, instrument_coverage, sanitizer)


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class CompileCache:
    """LRU cache of :class:`CompiledBinary` artifacts.

    Cached binaries are shared objects: the VM never mutates a module, and
    every :class:`~repro.vm.forkserver.ForkServer` run builds its machine
    state from scratch, so handing the same binary to many servers (or the
    same server many inputs) cannot leak execution state between runs —
    ``tests/test_compile_cache.py`` pins this down.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("CompileCache needs max_entries >= 1")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, CompiledBinary] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    # ------------------------------------------------------------- raw access

    def lookup(self, key: tuple) -> Optional[CompiledBinary]:
        """Return the cached binary for *key*, counting a hit or miss."""
        binary = self._entries.get(key)
        if binary is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return binary

    def store(self, key: tuple, binary: CompiledBinary) -> None:
        """Insert *binary*, evicting least-recently-used entries at the cap."""
        self._entries[key] = binary
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------ compilation

    def compile(
        self,
        program: minic_ast.Program,
        config: CompilerConfig,
        name: str = "",
        instrument_coverage: bool = False,
        sanitizer: str | None = None,
        program_fp: str | None = None,
    ) -> CompiledBinary:
        """``compile_program`` with content-addressed memoization."""
        key = cache_key(
            program,
            config,
            name=name,
            instrument_coverage=instrument_coverage,
            sanitizer=sanitizer,
            program_fp=program_fp,
        )
        binary = self.lookup(key)
        if binary is None:
            binary = compile_program(
                program,
                config,
                name=name,
                instrument_coverage=instrument_coverage,
                sanitizer=sanitizer,
            )
            self.store(key, binary)
        return binary


def compile_counted(
    program: minic_ast.Program,
    config: CompilerConfig,
    stats: EngineStats,
    cache: CompileCache | None = None,
    name: str = "",
    program_fp: str | None = None,
) -> CompiledBinary:
    """Compile *program* for *config*, through *cache* when one is given,
    and account the compile in *stats*: the cache's hit, miss and
    eviction deltas, and the pass report of a fresh compile.  Parent and
    worker compiles both come through here."""
    if cache is None:
        binary = compile_program(program, config, name=name)
    else:
        counts = cache.stats
        hits, misses, evictions = counts.hits, counts.misses, counts.evictions
        binary = cache.compile(program, config, name=name, program_fp=program_fp)
        stats.cache_hits += counts.hits - hits
        stats.cache_misses += counts.misses - misses
        stats.cache_evictions += counts.evictions - evictions
        if counts.misses == misses:
            return binary  # a replayed artifact: its passes ran when it was built
    for pass_name, row in binary.pass_report.per_pass().items():
        totals = stats.pass_timings.setdefault(pass_name, [0, 0, 0.0])
        totals[0] += row["applications"]
        totals[1] += row["changes"]
        totals[2] += row["seconds"]
    return binary
