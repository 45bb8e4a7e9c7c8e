"""Digest-addressed summary cache: invalidation, persistence, verdicts."""

from __future__ import annotations

import json

import pytest

from repro.compiler.binary import compile_module
from repro.compiler.implementations import implementation
from repro.minic import load
from repro.static_analysis import SummaryCache, UBOracle
from repro.static_analysis.interproc import (
    SUMMARY_VERSION,
    build_call_graph,
    function_digests,
    summarize_module,
)
from repro.static_analysis.summary_cache import CACHE_FILENAME

pytestmark = pytest.mark.interproc

SOURCE = """
static int readit(int *p) { return *p; }
static int chain(int *p) { return readit(p); }
int main(void) {
    int value;
    printf("v=%d\\n", chain(&value));
    return 0;
}
"""

#: Same call structure, different callee body — every digest on the
#: chain from readit() up must change.
EDITED = SOURCE.replace("return *p;", "*p = 7; return *p;")


def _module(source: str, name: str = "m"):
    return compile_module(load(source), implementation("gcc-O0"), name=name)


class TestDigests:
    def test_digest_changes_when_body_changes(self):
        before = function_digests(_module(SOURCE))
        after = function_digests(_module(EDITED))
        assert before["readit"] != after["readit"]
        # Transitivity: callers of the edited function change too.
        assert before["chain"] != after["chain"]
        assert before["main"] != after["main"]

    def test_digest_stable_across_recompiles(self):
        assert function_digests(_module(SOURCE)) == function_digests(_module(SOURCE))

    def test_unrelated_function_digest_unchanged(self):
        appended = SOURCE + "\nstatic int island(void) { return 3; }\n"
        before = function_digests(_module(SOURCE))
        after = function_digests(_module(appended))
        # readit/chain do not call island, so their input set is intact.
        assert before["readit"] == after["readit"]
        assert before["chain"] == after["chain"]


class TestCacheSemantics:
    def test_cold_then_warm(self):
        module = _module(SOURCE)
        cache = SummaryCache()
        summarize_module(module, cache=cache)
        assert cache.stats.misses > 0 and cache.stats.hits == 0
        summarize_module(module, cache=cache)
        assert cache.stats.hits > 0
        assert cache.stats.invalidations == 0

    def test_body_change_invalidates(self):
        cache = SummaryCache()
        summarize_module(_module(SOURCE), cache=cache)
        misses_cold = cache.stats.misses
        # Same module name, same function names, different readit body:
        # the stale entries must be discarded, not served.
        summarize_module(_module(EDITED), cache=cache)
        assert cache.stats.invalidations > 0
        assert cache.stats.misses > misses_cold

    def test_lookup_accounting(self):
        module = _module(SOURCE)
        digests = function_digests(module, build_call_graph(module))
        ctx = summarize_module(module)
        summary = ctx.summaries["readit"]
        cache = SummaryCache()
        assert cache.lookup("m", "readit", digests["readit"]) is None
        cache.store("m", "readit", digests["readit"], summary)
        assert cache.lookup("m", "readit", digests["readit"]) is summary
        assert cache.lookup("m", "readit", "0" * 16) is None  # stale digest
        snap = cache.stats.snapshot()
        assert snap["hits"] == 1
        assert snap["misses"] == 2
        assert snap["invalidations"] == 1
        # The stale entry was evicted, so the old digest can't come back.
        assert len(cache) == 0


class TestPersistence:
    def test_round_trip_via_directory(self, tmp_path):
        module = _module(SOURCE)
        cold = SummaryCache(tmp_path)
        summarize_module(module, cache=cold)
        cold.save()
        assert (tmp_path / CACHE_FILENAME).exists()

        warm = SummaryCache(tmp_path)
        assert len(warm) == len(cold)
        summarize_module(module, cache=warm)
        assert warm.stats.hits > 0 and warm.stats.misses == 0

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / CACHE_FILENAME
        path.write_text("{not json")
        cache = SummaryCache(tmp_path)
        assert len(cache) == 0

    def test_version_mismatch_ignored(self, tmp_path):
        module = _module(SOURCE)
        cache = SummaryCache(tmp_path)
        summarize_module(module, cache=cache)
        cache.save()
        document = json.loads((tmp_path / CACHE_FILENAME).read_text())
        document["version"] = SUMMARY_VERSION + 1
        (tmp_path / CACHE_FILENAME).write_text(json.dumps(document))
        assert len(SummaryCache(tmp_path)) == 0


class TestVerdictEquality:
    def test_hot_and_cold_reports_byte_identical(self, tmp_path):
        def report_lines(oracle):
            findings = oracle.report(load(SOURCE), name="case").findings
            return [
                (f.checker, f.confidence, f.function, f.line, f.message, f.trace)
                for f in findings
            ]

        cold_cache = SummaryCache(tmp_path)
        cold = report_lines(UBOracle(mode="interproc", summary_cache=cold_cache))
        assert cold_cache.stats.misses > 0
        cold_cache.save()

        warm_cache = SummaryCache(tmp_path)
        warm = report_lines(UBOracle(mode="interproc", summary_cache=warm_cache))
        assert warm_cache.stats.hits > 0 and warm_cache.stats.misses == 0
        assert cold == warm
        # The chain case really does produce findings in both runs.
        assert any(checker == "uninit_read" for checker, *_ in cold)

