"""Fuzzer component and campaign tests."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EngineConfigError
from repro.fuzzing import CompDiffFuzzer, CoverageMap, FuzzerOptions, MutationEngine, SeedPool
from repro.fuzzing.mutators import MAX_INPUT_SIZE, build_dictionary
from repro.targets import build_target


class TestCoverageMap:
    def test_new_edge_detected_once(self):
        cov = CoverageMap()
        cov.reset_trace()
        cov.record_edge(1, 2)
        assert cov.has_new_bits()
        cov.reset_trace()
        cov.record_edge(1, 2)
        assert not cov.has_new_bits()

    def test_hit_count_bucketing(self):
        cov = CoverageMap()
        cov.reset_trace()
        cov.record_edge(1, 2)
        cov.has_new_bits()
        cov.reset_trace()
        for _ in range(5):  # bucket 4-7 is new relative to bucket 1
            cov.record_edge(1, 2)
        assert cov.has_new_bits()

    def test_bucket_values(self):
        assert CoverageMap.bucket(1) == 1
        assert CoverageMap.bucket(3) == 2
        assert CoverageMap.bucket(5) == 4
        assert CoverageMap.bucket(200) == 128

    def test_edges_covered_counts_unique(self):
        cov = CoverageMap()
        cov.reset_trace()
        cov.record_edge(100, 2)
        cov.record_edge(7, 900)
        cov.has_new_bits()
        assert cov.edges_covered == 2

    def test_edge_is_direction_sensitive(self):
        cov = CoverageMap()
        cov.reset_trace()
        cov.record_edge(10, 20)
        cov.record_edge(20, 10)
        assert len(cov.trace) == 2


class TestMutators:
    def engine(self, dictionary=None) -> MutationEngine:
        return MutationEngine(random.Random(42), dictionary)

    def test_mutate_changes_input_usually(self):
        engine = self.engine()
        seed = b"hello world, this is a seed"
        changed = sum(engine.mutate(seed) != seed for _ in range(50))
        assert changed > 40

    def test_mutate_never_returns_empty(self):
        engine = self.engine()
        assert engine.mutate(b"") != b""

    @given(st.binary(max_size=128), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mutate_respects_size_bound(self, seed, rng_seed):
        engine = MutationEngine(random.Random(rng_seed))
        assert len(engine.mutate(seed)) <= MAX_INPUT_SIZE

    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_splice_respects_size_bound(self, a, b):
        engine = self.engine()
        assert len(engine.splice(a, b)) <= MAX_INPUT_SIZE

    def test_dictionary_tokens_appear(self):
        engine = self.engine([b"MAGIC"])
        hits = sum(b"MAGIC" in engine.mutate(b"xxxxxxxx") for _ in range(300))
        assert hits > 0

    def test_build_dictionary_widths_and_orders(self):
        tokens = build_dictionary([0x4142], [b"HDR"])
        assert b"BA" in tokens and b"AB" in tokens
        assert b"HDR" in tokens

    def test_build_dictionary_skips_empty_and_dedupes(self):
        tokens = build_dictionary([65, 65], [b"", b"x"])
        assert tokens.count(b"A") == 1
        assert b"" not in tokens


class TestSeedPool:
    def test_dedupes(self):
        pool = SeedPool(random.Random(1))
        assert pool.add(b"a") is not None
        assert pool.add(b"a") is None
        assert len(pool) == 1

    def test_select_prefers_fresh_small_seeds(self):
        pool = SeedPool(random.Random(1))
        pool.add(b"a")
        big = pool.add(b"b" * 400)
        big.fuzzed = 500
        picks = [pool.select().data for _ in range(200)]
        assert picks.count(b"a") > picks.count(b"b" * 400)

    def test_select_updates_fuzzed_counter(self):
        pool = SeedPool(random.Random(1))
        seed = pool.add(b"a")
        pool.select()
        assert seed.fuzzed == 1

    def test_pick_other(self):
        pool = SeedPool(random.Random(1))
        first = pool.add(b"a")
        pool.add(b"b")
        other = pool.pick_other(first)
        assert other is not None and other.data == b"b"

    def test_pick_other_single_seed(self):
        pool = SeedPool(random.Random(1))
        only = pool.add(b"a")
        assert pool.pick_other(only) is None

    def test_select_empty_raises(self):
        pool = SeedPool(random.Random(1))
        with pytest.raises(IndexError):
            pool.select()


GATED_TARGET = """
int main(void) {
    char buf[32];
    long n = read_input(buf, 32);
    if (n < 4) { printf("short\\n"); return 1; }
    if ((buf[0] & 255) != 77) { printf("nope\\n"); return 1; }
    if (buf[1] == 9) {
        __bugsite(5);
        int x;
        if (n > 30) { x = 1; }
        printf("x=%d\\n", x);
        return 0;
    }
    printf("ok %d\\n", buf[1]);
    return 0;
}
"""


class TestCampaign:
    def test_finds_gated_unstable_code(self):
        options = FuzzerOptions(max_executions=4000, compdiff_stride=4, rng_seed=11)
        fuzzer = CompDiffFuzzer(GATED_TARGET, [b"M\x00xxxx"], options)
        result = fuzzer.run()
        assert 5 in result.sites_reached
        assert 5 in result.sites_diverged
        assert result.diffs_found > 0

    def test_coverage_grows_from_seed(self):
        options = FuzzerOptions(max_executions=1000, compdiff_stride=10, rng_seed=3)
        fuzzer = CompDiffFuzzer(GATED_TARGET, [b"M\x00xxxx"], options)
        result = fuzzer.run()
        assert result.edges_covered > 4
        assert result.queue_size >= 1

    def test_oracle_stride(self):
        options = FuzzerOptions(max_executions=600, compdiff_stride=5, rng_seed=3)
        fuzzer = CompDiffFuzzer(GATED_TARGET, [b"M\x00xxxx"], options)
        result = fuzzer.run()
        assert result.oracle_executions <= result.executions // 5 + 2

    def test_zero_oracle_stride_is_refused(self):
        with pytest.raises(EngineConfigError, match="compdiff_stride"):
            CompDiffFuzzer(GATED_TARGET, [b"M\x00xxxx"], FuzzerOptions(compdiff_stride=0))

    def test_compdiff_disabled(self):
        options = FuzzerOptions(max_executions=300, enable_compdiff=False, rng_seed=3)
        fuzzer = CompDiffFuzzer(GATED_TARGET, [b"M\x00xxxx"], options)
        result = fuzzer.run()
        assert result.oracle_executions == 0
        assert result.diffs_found == 0

    def test_crash_collection(self):
        crashing = """
        int main(void) {
            char b[16];
            long n = read_input(b, 16);
            if (n > 2 && b[0] == 'D') {
                int d = (int)(n - n);
                printf("%d", 1 / d);
            }
            printf("fine\\n");
            return 0;
        }
        """
        options = FuzzerOptions(max_executions=2500, enable_compdiff=False, rng_seed=5)
        fuzzer = CompDiffFuzzer(crashing, [b"Dxx"], options)
        result = fuzzer.run()
        assert result.crashes_found > 0
        data, execution = result.crashes[0]
        assert execution.crashed

    def test_sanitizer_composes_with_fuzzing(self):
        overflowing = """
        int main(void) {
            char b[16];
            long n = read_input(b, 16);
            char small[4];
            if (n > 1 && b[0] == 'O') {
                small[(b[1] & 15)] = 1;
            }
            printf("done\\n");
            return (int)small[0];
        }
        """
        options = FuzzerOptions(
            max_executions=2500, enable_compdiff=False, sanitizer="asan", rng_seed=5
        )
        fuzzer = CompDiffFuzzer(overflowing, [b"O\x00"], options)
        result = fuzzer.run()
        assert result.crashes_found > 0
        _, execution = result.crashes[0]
        assert execution.sanitizer_report is not None

    def test_signatures_cluster_diffs(self):
        options = FuzzerOptions(max_executions=2500, compdiff_stride=4, rng_seed=11)
        fuzzer = CompDiffFuzzer(GATED_TARGET, [b"M\x09xxxx"], options)
        result = fuzzer.run()
        signatures = result.signatures()
        assert signatures
        assert sum(signatures.values()) == len(result.diffs)

    def test_dictionary_extracted_from_magic(self):
        options = FuzzerOptions(max_executions=10, enable_compdiff=False)
        fuzzer = CompDiffFuzzer(GATED_TARGET, [b"M"], options)
        assert any(token == bytes([77]) for token in fuzzer.mutator.dictionary)

    def test_deterministic_given_seed(self):
        options = FuzzerOptions(max_executions=800, compdiff_stride=6, rng_seed=99)
        first = CompDiffFuzzer(GATED_TARGET, [b"M\x00xxxx"], options).run()
        second = CompDiffFuzzer(GATED_TARGET, [b"M\x00xxxx"], options).run()
        assert first.diffs_found == second.diffs_found
        assert first.edges_covered == second.edges_covered


def _inputs_digest(inputs) -> str:
    """Order-sensitive digest of a sequence of byte strings."""
    h = hashlib.sha256()
    for data in inputs:
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return h.hexdigest()[:16]


class TestFixedSeedCampaign:
    def test_tcpdump_campaign_is_pinned(self):
        # Algorithm 1 end to end on one target: any drift in B_fuzz's edge
        # trace, its instruction counts or the oracle verdicts moves the
        # queue and the saved diffs.  Values recorded on the reference
        # interpreter's coverage runs.
        target = build_target("tcpdump")
        options = FuzzerOptions(rng_seed=0, max_executions=500, compdiff_stride=3)
        fuzzer = CompDiffFuzzer(target.source, target.seeds, options, name="tcpdump")
        result = fuzzer.run()
        assert (
            result.executions,
            result.oracle_executions,
            result.edges_covered,
            result.queue_size,
            result.diffs_found,
            result.crashes_found,
        ) == (500, 170, 72, 17, 19, 0)
        assert _inputs_digest(seed.data for seed in fuzzer.pool.seeds) == "d8d79c8e838d2ada"
        assert _inputs_digest(diff.input for diff in result.diffs) == "9c68989fb7f1ca43"
