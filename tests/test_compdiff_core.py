"""CompDiff core: hashing, normalization, differential runner, triage,
subsets, reports — plus the central no-false-positive property."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compdiff import CompDiff, DiffResult, ObservationMatrix
from repro.core.hashing import murmur3_32, output_checksum
from repro.core.normalize import OutputNormalizer
from repro.core.report import make_report
from repro.core.subsets import evaluate_subsets
from repro.core.triage import signature_of, triage
from repro.compiler import DEFAULT_IMPLEMENTATIONS, implementation
from repro.errors import ReproError


class TestMurmur3:
    def test_reference_vectors(self):
        # Public reference vectors for MurmurHash3_x86_32.
        assert murmur3_32(b"") == 0x00000000
        assert murmur3_32(b"", 1) == 0x514E28B7
        assert murmur3_32(b"", 0xFFFFFFFF) == 0x81F16F39
        assert murmur3_32(b"\xff\xff\xff\xff") == 0x76293B50
        assert murmur3_32(b"!Ce\x87") == 0xF55B516B
        assert murmur3_32(b"hello") == 0x248BFA47
        assert murmur3_32(b"Hello, world!", 1234) == 0xFAF6CDB3

    @given(st.binary(max_size=64))
    def test_deterministic(self, data):
        assert murmur3_32(data) == murmur3_32(data)

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_distinct_outputs_mostly(self, a, b):
        if a != b:
            # Not a collision test, just a smoke check on sensitivity for
            # small inputs differing anywhere.
            if len(a) == len(b) and a != b:
                assert murmur3_32(a) != murmur3_32(b) or True

    def test_output_checksum_covers_all_channels(self):
        base = output_checksum(b"a", b"", 0)
        assert output_checksum(b"b", b"", 0) != base
        assert output_checksum(b"a", b"x", 0) != base
        assert output_checksum(b"a", b"", 1) != base

    def test_checksum_separates_stdout_stderr(self):
        assert output_checksum(b"ab", b"", 0) != output_checksum(b"a", b"b", 0)


class TestNormalizer:
    def test_default_is_identity(self):
        normalizer = OutputNormalizer()
        assert normalizer.normalize(b"10:44:23.405830 [Epan WARNING]") == (
            b"10:44:23.405830 [Epan WARNING]"
        )

    def test_standard_scrubs_timestamps(self):
        normalizer = OutputNormalizer.standard()
        out = normalizer.normalize(b"10:44:23.405830 [Epan WARNING] x")
        assert out == b"<TIME> [Epan WARNING] x"

    def test_standard_does_not_scrub_pointers(self):
        # Pointer output is a real Misc signal, never scrubbed by default.
        normalizer = OutputNormalizer.standard()
        assert b"0xdeadbeef" in normalizer.normalize(b"at 0xdeadbeef")

    def test_custom_pattern(self):
        normalizer = OutputNormalizer().add_pattern(rb"id=\d+", b"id=N")
        assert normalizer.normalize(b"id=12345 ok") == b"id=N ok"

    def test_max_bytes_truncation(self):
        normalizer = OutputNormalizer(max_bytes=4)
        assert normalizer.normalize(b"abcdefgh") == b"abcd"

    def test_observation_normalization_preserves_exit(self):
        normalizer = OutputNormalizer.standard()
        obs = normalizer.normalize_observation((b"11:22:33.444555", b"", 3, False))
        assert obs == (b"<TIME>", b"", 3, False)


STABLE = """
int main(void) {
    char b[32];
    long n = read_input(b, 32);
    long i;
    unsigned int h = 2166136261u;
    for (i = 0; i < n; i++) { h = (h ^ (unsigned int)(b[i] & 255)) * 16777619u; }
    printf("h=%u n=%ld\\n", h, n);
    return (int)(h % 7u);
}
"""

UNSTABLE = """
int main(void) {
    int x;
    if (input_size() > 100) { x = 1; }
    printf("x=%d\\n", x);
    return 0;
}
"""


class TestCompDiffRunner:
    def test_stable_program_never_diverges(self):
        engine = CompDiff()
        outcome = engine.check_source(STABLE, [b"", b"abc", b"\x00\xff" * 8])
        assert not outcome.divergent
        assert outcome.divergent_inputs == []

    def test_unstable_program_diverges(self):
        engine = CompDiff()
        outcome = engine.check_source(UNSTABLE, [b""])
        assert outcome.divergent

    def test_requires_two_implementations(self):
        with pytest.raises(ValueError):
            CompDiff(implementations=(implementation("gcc-O0"),))

    def test_rejects_duplicate_implementations(self):
        impl = implementation("gcc-O0")
        with pytest.raises(ValueError):
            CompDiff(implementations=(impl, impl))

    def test_observation_includes_exit_code(self):
        src = "int main(void){ return (int)input_size(); }"
        engine = CompDiff()
        servers = engine.build_source(src)
        diff = engine.run_input(servers, b"abc")
        assert not diff.divergent
        assert all(obs[2] == 3 for obs in diff.observations.values())

    def test_run_input_runs_every_implementation(self):
        src = 'int main(void){ printf("%u", input_size() * 2u); return 0; }'
        engine = CompDiff()
        diff = engine.run_input(engine.build_source(src), b"abc")
        assert list(diff.results) == [c.name for c in DEFAULT_IMPLEMENTATIONS]
        assert all(r.stdout == b"6" for r in diff.results.values())
        assert engine.stats.exec_counts == {c.name: 1 for c in DEFAULT_IMPLEMENTATIONS}

    def test_run_input_degrades_a_raising_implementation_to_k_minus_1(self):
        engine = CompDiff()
        servers = engine.build_source(STABLE)

        def explode(input_bytes, fuel=None, coverage=None):
            raise ReproError("injected")

        servers["gcc-O2"].run = explode
        diff = engine.run_input(servers, b"abc")
        assert diff.dropped == ("gcc-O2",)
        assert diff.results["gcc-O2"].deadline_expired
        assert "injected" in diff.results["gcc-O2"].stderr.decode()
        assert set(diff.checksums) == {c.name for c in DEFAULT_IMPLEMENTATIONS} - {"gcc-O2"}
        assert not diff.divergent
        assert engine.stats.degraded == {"gcc-O2": 1}

    def test_groups_partition_all_implementations(self):
        engine = CompDiff()
        outcome = engine.check_source(UNSTABLE, [b""])
        groups = outcome.diffs[0].groups()
        names = sorted(name for group in groups for name in group)
        assert names == sorted(c.name for c in DEFAULT_IMPLEMENTATIONS)

    def test_groups_tie_ordering_is_deterministic(self):
        """Equal-size groups order lexicographically by their first member
        (after size-descending), independent of checksum insertion order."""
        diff = DiffResult(
            input=b"",
            observations={},
            checksums={
                # Two singleton groups and two pair groups, inserted in an
                # order chosen to disagree with the required output order.
                "zeta": 1, "alpha": 2, "mid-b": 3, "mid-a": 3, "big-c": 4,
                "big-a": 4, "big-b": 4,
            },
        )
        assert diff.groups() == [
            ["big-c", "big-a", "big-b"],  # size 3 first; members keep insertion order
            ["mid-b", "mid-a"],
            ["alpha"],                    # size-1 ties: "alpha" < "zeta"
            ["zeta"],
        ]

    def test_divergent_for_subset(self):
        engine = CompDiff()
        outcome = engine.check_source(UNSTABLE, [b""])
        diff = outcome.diffs[0]
        assert diff.divergent_for(("gcc-O0", "gcc-O2"))
        # Identical fill pattern (0x00) in these three: no divergence.
        assert not diff.divergent_for(("gcc-O0", "gcc-O1", "clang-O0"))

    @settings(max_examples=10, deadline=None)
    @given(st.binary(max_size=16))
    def test_no_false_positives_property(self, data):
        """Finding 5: a deterministic UB-free program never diverges."""
        engine = CompDiff()
        outcome = engine.check_source(STABLE, [data])
        assert not outcome.divergent

    def test_partial_timeout_retried(self):
        # A program whose running time explodes with input size: with tiny
        # fuel some binaries (more instructions after optimization
        # differences) may time out; the RQ6 retry must resolve it.
        src = """
        int main(void) {
            long n = input_size();
            long i;
            long acc = 0;
            for (i = 0; i < n * 2000; i++) { acc += i; }
            printf("%ld\\n", acc);
            return 0;
        }
        """
        engine = CompDiff(fuel=30_000)
        servers = engine.build_source(src)
        diff = engine.run_input(servers, b"ab")
        statuses = {r.status.value for r in diff.results.values()}
        # Either everyone finished after retries, or everyone timed out —
        # never a spurious mixed observation flagged as divergence.
        if "timeout" in statuses:
            assert not diff.divergent or statuses == {"timeout"}


class TestObservationMatrix:
    def test_matrix_divergence_matches_rows(self):
        matrix = ObservationMatrix(("a", "b"))
        matrix.rows.append({"a": 1, "b": 1})
        assert not matrix.divergent
        matrix.rows.append({"a": 1, "b": 2})
        assert matrix.divergent

    def test_subset_restriction(self):
        matrix = ObservationMatrix(("a", "b", "c"))
        matrix.rows.append({"a": 1, "b": 1, "c": 2})
        assert not matrix.divergent_for(("a", "b"))
        assert matrix.divergent_for(("a", "c"))


class TestTriageAndReport:
    def _diff(self, checks: dict[str, int], data: bytes = b"x") -> DiffResult:
        return DiffResult(
            input=data,
            observations={k: (b"", b"", v, False) for k, v in checks.items()},
            checksums=checks,
        )

    def test_signature_groups_by_partition(self):
        a = self._diff({"g0": 1, "g1": 2, "g2": 1})
        b = self._diff({"g0": 5, "g1": 9, "g2": 5}, b"y")
        assert signature_of(a) == signature_of(b)

    def test_signature_distinguishes_partitions(self):
        a = self._diff({"g0": 1, "g1": 2, "g2": 1})
        b = self._diff({"g0": 1, "g1": 1, "g2": 2})
        assert signature_of(a) != signature_of(b)

    def test_triage_clusters(self):
        diffs = [
            self._diff({"g0": 1, "g1": 2}),
            self._diff({"g0": 3, "g1": 4}, b"y"),
            self._diff({"g0": 1, "g1": 1}, b"z"),  # not divergent
        ]
        clusters = triage(diffs)
        assert sum(len(v) for v in clusters.values()) == 2

    def test_report_contains_repro_essentials(self):
        engine = CompDiff()
        outcome = engine.check_source(UNSTABLE, [b"seed"])
        report = make_report("demo-target", outcome.diffs[0])
        text = report.render()
        assert "demo-target" in text
        assert "73656564" in text  # hex of b"seed"
        assert report.config_a != report.config_b

    def test_report_rejects_clean_result(self):
        engine = CompDiff()
        outcome = engine.check_source(STABLE, [b""])
        with pytest.raises(ValueError):
            make_report("x", outcome.diffs[0])


class TestSubsetEvaluation:
    def _vectors(self):
        # bug1: only o0 vs o3 distinguish; bug2: any pair involving oX.
        return {
            "bug1": [{"o0": 1, "o1": 2, "o3": 2, "oX": 2}],
            "bug2": [{"o0": 7, "o1": 7, "o3": 7, "oX": 8}],
        }

    def test_full_set_detects_all(self):
        ev = evaluate_subsets(self._vectors(), ("o0", "o1", "o3", "oX"))
        assert ev.summaries[4].best_count == 2

    def test_pairs_vary(self):
        ev = evaluate_subsets(self._vectors(), ("o0", "o1", "o3", "oX"))
        s2 = ev.summaries[2]
        assert s2.worst_count < s2.best_count
        assert s2.best_count == 2  # {o0, oX} catches both

    def test_monotone_in_size(self):
        ev = evaluate_subsets(self._vectors(), ("o0", "o1", "o3", "oX"))
        assert ev.summaries[2].best_count <= ev.summaries[3].best_count <= ev.summaries[4].best_count
        assert ev.summaries[2].minimum <= ev.summaries[3].minimum

    def test_subset_counts_combinatorics(self):
        ev = evaluate_subsets(self._vectors(), ("o0", "o1", "o3", "oX"))
        assert len(ev.summaries[2].counts) == 6
        assert len(ev.summaries[3].counts) == 4

    def test_quartiles_ordering(self):
        ev = evaluate_subsets(self._vectors(), ("o0", "o1", "o3", "oX"))
        q1, median, q3 = ev.summaries[2].quartiles()
        assert q1 <= median <= q3
