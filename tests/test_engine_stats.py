"""EngineStats: every declared counter folds, restores, pickles and shows
up, walked from the declarations so a new counter is covered as soon as
it is declared; batch latency percentiles are nearest-rank."""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro.parallel.stats import (
    COUNT,
    DECLARATIONS,
    PER_NAME,
    PER_PASS,
    SAMPLES,
    EngineStats,
)


def _value(kind, i: int):
    """A non-zero value of *kind*, distinct for each declaration index."""
    if kind is COUNT:
        return 100 + i
    if kind is PER_NAME:
        return Counter({f"impl-{i}": 200 + i, f"impl-{i}x": 300 + i})
    if kind is SAMPLES:
        return [0.25] * (i + 2)
    if kind is PER_PASS:
        return {f"pass-{i}": [400 + i, 500 + i, 0.75]}
    raise AssertionError(f"no test value for kind {kind}")


def _doubled(kind, value):
    if kind is COUNT:
        return 2 * value
    if kind is PER_NAME:
        return Counter({name: 2 * count for name, count in value.items()})
    if kind is SAMPLES:
        return value + value
    return {name: [2 * part for part in row] for name, row in value.items()}


def _shown(kind, value):
    """What ``snapshot()`` must hold for a counter of *kind*."""
    if kind is COUNT:
        return value
    if kind is PER_NAME:
        return dict(value)
    if kind is SAMPLES:
        return len(value)
    return {
        name: {"applications": apps, "changes": changes, "seconds": seconds}
        for name, (apps, changes, seconds) in value.items()
    }


def _rendered(kind, key, value) -> list[str]:
    """Fragments ``render()`` must contain for a counter of *kind*."""
    if kind is COUNT:
        return [f"{key}={value}"]
    if kind is PER_NAME:
        return [f"{name}={count}" for name, count in value.items()]
    if kind is SAMPLES:
        return [f"{key}={len(value)}"]
    return [
        fragment
        for name, (apps, changes, _seconds) in value.items()
        for fragment in (f"{name}:", f"applications={apps}", f"changes={changes}")
    ]


def _filled() -> EngineStats:
    stats = EngineStats()
    for i, (name, (kind, _section, _key)) in enumerate(DECLARATIONS):
        setattr(stats, name, _value(kind, i))
    return stats


def test_merge_into_empty_copies_every_counter():
    stats = _filled()
    merged = EngineStats()
    merged.merge(stats)
    assert merged == stats
    merged.merge(stats)
    assert stats == _filled(), "merge must not alias the source's containers"


def test_merging_twice_doubles_counts_and_concatenates_samples():
    stats = _filled()
    twice = EngineStats()
    twice.merge(stats)
    twice.merge(stats)
    for name, (kind, _section, _key) in DECLARATIONS:
        assert getattr(twice, name) == _doubled(kind, getattr(stats, name)), name


def test_restore_and_pickle_reproduce_every_counter():
    stats = _filled()
    restored = _filled()
    restored.merge(stats)
    restored.restore(stats)
    assert restored == stats
    # The fuzz checkpoint path: a pickled instance restored into a live one.
    thawed = pickle.loads(pickle.dumps(stats))
    assert thawed == stats
    resumed = EngineStats()
    resumed.restore(thawed)
    assert resumed == stats


def test_restoring_an_instance_pickled_before_a_counter_existed():
    # A fuzz checkpoint pickled by an older build lacks the counters
    # declared since: they restore as zero, the rest as recorded.
    stats = _filled()
    old = pickle.loads(pickle.dumps(stats))
    del old.questions_asked
    resumed = EngineStats()
    resumed.restore(old)
    assert resumed.questions_asked == 0
    assert resumed.builds_skipped == stats.builds_skipped
    assert resumed.exec_counts == stats.exec_counts


def test_every_counter_appears_in_snapshot_and_render():
    stats = _filled()
    snapshot = stats.snapshot()
    text = stats.render()
    for name, (kind, section, key) in DECLARATIONS:
        value = getattr(stats, name)
        shown = snapshot[section] if key is None else snapshot[section][key]
        assert shown == _shown(kind, value), name
        for fragment in _rendered(kind, key, value):
            assert fragment in text, (name, fragment)


@pytest.mark.parametrize(
    "samples, expected",
    [
        (range(1, 11), {50.0: 5, 90.0: 9, 99.0: 10}),
        (range(1, 101), {50.0: 50, 90.0: 90, 99.0: 99}),
        ([2, 1], {50.0: 1, 90.0: 2, 99.0: 2}),
    ],
)
def test_latency_percentiles_are_nearest_rank(samples, expected):
    stats = EngineStats(batch_latencies=[float(sample) for sample in samples])
    assert stats.latency_percentiles() == expected
