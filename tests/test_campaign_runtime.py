"""Sharded campaign runtime tests: byte-identity, recovery, quarantine.

The headline contract (docs/ROBUSTNESS.md): a campaign run under
``--shards N`` — with or without injected shard faults — produces a
merged corpus byte-identical to a fault-free serial run, minus only the
contributions of seeds a ``poison`` fault drives into the quarantine
ledger.  Plus the supervision paths themselves: hang watchdog, poison
quarantine, shard-range adoption, supervisor crash-resume, and the
deferred-SIGINT boundary flush the campaign loops share with the
fuzzer.
"""

from __future__ import annotations

import json
import os
import shutil
import signal

import pytest

from repro.campaigns.runtime import (
    QUARANTINE_FILE,
    RESULT_FILE,
    CampaignRuntime,
    ShardPolicy,
    partition_range,
)
from repro.errors import CheckpointError, EngineConfigError
from repro.generative.bank import CorpusBank
from repro.generative.campaign import GenerativeCampaign, GenerativeOptions
from repro.parallel.faults import FaultPlan
from repro.sanval.bank import FindingBank
from repro.sanval.campaign import SancheckCampaign, SancheckOptions

pytestmark = [pytest.mark.faults, pytest.mark.slow]

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "sanval")

#: Small deterministic campaign: 4 seeds, no reduction (seeds are a few
#: seconds each with reduction; the sharding contract is orthogonal).
BUDGET = 4

#: Snappy recovery for tests; the 30s deadline still dwarfs one seed.
FAST = ShardPolicy(seed_deadline=30.0, backoff_base=0.01, backoff_max=0.05)


def _options(**overrides) -> GenerativeOptions:
    base = dict(seed=0, budget=BUDGET, reduce=False, stabilize_budget=4)
    base.update(overrides)
    return GenerativeOptions(**base)


def _corpus_bytes(root) -> dict[str, bytes]:
    """Every file under *root* by relative path — the byte-identity probe."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def _gen_signature(result) -> tuple:
    return (
        result.generated,
        result.divergent,
        result.banked_new,
        result.duplicates,
        result.drifted,
        result.keys,
        result.corpus_size,
    )


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    """The fault-free serial reference run: (result, corpus bytes, engine
    stats)."""
    root = tmp_path_factory.mktemp("serial-corpus")
    bank = CorpusBank(root)
    with GenerativeCampaign(_options(), bank) as campaign:
        result = campaign.run()
    assert result.banked_new > 0, "reference campaign must bank something"
    return result, _corpus_bytes(root), campaign.engine.stats


@pytest.fixture(scope="module")
def serial(serial_run):
    """The fault-free serial reference run: (result, corpus bytes)."""
    return serial_run[:2]


def _counters(stats) -> dict:
    """``stats.snapshot()`` without the values measured in seconds."""
    snap = stats.snapshot()
    for row in snap["passes"].values():
        del row["seconds"]
    del snap["checkpoints"]["total_seconds"]
    del snap["batches"]["latency_percentiles"]
    return snap


def _run_sharded(tmp_path, shards=2, policy=FAST, fault_plan=None, options=None):
    runtime = CampaignRuntime(
        GenerativeCampaign,
        options or _options(),
        CorpusBank(tmp_path / "merged"),
        root=str(tmp_path / "campaign"),
        shards=shards,
        policy=policy,
        fault_plan=fault_plan,
    )
    result = runtime.run()
    return runtime, result, _corpus_bytes(tmp_path / "merged")


# --------------------------------------------------------------- units


def test_partition_range_is_contiguous_and_balanced():
    assert partition_range(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert partition_range(4, 2) == [(0, 2), (2, 4)]
    assert partition_range(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]
    blocks = partition_range(97, 7)
    assert blocks[0][0] == 0 and blocks[-1][1] == 97
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    with pytest.raises(EngineConfigError):
        partition_range(5, 0)


def test_shard_policy_validation():
    with pytest.raises(EngineConfigError):
        ShardPolicy(seed_deadline=0)
    with pytest.raises(EngineConfigError):
        ShardPolicy(max_seed_attempts=0)
    with pytest.raises(EngineConfigError):
        ShardPolicy(max_shard_restarts=-1)
    assert ShardPolicy().backoff(0) == ShardPolicy().backoff_base


def test_default_seed_deadline_outlasts_a_slow_seed():
    # ub generator seed 5 takes 169-198 s serially; a slow seed is not a
    # hang.  The CLI keeps ShardPolicy's defaults, so they live in one place.
    from repro.cli import _shard_policy, build_parser

    assert ShardPolicy().seed_deadline >= 3 * 198
    for command in (["generate", "--corpus", "c"], ["sancheck", "--bank", "b"]):
        policy = _shard_policy(build_parser().parse_args(command))
        assert policy.seed_deadline == ShardPolicy().seed_deadline
        assert policy.max_seed_attempts == ShardPolicy().max_seed_attempts


def test_shard_fault_plan_is_pure_and_validates():
    plan = FaultPlan(seed=3, crash=0.5, hang=0.25)
    decisions = [plan.decide(offset, 0) for offset in range(50)]
    assert decisions == [plan.decide(offset, 0) for offset in range(50)]
    assert all(plan.decide(offset, 1) is None for offset in range(50))
    once = FaultPlan(once={4: "hang"})
    assert once.decide(4, 0) == "hang" and once.decide(4, 1) is None
    poison = FaultPlan(poison={4: "crash"})
    assert all(poison.decide(4, attempt) == "crash" for attempt in range(5))
    with pytest.raises(ValueError):
        FaultPlan(crash=0.9, hang=0.9)
    with pytest.raises(ValueError):
        FaultPlan(once={1: "meteor"})


# ------------------------------------------------- byte-identity contract


def test_sharded_run_matches_serial_byte_for_byte(serial, tmp_path):
    serial_result, serial_bytes = serial
    runtime, merged, merged_bytes = _run_sharded(tmp_path)
    assert merged_bytes == serial_bytes
    assert _gen_signature(merged) == _gen_signature(serial_result)
    shards = runtime.stats.snapshot()["shards"]
    assert shards == {"restarts": 0, "adoptions": 0, "seeds_quarantined": 0}


def test_sharded_stats_match_serial(serial_run, tmp_path):
    # Each shard's engine counters travel home in its result record.
    _, _, serial_stats = serial_run
    runtime, _, _ = _run_sharded(tmp_path)
    assert serial_stats.total_executions > 0
    assert _counters(runtime.stats) == _counters(serial_stats)


def test_rerunning_a_finished_campaign_is_idempotent(serial, tmp_path):
    _, serial_bytes = serial
    _run_sharded(tmp_path)
    # Every shard already has a valid result record: the rerun must
    # launch nothing and still merge the same corpus into a fresh bank.
    rerun = CampaignRuntime(
        GenerativeCampaign,
        _options(),
        CorpusBank(tmp_path / "merged-again"),
        root=str(tmp_path / "campaign"),
        shards=2,
        policy=FAST,
    )
    result = rerun.run()
    assert _corpus_bytes(tmp_path / "merged-again") == serial_bytes
    assert result.banked_new > 0
    assert rerun.stats.snapshot()["shards"]["restarts"] == 0


def test_crash_and_corrupt_faults_converge_to_serial(serial_run, tmp_path):
    serial_result, serial_bytes, serial_stats = serial_run
    # Crash shard 0 at its second seed; corrupt shard 1's checkpoint at
    # its second seed (exercises the wipe-and-replay self-heal).
    plan = FaultPlan(once={1: "crash", 3: "corrupt"})
    runtime, merged, merged_bytes = _run_sharded(tmp_path, fault_plan=plan)
    assert merged_bytes == serial_bytes
    assert _gen_signature(merged) == _gen_signature(serial_result)
    assert runtime.stats.snapshot()["shards"]["restarts"] == 2
    assert not runtime.quarantine
    # The crashed shard resumed its checkpoint's counters, so the merged
    # counters still equal the serial run's, recovery section aside.
    counters, expected = _counters(runtime.stats), _counters(serial_stats)
    del counters["shards"], expected["shards"]
    assert counters == expected


def test_hung_shard_is_killed_and_replayed(serial, tmp_path):
    serial_result, serial_bytes = serial
    # The injected hang sleeps HANG_SECONDS (600 s); keep the deadline
    # far above honest per-seed wall time on a loaded machine so only
    # the injected hang can trip the watchdog.
    plan = FaultPlan(once={1: "hang"})
    policy = ShardPolicy(seed_deadline=30.0, backoff_base=0.01, backoff_max=0.05)
    runtime, merged, merged_bytes = _run_sharded(tmp_path, policy=policy, fault_plan=plan)
    assert merged_bytes == serial_bytes
    assert _gen_signature(merged) == _gen_signature(serial_result)
    assert runtime.stats.snapshot()["shards"]["restarts"] == 1


def test_exhausted_shard_range_is_adopted_in_process(serial, tmp_path):
    serial_result, serial_bytes = serial
    plan = FaultPlan(once={0: "crash"})
    policy = ShardPolicy(
        seed_deadline=30.0, max_shard_restarts=0, backoff_base=0.01, backoff_max=0.05
    )
    runtime, merged, merged_bytes = _run_sharded(tmp_path, policy=policy, fault_plan=plan)
    assert merged_bytes == serial_bytes
    assert _gen_signature(merged) == _gen_signature(serial_result)
    shards = runtime.stats.snapshot()["shards"]
    assert shards["restarts"] == 1 and shards["adoptions"] == 1


# ----------------------------------------------------- poison quarantine


def test_poison_seed_lands_in_the_ledger_and_campaign_completes(serial, tmp_path):
    serial_result, serial_bytes = serial
    plan = FaultPlan(poison={2: "crash"})
    policy = ShardPolicy(
        seed_deadline=30.0, max_seed_attempts=2, backoff_base=0.01, backoff_max=0.05
    )
    runtime, merged, merged_bytes = _run_sharded(tmp_path, policy=policy, fault_plan=plan)
    assert [(entry.seq, entry.label) for entry in runtime.quarantine] == [(2, "gen-ub-2")]
    assert runtime.stats.snapshot()["shards"]["seeds_quarantined"] == 1
    # The merged corpus is the serial corpus minus exactly the
    # quarantined seed's contribution.
    assert merged.generated == serial_result.generated - 1
    poisoned_key = serial_result.keys[2]
    assert merged.keys == [key for i, key in enumerate(serial_result.keys) if i != 2]
    assert all(
        path in serial_bytes
        for path in merged_bytes
        if "manifest" not in path
    )
    assert f"programs/{poisoned_key}.c" not in merged_bytes
    # The ledger is durable and reloadable.
    ledger = json.loads(
        open(os.path.join(tmp_path, "campaign", QUARANTINE_FILE)).read()
    )
    assert ledger["entries"][0]["offset"] == 2
    assert ledger["entries"][0]["label"] == "gen-ub-2"


# ------------------------------------------------------- crash recovery


def test_dead_supervisor_resumes_and_converges(serial, tmp_path):
    serial_result, serial_bytes = serial
    _run_sharded(tmp_path)
    # Simulate the supervisor dying before shard 1 finished: drop its
    # result record and half its progress (checkpoint + bank), keeping
    # shards.json — the resumed run must replay only what is missing.
    shard_dir = tmp_path / "campaign" / "shard-01"
    os.remove(shard_dir / RESULT_FILE)
    shutil.rmtree(shard_dir / "ckpt")
    shutil.rmtree(shard_dir / "bank")
    resumed = CampaignRuntime(
        GenerativeCampaign,
        _options(),
        CorpusBank(tmp_path / "merged-resumed"),
        root=str(tmp_path / "campaign"),
        shards=2,
        policy=FAST,
    )
    result = resumed.run()
    assert _corpus_bytes(tmp_path / "merged-resumed") == serial_bytes
    assert _gen_signature(result) == _gen_signature(serial_result)


def test_incompatible_shard_plan_is_refused(serial, tmp_path):
    _run_sharded(tmp_path)
    for bad_kwargs in ({"shards": 3}, {"options": _options(profile="plain")}):
        runtime = CampaignRuntime(
            GenerativeCampaign,
            bad_kwargs.get("options", _options()),
            CorpusBank(tmp_path / "merged-bad"),
            root=str(tmp_path / "campaign"),
            shards=bad_kwargs.get("shards", 2),
            policy=FAST,
        )
        with pytest.raises(CheckpointError, match="different campaign"):
            runtime.run()


# ------------------------------------------------------- sanval sharding


def _san_options(**overrides) -> SancheckOptions:
    base = dict(fixtures=FIXTURES, relocations=("outline",), reduce=False)
    base.update(overrides)
    return SancheckOptions(**base)


def test_sancheck_sharded_matches_serial(tmp_path):
    with SancheckCampaign(_san_options(), bank=FindingBank(tmp_path / "serial")) as c:
        serial_result = c.run()
    runtime = CampaignRuntime(
        SancheckCampaign,
        _san_options(),
        FindingBank(tmp_path / "merged"),
        root=str(tmp_path / "campaign"),
        shards=2,
        policy=FAST,
    )
    merged = runtime.run()
    assert _corpus_bytes(tmp_path / "merged") == _corpus_bytes(tmp_path / "serial")
    assert [v.to_json() for v in merged.verdicts] == [
        v.to_json() for v in serial_result.verdicts
    ]
    for attr in ("seeds", "variants", "dropped", "screened", "skipped",
                 "banked_new", "duplicates", "bank_size"):
        assert getattr(merged, attr) == getattr(serial_result, attr), attr


# --------------------------------------------------- SIGINT boundary flush


def test_generative_sigint_flushes_at_boundary_and_resumes(tmp_path):
    options = _options(budget=3, checkpoint_dir=str(tmp_path / "ckpt"))
    reference_bank = CorpusBank(tmp_path / "reference")
    with GenerativeCampaign(_options(budget=3), reference_bank) as campaign:
        reference = campaign.run()

    def fire_sigint(offset: int) -> None:
        if offset == 1:
            os.kill(os.getpid(), signal.SIGINT)

    bank = CorpusBank(tmp_path / "corpus")
    with GenerativeCampaign(options, bank, progress=fire_sigint) as campaign:
        with pytest.raises(KeyboardInterrupt, match="checkpoint flushed"):
            campaign.run()
    # The signal landed at offset 1's boundary but was deferred: seed 1
    # completed and the flushed checkpoint records it.
    from repro.campaigns.kernel import read_state

    flushed = read_state(
        str(tmp_path / "ckpt" / GenerativeCampaign.checkpoint_file),
        GenerativeCampaign.kind,
        options.digest(),
    )
    assert flushed.offset == 2
    with GenerativeCampaign(options, bank) as campaign:
        resumed = campaign.run()
    assert resumed.resumed_at == 2
    assert _gen_signature(resumed)[:6] == _gen_signature(reference)[:6]
    assert _corpus_bytes(tmp_path / "corpus") == _corpus_bytes(tmp_path / "reference")


def test_sancheck_sigint_flushes_at_boundary_and_resumes(tmp_path):
    with SancheckCampaign(_san_options(), bank=FindingBank(tmp_path / "reference")) as c:
        reference = c.run()

    def fire_sigint(offset: int) -> None:
        if offset == 1:
            os.kill(os.getpid(), signal.SIGINT)

    options = _san_options(checkpoint_dir=str(tmp_path / "ckpt"))
    bank = FindingBank(tmp_path / "bank")
    with SancheckCampaign(options, bank=bank, progress=fire_sigint) as campaign:
        with pytest.raises(KeyboardInterrupt, match="checkpoint flushed"):
            campaign.run()
    from repro.campaigns.kernel import read_state

    flushed = read_state(
        str(tmp_path / "ckpt" / SancheckCampaign.checkpoint_file),
        SancheckCampaign.kind,
        options.digest(),
    )
    assert flushed.offset == 2
    with SancheckCampaign(options, bank=bank) as campaign:
        resumed = campaign.run()
    assert resumed.resumed_at == 2
    assert [v.to_json() for v in resumed.verdicts] == [
        v.to_json() for v in reference.verdicts
    ]
    assert _corpus_bytes(tmp_path / "bank") == _corpus_bytes(tmp_path / "reference")
