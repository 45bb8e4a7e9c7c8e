"""Tests of the benchmark's tracer, on small versions of the four workloads.

Run from the root of the checkout: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import child  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    ENTRY_POINTS,
    LAYER_METRICS,
    SELF_TIME_METRICS,
    Tracer,
    self_times,
)
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    FuzzTcpdump,
    GenerateUb,
    JulietSlice,
    SancheckMixed,
)

#: The four workloads, each cut to a few seconds of the same work.
SMALL = {
    "fuzz-tcpdump": type("SmallFuzz", (FuzzTcpdump,), {"campaigns": 2, "executions": 300}),
    "generate-ub": type("SmallGenerate", (GenerateUb,), {"generator_seed": 1, "budget": 1}),
    "juliet-slice": type("SmallJuliet", (JulietSlice,), {"scale": 0.001}),
    "sancheck-mixed": type("SmallSancheck", (SancheckMixed,), {"budget": 0}),
}

#: Counts that must repeat exactly from run to run.
DETERMINISTIC = (
    "minic.repeat_share",
    "compiler.repeat_share",
    "compiler.fn_repeat_share",
    "reducer.tests",
    "reducer.repeat_share",
    "vm.runs",
    "vm.reference_runs",
    "vm.instructions",
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """An untraced and a traced run of every small workload."""
    return {
        name: {
            mode: child.run(cls, DEFAULT_SEED, mode, str(tmp_path_factory.mktemp(mode)))
            for mode in ("measure", "trace")
        }
        for name, cls in SMALL.items()
    }


def test_every_entry_point_records_a_span_on_its_workload(runs):
    for layer, name, module, path, workload in ENTRY_POINTS:
        traced = runs[workload]["trace"]
        assert traced["bindings"][f"{module}.{path}"] > 0, path
        assert traced["spans"].get(f"{layer}.{name}", 0) > 0, (path, workload)


def test_self_times_and_other_add_up_to_traced_wall(runs):
    for name, modes in runs.items():
        layers = modes["trace"]["layers"]
        assert sum(layers[metric] for metric in SELF_TIME_METRICS) == pytest.approx(
            modes["trace"]["window_s"], abs=1e-6
        ), name
        assert all(layers[metric] >= -1e-9 for metric in SELF_TIME_METRICS), name


def test_traced_and_untraced_runs_agree(runs):
    for name, modes in runs.items():
        assert modes["measure"]["error"] is None, modes["measure"]["error"]
        assert modes["trace"]["failed"] == 0 and modes["measure"]["failed"] == 0, name
        assert modes["trace"]["identity"] == modes["measure"]["identity"], name
        assert set(modes["trace"]["layers"]) == {metric for metric, *_ in LAYER_METRICS}


def test_deterministic_counts_repeat_exactly(runs, tmp_path):
    again = child.run(SMALL["generate-ub"], DEFAULT_SEED, "trace", str(tmp_path))
    first = runs["generate-ub"]["trace"]["layers"]
    assert {k: again["layers"][k] for k in DETERMINISTIC} == {k: first[k] for k in DETERMINISTIC}
    assert first["reducer.tests"] > 0 and first["vm.instructions"] > 0


def test_install_wraps_import_copies_and_uninstall_restores():
    import repro.generative.campaign as campaign
    import repro.generative.generator as generator
    import repro.sanval.campaign as sanval_campaign

    original = generator.generate_program
    tracer = Tracer("test")
    tracer.install()
    try:
        assert campaign.generate_program is generator.generate_program is not original
        assert sanval_campaign.generate_program is generator.generate_program
        generator.generate_program(0, "ub")
        assert [(span[1], span[0]) for span in tracer.spans[:1]] == [("generator", "generate")]
    finally:
        tracer.uninstall()
    assert campaign.generate_program is original is sanval_campaign.generate_program


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", "x", 0.0, 10.0, -1],
        ["b", "y", 1.0, 4.0, 0],
        ["c", "z", 2.0, 3.0, 1],
        ["d", "y", 5.0, 6.0, 0],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_host_speed_scales_wall_time_to_the_reference_host(runs):
    speed = child.HostSpeed()
    speed.samples = [child.REFERENCE_SAMPLE_S * 2] * 4
    assert speed.scale() == pytest.approx(0.5)
    assert speed.spent(since=2) == pytest.approx(child.REFERENCE_SAMPLE_S * 4)
    measured = runs["generate-ub"]["measure"]
    assert 0 < measured["units_s"] != measured["units_wall_s"]


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-tcpdump", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_declares_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == [
        (name, unit, better) for name, unit, better, *_ in LAYER_METRICS
    ]
