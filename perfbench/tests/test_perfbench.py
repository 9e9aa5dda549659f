"""Tests of the benchmark itself: input determinism, tracer clean-up and the
correctness gate.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gate
import run
import spans
from sfkit.pipeline import load_pipeline_weights
from sfkit.pointcloud import FlowField
from workloads import WORKLOADS, Workload, operation

TINY = Workload(
    name="tiny", config=(), n_background=300,
    box_lo=(-2.0, -2.0, -1.0), box_hi=(2.0, 2.0, 1.0),
    mover_lo=(-2.0, -2.0, -1.0), mover_hi=(2.0, 2.0, 1.0), pool=4,
)


@pytest.fixture
def tiny_run(tmp_path):
    """(weights, config, scene path, flow path) for pool scene 0 of TINY."""
    config = TINY.run_config()
    TINY.write_weights(tmp_path / "w.sfwt")
    TINY.write_scene(0, tmp_path / "s.sfsc")
    weights = load_pipeline_weights(tmp_path / "w.sfwt", config)
    return weights, config, tmp_path / "s.sfsc", tmp_path / "f.sffl"


def test_scenes_are_deterministic_per_seed(tmp_path):
    order = TINY.run_order(7)
    assert order == TINY.run_order(7)
    assert sorted(order) == list(range(TINY.pool))
    assert any(TINY.run_order(seed) != order for seed in range(8))
    for workload in WORKLOADS.values():
        assert workload.run_order(3) == workload.run_order(3)
        assert len({workload.scene_seed(i) for i in range(workload.pool)}) == workload.pool

    first = [TINY.write_scene(i, tmp_path / f"a{i}.sfsc") for i in order]
    again = [TINY.write_scene(i, tmp_path / f"b{i}.sfsc") for i in order]
    assert first == again
    assert len(set(first)) == TINY.pool
    for i in order:
        assert (tmp_path / f"a{i}.sfsc").read_bytes() == (tmp_path / f"b{i}.sfsc").read_bytes()


def _current(targets):
    return [vars(owner)[attr] for owner, attr, _, _ in targets]


def test_wrappers_are_removed_after_a_traced_run(tiny_run):
    weights, config, scene_path, flow_path = tiny_run
    targets = spans.hook_targets()
    originals = _current(targets)
    plain = operation(scene_path, flow_path, weights, config)

    tracer = spans.Tracer()
    tracemalloc.start()
    try:
        with spans.installed(tracer):
            assert all(a is not b for a, b in zip(_current(targets), originals))
            traced = operation(scene_path, flow_path, weights, config, tracer.span)
    finally:
        tracemalloc.stop()
    assert all(a is b for a, b in zip(_current(targets), originals))
    assert tracer.missing == []
    assert {name for _, _, name, _ in targets} <= {s.name for s in tracer.spans}
    assert traced.flow.vectors.tobytes() == plain.flow.vectors.tobytes()

    counts = tracer.counts[-1]
    assert counts["voxelizer.points"] == 5 * len(plain.flow)
    assert counts["serialization.tokens"] == counts["ssm.scan_length"] == len(plain.flow)
    assert 0 < counts["voxelizer.lookup_hits"] <= counts["voxelizer.lookup_queries"]

    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError("operation failed")
    assert all(a is b for a, b in zip(_current(targets), originals))


def test_gate_fails_on_a_perturbed_flow(tiny_run):
    weights, config, scene_path, flow_path = tiny_run
    out = operation(scene_path, flow_path, weights, config)
    ref = gate.summarize(out.flow, out.report, out.adaptive, out.three_bucket)
    assert gate.check(out, ref) == []

    def summary_of(vectors):
        return gate.summarize(FlowField(vectors), out.report, out.adaptive, out.three_bucket)

    within = out.flow.vectors * (1.0 + 1e-13)
    assert gate.compare(summary_of(within), ref) == []

    perturbed = out.flow.vectors.copy()
    perturbed[5, 0] += 1e-4
    assert any("projection" in p for p in gate.compare(summary_of(perturbed), ref))

    wrong_metric = replace(out.report, avg_epe=out.report.avg_epe * (1.0 + 1e-8))
    summary = gate.summarize(out.flow, wrong_metric, out.adaptive, out.three_bucket)
    assert gate.compare(summary, ref) == [
        f"metric avg_epe: {wrong_metric.avg_epe!r} vs {out.report.avg_epe!r}"
    ]

    stale = replace(out, loaded=FlowField(out.loaded.vectors + 1e-3))
    assert gate.check(stale, ref) != []


def test_benchmark_json_matches_what_the_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
