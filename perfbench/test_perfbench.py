"""Tests of the benchmark itself: tiny-size smoke runs of every workload, the
correctness gate, and the span arithmetic behind self times.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
from maler import harness, meta  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

W = workloads.WORKLOADS
TINY = {
    "reg-stream": dataclasses.replace(W["reg-stream"], rounds=20, dim=5),
    "reg-wide": dataclasses.replace(W["reg-wide"], rounds=20, dim=8),
    "cls-libsvm": dataclasses.replace(W["cls-libsvm"], rounds=20, examples=300),
}


def tiny_run(tmp_path, name, reference=None):
    return workloads.WorkloadRun(TINY[name], 3, str(tmp_path), reference)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_emits_every_end_to_end_metric(tmp_path, name):
    res = workloads.measure(tiny_run(tmp_path, name), seconds=0, import_s=0.1)
    assert res["tally"].errors == []
    metrics = res["metrics"]
    for spec in SPEC["end_to_end"]:
        value, unit = metrics[spec["name"]]
        assert unit == spec["unit"]
        assert value > 0
    assert metrics["fail_frac"] == (0.0, "ratio")
    assert (metrics["out_mib"][0] > 0) == TINY[name].via_cli
    assert res["samples"]["maler_round_ms"] >= workloads.MIN_ROUND_SAMPLES
    assert all(value > 0 for value in res["wall"].values())
    assert set(res["regrets"]) == set(TINY[name].algos)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_layer_metrics_and_restores_the_package(tmp_path, name):
    targets = workloads.trace_targets()
    before = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    res = workloads.measure_traced(tiny_run(tmp_path, name), seconds=0)
    assert res["tally"].errors == [] and res["counts_repeat"]
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == before
    assert harness.meta_regret_certificate is meta.meta_regret_certificate

    metrics = res["metrics"]
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]][1] == spec["unit"]
    wl = TINY[name]
    assert metrics["universal.rounds"][0] == wl.rounds
    steps = metrics["experts.newton_expert_step.calls"][0]
    assert steps == wl.rounds * (meta.grid_depth(wl.rounds) + 1)
    assert (metrics["core.project_weighted.inside.calls"][0]
            + metrics["core.project_weighted.outside.calls"][0]) == steps
    assert metrics["meta.recompute_surrogate_losses.calls"][0] == 2
    assert (metrics["libsvm.rows"][0] > 0) == (wl.task == "classification")
    assert (metrics["harness.save_trace.bytes"][0] > 0) == wl.via_cli


def test_tampered_reference_fails_the_job_instead_of_timing_it(tmp_path):
    clean = workloads.measure(tiny_run(tmp_path / "clean", "reg-stream"), 0, 0.0)
    exact = dict(clean["regrets"])
    res = workloads.measure(tiny_run(tmp_path / "exact", "reg-stream", exact), 0, 0.0)
    assert res["metrics"]["fail_frac"][0] == 0.0

    tampered = dict(exact, maler=exact["maler"] * (1 + 1e-6))
    res = workloads.measure(tiny_run(tmp_path / "tampered", "reg-stream", tampered), 0, 0.0)
    assert res["metrics"]["fail_frac"][0] > 0
    assert res["metrics"]["run_s"][0] is None
    assert res["metrics"]["maler_round_ms_p50"][0] is None
    assert "maler final regret" in res["tally"].errors[0]


def test_reference_applies_to_the_default_workloads_at_the_default_seed_only():
    for name, wl in W.items():
        ref = workloads.load_reference(wl, workloads.DEFAULT_SEED)
        assert set(ref) == set(wl.algos)
        assert workloads.load_reference(wl, workloads.DEFAULT_SEED + 1) is None
    assert workloads.load_reference(TINY["reg-stream"], workloads.DEFAULT_SEED) is None


def test_host_clock_scales_times_to_the_reference_speed():
    ref = workloads.TICK_REF_S
    assert workloads.HostClock.scale(ref, ref) == 1.0
    assert workloads.HostClock.scale(2 * ref, 2 * ref) == 0.5  # host at half speed
    clock = workloads.HostClock()
    tick = clock.tick()
    assert tick > 0 and clock.ticks == [tick]


def test_latency_pass_scales_each_segment_by_the_ticks_around_it(tmp_path, monkeypatch):
    class FakeClock:
        def __init__(self):
            self.ticks = iter([0.01, 0.03, 0.05, 0.07])

        def tick(self):
            return next(self.ticks)

        scale = staticmethod(workloads.HostClock.scale)

    run = tiny_run(tmp_path, "reg-stream")
    run.make_inputs()
    run.run_job(spans.Recorder())
    monkeypatch.setattr(workloads, "TICK_EVERY", 8)
    samples, scales = run.latency_pass(FakeClock())
    ref = workloads.TICK_REF_S
    want = [ref / 0.02] * 8 + [ref / 0.04] * 8 + [ref / 0.06] * 4
    assert samples.shape == (20,) and all(samples > 0)
    assert scales == pytest.approx(want)
    assert (run.latency_pass()[1] == 1.0).all()


def test_self_time_subtracts_the_union_of_child_spans():
    S = spans.Span
    tree = [
        S("root", 0, 100),
        S("a", 10, 30, parent=0),
        S("b", 25, 50, parent=0),      # overlaps a: the union [10, 50] counts once
        S("c", 60, 70, parent=0),
        S("a.x", 12, 20, parent=1),    # grandchild: only a's self time drops
    ]
    assert spans.self_times_ns(tree) == [50, 12, 25, 10, 8]
    assert spans.covered_ns(0, 10, [(-5, 3), (8, 20)]) == 5

    agg = spans.aggregate(tree, scopes=("a",))
    assert agg[("", "root")] == {"ns": 100, "self_ns": 50, "calls": 1}
    assert agg[("", "a")] == {"ns": 20, "self_ns": 12, "calls": 1}
    assert agg[("a", "a.x")] == {"ns": 8, "self_ns": 8, "calls": 1}


def test_recorder_nests_wrapped_calls():
    rec = spans.Recorder()

    def inner(x):
        return x + 1

    traced_inner = spans.wrap(rec, inner, "inner", count=lambda r, x: {"seen": x})
    outer = spans.wrap(rec, lambda x: traced_inner(x) * 2, lambda x: f"outer.{x}")
    assert outer(3) == 8
    assert [(s.name, s.parent) for s in rec.spans] == [("outer.3", -1), ("inner", 0)]
    assert rec.spans[1].counts == {"seen": 3}
    assert all(s.end >= s.start for s in rec.spans)
