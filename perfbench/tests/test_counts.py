"""Self-test of the tracer's exact counts on a small instance.

    python3 -m pytest perfbench/tests

The denoiser here is 8 wide and trained for one epoch, so the counts are
checked in about a second; they depend on the schedule and the refinement
settings only, which are the benchmark's own.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402
import workloads as w  # noqa: E402
from latent_awaken import pipeline  # noqa: E402
from latent_awaken.proxy import SyntheticProvider  # noqa: E402
from latent_awaken.toydenoiser import ToyDenoiser, generate_dataset, train  # noqa: E402
from latent_awaken.vsds import tau_step, update_count  # noqa: E402

T, P = w.SCHEDULE.steps, w.VSDS_CFG.p
UPDATES, TAU = update_count(T, P), tau_step(T, P)


@pytest.fixture(scope="module")
def small():
    data = generate_dataset(8, w.MOTION_PARAMS, seed=3)
    model = ToyDenoiser(hidden=8, t_embed=w.T_EMBED, seed=3)
    train(model, data, w.SCHEDULE, epochs=1, seed=3)
    return model, data.samples


def traced(model, body, items):
    tracer = tracing.Tracer()
    denoiser = tracing.TracedDenoiser(model, tracer)
    provider = tracing.TracedProvider(SyntheticProvider(w.PROXY_PARAMS), tracer)
    with tracing.patched(tracer) as unmeasured:
        body(tracer, denoiser, provider)
    assert unmeasured == []
    return {name: m["value"] for name, m in tracing.layer_metrics(tracer, items, 0.0, unmeasured).items()}


def test_vs_makes_two_refinements_and_one_reverse_pass():
    assert 2 * UPDATES + TAU == 170


def test_animate_counts(small):
    model, samples = small

    def body(tracer, denoiser, provider):
        for k in range(2):
            tracer.item = k
            w.animate_vs(samples[k], k, denoiser, provider)

    m = traced(model, body, items=2)
    assert m["toydenoiser.predict_noise.calls_per_item"] == 2 * UPDATES + TAU
    assert m["toydenoiser.predict_noise.unique_input_ratio"] == 1.0
    # One forward noising per refinement step plus the re-noising draw.
    assert m["diffusion.forward_noise.calls_per_item"] == 2 * UPDATES + 1


def test_ablate_counts(small):
    model, samples = small
    batch = samples[:2]

    def body(tracer, denoiser, provider):
        tracer.item = 0
        pipeline.run_ablation(
            [(s.cond.image, s.cond) for s in batch], list(pipeline.VARIANT_ORDER), denoiser, w.SCHEDULE,
            w.VSDS_CFG, w.FUSION_CFG, provider, reference_videos=[s.video for s in batch],
        )

    m = traced(model, body, items=len(batch))
    # Baseline, V, S, VU, VS.
    calls = T + (UPDATES + TAU) + TAU + 2 * (2 * UPDATES + TAU)
    # V's real path is repeated in VU, and VU's dual refinement in VS.
    distinct = calls - UPDATES - 2 * UPDATES
    assert (calls, distinct) == (653, 506)
    assert m["toydenoiser.predict_noise.calls_per_item"] == calls
    assert m["toydenoiser.predict_noise.unique_input_ratio"] == distinct / calls
    assert m["metrics.video_features.self_ms"] > 0.0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_layer_without_call_site_is_unmeasured(monkeypatch):
    monkeypatch.delattr(pipeline, "uniform_fuse")
    tracer = tracing.Tracer()
    with tracing.patched(tracer) as unmeasured:
        assert not hasattr(pipeline, "uniform_fuse")
    assert unmeasured == ["fusion.uniform_fuse"]
    names = tracing.layer_metrics(tracer, 1, 0.0, unmeasured)
    assert "fusion.uniform_fuse.self_ms_per_item" not in names
    assert "fusion.slerp_fuse.self_ms_per_item" in names


def test_benchmark_json_matches_reported_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert sorted(wl["name"] for wl in spec["workloads"]) == sorted(w.WORKLOADS)
