"""End-to-end animate() runs and the ablation harness."""

import threading
from collections import Counter

import numpy as np
import pytest

import fixture_recipe as recipe
from latent_awaken.diffusion import Condition, FrameLatent, NoiseSchedule, VideoLatent, replicate_static
from latent_awaken.fusion import slerp_fuse, uniform_fuse
from latent_awaken.metrics import fidelity, motion_energy
from latent_awaken.pipeline import (
    PipelineVariant,
    StageError,
    animate,
    parse_variant,
    run_ablation,
)
from latent_awaken.rng import stream
from latent_awaken.toydenoiser import (
    DatasetParams,
    ToyDenoiser,
    generate_dataset,
    label_id,
    render_pattern,
)
from latent_awaken.vsds import VsdsConfig, tau_step

STEPS = 40


def small_sched():
    return NoiseSchedule.linear(STEPS, 1e-3, 0.3)


def blob_image(side=8):
    return FrameLatent(2.0 * render_pattern("blob", 3.0, 4.0, 1.5, side, side)[None] - 1.0)


class ZeroDenoiser:
    def __init__(self, frames):
        self.frames = frames

    def predict_noise(self, z_t, cond, t):
        return VideoLatent(np.zeros_like(z_t.frames))


class CallHistogram(ZeroDenoiser):
    def __init__(self, frames):
        super().__init__(frames)
        self.by_t = Counter()
        self._lock = threading.Lock()  # the two refinement paths call at once

    def predict_noise(self, z_t, cond, t):
        with self._lock:
            self.by_t[t] += 1
        return super().predict_noise(z_t, cond, t)


class TwoPhaseOracle:
    """Replays the real path's noise when called with the real condition,
    the proxy path's otherwise — the exact fixed point of a dual-path
    refinement, whichever order the two paths' calls arrive in."""

    def __init__(self, eps_real, eps_proxy, real_cond, frames):
        self.eps_real = eps_real
        self.eps_proxy = eps_proxy
        self.real_cond = real_cond
        self.frames = frames

    def predict_noise(self, z_t, cond, t):
        eps = self.eps_real if cond is self.real_cond else self.eps_proxy
        return VideoLatent(eps.copy())


class IdentityProvider:
    def synthesize(self, image, cond):
        return image


def bench_items(n, labels=("right", "up"), seed=4):
    data = generate_dataset(n, DatasetParams(shapes=("blob",), labels=labels), seed=seed)
    return [(s.cond.image, s.cond) for s in data.samples]


# ---------------------------------------------------------------------------
# variant parsing
# ---------------------------------------------------------------------------


def test_parse_variant_case_insensitive():
    assert parse_variant("baseline") is PipelineVariant.BASELINE
    assert parse_variant("  vs ") is PipelineVariant.VS
    assert parse_variant("Vu") is PipelineVariant.VU
    with pytest.raises(ValueError) as err:
        parse_variant("VX")
    for known in ("Baseline", "V", "S", "VU", "VS"):
        assert known in str(err.value)


# ---------------------------------------------------------------------------
# animate mechanics
# ---------------------------------------------------------------------------


def test_vs_oracle_run_keeps_the_static_latent():
    # Oracle denoiser + proxy identical to the input: both refinement paths
    # are at their fixed points and the fusion mixes equal latents, so the
    # latent entering the sampler is exactly the static replication.
    sched = small_sched()
    frames = 6
    image = blob_image()
    cond = Condition(image, label_id("right"))
    cfg = VsdsConfig(p=0.5, seed=0)
    seed = 9
    shape = (frames, *image.shape)
    eps_real = stream(seed, "vsds/real").standard_normal(shape)
    eps_proxy = stream(seed, "vsds/proxy").standard_normal(shape)
    oracle = TwoPhaseOracle(eps_real, eps_proxy, cond, frames)

    run = animate(
        image, cond, PipelineVariant.VS, oracle, sched,
        vsds_cfg=cfg, proxy_provider=IdentityProvider(), seed=seed,
    )
    static = run.stages["static"].frames
    assert np.array_equal(run.stages["refined_real"].frames, static)
    assert np.array_equal(run.stages["refined_proxy"].frames, static)
    assert np.array_equal(run.stages["pre_latent"].frames, static)


def test_animate_is_seed_deterministic():
    sched = small_sched()
    image = blob_image()
    cond = Condition(image, label_id("right"))
    model = ZeroDenoiser(frames=6)

    def run(seed):
        return animate(image, cond, PipelineVariant.VS, model, sched,
                       vsds_cfg=VsdsConfig(p=0.5), seed=seed)

    a, b = run(42), run(42)
    assert np.array_equal(a.output.frames, b.output.frames)
    c = run(43)
    assert not np.array_equal(a.output.frames, c.output.frames)


def test_vs_denoiser_call_histogram():
    # Refinement touches each level in [tau, T] twice (one per path), the
    # reverse pass each level in [1, tau] once; they overlap only at tau.
    sched = small_sched()
    p = 0.5
    tau = tau_step(STEPS, p)
    model = CallHistogram(frames=6)
    image = blob_image()
    animate(image, Condition(image, label_id("right")), PipelineVariant.VS,
            model, sched, vsds_cfg=VsdsConfig(p=p), seed=1)
    for t in range(1, STEPS + 1):
        expected = 2 if t > tau else (3 if t == tau else 1)
        assert model.by_t[t] == expected, f"t={t}"


def test_baseline_calls_once_per_level():
    sched = small_sched()
    model = CallHistogram(frames=6)
    image = blob_image()
    animate(image, Condition(image, label_id("static")), PipelineVariant.BASELINE,
            model, sched, seed=1)
    assert all(model.by_t[t] == 1 for t in range(1, STEPS + 1))
    assert sum(model.by_t.values()) == STEPS


def test_s_calls_once_per_level_up_to_tau():
    # S refines nothing and keeps its fused latent, so only the reverse pass
    # calls the denoiser, from tau down.
    sched = small_sched()
    tau = tau_step(STEPS, 0.5)
    model = CallHistogram(frames=6)
    image = blob_image()
    animate(image, Condition(image, label_id("right")), PipelineVariant.S,
            model, sched, vsds_cfg=VsdsConfig(p=0.5), seed=1)
    assert all(model.by_t[t] == 1 for t in range(1, tau + 1))
    assert sum(model.by_t.values()) == tau


def test_run_result_structure():
    sched = small_sched()
    image = blob_image()
    cond = Condition(image, label_id("right"))
    run = animate(image, cond, PipelineVariant.VS, ZeroDenoiser(frames=6), sched,
                  vsds_cfg=VsdsConfig(p=0.5), seed=7)
    assert set(run.timing) == {"replicate", "proxy", "vsds", "fusion", "resample", "reverse"}
    assert set(run.stages) == {"static", "proxy_image", "refined_real", "refined_proxy", "pre_latent"}
    assert run.seed == 7
    assert run.config["variant"] == "VS"
    assert run.config["vsds"]["p"] == 0.5
    assert run.config["schedule_steps"] == STEPS
    assert run.output.frame_count == 6

    vu = animate(image, cond, PipelineVariant.VU, ZeroDenoiser(frames=6), sched,
                 vsds_cfg=VsdsConfig(p=0.5), seed=7)
    assert set(vu.timing) == set(run.timing)
    assert set(vu.stages) == set(run.stages)

    s_only = animate(image, cond, PipelineVariant.S, ZeroDenoiser(frames=6), sched,
                     vsds_cfg=VsdsConfig(p=0.5), seed=7)
    assert set(s_only.timing) == {"replicate", "proxy", "fusion", "resample", "reverse"}
    assert set(s_only.stages) == {"static", "proxy_image", "pre_latent"}

    base = animate(image, cond, PipelineVariant.BASELINE, ZeroDenoiser(frames=6), sched, seed=7)
    assert set(base.timing) == {"replicate", "resample", "reverse"}
    assert set(base.stages) == {"static", "pre_latent"}

    v_only = animate(image, cond, PipelineVariant.V, ZeroDenoiser(frames=6), sched,
                     vsds_cfg=VsdsConfig(p=0.5), seed=7)
    assert "proxy_image" not in v_only.stages
    assert "refined_real" in v_only.stages


@pytest.mark.parametrize("variant, fuse", [
    pytest.param(PipelineVariant.S, slerp_fuse, id="S"),
    pytest.param(PipelineVariant.VU, uniform_fuse, id="VU"),
    pytest.param(PipelineVariant.VS, slerp_fuse, id="VS"),
])
def test_pre_latent_is_the_variants_fusion(variant, fuse):
    # S fuses the two un-refined statics, VU and VS the refined paths; only
    # VU mixes them linearly.
    sched = small_sched()
    image = blob_image()
    run = animate(image, Condition(image, label_id("right")), variant, ZeroDenoiser(frames=6), sched,
                  vsds_cfg=VsdsConfig(p=0.5), seed=7)
    real = run.stages.get("refined_real", run.stages["static"])
    proxy = run.stages.get("refined_proxy", replicate_static(run.stages["proxy_image"], 6))
    assert np.array_equal(run.stages["pre_latent"].frames, fuse(real, proxy).frames)


def test_animate_validates_inputs():
    sched = small_sched()
    image = blob_image()
    cond = Condition(image, label_id("right"))

    class NoFrameCount:
        def predict_noise(self, z_t, cond, t):
            return z_t

    with pytest.raises(ValueError, match="frame count"):
        animate(image, cond, PipelineVariant.BASELINE, NoFrameCount(), sched)
    with pytest.raises(ValueError, match="resume_from"):
        animate(image, cond, PipelineVariant.VS, ZeroDenoiser(frames=6), sched, resume_from="middle")


def test_resume_from_t_restarts_at_the_top():
    sched = small_sched()
    image = blob_image()
    cond = Condition(image, label_id("right"))
    model = ZeroDenoiser(frames=6)
    from_tau = animate(image, cond, PipelineVariant.VS, model, sched,
                       vsds_cfg=VsdsConfig(p=0.5), seed=3)
    from_top = animate(image, cond, PipelineVariant.VS, model, sched,
                       vsds_cfg=VsdsConfig(p=0.5), seed=3, resume_from="T")
    assert from_top.config["resume_from"] == "T"
    assert not np.array_equal(from_tau.output.frames, from_top.output.frames)


def test_stage_errors_name_the_stage():
    sched = small_sched()
    image = blob_image()
    bad_cond = Condition(image, 17)  # passes Condition checks, fails in proxy
    with pytest.raises(StageError, match="stage 'proxy'"):
        animate(image, bad_cond, PipelineVariant.VS, ZeroDenoiser(frames=6), sched)


# ---------------------------------------------------------------------------
# behaviour with the trained priors
# ---------------------------------------------------------------------------


def test_static_prior_baseline_stays_static(held_out_runs):
    # The deterministic final pass must track the posterior mean back to an
    # (almost exactly) still video when the prior has only seen still clips.
    energies = [motion_energy(v) for v in held_out_runs["baseline"]]
    assert max(energies) < 1e-3


def test_first_frame_anchoring_on_benchmark(bench_runs):
    # Fused latents pin frame 0 to the real path, so the sampled output's
    # first frame sits closer to the input than its last frame does.
    bench = bench_runs["bench"]
    for variant in (PipelineVariant.VS, PipelineVariant.VU):
        for sample, out in zip(bench.samples, bench_runs["outputs"][variant]):
            first = fidelity(out, sample.cond.image)
            last = float(((out.frames[-1] - sample.cond.image.grid) ** 2).mean())
            assert first < last


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------


def test_run_ablation_validates_inputs():
    sched = small_sched()
    model = ZeroDenoiser(frames=6)
    with pytest.raises(ValueError, match="benchmark"):
        run_ablation([], [PipelineVariant.VS], model, sched)
    with pytest.raises(ValueError, match="variant"):
        run_ablation(bench_items(1), [], model, sched)


def test_run_ablation_row_order_and_csv():
    sched = small_sched()
    model = ZeroDenoiser(frames=6)
    shuffled = [PipelineVariant.VS, PipelineVariant.BASELINE, PipelineVariant.S,
                PipelineVariant.V, PipelineVariant.VU]
    report = run_ablation(bench_items(2), shuffled, model, sched,
                          vsds_cfg=VsdsConfig(p=0.5), base_seed=10)
    assert [row.key for row in report.rows] == ["Baseline", "V", "S", "VU", "VS"]
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "variant,frechet,alignment,linearity_vr,linearity_mono,motion_energy,fidelity"
    assert len(lines) == 6
    # no reference set was given, so the frechet column stays empty
    assert all(line.split(",")[1] == "" for line in lines[1:])
    assert report.n_items == 2


def test_run_ablation_threads_do_not_change_results():
    sched = small_sched()
    # The ToyDenoiser's context memo is shared by the threads; ZeroDenoiser has none.
    toy = ToyDenoiser(frames=6, hidden=16, seed=8)
    toy.w2 = 0.05 * stream(8, "small-toy").standard_normal(toy.w2.shape)
    items = bench_items(4)
    kwargs = dict(vsds_cfg=VsdsConfig(p=0.5), base_seed=20)
    for model in (ZeroDenoiser(frames=6), toy):
        serial = run_ablation(items, [PipelineVariant.BASELINE, PipelineVariant.VS], model, sched, **kwargs)
        threaded = run_ablation(items, [PipelineVariant.BASELINE, PipelineVariant.VS], model, sched,
                                threads=2, **kwargs)
        assert not serial.failures
        assert serial.to_csv() == threaded.to_csv()


class ThreadLog(ZeroDenoiser):
    def __init__(self, frames):
        super().__init__(frames)
        self.threads = set()
        self._lock = threading.Lock()

    def predict_noise(self, z_t, cond, t):
        with self._lock:
            self.threads.add(threading.get_ident())
        return super().predict_noise(z_t, cond, t)


def test_run_ablation_pool_keeps_both_paths_on_the_item_thread():
    # The pool already has the cores, so its items start no path threads:
    # every call comes from one of the pool's own two threads.
    model = ThreadLog(frames=6)
    run_ablation(bench_items(4), [PipelineVariant.VS], model, small_sched(),
                 vsds_cfg=VsdsConfig(p=0.5), threads=2)
    assert 1 <= len(model.threads) <= 2
    assert threading.get_ident() not in model.threads


def test_run_ablation_runs_a_single_item_on_the_callers_thread():
    # One item leaves nothing for a pool to share: it runs where it was
    # called, and its two refinement paths run on two threads.
    model = ThreadLog(frames=6)
    run_ablation(bench_items(1), [PipelineVariant.VS], model, small_sched(),
                 vsds_cfg=VsdsConfig(p=0.5), threads=2)
    assert threading.get_ident() in model.threads
    assert len(model.threads) == 2


def test_run_ablation_records_failures():
    sched = small_sched()
    model = ZeroDenoiser(frames=6)
    items = bench_items(1)
    bad_image = items[0][0]
    items.append((bad_image, Condition(bad_image, 17)))  # proxy stage will fail
    report = run_ablation(items, [PipelineVariant.VS], model, sched,
                          vsds_cfg=VsdsConfig(p=0.5), base_seed=30)
    row = report.rows[0]
    assert row.n_ok == 1
    assert row.n_failed == 1
    assert report.failures[0]["item"] == 1
    assert report.failures[0]["variant"] == "VS"
    assert "proxy" in report.failures[0]["error"]


def test_run_ablation_static_item_with_static_prior(static_model, sched):
    model, _ = static_model
    data = generate_dataset(1, recipe.STATIC_PARAMS, seed=50)
    items = [(s.cond.image, s.cond) for s in data.samples]
    report = run_ablation(items, [PipelineVariant.BASELINE], model, sched, base_seed=60)
    assert report.rows[0].report.motion_energy < 1e-3


def test_run_ablation_json_payload():
    sched = small_sched()
    model = ZeroDenoiser(frames=6)
    report = run_ablation(bench_items(2), [PipelineVariant.BASELINE], model, sched, base_seed=70)
    import json

    payload = json.loads(report.to_json(extra={"config_hash": "abc"}))
    assert payload["config_hash"] == "abc"
    assert payload["n_items"] == 2
    assert payload["rows"][0]["key"] == "Baseline"
    assert "linearity" in payload["rows"][0]
