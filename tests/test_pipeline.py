"""End-to-end animate() runs and the ablation harness."""

import re
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_recipe as recipe
from doubles import EchoOracle, IdentityProvider, RefusingProvider, ThreadLog, ZeroDenoiser
from latent_awaken import metrics
from latent_awaken.config import parse_config
from latent_awaken.diffusion import Condition, FrameLatent, NoiseSchedule, VideoLatent, replicate_static
from latent_awaken.fusion import slerp_fuse, uniform_fuse
from latent_awaken.metrics import FeatureStats, feature_length, fidelity, motion_energy, video_features
from latent_awaken.motion import label_id
from latent_awaken.pipeline import (
    VARIANT_ORDER,
    AblationReport,
    AblationRow,
    PipelineVariant,
    StageError,
    _animate_items,
    _score_run,
    animate,
    run_ablation,
)
from latent_awaken.rng import stream
from latent_awaken.toydenoiser import (
    DatasetParams,
    ToyDenoiser,
    generate_dataset,
    render_pattern,
)
from latent_awaken.vsds import CurveKind, VsdsConfig, WeightCurve, tau_step, update_count

STEPS = 40


def small_sched():
    return NoiseSchedule.linear(STEPS, 1e-3, 0.3)


def blob_image(side=8):
    return FrameLatent(2.0 * render_pattern("blob", [3.0], [4.0], [1.5], side, side) - 1.0)


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


def bench_items(n, labels=("right", "up"), seed=4):
    data = generate_dataset(n, DatasetParams(shapes=("blob",), labels=labels), seed=seed)
    return [(s.cond.image, s.cond) for s in data.samples]


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
    model = CallHistogram(frames=6)
    run = animate(image, cond, PipelineVariant.VS, model, sched, vsds_cfg=VsdsConfig(p=0.5), seed=7)
    assert set(run.timing) == {"replicate", "proxy", "vsds", "fusion", "resample", "reverse"}
    assert set(run.stages) == {"static", "proxy_image", "refined_real", "refined_proxy", "pre_latent"}
    # The run follows the arguments it was given: VS refines both paths
    # from T down to tau(p = 0.5) and resumes there, and seed 7 names its
    # noise streams.
    assert sum(model.by_t.values()) == 2 * update_count(STEPS, 0.5) + tau_step(STEPS, 0.5)
    same_seed = animate(image, cond, PipelineVariant.VS, ZeroDenoiser(frames=6), sched,
                        vsds_cfg=VsdsConfig(p=0.5), seed=7)
    other_seed = animate(image, cond, PipelineVariant.VS, ZeroDenoiser(frames=6), sched,
                         vsds_cfg=VsdsConfig(p=0.5), seed=8)
    assert np.array_equal(run.output.frames, same_seed.output.frames)
    assert not np.array_equal(run.output.frames, other_seed.output.frames)
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


@pytest.mark.parametrize("variant", ["VS", None, "Baseline"])
def test_animate_refuses_what_is_not_a_variant_before_any_stage(variant):
    # A variant's name is not a variant.  The refusal is a ValueError, not a
    # StageError, so it came before the first stage; it names what was passed.
    image = blob_image()
    model = CallHistogram(frames=6)
    with pytest.raises(ValueError, match=re.escape(f"not a pipeline variant: {variant!r}")):
        animate(image, Condition(image, label_id("right")), variant, model, small_sched())
    assert not model.by_t


def test_stage_errors_name_the_stage():
    sched = small_sched()
    image = blob_image()
    cond = Condition(image, label_id("right"))
    with pytest.raises(StageError, match="stage 'proxy'"):
        animate(image, cond, PipelineVariant.VS, ZeroDenoiser(frames=6), sched, proxy_provider=RefusingProvider(cond))


# ---------------------------------------------------------------------------
# behaviour with the trained priors
# ---------------------------------------------------------------------------


def test_static_prior_baseline_stays_static(held_out_runs):
    # The deterministic final pass must track the posterior mean back to an
    # (almost exactly) still video when the prior has only seen still clips.
    energies = [motion_energy(v) for v in held_out_runs["baseline"]]
    assert max(energies) < 1e-3


class RefusingDenoiser(ZeroDenoiser):
    """Refuses every call conditioned on one image."""

    def __init__(self, frames, image):
        super().__init__(frames)
        self.image = image

    def predict_noise(self, z_t, cond, t):
        if np.array_equal(cond.image.grid, self.image.grid):
            raise ValueError("refused condition")
        return super().predict_noise(z_t, cond, t)


@pytest.mark.parametrize(
    "motion_refuses, static_refuses, expected",
    [(None, 3, "item 3, variant Baseline"), (5, 3, "item 3, variant Baseline"), (3, 3, "item 3, variant VS")],
)
def test_held_out_runs_raise_the_first_failure(motion_refuses, static_refuses, expected):
    # The fixture fails with the error a loop over the items, VS before
    # Baseline, would meet first, not with partial output lists.
    images = [s.cond.image for s in recipe.held_out_set().samples]
    motion = ZeroDenoiser(16) if motion_refuses is None else RefusingDenoiser(16, images[motion_refuses])
    with pytest.raises(RuntimeError, match=f"{expected}: .*refused condition"):
        recipe.held_out_runs(motion, RefusingDenoiser(16, images[static_refuses]), small_sched())


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


@pytest.mark.parametrize("variants", [["VS"], [PipelineVariant.VS, "V"], [PipelineVariant.V, None]])
def test_variants_that_are_not_members_are_refused(variants):
    # A variant's value is not the variant: it is refused by name, not
    # dropped from the rows.
    bad = next(v for v in variants if not isinstance(v, PipelineVariant))
    with pytest.raises(ValueError, match=f"not a pipeline variant, a weight curve or a stop fraction p: {bad!r}"):
        run_ablation(bench_items(1), variants, ZeroDenoiser(frames=6), small_sched())


def test_run_ablation_refuses_a_model_it_cannot_score():
    # Linearity needs three frames: a two-frame model is refused before its
    # first call, not after every variant has run.
    model = EchoOracle(np.zeros((2, 1, 16, 16)), frames=2)
    with pytest.raises(ValueError, match="at least 3 frames"):
        run_ablation(bench_items(2), list(VARIANT_ORDER), model, small_sched())
    assert model.calls == 0


@pytest.mark.parametrize("shape", [(6, 1, 8, 8), (4, 1, 16, 16)], ids=["other-frame-shape", "other-frame-count"])
def test_run_ablation_refuses_reference_clips_of_another_shape(shape):
    # Reference clips of another shape would be fitted and scored against
    # the outputs (8x8) or fail once every task had run (4 frames); both
    # are refused before the denoiser is first called.
    model = EchoOracle(np.zeros((6, 1, 16, 16)), frames=6)
    reference = [VideoLatent(np.zeros(shape)) for _ in range(3)]
    with pytest.raises(ValueError, match=rf"reference video 0 has shape {re.escape(str(shape))}"):
        run_ablation(bench_items(2), list(VARIANT_ORDER), model, small_sched(), reference_videos=reference)
    assert model.calls == 0


def test_run_ablation_row_order_and_csv():
    # Rows are written in the order listed, not in the table's order.
    sched = small_sched()
    model = ZeroDenoiser(frames=6)
    shuffled = [PipelineVariant.VS, PipelineVariant.BASELINE, PipelineVariant.S,
                PipelineVariant.V, PipelineVariant.VU]
    report = run_ablation(bench_items(2), shuffled, model, sched,
                          vsds_cfg=VsdsConfig(p=0.5), base_seed=10)
    assert [row.key for row in report.rows] == ["VS", "Baseline", "S", "V", "VU"]
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "variant,frechet,alignment,linearity_vr,linearity_mono,motion_energy,fidelity"
    assert len(lines) == 6
    # no reference set was given, so the frechet column stays empty
    assert all(line.split(",")[1] == "" for line in lines[1:])
    assert report.n_items == 2


def direct_report(items, model, sched, runs, base_seed, reference_videos):
    """The table of ``runs``, row key -> (variant, VsdsConfig), from animate
    calls on this thread, scored as run_ablation scores them."""
    ref_stats = FeatureStats.from_features(np.stack([video_features(v) for v in reference_videos]))
    rows = []
    for key, (variant, vsds_cfg) in runs.items():
        outputs = [
            animate(image, cond, variant, model, sched, vsds_cfg, seed=base_seed + i).output
            for i, (image, cond) in enumerate(items)
        ]
        rows.append(AblationRow(key, *_score_run(outputs, items, ref_stats)))
    return AblationReport(rows, feature_length(model.frames), len(items), [])


def small_toy():
    model = ToyDenoiser(frames=6, hidden=16, seed=8)
    model.w2 = 0.05 * stream(8, "small-toy").standard_normal(model.w2.shape)
    return model


def test_run_ablation_threads_do_not_change_results():
    # Every pool size gives the bytes of one animate call per (item, variant)
    # made on the test thread.  The ToyDenoiser's context memo is shared by
    # the pool's workers.
    sched = small_sched()
    model = small_toy()
    params = DatasetParams(frames=6, shapes=("blob",), labels=("right", "up"))
    reference_videos = [s.video for s in generate_dataset(4, params, seed=5).samples]
    for n_items in (1, 2, 5):
        items = [(s.cond.image, s.cond) for s in generate_dataset(n_items, params, seed=4).samples]
        vsds_cfg = VsdsConfig(p=0.5)
        runs = {v.value: (v, vsds_cfg) for v in VARIANT_ORDER}
        expected = direct_report(items, model, sched, runs, 20, reference_videos)
        for threads in (1, 2, 3):
            report = run_ablation(items, list(VARIANT_ORDER), model, sched, vsds_cfg=vsds_cfg, base_seed=20,
                                  reference_videos=reference_videos, threads=threads)
            assert report.to_csv() == expected.to_csv()
            assert report.to_json() == expected.to_json()


def test_rows_that_name_one_run_share_its_tasks(monkeypatch):
    # VS, 0.6 and SD name one run under the default settings: it is made
    # and scored once per item, and its three rows differ only in their keys.
    items = bench_items(2)
    vs = (PipelineVariant.VS, VsdsConfig())
    calls = {}
    for runs in ([vs], [vs, vs, vs]):
        model = EchoOracle(np.zeros((6, 1, 16, 16)), frames=6)
        results, workers = _animate_items(items, runs, model, small_sched())
        assert list(results) == [vs] and len(results[vs]) == 2
        calls[len(runs)] = model.calls
    assert calls[3] == calls[1]

    counts = Counter()

    def counting(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    for name in ("video_features", "diagnose_video"):
        monkeypatch.setattr(metrics, name, counting(name, getattr(metrics, name)))
    reference = [VideoLatent(stream(k, "reference").standard_normal((6, 1, 16, 16))) for k in range(2)]
    model = EchoOracle(np.zeros((6, 1, 16, 16)), frames=6)
    rows = [PipelineVariant.VS, 0.6, CurveKind.STEPWISE_DECREASING]
    report = run_ablation(items, rows, model, small_sched(), reference_videos=reference)
    assert model.calls == calls[1]
    # the two reference clips, then each of the run's two outputs once
    assert counts == {"video_features": 4, "diagnose_video": 2}
    lines = report.to_csv().splitlines()[1:]
    assert [line.split(",", 1)[0] for line in lines] == ["VS", "0.6", "SD"]
    assert len({line.split(",", 1)[1] for line in lines}) == 1


def test_a_failing_shared_run_fails_under_every_key():
    # VS and 0.6 name one run; the item it fails on is recorded under both
    # keys, key-major, and both rows count it.
    items = bench_items(2)
    model = RefusingDenoiser(6, items[1][0])
    report = run_ablation(items, [PipelineVariant.VS, 0.6], model, small_sched())
    assert [(row.key, row.n_ok, row.n_failed) for row in report.rows] == [("VS", 1, 1), ("0.6", 1, 1)]
    assert [(f["item"], f["variant"]) for f in report.failures] == [(1, "VS"), (1, "0.6")]
    assert all("refused condition" in f["error"] for f in report.failures)


# ``ablate.rows`` entries as a config spells them -> (row key, variant, settings).
ROW_MEANINGS = {
    "Baseline": ("Baseline", PipelineVariant.BASELINE, VsdsConfig()),
    "v": ("V", PipelineVariant.V, VsdsConfig()),
    "vu": ("VU", PipelineVariant.VU, VsdsConfig()),
    "VS": ("VS", PipelineVariant.VS, VsdsConfig()),
    "ld": ("LD", PipelineVariant.VS, VsdsConfig(curve=WeightCurve(CurveKind.LINEAR_DECREASING))),
    "SI": ("SI", PipelineVariant.VS, VsdsConfig(curve=WeightCurve(CurveKind.STEPWISE_INCREASING))),
    "SD": ("SD", PipelineVariant.VS, VsdsConfig()),
    "0.4": ("0.4", PipelineVariant.VS, VsdsConfig(p=0.4)),
    "0.40": ("0.4", PipelineVariant.VS, VsdsConfig(p=0.4)),
    "0.6": ("0.6", PipelineVariant.VS, VsdsConfig()),
    "1": ("1.0", PipelineVariant.VS, VsdsConfig(p=1.0)),
}


@pytest.fixture(scope="module")
def row_lines():
    """Two items, a small model, reference clips, and each row key's CSV
    line from ``direct_report``."""
    sched, model = small_sched(), small_toy()
    params = DatasetParams(frames=6, shapes=("blob",), labels=("right", "up"))
    items = [(s.cond.image, s.cond) for s in generate_dataset(2, params, seed=4).samples]
    reference_videos = [s.video for s in generate_dataset(3, params, seed=5).samples]
    runs = {key: (variant, cfg) for key, variant, cfg in ROW_MEANINGS.values()}
    csv = direct_report(items, model, sched, runs, 20, reference_videos).to_csv().splitlines()
    return items, model, reference_videos, csv[0], {line.split(",", 1)[0]: line for line in csv[1:]}


@settings(max_examples=12)
@given(texts=st.lists(st.sampled_from(sorted(ROW_MEANINGS)), min_size=1, max_size=6), numpy_p=st.booleans())
def test_run_ablation_rows_match_the_direct_table(row_lines, texts, numpy_p):
    # Any mix of variants, curves and p values, with repeats and
    # respellings, gives each row the line of its own direct run, in the
    # order first listed; a numpy p is keyed as the float it holds.
    items, model, reference_videos, header, lines = row_lines
    # One entry per text, so repeats reach run_ablation as listed.
    rows = [parse_config(f"ablate.rows = {text}\n")["ablate.rows"][0] for text in texts]
    if numpy_p:
        rows = [np.float64(row) if isinstance(row, float) else row for row in rows]
    report = run_ablation(items, rows, model, small_sched(), base_seed=20, reference_videos=reference_videos)
    keys = dict.fromkeys(ROW_MEANINGS[text][0] for text in texts)
    assert report.to_csv().splitlines() == [header] + [lines[key] for key in keys]


def test_run_ablation_pool_keeps_both_paths_on_the_item_thread():
    # The pool already has the cores, so its tasks start no path threads:
    # every call comes from one of the pool's own two threads.
    model = ThreadLog(frames=6)
    run_ablation(bench_items(4), [PipelineVariant.VS], model, small_sched(),
                 vsds_cfg=VsdsConfig(p=0.5), threads=2)
    assert 1 <= len(model.threads) <= 2
    assert threading.get_ident() not in model.threads


def test_run_ablation_runs_a_single_task_on_the_callers_thread():
    # One task leaves nothing for a pool to share: it runs where it was
    # called, and its two refinement paths run on two threads.
    model = ThreadLog(frames=6)
    run_ablation(bench_items(1), [PipelineVariant.VS], model, small_sched(),
                 vsds_cfg=VsdsConfig(p=0.5), threads=2)
    assert threading.get_ident() in model.threads
    assert len(model.threads) == 2


class MeetingThreadLog(ThreadLog):
    """A thread log whose first call on each thread waits for a second
    thread's first call, so a run finishes only if two threads take part."""

    def __init__(self, frames):
        super().__init__(frames)
        self._meet = threading.Barrier(2, timeout=10)

    def predict_noise(self, z_t, cond, t):
        with self._lock:
            first = threading.get_ident() not in self.threads
        if first:
            self._meet.wait()
        return super().predict_noise(z_t, cond, t)


def test_run_ablation_gives_one_item_two_pool_threads_at_threads_1():
    # Five variants of one item are five tasks: at threads=1 the pool still
    # has two workers, and neither is the caller's thread.
    model = MeetingThreadLog(frames=6)
    report = run_ablation(bench_items(1), list(VARIANT_ORDER), model, small_sched(),
                          vsds_cfg=VsdsConfig(p=0.5), threads=1)
    assert not report.failures
    assert len(model.threads) == 2
    assert threading.get_ident() not in model.threads


@pytest.mark.parametrize("case", ["single-task", "pool", "failing-proxy"])
def test_run_ablation_leaves_no_thread_running(case):
    items = bench_items(1 if case == "single-task" else 2)
    variants = [PipelineVariant.VS] if case == "single-task" else list(VARIANT_ORDER)
    provider = RefusingProvider()
    if case == "failing-proxy":
        image = items[0][0]
        items.append((image, Condition(image, items[0][1].motion_label)))
        provider = RefusingProvider(items[-1][1])  # every proxy stage of this item fails
        variants = [PipelineVariant.S, PipelineVariant.VU, PipelineVariant.VS]
    before = set(threading.enumerate())
    report = run_ablation(items, variants, ZeroDenoiser(frames=6), small_sched(),
                          vsds_cfg=VsdsConfig(p=0.5), proxy_provider=provider, threads=3)
    assert set(threading.enumerate()) == before
    assert bool(report.failures) == (case == "failing-proxy")


def test_run_ablation_records_failures():
    sched = small_sched()
    model = ZeroDenoiser(frames=6)
    items = bench_items(1)
    bad_image = items[0][0]
    items.append((bad_image, Condition(bad_image, items[0][1].motion_label)))
    refusing = RefusingProvider(items[1][1])  # proxy stage will fail
    report = run_ablation(items, [PipelineVariant.VS], model, sched,
                          vsds_cfg=VsdsConfig(p=0.5), proxy_provider=refusing, base_seed=30)
    row = report.rows[0]
    assert row.n_ok == 1
    assert row.n_failed == 1
    assert report.failures[0]["item"] == 1
    assert report.failures[0]["variant"] == "VS"
    assert "proxy" in report.failures[0]["error"]


def test_run_ablation_row_without_successes_is_empty():
    # A variant whose every item failed has no metrics: its cells are empty
    # and its JSON fields null, not zeros that read as a still video.
    sched = small_sched()
    image = bench_items(1)[0][0]
    items = [(image, Condition(image, 0)), (image, Condition(image, 0))]
    refusing = RefusingProvider(*(cond for _, cond in items))  # every proxy stage fails
    report = run_ablation(items, [PipelineVariant.VS], ZeroDenoiser(frames=6), sched,
                          vsds_cfg=VsdsConfig(p=0.5), proxy_provider=refusing, base_seed=30)
    assert [(row.key, row.n_ok, row.n_failed) for row in report.rows] == [("VS", 0, 2)]
    assert report.to_csv().splitlines()[1] == "VS,,,,,,"
    import json

    row = json.loads(report.to_json())["rows"][0]
    assert row["n_failed"] == 2
    assert row["alignment"] is None and row["motion_energy"] is None
    assert row["linearity"] == {"variance_ratio": None, "monotonicity": None}
    assert [f["item"] for f in report.failures] == [0, 1]


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
