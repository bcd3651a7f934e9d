import copy
import json
import os
import re
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latent_awaken import toydenoiser
from latent_awaken.diffusion import Condition, FrameLatent, NoiseSchedule, VideoLatent
from latent_awaken.metrics import displacement_estimate, per_frame_sizes
from latent_awaken.motion import DIRECTIONS, MOTION_LABELS, label_id, wrapped_delta
from latent_awaken.numerics import write_ltn1
from latent_awaken.pipeline import PipelineVariant, animate
from latent_awaken.rng import stream
from latent_awaken.toydenoiser import (
    MODEL_DIMS,
    PARAMETER_NAMES,
    Clip,
    DatasetParams,
    MotionDataset,
    ToyDenoiser,
    TrainingDiverged,
    generate_dataset,
    load_checkpoint,
    render_clips,
    render_pattern,
    save_checkpoint,
    schedule_digest,
    time_embedding,
    train,
    _assemble_batch,
    _batch_loss_and_grads,
)
from training_checks import evaluate_loss, gradient_check


@pytest.fixture(scope="module")
def sched():
    return NoiseSchedule.linear(120, 1e-4, 0.08)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(24, DatasetParams(), seed=5)


@pytest.fixture(scope="module")
def trained_small(sched):
    """A modest model trained long enough to clearly beat the zero predictor."""
    data = generate_dataset(96, DatasetParams(), seed=31)
    model = ToyDenoiser(hidden=256, seed=31)
    _, result = train(model, data, sched, epochs=25, lr=0.5, seed=32)
    return model, result, data


# --------------------------------------------------------------------------
# dataset generation
# --------------------------------------------------------------------------


def test_static_label_gives_identical_frames():
    params = DatasetParams(labels=("static",))
    data = generate_dataset(4, params, seed=1)
    for sample in data.samples:
        assert np.all(sample.video.frames == sample.video.frames[0])


def test_right_motion_at_unit_velocity_is_exact_column_roll():
    video = Clip("right", (3.0, 7.0), 1.0, "blob", 2.0, DatasetParams()).video
    for l in range(video.frame_count):
        assert np.allclose(video.frames[l], np.roll(video.frames[0], l, axis=-1), atol=1e-12)


def test_up_motion_rolls_rows_negative():
    video = Clip("up", (8.0, 8.0), 1.0, "blob", 2.0, DatasetParams()).video
    assert np.allclose(video.frames[1], np.roll(video.frames[0], -1, axis=-2), atol=1e-12)


def test_same_seed_reproduces_dataset():
    a = generate_dataset(8, DatasetParams(), seed=9)
    b = generate_dataset(8, DatasetParams(), seed=9)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.video.frames.tobytes() == sb.video.frames.tobytes()
        assert sa.label == sb.label
        assert sa.cond.motion_label == sb.cond.motion_label


def test_displacement_recovery_matches_label(small_dataset):
    # Decoding a generated video and re-estimating motion must give back the
    # labeled velocity vector.  Unit-velocity translations are exact column/
    # row rolls, so those recover to round-off; the growing blob's centroid
    # only stays put to estimator precision (its wrapped tails shrink the
    # resultant the estimate divides by).
    for sample in small_dataset.samples:
        dx, dy = displacement_estimate(sample.video)
        ux, uy = DIRECTIONS.get(sample.label, (0.0, 0.0))
        tol = 1e-9 if sample.label in DIRECTIONS else 1e-4
        assert abs(dx - ux * sample.velocity) < tol
        assert abs(dy - uy * sample.velocity) < tol


def test_grow_label_sizes_increase():
    video = Clip("grow", (8.0, 8.0), 0.0, "blob", 2.0, DatasetParams()).video
    sizes = per_frame_sizes(video)
    assert np.all(np.diff(sizes) > 0.0)
    assert displacement_estimate(video) == (0.0, 0.0)


# CPython's pow rounds 2.0 * s**2 one ulp away from numpy's square of s for
# a small share of sizes; at this one the blob's field moves (glibc libm).
POW_ULP_SIZE = 1.964564873115295


@st.composite
def clips(draw):
    """A clip's settings: any label and kind, starts near the torus wrap,
    non-square grids, several channels."""
    height, width = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    params = DatasetParams(
        channels=draw(st.integers(1, 3)), height=height, width=width, frames=draw(st.integers(1, 12)),
        grow_rate=draw(st.floats(0.01, 0.5)),
    )
    def coord(period):
        return draw(st.one_of(st.floats(0.0, 1e-6), st.floats(period - 1e-6, period, exclude_max=True),
                              st.floats(0.0, period, exclude_max=True)))
    start = (coord(width), coord(height))
    kind = draw(st.sampled_from(("blob", "square")))
    size = draw(st.floats(0.5, 4.0) if kind == "blob" else st.sampled_from((0.0, 1.0, 2.0, 1.5)))
    return draw(st.sampled_from(MOTION_LABELS)), start, draw(st.floats(0.01, 3.0)), kind, size, params


@settings(max_examples=200)
@given(clip=clips())
@example(clip=("grow", (15.999999, 0.0), 0.2, "blob", POW_ULP_SIZE, DatasetParams(channels=2, frames=5)))
@example(clip=("left", (0.1, 3.0), 0.2, "blob", POW_ULP_SIZE, DatasetParams(height=12, width=20)))
@example(clip=("up", (3.0, 0.1), 1.7, "square", 2.0, DatasetParams(height=7, width=5, frames=7)))
def test_render_video_equals_per_frame_scalar_renders(clip):
    # The per-frame loop that one clip's render replaced, written out here: each frame
    # from its own one-frame render_pattern call, velocities taking left/up below 0.
    label, (cx0, cy0), velocity, kind, size, params = clip
    expected = np.empty((params.frames, params.channels, params.height, params.width))
    for l in range(params.frames):
        ux, uy = DIRECTIONS.get(label, (0.0, 0.0))
        cx = (cx0 + l * velocity * ux) % params.width if label in DIRECTIONS else cx0
        cy = (cy0 + l * velocity * uy) % params.height if label in DIRECTIONS else cy0
        size_l = size * (1.0 + params.grow_rate * l) if label == "grow" else size
        expected[l] = 2.0 * render_pattern(kind, [cx], [cy], [size_l], params.height, params.width) - 1.0
    video = Clip(label, (cx0, cy0), velocity, kind, size, params).video
    assert video.frames.tobytes() == expected.tobytes()


@st.composite
def mixed_clip_lists(draw):
    """Clips of one video shape under several DatasetParams: both kinds,
    every label, velocities that wrap the torus, and generated samples."""
    dims = {
        "channels": draw(st.integers(1, 3)),
        "height": draw(st.integers(2, 24)),
        "width": draw(st.integers(2, 24)),
        "frames": draw(st.integers(1, 12)),
    }
    variants = [DatasetParams(**dims, grow_rate=draw(st.floats(0.01, 0.5))) for _ in range(draw(st.integers(2, 3)))]
    listed = []
    for label in draw(st.lists(st.sampled_from(MOTION_LABELS), min_size=1, max_size=12)):
        kind = draw(st.sampled_from(("blob", "square")))
        listed.append(
            Clip(
                label,
                (draw(st.floats(0.0, dims["width"], exclude_max=True)), draw(st.floats(0.0, dims["height"], exclude_max=True))),
                draw(st.floats(0.01, 30.0)),
                kind,
                draw(st.floats(0.5, 4.0) if kind == "blob" else st.sampled_from((0.0, 1.0, 2.0, 1.5))),
                draw(st.sampled_from(variants)),
            )
        )
    generated = generate_dataset(draw(st.integers(1, 6)), variants[0], seed=draw(st.integers(0, 2**16))).samples
    return draw(st.permutations(listed + list(generated)))


@settings(max_examples=100)
@given(clips=mixed_clip_lists())
def test_render_clips_equals_render_video_per_clip(clips):
    stack = render_clips(clips)
    assert stack.shape == (len(clips), *clips[0].video_shape)
    for clip, rendered in zip(clips, stack):
        one = Clip(clip.label, clip.start, clip.velocity, clip.kind, clip.size, clip.params).video
        assert rendered.tobytes() == one.frames.tobytes()
        if hasattr(clip, "cond"):  # a generated sample: its condition is frame 0
            assert clip.cond.image.grid.tobytes() == one.frames[0].tobytes()


def test_render_clips_refuses_clips_of_two_shapes():
    a = Clip("up", (1.0, 2.0), 1.0, "blob", 2.0, DatasetParams())
    with pytest.raises(ValueError, match="one video shape"):
        render_clips([a, replace(a, params=DatasetParams(width=12))])


def test_clip_refuses_unknown_label(small_dataset):
    # Checked once, when a clip or sample is built, not on each render.
    with pytest.raises(ValueError, match="unknown motion label 'sideways'"):
        Clip("sideways", (1.0, 2.0), 1.0, "blob", 2.0, DatasetParams())
    with pytest.raises(ValueError, match="unknown motion label 'sideways'"):
        replace(small_dataset.samples[0], label="sideways")


def test_dataset_holds_less_than_one_clip_stack():
    # A sample keeps its draws and its condition frame; clips are rendered
    # when they are read, so 256 samples hold far less than their clips.
    params = DatasetParams()
    one_stack = 256 * params.frames * params.channels * params.height * params.width * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        data = generate_dataset(256, params, seed=15)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data) == 256
    assert held < one_stack, f"held {held} bytes, one clip stack {one_stack}"


def test_render_pattern_takes_per_frame_sequences():
    cxs, cys, sizes = [0.5, 19.9, 7.25], [11.9, 0.0, 4.5], [1.5, POW_ULP_SIZE, 2.6]
    for kind in ("blob", "square"):
        stack = render_pattern(kind, cxs, cys, sizes, 12, 20)
        assert stack.shape == (3, 12, 20)
        for l in range(3):
            assert stack[l].tobytes() == render_pattern(kind, [cxs[l]], [cys[l]], [sizes[l]], 12, 20).tobytes()
    with pytest.raises(ValueError, match="one length"):
        render_pattern("blob", cxs, cys[:2], sizes, 12, 20)
    with pytest.raises(ValueError, match="sequences"):
        render_pattern("blob", cxs[0], cys[0], sizes[0], 12, 20)


def test_blob_denominator_is_a_python_float():
    # The blob as first written, with CPython's float arithmetic for 2 size**2.
    dx = wrapped_delta(np.arange(16, dtype=np.float64)[None, :], 5.25, 16)
    dy = wrapped_delta(np.arange(16, dtype=np.float64)[:, None], 9.5, 16)
    expected = np.exp(-(dx**2 + dy**2) / (2.0 * POW_ULP_SIZE**2))
    assert render_pattern("blob", [5.25], [9.5], [POW_ULP_SIZE], 16, 16).tobytes() == expected.tobytes()
    stack = render_pattern("blob", [5.25, 5.25], [9.5, 9.5], [POW_ULP_SIZE, POW_ULP_SIZE], 16, 16)
    assert stack.tobytes() == np.stack([expected, expected]).tobytes()


def test_dataset_latents_in_signed_unit_range(small_dataset):
    for sample in small_dataset.samples:
        assert sample.video.frames.min() >= -1.0
        assert sample.video.frames.max() <= 1.0


def test_dataset_conditions_use_first_frame(small_dataset):
    for sample in small_dataset.samples:
        assert np.array_equal(sample.cond.image.grid, sample.video.frames[0])
        assert MOTION_LABELS[sample.cond.motion_label] == sample.label


def test_dataset_params_validation():
    with pytest.raises(ValueError):
        DatasetParams(frames=0)
    with pytest.raises(ValueError):
        DatasetParams(shapes=("triangle",))
    with pytest.raises(ValueError):
        DatasetParams(labels=("sideways",))
    with pytest.raises(ValueError):
        DatasetParams(velocities=(-1.0,))
    with pytest.raises(ValueError, match="^velocities "):
        DatasetParams(velocities=(float("nan"),))
    with pytest.raises(ValueError, match="^grow_rate "):
        DatasetParams(grow_rate=float("nan"))
    with pytest.raises(ValueError, match="^shapes "):
        DatasetParams(shapes=())
    with pytest.raises(ValueError, match="^labels "):
        DatasetParams(labels=())
    with pytest.raises(ValueError):
        generate_dataset(0, DatasetParams(), seed=0)


# --------------------------------------------------------------------------
# model mechanics
# --------------------------------------------------------------------------


def test_label_id_round_trip():
    for i, name in enumerate(MOTION_LABELS):
        assert label_id(name) == i
    with pytest.raises(ValueError):
        label_id("diagonal")


def test_time_embedding_shape_and_range():
    emb = time_embedding(37, 16)
    assert emb.shape == (16,)
    assert np.all(np.abs(emb) <= 1.0)
    assert not np.array_equal(emb, time_embedding(38, 16))
    with pytest.raises(ValueError):
        time_embedding(1, 7)


@settings(max_examples=200)
@given(
    ts=st.lists(st.integers(1, 10_000), min_size=1, max_size=64),
    half=st.integers(1, 16),
)
def test_time_embedding_of_an_array_stacks_the_per_step_rows(ts, half):
    rows = time_embedding(np.array(ts), 2 * half)
    assert rows.tobytes() == np.stack([time_embedding(t, 2 * half) for t in ts]).tobytes()


def test_parameter_count_under_budget():
    for model in (ToyDenoiser(), ToyDenoiser(hidden=600, t_embed=16), ToyDenoiser(hidden=600, t_embed=32)):
        assert sum(p.size for p in model.parameters().values()) < 500_000


def test_untrained_model_predicts_zero(small_dataset, sched):
    model = ToyDenoiser(seed=0)
    s = small_dataset.samples[0]
    pred = model.predict_noise(s.video, s.cond, 10)
    assert np.all(pred.frames == 0.0)


def test_predict_noise_is_pure(trained_small, small_dataset):
    model, _, _ = trained_small
    s = small_dataset.samples[1]
    z_t = VideoLatent(s.video.frames + 0.1)
    a = model.predict_noise(z_t, s.cond, 60)
    b = model.predict_noise(z_t, s.cond, 60)
    assert a.frames.tobytes() == b.frames.tobytes()
    assert a.shape == s.video.shape


def test_predict_noise_validates_inputs(small_dataset):
    model = ToyDenoiser(seed=0)
    s = small_dataset.samples[0]
    with pytest.raises(ValueError):
        model.predict_noise(s.video, s.cond, 0)
    with pytest.raises(ValueError):
        model.predict_noise(s.video, Condition(s.cond.image, 17), 10)
    bad = VideoLatent(np.zeros((16, 1, 8, 8)))
    with pytest.raises(ValueError):
        model.predict_noise(bad, s.cond, 10)


# --------------------------------------------------------------------------
# split layer 1 against the concatenated-row reference
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_model():
    """Small model with every parameter perturbed, so no layer is trivial."""
    model = ToyDenoiser(hidden=48, seed=3)
    gen = stream(3, "random-model")
    model.b1 = 0.1 * gen.standard_normal(model.b1.shape)
    model.w2 = 0.05 * gen.standard_normal(model.w2.shape)
    model.b2 = 0.05 * gen.standard_normal(model.b2.shape)
    model.mix = model.mix + 0.05 * gen.standard_normal(model.mix.shape)
    return model


def _reference_rows(model, z, cond_img, ts, labels):
    """(B, L, in_dim) rows: each frame's latent next to its video's context."""
    rows = []
    for b in range(len(ts)):
        onehot = np.zeros(len(MOTION_LABELS))
        onehot[labels[b]] = 1.0
        ctx = np.concatenate([cond_img[b], time_embedding(int(ts[b]), model.t_embed), onehot])
        rows.append(np.concatenate([z[b], np.tile(ctx, (model.frames, 1))], axis=1))
    return np.stack(rows)


def _reference_loss_and_grads(model, x, eps):
    """The unsplit forward and backward pass over concatenated rows."""
    h1 = np.tanh(x @ model.w1 + model.b1)
    y = h1 @ model.w2 + model.b2
    out = np.einsum("lm,bmf->blf", model.mix, y)
    resid = out - eps
    g = 2.0 * resid / resid.size
    dy = np.einsum("ml,bmf->blf", model.mix, g)
    da = (dy @ model.w2.T) * (1.0 - h1**2)
    grads = {
        "w1": np.einsum("bld,blh->dh", x, da),
        "b1": da.sum(axis=(0, 1)),
        "w2": np.einsum("blh,blf->hf", h1, dy),
        "b2": dy.sum(axis=(0, 1)),
        "mix": np.einsum("blf,bmf->lm", g, y),
    }
    return out, float((resid**2).mean()), grads


def _rel_err(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


batch_labels = st.lists(st.integers(0, len(MOTION_LABELS) - 1), min_size=1, max_size=5)


@settings(max_examples=25)
@given(
    calls=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 120)), min_size=1, max_size=6),
    labels=st.lists(st.integers(0, len(MOTION_LABELS) - 1), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_predict_noise_matches_concatenated_reference(random_model, calls, labels, seed):
    # Calls draw from three conditions and repeat steps, so they hit and miss
    # the context cache in every combination; the module-wide model also
    # carries cache entries over from earlier examples.
    model = random_model
    gen = stream(seed, "forward-equivalence")
    conds = [Condition(FrameLatent(gen.uniform(-1.0, 1.0, model.video_shape[1:])), label) for label in labels]
    for which, t in calls:
        cond = conds[which]
        z = gen.standard_normal(model.video_shape)
        x = _reference_rows(model, z.reshape(1, model.frames, -1), cond.image.grid.reshape(1, -1), [t], [cond.motion_label])
        expected, _, _ = _reference_loss_and_grads(model, x, np.zeros((1, model.frames, model.frame_dim)))
        got = model.predict_noise(VideoLatent(z), cond, t).frames.reshape(expected.shape)
        assert _rel_err(got, expected) < 1e-12


@settings(max_examples=25)
@given(labels=batch_labels, seed=st.integers(0, 2**16))
def test_batch_forward_and_gradients_match_concatenated_reference(random_model, sched, labels, seed):
    model = random_model
    gen = stream(seed, "batch-equivalence")
    z0 = gen.uniform(-1.0, 1.0, (len(labels), model.frames, model.frame_dim))
    cond_img = gen.uniform(-1.0, 1.0, (len(labels), model.frame_dim))
    onehot = np.eye(len(MOTION_LABELS))[labels]
    # _assemble_batch draws each sample's step first, then the noise; a
    # copy of the generator replays the step draw for the reference rows.
    ts = copy.deepcopy(gen).integers(1, sched.steps + 1, size=len(labels))
    z_t, ctx, eps = _assemble_batch(model, z0, cond_img, onehot, gen, sched)
    x = _reference_rows(model, z_t, cond_img, ts, labels)
    expected_out, expected_loss, expected_grads = _reference_loss_and_grads(model, x, eps)
    out, _, _ = model._forward(z_t, ctx @ model.w1[model.frame_dim :] + model.b1)
    loss, grads = _batch_loss_and_grads(model, z_t, ctx, eps)
    assert _rel_err(out, expected_out) < 1e-12
    assert loss == pytest.approx(expected_loss, rel=1e-12)
    for name, expected in expected_grads.items():
        assert _rel_err(grads[name], expected) < 1e-12, name


@settings(max_examples=10)
@given(labels=st.lists(st.sampled_from(MOTION_LABELS), min_size=2, max_size=4, unique=True), seed=st.integers(0, 2**16))
def test_gradient_check_on_mixed_label_batch(random_model, sched, labels, seed):
    # At most four samples, so gradient_check's batch is all of them.
    samples = tuple(
        generate_dataset(1, DatasetParams(labels=(label,)), seed=seed + i).samples[0]
        for i, label in enumerate(labels)
    )
    data = MotionDataset(samples)
    before = random_model.parameters()
    assert gradient_check(random_model, data, sched, n_coords=20, seed=seed) < 1e-4
    for name, p in random_model.parameters().items():
        assert p is before[name], name


# --------------------------------------------------------------------------
# context cache and read-only parameters
# --------------------------------------------------------------------------


def _perturbed_model(seed):
    model = ToyDenoiser(hidden=16, seed=seed)
    model.w2 = 0.05 * stream(seed, "perturbed-model").standard_normal(model.w2.shape)
    return model


def _copy_of(model):
    """A fresh model holding the same parameters, so its cache is empty."""
    fresh = ToyDenoiser(hidden=model.hidden, t_embed=model.t_embed, seed=0)
    for name, p in model.parameters().items():
        setattr(fresh, name, p)
    return fresh


def test_memo_follows_training(small_dataset, sched):
    model = _perturbed_model(11)
    s = small_dataset.samples[2]
    z_t = VideoLatent(s.video.frames + 0.1)
    before = model.predict_noise(z_t, s.cond, 40)
    w1, b1 = model.w1, model.b1
    train(model, MotionDataset(small_dataset.samples[:8]), sched, epochs=1, seed=3, batch_size=4)
    assert not np.array_equal(model.w1, w1) and not np.array_equal(model.b1, b1)
    after = model.predict_noise(z_t, s.cond, 40)
    assert after.frames.tobytes() == _copy_of(model).predict_noise(z_t, s.cond, 40).frames.tobytes()
    assert not np.array_equal(after.frames, before.frames)


def test_memo_call_order_does_not_change_bytes(small_dataset):
    model = _perturbed_model(12)
    gen = stream(12, "memo-order")
    conds = [small_dataset.samples[i].cond for i in range(3)]
    order = [(0, 7), (1, 7), (0, 90), (2, 7)]  # A, B, A, C
    for which, t in order:
        z_t = VideoLatent(gen.standard_normal(model.video_shape))
        alone = _copy_of(model).predict_noise(z_t, conds[which], t)
        assert model.predict_noise(z_t, conds[which], t).frames.tobytes() == alone.frames.tobytes()


def test_context_cache_traffic_of_vs_animate(small_dataset, sched):
    # On the main thread, one VS call projects one condition row per path,
    # the real and the proxy; its refinement and reverse pass visit every
    # step, so a second call on the same model projects no new time row.
    model = _perturbed_model(14)
    cond_row, t_row = model._context
    s = small_dataset.samples[0]
    animate(s.cond.image, s.cond, PipelineVariant.VS, model, sched, seed=1)
    assert cond_row.cache_info().misses == 2
    assert t_row.cache_info().currsize == sched.steps
    time_rows = t_row.cache_info().misses
    animate(s.cond.image, s.cond, PipelineVariant.VS, model, sched, seed=2)
    assert t_row.cache_info().misses == time_rows
    assert model._context == (cond_row, t_row)


def test_threads_sharing_the_context_cache_get_the_bytes_of_a_fresh_model(small_dataset):
    # Four threads on one model, with a tiny switch interval, take turns on
    # three conditions, so the two-row condition cache evicts and races.
    model = _perturbed_model(15)
    conds = [small_dataset.samples[i].cond for i in range(3)]
    gen = stream(15, "cache-stress")
    calls = [(VideoLatent(gen.standard_normal(model.video_shape)), conds[k % 3], int(t))
             for k, t in enumerate(gen.integers(1, 121, 48))]
    want = [_copy_of(model).predict_noise(*call).frames.tobytes() for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda call: model.predict_noise(*call).frames.tobytes(), calls, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def _assert_read_only(model):
    for name, p in model.parameters().items():
        with pytest.raises(ValueError):
            p[...] = 0.0
        with pytest.raises(ValueError):
            p += 1.0


def test_parameters_are_read_only(small_dataset, sched):
    model = ToyDenoiser(hidden=16, seed=13)
    _assert_read_only(model)
    train(model, MotionDataset(small_dataset.samples[:4]), sched, epochs=1, seed=4)
    _assert_read_only(model)
    # Assignment keeps a copy: the caller's array stays writable and apart.
    b1 = np.ones(model.hidden)
    model.b1 = b1
    b1[...] = 2.0
    assert np.all(model.b1 == 1.0)
    # So does a read-only view, whose owner can still be written.
    owner = np.ones(2 * model.hidden)
    view = owner[: model.hidden]
    view.flags.writeable = False
    model.b1 = view
    owner[...] = 2.0
    assert np.all(model.b1 == 1.0) and not model.b1.flags.writeable
    # A read-only float64 array that owns its memory is adopted as it is.
    b1 = np.full(model.hidden, 3.0)
    b1.flags.writeable = False
    model.b1 = b1
    assert model.b1 is b1


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


def test_untrained_loss_matches_noise_variance(small_dataset, sched):
    # The zero predictor's expected per-sample loss is the number of latent
    # elements, E||eps||^2 = L*C*H*W = 4096.
    model = ToyDenoiser(hidden=48, seed=9)
    loss = evaluate_loss(model, small_dataset, sched, seed=0, rounds=4)
    assert loss == pytest.approx(4096.0, rel=0.02)


def test_training_reduces_loss(trained_small):
    _, result, _ = trained_small
    losses = np.asarray(result.losses)
    assert losses[-1] < 0.7 * losses[0]
    assert result.final_loss == pytest.approx(losses[-1])


def test_training_loss_smoothed_monotone(trained_small):
    _, result, _ = trained_small
    losses = np.asarray(result.losses)
    smoothed = np.convolve(losses, np.ones(10) / 10, mode="valid")
    violations = int((np.diff(smoothed) > 0.0).sum())
    assert violations <= max(1, int(0.05 * (len(smoothed) - 1)))


def test_trained_model_beats_zero_predictor_on_held_out(trained_small, sched):
    model, _, _ = trained_small
    held_out = generate_dataset(32, DatasetParams(), seed=77)
    trained = evaluate_loss(model, held_out, sched, seed=3)
    untrained = evaluate_loss(ToyDenoiser(hidden=256, seed=50), held_out, sched, seed=3)
    assert trained < 0.7 * untrained


def test_gradient_check_small_relative_error(trained_small, sched):
    model, _, data = trained_small
    worst = gradient_check(model, data, sched, n_coords=20, seed=0)
    assert worst < 1e-4


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_training_diverges_loudly(small_dataset, sched):
    model = ToyDenoiser(hidden=32, seed=1)
    with pytest.raises(TrainingDiverged):
        train(model, small_dataset, sched, epochs=20, lr=1e10, seed=1)


def _serial_train(model, dataset, sched, epochs, lr, seed, batch_size):
    """``train``'s loop on one thread, from its own batch and gradient
    helpers, with the whole dataset stacked once up front: the reference
    that per-batch stacking, with or without the worker thread, must match
    byte for byte, including where it diverges."""
    rng = stream(seed, "train")
    z0 = np.stack([s.video.frames.reshape(model.frames, -1) for s in dataset.samples])
    cond_img = np.stack([s.cond.image.grid.reshape(-1) for s in dataset.samples])
    onehot = np.zeros((len(dataset), len(MOTION_LABELS)))
    for i, s in enumerate(dataset.samples):
        onehot[i, s.cond.motion_label] = 1.0
    n = len(dataset)
    losses = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            batch = _assemble_batch(model, z0[idx], cond_img[idx], onehot[idx], rng, sched)
            loss, grads = _batch_loss_and_grads(model, *batch)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            for name, g in grads.items():
                setattr(model, name, getattr(model, name) - lr * g)
                if not np.isfinite(getattr(model, name)).all():
                    raise TrainingDiverged(f"non-finite parameter {name!r} at epoch {epoch}")
            total += loss * idx.size
        losses.append(total / n * model.frames * model.frame_dim)
    return np.asarray(losses)


def _one_cpu(monkeypatch):
    """Make ``train`` see no CPU but the caller's, as under ``taskset -c 0``."""
    monkeypatch.setattr(toydenoiser, "_cpus_apart_from_caller", lambda: None)


@pytest.mark.parametrize("cpus", ["two", "one"])
@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("batch_size", [5, 64])
def test_train_equals_a_serial_loop(batch_size, epochs, cpus, sched, monkeypatch):
    # 37 samples: batch 5 leaves a partial last batch, batch 64 is one
    # batch larger than the dataset.  With one CPU, train runs without its
    # worker; the bytes must not depend on which.
    if cpus == "one":
        _one_cpu(monkeypatch)
    data = generate_dataset(37, DatasetParams(), seed=8)
    model, reference = ToyDenoiser(hidden=24, seed=8), ToyDenoiser(hidden=24, seed=8)
    _, result = train(model, data, sched, epochs=epochs, lr=0.5, seed=9, batch_size=batch_size)
    expected = _serial_train(reference, data, sched, epochs, 0.5, 9, batch_size)
    assert result.losses.tobytes() == expected.tobytes()
    assert result.final_loss == expected[-1]
    for name, p in model.parameters().items():
        assert p.tobytes() == getattr(reference, name).tobytes(), name


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_leaves_no_thread_running(small_dataset, sched):
    data = MotionDataset(small_dataset.samples[:10])
    before = set(threading.enumerate())
    train(ToyDenoiser(hidden=16, seed=1), data, sched, epochs=2, seed=1, batch_size=4)
    assert set(threading.enumerate()) == before
    # lr 30 first diverges in epoch 5, so the worker has drawn batches past
    # the step that fails; the message must still name the failing epoch.
    with pytest.raises(TrainingDiverged) as serial:
        _serial_train(ToyDenoiser(hidden=16, seed=1), data, sched, 20, 30.0, 1, 8)
    assert int(re.search(r"epoch (\d+)$", str(serial.value)).group(1)) > 1
    with pytest.raises(TrainingDiverged, match=f"^{re.escape(str(serial.value))}$"):
        train(ToyDenoiser(hidden=16, seed=1), data, sched, epochs=20, lr=30.0, seed=1, batch_size=8)
    assert set(threading.enumerate()) == before


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs two allowed CPUs")
def test_train_keeps_its_worker_off_the_callers_cpu(small_dataset, sched, monkeypatch):
    # The worker's mask is the caller's less one CPU; the caller's own mask
    # is left as it was.
    caller_mask = os.sched_getaffinity(0)
    seen = {}
    assemble = toydenoiser._assemble_batch

    def recording(*args):
        seen[threading.get_ident()] = os.sched_getaffinity(0)
        return assemble(*args)

    monkeypatch.setattr(toydenoiser, "_assemble_batch", recording)
    train(ToyDenoiser(hidden=16, seed=3), MotionDataset(small_dataset.samples[:8]), sched, epochs=2, seed=3, batch_size=4)
    assert threading.get_ident() not in seen
    (worker_mask,) = seen.values()
    assert worker_mask < caller_mask and len(worker_mask) == len(caller_mask) - 1
    assert os.sched_getaffinity(0) == caller_mask


def test_train_starts_no_thread_without_another_cpu(small_dataset, sched, monkeypatch):
    _one_cpu(monkeypatch)
    seen = set()
    for name in ("_assemble_batch", "_layer2_grads"):
        original = getattr(toydenoiser, name)

        def recording(*args, original=original):
            seen.add((threading.get_ident(), threading.active_count()))
            return original(*args)

        monkeypatch.setattr(toydenoiser, name, recording)
    before = threading.active_count()
    train(ToyDenoiser(hidden=16, seed=3), MotionDataset(small_dataset.samples[:8]), sched, epochs=2, seed=3, batch_size=4)
    assert seen == {(threading.get_ident(), before)}


def test_train_keeps_its_worker_when_the_pin_is_refused(sched, monkeypatch):
    # The CPU set can shrink between reading the mask and starting the
    # worker; the worker then runs unpinned and the bytes stay the same.
    def refuse(pid, mask):
        raise OSError(22, "Invalid argument")

    data = generate_dataset(13, DatasetParams(), seed=8)
    model, reference = ToyDenoiser(hidden=24, seed=8), ToyDenoiser(hidden=24, seed=8)
    expected = _serial_train(reference, data, sched, 2, 0.5, 9, 5)
    monkeypatch.setattr(toydenoiser, "_cpus_apart_from_caller", lambda: {0})
    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    workers = set()
    layer2 = toydenoiser._layer2_grads

    def recording(*args):
        workers.add(threading.get_ident())
        return layer2(*args)

    monkeypatch.setattr(toydenoiser, "_layer2_grads", recording)
    _, result = train(model, data, sched, epochs=2, lr=0.5, seed=9, batch_size=5)
    assert threading.get_ident() not in workers and len(workers) == 1
    assert result.losses.tobytes() == expected.tobytes()
    for name, p in model.parameters().items():
        assert p.tobytes() == getattr(reference, name).tobytes(), name


def test_train_rejects_empty_dataset(sched):
    from latent_awaken.toydenoiser import MotionDataset

    with pytest.raises(ValueError):
        train(ToyDenoiser(seed=0), MotionDataset([]), sched, epochs=1)


@pytest.mark.parametrize("lr", [0.0, -0.5, float("nan")])
def test_train_refuses_a_rate_that_is_not_positive(lr, small_dataset, sched):
    # A zero rate trains nothing and a negative one climbs the loss.
    model = ToyDenoiser(hidden=24, seed=8)
    before = {name: p.copy() for name, p in model.parameters().items()}
    with pytest.raises(ValueError, match="lr must be positive"):
        train(model, small_dataset, sched, epochs=1, lr=lr)
    assert all(np.array_equal(p, before[name]) for name, p in model.parameters().items())


@pytest.mark.parametrize("cpus", ["two", "one"])
@pytest.mark.parametrize("fault", ["label", "video", "image"])
def test_train_refuses_a_bad_last_sample_before_any_step(fault, cpus, small_dataset, sched, monkeypatch):
    # Batches are stacked as they are drawn, but every sample is checked
    # before the first of them.
    if cpus == "one":
        _one_cpu(monkeypatch)
    last = small_dataset.samples[7]
    if fault == "label":
        # An unknown label id is refused where it enters, so no sample holds one.
        with pytest.raises(ValueError, match=f"unknown motion label id {len(MOTION_LABELS)}"):
            Condition(last.cond.image, len(MOTION_LABELS))
        return
    if fault == "video":
        bad, message = replace(last, params=replace(last.params, frames=8)), "video shape"
    else:
        image = FrameLatent(np.zeros((1, 4, 4)))
        bad, message = replace(last, cond=Condition(image, last.cond.motion_label)), "condition image shape"
    data = MotionDataset(small_dataset.samples[:7] + (bad,))
    model = _perturbed_model(14)
    before = {name: p.tobytes() for name, p in model.parameters().items()}
    with pytest.raises(ValueError, match=message):
        train(model, data, sched, epochs=2, seed=14, batch_size=4)
    assert {name: p.tobytes() for name, p in model.parameters().items()} == before


@pytest.mark.parametrize("cpus", ["two", "one"])
def test_train_holds_less_than_a_copy_of_the_dataset(cpus, sched, monkeypatch):
    # The inputs are stacked one batch at a time: an epoch's traced peak
    # stays below what one (n, L, frame_dim) copy of the videos would take.
    if cpus == "one":
        _one_cpu(monkeypatch)
    data = generate_dataset(256, DatasetParams(), seed=15)
    model = ToyDenoiser(hidden=16, seed=15)
    one_copy = len(data) * model.frames * model.frame_dim * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        train(model, data, sched, epochs=1, seed=15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_copy, f"peak {peak} bytes, one copy {one_copy}"


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------


def test_checkpoint_round_trip(trained_small, sched, tmp_path):
    model, _, _ = trained_small
    ckpt = tmp_path / "ckpt"
    save_checkpoint(model, ckpt, dataset_params=DatasetParams(), sched=sched)
    loaded, manifest = load_checkpoint(ckpt)
    for name, p in model.parameters().items():
        assert np.array_equal(loaded.parameters()[name], p)
    assert manifest["format"] == "toydenoiser-v1"
    assert manifest["hidden"] == 256
    assert manifest["schedule_digest"] == schedule_digest(sched)
    assert "layers" not in manifest
    assert "n_labels" not in manifest  # w1's shape holds the label count


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nowhere")


@settings(max_examples=15)
@given(
    dims=st.tuples(st.integers(1, 4), st.integers(2, 4), st.integers(2, 4), st.integers(1, 8),
                   st.sampled_from([2, 4, 8])),
    seed=st.integers(0, 2**16),
    keep=st.floats(0.0, 0.999),
)
def test_checkpoint_round_trip_is_exact(dims, seed, keep, sched):
    frames, height, width, hidden, t_embed = dims
    model = ToyDenoiser(frames=frames, height=height, width=width, hidden=hidden, t_embed=t_embed, seed=seed)
    gen = stream(seed, "checkpoint-round-trip")
    for name, p in model.parameters().items():
        setattr(model, name, gen.standard_normal(p.shape))
    cond = Condition(FrameLatent(gen.uniform(-1.0, 1.0, (1, height, width))), int(gen.integers(len(MOTION_LABELS))))
    z_t = VideoLatent(gen.standard_normal(model.video_shape))
    with tempfile.TemporaryDirectory() as tmp:
        params = DatasetParams(frames=frames, height=height, width=width)
        ckpt = save_checkpoint(model, Path(tmp) / "ckpt", params, sched)
        loaded, _ = load_checkpoint(ckpt)
        for name, p in model.parameters().items():
            got = loaded.parameters()[name]
            assert got.tobytes() == p.tobytes() and got.shape == p.shape, name
            assert not got.flags.writeable, name
        expected = model.predict_noise(z_t, cond, 5).frames.tobytes()
        assert loaded.predict_noise(z_t, cond, 5).frames.tobytes() == expected
        w1_file = ckpt / "w1.ltn1"
        raw = w1_file.read_bytes()
        w1_file.write_bytes(raw[: int(keep * len(raw))])
        with pytest.raises(ValueError):
            load_checkpoint(ckpt)


def test_checkpoint_rejects_shape_drift(trained_small, sched, tmp_path):
    model, _, _ = trained_small
    ckpt = tmp_path / "ckpt"
    save_checkpoint(model, ckpt, DatasetParams(), sched)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["hidden"] = 128  # stored tensors no longer match
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_checkpoint(ckpt)


def _random_checkpoint(ckpt, sched):
    """A small model with random weights, saved to ``ckpt``; returns the model."""
    model = ToyDenoiser(frames=3, height=4, width=4, hidden=8, t_embed=4, seed=7)
    gen = stream(7, "checkpoint-random")
    for name, p in model.parameters().items():
        setattr(model, name, gen.standard_normal(p.shape))
    save_checkpoint(model, ckpt, DatasetParams(frames=3, height=4, width=4), sched)
    return model


def _edit_manifest(ckpt, edit):
    path = ckpt / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def _layers_table(model, skip=()):
    # The manifest's per-layer shape table of the earlier checkpoint format.
    return {name: list(p.shape) for name, p in model.parameters().items() if name not in skip}


@pytest.mark.parametrize("name", PARAMETER_NAMES)
def test_checkpoint_missing_parameter_file_is_refused(name, sched, tmp_path):
    # The model decides which files a checkpoint needs, not the manifest: a
    # layers table that no longer lists the file does not excuse it.
    model = _random_checkpoint(tmp_path, sched)
    (tmp_path / f"{name}.ltn1").unlink()
    _edit_manifest(tmp_path, lambda m: m.update(layers=_layers_table(model, skip=(name,))))
    with pytest.raises(FileNotFoundError, match=f"{name}.ltn1"):
        load_checkpoint(tmp_path)


def _assert_loads_bit_identically(model, ckpt):
    loaded, _ = load_checkpoint(ckpt)
    for name, p in model.parameters().items():
        assert loaded.parameters()[name].tobytes() == p.tobytes(), name
    gen = stream(8, "checkpoint-random")
    cond = Condition(FrameLatent(gen.uniform(-1.0, 1.0, (1, 4, 4))), 2)
    z_t = VideoLatent(gen.standard_normal(model.video_shape))
    assert loaded.predict_noise(z_t, cond, 9).frames.tobytes() == model.predict_noise(z_t, cond, 9).frames.tobytes()


def test_checkpoint_with_layers_table_loads_bit_identically(sched, tmp_path):
    # Checkpoints written before the layers table was dropped still load.
    model = _random_checkpoint(tmp_path, sched)
    _edit_manifest(tmp_path, lambda m: m.update(layers=_layers_table(model)))
    _assert_loads_bit_identically(model, tmp_path)


@pytest.mark.parametrize("n_labels", [4, len(MOTION_LABELS), 8])
def test_checkpoint_that_records_a_label_count(n_labels, sched, tmp_path):
    # Manifests written before the label count was fixed carry "n_labels",
    # which is not read: W1's rows are the label count.  A checkpoint of the
    # vocabulary's count loads bit-identically, one built for another count
    # is refused by W1's shape.
    model = _random_checkpoint(tmp_path, sched)
    _edit_manifest(tmp_path, lambda m: m.update(n_labels=n_labels))
    if n_labels == len(MOTION_LABELS):
        _assert_loads_bit_identically(model, tmp_path)
        return
    shape = (model.w1.shape[0] - len(MOTION_LABELS) + n_labels, model.w1.shape[1])
    write_ltn1(tmp_path / "w1.ltn1", np.resize(model.w1, shape))
    with pytest.raises(ValueError, match=re.escape(f"'w1' has shape {shape}, the manifest's model needs {model.w1.shape}")):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("null", [False, True], ids=["absent", "null"])
@pytest.mark.parametrize("key", MODEL_DIMS + ("dataset", "schedule_digest"))
def test_manifest_without_dimension_or_provenance_is_refused(key, null, sched, tmp_path):
    _random_checkpoint(tmp_path, sched)
    _edit_manifest(tmp_path, lambda m: m.update({key: None}) if null else m.pop(key))
    with pytest.raises(ValueError, match=repr(key)):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("value", ["64", 64.0, 16.5, True, 0], ids=["str", "integral-float", "float", "bool", "zero"])
@pytest.mark.parametrize("key", MODEL_DIMS)
def test_manifest_dimension_that_is_not_a_positive_integer_is_refused(key, value, sched, tmp_path):
    _random_checkpoint(tmp_path, sched)
    _edit_manifest(tmp_path, lambda m: m.update({key: value}))
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'manifest.json'} gives {key!r}")):
        load_checkpoint(tmp_path)
