import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_awaken.diffusion import Condition, FrameLatent, NoiseSchedule, VideoLatent
from latent_awaken.metrics import displacement_estimate, per_frame_sizes
from latent_awaken.rng import stream
from latent_awaken.toydenoiser import (
    DIRECTIONS,
    MOTION_LABELS,
    DatasetParams,
    MotionDataset,
    ToyDenoiser,
    TrainingDiverged,
    evaluate_loss,
    generate_dataset,
    gradient_check,
    label_id,
    load_checkpoint,
    render_video,
    save_checkpoint,
    schedule_digest,
    time_embedding,
    train,
    _assemble_batch,
    _batch_loss_and_grads,
)


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
    video = render_video("right", (3.0, 7.0), 1.0, "blob", 2.0, DatasetParams())
    for l in range(video.frame_count):
        assert np.allclose(video.frames[l], np.roll(video.frames[0], l, axis=-1), atol=1e-12)


def test_up_motion_rolls_rows_negative():
    video = render_video("up", (8.0, 8.0), 1.0, "blob", 2.0, DatasetParams())
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
    video = render_video("grow", (8.0, 8.0), 0.0, "blob", 2.0, DatasetParams())
    sizes = per_frame_sizes(video)
    assert np.all(np.diff(sizes) > 0.0)
    assert displacement_estimate(video) == (0.0, 0.0)


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


def test_parameter_count_under_budget():
    assert ToyDenoiser().param_count < 500_000
    assert ToyDenoiser(hidden=600, t_embed=16).param_count < 500_000
    assert ToyDenoiser(hidden=600, t_embed=32).param_count < 500_000


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
    model.b1[...] = 0.1 * gen.standard_normal(model.b1.shape)
    model.w2[...] = 0.05 * gen.standard_normal(model.w2.shape)
    model.b2[...] = 0.05 * gen.standard_normal(model.b2.shape)
    model.mix[...] += 0.05 * gen.standard_normal(model.mix.shape)
    return model


def _reference_rows(model, z, cond_img, ts, labels):
    """(B, L, in_dim) rows: each frame's latent next to its video's context."""
    rows = []
    for b in range(len(ts)):
        onehot = np.zeros(model.n_labels)
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


draws = st.lists(
    st.tuples(st.integers(1, 120), st.integers(0, len(MOTION_LABELS) - 1)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=25, deadline=None)
@given(t=st.integers(1, 120), label=st.integers(0, len(MOTION_LABELS) - 1), seed=st.integers(0, 2**16))
def test_predict_noise_matches_concatenated_reference(random_model, t, label, seed):
    model = random_model
    gen = stream(seed, "forward-equivalence")
    z = gen.standard_normal(model.video_shape)
    cond = Condition(FrameLatent(gen.uniform(-1.0, 1.0, model.video_shape[1:])), label)
    x = _reference_rows(model, z.reshape(1, model.frames, -1), cond.image.grid.reshape(1, -1), [t], [label])
    expected, _, _ = _reference_loss_and_grads(model, x, np.zeros((1, model.frames, model.frame_dim)))
    got = model.predict_noise(VideoLatent(z), cond, t).frames.reshape(expected.shape)
    assert _rel_err(got, expected) < 1e-12


@settings(max_examples=25, deadline=None)
@given(batch=draws, seed=st.integers(0, 2**16))
def test_batch_forward_and_gradients_match_concatenated_reference(random_model, sched, batch, seed):
    model = random_model
    ts = np.array([t for t, _ in batch])
    labels = [label for _, label in batch]
    gen = stream(seed, "batch-equivalence")
    z0 = gen.uniform(-1.0, 1.0, (len(batch), model.frames, model.frame_dim))
    cond_img = gen.uniform(-1.0, 1.0, (len(batch), model.frame_dim))
    onehot = np.eye(model.n_labels)[labels]
    eps = gen.standard_normal(z0.shape)
    z_t, ctx = _assemble_batch(model, z0, cond_img, onehot, ts, eps, sched)
    x = _reference_rows(model, z_t, cond_img, ts, labels)
    expected_out, expected_loss, expected_grads = _reference_loss_and_grads(model, x, eps)
    out, _, _ = model._forward(z_t, ctx)
    loss, grads = _batch_loss_and_grads(model, z_t, ctx, eps)
    assert _rel_err(out, expected_out) < 1e-12
    assert loss == pytest.approx(expected_loss, rel=1e-12)
    for name, expected in expected_grads.items():
        assert _rel_err(grads[name], expected) < 1e-12, name


@settings(max_examples=10, deadline=None)
@given(labels=st.lists(st.sampled_from(MOTION_LABELS), min_size=2, max_size=4, unique=True), seed=st.integers(0, 2**16))
def test_gradient_check_on_mixed_label_batch(random_model, sched, labels, seed):
    # At most four samples, so gradient_check's batch is all of them.
    samples = tuple(
        generate_dataset(1, DatasetParams(labels=(label,)), seed=seed + i).samples[0]
        for i, label in enumerate(labels)
    )
    data = MotionDataset(samples, DatasetParams())
    assert gradient_check(random_model, data, sched, n_coords=20, seed=seed) < 1e-4


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
def test_training_diverges_loudly(small_dataset, sched):
    model = ToyDenoiser(hidden=32, seed=1)
    with pytest.raises(TrainingDiverged):
        train(model, small_dataset, sched, epochs=20, lr=1e10, seed=1)


def test_train_rejects_empty_dataset(sched):
    from latent_awaken.toydenoiser import MotionDataset

    with pytest.raises(ValueError):
        train(ToyDenoiser(seed=0), MotionDataset([], DatasetParams()), sched, epochs=1)


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
    assert manifest["layers"]["w1"] == list(model.parameters()["w1"].shape)


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nowhere")


def test_checkpoint_rejects_shape_drift(trained_small, sched, tmp_path):
    model, _, _ = trained_small
    ckpt = tmp_path / "ckpt"
    save_checkpoint(model, ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["hidden"] = 128  # stored tensors no longer match
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_checkpoint(ckpt)
