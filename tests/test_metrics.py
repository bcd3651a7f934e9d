"""Feature extraction, Fréchet fits, alignment and linearity scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_awaken.diffusion import Condition, FrameLatent, VideoLatent, replicate_static
from latent_awaken.metrics import (
    FeatureStats,
    alignment_score,
    diagnose_video,
    displacement_estimate,
    feature_length,
    fidelity,
    frechet_distance,
    linearity_score,
    motion_energy,
    per_frame_sizes,
    video_features,
)
from latent_awaken.motion import label_id, wrapped_delta
from latent_awaken.rng import stream
from latent_awaken.toydenoiser import DatasetParams, generate_dataset, render_pattern


def blob_image(cx=5.0, cy=8.0, sigma=2.0, side=16):
    return FrameLatent(2.0 * render_pattern("blob", [cx], [cy], [sigma], side, side) - 1.0)


def samples_for(label, n=3, seed=4):
    return generate_dataset(n, DatasetParams(shapes=("blob",), labels=(label,)), seed=seed).samples


def random_stats(seed, n=40, d=6):
    feats = stream(seed, "metrics-test").standard_normal((n, d))
    return FeatureStats.from_features(feats)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def test_feature_length():
    assert feature_length(16) == 35
    assert feature_length(2) == 7


def test_video_features_of_static_video():
    v = replicate_static(blob_image(), 8)
    feats = video_features(v)
    assert feats.size == feature_length(8)
    means, energies, tail = feats[:8], feats[8:16], feats[16:]
    assert np.ptp(means) == 0.0
    assert np.ptp(energies) == 0.0
    assert tail[0] == 0.0  # no frame-to-frame change
    assert tail[1] == 0.0 and tail[2] == 0.0  # no displacement


def test_video_features_track_unit_motion():
    sample = samples_for("right")[0]
    feats = video_features(sample.video)
    dx, dy = feats[-2], feats[-1]
    assert abs(dx - 1.0) < 1e-9
    assert abs(dy) < 1e-9


def test_video_features_needs_two_frames():
    with pytest.raises(ValueError):
        video_features(VideoLatent(np.zeros((1, 1, 4, 4))))


def test_displacement_estimate_single_frame():
    assert displacement_estimate(VideoLatent(np.zeros((1, 1, 4, 4)))) == (0.0, 0.0)


def test_motion_energy_values():
    assert motion_energy(replicate_static(blob_image(), 5)) == 0.0
    assert motion_energy(VideoLatent(np.zeros((1, 1, 4, 4)))) == 0.0
    frames = np.zeros((2, 1, 4, 4))
    frames[1] = 0.5
    assert motion_energy(VideoLatent(frames)) == 0.25


def test_fidelity_values():
    image = blob_image()
    assert fidelity(replicate_static(image, 4), image) == 0.0
    with pytest.raises(ValueError, match="shape"):
        fidelity(VideoLatent(np.zeros((4, 1, 8, 8))), image)


def test_per_frame_sizes_grow_monotone():
    for sample in samples_for("grow"):
        sizes = per_frame_sizes(sample.video)
        assert (np.diff(sizes) > 0.0).all()


# The per-frame definition of the centroids and sizes, one frame at a time.
def _frame_weights(frame):
    w = frame.mean(axis=0)
    w = w - w.min()
    total = w.sum()
    if total <= 0.0:
        return None
    return w / total


def _circular_centroid(weights):
    height, width = weights.shape
    ang_x = 2.0 * np.pi * np.arange(width) / width
    ang_y = 2.0 * np.pi * np.arange(height) / height
    wx = weights.sum(axis=0)
    wy = weights.sum(axis=1)
    cx = np.arctan2((wx * np.sin(ang_x)).sum(), (wx * np.cos(ang_x)).sum()) * width / (2.0 * np.pi)
    cy = np.arctan2((wy * np.sin(ang_y)).sum(), (wy * np.cos(ang_y)).sum()) * height / (2.0 * np.pi)
    return cx % width, cy % height


def reference_displacement(v):
    cents = np.zeros((v.frame_count, 2))
    last = (0.0, 0.0)
    for l in range(v.frame_count):
        w = _frame_weights(v.frames[l])
        if w is not None:
            last = _circular_centroid(w)
        cents[l] = last
    _, _, height, width = v.shape
    dx = np.mean([wrapped_delta(cents[l + 1, 0], cents[l, 0], width) for l in range(v.frame_count - 1)])
    dy = np.mean([wrapped_delta(cents[l + 1, 1], cents[l, 1], height) for l in range(v.frame_count - 1)])
    return float(dx), float(dy)


def reference_sizes(v):
    sizes = np.zeros(v.frame_count)
    _, _, height, width = v.shape
    xs = np.arange(width, dtype=np.float64)[None, :]
    ys = np.arange(height, dtype=np.float64)[:, None]
    for l in range(v.frame_count):
        w = _frame_weights(v.frames[l])
        if w is None:
            continue
        cx, cy = _circular_centroid(w)
        dx = wrapped_delta(xs, cx, width)
        dy = wrapped_delta(ys, cy, height)
        sizes[l] = np.sqrt((w * (dx**2 + dy**2)).sum())
    return sizes


@st.composite
def videos_with_constant_frames(draw):
    frames, channels = draw(st.integers(2, 16)), draw(st.integers(1, 2))
    height, width = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rng = stream(draw(st.integers(0, 2**32 - 1)), "centroid-property")
    video = rng.standard_normal((frames, channels, height, width)) * draw(st.sampled_from([1e-6, 1.0, 300.0]))
    constant = draw(st.lists(st.booleans(), min_size=frames, max_size=frames))
    video[np.array(constant)] = draw(st.floats(-2.0, 2.0))
    return video


@settings(max_examples=150)
@given(video=videos_with_constant_frames(), offset=st.floats(-1.5, 1.5))
def test_centroid_metrics_match_the_per_frame_definition(video, offset):
    # Constant frames take the previous centroid in the displacement and size
    # 0, and brightness-offset copies round on their own: every bit agrees.
    for frames in (video, video + offset):
        v = VideoLatent(frames)
        assert np.array(displacement_estimate(v)).tobytes() == np.array(reference_displacement(v)).tobytes()
        assert per_frame_sizes(v).tobytes() == reference_sizes(v).tobytes()


# ---------------------------------------------------------------------------
# Fréchet distance
# ---------------------------------------------------------------------------


def test_frechet_identical_is_zero():
    a = random_stats(1)
    assert frechet_distance(a, a) <= 1e-9


def test_frechet_pure_mean_shift():
    a = FeatureStats(np.array([0.0]), np.array([[0.0]]))
    b = FeatureStats(np.array([1.0]), np.array([[0.0]]))
    assert abs(frechet_distance(a, b) - 1.0) <= 1e-9


def test_frechet_known_covariance_gap():
    # same mean, covariances 4I vs I in d=2: d^2 = tr(4I) + tr(I) - 2 tr(2I) = 2
    mean = np.zeros(2)
    a = FeatureStats(mean, 4.0 * np.eye(2))
    b = FeatureStats(mean, np.eye(2))
    assert abs(frechet_distance(a, b) - np.sqrt(2.0)) <= 1e-9


def test_frechet_symmetric_and_nonnegative():
    a, b = random_stats(2), random_stats(3)
    d_ab = frechet_distance(a, b)
    d_ba = frechet_distance(b, a)
    assert d_ab >= 0.0
    assert abs(d_ab - d_ba) <= 1e-9


def test_frechet_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        frechet_distance(random_stats(4, d=6), random_stats(5, d=7))


def test_feature_stats_validation():
    with pytest.raises(ValueError, match="symmetric"):
        FeatureStats(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="PSD"):
        FeatureStats(np.zeros(1), np.array([[-1.0]]))
    with pytest.raises(ValueError, match="shapes"):
        FeatureStats(np.zeros(3), np.eye(2))


def test_feature_stats_root_squares_back():
    g = stream(5, "sqrtm")
    a = g.standard_normal((6, 6))
    m = a @ a.T + 0.1 * np.eye(6)
    root = FeatureStats(np.zeros(6), m).root
    assert np.allclose(root @ root, m, atol=1e-10)
    assert np.allclose(root, root.T, atol=1e-12)


def test_feature_stats_arrays_are_read_only():
    # The covariance is checked once, when the fit is made, so neither the
    # fit's arrays nor the caller's arrays it was made from can change it.
    mean, cov = np.zeros(2), np.eye(2)
    stats = FeatureStats(mean, cov)
    for name in ("mean", "covariance", "root"):
        arr = getattr(stats, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = -5.0
    mean[0], cov[0, 0] = 3.0, -5.0
    assert stats.mean[0] == 0.0 and stats.covariance[0, 0] == 1.0


def test_feature_stats_from_features_projects_to_psd():
    # fewer samples than dimensions: the sample covariance is singular, and
    # after the PSD projection any negative eigenvalue is reconstruction
    # round-off (~1e-15), far inside the validator's -1e-10 acceptance
    feats = stream(6, "metrics-test").standard_normal((3, 10))
    stats = FeatureStats.from_features(feats)
    assert np.linalg.eigvalsh(stats.covariance).min() >= -1e-12
    with pytest.raises(ValueError):
        FeatureStats.from_features(feats[:1])
    with pytest.raises(ValueError):
        FeatureStats.from_features(feats.ravel())


def test_feature_stats_psd_tolerance_scales_with_covariance():
    # Rank-deficient features (N < d) scaled so the top eigenvalue is ~5e5:
    # the projection's reconstruction round-off then reaches ~1e-10 in
    # absolute terms, which an absolute tolerance wrongly rejects.
    for seed in range(20):
        feats = stream(seed, "metrics-test").standard_normal((4, 12))
        top = np.linalg.eigvalsh(np.cov(feats, rowvar=False)).max()
        stats = FeatureStats.from_features(feats * np.sqrt(5e5 / top))
        vals = np.linalg.eigvalsh(stats.covariance)
        assert vals.max() == pytest.approx(5e5)
        assert vals.min() >= -1e-10 * vals.max()


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def test_alignment_translation_labels():
    sample = samples_for("right")[0]
    assert alignment_score(sample.video, sample.cond) == 1.0
    opposite = Condition(sample.cond.image, label_id("left"))
    assert alignment_score(sample.video, opposite) == -1.0


def test_alignment_static_label():
    v = replicate_static(blob_image(), 8)
    assert alignment_score(v, Condition(blob_image(), label_id("static"))) == 1.0


def test_alignment_static_video_against_motion_label():
    v = replicate_static(blob_image(), 8)
    assert alignment_score(v, Condition(blob_image(), label_id("right"))) == 0.0


def test_alignment_grow_label():
    for sample in samples_for("grow"):
        assert alignment_score(sample.video, sample.cond) >= 0.9


def test_alignment_brightness_offset_invariance():
    sample = samples_for("up")[0]
    shifted = VideoLatent(np.clip(sample.video.frames + 0.1, -1.0, 1.0))
    base = alignment_score(sample.video, sample.cond)
    assert abs(alignment_score(shifted, sample.cond) - base) < 1e-9


def test_alignment_unknown_label():
    v = replicate_static(blob_image(), 4)
    with pytest.raises(ValueError, match="unknown motion label"):
        alignment_score(v, Condition(blob_image(), 42))


# ---------------------------------------------------------------------------
# linearity
# ---------------------------------------------------------------------------


def test_linearity_of_points_on_a_line():
    direction = stream(7, "metrics-test").standard_normal(16)
    frames = (np.arange(8.0)[:, None] * direction).reshape(8, 1, 4, 4)
    vr, mono = linearity_score(VideoLatent(frames))
    assert vr > 1.0 - 1e-9
    assert mono == 1.0


def test_linearity_of_static_video_is_degenerate():
    v = replicate_static(blob_image(), 6)
    assert linearity_score(v) == (0.0, 0.0)


def test_linearity_needs_three_frames():
    with pytest.raises(ValueError):
        linearity_score(VideoLatent(np.zeros((2, 1, 4, 4))))


def test_linearity_rotation_invariance():
    gen = stream(8, "metrics-test")
    points = gen.standard_normal((10, 16))
    q, _ = np.linalg.qr(gen.standard_normal((16, 16)))
    vr_a, mono_a = linearity_score(VideoLatent(points.reshape(10, 1, 4, 4)))
    vr_b, mono_b = linearity_score(VideoLatent((points @ q.T).reshape(10, 1, 4, 4)))
    assert abs(vr_a - vr_b) < 1e-9
    assert abs(mono_a - mono_b) < 1e-9


def test_linearity_of_pure_noise_is_rarely_monotone():
    # spot check of the committed calibration: same streams, first 150 trials
    below = 0
    for trial in range(150):
        gen = stream(trial, "linearity-calibration")
        v = VideoLatent(gen.standard_normal((16, 1, 16, 16)))
        _, mono = linearity_score(v)
        below += int(mono < 0.6)
    assert below >= 135


def test_linearity_noise_calibration_fixture(thresholds):
    noise = thresholds["linearity_noise"]
    assert noise["bound"] == 0.6
    assert noise["below_bound"] >= 0.95 * noise["trials"]


# ---------------------------------------------------------------------------
# single-video report
# ---------------------------------------------------------------------------


def test_diagnose_video_report():
    sample = samples_for("right")[0]
    report = diagnose_video(sample.video, sample.cond)
    assert report.frechet is None
    assert report.fidelity is None
    assert report.alignment == 1.0
    payload = report.to_dict()
    assert set(payload) == {"frechet", "alignment", "linearity", "motion_energy", "fidelity"}
    assert set(payload["linearity"]) == {"variance_ratio", "monotonicity"}

    with_ref = diagnose_video(sample.video, sample.cond, reference=sample.cond.image)
    assert with_ref.fidelity == fidelity(sample.video, sample.cond.image)
