import numpy as np
import pytest

from latent_awaken.diffusion import (
    Condition,
    FrameLatent,
    NoiseSchedule,
    VideoLatent,
    forward_noise,
    replicate_static,
    reverse_sample,
)
from latent_awaken.rng import stream


class ConsistentOracle:
    """Denoiser that predicts the noise implied by a stored clean latent.

    At any level t it returns (z_t - sqrt(ab_t) z0) / sqrt(1 - ab_t), i.e. the
    unique noise consistent with its z0 — so a variance-zeroed reverse pass
    must walk straight back to z0.
    """

    def __init__(self, z0: VideoLatent, sched: NoiseSchedule):
        self.z0 = z0
        self.sched = sched
        self.frames = z0.frame_count

    def predict_noise(self, z_t, cond, t):
        ab = self.sched.alpha_bar(t)
        return VideoLatent((z_t.frames - np.sqrt(ab) * self.z0.frames) / np.sqrt(1.0 - ab))


@pytest.fixture(scope="module")
def sched():
    return NoiseSchedule.linear(1000, 1e-4, 0.02)


def _video(seed, shape=(16, 1, 16, 16), scale=1.0):
    return VideoLatent(scale * stream(seed, "test-video").standard_normal(shape))


def test_linear_schedule_invariants(sched):
    assert sched.steps == 1000
    assert np.all(sched.betas > 0.0) and np.all(sched.betas <= 0.999)
    assert np.all(np.diff(sched.alpha_bars) < 0.0)
    assert sched.alpha_bar(1000) < 0.01
    assert sched.alpha_bar(0) == 1.0


def test_schedule_rejects_bad_ranges():
    with pytest.raises(ValueError):
        NoiseSchedule.linear(0, 1e-4, 0.02)
    with pytest.raises(ValueError):
        NoiseSchedule.linear(1000, 1e-4, 1.5)  # beta above 0.999
    # A schedule that never reaches near-pure noise is refused outright.
    with pytest.raises(ValueError):
        NoiseSchedule.linear(10, 1e-5, 1e-4)


def test_schedule_derived_arrays_are_not_constructor_arguments():
    # alphas and alpha_bars are always computed from betas; passing them
    # would be silently overwritten, so the constructor refuses them.
    betas = np.linspace(0.1, 0.9, 5)
    with pytest.raises(TypeError):
        NoiseSchedule(betas, alphas=np.zeros(5))
    with pytest.raises(TypeError):
        NoiseSchedule(betas, alpha_bars="anything")
    assert np.array_equal(NoiseSchedule(betas).alphas, 1.0 - betas)


def test_forward_noise_zero_signal(sched):
    z0 = VideoLatent(np.zeros((4, 1, 8, 8)))
    eps = stream(7, "eps").standard_normal(z0.shape)
    for t in (1, 500, 1000):
        z_t = forward_noise(z0, t, eps, sched)
        expect = np.sqrt(1.0 - sched.alpha_bar(t)) * eps
        assert np.allclose(z_t.frames, expect, atol=1e-12)


def test_forward_noise_limits(sched):
    z0 = _video(8, (4, 1, 8, 8))
    eps = stream(9, "eps").standard_normal(z0.shape)
    # t=1: alpha_bar is almost 1, so z_t is almost z0.
    z1 = forward_noise(z0, 1, eps, sched)
    assert np.abs(z1.frames - z0.frames).max() < 0.05
    # t=T: alpha_bar < 0.01, so z_T is mostly noise.
    zT = forward_noise(z0, 1000, eps, sched)
    assert np.abs(zT.frames - eps).max() < 0.25


def test_forward_noise_exact_inversion(sched):
    z0 = _video(10)
    eps = stream(11, "eps").standard_normal(z0.shape)
    for t in (1, 250, 999):
        z_t = forward_noise(z0, t, eps, sched)
        ab = sched.alpha_bar(t)
        rec = (z_t.frames - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)
        assert np.abs(rec - z0.frames).max() < 1e-9


def test_forward_noise_validates_inputs(sched):
    z0 = _video(12, (4, 1, 8, 8))
    with pytest.raises(ValueError):
        forward_noise(z0, 1, np.zeros((4, 1, 8, 9)), sched)
    eps = np.zeros(z0.shape)
    with pytest.raises(ValueError):
        forward_noise(z0, 0, eps, sched)
    with pytest.raises(ValueError):
        forward_noise(z0, 1001, eps, sched)


def test_replicate_static_tiles_frame():
    image = FrameLatent(stream(15, "img").standard_normal((1, 16, 16)))
    video = replicate_static(image, 16)
    assert video.frame_count == 16
    for l in range(16):
        assert np.array_equal(video.frames[l], image.grid)
    assert float(((video.frames[1:] - video.frames[:-1]) ** 2).sum()) == 0.0


def test_replicate_static_single_frame():
    image = FrameLatent(np.ones((1, 4, 4)))
    video = replicate_static(image, 1)
    assert video.frame_count == 1
    assert np.array_equal(video.frames[0], image.grid)
    with pytest.raises(ValueError):
        replicate_static(image, 0)


def test_reverse_from_zero_returns_input(sched):
    z = _video(16)
    cond = Condition(FrameLatent(z.frames[0]), 0)
    oracle = ConsistentOracle(z, sched)
    out = reverse_sample(z, 0, cond, oracle, sched)
    assert out is z


def test_deterministic_reverse_recovers_oracle_latent(sched):
    z0 = _video(17, scale=0.5)
    eps = stream(18, "eps").standard_normal(z0.shape)
    z_T = forward_noise(z0, 1000, eps, sched)
    oracle = ConsistentOracle(z0, sched)
    cond = Condition(FrameLatent(z0.frames[0]), 0)
    out = reverse_sample(z_T, 1000, cond, oracle, sched)
    assert np.abs(out.frames - z0.frames).max() < 1e-9


def test_reverse_from_intermediate_levels_recovers_consistent_latent(sched):
    # Starting part-way down the schedule, the oracle's noise is consistent
    # with z0 at every remaining level, so the pass still walks back to z0.
    z0 = _video(19, (8, 1, 8, 8), scale=0.5)
    oracle = ConsistentOracle(z0, sched)
    cond = Condition(FrameLatent(z0.frames[0]), 0)
    for t_start in (400, 50, 5):
        eps = stream(20 + t_start, "eps").standard_normal(z0.shape)
        z_t = forward_noise(z0, t_start, eps, sched)
        out = reverse_sample(z_t, t_start, cond, oracle, sched)
        assert np.abs(out.frames - z0.frames).max() < 1e-9


def test_reverse_seeded_twice_is_bit_identical(sched):
    z0 = _video(21, (8, 1, 8, 8))
    eps = stream(22, "eps").standard_normal(z0.shape)
    z_T = forward_noise(z0, 1000, eps, sched)
    oracle = ConsistentOracle(z0, sched)
    cond = Condition(FrameLatent(z0.frames[0]), 0)
    a = reverse_sample(z_T, 1000, cond, oracle, sched)
    b = reverse_sample(z_T, 1000, cond, oracle, sched)
    assert a.frames.tobytes() == b.frames.tobytes()


def test_noised_norm_grows_with_level(sched):
    # For a small clean latent the squared norm of z_t grows with t,
    # checked statistically over 100 draws per level.
    z0 = VideoLatent(0.1 * stream(24, "z").standard_normal((8, 1, 8, 8)))
    means = []
    for t in (100, 500, 900):
        gen = stream(25, "growth")
        total = 0.0
        for _ in range(100):
            eps = gen.standard_normal(z0.shape)
            total += float((forward_noise(z0, t, eps, sched).frames ** 2).sum())
        means.append(total / 100)
    assert means[0] < means[1] < means[2]


def test_video_latent_validates_shape():
    with pytest.raises(ValueError):
        VideoLatent(np.zeros((16, 16)))
    with pytest.raises(ValueError):
        FrameLatent(np.zeros((16, 16)))
    v = VideoLatent(np.zeros((3, 1, 4, 5)))
    assert v.frame_shape == (1, 4, 5)
    assert v.frame(2).shape == (1, 4, 5)


def test_condition_rejects_negative_label():
    image = FrameLatent(np.zeros((1, 4, 4)))
    with pytest.raises(ValueError):
        Condition(image, -1)
