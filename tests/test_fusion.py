"""Frame-indexed fusion: mixing schedule, slerp geometry, uniform baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import DIM, FRAME_SHAPE, tiled_video, unit_pair
from latent_awaken.diffusion import VideoLatent
from latent_awaken.fusion import FusionConfig, beta_schedule, slerp_fuse, uniform_fuse
from latent_awaken.numerics import angle_between
from latent_awaken.rng import stream


def random_video(seed, frames=5, scale=1.0):
    return VideoLatent(stream(seed, "fusion-test").standard_normal((frames, *FRAME_SHAPE)) * scale)


# ---------------------------------------------------------------------------
# mixing schedule
# ---------------------------------------------------------------------------


def test_beta_schedule_values():
    b = beta_schedule(16)
    assert b[0] == 0.0
    assert b[-1] == 1.0
    assert abs(b[5] - 1.0 / 3.0) < 1e-15
    assert np.array_equal(beta_schedule(2), [0.0, 1.0])
    assert np.array_equal(beta_schedule(1), [0.0])
    with pytest.raises(ValueError):
        beta_schedule(0)


# ---------------------------------------------------------------------------
# slerp properties
# ---------------------------------------------------------------------------


def test_slerp_equal_inputs_is_identity():
    v = random_video(1)
    assert np.array_equal(slerp_fuse(v, v).frames, v.frames)


frame_counts = st.integers(2, 9)
seeds = st.integers(0, 2**16)


@settings(max_examples=60)
@given(frames=frame_counts, seed_r=seeds, seed_s=seeds)
def test_slerp_endpoints_exact(frames, seed_r, seed_s):
    zr, zs = random_video(seed_r, frames), random_video(seed_s, frames)
    out = slerp_fuse(zr, zs)
    assert np.abs(out.frames[0] - zr.frames[0]).max() <= 1e-12
    assert np.abs(out.frames[-1] - zs.frames[-1]).max() <= 1e-12


def test_slerp_orthogonal_midframe():
    # Unit orthogonal endpoints: the middle of the arc is (u+v)/sqrt(2),
    # still on the unit sphere.
    u = np.zeros(DIM)
    u[0] = 1.0
    v = np.zeros(DIM)
    v[3] = 1.0
    mid = slerp_fuse(tiled_video(u), tiled_video(v)).frames[1].ravel()
    assert np.abs(mid - (u + v) / np.sqrt(2.0)).max() < 1e-12
    assert abs(np.linalg.norm(mid) - 1.0) < 1e-12


@settings(max_examples=60)
@given(frames=frame_counts, seed=seeds, theta=st.floats(1e-3, 3.0))
def test_slerp_preserves_norm_of_equal_norm_frames(frames, seed, theta):
    u, v = unit_pair(stream(seed, "fusion-test"), theta)
    zr, zs = tiled_video(2.5 * u, frames=frames), tiled_video(2.5 * v, frames=frames)
    out = slerp_fuse(zr, zs)
    norms = np.linalg.norm(out.frames.reshape(frames, -1), axis=1)
    assert np.abs(norms - 2.5).max() <= 1e-9


def test_slerp_norm_dominates_lerp():
    # The arc stays on the sphere while the chord cuts inside it, so for
    # equal-norm inputs every slerp frame is at least as long as the lerp one.
    gen = stream(5, "fusion-test")
    for _ in range(100):
        theta = gen.uniform(0.1, 3.0)
        u, v = unit_pair(gen, theta)
        zr, zs = tiled_video(u), tiled_video(v)
        arc = slerp_fuse(zr, zs).frames.reshape(3, -1)
        chord = uniform_fuse(zr, zs).frames.reshape(3, -1)
        arc_norms = np.linalg.norm(arc, axis=1)
        chord_norms = np.linalg.norm(chord, axis=1)
        assert (arc_norms >= chord_norms - 1e-12).all()
        assert arc_norms[1] > chord_norms[1]


@settings(max_examples=60)
@given(frames=frame_counts, seed=seeds, theta=st.floats(0.05, 3.0),
       scales=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)))
def test_slerp_reversal_symmetry(frames, seed, theta, scales):
    # For frame-constant inputs, swapping them and reading the frames
    # backwards walks the same arc (beta and 1 - beta trade places).
    u, v = unit_pair(stream(seed, "fusion-test"), theta)
    zr, zs = tiled_video(scales[0] * u, frames=frames), tiled_video(scales[1] * v, frames=frames)
    fwd = slerp_fuse(zr, zs)
    rev = slerp_fuse(zs, zr)
    assert np.abs(fwd.frames - rev.frames[::-1]).max() <= 1e-12


def test_slerp_rejects_antipodal():
    zr = random_video(8)
    zs = VideoLatent(-zr.frames)
    with pytest.raises(ValueError, match="antipodal"):
        slerp_fuse(zr, zs)


def test_slerp_rejects_zero_norm():
    zero = VideoLatent(np.zeros((3, *FRAME_SHAPE)))
    v = random_video(9, frames=3)
    with pytest.raises(ValueError, match="cannot measure global"):
        slerp_fuse(zero, v, FusionConfig())


# ---------------------------------------------------------------------------
# uniform baseline
# ---------------------------------------------------------------------------


def test_uniform_fuse_examples():
    a = np.zeros(DIM)
    a[0] = 2.0
    b = np.zeros(DIM)
    b[1] = 2.0
    out = uniform_fuse(tiled_video(a), tiled_video(b))
    mid = out.frames[1].ravel()
    assert mid[0] == 1.0 and mid[1] == 1.0
    assert np.array_equal(out.frames[0].ravel(), a)
    assert np.array_equal(out.frames[-1].ravel(), b)

    v = random_video(10)
    assert np.array_equal(uniform_fuse(v, v).frames, v.frames)


# ---------------------------------------------------------------------------
# the one mix both fusions share
# ---------------------------------------------------------------------------


def reference_mix(zr, zs, theta):
    """The mix written one frame at a time, as its definition reads."""
    out = np.empty_like(zr.frames)
    for l, (a, b, beta) in enumerate(zip(zr.frames, zs.frames, beta_schedule(zr.frame_count))):
        if theta == 0.0:
            out[l] = a + beta * (b - a)
        else:
            sin_theta = np.sin(theta)
            out[l] = (np.sin((1.0 - beta) * theta) / sin_theta) * a + (np.sin(beta * theta) / sin_theta) * b
    return out


@st.composite
def latent_pairs(draw):
    frames, channels = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    gen = stream(draw(seeds), "fusion-mix")
    kind = draw(st.sampled_from(["random", "tiled", "equal", "near-parallel"]))
    if kind == "tiled":
        u, v = unit_pair(gen, draw(st.floats(1e-3, 3.0)))
        zr, zs = (np.broadcast_to(w.reshape(FRAME_SHAPE), (frames, channels, 4, 4)) for w in (u, v))
        return VideoLatent(zr), VideoLatent(draw(st.floats(0.5, 2.0)) * zs)
    zr = gen.standard_normal((frames, channels, 4, 4))
    if kind == "random":
        zs = draw(st.floats(0.5, 2.0)) * gen.standard_normal(zr.shape)
    elif kind == "equal":
        zs = zr
    else:  # an angle below epsilon_theta, which takes the linear cut
        zs = draw(st.floats(0.5, 2.0)) * zr + 1e-9 * gen.standard_normal(zr.shape)
    return VideoLatent(zr), VideoLatent(zs)


@settings(max_examples=300)
@given(pair=latent_pairs())
def test_fusions_match_the_per_frame_mix(pair):
    # Both fusions are one array expression over the frame axis; each must
    # equal the frame-by-frame mix byte for byte.
    zr, zs = pair
    theta = angle_between(zr.frames, zs.frames)
    theta = 0.0 if theta < FusionConfig().epsilon_theta else theta
    assert slerp_fuse(zr, zs).frames.tobytes() == reference_mix(zr, zs, theta).tobytes()
    assert uniform_fuse(zr, zs).frames.tobytes() == reference_mix(zr, zs, 0.0).tobytes()


def test_shape_mismatch_rejected():
    a = random_video(11, frames=3)
    b = VideoLatent(np.zeros((4, *FRAME_SHAPE)))
    with pytest.raises(ValueError, match="shape mismatch"):
        slerp_fuse(a, b)
    with pytest.raises(ValueError, match="shape mismatch"):
        uniform_fuse(a, b)


def test_fusion_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(epsilon_theta=0.0)
    with pytest.raises(ValueError):
        FusionConfig(epsilon_theta=-1e-9)
    with pytest.raises(ValueError):
        FusionConfig(epsilon_theta=float("nan"))
    # From pi/2 on, the linear cut (theta < eps) and the antipodal refusal
    # (theta > pi - eps) overlap.
    for eps in (np.pi / 2, 2.0, np.pi):
        with pytest.raises(ValueError, match="epsilon_theta"):
            FusionConfig(epsilon_theta=eps)
    assert FusionConfig(epsilon_theta=np.nextafter(np.pi / 2, 0.0)).epsilon_theta < np.pi / 2
