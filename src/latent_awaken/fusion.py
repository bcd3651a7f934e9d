"""Fusing two refined video latents into one animated latent.

The fused video walks from the real-image latent toward the proxy latent as
the frame index advances: frame l mixes the two paths with weight
beta_l = l / (L - 1).  Spherical interpolation measures one angle between
the two flattened videos and moves every frame along an arc of that angle,
preserving norms that plain linear mixing would shrink mid-sequence;
``uniform_fuse``, the linear baseline kept for ablation, is the same mix at
angle 0.  The pipeline variant decides which of the two runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import VideoLatent
from .numerics import angle_between


@dataclass(frozen=True)
class FusionConfig:
    """``epsilon_theta``: slerp angles below it mix linearly, and angles
    above pi minus it are refused.  It must lie in (0, pi/2), where the two
    ranges do not overlap."""

    epsilon_theta: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.epsilon_theta < np.pi / 2:
            raise ValueError(f"epsilon_theta must be in (0, pi/2), got {self.epsilon_theta}")


def beta_schedule(frame_count: int) -> np.ndarray:
    """Per-frame mixing weights 0 = real ... 1 = proxy; a single frame gets 0."""
    if frame_count < 1:
        raise ValueError("frame_count must be >= 1")
    if frame_count == 1:
        return np.zeros(1)
    return np.arange(frame_count, dtype=np.float64) / (frame_count - 1)


def _check_pair(zr: VideoLatent, zs: VideoLatent) -> None:
    if zr.shape != zs.shape:
        raise ValueError(f"latent shape mismatch: {zr.shape} vs {zs.shape}")


def _mix(zr: VideoLatent, zs: VideoLatent, theta: float) -> VideoLatent:
    """Frame l walks beta_l of the way from zr to zs along an arc of angle
    ``theta``; an angle of exactly 0 walks the straight chord."""
    a, b = zr.frames, zs.frames
    beta = beta_schedule(zr.frame_count)[:, None, None, None]
    if theta == 0.0:
        # Written as a + beta*(b - a) so equal inputs reproduce exactly.
        return VideoLatent(a + beta * (b - a))
    sin_theta = np.sin(theta)
    return VideoLatent((np.sin((1.0 - beta) * theta) / sin_theta) * a + (np.sin(beta * theta) / sin_theta) * b)


def slerp_fuse(zr: VideoLatent, zs: VideoLatent, cfg: FusionConfig = FusionConfig()) -> VideoLatent:
    """Spherical interpolation between two latents along the frame axis.

    One angle between the flattened videos is shared by every frame.  An
    angle below ``epsilon_theta`` mixes linearly.  Nearly antipodal inputs
    (theta > pi - epsilon) are rejected: the arc is then ill-conditioned and
    has no preferred direction.
    """
    _check_pair(zr, zs)
    try:
        theta = angle_between(zr.frames, zs.frames)
    except ValueError as exc:
        raise ValueError(f"cannot measure global slerp angle: {exc}") from exc
    if theta > np.pi - cfg.epsilon_theta:
        raise ValueError(f"global latents are nearly antipodal (theta={theta:.6f}); slerp undefined")
    return _mix(zr, zs, 0.0 if theta < cfg.epsilon_theta else theta)


def uniform_fuse(zr: VideoLatent, zs: VideoLatent) -> VideoLatent:
    """Per-frame linear interpolation: the slerp mix at angle 0."""
    _check_pair(zr, zs)
    return _mix(zr, zs, 0.0)
