"""Fusing two refined video latents into one animated latent.

The fused video walks from the real-image latent toward the proxy latent as
the frame index advances: frame l mixes the two paths with weight
beta_l = l / (L - 1).  Spherical interpolation keeps each fused frame on the
great-circle arc between its sources, preserving norms that plain linear
mixing would shrink mid-sequence; ``uniform_fuse``, the linear baseline
kept for ablation, is the same mix with every angle 0.  The pipeline variant
decides which of the two runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diffusion import VideoLatent
from .numerics import angle_between


class AngleScope(Enum):
    """Where the slerp angle is measured: one angle for the whole flattened
    video pair, or a separate angle per frame slice."""

    GLOBAL = "global"
    PER_FRAME = "per_frame"


@dataclass(frozen=True)
class FusionConfig:
    angle_scope: AngleScope = AngleScope.GLOBAL
    epsilon_theta: float = 1e-6

    def __post_init__(self):
        if self.epsilon_theta <= 0.0:
            raise ValueError("epsilon_theta must be positive")


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


def _mix(zr: VideoLatent, zs: VideoLatent, thetas) -> VideoLatent:
    """Frame l walks beta_l of the way from zr to zs along an arc of angle
    ``thetas[l]``; an angle of exactly 0 walks the straight chord."""
    out = np.empty_like(zr.frames)
    for l, (a, b, beta, theta) in enumerate(zip(zr.frames, zs.frames, beta_schedule(zr.frame_count), thetas)):
        if theta == 0.0:
            # Written as a + beta*(b - a) so equal inputs reproduce exactly.
            out[l] = a + beta * (b - a)
        else:
            sin_theta = np.sin(theta)
            out[l] = (np.sin((1.0 - beta) * theta) / sin_theta) * a + (np.sin(beta * theta) / sin_theta) * b
    return VideoLatent(out)


def slerp_fuse(zr: VideoLatent, zs: VideoLatent, cfg: FusionConfig = FusionConfig()) -> VideoLatent:
    """Spherical interpolation between two latents along the frame axis.

    With ``AngleScope.GLOBAL`` one angle between the flattened videos is
    shared by every frame; ``PER_FRAME`` measures it per frame slice.
    Angles below ``epsilon_theta`` mix linearly.  Nearly antipodal inputs
    (theta > pi - epsilon) are rejected: the arc is then ill-conditioned and
    has no preferred direction.
    """
    _check_pair(zr, zs)
    if cfg.angle_scope is AngleScope.GLOBAL:
        slices = [("global", zr.frames, zs.frames)]
    else:
        slices = [(f"frame {l}", zr.frames[l], zs.frames[l]) for l in range(zr.frame_count)]
    thetas = []
    for scope, a, b in slices:
        try:
            theta = angle_between(a, b)
        except ValueError as exc:
            raise ValueError(f"cannot measure {scope} slerp angle: {exc}") from exc
        if theta > np.pi - cfg.epsilon_theta:
            raise ValueError(f"{scope} latents are nearly antipodal (theta={theta:.6f}); slerp undefined")
        thetas.append(0.0 if theta < cfg.epsilon_theta else theta)
    return _mix(zr, zs, np.broadcast_to(thetas, zr.frame_count))


def uniform_fuse(zr: VideoLatent, zs: VideoLatent) -> VideoLatent:
    """Per-frame linear interpolation: the slerp mix with every angle 0."""
    _check_pair(zr, zs)
    return _mix(zr, zs, np.zeros(zr.frame_count))
