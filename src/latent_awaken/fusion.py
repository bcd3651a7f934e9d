"""Fusing two refined video latents into one animated latent.

The fused video walks from the real-image latent toward the proxy latent as
the frame index advances: frame l mixes the two paths with weight
beta_l = l / (L - 1).  Spherical interpolation keeps each fused frame on the
great-circle arc between its sources, preserving norms that plain linear
mixing would shrink mid-sequence; ``uniform_fuse`` is that linear baseline,
kept for ablation.  The pipeline variant decides which of the two runs.
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


def _frame_angle(a: np.ndarray, b: np.ndarray, scope: str) -> float:
    try:
        return angle_between(a, b)
    except ValueError as exc:
        raise ValueError(f"cannot measure {scope} slerp angle: {exc}") from exc


def _arc_mix(zr: np.ndarray, zs: np.ndarray, beta: float, theta: float, eps_theta: float) -> np.ndarray:
    """Slerp one slice; falls back to exact linear mixing for tiny angles."""
    if theta < eps_theta:
        # Written as zr + beta*(zs - zr) so equal inputs reproduce exactly.
        return zr + beta * (zs - zr)
    sin_theta = np.sin(theta)
    return (np.sin((1.0 - beta) * theta) / sin_theta) * zr + (np.sin(beta * theta) / sin_theta) * zs


def slerp_fuse(zr: VideoLatent, zs: VideoLatent, cfg: FusionConfig = FusionConfig()) -> VideoLatent:
    """Spherical interpolation between two latents along the frame axis.

    With ``AngleScope.GLOBAL`` one angle between the flattened videos is
    shared by every frame; ``PER_FRAME`` measures it per frame slice.
    Nearly antipodal inputs (theta > pi - epsilon) are rejected: the arc is
    then ill-conditioned and has no preferred direction.
    """
    _check_pair(zr, zs)
    L = zr.frame_count
    betas = beta_schedule(L)
    eps = cfg.epsilon_theta
    out = np.empty_like(zr.frames)

    if cfg.angle_scope is AngleScope.GLOBAL:
        theta = _frame_angle(zr.frames, zs.frames, "global")
        if theta > np.pi - eps:
            raise ValueError(f"latents are nearly antipodal (theta={theta:.6f}); slerp undefined")
        for l in range(L):
            out[l] = _arc_mix(zr.frames[l], zs.frames[l], betas[l], theta, eps)
    else:
        for l in range(L):
            theta = _frame_angle(zr.frames[l], zs.frames[l], f"frame {l}")
            if theta > np.pi - eps:
                raise ValueError(f"frame {l} latents are nearly antipodal (theta={theta:.6f}); slerp undefined")
            out[l] = _arc_mix(zr.frames[l], zs.frames[l], betas[l], theta, eps)
    return VideoLatent(out)


def uniform_fuse(zr: VideoLatent, zs: VideoLatent) -> VideoLatent:
    """Plain per-frame linear interpolation with the same beta schedule."""
    _check_pair(zr, zs)
    betas = beta_schedule(zr.frame_count)[:, None, None, None]
    return VideoLatent(zr.frames + betas * (zs.frames - zr.frames))
