"""Denoising-diffusion plumbing: latent containers, noise schedule, forward
noising and the variance-zeroed reverse pass.

The latent space is pixel-shaped (there is no codec): a frame latent is a
(C, H, W) grid in roughly [-1, 1], a video latent stacks L of them.  All
containers are immutable and finite by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np


def _frozen_array(x, ndim: int, name: str) -> np.ndarray:
    arr = np.array(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FrameLatent:
    """A single (C, H, W) latent frame."""

    grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", _frozen_array(self.grid, 3, "grid"))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.grid.shape


@dataclass(frozen=True, eq=False)
class VideoLatent:
    """An (L, C, H, W) stack of latent frames."""

    frames: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frames", _frozen_array(self.frames, 4, "frames"))
        if self.frames.shape[0] < 1:
            raise ValueError("video must have at least one frame")

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_shape(self) -> tuple[int, int, int]:
        return self.frames.shape[1:]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.frames.shape

    def frame(self, l: int) -> FrameLatent:
        return FrameLatent(self.frames[l])


@dataclass(frozen=True, eq=False)
class Condition:
    """Generation conditioning: the input image plus a motion-label id."""

    image: FrameLatent
    motion_label: int

    def __post_init__(self):
        if self.motion_label < 0:
            raise ValueError(f"motion_label must be >= 0, got {self.motion_label}")


class Denoiser(Protocol):
    """Anything that predicts the noise component of a noised video latent.

    ``frames`` is the clip length it denoises; ``pipeline.animate`` builds
    its static clips from it.  ``predict_noise`` may be called from two
    threads at once, with different conditions: ``vsds.dual_path_refine``
    runs its real and proxy paths concurrently.  It must not mutate its
    inputs, and what it returns must not depend on the calls of the other
    thread.
    """

    frames: int

    def predict_noise(self, z_t: VideoLatent, cond: Condition, t: int) -> VideoLatent: ...


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Variance schedule for a T-step diffusion.

    ``betas[i]`` is the variance added at step ``t = i + 1``; ``alpha_bars``
    is the running product of ``1 - beta``.  Valid schedules keep every beta
    in (0, 0.999], have strictly decreasing ``alpha_bar`` and end nearly
    noise-free of signal (``alpha_bar(T) < 0.01``).
    """

    betas: np.ndarray
    alphas: np.ndarray = field(init=False)
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.array(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("betas must be a non-empty 1-d array")
        if not np.isfinite(betas).all():
            raise ValueError("betas contain non-finite values")
        if (betas <= 0.0).any() or (betas > 0.999).any():
            raise ValueError("betas must lie in (0, 0.999]")
        alphas = 1.0 - betas
        alpha_bars = np.cumprod(alphas)
        if not (np.diff(alpha_bars) < 0.0).all():
            raise ValueError("alpha_bar must be strictly decreasing")
        if alpha_bars[-1] >= 0.01:
            raise ValueError(
                f"terminal alpha_bar must be < 0.01, got {alpha_bars[-1]:.4f}; "
                "increase T or the beta range"
            )
        for name, arr in (("betas", betas), ("alphas", alphas), ("alpha_bars", alpha_bars)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def linear(cls, steps: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02) -> "NoiseSchedule":
        if steps < 1:
            raise ValueError("steps must be >= 1")
        return cls(np.linspace(beta_start, beta_end, steps))

    @property
    def steps(self) -> int:
        return self.betas.size

    def _check_t(self, t: int, low: int = 1) -> int:
        t = int(t)
        if not low <= t <= self.steps:
            raise ValueError(f"t={t} outside [{low}, {self.steps}]")
        return t

    def beta(self, t: int) -> float:
        return float(self.betas[self._check_t(t) - 1])

    def alpha(self, t: int) -> float:
        return float(self.alphas[self._check_t(t) - 1])

    def alpha_bar(self, t: int) -> float:
        t = self._check_t(t, low=0)
        return 1.0 if t == 0 else float(self.alpha_bars[t - 1])


def replicate_static(image: FrameLatent, frame_count: int) -> VideoLatent:
    """Tile one frame into a motionless video latent."""
    if frame_count < 1:
        raise ValueError("frame_count must be >= 1")
    return VideoLatent(np.broadcast_to(image.grid, (frame_count, *image.shape)))


def forward_noise(z0: VideoLatent, t: int, eps: np.ndarray, sched: NoiseSchedule) -> VideoLatent:
    """Closed-form forward process: sqrt(ab_t) z0 + sqrt(1 - ab_t) eps."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != z0.shape:
        raise ValueError(f"noise shape {eps.shape} != latent shape {z0.shape}")
    ab = sched.alpha_bar(sched._check_t(t))
    return VideoLatent(np.sqrt(ab) * z0.frames + np.sqrt(1.0 - ab) * eps)


def reverse_sample(
    z_start: VideoLatent,
    t_start: int,
    cond: Condition,
    denoiser: Denoiser,
    sched: NoiseSchedule,
) -> VideoLatent:
    """Variance-zeroed reverse pass from noise level ``t_start`` to a clean latent.

    Each step replaces z_t with the posterior mean of z_{t-1} given the
    predicted noise and re-injects nothing, so the trajectory is a pure
    function of the denoiser.  ``t_start = 0`` returns the input unchanged
    (already clean).
    """
    t_start = int(t_start)
    if not 0 <= t_start <= sched.steps:
        raise ValueError(f"t_start={t_start} outside [0, {sched.steps}]")
    if t_start == 0:
        return z_start

    z = z_start.frames
    shape = z_start.shape
    for t in range(t_start, 0, -1):
        pred = denoiser.predict_noise(VideoLatent(z), cond, t)
        if pred.shape != shape:
            raise ValueError(f"denoiser returned shape {pred.shape}, expected {shape}")
        beta = sched.beta(t)
        z = (z - beta / np.sqrt(1.0 - sched.alpha_bar(t)) * pred.frames) / np.sqrt(sched.alpha(t))
        if not np.isfinite(z).all():
            raise ValueError(f"reverse sampling diverged at step t={t}")
    return VideoLatent(z)
