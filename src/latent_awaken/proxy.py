"""Synthetic future-guidance images ("proxies") and their file formats.

A proxy is a second still image hinting where the subject should end up.
The built-in provider fabricates one procedurally: it rolls the input
pattern along the motion label's direction and mildly sharpens the contrast.
Externally produced proxies can be loaded from LTN1 tensors or 8-bit PGM
images instead; the pipeline only sees the provider interface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .diffusion import Condition, FrameLatent
from .motion import DIRECTIONS, MOTION_LABELS
from .numerics import LTN1_MAGIC, parse_ltn1, read_input


@dataclass(frozen=True)
class SyntheticProviderParams:
    """``motion_hint_strength`` scales both displacement and sharpening;
    0 disables the proxy transformation entirely."""

    motion_hint_strength: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.motion_hint_strength <= 1.0:
            raise ValueError(f"motion_hint_strength must be in [0, 1], got {self.motion_hint_strength}")


class ProxyProvider(Protocol):
    def synthesize(self, image: FrameLatent, cond: Condition) -> FrameLatent: ...


def max_displacement(height: int, width: int) -> int:
    """Largest hint displacement, a quarter of the smaller grid side."""
    return min(height, width) // 4


def synthesize_proxy(
    image: FrameLatent,
    cond: Condition,
    params: SyntheticProviderParams = SyntheticProviderParams(),
) -> FrameLatent:
    """Displace the pattern along the labeled direction and sharpen it.

    Displacement is ``round(strength * max_displacement)`` whole cells with
    toroidal wrap; labels without a direction (static, grow) displace by
    zero.  Sharpening scales values away from 0 by ``1 + 0.2 * strength``
    and clamps to [-1, 1], so strength 0 is an exact identity.
    """
    strength = params.motion_hint_strength

    grid = image.grid
    ux, uy = DIRECTIONS.get(MOTION_LABELS[cond.motion_label], (0.0, 0.0))
    cells = round(strength * max_displacement(grid.shape[1], grid.shape[2]))
    shifted = np.roll(grid, shift=(int(cells * uy), int(cells * ux)), axis=(1, 2))

    sharpened = np.clip(shifted * (1.0 + 0.2 * strength), -1.0, 1.0)
    return FrameLatent(sharpened)


@dataclass(frozen=True)
class SyntheticProvider:
    params: SyntheticProviderParams = SyntheticProviderParams()

    def synthesize(self, image: FrameLatent, cond: Condition) -> FrameLatent:
        return synthesize_proxy(image, cond, self.params)


@dataclass(frozen=True)
class FileProvider:
    """Serves a pre-rendered proxy from disk, ignoring the condition.  The
    file is read and validated once, when the provider is built."""

    path: str
    frame: FrameLatent = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "frame", load_proxy(self.path))

    def synthesize(self, image: FrameLatent, cond: Condition) -> FrameLatent:
        if self.frame.shape != image.shape:
            raise ValueError(f"proxy shape {self.frame.shape} does not match input image shape {image.shape}")
        return self.frame


def load_proxy(path, what: str = "proxy file") -> FrameLatent:
    """An image from an LTN1 tensor, rank 2 promoted to one channel, or an
    8-bit PGM file, told apart by their first bytes; ``what`` names the file."""
    raw = read_input(path, what)
    if raw[:4] != LTN1_MAGIC:
        return _parse_pgm(raw, path)
    arr = parse_ltn1(raw, path)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValueError(f"{what} must be a tensor of rank 2 or 3, got rank {arr.ndim}: {path}")
    return FrameLatent(arr)


# ---------------------------------------------------------------------------
# PGM (P5, 8-bit) — byte value v maps to latent 2v/255 - 1
# ---------------------------------------------------------------------------


def _parse_pgm(raw: bytes, path) -> FrameLatent:
    """The one-channel FrameLatent in ``raw``, the bytes of the 8-bit binary PGM file at ``path``."""
    # Header: "P5", whitespace/comments, width, height, maxval, single ws byte.
    header = re.match(rb"P5\s+(?:#.*\s+)*(\d+)\s+(?:#.*\s+)*(\d+)\s+(?:#.*\s+)*(\d+)\s", raw)
    if not header:
        raise ValueError(f"not a binary PGM (P5) file: {path}")
    width, height, maxval = (int(g) for g in header.groups())
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported (maxval 255), got {maxval}: {path}")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=header.end())
    if pixels.size < width * height:
        raise ValueError(f"truncated PGM payload: {path}")
    pixels = pixels[: width * height]
    grid = 2.0 * pixels.reshape(1, height, width).astype(np.float64) / 255.0 - 1.0
    return FrameLatent(grid)


def write_pgm(path, frame: FrameLatent) -> None:
    """Write the first channel of a FrameLatent as a binary 8-bit PGM."""
    grid = frame.grid[0]
    bytes_ = np.clip(np.rint((grid + 1.0) / 2.0 * 255.0), 0, 255).astype(np.uint8)
    height, width = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode())
        fh.write(bytes_.tobytes())
