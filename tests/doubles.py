"""Test doubles and vector helpers shared by several test modules.

The denoiser doubles expose ``frames`` and ``predict_noise`` like a real
model.  The ones that keep state guard it with a lock, because ``VS`` and
``VU`` call one denoiser from two threads at once, and ``run_ablation``
calls it from at least two pool threads for any variant list.
"""

from __future__ import annotations

import threading

import numpy as np

from latent_awaken.diffusion import VideoLatent
from latent_awaken.proxy import synthesize_proxy

# Frame shape of the videos the vector helpers build, and its flat length.
FRAME_SHAPE = (1, 4, 4)
DIM = 16


def unit_pair(gen, theta):
    """Two unit vectors with an exact angle theta between them."""
    u = gen.standard_normal(DIM)
    u /= np.linalg.norm(u)
    w = gen.standard_normal(DIM)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    return u, np.cos(theta) * u + np.sin(theta) * w


def tiled_video(vec, frames=3):
    """A video whose every frame is ``vec`` reshaped to FRAME_SHAPE."""
    frame = np.asarray(vec, dtype=np.float64).reshape(FRAME_SHAPE)
    return VideoLatent(np.stack([frame] * frames))


class ZeroDenoiser:
    """Predicts zero noise; every refinement step then pushes the latent by
    +alpha*omega*eps."""

    def __init__(self, frames):
        self.frames = frames

    def predict_noise(self, z_t, cond, t):
        return VideoLatent(np.zeros_like(z_t.frames))


class EchoOracle:
    """Predicts exactly the given noise tensor — the refinement fixed point."""

    def __init__(self, eps, frames):
        self.eps = eps
        self.frames = frames
        self.calls = 0
        self._lock = threading.Lock()

    def predict_noise(self, z_t, cond, t):
        with self._lock:
            self.calls += 1
        return VideoLatent(self.eps.copy())


class ThreadLog(ZeroDenoiser):
    """Records the thread of every call."""

    def __init__(self, frames):
        super().__init__(frames)
        self.threads = set()
        self._lock = threading.Lock()

    def predict_noise(self, z_t, cond, t):
        with self._lock:
            self.threads.add(threading.get_ident())
        return super().predict_noise(z_t, cond, t)


class CountingGen(np.random.Generator):
    """Generator that counts standard_normal draws without changing them."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.draws = 0

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        return super().standard_normal(*args, **kwargs)


class IdentityProvider:
    """A proxy provider whose proxy is the input image itself."""

    def synthesize(self, image, cond):
        return image


class RefusingProvider:
    """A proxy provider that raises for the conditions it was given, by
    identity, and makes the default synthetic proxy for any other."""

    def __init__(self, *refused):
        self.refused = refused

    def synthesize(self, image, cond):
        if any(cond is c for c in self.refused):
            raise ValueError("refused proxy")
        return synthesize_proxy(image, cond)
