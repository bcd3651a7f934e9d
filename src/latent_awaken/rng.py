"""Deterministic, label-separated random streams.

Every stochastic stage of the pipeline (score-distillation noise, the
re-noising draw, dataset synthesis, training batches, ...) pulls from its own
counter-based generator keyed by ``(seed, label)``.  Streams for different
labels are statistically independent, and adding or removing draws in one
stage never shifts the values seen by another.  This is what makes whole
pipeline runs reproducible bit-for-bit from a single integer seed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, label: str) -> np.random.Generator:
    """Return a fresh Philox generator for ``label`` under ``seed``.

    The Philox key is the first 128 bits of SHA-256 over ``"{seed}:{label}"``,
    so the mapping is stable across platforms and numpy versions.
    """
    digest = hashlib.sha256(f"{int(seed)}:{label}".encode()).digest()
    key = np.frombuffer(digest[:16], dtype="<u8")
    return np.random.Generator(np.random.Philox(key=key))

