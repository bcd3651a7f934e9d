"""The motion vocabulary: label names, their ids and directions, and the
toroidal displacement that moving patterns and motion estimates share.

A condition's ``motion_label`` indexes ``MOTION_LABELS``; ``Condition``
refuses any other id when it is made.  The proxy, the metrics and the toy
model all read labels from here, so the method modules need not load the
toy model.
"""

from __future__ import annotations

MOTION_LABELS = ("static", "right", "left", "up", "down", "grow")

# (dx, dy) in grid cells per unit velocity; y grows downward.
DIRECTIONS = {
    "right": (1.0, 0.0),
    "left": (-1.0, 0.0),
    "up": (0.0, -1.0),
    "down": (0.0, 1.0),
}


def label_id(name: str) -> int:
    try:
        return MOTION_LABELS.index(name)
    except ValueError:
        raise ValueError(f"unknown motion label {name!r}; known: {MOTION_LABELS}") from None


def wrapped_delta(coords, center, period: int):
    """Signed shortest toroidal displacement from ``center`` to ``coords``."""
    return (coords - center + period / 2.0) % period - period / 2.0
