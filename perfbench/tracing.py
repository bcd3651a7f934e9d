"""Spans around the calls into latent_awaken's layers, recorded from outside.

The package has no tracing of its own, so the traced run wraps the names
that the pipeline modules call through (module attributes that are looked
up at call time) plus a ``Denoiser`` and a ``ProxyProvider`` wrapper.  Each
call becomes a span ``[name, start, end, parent, item]`` kept in memory; the
spans are written out once the run ends.  A span's self time is its
duration minus the durations of its direct children.  The run is single
threaded (``run_ablation(threads=1)``), so spans nest strictly.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

from latent_awaken import metrics, pipeline, vsds

# (module, attribute the pipeline calls through, layer name).  Several sites
# may feed one layer: the pipeline re-noises through ``noise_to_level``
# today and may call ``forward_noise`` directly once the alias is gone.
CALL_SITES = (
    (pipeline, "animate", "pipeline.animate"),
    (pipeline, "run_ablation", "pipeline.run_ablation"),
    (pipeline, "dual_path_refine", "vsds.dual_path_refine"),
    (pipeline, "vsds_refine", "vsds.vsds_refine"),
    (pipeline, "reverse_sample", "diffusion.reverse_sample"),
    (pipeline, "slerp_fuse", "fusion.slerp_fuse"),
    (pipeline, "uniform_fuse", "fusion.uniform_fuse"),
    (pipeline, "noise_to_level", "diffusion.forward_noise"),
    (pipeline, "forward_noise", "diffusion.forward_noise"),
    (vsds, "forward_noise", "diffusion.forward_noise"),
    (metrics, "video_features", "metrics.video_features"),
    (metrics, "frechet_distance", "metrics.frechet_distance"),
    (metrics, "linearity_score", "metrics.linearity_score"),
    (metrics, "alignment_score", "metrics.alignment_score"),
)
PREDICT = "toydenoiser.predict_noise"
SYNTHESIZE = "proxy.synthesize"
# Hashing denoiser inputs is the tracer's own work; as a span of its own it
# is subtracted from its parent's self time and belongs to no layer.
DIGEST = "trace.input_digest"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self.digests: list[tuple[object, bytes]] = []
        self.item = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()

        return traced

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path, header: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, item in self.spans:
                row = {"name": name, "start": start - t0, "end": end - t0, "parent": parent, "item": item}
                fh.write(json.dumps(row) + "\n")


def _input_digest(z_t, cond, t) -> bytes:
    h = hashlib.sha1()
    h.update(z_t.frames.tobytes())
    h.update(cond.image.grid.tobytes())
    h.update(f"{cond.motion_label}:{int(t)}".encode())
    return h.digest()


class TracedDenoiser:
    """Satisfies the ``Denoiser`` protocol; records each call and its input."""

    def __init__(self, inner, tracer: Tracer):
        self.frames = inner.frames
        self._tracer = tracer
        self._digest = tracer.wrap(DIGEST, _input_digest)
        self._predict = tracer.wrap(PREDICT, inner.predict_noise)

    def predict_noise(self, z_t, cond, t):
        self._tracer.digests.append((self._tracer.item, self._digest(z_t, cond, t)))
        return self._predict(z_t, cond, t)


class TracedProvider:
    """Satisfies the ``ProxyProvider`` protocol."""

    def __init__(self, inner, tracer: Tracer):
        self.synthesize = tracer.wrap(SYNTHESIZE, inner.synthesize)


@contextmanager
def patched(tracer: Tracer):
    """Wrap every call site that exists; yield the layers found at no site.

    A layer whose names were all removed from the package is reported as
    unmeasured instead of failing the run.  Originals are restored on exit.
    """
    saved = []
    found = set()
    try:
        for module, attr, layer in CALL_SITES:
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(layer, original))
                found.add(layer)
        yield sorted({layer for _, _, layer in CALL_SITES} - found)
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@contextmanager
def traced(workload, tracer: Tracer):
    """``patched``, plus the workload's denoiser and provider (train has
    neither) swapped for traced wrappers while the context lasts."""
    plain = getattr(workload, "denoiser", None), getattr(workload, "provider", None)
    if plain[0] is not None:
        workload.denoiser = TracedDenoiser(plain[0], tracer)
        workload.provider = TracedProvider(plain[1], tracer)
    try:
        with patched(tracer) as unmeasured:
            yield unmeasured
    finally:
        if plain[0] is not None:
            workload.denoiser, workload.provider = plain


# Per-layer metrics: name -> unit.  ``*_per_item`` and the ``metrics.*`` /
# ``pipeline.run_ablation`` self times are divided by the items the traced
# phase completed (animate: one VS run; ablate: one item through all five
# variants plus scoring; train: one epoch).
LAYER_METRICS = {
    "toydenoiser.predict_noise.calls_per_item": "count",
    "toydenoiser.predict_noise.unique_input_ratio": "ratio",
    "toydenoiser.predict_noise.us_per_call_p50": "us",
    "toydenoiser.predict_noise.self_ms_per_item": "ms",
    "vsds.dual_path_refine.self_ms_per_item": "ms",
    "vsds.vsds_refine.self_ms_per_item": "ms",
    "diffusion.forward_noise.calls_per_item": "count",
    "diffusion.forward_noise.self_us_per_call": "us",
    "diffusion.reverse_sample.self_ms_per_item": "ms",
    "fusion.slerp_fuse.self_ms_per_item": "ms",
    "fusion.uniform_fuse.self_ms_per_item": "ms",
    "proxy.synthesize.self_ms_per_item": "ms",
    "metrics.video_features.self_ms": "ms",
    "metrics.frechet_distance.self_ms": "ms",
    "metrics.linearity_score.self_ms": "ms",
    "metrics.alignment_score.self_ms": "ms",
    "pipeline.animate.self_ms_per_item": "ms",
    "pipeline.run_ablation.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, items: int, overhead_ratio: float, unmeasured: list[str]) -> dict:
    """Derive every per-layer metric from the recorded spans.

    A metric whose layer was found at no call site is left out.
    """
    own = tracer.self_times()
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    predict_us = []
    for (name, start, end, _, _), s in zip(tracer.spans, own):
        self_s[name] = self_s.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        if name == PREDICT:
            predict_us.append((end - start) * 1e6)

    # Distinct inputs are counted within one operation (one animate run or
    # one run_ablation batch): that is the work stage sharing could skip.
    distinct = len(set(tracer.digests))
    n_predict = calls.get(PREDICT, 0)
    n_noise = calls.get("diffusion.forward_noise", 0)

    def per_item_ms(layer):
        return self_s.get(layer, 0.0) * 1e3 / items

    values = {
        "toydenoiser.predict_noise.calls_per_item": n_predict / items,
        "toydenoiser.predict_noise.unique_input_ratio": distinct / n_predict if n_predict else 0.0,
        "toydenoiser.predict_noise.us_per_call_p50": statistics.median(predict_us) if predict_us else 0.0,
        "diffusion.forward_noise.calls_per_item": n_noise / items,
        "diffusion.forward_noise.self_us_per_call": (
            self_s["diffusion.forward_noise"] * 1e6 / n_noise if n_noise else 0.0
        ),
        "trace.overhead_ratio": overhead_ratio,
    }
    for metric in LAYER_METRICS:
        if metric not in values:
            layer = metric.rsplit(".", 1)[0]
            values[metric] = per_item_ms(layer)
    gone = set(unmeasured)
    return {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit in LAYER_METRICS.items()
        if metric.rsplit(".", 1)[0] not in gone
    }
