"""Experiment configuration: a flat ``section.key = value`` text format.

Every knob has a default, every provided key is validated before any compute
starts, and the effective (defaults-merged) configuration has a canonical
serialization whose SHA-256 is stamped into all artifacts, so any output can
be traced back to the exact settings that produced it.  This module is the
only place where settings text becomes values and values become text again:
enum names are matched ignoring case and written back as the enum's value.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import suppress
from dataclasses import dataclass, fields
from enum import Enum

from .diffusion import NoiseSchedule
from .fusion import FusionConfig
from .numerics import read_input
from .pipeline import PipelineVariant, ablation_runs
from .proxy import SyntheticProviderParams
from .toydenoiser import DatasetParams, dims_problem
from .vsds import CurveKind, VsdsConfig, WeightCurve


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key."""


def _parse_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {text!r}")
    return x


def _parse_words(text: str) -> tuple[str, ...]:
    words = tuple(w.strip() for w in text.split(",") if w.strip())
    if not words:
        raise ValueError("expected a comma-separated list")
    return words


def _list_of(parse_item):
    return lambda text: tuple(parse_item(w) for w in _parse_words(text))


def _grid_of(parse_item):
    """A list of rows: each value once, in the order first listed."""
    return lambda text: tuple(dict.fromkeys(_list_of(parse_item)(text)))


# What each enum's values are called in error messages.
_ENUM_KINDS = {CurveKind: "weight curve", PipelineVariant: "pipeline variant"}


def parse_enum(kind: type[Enum], text: str) -> Enum:
    """Match one of ``kind``'s values, ignoring case and surrounding spaces."""
    key = text.strip().lower()
    for member in kind:
        if member.value.lower() == key:
            return member
    raise ValueError(f"unknown {_ENUM_KINDS[kind]} {text!r}; known: {', '.join(m.value for m in kind)}")


def _parse_row(text: str):
    """One ``ablate.rows`` entry: a pipeline variant, a weight curve or a stop fraction p."""
    for kind in (PipelineVariant, CurveKind):
        with suppress(ValueError):
            return parse_enum(kind, text)
    with suppress(ValueError):
        return _parse_float(text)
    known = ", ".join(m.value for kind in (PipelineVariant, CurveKind) for m in kind)
    raise ValueError(f"{text!r} is not a pipeline variant, a weight curve or a stop fraction p; known: {known}")


# key -> (default value, parser). The parser receives the raw string.
_SCHEMA: dict[str, tuple] = {
    "seed": (42, int),
    "dataset.n": (256, int),
    "dataset.channels": (1, int),
    "dataset.height": (16, int),
    "dataset.width": (16, int),
    "dataset.frames": (16, int),
    "dataset.shapes": (("blob", "square"), _parse_words),
    "dataset.labels": (("static", "right", "left", "up", "down", "grow"), _parse_words),
    "dataset.velocities": ((1.0,), _list_of(_parse_float)),
    "dataset.blob_sigma": ((1.6, 2.6), _list_of(_parse_float)),
    "dataset.square_half": ((1, 2), _list_of(int)),
    "dataset.grow_rate": (0.06, _parse_float),
    "schedule.steps": (1000, int),
    "schedule.beta_start": (1e-4, _parse_float),
    "schedule.beta_end": (0.02, _parse_float),
    "denoiser.hidden": (128, int),
    "denoiser.t_embed": (16, int),
    "train.epochs": (10, int),
    "train.lr": (0.5, _parse_float),
    "train.batch": (8, int),
    "vsds.p": (0.6, _parse_float),
    "vsds.curve": (CurveKind.STEPWISE_DECREASING, lambda text: parse_enum(CurveKind, text)),
    "vsds.w_hi": (2.0, _parse_float),
    "vsds.w_lo": (1.0, _parse_float),
    "fusion.epsilon_theta": (1e-6, _parse_float),
    "proxy.strength": (0.5, _parse_float),
    "ablate.rows": (tuple(PipelineVariant), _grid_of(_parse_row)),
}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    return str(value)


@dataclass(eq=False)
class ExperimentConfig:
    """Validated, defaults-merged experiment settings."""

    values: dict

    # -- raw access -------------------------------------------------------
    def __getitem__(self, key: str):
        return self.values[key]

    def canonical(self) -> str:
        return "\n".join(f"{k} = {_format_value(self.values[k])}" for k in sorted(self.values)) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    # -- typed views ------------------------------------------------------
    def dataset_params(self) -> DatasetParams:
        return DatasetParams(**{f.name: self.values[f"dataset.{f.name}"] for f in fields(DatasetParams)})

    def schedule(self) -> NoiseSchedule:
        v = self.values
        return NoiseSchedule.linear(v["schedule.steps"], v["schedule.beta_start"], v["schedule.beta_end"])

    def vsds_config(self) -> VsdsConfig:
        v = self.values
        curve = WeightCurve(v["vsds.curve"], w_hi=v["vsds.w_hi"], w_lo=v["vsds.w_lo"])
        return VsdsConfig(p=v["vsds.p"], curve=curve)

    def fusion_config(self) -> FusionConfig:
        return FusionConfig(epsilon_theta=self.values["fusion.epsilon_theta"])

    def proxy_params(self) -> SyntheticProviderParams:
        return SyntheticProviderParams(motion_hint_strength=self.values["proxy.strength"])


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines; ``#`` starts a comment, blanks ignored."""
    values = dict({k: d for k, (d, _) in _SCHEMA.items()})
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip().lower()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        seen.add(key)
        _, parser = _SCHEMA[key]
        try:
            values[key] = parser(raw_value.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    cfg = ExperimentConfig(values)
    _validate(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    """Parse the config file at ``path``; a refusal names the file."""
    try:
        raw = read_input(path, "config file")
    except (FileNotFoundError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    try:
        return parse_config(raw.decode())
    except ValueError as exc:  # not UTF-8, or a refused line or value
        raise ConfigError(f"config file {path}: {exc}") from exc


def _validate(cfg: ExperimentConfig) -> None:
    """Cross-field validation; every failure names its key."""
    v = cfg.values
    if v["dataset.frames"] < 2:
        raise ConfigError("config key 'dataset.frames': must be >= 2 for video generation")
    if v["dataset.n"] < 1:
        raise ConfigError("config key 'dataset.n': must be >= 1")
    problem = dims_problem(v["denoiser.hidden"], v["denoiser.t_embed"])
    if problem:
        raise ConfigError("config key 'denoiser.{}': {}".format(*problem))
    for key in ("train.epochs", "train.batch"):
        if v[key] < 1:
            raise ConfigError(f"config key {key!r}: must be >= 1, got {v[key]}")
    if not v["train.lr"] > 0:
        raise ConfigError(f"config key 'train.lr': must be positive, got {v['train.lr']}")
    checks = [
        ("dataset.*", cfg.dataset_params),
        ("schedule.*", cfg.schedule),
        ("vsds.*", cfg.vsds_config),
        ("fusion.*", cfg.fusion_config),
        ("proxy.strength", cfg.proxy_params),
        ("ablate.rows", lambda: ablation_runs(v["ablate.rows"], cfg.vsds_config())),
    ]
    for key, build in checks:
        try:
            build()
        except ValueError as exc:
            # A refusal that opens with a field's name concerns that key alone.
            field_key = key.replace("*", str(exc).split(" ", 1)[0])
            if field_key in v:
                key = field_key
            raise ConfigError(f"config key {key!r}: {exc}") from exc
