"""Experiment configuration: a flat ``section.key = value`` text format.

Every knob has a default, every provided key is validated before any compute
starts, and the effective (defaults-merged) configuration has a canonical
serialization whose SHA-256 is stamped into all artifacts, so any output can
be traced back to the exact settings that produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .diffusion import NoiseSchedule
from .fusion import AngleScope, FusionConfig
from .pipeline import PipelineVariant, parse_variant
from .proxy import SyntheticProviderParams
from .toydenoiser import DatasetParams
from .vsds import VsdsConfig, WeightCurve, parse_curve_kind


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_words(text: str) -> tuple[str, ...]:
    words = tuple(w.strip() for w in text.split(",") if w.strip())
    if not words:
        raise ValueError("expected a comma-separated list")
    return words


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(w) for w in _parse_words(text))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(w) for w in _parse_words(text))


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
    "dataset.velocities": ((1.0,), _parse_floats),
    "dataset.blob_sigma": ((1.6, 2.6), _parse_floats),
    "dataset.square_half": ((1, 2), _parse_ints),
    "dataset.grow_rate": (0.06, float),
    "schedule.steps": (1000, int),
    "schedule.beta_start": (1e-4, float),
    "schedule.beta_end": (0.02, float),
    "denoiser.hidden": (128, int),
    "denoiser.t_embed": (16, int),
    "train.epochs": (10, int),
    "train.lr": (0.5, float),
    "train.batch": (8, int),
    "vsds.p": (0.6, float),
    "vsds.curve": ("SD", str),
    "vsds.w_hi": (2.0, float),
    "vsds.w_lo": (1.0, float),
    "vsds.omega": ("one_minus_alpha_bar", str),
    "vsds.shared_noise": (False, _parse_bool),
    "fusion.angle_scope": ("global", str),
    "fusion.epsilon_theta": (1e-6, float),
    "proxy.strength": (0.5, float),
    "pipeline.variants": (("Baseline", "V", "S", "VU", "VS"), _parse_words),
    "pipeline.resume_from": ("tau", str),
    "ablate.sweep": ("variants", str),
    "ablate.p_grid": ((0.2, 0.4, 0.6, 0.8, 1.0), _parse_floats),
    "ablate.curve_grid": (("LD", "SD", "SI", "LI"), _parse_words),
}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
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
    @property
    def seed(self) -> int:
        return self.values["seed"]

    def dataset_params(self) -> DatasetParams:
        v = self.values
        return DatasetParams(
            channels=v["dataset.channels"],
            height=v["dataset.height"],
            width=v["dataset.width"],
            frames=v["dataset.frames"],
            shapes=v["dataset.shapes"],
            labels=v["dataset.labels"],
            velocities=v["dataset.velocities"],
            blob_sigma=tuple(v["dataset.blob_sigma"]),
            square_half=v["dataset.square_half"],
            grow_rate=v["dataset.grow_rate"],
        )

    def schedule(self) -> NoiseSchedule:
        v = self.values
        return NoiseSchedule.linear(v["schedule.steps"], v["schedule.beta_start"], v["schedule.beta_end"])

    def vsds_config(self) -> VsdsConfig:
        v = self.values
        curve = WeightCurve(parse_curve_kind(v["vsds.curve"]), w_hi=v["vsds.w_hi"], w_lo=v["vsds.w_lo"])
        return VsdsConfig(
            p=v["vsds.p"],
            curve=curve,
            omega_mode=v["vsds.omega"],
            seed=self.seed,
            shared_noise=v["vsds.shared_noise"],
        )

    def fusion_config(self) -> FusionConfig:
        v = self.values
        scope = AngleScope(v["fusion.angle_scope"].strip().lower())
        return FusionConfig(angle_scope=scope, epsilon_theta=v["fusion.epsilon_theta"])

    def proxy_params(self) -> SyntheticProviderParams:
        return SyntheticProviderParams(motion_hint_strength=self.values["proxy.strength"])

    def variants(self) -> list[PipelineVariant]:
        return [parse_variant(name) for name in self.values["pipeline.variants"]]

    @property
    def resume_from(self) -> str:
        return self.values["pipeline.resume_from"]


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
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())


def _validate(cfg: ExperimentConfig) -> None:
    """Cross-field validation; every failure names its key."""
    v = cfg.values
    if v["dataset.frames"] < 2:
        raise ConfigError("config key 'dataset.frames': must be >= 2 for video generation")
    if v["dataset.n"] < 1:
        raise ConfigError("config key 'dataset.n': must be >= 1")
    if not 0.0 < v["vsds.p"] <= 1.0:
        raise ConfigError(f"config key 'vsds.p': must be in (0, 1], got {v['vsds.p']}")
    if v["pipeline.resume_from"] not in ("tau", "T"):
        raise ConfigError(f"config key 'pipeline.resume_from': must be 'tau' or 'T', got {v['pipeline.resume_from']!r}")
    if v["ablate.sweep"] not in ("variants", "curves", "p"):
        raise ConfigError(f"config key 'ablate.sweep': must be one of variants, curves, p, got {v['ablate.sweep']!r}")
    if v["train.epochs"] < 1 or v["train.batch"] < 1:
        raise ConfigError("config key 'train.epochs'/'train.batch': must be >= 1")
    if v["train.lr"] <= 0:
        raise ConfigError(f"config key 'train.lr': must be positive, got {v['train.lr']}")
    checks = [
        ("dataset.*", cfg.dataset_params),
        ("schedule.*", cfg.schedule),
        ("vsds.*", cfg.vsds_config),
        ("fusion.*", cfg.fusion_config),
        ("proxy.strength", cfg.proxy_params),
        ("pipeline.variants", cfg.variants),
    ]
    for key, build in checks:
        try:
            build()
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    for name in v["ablate.curve_grid"]:
        try:
            parse_curve_kind(name)
        except ValueError as exc:
            raise ConfigError(f"config key 'ablate.curve_grid': {exc}") from exc
    for p in v["ablate.p_grid"]:
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"config key 'ablate.p_grid': p values must be in (0, 1], got {p}")


def with_overrides(cfg: ExperimentConfig, **dotted) -> ExperimentConfig:
    """Return a copy with ``dotted`` keys (dots as double underscores) replaced."""
    values = dict(cfg.values)
    for key, value in dotted.items():
        dotkey = key.replace("__", ".")
        if dotkey not in _SCHEMA:
            raise ConfigError(f"unknown config key {dotkey!r}")
        values[dotkey] = value
    out = ExperimentConfig(values)
    _validate(out)
    return out
