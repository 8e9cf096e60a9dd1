"""Flat `key = value` configuration files with fixed sections.

Sections are [model], [train], [data], [text], and [metrics]; unknown
sections or keys are rejected by name. Every key has a documented default,
so an empty file is a complete configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import GeneratorConfig
from .errors import ConfigError
from .model import ALL_COMPONENTS, COMPONENT_ORDER, TrainConfig
from .text import EncoderConfig

__all__ = ["ParsedConfig", "parse_config", "parse_config_text", "render_model_config"]

_MODEL_KEYS = {
    "d": int,
    "n": int,
    "n_prime": int,
    "layers": int,
    "blocks": int,
    "heads": int,
    "window": int,
    "horizon": int,
    "day_slots": int,
    "pooling": str,
    "components": str,
    "features": int,
}
_TRAIN_KEYS = {
    "lr": float,
    "lambda_prompt": float,
    "ema_lambda": float,
    "clip_norm": float,
    "epochs_stage1": int,
    "epochs_stage2": int,
    "batch_size": int,
    "seed": int,
}
_DATA_KEYS = {
    "regions": int,
    "days": int,
    "slots_per_day": int,
    "base_demand": float,
    "daily_amp": float,
    "weekly_amp": float,
    "noise_sigma": float,
    "event_rate": float,
    "event_amp_lo": float,
    "event_amp_hi": float,
    "text_mode": str,
    "seed": int,
}
_TEXT_KEYS = {"encoder": str, "embedding_file": str}
_METRIC_KEYS = {"mape_floor": float}
_SECTIONS = {
    "model": _MODEL_KEYS,
    "train": _TRAIN_KEYS,
    "data": _DATA_KEYS,
    "text": _TEXT_KEYS,
    "metrics": _METRIC_KEYS,
}


@dataclass
class ParsedConfig:
    train: TrainConfig
    data: GeneratorConfig
    components: frozenset[str]
    features: int
    encoder: EncoderConfig
    mape_floor: float
    explicit: frozenset[str] = frozenset()  # "section.key" pairs present in the file

    def was_set(self, section: str, key: str) -> bool:
        return f"{section}.{key}" in self.explicit


def _parse_components(raw: str) -> frozenset[str]:
    text = raw.strip().lower()
    if text in ("", "none"):
        return frozenset()
    if text == "all":
        return frozenset(ALL_COMPONENTS)
    parts = [p.strip() for p in text.split(",") if p.strip()]
    unknown = set(parts) - ALL_COMPONENTS
    if unknown:
        raise ConfigError(f"unknown components: {sorted(unknown)}")
    return frozenset(parts)


def _typed(section: str, key: str, raw: str):
    table = _SECTIONS[section]
    if key not in table:
        raise ConfigError(f"unknown key {section}.{key}")
    kind = table[key]
    if kind is str:
        return raw
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: expected {kind.__name__}, got {raw!r}") from exc
    # NaN passes every range check, since each comparison with it is false
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: expected a finite number, got {raw!r}")
    return value


def parse_config_text(text: str) -> ParsedConfig:
    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    section: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw_line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        values[section][key] = _typed(section, key, raw_value)

    explicit = frozenset(f"{section}.{key}" for section, table in values.items() for key in table)
    model_vals = dict(values["model"])
    train_vals = dict(values["train"])
    data_vals = dict(values["data"])
    components = _parse_components(str(model_vals.pop("components", "all")))
    features = int(model_vals.pop("features", 5))
    if features < 1:
        raise ConfigError(f"model.features must be positive, got {features}")
    data = GeneratorConfig(**data_vals)
    # the time-of-day table follows the data granularity unless pinned
    if "day_slots" not in model_vals:
        model_vals["day_slots"] = data.slots_per_day
    train = TrainConfig(**model_vals, **train_vals)
    encoder_mode = str(values["text"].get("encoder", "hashed"))
    if encoder_mode not in ("hashed", "file"):
        raise ConfigError(f"text.encoder must be 'hashed' or 'file', got {encoder_mode!r}")
    embedding_file = values["text"].get("embedding_file")
    if encoder_mode == "file" and not embedding_file:
        raise ConfigError("text.encoder = file requires text.embedding_file")
    mape_floor = float(values["metrics"].get("mape_floor", 1.0))
    if mape_floor <= 0:
        raise ConfigError(f"metrics.mape_floor must be positive, got {mape_floor}")
    return ParsedConfig(
        train=train,
        data=data,
        components=components,
        features=features,
        encoder=EncoderConfig(str(embedding_file) if encoder_mode == "file" else None),
        mape_floor=mape_floor,
        explicit=explicit,
    )


def parse_config(path) -> ParsedConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def render_model_config(config: TrainConfig, components: frozenset[str], features: int,
                        embedding_file: str | None = None) -> str:
    """Canonical [model]/[train]/[text] text embedded in saved model files; [text] names ``embedding_file``."""
    ordered = [name for name in COMPONENT_ORDER if name in components]
    lines = [
        "[model]",
        f"d = {config.d}",
        f"n = {config.n}",
        f"n_prime = {config.n_prime}",
        f"layers = {config.layers}",
        f"blocks = {config.blocks}",
        f"heads = {config.heads}",
        f"window = {config.window}",
        f"horizon = {config.horizon}",
        f"day_slots = {config.day_slots}",
        f"pooling = {config.pooling}",
        f"components = {','.join(ordered) if ordered else 'none'}",
        f"features = {features}",
        "[train]",
        f"lr = {config.lr!r}",
        f"lambda_prompt = {config.lambda_prompt!r}",
        f"ema_lambda = {config.ema_lambda!r}",
        f"clip_norm = {config.clip_norm!r}",
        f"epochs_stage1 = {config.epochs_stage1}",
        f"epochs_stage2 = {config.epochs_stage2}",
        f"batch_size = {config.batch_size}",
        f"seed = {config.seed}",
        "[text]",
        f"encoder = {'hashed' if embedding_file is None else 'file'}",
    ]
    if embedding_file is not None:
        if "#" in embedding_file or embedding_file.strip() != embedding_file or len(embedding_file.splitlines()) != 1:
            raise ConfigError(f"text.embedding_file {embedding_file!r} cannot be written as a config value")
        lines.append(f"embedding_file = {embedding_file}")
    return "\n".join(lines) + "\n"
