"""Flat `key = value` configuration files with fixed sections.

Sections are [model], [train], [data] and [text]; unknown sections or
keys are rejected by name, and so is a key set twice, even under two
headers of its section. Every key has a documented default, so an empty
file is a complete configuration.

The keys of [model], [train] and [data] are the fields of ``TrainConfig``
and ``GeneratorConfig``, each typed as its default value: the ``TrainConfig``
fields named in ``_MODEL_FIELDS`` go under [model], every other one under
[train], and [model] adds ``components``. A field added to either dataclass
is therefore parsed, and written into model files, with no edit here.
[text] has one key, ``embedding_file``; text is hashed when it is left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .data import GeneratorConfig, open_utf8
from .errors import ConfigError
from .model import ALL_COMPONENTS, COMPONENT_ORDER, TrainConfig
from .text import EncoderConfig

__all__ = ["ParsedConfig", "parse_config", "parse_config_text", "render_model_config"]

# the TrainConfig fields written under [model], in the order model files list them
_MODEL_FIELDS = ("d", "n", "n_prime", "layers", "blocks", "window", "horizon", "day_slots")
_TRAIN_CONFIG_KEYS = {f.name: type(f.default) for f in fields(TrainConfig)}
_MODEL_KEYS = {name: _TRAIN_CONFIG_KEYS[name] for name in _MODEL_FIELDS} | {"components": str}
_TRAIN_KEYS = {name: kind for name, kind in _TRAIN_CONFIG_KEYS.items() if name not in _MODEL_FIELDS}
_DATA_KEYS = {f.name: type(f.default) for f in fields(GeneratorConfig)}
_TEXT_KEYS = {"embedding_file": str}
_SECTIONS = {
    "model": _MODEL_KEYS,
    "train": _TRAIN_KEYS,
    "data": _DATA_KEYS,
    "text": _TEXT_KEYS,
}


@dataclass
class ParsedConfig:
    train: TrainConfig
    data: GeneratorConfig
    components: frozenset[str]
    encoder: EncoderConfig


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
    set_on: dict[str, int] = {}  # "section.key" -> the line that set it
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
        first = set_on.setdefault(f"{section}.{key}", lineno)
        if first != lineno:
            raise ConfigError(f"line {lineno}: {section}.{key} is already set on line {first}")

    model_vals = dict(values["model"])
    train_vals = dict(values["train"])
    data_vals = dict(values["data"])
    components = _parse_components(str(model_vals.pop("components", "all")))
    data = GeneratorConfig(**data_vals)
    # the time-of-day table follows the data granularity unless pinned
    if "day_slots" not in model_vals:
        model_vals["day_slots"] = data.slots_per_day
    train = TrainConfig(**model_vals, **train_vals)
    embedding_file = values["text"].get("embedding_file")
    if embedding_file == "":
        raise ConfigError("text.embedding_file is empty; leave the key out to hash text")
    return ParsedConfig(
        train=train,
        data=data,
        components=components,
        encoder=EncoderConfig(embedding_file),
    )


def parse_config(path) -> ParsedConfig:
    with open_utf8(path, ConfigError) as fh:
        return parse_config_text(fh.read())


def render_model_config(config: TrainConfig, components: frozenset[str], embedding_file: str | None = None) -> str:
    """Canonical [model]/[train] text embedded in saved model files, and [text] when ``embedding_file`` is set."""
    ordered = [name for name in COMPONENT_ORDER if name in components]
    lines = ["[model]"]
    lines += [f"{name} = {getattr(config, name)}" for name in _MODEL_FIELDS]
    lines += [f"components = {','.join(ordered) if ordered else 'none'}", "[train]"]
    lines += [f"{name} = {getattr(config, name)}" for name in _TRAIN_KEYS]
    if embedding_file is not None:
        if "#" in embedding_file or embedding_file.strip() != embedding_file or len(embedding_file.splitlines()) != 1:
            raise ConfigError(f"text.embedding_file {embedding_file!r} cannot be written as a config value")
        lines += ["[text]", f"embedding_file = {embedding_file}"]
    return "\n".join(lines) + "\n"
