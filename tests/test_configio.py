import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcm.configio import _SECTIONS, parse_config_text, render_model_config
from kgcm.errors import ConfigError
from kgcm.model import COMPONENT_ORDER, TrainConfig
from kgcm.text import EncoderConfig

positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@st.composite
def train_configs(draw) -> TrainConfig:
    return TrainConfig(
        d=draw(st.integers(1, 64)),
        n=draw(st.integers(2, 16)),
        n_prime=draw(st.integers(0, 16)),
        layers=draw(st.integers(1, 4)),
        window=draw(st.integers(1, 96)),
        horizon=draw(st.integers(1, 24)),
        blocks=draw(st.integers(1, 4)),
        day_slots=draw(st.integers(1, 288)),
        lr=draw(positive),
        lambda_prompt=draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)),
        ema_lambda=draw(st.floats(min_value=0.0, max_value=1.0)),
        clip_norm=draw(positive),
        epochs_stage1=draw(st.integers(1, 500)),
        epochs_stage2=draw(st.integers(1, 500)),
        batch_size=draw(st.integers(1, 512)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(config=train_configs(), components=st.frozensets(st.sampled_from(COMPONENT_ORDER)),
       embedding_file=st.none() | st.text(min_size=0, max_size=30))
def test_rendered_model_config_parses_back_to_itself(config, components, embedding_file):
    try:
        rendered = render_model_config(config, components, embedding_file)
    except ConfigError:
        return  # a value that cannot be written as a config line is refused when it is rendered
    parsed = parse_config_text(rendered)
    assert parsed.train == config
    assert parsed.components == components
    assert parsed.encoder == EncoderConfig(embedding_file)


@pytest.mark.parametrize("value", ["1", "3", "6"])
def test_features_other_than_the_dataset_columns_are_refused(value):
    # a model always reads the dataset's feature columns, so no file names their count
    with pytest.raises(ConfigError, match="^unknown key model.features$"):
        parse_config_text(f"[model]\nfeatures = {value}\n")
    assert "features" not in render_model_config(TrainConfig(), frozenset())


def test_embedding_file_alone_selects_the_file_encoder():
    assert parse_config_text("[text]\nembedding_file = vectors.csv\n").encoder == EncoderConfig("vectors.csv")
    assert parse_config_text("").encoder == EncoderConfig()
    assert "[text]" not in render_model_config(TrainConfig(), frozenset())
    with pytest.raises(ConfigError, match="^unknown key text.encoder$"):
        parse_config_text("[text]\nencoder = hashed\nembedding_file = vectors.csv\n")
    with pytest.raises(ConfigError, match="^text.embedding_file is empty"):
        parse_config_text("[text]\nembedding_file =\n")


@pytest.mark.parametrize("key", ["lr", "lambda_prompt", "ema_lambda", "clip_norm"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_train_config_refuses_what_a_model_file_cannot_hold(key, value):
    # found by the round trip over the floats TrainConfig accepted: clip_norm = inf
    # rendered into a model file that the parser refuses
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        TrainConfig(**{key: value})


FLOAT_KEYS = [(section, key) for section, table in _SECTIONS.items() for key, kind in table.items() if kind is float]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "-Infinity"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_non_finite_float_is_rejected_by_name(section, key, raw):
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected a finite number"):
        parse_config_text(f"[{section}]\n{key} = {raw}\n")


def test_every_section_with_float_keys_is_covered():
    assert {section for section, _ in FLOAT_KEYS} == {"train", "data"}


def test_finite_floats_still_parse():
    parsed = parse_config_text("[train]\nlr = 1e-300\nclip_norm = 1.5e308\n[data]\nnoise_sigma = 0\n")
    assert (parsed.train.lr, parsed.train.clip_norm, parsed.data.noise_sigma) == (1e-300, 1.5e308, 0.0)


def test_a_metrics_section_is_refused_as_unknown():
    # the MAPE floor is one constant, evaluate.MAPE_FLOOR, so no config sets it
    with pytest.raises(ConfigError, match=r"^line 1: unknown section \[metrics\]$"):
        parse_config_text("[metrics]\nmape_floor = 1.0\n")


@pytest.mark.parametrize("text,key,first,second", [
    ("[train]\nseed = 1\nseed = 2\n", "train.seed", 2, 3),
    ("[model]\nd = 8\n[train]\nseed = 1\n[model]\nd = 16\n", "model.d", 2, 6),
    ("[data]\ndays = 2\n\n# again\ndays = 2\n", "data.days", 2, 5),
], ids=["same-section", "two-headers", "same-value"])
def test_a_key_set_twice_is_refused_with_both_lines(text, key, first, second):
    with pytest.raises(ConfigError, match=rf"^line {second}: {key} is already set on line {first}$"):
        parse_config_text(text)
