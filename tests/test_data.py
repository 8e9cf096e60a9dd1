import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcm.data import GeneratorConfig, generate_synthetic, load_csv, write_dataset
from kgcm.errors import DataError

CSV_FILES = ("demand.csv", "local_text.csv", "global_text.csv")

generator_configs = st.builds(
    GeneratorConfig,
    regions=st.integers(1, 3),
    days=st.integers(1, 3),
    slots_per_day=st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]),
    event_rate=st.floats(0.0, 1.0),
    text_mode=st.sampled_from(["full", "shuffled", "empty"]),
    seed=st.integers(0, 2**32 - 1),
)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


@settings(max_examples=60, deadline=None)
@given(cfg=generator_configs)
def test_written_dataset_loads_back_bitwise(tmp_path_factory, cfg):
    dataset = generate_synthetic(cfg)
    out = tmp_path_factory.mktemp("dataset")
    write_dataset(dataset, out)
    if len(dataset.timestamps) < 2:
        # one slot has no slot width to read back, and no window fits in it
        with pytest.raises(DataError, match="at least 2"):
            load_csv(*(out / name for name in CSV_FILES))
        return
    assert _same(load_csv(*(out / name for name in CSV_FILES)), dataset)


def test_one_slot_dataset_is_refused(tmp_path):
    write_dataset(generate_synthetic(GeneratorConfig(regions=1, days=1, slots_per_day=1)), tmp_path)
    with pytest.raises(DataError, match="region r0: 1 time slot"):
        load_csv(*(tmp_path / name for name in CSV_FILES))


@pytest.mark.parametrize("name", ["local_text.csv", "global_text.csv"])
@pytest.mark.parametrize("header", [None, "foo,bar", ""], ids=["no-header", "foo-bar", "empty-file"])
def test_a_text_file_without_its_header_is_refused(tmp_path, name, header):
    # a headerless file used to load with its first text silently dropped
    write_dataset(generate_synthetic(GeneratorConfig(regions=2, days=2, slots_per_day=12, event_rate=0.3)), tmp_path)
    path = tmp_path / name
    rows = path.read_text().splitlines(keepends=True)[1:]
    assert rows
    path.write_text("" if header == "" else "".join(([f"{header}\n"] if header else []) + rows))
    with pytest.raises(DataError, match=f"{name}: unexpected header"):
        load_csv(*(tmp_path / f for f in CSV_FILES))
