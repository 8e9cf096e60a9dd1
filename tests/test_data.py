import csv
import dataclasses
import hashlib
import json
import time
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcm.data import (
    FEATURES,
    PREDICTION_HEADER,
    GeneratorConfig,
    PredictionRow,
    atomic_open,
    atomic_write_text,
    generate_synthetic,
    load_csv,
    write_dataset,
    write_predictions,
)
from kgcm.errors import ConfigError, DataError

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


@pytest.mark.parametrize("field,value", [("daily_amp", float("nan")), ("base_demand", float("inf")),
                                         ("noise_sigma", float("nan")), ("event_amp_hi", float("inf"))])
def test_a_non_finite_generator_field_is_refused(field, value):
    # each used to be accepted: NaN demand, inf demand that load_csv refuses, no noise, or a bare ValueError
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        GeneratorConfig(**{field: value})


@pytest.mark.parametrize("flag", [0.5, 0.9999999])
def test_a_flag_that_is_not_0_or_1_is_not_read_back_truncated(tmp_path, flag):
    dataset = generate_synthetic(GeneratorConfig(regions=1, days=1, slots_per_day=4))
    dataset.features[0, 1, FEATURES.index("is_holiday")] = flag
    write_dataset(dataset, tmp_path)
    with pytest.raises(DataError, match="demand.csv row 3: unparsable number"):
        load_csv(tmp_path / "demand.csv")


def test_one_slot_dataset_is_refused(tmp_path):
    write_dataset(generate_synthetic(GeneratorConfig(regions=1, days=1, slots_per_day=1)), tmp_path)
    with pytest.raises(DataError, match="region r0: 1 time slot"):
        load_csv(*(tmp_path / name for name in CSV_FILES))


@pytest.mark.parametrize("width", [1800.5, 0.25])
def test_a_slot_width_of_a_fraction_of_a_second_is_refused(tmp_path, width):
    # 1800.5 s slots used to load as 1800 s ones
    start = datetime(2024, 1, 1, tzinfo=timezone.utc)
    rows = [f"r0,{(start + timedelta(seconds=width * i)).isoformat()},1.0,1.0,1.0,0,0\n" for i in range(4)]
    (tmp_path / "demand.csv").write_text("region_id,timestamp,demand,avg_passengers,avg_distance,is_holiday,"
                                         "is_weekend\n" + "".join(rows))
    with pytest.raises(DataError, match=f"region r0: slot width {width}s is not a whole number of seconds"):
        load_csv(tmp_path / "demand.csv")


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


@pytest.mark.parametrize("name", ["local_text.csv", "global_text.csv"])
def test_a_second_text_for_one_slot_is_refused(tmp_path, name):
    # the later row used to replace the earlier one's text with no error
    write_dataset(generate_synthetic(GeneratorConfig(regions=2, days=2, slots_per_day=12, event_rate=0.3)), tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    *leading, raw_ts, _ = next(csv.reader([lines[1]]))
    # the same instant written with another offset is the same slot
    lines.append(",".join([*leading, raw_ts.replace("Z", "+00:00"), "a later text"]) + "\n")
    path.write_text("".join(lines))
    with pytest.raises(DataError, match=rf"{name} row {len(lines)}: .* already has a text, on row 2$"):
        load_csv(*(tmp_path / f for f in CSV_FILES))


def test_predictions_read_back_through_csv_reader(tmp_path):
    # a region id with a comma used to give a 6-field row under the 5-field header
    at = datetime(2024, 1, 1, tzinfo=timezone.utc)
    rows = [PredictionRow("r0", at, 1, 1.5, 0.1), PredictionRow("a,b", at, 2, 2.0, 3.0),
            PredictionRow('say "hi"', at, 1, 0.0, -1.0)]
    write_predictions(rows, tmp_path / "p.csv")
    with open(tmp_path / "p.csv", newline="") as fh:
        read = list(csv.reader(fh))
    assert read[0] == PREDICTION_HEADER.split(",")
    assert [PredictionRow(region, datetime.fromisoformat(ts), int(step), float(y_true), float(y_pred))
            for region, ts, step, y_true, y_pred in read[1:]] == rows
    assert (tmp_path / "p.csv").read_text().splitlines()[1] == "r0,2024-01-01T00:00:00Z,1,1.5,0.10000000000000001"


# sha256 (first 16 hex digits) of the generator's demand, feature and text outputs, recorded before its
# seasonal loop became one row assignment (numpy 2.4, x86-64); the generator must keep them bitwise
GENERATOR_DIGESTS = {
    "default": ({}, ("324cbd8437d3fbf7", "1bd4050d60033bb2", "a85eb0ab8dddc07a")),
    "shuffled": (dict(regions=4, days=3, slots_per_day=24, event_rate=0.5, text_mode="shuffled", seed=7),
                 ("224098db6c49693b", "8ccb26e419ac72c1", "c8db2856dbebf158")),
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else json.dumps(part).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_generator_outputs_are_pinned(name):
    overrides, want = GENERATOR_DIGESTS[name]
    dataset = generate_synthetic(GeneratorConfig(**overrides))
    columns = [dataset.features[r].T for r in range(len(dataset.regions))]
    demand = _digest(*(column[0] for column in columns))
    features = _digest(*(array for column in columns
                         for array in (column[1], column[2], column[3].astype(np.int64), column[4].astype(np.int64))))
    texts = _digest(dataset.local_texts, dataset.global_texts)
    assert (demand, features, texts) == want


def test_offsetless_timestamps_are_read_as_utc(tmp_path, monkeypatch):
    # a naive timestamp used to be read in the host's zone: 2024-01-01T00:00:00 became 2023-12-31 18:30 UTC here
    monkeypatch.setenv("TZ", "IST-5:30")  # a POSIX zone string, so no zone database is needed
    time.tzset()
    try:
        dataset = generate_synthetic(GeneratorConfig(regions=2, days=2, slots_per_day=12, event_rate=0.3))
        write_dataset(dataset, tmp_path)
        for name in CSV_FILES:
            path = tmp_path / name
            path.write_text(path.read_text().replace("Z,", ","))
        assert "Z" not in (tmp_path / "demand.csv").read_text()
        assert _same(load_csv(*(tmp_path / name for name in CSV_FILES)), dataset)
    finally:
        monkeypatch.undo()
        time.tzset()


class TestAtomicWrite:
    """A write that raises part way leaves neither the target nor its ``.tmp`` file, and raises as it was."""

    def test_a_text_write_that_raises_leaves_no_file(self, tmp_path):
        # the text is encoded as it is written, so a lone surrogate after it raises inside the write
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "out.csv", "a" * 100_000 + "\ud800")
        assert list(tmp_path.iterdir()) == []

    def test_an_os_error_part_way_stays_an_os_error(self, tmp_path):
        with pytest.raises(OSError, match="No space left") as caught:
            with atomic_open(tmp_path / "out.csv") as fh:
                fh.write("region,timestamp\n")
                fh.flush()
                raise OSError(28, "No space left on device")
        assert caught.type is OSError
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_rename_removes_the_temp_file(self, tmp_path):
        (tmp_path / "out.csv").mkdir()  # a directory that a file cannot be renamed over
        with pytest.raises(IsADirectoryError):
            atomic_write_text(tmp_path / "out.csv", "x\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_a_finished_write_replaces_the_target(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with atomic_open(path, binary=True) as fh:
            fh.write(b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
