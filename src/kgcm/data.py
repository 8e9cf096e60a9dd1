"""Synthetic demand benchmark, CSV ingestion, and prediction output.

The generator composes a daily sinusoid, a weekday/weekend offset, Gaussian
noise, and random demand events. Every event announces itself with a
templated local text one slot before the spike starts, which is what makes
the text modality genuinely predictive; events hitting two or more regions
at once also emit a shared global text. ``text_mode`` can shuffle the texts
across slots (destroying the alignment, not the marginals) or blank them.

All numeric draws come from streams that do not depend on ``text_mode``, so
the three variants of a seed share identical demand series.

A ``DemandDataset`` holds every region on one time axis: one list of
timestamps, one (regions, slots, features) float64 array whose last axis
runs in ``FEATURES`` order, and one local text per region and slot beside
one global text per slot.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import ConfigError, DataError
from .numeric import SeededRng

__all__ = [
    "GeneratorConfig",
    "FEATURES",
    "DemandDataset",
    "PredictionRow",
    "generate_synthetic",
    "load_csv",
    "write_dataset",
    "write_predictions",
    "atomic_open",
    "atomic_write_text",
    "open_utf8",
]

START_TIME = datetime(2024, 1, 1, tzinfo=timezone.utc)  # a Monday

# The column order of every feature array and demand file. Demand comes first: a window's targets are its
# demand, which the model scales by the scaler of input column 0.
FEATURES = ("demand", "avg_passengers", "avg_distance", "is_holiday", "is_weekend")
FLAGS = FEATURES[3:]  # 0/1 features, which a demand file may leave out; the ones before are measured numbers

DEMAND_HEADER = ",".join(("region_id", "timestamp") + FEATURES)
LOCAL_TEXT_HEADER = "region_id,timestamp,description"
GLOBAL_TEXT_HEADER = "timestamp,description"
PREDICTION_HEADER = "region_id,timestamp,horizon_step,y_true,y_pred"

EVENT_LEVELS = ("moderate", "high", "severe")


@dataclass
class GeneratorConfig:
    regions: int = 3
    days: int = 6
    slots_per_day: int = 48
    base_demand: float = 10.0
    daily_amp: float = 5.0
    weekly_amp: float = 2.0
    noise_sigma: float = 0.3
    event_rate: float = 0.04
    event_amp_lo: float = 8.0
    event_amp_hi: float = 16.0
    text_mode: str = "full"
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # NaN passes every range check, and inf demand is written to a file that load_csv refuses
        for f in fields(self):
            if type(f.default) is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.regions < 1 or self.days < 1 or self.slots_per_day < 1:
            raise ConfigError("regions, days and slots_per_day must be positive")
        if 86400 % self.slots_per_day != 0:
            raise ConfigError(f"slots_per_day must divide 86400 seconds, got {self.slots_per_day}")
        if self.daily_amp < 0 or self.weekly_amp < 0 or self.noise_sigma < 0:
            raise ConfigError("amplitudes and noise_sigma must be >= 0")
        if not 0.0 <= self.event_rate <= 1.0:
            raise ConfigError(f"event_rate must lie in [0, 1], got {self.event_rate}")
        if self.event_amp_lo > self.event_amp_hi:
            raise ConfigError("event_amp_lo must not exceed event_amp_hi")
        if self.text_mode not in ("full", "shuffled", "empty"):
            raise ConfigError(f"text_mode must be full, shuffled or empty, got {self.text_mode!r}")
        if not 0 <= self.seed < 2 ** 64:  # the random streams take a 64-bit seed, and would wrap any other
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class DemandDataset:
    regions: list[str]
    timestamps: list[datetime]  # one axis that every region shares
    features: np.ndarray  # (regions, slots, FEATURES) float64
    local_texts: list[list[str]]  # [region][slot]
    global_texts: list[str]  # [slot]
    slot_seconds: int

    @property
    def slots_per_day(self) -> int:
        return 86400 // self.slot_seconds


def _seasonal_curve(cfg: GeneratorConfig, slot_index: int) -> float:
    slot = slot_index % cfg.slots_per_day
    day = slot_index // cfg.slots_per_day
    weekday = day % 7 < 5
    weekly = cfg.weekly_amp if weekday else -cfg.weekly_amp
    return cfg.base_demand + cfg.daily_amp * math.sin(2.0 * math.pi * slot / cfg.slots_per_day) + weekly


def _event_level(cfg: GeneratorConfig, amplitude: float) -> str:
    span = cfg.event_amp_hi - cfg.event_amp_lo
    if span <= 0:
        return EVENT_LEVELS[-1]
    frac = (amplitude - cfg.event_amp_lo) / span
    return EVENT_LEVELS[min(2, int(frac * 3))]


def generate_synthetic(cfg: GeneratorConfig) -> DemandDataset:
    """Build the benchmark dataset as a pure function of the config."""
    total = cfg.days * cfg.slots_per_day
    slot_seconds = 86400 // cfg.slots_per_day
    timestamps = [START_TIME + timedelta(seconds=slot_seconds * i) for i in range(total)]
    root = SeededRng(cfg.seed)
    noise_rng = root.child("noise")
    event_rng = root.child("events")
    feature_rng = root.child("features")
    shuffle_rng = root.child("shuffle")

    names = [f"r{i}" for i in range(cfg.regions)]
    demand = np.empty((cfg.regions, total))
    demand[:] = [_seasonal_curve(cfg, i) for i in range(total)]
    local_texts = [["" for _ in range(total)] for _ in range(cfg.regions)]
    global_texts = ["" for _ in range(total)]

    def append_text(store: list[str], idx: int, text: str) -> None:
        store[idx] = text if not store[idx] else store[idx] + " " + text

    for i in range(total):
        if event_rng.random() >= cfg.event_rate:
            continue
        affected = [r for r in range(cfg.regions) if event_rng.random() < 0.5]
        if not affected:
            affected = [event_rng.integers(0, cfg.regions)]
        amplitude = cfg.event_amp_lo + (cfg.event_amp_hi - cfg.event_amp_lo) * event_rng.random()
        duration = event_rng.integers(1, 5)
        level = _event_level(cfg, amplitude)
        for r in affected:
            demand[r, i: i + duration] += amplitude
            if i >= 1:
                append_text(local_texts[r], i - 1, f"large concert near region {names[r]}; expect {level} extra demand")
        if len(affected) >= 2 and i >= 1:
            append_text(global_texts, i - 1, f"citywide gatherings announced; expect {level} demand increase across regions")

    if cfg.noise_sigma > 0.0:
        demand += noise_rng.normal((cfg.regions, total), std=cfg.noise_sigma)
    else:
        noise_rng.normal((cfg.regions, total), std=1.0)  # keep stream usage fixed

    features = np.zeros((cfg.regions, total, len(FEATURES)))
    column = dict(zip(FEATURES, np.moveaxis(features, 2, 0)))  # a writable (regions, slots) view per feature
    column["demand"][:] = np.maximum(demand, 0.0)
    slots = np.arange(total) % cfg.slots_per_day
    phase = 2.0 * math.pi * slots / cfg.slots_per_day
    for r in range(cfg.regions):
        passengers = 1.4 + 0.4 * np.sin(phase + 1.3) + feature_rng.normal((total,), std=0.05)
        distance = 3.0 + 1.0 * np.sin(phase + 2.1) + feature_rng.normal((total,), std=0.1)
        column["avg_passengers"][r] = np.maximum(passengers, 0.0)
        column["avg_distance"][r] = np.maximum(distance, 0.0)
    column["is_weekend"][:] = (np.arange(total) // cfg.slots_per_day) % 7 >= 5

    if cfg.text_mode == "shuffled":
        for r in range(cfg.regions):
            perm = shuffle_rng.permutation(total)
            local_texts[r] = [local_texts[r][j] for j in perm]
        perm = shuffle_rng.permutation(total)
        global_texts = [global_texts[j] for j in perm]
    elif cfg.text_mode == "empty":
        local_texts = [["" for _ in range(total)] for _ in range(cfg.regions)]
        global_texts = ["" for _ in range(total)]

    return DemandDataset(regions=names, timestamps=timestamps, features=features, local_texts=local_texts,
                         global_texts=global_texts, slot_seconds=slot_seconds)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _iso(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


SECOND = timedelta(seconds=1)


def _parse_ts(raw: str, where: str) -> datetime:
    """The instant ``raw`` names, in UTC; a timestamp without an offset is read as UTC, not in the host's zone."""
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataError(f"unparsable timestamp {raw!r} in {where}") from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@contextmanager
def atomic_open(path, binary: bool = False):
    """A handle on ``<path>.tmp``, renamed over ``path`` when the block ends, so readers never see a partial file.

    The handle takes bytes with ``binary``, else UTF-8 text with "\n" line
    ends. If the block, the close or the rename raises, the temp file is
    removed and the exception propagates as it was: an ``OSError`` stays an
    ``OSError``.
    """
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def atomic_write_text(path, content: str) -> None:
    """Write ``content`` through ``atomic_open``."""
    with atomic_open(path) as fh:
        fh.write(content)


def write_dataset(dataset: DemandDataset, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    stamps = [_iso(ts) for ts in dataset.timestamps]
    lines = [DEMAND_HEADER]
    for region, rows in zip(dataset.regions, dataset.features):
        for ts, row in zip(stamps, rows):
            # a flag writes as 0 or 1, and any other value as it is, which load_csv refuses rather than truncates
            lines.append(",".join([region, ts, *map(_fmt, row)]))
    atomic_write_text(os.path.join(out_dir, "demand.csv"), "\n".join(lines) + "\n")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LOCAL_TEXT_HEADER.split(","))
    for region, texts in zip(dataset.regions, dataset.local_texts):
        writer.writerows([region, ts, text] for ts, text in zip(stamps, texts) if text)
    atomic_write_text(os.path.join(out_dir, "local_text.csv"), buf.getvalue())

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GLOBAL_TEXT_HEADER.split(","))
    writer.writerows([ts, text] for ts, text in zip(stamps, dataset.global_texts) if text)
    atomic_write_text(os.path.join(out_dir, "global_text.csv"), buf.getvalue())


def open_utf8(path, error: type[Exception]) -> io.StringIO:
    """The UTF-8 file ``path``, read whole, as a stream for ``csv``; ``error`` names the file if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return io.StringIO(fh.read(), newline="")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


def _text_rows(path, header: str, index: dict[datetime, int]):
    """(row number, leading fields, slot in ``index``, text) per row of ``path``, if it exists, under ``header``.

    A row that repeats an earlier row's leading fields and slot is refused.
    """
    if path is None or not os.path.exists(path):
        return
    expected = header.split(",")
    seen: dict[tuple, int] = {}  # (leading fields, slot) -> the row that gave its text
    with open_utf8(path, DataError) as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None or [h.strip() for h in found] != expected:
            raise DataError(f"{path}: unexpected header {found}, expected {header}")
        for rowno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise DataError(f"{path} row {rowno}: expected {len(expected)} fields, got {len(row)}")
            *leading, raw_ts, text = row
            ts = _parse_ts(raw_ts, f"{path} row {rowno}")
            if ts not in index:
                raise DataError(f"{path} row {rowno}: timestamp {raw_ts} matches no demand slot")
            first = seen.setdefault((*leading, index[ts]), rowno)
            if first != rowno:
                raise DataError(f"{path} row {rowno}: {' '.join([*leading, raw_ts])} already has a text, "
                                f"on row {first}")
            yield rowno, leading, index[ts], text


def load_csv(demand_path, local_text_path=None, global_text_path=None) -> DemandDataset:
    """Read the dataset schema back; missing text rows become empty texts.

    A timestamp without a UTC offset is read as UTC, the zone ``write_dataset``
    writes, so slots and weekdays do not depend on the host's time zone.
    Every region must list the same timestamps, which become the data set's
    one time axis; a demand file without the ``FLAGS`` columns reads them as 0.
    """
    stamps: dict[str, list[datetime]] = {}  # region -> its timestamps, in file order
    rows: dict[str, list[list[float]]] = {}  # region -> one FEATURES row per timestamp
    with open_utf8(demand_path, DataError) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{demand_path}: empty demand file")
        expected = DEMAND_HEADER.split(",")
        if [h.strip() for h in header] not in (expected, expected[:-len(FLAGS)]):
            raise DataError(f"{demand_path}: unexpected header {header}")
        measured = len(FEATURES) - len(FLAGS)
        for rowno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{demand_path} row {rowno}: expected {len(header)} fields, got {len(row)}")
            region = row[0]
            ts = _parse_ts(row[1], f"{demand_path} row {rowno}")
            try:
                values = [float(v) for v in row[2: 2 + measured]] + [int(v) for v in row[2 + measured:]]
            except ValueError as exc:
                raise DataError(f"{demand_path} row {rowno}: unparsable number: {exc}") from exc
            values += [0] * (len(FEATURES) - len(values))
            for name, value in zip(FEATURES, values):
                # float() reads nan and inf, which would only fail later, in training, as a numeric error
                if not math.isfinite(value):
                    raise DataError(f"{demand_path} row {rowno}: {name} must be finite, got {value}")
                if name in FLAGS and value not in (0, 1):
                    raise DataError(f"{demand_path} row {rowno}: {name} must be 0 or 1, got {value}")
                if name == "demand" and value < 0:
                    raise DataError(f"{demand_path} row {rowno}: negative demand {value}")
            series = stamps.setdefault(region, [])
            if series and ts <= series[-1]:
                raise DataError(f"{demand_path} row {rowno}: timestamps not strictly increasing for region {region}")
            series.append(ts)
            rows.setdefault(region, []).append(values)
    if not stamps:
        raise DataError(f"{demand_path}: no data rows")

    regions = list(stamps)
    first, timestamps = regions[0], stamps[regions[0]]
    for region in regions[1:]:
        if stamps[region] != timestamps:
            raise DataError(f"region {region}: timestamps differ from region {first}")
    # one slot sets no slot width, and no window fits in it
    if len(timestamps) < 2:
        raise DataError(f"region {first}: {len(timestamps)} time slot, at least 2 are needed")
    widths = {b - a for a, b in zip(timestamps, timestamps[1:])}
    if len(widths) != 1:
        raise DataError(f"region {first}: slot width is not constant")
    width = widths.pop()
    if width % SECOND:  # slots are counted in whole seconds
        raise DataError(f"region {first}: slot width {width.total_seconds()}s is not a whole number of seconds")
    slot_seconds = width // SECOND
    if 86400 % slot_seconds != 0:
        raise DataError(f"slot width {slot_seconds}s does not divide one day")

    index = {ts: i for i, ts in enumerate(timestamps)}
    local_texts = {region: ["" for _ in timestamps] for region in regions}
    for rowno, (region,), slot, text in _text_rows(local_text_path, LOCAL_TEXT_HEADER, index):
        if region not in local_texts:
            raise DataError(f"{local_text_path} row {rowno}: unknown region {region!r}")
        local_texts[region][slot] = text
    global_texts = ["" for _ in timestamps]
    for _, _, slot, text in _text_rows(global_text_path, GLOBAL_TEXT_HEADER, index):
        global_texts[slot] = text

    features = np.array([rows[region] for region in regions], dtype=np.float64)
    return DemandDataset(regions=regions, timestamps=timestamps, features=features,
                         local_texts=list(local_texts.values()), global_texts=global_texts, slot_seconds=slot_seconds)


@dataclass
class PredictionRow:
    region: str
    timestamp: datetime
    horizon_step: int
    y_true: float
    y_pred: float


def write_predictions(rows: list[PredictionRow], path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PREDICTION_HEADER.split(","))
    for row in rows:
        writer.writerow([row.region, _iso(row.timestamp), row.horizon_step, _fmt(row.y_true), _fmt(row.y_pred)])
    atomic_write_text(path, buf.getvalue())
