"""The experiment configs under ``experiments/`` parse and give splits that can show the paper's claim."""

from pathlib import Path

from kgcm.configio import parse_config
from kgcm.data import generate_synthetic
from kgcm.pipeline import build_windows, split_windows

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"


def test_the_paper_configs_train_and_test_splits_hold_weekday_and_weekend_targets():
    # the default data's 6 days put every test target on a Saturday; 28 days put train targets on all seven
    # weekdays and test targets on Wednesday to Sunday
    parsed = parse_config(EXPERIMENTS / "paper.toml")
    split = split_windows(build_windows(generate_synthetic(parsed.data), parsed.train, parsed.encoder))
    weekdays = [{ts.weekday() for w in windows for ts in w.target_times} for windows in (split.train, split.test)]
    assert (len(split.train), len(split.test)) == (2697, 582)
    assert weekdays == [set(range(7)), {2, 3, 4, 5, 6}]
