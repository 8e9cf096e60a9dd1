"""Every function the benchmark traces must exist in ``kgcm``.

The benchmark patches these names from outside the package; a rename or
deletion inside ``kgcm`` would otherwise only show when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _label(target) -> str:
    return ".".join(p for p in (target.module, target.cls, target.attr) if p)


@pytest.mark.parametrize("target", workloads.TARGETS, ids=_label)
def test_target_resolves(target):
    owner = importlib.import_module(target.module)
    if target.cls is not None:
        owner = getattr(owner, target.cls)
        assert target.attr in owner.__dict__, f"{_label(target)} is not defined on the class"
    assert callable(getattr(owner, target.attr, None)), f"{_label(target)} does not exist"
