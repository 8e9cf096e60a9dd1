import importlib
import pkgutil

import pytest

import kgcm
from kgcm.gradcheck import DEFAULT_TOLERANCE, run_all_checks


def test_every_check_passes():
    results = run_all_checks()
    failed = {r.name: r.max_error for r in results if not r.passed(DEFAULT_TOLERANCE)}
    assert not failed
    assert len({r.name for r in results}) == len(results)


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(kgcm.__path__)))
def test_exports_exist(name):
    module = importlib.import_module(f"kgcm.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
