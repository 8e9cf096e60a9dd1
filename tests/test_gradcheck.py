import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import kgcm
from kgcm import numeric
from kgcm.gradcheck import run_all_checks, run_kernel_checks

ROOT = Path(__file__).resolve().parents[1]


def test_every_check_passes():
    results = run_all_checks()
    failed = {r.name: r.max_error for r in results if not r.passed()}
    assert not failed
    assert len({r.name for r in results}) == len(results)


@pytest.mark.parametrize("seed", range(1, 6))
def test_every_check_passes_at_other_seeds(seed):
    # every check scores each coordinate against its own finite-difference noise
    results = run_all_checks(seed)
    assert not {r.name: r.max_error for r in results if not r.passed()}


@pytest.mark.parametrize("seed", [90, 126, 182])
def test_the_kernel_checks_pass_where_a_probe_meets_truncation_rounding_or_a_kink(seed):
    # seed 90: graph_layer's CD(h) is off by its truncation error, beyond 2 |CD(h) - CD(2h)|, and exact at h / 10;
    # seed 126: a guided_cross_attention gradient of -2e-6 misses by under one rounding step of the loss;
    # seed 182: a graph_layer probe crosses a ReLU kink at h and not at h / 10
    assert not {r.name: r.max_error for r in run_kernel_checks(seed) if not r.passed()}


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(kgcm.__path__)))
def test_exports_exist(name):
    module = importlib.import_module(f"kgcm.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def _numeric_names_read(path: Path) -> set[str]:
    """Names a module imports from ``numeric`` or reads as attributes of the imported module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module in ("numeric", "kgcm.numeric"):
                    names.add(alias.name)
                elif alias.name == "numeric" and node.module in (None, "kgcm"):
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add(node.attr)
    return names


def test_every_numeric_export_is_read_outside_numeric():
    # a public op with no reader in the package or the benchmark belongs in the tests' oracle
    sources = [p for p in (ROOT / "src" / "kgcm").glob("*.py") if p.name != "numeric.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*(_numeric_names_read(p) for p in sources))
    assert sorted(set(numeric.__all__) - read) == []



def _names_the_benchmark_reads() -> list[tuple[str, str | None, str, bool]]:
    """(module, class, attribute, must be a function) of each ``kgcm`` name the benchmark's workloads read.

    These are the ``Target(module, attr, cls=...)`` calls, whose names the
    tracer patches, the names imported from ``kgcm`` modules, and the
    attributes read off the ``kgcm`` modules it imports.
    """
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    names, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "kgcm":
            modules.update({alias.asname or alias.name: f"kgcm.{alias.name}" for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kgcm."):
            names += [(node.module, None, alias.name, False) for alias in node.names]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target":
            module, attr = (ast.literal_eval(arg) for arg in node.args[:2])
            cls = next((ast.literal_eval(k.value) for k in node.keywords if k.arg == "cls"), None)
            names.append((module, cls, attr, True))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.append((modules[node.value.id], None, node.attr, False))
    return names


def test_every_kgcm_name_the_benchmark_reads_exists():
    # the benchmark calls and patches these names from outside the package, so a rename would
    # otherwise show only when the benchmark runs. A traced name must be a plain function defined
    # in its module, or in its class's own namespace (an inherited method would be patched on the
    # wrong class)
    names = _names_the_benchmark_reads()
    assert {attr for _, _, attr, function in names if function} >= {"encode", "stage2_forward", "predict"}
    missing = []
    for module, cls, attr, function in names:
        scope = vars(importlib.import_module(module))
        if cls is not None:
            scope = vars(scope[cls]) if inspect.isclass(scope.get(cls)) else {}
        if attr not in scope or (function and not inspect.isfunction(scope[attr])):
            missing.append(".".join(p for p in (module, cls, attr) if p))
    assert missing == []
