"""The benchmark's own test: run it and check what its output promises.

Usage, from the repository root:

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

For each workload it checks that

* an untraced run is correct, fails no operation and prints every
  end-to-end metric of ``BENCHMARK.json`` with its unit;
* two traced runs with one seed are correct, print every per-layer metric,
  and repeat the counts in ``EXACT_COUNTS`` exactly (the traced run checks
  that the layers' self times cover the fit wall time);

and that the benchmark fails, printing no result, in a directory that holds
only ``BENCHMARK.json`` and the benchmark's own files. Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 600

# Counts that must repeat exactly between two traced runs with one seed.
EXACT_COUNTS = (
    "numeric.tape_entries_per_window",
    "graph.run_dgso_calls",
    "fusion_local.cross_attention_calls_per_window",
    "text.encode_calls",
    "optim.adam_steps",
    "model.pad_events",
)


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_metrics(result: dict, expected: list[dict]) -> list[str]:
    errors = []
    for spec in expected:
        got = result["metrics"].get(spec["name"])
        if got is None:
            errors.append(f"metric {spec['name']} missing")
        elif got["unit"] != spec["unit"]:
            errors.append(f"metric {spec['name']} has unit {got['unit']}, expected {spec['unit']}")
    return errors


def check_workload(workload: str, seed: int, spec: dict) -> list[str]:
    errors = []
    code, result = run_bench(ROOT, workload, seed, trace=0)
    if code != 0 or result is None:
        return [f"untraced run exited {code} without a result"]
    if not result["correct"] or result["failed"]:
        errors.append(f"untraced run: correct={result['correct']} failed={result['failed']}")
    errors += check_metrics(result, spec["end_to_end"])

    traced = []
    for _ in range(2):
        code, result = run_bench(ROOT, workload, seed, trace=1)
        if code != 0 or result is None:
            return errors + [f"traced run exited {code} without a result"]
        if not result["correct"]:
            errors.append("traced run is not correct")
        errors += check_metrics(result, spec["per_layer"])
        traced.append(result["metrics"])
    for name in EXACT_COUNTS:
        first, second = (m.get(name, {}).get("value") for m in traced)
        if first != second:
            errors.append(f"count {name} differs between same-seed traced runs: {first} vs {second}")
    return errors


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in BENCH_DIR.glob("*.py"):
            shutil.copy2(path, bare / "perfbench" / path.name)
        code, result = run_bench(bare, "train-text", 1, trace=0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        return [f"bare directory: exit code {code}, result {result}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    checks = [("bare directory", check_bare_directory)]
    checks += [(w, lambda w=w: check_workload(w, args.seed, spec))
               for w in args.workload or [w["name"] for w in spec["workloads"]]]
    for name, check in checks:
        errors = check()
        failures += bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {name}")
        for error in errors:
            print(f"     {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
