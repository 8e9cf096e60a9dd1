"""Benchmark of the kgcm package: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
records spans around the calls into each ``kgcm`` module and reports the
per-layer metrics. ``--seconds`` is the least time an untraced run measures:
its fits and its first 1,000 predict calls always run to the end, which
takes about 65 s for ``train-full`` on a 2-vCPU Xeon guest. End-to-end
times are given at reference speed (see ``reference.py``). Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Each run also writes a summary, and the traced
run its spans, to ``perfbench/out/``.

The package is imported from ``src/`` of the checkout that holds this file.
BLAS is limited to one thread before numpy loads, because the load comes
from a single caller and threaded BLAS made short runs vary by 20-25%.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_kgcm() -> bool:
    """Import the package from this checkout's ``src/``; an installed copy does not count."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kgcm
    except ImportError as exc:
        print(f"perfbench: cannot import kgcm from {src}: {exc}", file=sys.stderr)
        return False
    if not Path(kgcm.__file__).resolve().is_relative_to(src):
        print(f"perfbench: kgcm was imported from {kgcm.__file__}, not from {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 0:
        print("perfbench: --seconds must be >= 0", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # read once, when numpy loads BLAS
        os.environ[var] = str(BLAS_THREADS)
    if not import_kgcm():
        return 2
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = workloads.environment()
    if args.trace:
        run, metrics, info, spans = workloads.run_traced(w, args.seed, OUT_DIR)
    else:
        run, metrics, info = workloads.run_untraced(w, args.seed, args.seconds, OUT_DIR)
        spans = None

    print(f"environment: {json.dumps(env)}")
    print(f"workload {w.name}: components={','.join(sorted(w.components))} event_rate={w.event_rate} "
          f"seed={args.seed} " + " ".join(f"{k}={v}" for k, v in info.items() if not isinstance(v, (list, dict))))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for layer, share in info.get("fit_layer_self_share", {}).items():
        print(f"  fit self-time share  {layer:31s} {share:14.4f}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")

    summary = {"workload": w.name, "seed": args.seed, "trace": args.trace, "environment": env, "info": info,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, "problems": run.problems}
    stem = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
