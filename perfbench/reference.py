"""Host-speed reference for the benchmark's timings.

On a shared host the same work can take up to 2x longer for seconds to
minutes at a time: on a 2-vCPU KVM guest (Xeon, OpenBLAS 0.3.31, one BLAS
thread) the reference kernel below took either about 0.8 or about 1.3 ms,
with no steal time, and the level changed anywhere from several times a
second to once in several minutes. A median over a run then follows the
share of slow time in that run, not the program.

So the benchmark times a fixed reference kernel, which uses no ``kgcm`` code,
right next to the work it measures: before and after every measured unit,
and inside a unit before every window forward of a fit and every predict
call of an ``evaluate`` pass. A measured time ``t`` is reported as
``t * REFERENCE_S / r``, where ``r`` is the mean time of the reference
kernel measured with it: the time the work takes on a host where the kernel
takes ``REFERENCE_S``. A change to ``kgcm`` moves ``t`` and not ``r``, so it
still shows; a change of host speed moves both. Kernel time is excluded from
``t``. The conversion suits work that computes, as ``kgcm`` does; time spent
waiting would be scaled too. It is not exact: across runs whose mean kernel
time differed by 30%, the converted times still moved by 2-3%.

The kernel mixes what ``kgcm`` spends its time on: small matrix products and
elementwise numpy calls, each on arrays of a few hundred elements, and Python
loops around them.

Run ``python3 perfbench/reference.py`` to print the kernel's time on this
host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import Target, patched, timed

# The kernel's time at the fast level of the host above; it only sets the
# scale of the reported times.
REFERENCE_S = 0.0008
ROUNDS = 40

_rng = np.random.default_rng(20250908)
_X0 = _rng.standard_normal((24, 32))
_W = _rng.standard_normal((32, 32)) / np.sqrt(32.0)


def kernel() -> np.ndarray:
    x = _X0
    for _ in range(ROUNDS):
        h = np.tanh(x @ _W)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        x = 0.5 * e / e.sum(axis=1, keepdims=True) + 0.5 * _X0
        _ = [float(v) for v in x[0, :8]]
    return x


class Pacer:
    """Times the reference kernel on demand and keeps every sample."""

    def __init__(self):
        self.ticks: list[float] = []

    def tick(self) -> float:
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.ticks.append(seconds)
        return seconds

    def measure(self, targets: list[Target], call, *args):
        """``call(*args)`` with the kernel run before it, after it and before every call of each target.

        Returns the call's result and its time, kernel runs excluded, at
        reference speed.
        """
        first = len(self.ticks)
        self.tick()
        with patched(targets, self._paced):
            out, seconds = timed(call, *args)
        inner = sum(self.ticks[first + 1:])
        self.tick()
        return out, at_reference_speed(seconds - inner, self.ticks[first:])

    def _paced(self, target, fn):
        def paced(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return paced

    def slowdown(self) -> float:
        """Mean kernel time over all samples, as a multiple of ``REFERENCE_S``."""
        return statistics.fmean(self.ticks) / REFERENCE_S


def at_reference_speed(seconds: float, ticks: list[float]) -> float:
    """``seconds`` of work, kernel time excluded, at the speed where the kernel takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / statistics.fmean(ticks)


if __name__ == "__main__":
    pacer = Pacer()
    deadline = time.perf_counter() + 10.0
    while time.perf_counter() < deadline:
        pacer.tick()
    q = statistics.quantiles(pacer.ticks, n=10)
    print(f"reference kernel, {len(pacer.ticks)} runs: min {min(pacer.ticks) * 1e3:.3f} ms, "
          f"p10 {q[0] * 1e3:.3f} ms, p50 {statistics.median(pacer.ticks) * 1e3:.3f} ms, p90 {q[-1] * 1e3:.3f} ms")
