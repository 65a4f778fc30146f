"""Host-speed calibration for timings taken on a shared machine.

The speed of a shared host wanders by tens of percent over seconds and
minutes, and CPU time moves with wall time, so neither reading alone
repeats from run to run.  ``kernel()`` is a fixed piece of work owned by
the benchmark (no echoqram code) of the same kinds as the program's hot
paths: an adaptive DOP853 integration with scipy's ``solve_ivp`` of a
driven 401-mode system (Python step control, small numpy vectors), then
pure-Python merging of complex amplitudes keyed by tuples (the addressing
algebra's kind of work).

A ``Meter`` times operations in segments with the kernel run between
them, and scales each segment to the reference speed by the mean of the
kernel times on its two sides:

    scaled = seconds * REF_KERNEL_S / mean(kernel before, kernel after)

``REF_KERNEL_S`` is the kernel's median time on the machine that defined
the benchmark (a shared 2-vCPU x86-64 VM, Python 3.11, numpy 2.4,
scipy 1.17), so scaled seconds read like that machine's seconds.  Because
the kernel runs no echoqram code, a faster program lowers the scaled time
exactly as it lowers the raw one.  What the scaling cannot remove is a
slow-down that hits the program and not the kernel, or the other way
round; the raw timings stay in the report line.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np
from scipy.integrate import solve_ivp

import tracer

REF_KERNEL_S = 0.092

# A call into a metered layer closes the running segment once it is this
# long, so that a long operation is scaled by the host's speed during it.
CUT_EVERY_S = 1.0
METERED_LAYERS = ("dynamics", "addressing")

_N = 401
_DETUNINGS = np.linspace(-5.0, 5.0, _N)
_WEIGHTS = np.random.default_rng(1).random(_N) / _N
_DAMP = -(1j * _DETUNINGS + 1e-3)
_MIG = -1j * np.sqrt(_WEIGHTS)
_Y0 = np.zeros(_N + 4, dtype=complex)


def _rhs(t: float, y: np.ndarray) -> np.ndarray:
    b = y[3:3 + _N]
    dy = np.empty_like(y)
    dy[0] = -0.5 * y[0] - 1j * y[2] + math.exp(-t * t)
    dy[1] = -0.5 * y[1] - 1j * y[0]
    dy[2] = _MIG @ b - 1j * y[0]
    dy[3:3 + _N] = _DAMP * b + _MIG * y[2]
    dy[3 + _N] = abs(y[0]) ** 2
    return dy


def _merge_amplitudes(rounds: int = 120, width: int = 400) -> int:
    terms = {(i % 7, i % 11, i): complex(1.0, i) for i in range(width)}
    for r in range(rounds):
        merged: dict = {}
        for (a, b, i), amp in terms.items():
            key = ((a + r) % 7, b, i % 251)
            merged[key] = merged.get(key, 0j) + amp * (0.5 - 0.25j)
        terms = {k: v for k, v in merged.items() if abs(v) ** 2 > 1e-300}
    return len(terms)


def kernel() -> float:
    """Seconds taken by the fixed calibration work: 2,198 right-hand-side
    evaluations, then 120 rounds of merging up to 400 amplitudes."""
    t0 = time.perf_counter()
    sol = solve_ivp(_rhs, (-3.0, 21.0), _Y0, method="DOP853",
                    rtol=1e-10, atol=1e-13)
    _merge_amplitudes()
    elapsed = time.perf_counter() - t0
    if not sol.success:
        raise RuntimeError(f"calibration kernel failed: {sol.message}")
    return elapsed


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the kernel times around it."""
    return seconds * REF_KERNEL_S / (0.5 * (before + after))


class Meter:
    """Raw and scaled seconds of operations, timed between kernel runs.

    ``begin()`` starts an operation and ``end()`` closes it, returning
    (raw, scaled) seconds; ``cut()`` closes the running segment and runs
    the kernel.  Kernel time is in no segment.  While installed, every
    call into a public function of ``echoqram.dynamics`` or
    ``echoqram.addressing`` (and every ``solve_ivp`` that dynamics makes)
    cuts the segment once it is longer than ``CUT_EVERY_S``.
    """

    def __init__(self):
        self.kernels = [kernel()]
        self._start: float | None = None
        self._raw = self._scaled = 0.0
        self._patched: list = []

    def begin(self) -> None:
        self._raw = self._scaled = 0.0
        self._start = time.perf_counter()

    def cut(self) -> None:
        seg = time.perf_counter() - self._start
        k = kernel()
        self._raw += seg
        self._scaled += scale(seg, self.kernels[-1], k)
        self.kernels.append(k)
        self._start = time.perf_counter()

    def end(self) -> tuple[float, float]:
        self.cut()
        self._start = None
        return self._raw, self._scaled

    def _maybe_cut(self) -> None:
        if self._start is not None and \
                time.perf_counter() - self._start >= CUT_EVERY_S:
            self.cut()

    def _wrap(self, fn):
        def metered(*args, **kwargs):
            self._maybe_cut()
            try:
                return fn(*args, **kwargs)
            finally:
                self._maybe_cut()
        metered.__wrapped__ = fn
        return metered

    def __enter__(self):
        originals = {}
        for layer in METERED_LAYERS:
            for obj in tracer.public_functions(layer).values():
                originals[id(obj)] = (obj, self._wrap(obj))
        dyn = sys.modules["echoqram.dynamics"]
        if hasattr(dyn, "solve_ivp"):
            originals[id(dyn.solve_ivp)] = (dyn.solve_ivp, self._wrap(dyn.solve_ivp))
        self._patched = tracer.patch_everywhere(originals)
        return self

    def __exit__(self, *exc):
        tracer.restore(self._patched)
        return False
