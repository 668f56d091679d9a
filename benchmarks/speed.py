"""Machine-speed probes: fixed kernels that measure how fast the host runs
right now, so measured times can be scaled to a reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x within minutes (co-tenants on sibling hyperthreads and the memory
bus), with no steal time to show for it.  The program cannot change the
kernels: they are the benchmark's own code and use only the stdlib, numpy
and the interpreter.  Timing one right before and right after a stretch of
the program and dividing gives that stretch's time at reference speed::

    scaled = raw * REFERENCE_S[kernel] / probe_s

``REFERENCE_S`` holds each kernel's median time, rounded, on the machine the
baseline in ``README.md`` was measured on (a 2-vCPU Xeon VM), so scaled
times read as seconds on that machine.

Contention slows different kinds of work by different factors, so each
workload is scaled by the kernel that does the kind of work its pass does
(``Workload.kernel``), chosen from recordings of every workload with
several candidate kernels timed around each step (see ``README.md``):

- ``small_calls``: a Python loop of small numpy calls (``arange`` slices of
  a CSR index, ``concatenate``, short random draws and gathers), the
  pattern of the Monte Carlo step and of the mean-field code at 10^3 nodes;
- ``large_arrays``: ``reduceat`` over gathered products and a norm on
  arrays of a few MB, the pattern of the link tables, power iteration and
  mean-field steps at 10^5 nodes.

Set-up (interpreter start, imports, inputs) is scaled by :func:`launch`,
the time to start the interpreter and import numpy.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter, process_time

import numpy as np

REFERENCE_S = {"small_calls": 0.029, "large_arrays": 0.050}
LAUNCH_REFERENCE_S = 0.21

_rng = np.random.default_rng(12345)
_N = 100_000
_indptr = np.concatenate(([0], np.cumsum(_rng.integers(1, 12, size=_N))))
_indices = _rng.integers(0, _N, size=int(_indptr[-1]))
_values = _rng.random(_indices.size)
_x = _rng.random(_N)
_ids = np.sort(_rng.choice(_N, size=2_000, replace=False))


def _small_calls() -> None:
    rng = np.random.default_rng(7)
    for _ in range(6):
        flat = np.concatenate([np.arange(_indptr[i], _indptr[i + 1]) for i in _ids])
        received = rng.random(flat.size) < _values[flat]
        _x[_indices[flat[received]]].sum()


def _large_arrays() -> None:
    y = _x
    for _ in range(10):
        y = np.add.reduceat(_values * y[_indices], _indptr[:-1])
        y = y / np.sqrt(y.dot(y))


KERNELS = {"small_calls": _small_calls, "large_arrays": _large_arrays}


def probe(kernel: str) -> float:
    """Seconds ``kernel`` takes now (about ``REFERENCE_S[kernel]`` at reference speed)."""
    start = perf_counter()
    KERNELS[kernel]()
    return perf_counter() - start


def scale(raw_s: float, kernel: str, probe_s: float) -> float:
    """``raw_s`` measured while ``kernel`` took ``probe_s``, at reference speed."""
    return raw_s * REFERENCE_S[kernel] / probe_s


def launch() -> float:
    """Seconds to start this interpreter and import numpy, in a new process
    with this one's environment (about ``LAUNCH_REFERENCE_S``)."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return perf_counter() - start


class PassClock:
    """Times one pass in segments with the kernel timed between them.

    A long pass spans several swings of host speed, so a workload may call
    :meth:`lap` between the steps of its pass; each segment is then scaled
    by the mean of the probes on either side of it.  Probe time is left out
    of every figure the clock keeps: ``raw`` (wall seconds as timed),
    ``scaled`` (at reference speed) and ``cpu`` (user + system seconds).
    """

    def __init__(self, kernel: str, probe_before: float):
        self.kernel = kernel
        self.probe_s = probe_before
        self.raw = self.scaled = self.cpu = 0.0
        self._start = perf_counter()
        self._cpu_start = process_time()

    def lap(self) -> None:
        """End the current segment, time the kernel and start the next one."""
        segment = perf_counter() - self._start
        self.cpu += process_time() - self._cpu_start
        after = probe(self.kernel)
        self.raw += segment
        self.scaled += scale(segment, self.kernel, (self.probe_s + after) / 2)
        self.probe_s = after
        self._start = perf_counter()
        self._cpu_start = process_time()
