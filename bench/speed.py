"""Machine-speed probes, timed next to every request.

The benchmark shares a few cores of a host with other tenants.  Their load
changes this machine's speed by up to 40% over tens of seconds, in CPU time
as much as in wall time, so a plain wall-clock median moves with the hour
it was taken in.  ``probe()`` runs one fixed piece of work that mixes the
kinds of work done in the core's own caches: pure-Python arithmetic and
dict lookups, many small numpy calls, a statevector-sized pass and a small
BLAS matmul.  ``memory_probe()`` streams two arrays larger than a core's
cache through the cache that all cores share.  Other tenants slow the two
separately, and each workload is scaled by the one that bounds its work.
Their code and inputs live here, outside the package under test, so no
change to the package can change what they measure.

A request's reported time is its wall time scaled by the probe's reference
time over the median of the probes run around it (``rescale``): seconds at
the speed the machine had when the reference was measured.  The probes
work in preallocated arrays, so page faults and the garbage collector stay
out of them.  A change to the package moves the request time and not the
probe, so it still shows in full; a change in the machine's speed moves
both, and most of it cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on a 2 vCPU x86-64 Xeon (KVM guest) with Python 3.11.7,
# numpy 2.4.6 and OpenBLAS on one thread.  Only a scale: it turns the
# request/probe ratio back into seconds and must never change, or figures
# taken before and after the change stop being comparable.
REFERENCE_S = 0.008
# The same for memory_probe().
MEMORY_REFERENCE_S = 0.015

_rng = np.random.default_rng(20110609)
_SMALL = _rng.standard_normal((4, 4))
_BLAS = np.linalg.qr(_rng.standard_normal((120, 120)))[0]
_BLAS_OUT = np.empty((2, 120, 120))
# A 16-qubit state, 1 MiB like the larger sv_mixed states, as rows of 4
# amplitudes, and a 2-qubit unitary to apply to them.
_UNITARY = np.linalg.qr(_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)))[0]
_STATES = np.empty((2, 1 << 14, 4), dtype=complex)
_STATES[0] = (_rng.standard_normal((1 << 14, 4)) + 1j * _rng.standard_normal((1 << 14, 4))) / 256.0
_TABLE = {k: k * k for k in range(256)}
# Two 32 MiB arrays, as large as the ff_shots sampler's working set.
_STREAM = np.full((2, 4 << 20), 1.0)


def _python() -> int:
    acc = 0
    table = _TABLE
    for k in range(20000):
        acc = (acc + table[k & 255] * 3 + k) % 1000003
    return acc


def _small_numpy() -> float:
    acc = 0.0
    m = _SMALL
    for _ in range(600):
        acc += float((m @ m)[0, 0])
    return acc


def _statevector() -> complex:
    for k in range(12):
        np.matmul(_STATES[k % 2], _UNITARY, out=_STATES[1 - k % 2])
    return complex(_STATES[0, 0, 0])


def _blas() -> float:
    np.matmul(_BLAS, _BLAS, out=_BLAS_OUT[0])
    for k in range(11):
        np.matmul(_BLAS_OUT[k % 2], _BLAS, out=_BLAS_OUT[1 - k % 2])
    return float(_BLAS_OUT[1, 0, 0])


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    start = time.perf_counter()
    _python()
    _small_numpy()
    _statevector()
    _blas()
    return time.perf_counter() - start


def memory_probe() -> float:
    """Seconds taken to stream the two large arrays through memory once."""
    start = time.perf_counter()
    np.multiply(_STREAM[0], 1.0, out=_STREAM[1])
    np.multiply(_STREAM[1], 1.0, out=_STREAM[0])
    return time.perf_counter() - start


# Each kind of probe with its reference time.
PROBES = {"core": (probe, REFERENCE_S), "memory": (memory_probe, MEMORY_REFERENCE_S)}


def rescale(walls: list[float], probes: list[float], reference: float) -> list[float]:
    """Wall times at the reference speed.  Request k ran between probes k
    and k + 1; it is scaled by ``reference`` over the median of probes
    k - 1 to k + 2, so that one probe slowed by a brief disturbance does
    not skew its request."""
    return [
        wall * reference / statistics.median(probes[max(k - 1, 0) : k + 3])
        for k, wall in enumerate(walls)
    ]
