"""Machine-speed probe used to put timings on one scale.

On a shared host the same code runs up to about 1.8x slower for tens of
seconds at a time, in CPU time as well as wall time.  probe() times a fixed
mix of the work ncup does (interpreted Python, small batched numpy linear
algebra and a JSON round trip).  The speed flips within fractions of a
second, so a probe repeats the work over a window and averages.  A timing
measured while the probe takes p seconds is reported as
timing * REFERENCE_S / p, i.e. at the speed at which the probe takes
REFERENCE_S.
"""

from __future__ import annotations

import json
import time

import numpy as np

REFERENCE_S = 0.0065

# Bound at import, before tracing.install can wrap them, so traced runs
# do not count the probe's own calls.
_svd = np.linalg.svd
_einsum = np.einsum

_GRID = np.arange(32 * 8 * 8).reshape(32, 8, 8)
_MATRICES = (_GRID % 7 + 1j * (_GRID % 5)).astype(np.complex128)
_DOCUMENT = [[i / 7.0, i / 3.0] for i in range(1000)]


def _once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i
    for _ in range(10):
        _svd(_MATRICES, compute_uv=False)
        _einsum("nab,ncb->ac", _MATRICES, _MATRICES.conj())
    json.loads(json.dumps(_DOCUMENT))
    return time.perf_counter() - start


def probe(window_s: float) -> float:
    """Mean seconds the fixed work takes, repeated for about window_s."""
    times = [_once(), _once(), _once()]
    while sum(times) < window_s:
        times.append(_once())
    return sum(times) / len(times)


def scale(seconds: float, probe_s: float) -> float:
    """A timing taken while the probe took probe_s, at the reference speed."""
    return seconds * REFERENCE_S / probe_s
