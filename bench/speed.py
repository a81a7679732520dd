"""Host-speed probe, so that timings can be scaled to one reference speed.

The benchmark runs on shared hosts whose speed changes by up to ~1.5x, in
states that last from a second to over a minute: everything in the
process, CPU time included, slows down together.  Taking the best of many
repeats cannot remove a slow state that outlasts the run.  So every timed
interval (one CLI invocation, one cold start) is bracketed by a probe, a
fixed computation that does not use fisusc, and its time is scaled by
REFERENCE_S / (mean of the two probe times): the time the same work takes
on a host that runs the probe in REFERENCE_S.  A change to fisusc moves the
scaled times as it moves the raw ones; a change of host speed moves the
probe with them and cancels.

The probe mixes the kinds of work fisusc does: Python bytecode, numpy calls
on 4x4 complex Hermitian matrices (call-overhead bound) and 32x32 LAPACK
and BLAS (arithmetic bound).  Each probe is the fastest of two runs, ~10 ms.
"""

import time

import numpy as np

REFERENCE_S = 0.005      # round figure; the probe took 3.6-7.8 ms on a 2 vCPU Xeon

_rng = np.random.default_rng(0)
_SMALL = []
for _ in range(8):
    _m = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
    _SMALL.append(_m + _m.conj().T)
_DENSE = _rng.standard_normal((32, 32))
_DENSE = _DENSE + _DENSE.T


def _probe_once():
    t0 = time.perf_counter()
    counts = {}
    for i in range(3000):
        counts[i % 17] = counts.get(i % 17, 0) + i * 0.5
    for _ in range(12):
        for m in _SMALL:
            w, v = np.linalg.eigh(m)
            np.kron(m, m).trace()
            (v * w) @ v.conj().T
    for _ in range(4):
        np.linalg.eigh(_DENSE)
        _DENSE @ _DENSE
    return time.perf_counter() - t0


def probe_s():
    """Seconds of the faster of two runs of the probe."""
    return min(_probe_once(), _probe_once())


class SpeedClock:
    """Probes the host between consecutive timed intervals.

    Create it just before the first interval, then call `factor()` right
    after each interval: it probes again and returns the scale for the
    interval since the previous probe.
    """

    def __init__(self):
        self._last = probe_s()
        self.probes = [self._last]

    def factor(self):
        now = probe_s()
        scale = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        self.probes.append(now)
        return scale
