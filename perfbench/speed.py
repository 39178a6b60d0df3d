"""Speed of the host, read from a fixed reference loop timed between calls.

On a shared host, co-tenants can slow every process by up to about 1.6x for
seconds to minutes at a time (seen on a 2-vCPU Xeon 2.1 GHz VM, where a
fixed Python loop ran at either 0.41 or 0.66 ms per pass), so a run of a
few tens of seconds can fall wholly in a slow or a fast phase.  The timed
loops probe the host's speed with a reference pass that shares no code with
twomode, and scale each call's wall time by how long the probes around it
took.  The program's own speed-ups and slow-downs leave the probes as they
are, so they still show in full.

The host's speed also jitters by about 10% from one reference pass to the
next, which a call of a second averages out but a probe of a few passes
does not.  So a probe lasts a fixed share of the time it brackets and
reports its mean pass: in ten to twelve 20-second runs per workload
(scaled offline from the same recorded passes), this took the spread (IQR
over median) of latency_p99_ms from 0.22 to 0.11 on bounds_extremal and from
0.21 to 0.12 on scan_slice, and that of throughput from 0.10 to 0.04 and
from 0.07 to 0.05, against probes of three passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Reported times read as if one reference pass took this long: about its
#: time on the VM above with no co-tenant load.
NOMINAL_PASS_S = 4.0e-4
#: Share of the time a probe brackets that the probe itself lasts.
PROBE_SHARE = 0.08
#: Least reference passes per probe.
MIN_PASSES = 3


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


_MATRIX = np.array([[1.0, 0.2], [0.2, 3.0]])


def _reference_pass() -> float:
    """Interpreter, dataclass and small-array work, as twomode's calls do."""
    acc = 0.0
    for i in range(50):
        p = _Point(i * 0.5, math.sqrt(i + 1.0))
        acc += p.x * p.y + float(np.min(_MATRIX * p.y)) + float(np.linalg.det(_MATRIX))
    return acc


def probe(bracketed_s: float) -> float:
    """Seconds one reference pass takes now: the mean of the passes made in
    PROBE_SHARE of ``bracketed_s``, the time this probe stands for."""
    total = 0.0
    passes = 0
    while passes < MIN_PASSES or total < PROBE_SHARE * bracketed_s:
        t0 = perf_counter()
        _reference_pass()
        total += perf_counter() - t0
        passes += 1
    return total / passes


def scale(before: float, after: float) -> float:
    """Factor turning a wall time taken between two probes into a time at
    nominal speed."""
    return NOMINAL_PASS_S / (0.5 * (before + after))
