"""Host-speed probe, used to normalize timings taken on a shared machine.

On a host shared with other tenants, the same work can take 1.5 to 3 times
longer for tens of seconds at a time. A run of the benchmark measures the
program and, interleaved with it, this fixed kernel, which does not call
flowcbr but does the same kinds of work: interpreter loops over small
tuples and dicts, float formatting and JSON parsing, and row-distance
scans on a small matrix. Both slow down together, so the program's time
divided by the kernel's time varies far less than either. Over five
minutes on a 2-vCPU Intel Xeon VM at 2.1 GHz, medians of serve_known's
classify wall time over 15-second windows spread by 0.21 of their median
(interquartile range); their ratios to the kernel's median time in the
same windows spread by 0.07.

Normalized timings are expressed at the reference speed: the speed at which
the kernel takes ``REFERENCE_S`` seconds, about its median on that VM.
"""

from __future__ import annotations

import json
import time

import numpy as np

REFERENCE_S = 0.15


def kernel_seconds() -> float:
    """Wall seconds of one pass of the fixed kernel."""
    start = time.perf_counter()
    matrix = np.random.default_rng(12345).random((1000, 183))
    totals: dict[int, int] = {}
    for i in range(60_000):
        item = (i * 0.001, i % 2 == 0, 60 + i % 1400, i % 7)
        totals[item[3]] = totals.get(item[3], 0) + item[2]
    json.loads(json.dumps([[float(x) for x in row] for row in matrix[:150]]))
    for i in range(200):
        diff = matrix - matrix[i]
        np.sqrt(np.einsum("ij,ij->i", diff, diff)).argmin()
    return time.perf_counter() - start


def at_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
