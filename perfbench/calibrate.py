"""Fixed reference work whose duration tracks the machine's current speed.

On a shared host the same code runs up to 45% slower for minutes at a
time.  The benchmark times this reference next to each measurement and
scales the measured time by ``REFERENCE_SECONDS / reference time``, so that
drift of the machine's speed cancels while a change in the program's own
speed does not.  The mix of interpreter loop, complex exponentials and a
small matrix product resembles the per-call work of quditlearn's engines.
"""

from __future__ import annotations

import time

import numpy as np

# Mean duration of one reference call on the machine of baseline.json.
REFERENCE_SECONDS = 0.0014

_PHASES = np.arange(4096) / 4096
_LEFT = np.ones((13, 13))
_RIGHT = np.ones((13, 2197))


def reference_seconds(calls: int = 12) -> float:
    """Mean wall seconds of one call of the fixed reference work."""
    start = time.perf_counter()
    for _ in range(calls):
        total = 0
        for i in range(10000):
            total += i * i % 7
        for _ in range(4):
            np.cumsum(np.abs(np.exp(2j * np.pi * _PHASES)) ** 2)
            _LEFT @ _RIGHT
    return (time.perf_counter() - start) / calls
