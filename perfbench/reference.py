"""A fixed unit of reference work, to scale operation times by host speed.

On a shared virtual machine the CPU speed can move by up to 2x in phases
that last from well under a second to minutes (README.md, "Run record and
noise"), and an operation of a second or more cannot slip between them.
A few units of this work, timed just before each operation, give the
host's speed at that moment: `run.round_time` divides the operation's
time by theirs.  The unit uses neither mastrat nor anything mastrat
changes, so a change to the program moves the operation and not the unit.
It mixes interpreted Python (dict and tuple work, as in the search loops)
with numpy array passes (as in the word counts).
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

# Nominal seconds of one unit: its median on the 2-vCPU machine the README
# describes.  Scaled times are in seconds at this speed.
UNIT_S = 0.0033

_rng = np.random.default_rng(0)
_KEYS = [tuple(int(v) for v in _rng.integers(256, size=8)) for _ in range(250)]
_INDEX = _rng.integers(1 << 16, size=1 << 16)
_TABLE = _rng.integers(1 << 16, size=1 << 16)
_BUFFER = np.empty(1 << 16, dtype=np.int64)


def unit() -> None:
    seen: dict[tuple, int] = {}
    for _ in range(8):
        for key in _KEYS:
            if seen.get(key) is None:
                seen[key] = sum(key) & 7
        seen.clear()
    # Array passes over half a megabyte, into a preallocated buffer, so
    # that the unit's time does not depend on the allocator's state.
    x = _BUFFER
    for _ in range(4):
        np.take(_TABLE, _INDEX, out=x)
        np.bitwise_xor(x, _INDEX, out=x)
        np.cumsum(x, out=x)
        np.bitwise_and(x, 65535, out=x)


def time_units(count: int) -> float:
    """Median seconds of one unit over `count` back-to-back units."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        unit()
        times.append(perf_counter() - t0)
    return median(times)
