"""Working memory of the capture-side kernels, pinned with ``tracemalloc``.

numpy reports its array buffers to ``tracemalloc``, so a traced peak counts
every array a kernel holds at once.  One worker keeps the peak to a single
chunk's temporaries, and a first untraced call keeps out one-time costs.
Each bound is above the kernel's peak and well below what it was when the
ends were int64, the virtual pair's slots stepped all of its episodes at
once and the grid scan held grid^3 points:
``simulate_virtual_pair(1_000_000)`` 31.5 MiB, ``simulate_capture`` at 100
users and 1M episodes 11.3 MiB, ``optimize_three_user_two_channel()``
40.3 MiB and its grid of 201 317.5 MiB.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from slotmac import capture
from slotmac.capture import GroupSplittingPolicy, simulate_capture, simulate_virtual_pair, solve_capture_table
from slotmac.multichannel import optimize_three_user_two_channel

MIB = 1 << 20


@functools.cache
def _policy(users: int) -> GroupSplittingPolicy:
    return GroupSplittingPolicy(solve_capture_table(users))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_numpy_buffers_are_traced():
    # else every bound below would hold vacuously
    assert _traced_peak(lambda: np.ones(4 * MIB, dtype=np.uint8)) >= 4 * MIB


# name -> (call, bound in MiB)
KERNELS = {
    "virtual_pair": (lambda: simulate_virtual_pair(1_000_000, seed=0), 14),
    "capture_100_users": (lambda: simulate_capture(_policy(100), 100, 1_000_000, seed=0), 8),
    "optimize_default_grid": (lambda: optimize_three_user_two_channel(), 8),
    "optimize_grid_201": (lambda: optimize_three_user_two_channel(grid=201), 32),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_capture_kernels_stay_inside_their_memory_bound(name, monkeypatch):
    monkeypatch.setattr(capture, "_usable_cpus", lambda: 1)
    call, bound_mib = KERNELS[name]
    call()  # untraced first, so the solved table and anything imported lazily are not counted
    peak = _traced_peak(call)
    assert peak < bound_mib * MIB, f"{name}: traced peak {peak / MIB:.1f} MiB"
