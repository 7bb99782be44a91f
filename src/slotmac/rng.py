"""Counter-based random number streams.

Every stochastic routine in this package draws from an ``RngStream``: a
(master seed, stream id) pair that deterministically names an independent
PCG64 stream via numpy's ``SeedSequence`` spawning mechanism.  Streams are
cheap to construct, never share state, and the same (seed, id) pair always
replays the same draw sequence.  Each unit of work derives its stream from
*what* it is, not from *when* it runs, so results are byte-identical however
``run_units``, the one scheduler of tournament pairings and stopping-time
chunks, splits the work across threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Domain tags keep streams from unrelated subsystems disjoint even if the
# rest of the stream id happens to collide.
DOMAIN_GAME = 0
DOMAIN_CAPTURE = 1
DOMAIN_MULTICHANNEL = 2
DOMAIN_MISC = 3


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    ``seed`` is the master seed of the whole run; ``stream`` is a tuple of
    non-negative integers identifying this particular stream (domain tag,
    pairing indices, chunk index, player index, ...).
    """

    seed: int
    stream: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0 or any(s < 0 for s in self.stream):
            raise ValueError(f"seed {self.seed} and stream id {self.stream} must be non-negative")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream.

        Calling this twice gives two generators that produce identical
        sequences; that is intentional and is what makes replay work.
        """
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.PCG64(ss))


def run_units(count: int, run: Callable[[int], None], workers: int) -> None:
    """Call ``run(u)``, which writes its result by index, for each u in
    range(count) on min(count, workers) threads.  Worker w runs units w,
    w + workers, ...; the calling thread is worker 0, because each thread's
    temporaries stay in its own malloc arena after it is done: a pool
    thread for every worker would leave the caller's arena idle and raise
    the peak RSS.  A unit's exception re-raises here."""
    workers = min(count, workers)

    def work(first: int) -> None:
        for unit in range(first, count, workers):
            run(unit)

    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        helpers = [pool.submit(work, w) for w in range(1, workers)]
        work(0)
        for helper in helpers:
            helper.result()
