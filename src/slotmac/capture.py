"""Minimum expected capture time for n symmetric users on one channel.

n users want some single user to transmit alone as soon as possible; all
anyone learns each slot is how many transmitted.  The good policies are
group-splitting: everyone in the active group transmits with a probability
tuned to the group size, a solo transmission ends the episode, an all-or-
nothing slot reveals nothing, and any other count splits the group into
transmitters and non-transmitters, keeping whichever side is faster to
finish.  That gives the recursion

    z_n = min over p of
        (1 + sum_{i=2}^{n-1} min(z_i, z_{n-i}) C(n,i) p^i (1-p)^{n-i})
        / (1 - p^n - (1-p)^n)

with z_1 = 1.  The minimizing p_n and the values z_n are tabulated by
``solve_capture_table``; note z_3 < z_2, three users finish faster than
two because a 2-of-3 collision identifies a pair AND an odd man out.

Each stage n screens the whole p-grid with one numpy evaluation of the
objective, then runs the exact scalar ``capture_objective`` only at the
grid points the screen cannot rule out and inside the golden-section
polish: about 34 O(n) Python calls a stage instead of 1,032, so a table is
O(n^2) Python work rather than O(n^3).  The binomial weights are built once
a stage (``_weights``) from Pascal's row n, itself row n - 1 plus exact
integer additions, and shared by the screen and the scalar calls.  The
screen takes each term in log space, exp(log w_i + i log p + (n-i) log q),
and only picks the points the scalar code visits, so every p_n and z_n is
the scalar code's number (see ``optimize``).  On a 2-core host n = 100
takes about 0.1 s, n = 300 about 1 s and n = 1027 about 16 s.  The solver
stops at ``MAX_USERS`` = 1027, the largest n for which C(n, n // 2) * e
is a finite float, so that every weight
min(z_i, z_{n-i}) C(n, i) with z <= e is finite; larger n raises
``ValueError``.

``converse_checks`` collects the supporting evidence that these values are
not an artifact of the policy family: a virtual-device argument pinning
z_2 = 2, a three-user relaxation whose infimum over all symmetric
memoryless behaviors reproduces z_3, and the e-bound z_n <= (1-1/n)^-(n-1)
<= e for all n.

Every Monte Carlo estimate here and in ``multichannel`` runs through one
stopping-time loop, ``_stopping_times``.  Episodes go in chunks of
``CHUNK_SIZE``, chunk c drawing from its own stream, and ``rng.run_units``
runs the chunks on one thread per usable CPU, never more than there are
chunks.  Each chunk writes its episodes' end slots, in the narrowest
unsigned type that holds ``max_slots``, into its own slice of one array,
so the worker count never changes an output bit.  A chunk carries one
int64 id per open episode, in episode order: the episode's row, the state
a simulator keeps for it, in the high bits and its index in the chunk in
the low ``INDEX_BITS``.  Each slot t a simulator's step sees the ids of
the still-open episodes, ``CHUNK_SIZE`` at a time in id order, and returns
one int64 array, their next row bits, -1 for those that end at t; a
deterministic slot, like the three-user follow-up, is a row that ends at
the next slot.  The loop writes t as the end of every open episode, so
the last write stands, puts the indices back under the row bits and
compacts each block's survivors with one ``compress`` into the blocks
already read.  An end past ``max_slots`` is censored: reset to 0, counted
in ``SimSummary.censored`` and left out of the mean.

The steps read raw PCG64 words where numpy's draws would: a word w is the
uniform (w >> 11) 2^-53 of ``Generator.random``, and w >> 52 its bucket,
which ``_bucket_table`` tables for the capture step and ``multichannel``'s
subset codes alike, marking a bucket a threshold falls in ``SLOW``.  The
virtual pair's coins are bits 31 and 63 of a word, as
``Generator.integers(0, 2, size=(n, 2))`` returns them.

``simulate_capture``'s step, ``_CaptureStep``, keeps each episode's group
size's row of ``_policy_rows`` and reads numpy's binomial, an inversion of
one uniform when min(p, 1 - p) m <= 30, from tables: the bucket of the
word in the group's row holds the next group's row bits, so a slot is one
gather and one compaction per open episode.  ``tests/test_inversion_tables.py`` fails
first if a later numpy changes its sampler or its draws from raw words.
On a 2-vCPU host 4M episodes at 100 users take about 0.12 s on two
workers and 0.14 s on one.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .game import TRANSMIT, CapturePolicy, policy_prob, policy_side
from .optimize import check_tol, scan_then_golden
from .rng import DOMAIN_CAPTURE, DOMAIN_MISC, RngStream, run_units

SCAN_POINTS = 999  # dense scan over p in {0.001, ..., 0.999}
MAX_USERS = 1027  # largest n with C(n, n // 2) * e finite in float64
CHUNK_SIZE = 65_536  # episodes per simulation chunk, each with its own stream
INDEX_BITS = 32  # an episode's id holds its index in its chunk in the low bits, its row above
INDEX_MASK = (1 << INDEX_BITS) - 1
BUCKET_BITS = 41  # a bucket is the top 12 of a uniform j 2^-53's 53 bits, a raw word w's top 12 as j = w >> 11
SLOW = -2  # a bucket-table entry whose bucket holds a threshold: the draw is looked up on its own
RELAXATION_GRID = 401  # points per axis of each zoom of the three-user relaxation scan
RELAXATION_ZOOMS = 8


@dataclass(frozen=True)
class CaptureTable:
    """Solved table, 1-indexed: probs[n] and values[n] are p_n and z_n.
    Index 0 is a nan placeholder so code can say table.values[n]."""

    probs: tuple[float, ...]
    values: tuple[float, ...]

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def rows(self) -> list[tuple[int, float, float]]:
        return [(n, self.probs[n], self.values[n]) for n in range(1, self.n_max + 1)]

    def to_csv(self) -> str:
        lines = ["n,p,z"]
        for n, p, z in self.rows():
            lines.append(f"{n},{p:.6f},{z:.6f}")
        return "\n".join(lines) + "\n"


def capture_objective(n: int, p: float, z_prefix, weights: list[float] | None = None) -> float:
    """Expected capture time for n users transmitting with probability p in
    the first slot and splitting optimally afterwards.

    ``z_prefix[i]`` must hold z_i for 1 <= i < n (index 0 is ignored).
    ``weights``, if given, must be ``_weights(n, z_prefix)``; a caller
    evaluating many p at one n builds it once.  Defined for
    2 <= n <= MAX_USERS and 0 < p < 1.
    """
    if n < 2:
        raise ValueError("the objective needs at least two users")
    if n > MAX_USERS:
        raise ValueError(f"the capture objective overflows float64 above n = {MAX_USERS}")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be strictly inside (0, 1)")
    if weights is None:
        weights = _weights(n, z_prefix)
    q = 1.0 - p
    numer = 1.0
    for i, w in enumerate(weights, start=2):
        numer += w * p**i * q ** (n - i)
    return numer / (1.0 - p**n - q**n)


def _weights(n: int, z_prefix, row: list[int] | None = None) -> list[float]:
    """min(z_i, z_{n-i}) C(n, i) for 2 <= i < n, with C(n, i) = ``row[i]``
    when the caller has Pascal's row n.  ``float * int`` rounds the int to a
    double before multiplying, so w_i * p**i * q**(n-i) has the bits of
    min(z_i, z_{n-i}) * C(n, i) * p**i * q**(n-i)."""
    if row is None:
        row = [math.comb(n, i) for i in range(n + 1)]
    return [min(z_prefix[i], z_prefix[n - i]) * row[i] for i in range(2, n)]


def solve_capture_table(n_max: int, tol: float = 1e-9) -> CaptureTable:
    """Solve the recursion up to n_max users.

    Each stage scans p densely and polishes the best bracket with
    golden-section search down to width tol, so every z_n is pinned far
    tighter than the table is ever printed.  The scan is screened by
    ``_screen``; the values are those of the unscreened scalar scan.
    """
    if not 1 <= n_max <= MAX_USERS:
        raise ValueError(f"n_max must be between 1 and {MAX_USERS}")
    check_tol(tol)
    probs = [math.nan, 1.0]
    values = [math.nan, 1.0]
    row = [1, 1]
    for n in range(2, n_max + 1):
        row = [1, *map(operator.add, row, row[1:]), 1]  # exact ints: C(n, i) = C(n-1, i-1) + C(n-1, i)
        weights = _weights(n, values, row)
        # weights go positionally: call-counting wrappers of
        # capture_objective forward positional arguments only
        p, z = scan_then_golden(
            lambda p: capture_objective(n, p, values, weights), 0.001, 0.999, SCAN_POINTS, tol,
            screen=_screen(n, weights),
        )
        probs.append(p)
        values.append(z)
    return CaptureTable(tuple(probs[: n_max + 1]), tuple(values[: n_max + 1]))


def _screen(n: int, weights: list[float]) -> Callable[[np.ndarray], np.ndarray]:
    """``capture_objective(n, ., z_prefix, weights)`` over an array of p at
    once, each term taken in log space as exp(log w_i + i log p + (n-i) log q).
    It agrees with the scalar sum to a few 1e-12 up to ``MAX_USERS``, far
    inside ``optimize.SCREEN_SLACK`` / 2."""
    i = np.arange(2, n)
    with np.errstate(divide="ignore"):
        log_w = np.log(np.array(weights, dtype=np.float64))

    def screen(p: np.ndarray) -> np.ndarray:
        q = 1.0 - p
        terms = np.exp(log_w + i * np.log(p)[:, None] + (n - i) * np.log(q)[:, None])
        return (1.0 + terms.sum(axis=1)) / (1.0 - p**n - q**n)

    return screen


# ---------------------------------------------------------------------------
# policies


@dataclass(frozen=True)
class GroupSplittingPolicy:
    """The policy the recursion describes, driven by a solved table."""

    table: CaptureTable

    def _check(self, group_size: int) -> None:
        if not 1 <= group_size <= self.table.n_max:
            raise ValueError(f"group size {group_size} is outside the solved table's 1..n_max = {self.table.n_max}")

    def transmit_prob(self, group_size: int) -> float:
        self._check(group_size)
        return self.table.probs[group_size]

    def survivor(self, group_size: int, transmitted: int) -> str:
        self._check(group_size)
        zs = self.table.values
        # ties go to the transmitters
        if zs[transmitted] <= zs[group_size - transmitted]:
            return "transmitters"
        return "silent"


@dataclass(frozen=True)
class FixedProbabilityPolicy:
    """Everyone transmits with the same probability every slot, learning
    nothing from collisions.  A useful baseline and stress case."""

    p: float

    def transmit_prob(self, group_size: int) -> float:
        return self.p

    def survivor(self, group_size: int, transmitted: int) -> str:
        return "repeat"


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SimSummary:
    """Mean of a simulated stopping time.  Censored episodes (still running
    at max_slots) are counted and excluded from the mean, never folded in."""

    episodes: int
    completed: int
    censored: int
    mean: float
    stderr: float

    def to_json_dict(self) -> dict:
        # with fewer than two completed episodes the mean or stderr is NaN,
        # which JSON cannot hold: write null
        return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in asdict(self).items()}


def summarize_times(times: np.ndarray, censored: int) -> SimSummary:
    """The bits of ``np.mean`` and ``np.std(ddof=1)``, the mean taken as
    numpy's ``_var`` takes it, without std's episodes-sized temporary."""
    completed = len(times)
    if completed == 0:
        return SimSummary(censored, 0, censored, math.nan, math.nan)
    mean = np.add.reduce(times, dtype=np.float64, keepdims=True) / completed
    stderr = math.sqrt(_squares(times, mean) / (completed - 1)) / math.sqrt(completed) if completed > 1 else math.nan
    return SimSummary(completed + censored, completed, censored, float(mean[0]), stderr)


def _squares(times: np.ndarray, mean: np.ndarray) -> float:
    """sum((times - mean)^2) on numpy's pairwise tree, split at n // 2 - n // 2 % 8."""
    if len(times) > 1 << 16:
        half = len(times) // 2 - len(times) // 2 % 8
        return _squares(times[:half], mean) + _squares(times[half:], mean)
    x = times - mean
    return np.add.reduce(np.multiply(x, x, out=x))


def _policy_rows(policy: CapturePolicy, users: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Materialize a policy as rows for the vectorized loop, one per group
    size reachable from ``users``, numbered in the order they are reached:
    ``sizes[r]`` is row r's size (row 0 is ``users``) and ``probs[r]`` its
    transmit probability, and the row left after k of its m transmit is
    ``after[koff[r] + k]`` (r itself when the policy repeats, -1 at k = 1,
    which captures); row r starts at ``koff[r]``.  The policy is asked about
    reachable sizes only, so a policy that never splits builds one row."""
    sizes = [users]
    row_of = {users: 0}
    probs: list[float] = []
    after: list[int] = []
    for r, m in enumerate(sizes):  # ``sizes`` grows as new sizes are reached
        probs.append(policy_prob(policy, m))
        sides = [(k, policy_side(policy, m, k)) for k in range(2, m)]
        splits = [m if side is None else k if side == TRANSMIT else m - k for k, side in sides]
        rows = [row_of.setdefault(size, len(row_of)) for size in splits]  # a new size takes the next row
        sizes += list(row_of)[len(sizes):]
        after += [r, -1, *rows, r][: m + 1]  # k = 0, 1, 2..m-1, m
    m = np.array(sizes, dtype=np.int64)
    return m, np.array(probs), np.cumsum(m + 1) - (m + 1), np.array(after, dtype=np.int64)  # a row of size m has m + 1


def _bucket_table(thresholds: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For a draw j whose outcome is #{k : j > t_k}, t non-decreasing: per bucket
    [b 2^41, (b + 1) 2^41) of j, b < 4,096, ``values`` at the outcome where no
    t_k falls inside it, else ``SLOW``; ``values`` covers outcomes 0..len(t)."""
    first = np.arange(4096, dtype=np.int64) << BUCKET_BITS
    count = np.searchsorted(thresholds, first)
    pure = count == np.searchsorted(thresholds, first | ((1 << BUCKET_BITS) - 1))
    return np.where(pure, values[count], SLOW)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _stopping_times(stream: Callable[[int], RngStream], episodes: int, step: Callable, max_slots: int = 10_000,
                    chunk_size: int = CHUNK_SIZE) -> SimSummary:
    """The loop of the module docstring: chunk c of n episodes draws from
    ``stream(c)``, every episode starting in row 0, and slot t calls
    ``step(gen, ids)`` on the open episodes' ids, at most ``CHUNK_SIZE`` at
    a time, for one new int64 array of their next row bits, -1 where an
    episode ends at t.  Draws and fancy indexing release the GIL."""
    if episodes < 1 or max_slots < 1:
        raise ValueError("need episodes >= 1 and max_slots >= 1")
    if min(episodes, chunk_size) > INDEX_MASK + 1:
        raise ValueError(f"a chunk holds at most {INDEX_MASK + 1} episodes")

    # the chunks write their ends into slices of one array the caller owns,
    # so no worker allocates anything that outlives its chunk; 2 bytes an end at 10,000 slots
    ends_type = next((d for d in (np.uint8, np.uint16, np.uint32) if max_slots <= np.iinfo(d).max), np.uint64)
    done_at = np.zeros(episodes, dtype=ends_type)

    def run_chunk(chunk: int) -> None:
        ends = done_at[chunk * chunk_size: (chunk + 1) * chunk_size]
        gen = stream(chunk).generator()
        ids = np.arange(len(ends), dtype=np.int64)
        for t in range(1, max_slots + 1):
            if len(ids) == 0:
                break
            kept = 0
            for lo in range(0, len(ids), CHUNK_SIZE):  # in id order, so each write lands in a block already read
                block = ids[lo:lo + CHUNK_SIZE]
                row = step(gen, block)
                block &= INDEX_MASK  # in place: the step is done with the ids
                ends[block] = t  # kept by the episodes that end now, overwritten by the rest
                row |= block
                keep = row >= 0
                kept += len(np.compress(keep, row, out=ids[kept:kept + np.count_nonzero(keep)]))
            ids = ids[:kept]
        ends[ids & INDEX_MASK] = 0  # open after max_slots: censored

    run_units(-(-episodes // chunk_size), run_chunk, _usable_cpus())
    censored = episodes - int(np.count_nonzero(done_at))
    # with none censored the ends themselves are the completed times, in the same order
    return summarize_times(done_at[done_at > 0] if censored else done_at, censored)


class _CaptureStep:
    """One slot of ``simulate_capture`` for a chunk's open episodes:
    ``step(gen, ids)`` draws ``Generator.binomial(m, p_m)`` for each
    episode's group size m and maps the count k to the next row through
    the policy's ``after``, from the same uniforms numpy would read.

    It takes ``_policy_rows`` as they are; an episode's id is
    r << ``ROW_SHIFT`` | its index, and ``next[koff[r] + k]`` holds the bits
    of the row that k of m leave (``after`` shifted), or -1 where k = 1
    captures.

    numpy 2.4 draws a binomial with min(p, 1 - p) m <= 30 by inversion
    (Kachitvichyanukul & Schmeiser, CACM 31(2), 1988) on p' = min(p, 1 - p),
    returning m - X for p > 0.5.  With q = 1 - p', qn = exp(m log1p(-p')),
    bound = (int64) min(m, m p' + 10 sqrt(m p' q + 1)), it reads
    U = j 2^-53 and walks X = 0, 1, ... while U > px, subtracting px from U
    and taking px = ((m - X + 1) p' px) / (X q), and redraws U once X passes
    bound.  Rounded subtraction is monotone, so X is non-decreasing in j:
    ``thresholds[r, k]`` is the largest j with X <= k (``TOP`` past the
    row's bound), X = #{k : j > t_k}, and j > t_bound is a redraw.  The
    thresholds come from one bisection over j for every (row, k) at once,
    running the loop above elementwise.

    When every row is on that path, ``fused`` holds 4,096 buckets per row.
    Entry r 4096 + b, id >> ``INDEX_BITS`` plus the bucket b = w >> 52 of
    U's raw word w, holds the next row bits of the bucket's j, or ``SLOW``
    where a threshold or the redraw region falls in it; those draws, about
    0.2%, count thresholds below j = w >> 11.
    A block with a redraw rewinds its own uniforms (the blocks before it
    drew numpy's counts) and calls ``gen.binomial`` itself, as does every
    block of a policy with a row off the path (p = 0, or min(p, 1 - p) m >
    30).  One gather then replaces the count, the flip and the split."""

    TOP = 2**53 - 1  # j of the largest double Generator.random returns
    ROW_SHIFT = INDEX_BITS + 12  # row r starts at bucket r 4096 of ``fused``

    def __init__(self, sizes: np.ndarray, probs: np.ndarray, koff: np.ndarray, after: np.ndarray):
        if len(sizes) > 1 << (63 - self.ROW_SHIFT):  # the row bits must stay below the sign bit
            raise ValueError(f"a policy may reach at most {1 << (63 - self.ROW_SHIFT)} group sizes")
        self.sizes, self.probs, self.koff = sizes, probs, koff
        self.next = np.where(after < 0, -1, after << self.ROW_SHIFT)

        p = np.where(self.probs > 0.5, 1.0 - self.probs, self.probs)
        self.fused = None
        if (self.probs == 0).any() or (p * sizes > 30.0).any():
            return  # Generator.binomial draws p = 0 from no uniform and m p' > 30 from a variable number
        self.flipped = np.where(self.probs > 0.5, sizes, 0)
        q = 1.0 - p
        mp = sizes * p
        self.bound = np.minimum(sizes, mp + 10.0 * np.sqrt(mp * q + 1)).astype(np.int64)  # at most 86
        width = int(self.bound.max()) + 1
        px = np.empty((len(sizes), width))
        # libm's exp and log1p, as numpy's C sampler calls them
        px[:, 0] = [math.exp(m * math.log1p(-pm)) for m, pm in zip(sizes.tolist(), p.tolist())]
        for x in range(1, width):
            px[:, x] = ((sizes - x + 1) * p * px[:, x - 1]) / (x * q)

        # bisect every (row, k) at once: lo has X <= k, hi does not
        lo = np.full((len(sizes), width), -1, dtype=np.int64)
        hi = np.full((len(sizes), width), self.TOP + 1, dtype=np.int64)
        for _ in range(54):
            mid = (lo + hi) >> 1
            u = mid * 2.0**-53
            ok = np.zeros(mid.shape, dtype=bool)
            for x in range(width):  # only columns k >= x can stop at X = x
                ok[:, x:] |= u[:, x:] <= px[:, x:x + 1]
                u[:, x:] -= px[:, x:x + 1]
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        lo[np.arange(width) > self.bound[:, None]] = self.TOP
        self.thresholds = lo

        # row by row, so the build holds no more than one row of temporaries;
        # int64 like the ids, since widening a narrower table each slot cost
        # about a fifth more time
        fused = np.empty((len(sizes), 4096), dtype=np.int64)
        for r, t in enumerate(lo):  # counts 0..bound give their next row bits, bound + 1 (a redraw) SLOW
            k = np.abs(self.flipped[r] - np.arange(self.bound[r] + 1))
            fused[r] = _bucket_table(t[: self.bound[r] + 1], np.append(self.next[self.koff[r] + k], SLOW))
        self.fused = fused.ravel()

    def __call__(self, gen: np.random.Generator, ids: np.ndarray) -> np.ndarray:
        if self.fused is None:
            return self._binomial(gen, ids)
        w = gen.bit_generator.random_raw(len(ids))  # Generator.random's words: u = (w >> 11) 2^-53
        key = (w >> 52).view(np.int64)  # u's top 12 bits: its bucket
        key += ids >> INDEX_BITS
        row = self.fused[key]
        slow = np.flatnonzero(row == SLOW)
        if len(slow):
            r = ids[slow] >> self.ROW_SHIFT
            j = (w[slow] >> 11).view(np.int64)
            x = np.count_nonzero(j[:, None] > self.thresholds[r], axis=1)
            if (x > self.bound[r]).any():
                gen.bit_generator.advance(-len(ids))
                return self._binomial(gen, ids)
            row[slow] = self.next[self.koff[r] + np.abs(self.flipped[r] - x)]
        return row

    def _binomial(self, gen: np.random.Generator, ids: np.ndarray) -> np.ndarray:
        r = ids >> self.ROW_SHIFT
        return self.next[self.koff[r] + gen.binomial(self.sizes[r], self.probs[r])]


def simulate_capture(
    policy: CapturePolicy,
    users: int,
    episodes: int,
    seed: int,
    max_slots: int = 10_000,
) -> SimSummary:
    """Monte Carlo estimate of the expected capture time under a policy.

    Only the active-group size matters to the episode's future, so each
    episode is advanced by drawing the number of transmitters binomially,
    through ``_CaptureStep``.
    """
    if users < 1:
        raise ValueError("need users >= 1")
    step = _CaptureStep(*_policy_rows(policy, users))
    return _stopping_times(lambda chunk: RngStream(seed, (DOMAIN_CAPTURE, users, chunk)), episodes, step,
                           max_slots=max_slots)


def simulate_virtual_pair(episodes: int, seed: int, max_slots: int = 10_000) -> SimSummary:
    """Capture time for two devices that each send 0 or 1 packets per slot
    with equal probability, stopping when exactly one packet is sent.  The
    two-user floor argument says this takes 2 slots on average.  All
    episodes share one stream: one chunk, stepped in blocks."""

    def step(gen, ids):
        # the coins are bits 31 and 63 of a word: -1 where their xor, now bit 63, is set
        w = gen.bit_generator.random_raw(len(ids))
        w ^= w << 32
        return w.view(np.int64) >> 63

    return _stopping_times(lambda chunk: RngStream(seed, (DOMAIN_MISC, 2)), episodes, step,
                           max_slots=max_slots, chunk_size=episodes)


# ---------------------------------------------------------------------------
# converse evidence


def three_user_relaxation(a: float, c: float) -> float:
    """Lower-bound objective for three users: a symmetric memoryless
    behavior sends 0, 1, or 2 packets per slot with probabilities (a, b, c),
    b = 1 - a - c, and the expected stopping time is at least

        1 + (1 - 3 b a^2) / (1 - a^3 - b^3 - c^3).

    Works elementwise on arrays as well.
    """
    b = 1.0 - a - c
    denom = 1.0 - a**3 - b**3 - c**3
    return 1.0 + (1.0 - 3.0 * b * a * a) / denom


def _relaxation_feasible(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    b = 1.0 - a - c
    return (a >= 0) & (c >= 0) & (b >= 0) & (a**3 + b**3 + c**3 <= 0.75)


def _relaxation_grid(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The relaxation at every (a[i], c[j]), inf where infeasible.  The
    sparse grid broadcasts the a- and c-factors instead of repeating them,
    with the same operations on every element as a dense one."""
    A, C = np.meshgrid(a, c, indexing="ij", sparse=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(_relaxation_feasible(A, C), three_user_relaxation(A, C), math.inf)


def minimize_three_user_relaxation() -> tuple[float, float, float]:
    """Infimum of the relaxation over its feasible set, by grid scan and
    repeated zooming.  Returns (a, c, value)."""
    lo_a, hi_a, lo_c, hi_c = 0.0, 1.0, 0.0, 1.0
    best = (math.nan, math.nan, math.inf)
    for _ in range(RELAXATION_ZOOMS):
        a = np.linspace(lo_a, hi_a, RELAXATION_GRID)
        c = np.linspace(lo_c, hi_c, RELAXATION_GRID)
        value = _relaxation_grid(a, c)
        i, j = np.unravel_index(np.argmin(value), value.shape)
        if value[i, j] < best[2]:
            best = (float(a[i]), float(c[j]), float(value[i, j]))
        span_a = (hi_a - lo_a) / (RELAXATION_GRID - 1)
        span_c = (hi_c - lo_c) / (RELAXATION_GRID - 1)
        lo_a, hi_a = max(0.0, best[0] - span_a), min(1.0, best[0] + span_a)
        lo_c, hi_c = max(0.0, best[1] - span_c), min(1.0, best[1] + span_c)
    return best


def capture_upper_bound(n: int) -> float:
    """(1 - 1/n)^-(n-1): what n users get by naively transmitting with
    probability 1/n until someone gets through.  Increases toward e."""
    if n < 2:
        return 1.0
    return (1.0 - 1.0 / n) ** -(n - 1)


@dataclass(frozen=True)
class ProbeWindow:
    """Near-optimal policies must put their transmit probability inside
    [low, high]; reported as a diagnostic next to the solved p_n."""

    n: int
    low: float
    p: float
    high: float

    @property
    def inside(self) -> bool:
        return self.low <= self.p <= self.high


@dataclass(frozen=True)
class ConverseReport:
    virtual_pair: SimSummary
    relaxation_argmin: tuple[float, float]
    relaxation_value: float
    z3: float
    bounds: tuple[tuple[int, float, float], ...]  # (n, z_n, naive bound)
    windows: tuple[ProbeWindow, ...]

    def to_json_dict(self) -> dict:
        return {
            "virtual_pair": self.virtual_pair.to_json_dict(),
            "relaxation": {
                "a": self.relaxation_argmin[0],
                "c": self.relaxation_argmin[1],
                "value": self.relaxation_value,
                "z3": self.z3,
            },
            "bounds": [
                {"n": n, "z": z, "naive": bound, "e": math.e}
                for n, z, bound in self.bounds
            ],
            "windows": [{**asdict(w), "inside": w.inside} for w in self.windows],
        }


def converse_checks(
    table: CaptureTable,
    episodes: int = 200_000,
    seed: int = 0,
) -> ConverseReport:
    """Assemble the evidence that the solved table sits on the floor.

    Simulates the two-device virtual pair (should average 2 slots),
    minimizes the three-user relaxation (should reproduce z_3 with the
    two-packet probability pinned at 0), tabulates z_n against the naive
    1/n bound and e, and reports the probe-probability window each p_n
    should occupy.
    """
    if table.n_max < 3:
        raise ValueError("the converse evidence needs the table up to n = 3")
    # two independent units; the virtual pair is unit 0, on the calling thread
    parts: list = [None, None]

    def run(unit: int) -> None:
        parts[unit] = simulate_virtual_pair(episodes, seed) if unit == 0 else minimize_three_user_relaxation()

    run_units(2, run, _usable_cpus())
    virtual, (a, c, value) = parts
    bounds = tuple(
        (n, table.values[n], capture_upper_bound(n)) for n in range(2, table.n_max + 1)
    )
    half_life = 1.0 - 1.0 / (2.0 * math.e)
    windows = tuple(
        ProbeWindow(n, 1.0 - half_life ** (1.0 / n), table.probs[n], half_life ** (1.0 / n))
        for n in range(2, table.n_max + 1)
    )
    return ConverseReport(virtual, (a, c), value, table.values[3], bounds, windows)
