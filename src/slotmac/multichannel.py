"""Capture with several parallel channels.

Slots now carry m channels; each user picks a subset of channels to
transmit on and everyone sees the per-channel transmitter counts.  Capture
means some channel has exactly one transmitter.

Two users: a user learns nothing it can act on beyond "same subset or
not", so the policy is a distribution over subsets repeated until the two
picks differ; the expected capture time is 1 / (1 - sum q_i^2), minimized
by the uniform distribution at 1 / (1 - 2^-m).

Three users, two channels: policies are parametrized (p, q, r): transmit
on channel 1 with probability p, on channel 2 with probability q if on
channel 1 and r otherwise.  A first slot either captures, repeats (all
three picked the same subset, probability beta), or leaves a pattern that
identifies a single user (probability theta), who then transmits alone in
the follow-up slot.  Renewal gives E[Z] = (1 + theta) / (1 - beta).

The follow-up designation needs care: after a theta slot every user knows
only its own subset and the channel counts, yet exactly one may transmit.
Ranking subsets by their code ({} < {ch1} < {ch2} < {ch1,ch2}) works: in
every theta pattern the minimum code is held by exactly one user, and each
user can decide from its own view whether that is them (in the one
ambiguous view, both possible worlds say "not you").  The 64-pattern space
is small enough that tests simply enumerate it.

The simulators draw a subset code from ``capture._bucket_table``'s table
over the buckets of a uniform's raw word, searching cum only in ``SLOW``
buckets, those a threshold falls in (``_code_drawer``), and the three-user
step reads each round's outcome from a 64-entry table of code patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .capture import (
    SLOW,
    CaptureTable,
    GroupSplittingPolicy,
    SimSummary,
    _bucket_table,
    _stopping_times,
    simulate_capture,
    solve_capture_table,
)
from .optimize import check_tol, golden_section, scan_then_golden
from .rng import DOMAIN_MULTICHANNEL, RngStream


def two_user_capture_time(channels: int) -> Fraction:
    """Optimal expected capture time for two users on m channels:
    1 / (1 - 2^-m), exactly."""
    if channels < 1:
        raise ValueError("need at least one channel")
    return Fraction(2**channels, 2**channels - 1)


def two_user_value(distribution) -> float:
    """Expected capture time for two users repeating a subset distribution:
    1 / (1 - sum q_i^2).  Infinite when the distribution is a point mass."""
    q = _checked_distribution(distribution)
    collide = float(np.dot(q, q))
    if collide >= 1.0:
        return math.inf
    return 1.0 / (1.0 - collide)


def _checked_distribution(distribution) -> np.ndarray:
    q = np.asarray(distribution, dtype=np.float64)
    if q.ndim != 1 or len(q) < 2:
        raise ValueError("need a distribution over at least two subsets")
    if np.any(q < 0) or not math.isclose(float(q.sum()), 1.0, abs_tol=1e-9):
        raise ValueError("subset probabilities must be non-negative and sum to 1")
    return q


# ---------------------------------------------------------------------------
# three users, two channels


@dataclass(frozen=True)
class BetaTheta:
    """First-slot outcome probabilities: beta repeats, theta resolves in
    one follow-up slot, everything else captures immediately."""

    beta: float
    theta: float


def renewal_value(bt: BetaTheta) -> float:
    """Expected slots to capture when each round costs 1 slot plus theta
    follow-ups and repeats with probability beta."""
    if bt.beta >= 1.0:
        return math.inf
    return (1.0 + bt.theta) / (1.0 - bt.beta)


def beta_theta_full(p: float, q: float, r: float) -> BetaTheta:
    """(beta, theta) for the full family: channel 1 with probability p,
    channel 2 with probability q on top of channel 1 and r otherwise."""
    for x in (p, q, r):
        if not 0.0 <= x <= 1.0:
            raise ValueError("family parameters must lie in [0, 1]")
    return BetaTheta(*_beta_theta_poly(p, q, r))


def _beta_theta_poly(p, q, r):
    """The (beta, theta) polynomials of the full family, unchecked; works
    elementwise on arrays, which is how the optimizer's grid uses it."""
    beta = p**3 * (q**3 + (1 - q) ** 3) + (1 - p) ** 3 * (r**3 + (1 - r) ** 3)
    theta = (
        p**3 * 3 * q**2 * (1 - q)
        + (1 - p) ** 3 * 3 * r**2 * (1 - r)
        + 3 * p**2 * (1 - p) * (1 - 2 * q * (1 - q) * (1 - r) - r * (1 - q) ** 2)
    )
    return beta, theta


def beta_theta_independent(p: float) -> BetaTheta:
    """(beta, theta) when each user treats the channels independently with
    the same probability p (the q = r = p slice of the full family)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    same = p**3 + (1 - p) ** 3
    pair = 3 * p**2 * (1 - p)
    return BetaTheta(same * same, pair * (same + 1 - 3 * p * (1 - p) ** 2))


@dataclass(frozen=True)
class FamilyOptimum:
    params: tuple[float, ...]
    value: float


@dataclass(frozen=True)
class ThreeUserOptimum:
    full: FamilyOptimum
    independent: FamilyOptimum

    def to_json_dict(self) -> dict:
        return {
            "full": {"p": self.full.params[0], "q": self.full.params[1], "r": self.full.params[2], "value": self.full.value},
            "independent": {"p": self.independent.params[0], "value": self.independent.value},
        }


MAX_GRID = 201  # the scan only seeds the polish, and its grid^3 points cost ~0.13 s at 201, 8x per doubling
SLAB_ROWS = 4  # i-rows of the scan evaluated at once: 4 grid^2 floats an array, 1.3 MB at 201


def _z_grid(xi: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The renewal value at every (xi[i], xs[j], xs[k]), inf where beta is
    within 1e-9 of 1.  The sparse grid computes each one-axis factor once
    and broadcasts it, with the same operations on every element as a dense
    grid."""
    beta, theta = _beta_theta_poly(*np.meshgrid(xi, xs, xs, indexing="ij", sparse=True))
    z = np.full(beta.shape, math.inf)
    return np.divide(1.0 + theta, 1.0 - beta, out=z, where=beta < 1.0 - 1e-9)


def _grid_min(xs: np.ndarray) -> tuple[list[float], float]:
    """``np.argmin``'s point and value over ``_z_grid(xs, xs)``, found ``SLAB_ROWS`` i-rows at a time."""
    point, value = [], math.inf
    for lo in range(0, len(xs), SLAB_ROWS):
        z = _z_grid(xs[lo:lo + SLAB_ROWS], xs)
        i, j, k = np.unravel_index(np.argmin(z), z.shape)
        if z[i, j, k] < value:  # strict: a tie keeps the earlier slab's point, the first in C order
            point, value = [float(xs[lo + i]), float(xs[j]), float(xs[k])], float(z[i, j, k])
    return point, value


def optimize_three_user_two_channel(grid: int = 101, tol: float = 1e-6) -> ThreeUserOptimum:
    """Minimize expected capture time over both families.

    Full family: a grid^3 scan locates the basin, then coordinate-wise
    golden-section passes with a shrinking trust interval polish it.
    Independent family: dense 1-D scan plus golden-section.  Needs
    11 <= grid <= ``MAX_GRID`` and a finite positive tol.
    """
    if not 11 <= grid <= MAX_GRID:
        raise ValueError(f"need 11 <= grid <= {MAX_GRID}, got {grid}")
    check_tol(tol)
    point, value = _grid_min(np.linspace(0.0, 1.0, grid))
    step = 1.0 / (grid - 1)
    while step > tol / 4:
        for d in range(3):
            lo = max(0.0, point[d] - step)
            hi = min(1.0, point[d] + step)
            if lo == hi:  # the interval is below the float spacing at the point: nothing left to polish
                continue
            # step * 1e-4 underflows to 0 once tol nears the smallest subnormal
            x, fx = golden_section(lambda v: renewal_value(beta_theta_full(*point[:d], v, *point[d + 1:])),
                                   lo, hi, tol=max(step * 1e-4, math.ulp(0.0)))
            if fx < value:
                point[d] = x
                value = fx
        step *= 0.5
    full = FamilyOptimum(tuple(point), value)

    p_ind, z_ind = scan_then_golden(
        lambda p: renewal_value(beta_theta_independent(p)), 0.001, 0.999, 999, tol=1e-12
    )
    return ThreeUserOptimum(full, FamilyOptimum((p_ind,), z_ind))


# ---------------------------------------------------------------------------
# simulation


MAX_CHANNELS = 20  # the two-user simulator's subset table holds 2^m floats: 8 MiB at m = 20


def _subset_count(channels: int) -> int:
    """2^m, the number of subsets the two-user simulator tabulates, for
    1 <= m <= ``MAX_CHANNELS``; more channels would ask for gigabytes."""
    if not 1 <= channels <= MAX_CHANNELS:
        raise ValueError(f"need 1 <= channels <= {MAX_CHANNELS}, got {channels}")
    return 1 << channels


def _code_drawer(dist: np.ndarray) -> Callable[[np.random.Generator, int, int], np.ndarray]:
    """``draw(gen, rows, users)`` is ``np.searchsorted(cum, gen.random((rows, users)), "right")``, cum
    ``dist``'s cumsum ending in 1, from the same words: the k with w >> 11 > ceil(cum_k 2^53) - 1."""
    cum = np.cumsum(dist)
    cum[-1] = 1.0
    table = _bucket_table(np.ceil(cum * 2.0**53).astype(np.int64) - 1, np.arange(len(cum) + 1))

    def draw(gen: np.random.Generator, rows: int, users: int) -> np.ndarray:
        w = gen.bit_generator.random_raw(rows * users)
        codes = table[(w >> 52).view(np.int64)]
        slow = np.flatnonzero(codes == SLOW)
        if len(slow):
            codes[slow] = np.searchsorted(cum, (w[slow] >> 11) * 2.0**-53, side="right")
        return codes.reshape(rows, users)

    return draw


def simulate_two_user(
    channels: int,
    episodes: int,
    seed: int,
    distribution=None,
    max_slots: int = 10_000,
) -> SimSummary:
    """Two users repeat a subset distribution until their picks differ
    (some channel then has exactly one transmitter).  Defaults to the
    uniform distribution over all 2^m subsets, which is optimal."""
    n_subsets = _subset_count(channels)
    if distribution is None:
        distribution = np.full(n_subsets, 1.0 / n_subsets)
    q = _checked_distribution(distribution)
    if len(q) != n_subsets:
        raise ValueError(f"distribution must cover all {n_subsets} subsets")
    draw = _code_drawer(q)

    def step(gen, ids):
        codes = draw(gen, len(ids), 2)
        return np.where(codes[:, 0] != codes[:, 1], -1, 0), None

    return _stopping_times(lambda chunk: RngStream(seed, (DOMAIN_MULTICHANNEL, 2, channels, chunk)), episodes,
                           step, max_slots=max_slots)


DEFAULT_THREE_USER_PARAMS = (0.5, 0.0, 1.0)  # the optimum, at value 4/3


def _three_user_outcomes() -> tuple[np.ndarray, np.ndarray]:
    """Per pattern c0 | c1 << 2 | c2 << 4: next row bits (0 on a repeat, else -1), follow-up or not."""
    codes = np.arange(64)[:, None] >> np.array([0, 2, 4]) & 3
    capture = ((codes & 1).sum(axis=1) == 1) | ((codes >> 1).sum(axis=1) == 1)
    same = (codes == codes[:, :1]).all(axis=1)
    return np.where(same, 0, -1), ~capture & ~same


def simulate_three_user_two_channel(
    params: tuple[float, float, float] = DEFAULT_THREE_USER_PARAMS,
    episodes: int = 100_000,
    seed: int = 0,
    max_slots: int = 10_000,
) -> SimSummary:
    """Three users on two channels under family parameters (p, q, r).

    Each round draws real per-user subsets.  Capture ends the episode at t;
    an all-same slot repeats; any other pattern designates a single user
    (minimum subset code) who transmits alone at t + 1, ending the episode
    then.  The follow-up slot is deterministic for everyone, so it consumes
    no randomness.
    """
    p, q, r = params
    if beta_theta_full(p, q, r).beta >= 1.0:  # also validates the parameters
        raise ValueError("these parameters never capture (beta = 1)")
    dist = np.array([(1 - p) * (1 - r), p * (1 - q), (1 - p) * r, p * q])
    draw = _code_drawer(dist)
    row, follow_up = _three_user_outcomes()

    def step(gen, ids):
        codes = draw(gen, len(ids), 3)
        pattern = codes[:, 0] | codes[:, 1] << 2 | codes[:, 2] << 4
        return row[pattern], follow_up[pattern]

    return _stopping_times(lambda chunk: RngStream(seed, (DOMAIN_MULTICHANNEL, 3, 2, chunk)), episodes, step,
                           max_slots=max_slots)


def resolve_multichannel(
    users: int,
    channels: int,
    params: tuple[float, float, float] | None = None,
    distribution=None,
    table: CaptureTable | None = None,
) -> tuple[Callable[..., SimSummary], float]:
    """(simulate, expected) for a supported configuration: two users on
    any number of channels (subset distribution, default uniform), three
    on two channels ((p, q, r), default ``DEFAULT_THREE_USER_PARAMS``), or
    three on one channel (the group-splitting capture problem).
    ``simulate(episodes, seed, max_slots=...)`` runs it and ``expected`` is
    its exact mean.  An option the configuration does not use raises."""

    def reject(**unused) -> None:
        for name, value in unused.items():
            if value is not None:
                raise ValueError(f"{name} does not apply to {users} users on {channels} channel(s)")

    if users == 2:
        reject(params=params)
        _subset_count(channels)
        if distribution is None:
            expected = float(two_user_capture_time(channels))
        else:
            expected = two_user_value(distribution)
        return partial(simulate_two_user, channels, distribution=distribution), expected
    if users == 3 and channels == 2:
        reject(distribution=distribution)
        params = DEFAULT_THREE_USER_PARAMS if params is None else params
        return partial(simulate_three_user_two_channel, params), renewal_value(beta_theta_full(*params))
    if users == 3 and channels == 1:
        reject(params=params, distribution=distribution)
        table = table if table is not None else solve_capture_table(3)
        return partial(simulate_capture, GroupSplittingPolicy(table), 3), table.values[3]
    raise ValueError(f"unsupported configuration: {users} users on {channels} channels")


def simulate_multichannel(
    users: int,
    channels: int,
    episodes: int,
    seed: int,
    params: tuple[float, float, float] | None = None,
    distribution=None,
    table: CaptureTable | None = None,
    max_slots: int = 10_000,
) -> SimSummary:
    """Simulate one of the configurations ``resolve_multichannel`` supports."""
    simulate, _ = resolve_multichannel(users, channels, params, distribution, table)
    return simulate(episodes, seed, max_slots=max_slots)
