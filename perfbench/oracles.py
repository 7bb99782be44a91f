"""Independent oracles for every figure the benchmark times.

None of these call the code path they check.  Duel scores come from a
forward dynamic program over the joint machine-state distribution in exact
rationals; deterministic cells from a plain slot-by-slot interpreter; the
capture table from a vectorized grid-zoom solver; the multichannel values
from enumerating every subset pattern.  Only the machine definitions
(states, probabilities, transitions) are taken from the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np


def duel_expected_scores(machine_a, machine_b, horizon: int) -> tuple[Fraction, Fraction]:
    """Exact expected scores of two machines over ``horizon`` slots.

    The last-slot override is not modelled, so the result holds for
    machines without it and for self-play of a machine with it: a copy
    never behaves foreign, so the override never fires against a copy.
    """
    dist = {(machine_a.start, machine_b.start): Fraction(1)}
    score_a = score_b = Fraction(0)
    for _ in range(horizon):
        nxt: dict[tuple[str, str], Fraction] = {}
        for (sa, sb), weight in dist.items():
            spec_a, spec_b = machine_a.states[sa], machine_b.states[sb]
            pa, pb = Fraction(spec_a.transmit_prob), Fraction(spec_b.transmit_prob)
            for xa, xb in product((0, 1), repeat=2):
                w = weight * (pa if xa else 1 - pa) * (pb if xb else 1 - pb)
                if w == 0:
                    continue
                feedback = xa + xb
                if feedback == 1:
                    score_a += w * xa
                    score_b += w * xb
                key = (spec_a.transitions[(xa, feedback)], spec_b.transitions[(xb, feedback)])
                nxt[key] = nxt.get(key, Fraction(0)) + w
        dist = nxt
    return score_a, score_b


def self_play_alpha(machine, horizon: int) -> Fraction:
    """Per-player mean self-play score, exact."""
    a, b = duel_expected_scores(machine, machine, horizon)
    return (a + b) / 2


def deterministic_scores(machine_a, machine_b, horizon: int) -> tuple[int, int]:
    """Scores of one game between two machines that never randomize."""
    sa, sb = machine_a.start, machine_b.start
    score_a = score_b = 0
    for _ in range(horizon):
        xa = int(machine_a.states[sa].transmit_prob == 1.0)
        xb = int(machine_b.states[sb].transmit_prob == 1.0)
        if xa + xb == 1:
            score_a += xa
            score_b += xb
        sa = machine_a.states[sa].transitions[(xa, xa + xb)]
        sb = machine_b.states[sb].transitions[(xb, xa + xb)]
    return score_a, score_b


def capture_values(n_max: int, zooms: int = 9) -> list[float]:
    """z_1..z_n_max (index 0 is nan) of the group-splitting recursion.

    Each stage evaluates the objective on a whole p-grid at once and zooms
    twentyfold around the best point, instead of the package's scalar scan
    plus golden-section search.
    """
    z = [math.nan, 1.0]
    for n in range(2, n_max + 1):
        i = np.arange(2, n)
        zs = np.array(z)
        weight = np.minimum(zs[i], zs[n - i]) * np.array([float(math.comb(n, k)) for k in i])

        def objective(p: np.ndarray) -> np.ndarray:
            q = 1.0 - p
            terms = weight * p[:, None] ** i * q[:, None] ** (n - i)
            return (1.0 + terms.sum(axis=1)) / (1.0 - p**n - q**n)

        grid = np.linspace(0.001, 0.999, 999)
        best = math.inf
        for _ in range(zooms):
            values = objective(grid)
            j = int(np.argmin(values))
            best = min(best, float(values[j]))
            lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
            grid = np.linspace(lo, hi, 41)
        z.append(best)
    return z


# subsets of two channels as 2-bit codes: bit 0 = channel 1, bit 1 = channel 2


def _three_user_outcome(codes: tuple[int, ...]) -> str:
    on1 = sum(c & 1 for c in codes)
    on2 = sum(c >> 1 for c in codes)
    if on1 == 1 or on2 == 1:
        return "capture"
    if len(set(codes)) == 1:
        return "repeat"
    return "followup"


def _three_user_beta_theta(p, q, r):
    """P(repeat) and P(follow-up) of a first slot, by enumerating all 64
    subset patterns of three users.  Works on Fractions, floats and arrays."""
    dist = [(1 - p) * (1 - r), p * (1 - q), (1 - p) * r, p * q]
    beta = theta = 0
    for codes in product(range(4), repeat=3):
        w = dist[codes[0]] * dist[codes[1]] * dist[codes[2]]
        outcome = _three_user_outcome(codes)
        if outcome == "repeat":
            beta = beta + w
        elif outcome == "followup":
            theta = theta + w
    return beta, theta


def three_user_two_channel_value(p, q, r):
    """Expected capture time (1 + theta) / (1 - beta); exact for Fractions."""
    beta, theta = _three_user_beta_theta(p, q, r)
    return (1 + theta) / (1 - beta)


def three_user_two_channel_grid_min(points: int) -> float:
    """Smallest value over a points^3 grid of (p, q, r)."""
    xs = np.linspace(0.0, 1.0, points)
    beta, theta = _three_user_beta_theta(*np.meshgrid(xs, xs, xs, indexing="ij"))
    ok = beta < 1.0 - 1e-9
    return float(((1.0 + theta[ok]) / (1.0 - beta[ok])).min())


def two_user_value(channels: int) -> Fraction:
    """Two users picking uniform subsets of m channels collide with
    probability 2^-m per slot, so capture takes 1 / (1 - 2^-m) slots."""
    return 1 / (1 - Fraction(1, 2**channels))
