"""Closed-form scores for the championship machines, as exact rationals.

Everything here is a consequence of one random variable: in self-play (or
against a dead channel) the coin-flip phase of the duel machines ends with
a first solo success after Y fruitless slots, where

    P[Y = i] = (1/2)^(i+1)   for i < T,      P[Y = T] = (1/2)^T

over a horizon of T slots.  After that first success the pair alternates
perfectly, so per-player self-play value, and the streaming scores against
a dead channel, all reduce to expectations of simple functions of Y.

Returning Fractions keeps every value exact at any horizon; callers that
want floats can convert, and for the horizons anyone prints the conversion
is itself exact to well below double precision rounding.

``exact_self_play_alpha`` cross-checks the closed form from the machine
itself: when every transmit probability is 0, 1/2, or 1, a game is a
deterministic function of one fair bit per player per slot, and counting
the bit patterns that reach each joint state slot by slot averages the
score over all 2^(2T) of them exactly, in time polynomial in T.
"""

from __future__ import annotations

from fractions import Fraction

# run_games_with_uniforms is unused here; perfbench's traced pass patches it by this name
from .batch import CompiledMachine, compile_machine, run_games_with_uniforms  # noqa: F401
from .dsl import StrategyMachine
from .game import check_horizon


def first_success_pmf(horizon: int) -> tuple[Fraction, ...]:
    """Distribution of Y, the number of slots before the first solo
    success; index i is P[Y = i], i = 0..horizon."""
    T = check_horizon(horizon)
    pmf = [Fraction(1, 2 ** (i + 1)) for i in range(T)]
    pmf.append(Fraction(1, 2**T))
    return tuple(pmf)


def expected_y(horizon: int) -> Fraction:
    """E[Y] = 1 - 2^-T: the coin-flip phase costs just under one slot."""
    T = check_horizon(horizon)
    return 1 - Fraction(1, 2**T)


def alpha_optimal(horizon: int) -> Fraction:
    """Per-player self-play value of the duel machines:
    (T-1)/2 + 2^-(T+1).  This is the best symmetric machines can do."""
    T = check_horizon(horizon)
    return Fraction(T - 1, 2) + Fraction(1, 2 ** (T + 1))


def beta4(horizon: int) -> Fraction:
    """four_state against a dead channel: T - 2 + 3 * 2^-T.

    One slot lost finding the channel empty, one lost yielding after the
    first success, then streaming; the 3 * 2^-T corrects the edge cases
    where the coin phase runs into the end of the game.
    """
    T = check_horizon(horizon)
    return T - 2 + Fraction(3, 2**T)


def beta3(horizon: int) -> Fraction:
    """three_state against a dead channel.

    The machine politely alternates with nobody, scoring on every other
    slot after its first success: ceil((T - Y) / 2) points, which works out
    to T/2 - 1/3 + (1/3) 2^-T for even T and T/2 - 1/6 + (1/3) 2^-T for
    odd T (the parity of the remaining slots shifts the rounding).
    """
    T = check_horizon(horizon)
    correction = Fraction(1, 3) if T % 2 == 0 else Fraction(1, 6)
    return Fraction(T, 2) - correction + Fraction(1, 3 * 2**T)


def exact_self_play_alpha(
    machine: StrategyMachine | CompiledMachine,
    horizon: int,
) -> Fraction:
    """Average per-player self-play score over all 4^T bit patterns.

    Valid only for machines whose transmit probabilities are all 0, 1/2, or
    1: then each game is determined by one fair bit per player per slot.
    Rather than play every pattern, count the bit prefixes reaching each
    joint state (s_a, s_b); a player's two bit values split its count over
    idle/transmit as (2, 0), (1, 1) or (0, 2), and a solo slot t (0-based)
    reached by c prefixes scores c * 4^(T-1-t) over all patterns.  Cost is
    O(T * S^2 * 4) big-integer steps for S states.  No final-slot override
    applies, since a copy is never foreign.
    """
    T = check_horizon(horizon)
    compiled = compile_machine(machine)
    halves = {0.0: (2, 0), 0.5: (1, 1), 1.0: (0, 2)}
    try:
        split = [halves[p] for p in compiled.probs.tolist()]
    except KeyError:
        raise ValueError("exact enumeration needs transmit probabilities in {0, 1/2, 1}") from None
    trans = compiled.trans.tolist()
    counts = {(compiled.start, compiled.start): 1}
    total = 0
    for t in range(T):
        nxt: dict[tuple[int, int], int] = {}
        for (sa, sb), count in counts.items():
            for xa in (0, 1):
                for xb in (0, 1):
                    weight = count * split[sa][xa] * split[sb][xb]
                    if not weight:
                        continue
                    feedback = xa + xb
                    if feedback == 1:
                        total += weight * 4 ** (T - 1 - t)
                    key = (trans[sa][xa][feedback], trans[sb][xb][feedback])
                    if min(key) < 0:
                        raise ValueError(f"no transition for a reachable move at slot {t + 1}")
                    nxt[key] = nxt.get(key, 0) + weight
        counts = nxt
    return Fraction(total, 2 * 4**T)
