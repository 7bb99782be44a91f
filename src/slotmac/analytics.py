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
the bit patterns that reach each of the J states of the joint chain slot
by slot averages the score over all 4^T of them exactly, in O(T·J) steps.
"""

from __future__ import annotations

from fractions import Fraction

# run_games_with_uniforms is unused here; perfbench's traced pass patches it by this name
from .batch import CompiledMachine, _joint_chain, compile_machine, run_games_with_uniforms  # noqa: F401
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

    Valid only for machines whose ``probs`` and ``last_probs`` are all in
    {0, 1/2, 1}, else ValueError: then a game is fixed by one fair bit per
    player per slot.  A forward pass over ``batch._joint_chain`` counts the
    bit prefixes reaching each joint state, and gives each of its k moves
    4/k of them (a coin player's two bits split, a sure player's agree); the
    final slot plays ``last_probs``.  O(T * J) big-integer steps for J joint
    states.  Like the engine, raises ValueError if a pattern reaches a move
    with no transition before the final slot.
    """
    T = check_horizon(horizon)
    m = compile_machine(machine)
    if not {*m.probs.tolist(), *m.last_probs.tolist()} <= {0.0, 0.5, 1.0}:
        raise ValueError("exact enumeration needs transmit probabilities in {0, 1/2, 1}")
    chain = _joint_chain(m, m, [(m.start, m.start)], T - 1)
    if any(-1 in state for state in chain):  # reached by slot T, which it cannot play
        raise ValueError("no transition is defined for a reachable move")
    nxt, total = {(m.start, m.start): 1}, 0
    for t in range(1, T + 1):
        counts, nxt, total = nxt, {}, 4 * total  # so a solo slot t weighs 4^(T-t)
        for state, count in counts.items():
            share = 4 * count // len(moves := chain[state][t == T])
            for xa, xb, key in moves:
                total += share * (xa != xb)
                nxt[key] = nxt.get(key, 0) + share
    return Fraction(total, 2 * 4**T)
