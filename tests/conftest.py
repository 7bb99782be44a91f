"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they check:
the self-play value is recomputed by a joint-state dynamic program over
exact rationals and by brute force through the batch engine, and random
machines are built straight from dicts rather than through the parser.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from slotmac import StrategyMachine, solve_capture_table
from slotmac.batch import CompiledMachine, compile_machine, run_games_with_uniforms
from slotmac.dsl import StateSpec


@pytest.fixture(scope="session")
def capture_table():
    return solve_capture_table(7)


def dp_self_play_alpha(machine: StrategyMachine, horizon: int) -> Fraction:
    """Exact per-player self-play value by dynamic programming over joint
    machine states, all in Fractions.  Independent of both game engines."""
    probs = {sid: Fraction(spec.transmit_prob) for sid, spec in machine.states.items()}
    trans = {sid: spec.transitions for sid, spec in machine.states.items()}
    memo: dict[tuple[str, str, int], Fraction] = {}

    def total(sa: str, sb: str, remaining: int) -> Fraction:
        if remaining == 0:
            return Fraction(0)
        key = (sa, sb, remaining)
        if key not in memo:
            acc = Fraction(0)
            for xa in (0, 1):
                wa = probs[sa] if xa else 1 - probs[sa]
                if wa == 0:
                    continue
                for xb in (0, 1):
                    wb = probs[sb] if xb else 1 - probs[sb]
                    if wb == 0:
                        continue
                    f = xa + xb
                    gain = 1 if f == 1 else 0
                    acc += wa * wb * (
                        gain + total(trans[sa][(xa, f)], trans[sb][(xb, f)], remaining - 1)
                    )
            memo[key] = acc
        return memo[key]

    return total(machine.start, machine.start, horizon) / 2


def enumerate_self_play_alpha(
    machine: StrategyMachine | CompiledMachine,
    horizon: int,
    chunk_size: int = 1 << 20,
) -> Fraction:
    """Average per-player self-play score by exhaustive enumeration.

    Valid only for machines whose transmit probabilities are all 0, 1/2, or
    1: then each game is determined by T fair bits per player, the 2^(2T)
    joint patterns are equally likely, and summing integer scores over all
    of them gives the exact expectation.  Runs the real batch engine,
    foreign-opponent shadow included; cost grows as 4^T.
    """
    T = horizon
    compiled = compile_machine(machine)
    if not set(np.unique(compiled.probs)) <= {0.0, 0.5, 1.0}:
        raise ValueError("exact enumeration needs transmit probabilities in {0, 1/2, 1}")
    total_games = 1 << (2 * T)
    total_score = 0
    for lo in range(0, total_games, chunk_size):
        idx = np.arange(lo, min(lo + chunk_size, total_games), dtype=np.int64)
        # player 0 owns the high T bits, player 1 the low T bits; bit t-1
        # decides slot t, and 0.75/0.25 turn a bit into a uniform that
        # crosses the 1/2 threshold exactly when the bit is set
        ua = np.empty((len(idx), T))
        ub = np.empty((len(idx), T))
        for t in range(T):
            ua[:, t] = 0.75 - 0.5 * ((idx >> (T + t)) & 1)
            ub[:, t] = 0.75 - 0.5 * ((idx >> t) & 1)
        batch = run_games_with_uniforms(compiled, compiled, ua, ub)
        total_score += int(batch.scores_a.sum(dtype=np.int64))
        total_score += int(batch.scores_b.sum(dtype=np.int64))
    return Fraction(total_score, 2 * total_games)


def random_machine(
    rng: np.random.Generator,
    n_states: int | None = None,
    deterministic: bool = False,
    half: bool = False,
    override: bool = False,
) -> StrategyMachine:
    """A structurally valid machine with random transitions.  Transitions
    are defined exactly for the (action, feedback) pairs the transmit
    probability allows, so validation always passes.  ``half`` draws every
    transmit probability from {0, 1/2, 1}; ``override`` turns on the
    final-slot grab against foreign opponents."""
    count = int(n_states if n_states is not None else rng.integers(1, 7))
    ids = [str(i) for i in range(1, count + 1)]
    states = {}
    for sid in ids:
        if deterministic:
            p = float(rng.integers(0, 2))
        elif half:
            p = float(rng.integers(0, 3)) / 2
        elif rng.random() < 0.3:
            p = float(rng.integers(0, 2))
        else:
            p = float(np.round(rng.random(), 3))
        transitions = {}
        actions = []
        if p > 0:
            actions.append(1)
        if p < 1:
            actions.append(0)
        for a in actions:
            for f in (a, a + 1):
                transitions[(a, f)] = ids[int(rng.integers(0, count))]
        states[sid] = StateSpec(p, transitions)
    return StrategyMachine("rand", ids[0], states, last_slot_override=override)


class ReplayGenerator:
    """Stands in for a numpy Generator, yielding a scripted uniform per
    call.  Lets scalar games be driven with hand-picked draws."""

    def __init__(self, values, owner=None):
        self.values = list(values)
        self.owner = owner

    def random(self):
        if self.owner is not None:
            self.owner.draws += 1
        return self.values.pop(0)


class ReplayStream:
    """RngStream look-alike wrapping scripted uniforms."""

    def __init__(self, values):
        self.values = values
        self.draws = 0

    def generator(self):
        return ReplayGenerator(self.values, owner=self)


class ScriptedStrategy:
    """Plays a fixed action sequence, ignoring everything it observes."""

    def __init__(self, actions):
        self.actions = list(actions)

    def begin(self, rng, horizon):
        return _ScriptedSession(self.actions)


class _ScriptedSession:
    def __init__(self, actions):
        self.actions = actions

    def decide(self, t):
        return self.actions[t - 1]

    def observe(self, t, own, feedback):
        pass
