"""Core game engine for the slotted channel game.

Two players share a channel for a fixed number of slots.  Each slot both
players simultaneously decide to transmit (1) or idle (0); a transmission
scores one point iff the other player idled.  Both then observe the same
feedback, the number of transmitters in the slot (0, 1, or 2), and nothing
else: neither player ever sees who transmitted, only how many.

The engine is the only place decisions and feedback meet.  Strategies are
driven through a two-call protocol per slot, ``decide`` then ``observe``,
so a decision at slot t can only depend on the strategy's own randomness
and what it observed in slots 1..t-1.

Slots are numbered from 1.  Player indices are 0 and 1.

The same module also runs multi-user capture episodes: n users follow a
common policy until some slot has exactly one transmitter, at which point
the channel is captured and the episode ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import math
import operator

from .dsl import IDLE, TRANSMIT, StrategyMachine, check_machine
from .rng import RngStream

import numpy as np

# A decision is 0 (idle) or 1 (transmit); feedback is the number of
# transmitters in the slot.  Plain ints, validated where they are produced.
Decision = int
Feedback = int


def check_horizon(horizon: int) -> int:
    """The horizon as a plain int; raises ValueError unless it is a
    positive integer (numpy integers included, bools excluded)."""
    try:
        T = operator.index(horizon)
    except TypeError:
        T = 0  # not an integer: rejected below
    if isinstance(horizon, bool) or T < 1:
        raise ValueError("horizon must be a positive integer")
    return T


@dataclass(frozen=True)
class SlotRecord:
    """What happened in one slot: the slot and both decisions.  The shared
    feedback and the scoring player's index (present iff exactly one player
    transmitted) follow from the decisions, so they cannot disagree."""

    t: int
    decisions: tuple[Decision, Decision]

    @property
    def feedback(self) -> Feedback:
        return self.decisions[0] + self.decisions[1]

    @property
    def scorer(self) -> int | None:
        return self.decisions.index(TRANSMIT) if self.feedback == 1 else None


@dataclass(frozen=True)
class GameTranscript:
    horizon: int
    slots: tuple[SlotRecord, ...]
    scores: tuple[int, int]
    # per-player state id sequences, filled in when both sides are machines
    state_traces: tuple[tuple[str, ...], tuple[str, ...]] | None = None

    @property
    def first_success(self) -> int | None:
        """Slot of the first solo transmission, or None if there was none."""
        for rec in self.slots:
            if rec.feedback == 1:
                return rec.t
        return None

    @property
    def slots_before_success(self) -> int:
        """Number of leading slots in which nobody scored."""
        first = self.first_success
        return self.horizon if first is None else first - 1


@runtime_checkable
class StrategySession(Protocol):
    """One player's view of one game."""

    def decide(self, t: int) -> Decision: ...

    def observe(self, t: int, own: Decision, feedback: Feedback) -> None: ...


@runtime_checkable
class Strategy(Protocol):
    """Anything that can field a session: built-in machines are adapted to
    this automatically, and programmatic strategies implement it directly."""

    def begin(self, rng: np.random.Generator, horizon: int) -> StrategySession: ...


class MachineSession:
    """Runs one StrategyMachine for one game.

    Opening a session checks the machine (``dsl.check_machine``), so every
    move it can make has a transition; only the forced final transmission
    of a foreign game may leave a state with none, and then it stays put.

    Reads the t-th uniform of its stream at slot t whatever its state, so a
    machine's draws depend only on its stream; draws the horizon when it
    opens, in one call that yields the doubles per-slot calls would.

    When the machine was declared with the last-slot override it also runs a
    shadow copy of itself on the opponent's inferred actions.  The moment
    the opponent does something the shadow gives probability zero, the
    opponent has been exposed as foreign and the machine will transmit on
    the final slot regardless of its state.
    """

    def __init__(self, machine: StrategyMachine, rng: np.random.Generator, horizon: int):
        self.machine = check_machine(machine)
        self._uniforms = rng.random(horizon).tolist()
        self.horizon = horizon
        self.state = machine.start
        self.trace: list[str] = []
        self.foreign = False
        self._shadow: str | None = machine.start if machine.last_slot_override else None

    def decide(self, t: int) -> Decision:
        self.trace.append(self.state)
        u = self._uniforms[t - 1]
        p = self.machine.states[self.state].transmit_prob
        if self.foreign and t == self.horizon:
            p = 1.0
        return TRANSMIT if u < p else IDLE

    def observe(self, t: int, own: Decision, feedback: Feedback) -> None:
        self.state = self.machine.states[self.state].transitions.get((own, feedback), self.state)
        if self._shadow is not None and not self.foreign:
            opp = feedback - own
            shadow = self.machine.states[self._shadow]
            if (opp == TRANSMIT and shadow.transmit_prob == 0.0) or (opp == IDLE and shadow.transmit_prob == 1.0):
                self.foreign = True
            else:  # a move the shadow could make, from a state it reached
                self._shadow = shadow.transitions[opp, feedback]


def _open_session(strategy, rng: RngStream, horizon: int) -> StrategySession:
    if isinstance(strategy, StrategyMachine):
        return MachineSession(strategy, rng.generator(), horizon)
    if isinstance(strategy, Strategy):
        return strategy.begin(rng.generator(), horizon)
    raise TypeError(f"not a strategy: {strategy!r}")


def play_game(
    strategy_a,
    strategy_b,
    horizon: int,
    rng_a: RngStream,
    rng_b: RngStream,
) -> GameTranscript:
    """Play one game and return its full transcript.

    Invalid machines are rejected before slot 1.  Either argument may be a
    StrategyMachine or any object implementing the Strategy protocol; the
    two players' randomness comes from the two (independent) streams.
    """
    horizon = check_horizon(horizon)
    session_a = _open_session(strategy_a, rng_a, horizon)
    session_b = _open_session(strategy_b, rng_b, horizon)
    records: list[SlotRecord] = []
    scores = [0, 0]
    for t in range(1, horizon + 1):
        xa = _checked(session_a.decide(t))
        xb = _checked(session_b.decide(t))
        feedback = xa + xb
        if feedback == 1:
            scores[0 if xa == TRANSMIT else 1] += 1
        session_a.observe(t, xa, feedback)
        session_b.observe(t, xb, feedback)
        records.append(SlotRecord(t, (xa, xb)))
    traces = None
    if isinstance(session_a, MachineSession) and isinstance(session_b, MachineSession):
        traces = (tuple(session_a.trace), tuple(session_b.trace))
    return GameTranscript(horizon, tuple(records), (scores[0], scores[1]), traces)


def _checked(x) -> Decision:
    if x not in (IDLE, TRANSMIT):
        raise ValueError(f"strategy produced a decision outside {{0, 1}}: {x!r}")
    return x


# ---------------------------------------------------------------------------
# n-user capture episodes


@runtime_checkable
class CapturePolicy(Protocol):
    """Common policy for a group of users trying to capture the channel.

    ``transmit_prob(m)`` is the per-slot transmit probability while the
    active group has m members.  After a slot in which k of m transmitted
    with 2 <= k <= m-1, ``survivor(m, k)`` names which side stays active:
    "transmitters", "silent", or "repeat" to keep everyone in.
    """

    def transmit_prob(self, group_size: int) -> float: ...

    def survivor(self, group_size: int, transmitted: int) -> str: ...


def policy_prob(policy: CapturePolicy, group_size: int) -> float:
    """``policy.transmit_prob(m)``, checked to be a probability."""
    p = float(policy.transmit_prob(group_size))
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"policy transmit probability {p!r} is outside [0, 1]")
    return p


def policy_side(policy: CapturePolicy, group_size: int, transmitted: int) -> Decision | None:
    """The decision (TRANSMIT or IDLE) of the side that stays active after k
    of m transmitted, None when all stay; when k = m - k a size could not."""
    verdict = policy.survivor(group_size, transmitted)
    if verdict not in ("transmitters", "silent", "repeat"):
        raise ValueError(f"policy survivor verdict {verdict!r} is not recognized")
    return {"transmitters": TRANSMIT, "silent": IDLE}.get(verdict)


@dataclass(frozen=True)
class EpisodeResult:
    """Outcome of one capture episode.

    ``capture_slot`` is the 1-based slot of the first solo transmission, or
    None when the episode was cut off at max_slots; censored episodes must
    never be folded into a mean as if they had finished.
    ``decisions[t-1][i]`` is user i's decision in slot t.
    """

    users: int
    capture_slot: int | None
    decisions: tuple[tuple[Decision, ...], ...]

    @property
    def censored(self) -> bool:
        return self.capture_slot is None

    @property
    def winner(self) -> int | None:
        if self.capture_slot is None:
            return None
        return self.decisions[self.capture_slot - 1].index(TRANSMIT)


def play_capture_episode(
    policy: CapturePolicy,
    users: int,
    rng: RngStream,
    max_slots: int = 10_000,
) -> EpisodeResult:
    """Run one episode of the n-user capture game under a common policy.

    All users start active.  Each slot every active user transmits with the
    policy's probability for the current group size; inactive users stay
    silent.  Feedback 1 ends the episode.  Feedback 0 or m tells the group
    nothing, so it carries on.  Anything in between splits the group and the
    policy picks the side that survives.  Episodes still running after
    ``max_slots`` slots are censored, not truncated into a capture time.
    """
    if users < 1:
        raise ValueError("need at least one user")
    gen = rng.generator()
    active = [True] * users
    group = users
    log: list[tuple[Decision, ...]] = []
    for t in range(1, max_slots + 1):
        p = policy_prob(policy, group)
        draws = gen.random(users)
        x = tuple(
            TRANSMIT if active[i] and draws[i] < p else IDLE for i in range(users)
        )
        log.append(x)
        k = sum(x)
        if k == 1:
            return EpisodeResult(users, t, tuple(log))
        if 0 < k < group:
            side = policy_side(policy, group, k)
            if side is not None:
                active = [active[i] and x[i] == side for i in range(users)]
                group = k if side == TRANSMIT else group - k
    return EpisodeResult(users, None, tuple(log))
