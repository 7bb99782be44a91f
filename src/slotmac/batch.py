"""Vectorized many-game runner for machine-vs-machine play.

Runs the same slot loop as the scalar engine, but across a whole batch of
games at once with numpy.  Games are processed in fixed-size chunks and
every chunk draws from a stream named by (master seed, pairing, chunk
index, player), so results are byte-identical however the chunks are
scheduled across threads.  Like the scalar engine, each player consumes
exactly one uniform per slot per game regardless of its transmit
probability, which keeps draw sequences aligned between implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsl import StrategyMachine, StrategyParseError, validate_machine
from .rng import DOMAIN_GAME, RngStream

CHUNK_SIZE = 65_536


@dataclass(frozen=True)
class CompiledMachine:
    """A StrategyMachine flattened to arrays for vectorized play.

    ``trans[s, a, f]`` is the successor state index for (action a, feedback
    f), or -1 where no transition is defined.
    """

    ids: tuple[str, ...]
    probs: np.ndarray  # (S,) float64
    trans: np.ndarray  # (S, 2, 3) int16
    start: int
    override: bool


def compile_machine(machine: StrategyMachine | CompiledMachine) -> CompiledMachine:
    if isinstance(machine, CompiledMachine):
        return machine
    errors = [d for d in validate_machine(machine) if d.severity == "error"]
    if errors:
        raise StrategyParseError(errors)
    ids = tuple(machine.states)
    index = {sid: i for i, sid in enumerate(ids)}
    probs = np.array([machine.states[s].transmit_prob for s in ids], dtype=np.float64)
    trans = np.full((len(ids), 2, 3), -1, dtype=np.int16)
    for sid, spec in machine.states.items():
        for (action, fb), target in spec.transitions.items():
            trans[index[sid], action, fb] = index[target]
    return CompiledMachine(ids, probs, trans, index[machine.start], machine.last_slot_override)


@dataclass
class GameBatch:
    """Per-game results of a batch: integer scores for both players, the
    slot of the first solo success (0 when there was none), and, when
    requested, a bitmask per game of the state indices each player visited."""

    scores_a: np.ndarray
    scores_b: np.ndarray
    first_success: np.ndarray
    visited_a: np.ndarray | None = None
    visited_b: np.ndarray | None = None


class _Shadow:
    """Vectorized foreign-opponent detector for one player of a chunk."""

    def __init__(self, machine: CompiledMachine, n: int):
        self.machine = machine
        self.state = np.full(n, machine.start, dtype=np.int16)
        self.foreign = np.zeros(n, dtype=bool)

    def update(self, own: np.ndarray, feedback: np.ndarray) -> None:
        m = self.machine
        opp = feedback - own
        prob = m.probs[self.state]
        exposed = ((opp == 1) & (prob == 0.0)) | ((opp == 0) & (prob == 1.0))
        nxt = m.trans[self.state, opp, feedback]
        exposed |= nxt < 0
        tracking = ~self.foreign
        self.foreign |= tracking & exposed
        move = tracking & ~exposed
        self.state = np.where(move, nxt, self.state)


def _play_chunk(
    ma: CompiledMachine,
    mb: CompiledMachine,
    horizon: int,
    n: int,
    uniforms,
    track_visits: bool,
) -> GameBatch:
    """Run n games of ma vs mb.  ``uniforms(player, t)`` must return the n
    uniform draws for that player and slot; it is called in slot order,
    player 0 then player 1."""
    sa = np.full(n, ma.start, dtype=np.int16)
    sb = np.full(n, mb.start, dtype=np.int16)
    score_a = np.zeros(n, dtype=np.int32)
    score_b = np.zeros(n, dtype=np.int32)
    first = np.zeros(n, dtype=np.int32)
    shadow_a = _Shadow(ma, n) if ma.override else None
    shadow_b = _Shadow(mb, n) if mb.override else None
    visited_a = visited_b = None
    if track_visits:
        if len(ma.ids) > 64 or len(mb.ids) > 64:
            raise ValueError("visit tracking supports at most 64 states")
        visited_a = np.zeros(n, dtype=np.uint64)
        visited_b = np.zeros(n, dtype=np.uint64)
    one = np.uint64(1)
    for t in range(1, horizon + 1):
        ua = uniforms(0, t)
        ub = uniforms(1, t)
        if track_visits:
            visited_a |= one << sa.astype(np.uint64)
            visited_b |= one << sb.astype(np.uint64)
        pa = ma.probs[sa]
        pb = mb.probs[sb]
        if shadow_a is not None and t == horizon:
            pa = np.where(shadow_a.foreign, 1.0, pa)
        if shadow_b is not None and t == horizon:
            pb = np.where(shadow_b.foreign, 1.0, pb)
        xa = (ua < pa).astype(np.int16)
        xb = (ub < pb).astype(np.int16)
        feedback = xa + xb
        solo = feedback == 1
        score_a += (solo & (xa == 1)).astype(np.int32)
        score_b += (solo & (xb == 1)).astype(np.int32)
        first = np.where(solo & (first == 0), t, first)
        # successor states; -1 can only appear on the forced final slot
        sa = ma.trans[sa, xa, feedback]
        sb = mb.trans[sb, xb, feedback]
        if shadow_a is not None:
            shadow_a.update(xa, feedback)
        if shadow_b is not None:
            shadow_b.update(xb, feedback)
    return GameBatch(score_a, score_b, first, visited_a, visited_b)


def run_games(
    machine_a: StrategyMachine | CompiledMachine,
    machine_b: StrategyMachine | CompiledMachine,
    horizon: int,
    runs: int,
    seed: int,
    pairing: tuple[int, int] = (0, 0),
    chunk_size: int = CHUNK_SIZE,
    track_visits: bool = False,
) -> GameBatch:
    """Play ``runs`` independent games and collect per-game results.

    ``pairing`` names this matchup inside a larger run (for example its
    (row, column) in a tournament); together with the master seed and the
    chunk index it determines every draw, so the same call always returns
    the same arrays no matter how many worker threads are in use.
    """
    if horizon < 1 or runs < 0:
        raise ValueError("horizon must be >= 1 and runs >= 0")
    ma = compile_machine(machine_a)
    mb = compile_machine(machine_b)
    out = GameBatch(
        np.zeros(runs, dtype=np.int32),
        np.zeros(runs, dtype=np.int32),
        np.zeros(runs, dtype=np.int32),
        np.zeros(runs, dtype=np.uint64) if track_visits else None,
        np.zeros(runs, dtype=np.uint64) if track_visits else None,
    )
    for chunk, lo in enumerate(range(0, runs, chunk_size)):
        hi = min(lo + chunk_size, runs)
        n = hi - lo
        gens = [
            RngStream(seed, (DOMAIN_GAME, pairing[0], pairing[1], chunk, player)).generator()
            for player in (0, 1)
        ]
        batch = _play_chunk(
            ma, mb, horizon, n,
            lambda player, t: gens[player].random(n),
            track_visits,
        )
        out.scores_a[lo:hi] = batch.scores_a
        out.scores_b[lo:hi] = batch.scores_b
        out.first_success[lo:hi] = batch.first_success
        if track_visits:
            out.visited_a[lo:hi] = batch.visited_a
            out.visited_b[lo:hi] = batch.visited_b
    return out


def run_games_with_uniforms(
    machine_a: StrategyMachine | CompiledMachine,
    machine_b: StrategyMachine | CompiledMachine,
    ua: np.ndarray,
    ub: np.ndarray,
    track_visits: bool = False,
) -> GameBatch:
    """Run one game per row of the given uniform matrices (runs x horizon).

    Exists so the batch engine can be driven with hand-picked or exhaustive
    draws and compared move-for-move against the scalar engine.
    """
    ua = np.asarray(ua, dtype=np.float64)
    ub = np.asarray(ub, dtype=np.float64)
    if ua.shape != ub.shape or ua.ndim != 2:
        raise ValueError("uniform matrices must share a (runs, horizon) shape")
    # outside [0, 1) a p=0 state could transmit or a p=1 state idle, into an
    # undefined (-1) transition that silently indexes the last state
    if not all(((u >= 0.0) & (u < 1.0)).all() for u in (ua, ub)):
        raise ValueError("uniforms must lie in [0, 1)")
    n, horizon = ua.shape
    return _play_chunk(
        compile_machine(machine_a),
        compile_machine(machine_b),
        horizon,
        n,
        lambda player, t: (ua if player == 0 else ub)[:, t - 1],
        track_visits,
    )
