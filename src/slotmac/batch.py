"""Vectorized many-game runner for machine-vs-machine play.

Runs the same slot loop as the scalar engine, but across a whole batch of
games at once with numpy.  Games are processed in fixed-size chunks and
every chunk draws from a stream named by (master seed, pairing, chunk
index, player), so results are byte-identical however the chunks are
scheduled across threads.  Like the scalar engine, each player consumes
exactly one uniform per slot per game regardless of its transmit
probability, which keeps draw sequences aligned between implementations.

Every machine plays from one state table (``CompiledMachine``).  The
foreign-opponent shadow of a last-slot-override machine is folded into
that table when it is compiled, so a slot is the same few lookups for
every machine and the override is only which probability vector the final
slot reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsl import StrategyMachine, StrategyParseError, validate_machine
from .rng import DOMAIN_GAME, RngStream

CHUNK_SIZE = 65_536
# state ids are int16 with -1 for "no transition"
_MAX_STATES = int(np.iinfo(np.int16).max) + 1
# the (own action, feedback) pairs two players can produce
_MOVES = ((0, 0), (0, 1), (1, 1), (1, 2))


@dataclass(frozen=True)
class CompiledMachine:
    """A StrategyMachine flattened to one state table for vectorized play.

    ``probs[s]`` is state s's transmit probability, ``last_probs[s]`` the
    one used on the final slot, and ``trans[s, a, f]`` the successor for
    (own action a, feedback f), or -1 where no transition is defined.

    A plain machine's S states are its own and ``last_probs`` is ``probs``.
    A last-slot-override machine runs a shadow copy of itself on the
    opponent's inferred moves, and its table holds the pair: state
    ``own * (S + 1) + shadow``, both halves beginning in the machine's start
    state.  Shadow slot S means the opponent was exposed as foreign, by a
    move the shadow gives probability 0 or has no transition for, and it
    absorbs.  Foreign states have ``last_probs`` 1.0, so the machine
    transmits on the final slot.
    """

    probs: np.ndarray  # (N,) float64
    last_probs: np.ndarray  # (N,) float64
    trans: np.ndarray  # (N, 2, 3) int16
    start: int


def compile_machine(machine: StrategyMachine | CompiledMachine) -> CompiledMachine:
    if isinstance(machine, CompiledMachine):
        return machine
    errors = [d for d in validate_machine(machine) if d.severity == "error"]
    if errors:
        raise StrategyParseError(errors)
    S = len(machine.states)
    size = S * (S + 1) if machine.last_slot_override else S
    if size > _MAX_STATES:
        raise ValueError(f"machine {machine.name!r} compiles to {size} states; int16 ids allow {_MAX_STATES}")
    index = {sid: i for i, sid in enumerate(machine.states)}
    probs = [spec.transmit_prob for spec in machine.states.values()]
    # moves[s][3 * a + f]: the plain successor of state s, -1 where undefined
    moves = [[-1] * 6 for _ in range(S)]
    for row, spec in zip(moves, machine.states.values()):
        for (action, fb), target in spec.transitions.items():
            row[3 * action + fb] = index[target]
    start = index[machine.start]
    if machine.last_slot_override:
        return _fold_shadow(probs, moves, start)
    p = np.array(probs, dtype=np.float64)
    return CompiledMachine(p, p, np.array(moves, dtype=np.int16).reshape(S, 2, 3), start)


def _fold_shadow(probs: list[float], moves: list[list[int]], start: int) -> CompiledMachine:
    """The (own, shadow) table of an override machine; see CompiledMachine."""
    S = len(probs)
    width = S + 1  # shadow slots, the last one foreign
    # follow[shadow][3 * x + f]: the shadow once the machine played x and
    # heard f, so the opponent played f - x
    follow = []
    for p, row in zip(probs, moves):
        nxt = [S] * 6
        for x, f in _MOVES:
            opp = f - x
            if row[3 * opp + f] >= 0 and p != (0.0 if opp else 1.0):
                nxt[3 * x + f] = row[3 * opp + f]
        follow.append(nxt)
    follow.append([S] * 6)
    flat = [o * width + s if o >= 0 else -1 for own in moves for nxt in follow for o, s in zip(own, nxt)]
    return CompiledMachine(
        np.array([p for p in probs for _ in range(width)], dtype=np.float64),
        np.array([1.0 if shadow == S else p for p in probs for shadow in range(width)], dtype=np.float64),
        np.array(flat, dtype=np.int16).reshape(S * width, 2, 3),
        start * width + start,
    )


@dataclass
class GameBatch:
    """Per-game results of a batch: integer scores for both players and the
    slot of the first solo success (0 when there was none)."""

    scores_a: np.ndarray
    scores_b: np.ndarray
    first_success: np.ndarray


def _play_chunk(
    ma: CompiledMachine,
    mb: CompiledMachine,
    horizon: int,
    n: int,
    uniforms,
) -> GameBatch:
    """Run n games of ma vs mb.  ``uniforms(player, t)`` must return the n
    uniform draws for that player and slot; it is called in slot order,
    player 0 then player 1."""
    sa = np.full(n, ma.start, dtype=np.int16)
    sb = np.full(n, mb.start, dtype=np.int16)
    score_a = np.zeros(n, dtype=np.int32)
    score_b = np.zeros(n, dtype=np.int32)
    first = np.zeros(n, dtype=np.int32)
    for t in range(1, horizon + 1):
        ua = uniforms(0, t)
        ub = uniforms(1, t)
        pa = (ma.last_probs if t == horizon else ma.probs)[sa]
        pb = (mb.last_probs if t == horizon else mb.probs)[sb]
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
    return GameBatch(score_a, score_b, first)


def run_games(
    machine_a: StrategyMachine | CompiledMachine,
    machine_b: StrategyMachine | CompiledMachine,
    horizon: int,
    runs: int,
    seed: int,
    pairing: tuple[int, int] = (0, 0),
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
    out = GameBatch(*(np.zeros(runs, dtype=np.int32) for _ in range(3)))
    for chunk, lo in enumerate(range(0, runs, CHUNK_SIZE)):
        hi = min(lo + CHUNK_SIZE, runs)
        n = hi - lo
        gens = [
            RngStream(seed, (DOMAIN_GAME, pairing[0], pairing[1], chunk, player)).generator()
            for player in (0, 1)
        ]
        batch = _play_chunk(ma, mb, horizon, n, lambda player, t: gens[player].random(n))
        out.scores_a[lo:hi] = batch.scores_a
        out.scores_b[lo:hi] = batch.scores_b
        out.first_success[lo:hi] = batch.first_success
    return out


def run_games_with_uniforms(
    machine_a: StrategyMachine | CompiledMachine,
    machine_b: StrategyMachine | CompiledMachine,
    ua: np.ndarray,
    ub: np.ndarray,
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
    )
