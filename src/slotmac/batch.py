"""Vectorized many-game runner for machine-vs-machine play.

Runs the same slot loop as the scalar engine, but across a whole batch of
games at once with numpy.  Games are processed in fixed-size chunks and
every chunk draws from a stream named by (master seed, pairing, chunk
index, player), so results are byte-identical however the chunks are
scheduled across threads.  A player transmits when its uniform u is below
its state's probability p, and u lies in [0, 1), so only a p strictly
between 0 and 1 reads u.  A state is closed when every state it can reach
has p 0 or 1.  A player draws one uniform per slot per game, from a stream
built on its first draw, until every game of the chunk has it closed; once
both are, a game's future is fixed by its joint state, and one game per
distinct joint state is played.  No draw a game reads moves; the scalar
engine still draws every slot.

Every machine plays from one state table (``CompiledMachine``).  The
foreign-opponent shadow of a last-slot-override machine is folded into
that table when it is compiled, so a slot is the same few lookups for
every machine and the override is only which probability vector the final
slot reads.

A slot's outcome is one move k = 2 * xa + xb.  Each player's table is
flattened once per call into a step table indexed by 4 * state + k, state
ids kept times 4 (``_tables``), so a slot is, per player, one ``take`` for
the transmit probability, one compare against the uniform and one ``take``
for the successor.  No transition follows the final slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsl import StrategyMachine, StrategyParseError, validate_machine
from .game import check_horizon
from .rng import DOMAIN_GAME, RngStream

CHUNK_SIZE = 65_536
# state ids are int16 with -1 for "no transition"
_MAX_STATES = int(np.iinfo(np.int16).max) + 1
# a slot's move k = 2 * xa + xb as each player sees it, (own action,
# feedback); player a's list is also every pair a player can produce
_MOVES = ((0, 0), (0, 1), (1, 1), (1, 2))
_MOVES_B = ((0, 0), (1, 1), (0, 1), (1, 2))


@dataclass(frozen=True)
class CompiledMachine:
    """A StrategyMachine flattened to one state table for vectorized play.

    ``probs[s]`` is state s's transmit probability, ``last_probs[s]`` the
    one used on the final slot, and ``trans[s, a, f]`` the successor for
    (own action a, feedback f), or -1 where no transition is defined.  A
    game may make such a move only on its final slot, which takes no
    transition; a hand-built table that lets one happen earlier makes the
    engine raise ``ValueError``.

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


def _tables(m: CompiledMachine, moves) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """One player's engine tables, state ids times 4: ``probs``,
    ``last_probs`` and ``closed`` repeated 4 times, the step table and the
    start.  ``step[4 * s + k]`` is 4 times the successor of state s under
    the slot move k = 2 * xa + xb, which this player sees as ``moves[k]`` =
    (own action, feedback).  An undefined successor (-1) becomes 4N, past
    the end of every table, so the next slot's ``take`` raises.  State s is
    closed when every state reachable from it plays p 0 or 1 on any slot."""
    actions, feedback = zip(*moves)
    succ = m.trans[:, actions, feedback].astype(np.intp)
    succ[succ < 0] = len(succ)
    # a state is open when it reaches a coin state: one search back from them
    closed = (np.isin(m.probs, (0, 1)) & np.isin(m.last_probs, (0, 1))).tolist() + [True]  # entry N: undefined
    preds = [[] for _ in closed]
    for s, row in enumerate(succ.tolist()):
        for t in row:
            preds[t].append(s)
    todo = [s for s, c in enumerate(closed) if not c]
    while todo:
        for s in preds[todo.pop()]:
            if closed[s]:
                closed[s] = False
                todo.append(s)
    return np.repeat(m.probs, 4), np.repeat(m.last_probs, 4), (4 * succ).ravel(), np.repeat(closed[:-1], 4), 4 * m.start


def _play_chunk(ta, tb, horizon: int, n: int, uniforms, first: int = 1, states=None) -> GameBatch:
    """Run n games between the players whose ``_tables`` are ta and tb, from
    slot ``first`` and the joint ``states`` (default the starts) on.
    ``uniforms(player, t)`` must return the n uniform draws for that player
    and slot; it is called in slot order, player 0 then player 1, while
    some game has that player outside its closed states."""
    probs_a, last_a, step_a, closed_a, start_a = ta
    probs_b, last_b, step_b, closed_b, start_b = tb
    sa, sb = states or (np.full(n, start_a, dtype=np.intp), np.full(n, start_b, dtype=np.intp))
    score_a, score_b, lead = (np.full(n, v, dtype=np.int32) for v in (0, 0, first - 1))  # lead: slots before a solo success
    draw_a = draw_b = uniforms is not None
    # decided once: a player with no closed state is never checked
    watch_a, watch_b = draw_a and closed_a.any(), draw_b and closed_b.any()
    try:
        for t in range(first, horizon + 1):
            if watch_a and closed_a.take(sa).all():
                watch_a = draw_a = False
            if watch_b and closed_b.take(sb).all():
                watch_b = draw_b = False
            if uniforms is not None and not (draw_a or draw_b):  # the rest is fixed by the joint state
                w = len(probs_b) + 1  # sb may be 4N_b, an undefined successor
                codes, inverse = np.unique(sa * w + sb, return_inverse=True)
                tail = _play_chunk(ta, tb, horizon, len(codes), None, t, (codes // w, codes % w))
                score_a += tail.scores_a[inverse]
                score_b += tail.scores_b[inverse]
                return GameBatch(score_a, score_b, np.where(lead < t - 1, lead + 1, tail.first_success[inverse]))
            final = t == horizon
            xa = (uniforms(0, t) if draw_a else 0.0) < (last_a if final else probs_a).take(sa)
            xb = (uniforms(1, t) if draw_b else 0.0) < (last_b if final else probs_b).take(sb)
            move = 2 * xa.view(np.uint8)
            move |= xb.view(np.uint8)
            score_a += move == 2
            score_b += move == 1
            lead += (score_a | score_b) == 0
            if not final:  # no transition after the final slot
                sa = step_a.take(sa + move)
                sb = step_b.take(sb + move)
    except IndexError:
        raise ValueError("no transition is defined for a reachable move") from None
    # lead reaches the horizon only in games without a solo success
    return GameBatch(score_a, score_b, np.where(lead < horizon, lead + 1, 0).astype(np.int32))


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
    horizon = check_horizon(horizon)
    if horizon >= 2**31 or runs < 0:  # GameBatch counts slots in int32
        raise ValueError("horizon must be below 2**31 and runs >= 0")
    ca, cb = compile_machine(machine_a), compile_machine(machine_b)
    ta, tb = _tables(ca, _MOVES), _tables(cb, _MOVES_B)
    out = GameBatch(*(np.zeros(runs, dtype=np.int32) for _ in range(3)))
    for chunk, lo in enumerate(range(0, runs, CHUNK_SIZE)):
        hi = min(lo + CHUNK_SIZE, runs)
        n = hi - lo
        gens = {}  # a player's stream is built on its first draw, so a closed one has none

        def draw(player: int, t: int) -> np.ndarray:
            if player not in gens:
                gens[player] = RngStream(seed, (DOMAIN_GAME, pairing[0], pairing[1], chunk, player)).generator()
            return gens[player].random(n)

        batch = _play_chunk(ta, tb, horizon, n, draw)
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
    ua, ub = (np.asarray(u, dtype=np.float64) for u in (ua, ub))
    if ua.shape != ub.shape or ua.ndim != 2:
        raise ValueError("uniform matrices must share a (runs, horizon) shape")
    # outside [0, 1) a p=0 state could transmit or a p=1 state idle; a NaN
    # makes min and max NaN, which fails the compare
    if any(u.size and not (0.0 <= u.min() and u.max() < 1.0) for u in (ua, ub)):
        raise ValueError("uniforms must lie in [0, 1)")
    n, horizon = ua.shape
    check_horizon(horizon)
    ta, tb = _tables(compile_machine(machine_a), _MOVES), _tables(compile_machine(machine_b), _MOVES_B)
    return _play_chunk(ta, tb, horizon, n, lambda player, t: (ua if player == 0 else ub)[:, t - 1])
