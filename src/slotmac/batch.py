"""Vectorized many-game runner for machine-vs-machine play.

Runs the scalar engine's slot loop across a whole batch of games at once
with numpy.  Games are played in fixed-size chunks, and every chunk draws
from a stream named by (master seed, pairing, chunk index, player), so
results are byte-identical however chunks are scheduled across threads.
A player transmits when its uniform u in [0, 1) is below its state's
probability p, so only a p strictly between 0 and 1 reads u; a state is
closed when every state it can reach has p 0 or 1.  A player draws a
uniform per slot for every game of the chunk while some game has it open.
A game with both players closed has its future fixed by its joint state:
once such games are half the live ones they are parked, and only the rest
are stepped.  Parked games are finished together by binary lifting over
``_joint_chain``, the walk the exact evaluator shares, in O(log T) steps.
No draw a game reads moves; the scalar engine still draws every slot.

Every machine plays one state table (``CompiledMachine``, the override's
shadow folded in), flattened per call into a step table (``_tables``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsl import StrategyMachine, check_machine
from .game import check_horizon
from .rng import DOMAIN_GAME, RngStream

CHUNK_SIZE = 65_536
_NONE = 2**62  # "no solo success" among offsets, which stay below 2**31
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
    check_machine(machine)
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


def _tables(m: CompiledMachine, moves, closed=None) -> tuple:
    """One player's engine tables, state ids times 4: ``probs``,
    ``last_probs`` and ``closed`` repeated 4 times, the step table, the
    start and m itself.  ``step[4 * s + k]`` is 4 times the successor of
    state s under the slot move k = 2 * xa + xb, which this player sees as
    ``moves[k]`` = (own action, feedback).  An undefined successor (-1)
    becomes 4N, past the end of every table, so the next slot's ``take``
    raises.  State s is closed when every state reachable from it plays p 0
    or 1 on any slot, in either seat, so one seat's ``closed`` serves both."""
    actions, feedback = zip(*moves)
    succ = m.trans[:, actions, feedback].astype(np.intp)
    succ[succ < 0] = len(succ)
    if closed is None:
        # a state is open when it reaches a coin state: one search back from them
        flags = ((m.probs % 1 == 0) & (m.last_probs % 1 == 0)).tolist() + [True]  # p in {0, 1}; entry N: undefined
        preds = [[] for _ in flags]
        for s, row in enumerate(succ.tolist()):
            for t in row:
                preds[t].append(s)
        todo = [s for s, c in enumerate(flags) if not c]
        while todo:
            for s in preds[todo.pop()]:
                if flags[s]:
                    flags[s] = False
                    todo.append(s)
        closed = np.repeat(flags[:-1], 4)
    return np.repeat(m.probs, 4), np.repeat(m.last_probs, 4), (4 * succ).ravel(), closed, 4 * m.start, m


def _pair_tables(machine_a, machine_b) -> tuple[tuple, tuple]:
    """Both seats' ``_tables``; a table playing itself is searched once."""
    ca = compile_machine(machine_a)
    ta, cb = _tables(ca, _MOVES), ca if machine_b is machine_a else compile_machine(machine_b)
    return ta, _tables(cb, _MOVES_B, ta[3] if cb is ca else None)


def _play_chunk(ta, tb, horizon: int, uniforms, out: np.ndarray) -> np.ndarray:
    """Play one game per column of ``out`` (GameBatch's three fields) for the
    players with ``_tables`` ta and tb; ``uniforms(player, t)`` gives a slot's
    draws, called in slot order while some game has that player open."""
    probs_a, last_a, step_a, closed_a, start_a, _ = ta
    probs_b, last_b, step_b, closed_b, start_b, _ = tb
    n, w = out.shape[1], len(probs_b) + 1  # joint state sa * w + sb; sb may be 4N_b, undefined
    # a parked game's (park event * (4N_a + 1) + sa) * w + sb; each event at least halves the live games
    key = np.full(n, -1, dtype=np.int64 if (n.bit_length() + 1) * (len(probs_a) + 1) * w >= 2**31 else np.int32)
    slots, ids, sa, sb = [], np.arange(n), np.full(n, start_a, dtype=np.intp), np.full(n, start_b, dtype=np.intp)
    score_a, score_b, lead = (np.zeros(n, dtype=np.int32) for _ in range(3))  # lead: slots before a solo success
    live, draw_a, draw_b = n, True, True  # the live arrays hold live games first, then copies of one
    try:
        for t in range(1, horizon + 1):
            ca, cb = closed_a.take(sa) if draw_a else True, closed_b.take(sb) if draw_b else True
            draw_a, draw_b, both = draw_a and not ca.all(), draw_b and not cb.all(), ca & cb
            if both is True or 2 * np.count_nonzero(both[:live]) >= live:  # park them; _finish adds their tails
                both = both if both is True else both[:live]  # index arrays: a random boolean mask is ~10x slower
                go, stay = (slice(0, live), np.arange(0)) if both is True else (np.flatnonzero(both), np.flatnonzero(~both))
                parked = ids[go]
                for row, value in zip(out, (score_a[go], score_b[go], np.where(lead[go] < t - 1, lead[go] + 1, 0))):
                    row[parked] = value  # a row at a time: numpy assigns (3, k) blocks several times slower
                key[parked] = (sa[go] + len(slots) * (len(probs_a) + 1)) * w + sb[go]
                slots.append(t)
                live = len(stay)
                stay = np.append(stay, stay[-1:].repeat(-live % 1024))  # few array sizes: a less fragmented heap
                ids, sa, sb, score_a, score_b, lead = (v[stay] for v in (ids, sa, sb, score_a, score_b, lead))
                if not live:
                    break
            xa = (uniforms(0, t).take(ids) if draw_a else 0.0) < (last_a if t == horizon else probs_a).take(sa)
            xb = (uniforms(1, t).take(ids) if draw_b else 0.0) < (last_b if t == horizon else probs_b).take(sb)
            move = 2 * xa.view(np.uint8) | xb.view(np.uint8)
            score_a += move == 2
            score_b += move == 1
            lead += (score_a | score_b) == 0
            if t < horizon:  # no transition after the final slot
                sa = step_a.take(sa + move)
                sb = step_b.take(sb + move)
    except IndexError:
        raise ValueError("no transition is defined for a reachable move") from None
    # lead reaches the horizon only in games without a solo success
    for row, value in zip(out, (score_a, score_b, np.where(lead < horizon, lead + 1, 0))):
        row[ids] = value
    if n and slots:  # some game was parked
        _finish(ta, tb, horizon, w, slots, key, out)
    return out


def _joint_chain(a: CompiledMachine, b: CompiledMachine, roots, depth: int) -> dict:
    """The joint states (sa, sb) of players a and b that ``roots`` reach in at most ``depth`` transitions, breadth
    first, each mapped to its moves (xa, xb, successor) of nonzero probability under ``probs`` and those of the final
    slot under ``last_probs``, which follows no successor (one list where they agree); none if a half is -1."""
    pa, la, ta = a.probs.tolist(), a.last_probs.tolist(), a.trans.ravel().tolist()  # trans[s, x, f]: 6 * s + 3 * x + f
    pb, lb, tb = (pa, la, ta) if b is a else (b.probs.tolist(), b.last_probs.tolist(), b.trans.ravel().tolist())
    chain, frontier = {}, dict.fromkeys(roots)
    while frontier:
        for sa, sb in frontier:
            moves = []  # each slice of (0, 1) holds the actions u < p allows
            for xa in (0, 1)[pa[sa] >= 1:1 + (pa[sa] > 0)] if sa >= 0 <= sb else ():  # none if a half is undefined
                for xb in (0, 1)[pb[sb] >= 1:1 + (pb[sb] > 0)]:
                    moves.append((xa, xb, (ta[6 * sa + 4 * xa + xb], tb[6 * sb + xa + 4 * xb])))
            chain[sa, sb] = moves, final = (moves, moves) if la[sa] == pa[sa] and lb[sb] == pb[sb] else (moves, [])
            for xa in (0, 1)[la[sa] >= 1:1 + (la[sa] > 0)] if sa >= 0 <= sb and final is not moves else ():
                for xb in (0, 1)[lb[sb] >= 1:1 + (lb[sb] > 0)]:
                    final.append((xa, xb, (ta[6 * sa + 4 * xa + xb], tb[6 * sb + xa + 4 * xb])))
        frontier = dict.fromkeys(s for j in frontier for _, _, s in chain[j][0] if s not in chain) if depth else {}
        depth -= 1
    return chain


def _finish(ta, tb, horizon: int, w: int, slots: list[int], key: np.ndarray, out: np.ndarray) -> None:
    """Add the tails of the games parked with ``key`` to ``out``: binary lifting over the ``_joint_chain`` of their
    joint states (compiled ids, the undefined 4N as -1) jumps each distinct (park slot, joint state) through its
    horizon - t transitions.  A closed state has one move of each kind, or none if a half is undefined (move -1)."""
    groups, inverse = np.unique(key, return_inverse=True)
    parked = groups >= 0  # all but the unparked games' -1
    event, joint = np.divmod(groups[parked], (len(ta[0]) + 1) * w)
    roots = list(zip(*(np.where(s < len(t[0]), s >> 2, -1).tolist() for s, t in zip(np.divmod(joint, w), (ta, tb)))))
    chain = _joint_chain(ta[5], tb[5], roots, horizon - slots[0])
    index = {state: i for i, state in enumerate(chain)}
    move, last, nxt = np.array([(2 * m[0][0] + m[0][1], 2 * f[0][0] + f[0][1], index.get(m[0][2], i)) if m else
                                (-1, 0, i) for i, (m, f) in enumerate(chain.values())]).T
    cur = np.array([index[state] for state in roots])
    left = horizon - np.array(slots)[event]  # transitions before the final slot
    # per state a jump of 2^j slots, per key the jumps taken: gains a << 32 | b, first solo offset
    gain, off = np.where(move == 2, 1 << 32, move == 1), np.where((move == 1) | (move == 2), 0, _NONE)
    acc_gain, acc_off = np.zeros(len(cur), dtype=np.int64), np.full(len(cur), _NONE)
    for j in range(int(left.max()).bit_length()):
        hop = (left & (1 << j)) != 0
        acc_gain += np.where(hop, gain.take(cur), 0)
        acc_off = np.minimum(acc_off, np.where(hop, off.take(cur) + (left & ((1 << j) - 1)), _NONE))
        cur = np.where(hop, nxt.take(cur), cur)
        gain, off, nxt = gain + gain.take(nxt), np.minimum(off, off.take(nxt) + (1 << j)), nxt.take(nxt)
    if (move.take(cur) < 0).any():  # an undefined half absorbs; reaching it raises
        raise ValueError("no transition is defined for a reachable move")
    k = last.take(cur)
    first = np.minimum(acc_off, np.where((k == 1) | (k == 2), left, _NONE)) + horizon - left
    tail = np.zeros((3, len(groups)), dtype=np.int32)  # the unparked games gain nothing
    tail[:, parked] = (acc_gain >> 32) + (k == 2), (acc_gain & 0xFFFFFFFF) + (k == 1), np.where(first < _NONE, first, 0)
    tail = tail.take(inverse, axis=1)
    out[:2] += tail[:2]
    np.copyto(out[2], tail[2], where=out[2] == 0)


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
    ta, tb = _pair_tables(machine_a, machine_b)
    out = np.zeros((3, runs), dtype=np.int32)  # scores_a, scores_b, first_success
    for chunk, lo in enumerate(range(0, runs, CHUNK_SIZE)):
        n = min(CHUNK_SIZE, runs - lo)
        gens = {}  # a player's stream is built on its first draw, so a closed one has none

        def draw(player: int, t: int) -> np.ndarray:
            if player not in gens:
                gens[player] = RngStream(seed, (DOMAIN_GAME, pairing[0], pairing[1], chunk, player)).generator()
            return gens[player].random(n)

        _play_chunk(ta, tb, horizon, draw, out[:, lo:lo + n])
    return GameBatch(*out)


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
    horizon = check_horizon(ua.shape[1])
    ta, tb = _pair_tables(machine_a, machine_b)
    out = np.zeros((3, len(ua)), dtype=np.int32)
    return GameBatch(*_play_chunk(ta, tb, horizon, lambda p, t: (ua if p == 0 else ub)[:, t - 1], out))
