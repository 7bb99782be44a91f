"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they check:
the self-play value is recomputed by a joint-state dynamic program over
exact rationals and by brute force through the batch engine, the capture
table by the full scalar scan without the numpy screen, the grid scans on
dense meshgrids, the batch engine's closed states by the fixed-point
iteration it used before its reverse search, its parked closed tails by the
slot-by-slot chunk loop it used before parking, the CLI's transcripts.json
by the dict-plus-``json.dumps`` builder it used before writing the text
directly, ``.strat`` text by the token-object line parser that ran before the
one-pass parser (``analyze_strategy`` here), and random machines are built
straight from dicts rather than through the parser.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from slotmac import StrategyMachine, capture_objective, solve_capture_table
from slotmac.batch import (
    _MOVES,
    _MOVES_B,
    CHUNK_SIZE,
    CompiledMachine,
    GameBatch,
    _tables,
    compile_machine,
    run_games_with_uniforms,
)
from slotmac.capture import SCAN_POINTS, CaptureTable, _relaxation_feasible, three_user_relaxation
from slotmac.dsl import (
    _ACTION_LETTER,
    _ID_PATTERN,
    IDLE,
    TRANSMIT,
    Diagnostic,
    ParseReport,
    StateSpec,
    validate_machine,
)
from slotmac.multichannel import _beta_theta_poly
from slotmac.optimize import golden_section
from slotmac.cli import _json_text
from slotmac.game import play_game
from slotmac.rng import DOMAIN_GAME, DOMAIN_MISC, RngStream


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
    of them gives the exact expectation.  Runs the real batch engine on the
    compiled table, foreign-opponent shadow included (an override machine's
    table carries it); cost grows as 4^T.
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


def full_draw_run_games(machine_a, machine_b, horizon: int, runs: int, seed: int, pairing=(0, 0)) -> GameBatch:
    """``run_games`` as if every player drew one uniform per slot and game:
    each chunk draws both players' whole (horizon, n) block from the stream
    ``run_games`` names, then hands it to ``run_games_with_uniforms``."""
    out = GameBatch(*(np.zeros(runs, dtype=np.int32) for _ in range(3)))
    for chunk, lo in enumerate(range(0, runs, CHUNK_SIZE)):
        n = min(CHUNK_SIZE, runs - lo)
        ua, ub = (
            RngStream(seed, (DOMAIN_GAME, pairing[0], pairing[1], chunk, player)).generator().random((horizon, n))
            for player in (0, 1)
        )
        part = run_games_with_uniforms(machine_a, machine_b, ua.T, ub.T)
        for field in ("scores_a", "scores_b", "first_success"):
            getattr(out, field)[lo:lo + n] = getattr(part, field)
    return out


def fixed_point_closed(m: CompiledMachine, moves=((0, 0), (0, 1), (1, 1), (1, 2))) -> np.ndarray:
    """Which states of m are closed, as the batch engine once found them: the
    greatest fixed point reached by opening, pass after pass, every state
    with an open successor under ``moves``, starting from the states whose
    transmit probabilities are all 0 or 1 (an undefined successor counts as
    closed).  One numpy pass per step of the longest deterministic path into
    a coin state, so quadratic on long chains."""
    actions, feedback = zip(*moves)
    succ = m.trans[:, actions, feedback].astype(np.intp)
    succ[succ < 0] = len(succ)
    closed = np.append(np.isin(m.probs, (0, 1)) & np.isin(m.last_probs, (0, 1)), True)
    while (opened := closed[:-1] & ~closed[succ].all(axis=1)).any():
        closed[:-1] &= ~opened
    return closed[:-1]


def slot_by_slot_play_chunk(ta, tb, horizon: int, n: int, uniforms, first: int = 1, states=None) -> GameBatch:
    """The batch engine's chunk loop before it parked closed games: every
    game is stepped slot by slot until both players are closed in all of
    them, then one game per distinct joint state is played out slot by
    slot.  Runs n games between the players whose ``_tables`` are ta and
    tb, from slot ``first`` and the joint ``states`` (default the starts)
    on.  ``uniforms(player, t)`` must return the n uniform draws for that
    player and slot; it is called in slot order, player 0 then player 1,
    while some game has that player outside its closed states."""
    probs_a, last_a, step_a, closed_a, start_a, _ = ta
    probs_b, last_b, step_b, closed_b, start_b, _ = tb
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
                tail = slot_by_slot_play_chunk(ta, tb, horizon, len(codes), None, t, (codes // w, codes % w))
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


def slot_by_slot_games(machine_a, machine_b, ua: np.ndarray, ub: np.ndarray) -> GameBatch:
    """``run_games_with_uniforms`` through ``slot_by_slot_play_chunk``."""
    ta, tb = _tables(compile_machine(machine_a), _MOVES), _tables(compile_machine(machine_b), _MOVES_B)
    return slot_by_slot_play_chunk(ta, tb, ua.shape[1], len(ua), lambda player, t: (ua if player == 0 else ub)[:, t - 1])


def scalar_scan_then_golden(f, lo: float, hi: float, points: int, tol: float = 1e-12) -> tuple[float, float]:
    """Evaluate f on an inclusive uniform grid, then refine the minimum by
    golden-section search on the bracket around the best grid point."""
    if points < 2:
        raise ValueError("need at least two grid points")
    step = (hi - lo) / (points - 1)
    xs = [lo + i * step for i in range(points)]
    values = [f(x) for x in xs]
    i = min(range(points), key=values.__getitem__)
    a = xs[i - 1] if i > 0 else xs[i]
    b = xs[i + 1] if i < points - 1 else xs[i]
    if a == b:
        return xs[i], values[i]
    x, fx = golden_section(f, a, b, tol)
    if values[i] < fx:
        return xs[i], values[i]
    return x, fx


def scalar_capture_table(n_max: int, tol: float = 1e-9) -> CaptureTable:
    """The capture table by the full scalar scan: every one of the
    SCAN_POINTS grid points of every stage goes through the scalar
    ``capture_objective``, with no screen.  Costs O(n_max^3) Python."""
    probs = [math.nan, 1.0]
    values = [math.nan, 1.0]
    for n in range(2, n_max + 1):
        p, z = scalar_scan_then_golden(
            lambda p: capture_objective(n, p, values), 0.001, 0.999, SCAN_POINTS, tol
        )
        probs.append(p)
        values.append(z)
    return CaptureTable(tuple(probs[: n_max + 1]), tuple(values[: n_max + 1]))


def dense_z_grid(xs: np.ndarray) -> np.ndarray:
    """The full-family renewal value on a dense grid^3 meshgrid, filled by
    masked gathers: every polynomial factor evaluated at every point."""
    beta, theta = _beta_theta_poly(*np.meshgrid(xs, xs, xs, indexing="ij"))
    z = np.full(beta.shape, math.inf)
    ok = beta < 1.0 - 1e-9
    z[ok] = (1.0 + theta[ok]) / (1.0 - beta[ok])
    return z


def dense_relaxation_grid(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The three-user relaxation on a dense (a, c) meshgrid, inf where
    infeasible."""
    A, C = np.meshgrid(a, c, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(_relaxation_feasible(A, C), three_user_relaxation(A, C), math.inf)


def random_machine(
    rng: np.random.Generator,
    n_states: int | None = None,
    deterministic: bool = False,
    half: bool = False,
    override: bool = False,
) -> StrategyMachine:
    """A structurally valid machine with random transitions.  Transitions
    are defined exactly for the (action, feedback) pairs the transmit
    probability allows, so validation always passes.  ``deterministic``
    draws every transmit probability from {0, 1} and ``half`` from
    {0, 1/2, 1}; ``override`` turns on the final-slot grab against foreign
    opponents.  The start state is drawn last, from all the states."""
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
    start = ids[int(rng.integers(0, count))]
    return StrategyMachine("rand", start, states, last_slot_override=override)


class ReplayGenerator:
    """Stands in for a numpy Generator, yielding the next scripted uniform
    per call, or an array of the next ``size``.  Lets scalar games be driven
    with hand-picked draws."""

    def __init__(self, values, owner=None):
        self.values = list(values)
        self.owner = owner

    def random(self, size=None):
        n = 1 if size is None else size
        if self.owner is not None:
            self.owner.draws += n
        drawn, self.values = self.values[:n], self.values[n:]
        if len(drawn) < n:
            raise IndexError("scripted uniforms ran out")
        return drawn[0] if size is None else np.array(drawn)


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


def dict_transcripts(config, games_per_pair: int) -> str:
    """transcripts.json as the CLI built it before it wrote the text
    directly: the payload as dicts and lists, through ``_json_text``."""
    entries = []
    k = len(config.entrants)
    for i in range(k):
        for j in range(i, k):
            (name_i, machine_i), (name_j, machine_j) = config.entrants[i], config.entrants[j]
            games = []
            for g in range(games_per_pair):
                transcript = play_game(
                    machine_i, machine_j, config.horizon,
                    RngStream(config.seed, (DOMAIN_MISC, i, j, g, 0)),
                    RngStream(config.seed, (DOMAIN_MISC, i, j, g, 1)),
                )
                games.append({
                    "scores": list(transcript.scores),
                    "slots": [[r.decisions[0], r.decisions[1], r.feedback] for r in transcript.slots],
                })
            entries.append({"pairing": [name_i, name_j], "games": games})
    return _json_text({"transcripts": entries})


# The line parser as it was before the one-pass parser replaced it.


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize_line(raw: str, lineno: int) -> list[_Token]:
    # strip comments, then split on whitespace keeping column positions
    cut = raw.find("#")
    if cut >= 0:
        raw = raw[:cut]
    return [
        _Token(m.group(), lineno, m.start() + 1)
        for m in re.finditer(r"\S+", raw)
    ]


class _LineParser:
    """Parses one strategy source into a machine, collecting diagnostics."""

    def __init__(self, text: str):
        self.lines = [_tokenize_line(raw, i + 1) for i, raw in enumerate(text.splitlines())]
        self.diagnostics: list[Diagnostic] = []
        self.name: str | None = None
        self.start: str | None = None
        self.override = False
        self.states: dict[str, StateSpec] = {}
        self.state_lines: dict[str, int] = {}

    def error(self, tok: _Token | None, message: str, lineno: int | None = None) -> None:
        if tok is not None:
            self.diagnostics.append(Diagnostic("error", message, tok.line, tok.column))
        else:
            self.diagnostics.append(Diagnostic("error", message, lineno, 1 if lineno else None))

    def parse(self) -> ParseReport:
        current: str | None = None  # state id being filled in
        current_prob = 0.0
        current_trans: dict[tuple[int, int], str] = {}
        current_line = 0

        def close_state() -> None:
            nonlocal current
            if current is not None:
                self.states[current] = StateSpec(current_prob, dict(current_trans))
                current = None

        for toks in self.lines:
            if not toks:
                continue
            head = toks[0]
            if current is None:
                if head.text == "machine":
                    if self.name is not None:
                        self.error(head, "duplicate machine declaration")
                    elif self.states or self.start is not None:
                        self.error(head, "machine declaration must come first")
                    self.name = self._expect_id(toks, 1, "machine name")
                elif self.name is None:
                    self.error(head, "expected machine declaration before anything else")
                    # keep going so later mistakes are still reported
                    self.name = ""
                    continue
                elif head.text == "start":
                    if self.start is not None:
                        self.error(head, "duplicate start declaration")
                    self.start = self._expect_id(toks, 1, "start state id")
                elif head.text == "lastslot-override":
                    arg = toks[1].text if len(toks) > 1 else None
                    if arg != "on-foreign-behavior":
                        self.error(head, "lastslot-override takes the single mode on-foreign-behavior")
                    self.override = True
                elif head.text == "state":
                    sid = self._expect_id(toks, 1, "state id")
                    prob = self._parse_state_header(toks)
                    if sid is not None:
                        if sid in self.states:
                            self.error(head, f"duplicate state {sid!r}")
                        current = sid
                        current_prob = prob
                        current_trans = {}
                        current_line = head.line
                        self.state_lines.setdefault(sid, head.line)
                elif head.text == "end":
                    self.error(head, "end outside a state block")
                else:
                    self.error(head, f"unknown directive {head.text!r}")
            else:
                if head.text == "on":
                    key_target = self._parse_transition(toks)
                    if key_target is not None:
                        key, target = key_target
                        if key in current_trans:
                            a, f = key
                            self.error(head, f"duplicate transition for ({_ACTION_LETTER[a]}, f={f})")
                        else:
                            current_trans[key] = target
                elif head.text == "end":
                    close_state()
                else:
                    self.error(head, f"expected transition or end, got {head.text!r}")
        if current is not None:
            self.error(None, f"state {current!r} is missing its end", lineno=current_line)
            close_state()

        machine: StrategyMachine | None = None
        if not any(d.severity == "error" for d in self.diagnostics):
            if self.start is None:
                self.error(None, "missing start declaration", lineno=max(1, len(self.lines)))
            else:
                machine = StrategyMachine(
                    name=self.name or "",
                    start=self.start,
                    states=self.states,
                    last_slot_override=self.override,
                )
        return ParseReport(machine, self.diagnostics)

    def _expect_id(self, toks: list[_Token], pos: int, what: str) -> str | None:
        if len(toks) <= pos:
            self.error(toks[-1], f"missing {what}")
            return None
        tok = toks[pos]
        if not _ID_PATTERN.match(tok.text):
            self.error(tok, f"invalid {what} {tok.text!r}")
            return None
        return tok.text

    def _parse_state_header(self, toks: list[_Token]) -> float:
        # state ID transmit PROB
        if len(toks) < 4 or toks[2].text != "transmit":
            self.error(toks[0], "state header must read: state ID transmit PROB")
            return 0.0
        if len(toks) > 4:
            self.error(toks[4], "unexpected trailing tokens after state header")
        tok = toks[3]
        try:
            prob = float(tok.text)
        except ValueError:
            self.error(tok, f"transmit probability {tok.text!r} is not a number")
            return 0.0
        if not math.isfinite(prob) or not 0.0 <= prob <= 1.0:
            self.error(tok, f"transmit probability {tok.text} is outside [0, 1]")
            return 0.0
        return prob

    def _parse_transition(self, toks: list[_Token]) -> tuple[tuple[int, int], str] | None:
        # on T|I f=N -> ID
        if len(toks) != 5 or toks[3].text != "->":
            self.error(toks[0], "transition must read: on T|I f=N -> STATE")
            return None
        action_tok, feedback_tok, target_tok = toks[1], toks[2], toks[4]
        if action_tok.text == "T":
            action = TRANSMIT
        elif action_tok.text == "I":
            action = IDLE
        else:
            self.error(action_tok, f"action must be T or I, got {action_tok.text!r}")
            return None
        m = re.fullmatch(r"f=([0-9]+)", feedback_tok.text)
        if not m:
            self.error(feedback_tok, f"expected f=N, got {feedback_tok.text!r}")
            return None
        feedback = int(m.group(1))
        if feedback not in (0, 1, 2):
            self.error(feedback_tok, f"feedback must be 0, 1, or 2, got {feedback}")
            return None
        if not _ID_PATTERN.match(target_tok.text):
            self.error(target_tok, f"invalid target state id {target_tok.text!r}")
            return None
        return (action, feedback), target_tok.text


def analyze_strategy(text: str) -> ParseReport:
    """Parse and validate strategy text, reporting every diagnostic.

    Machine-level diagnostics are given the source line of the state they
    concern when one is known.
    """
    parser = _LineParser(text)
    report = parser.parse()
    if report.machine is not None:
        extra = validate_machine(report.machine)
        for d in extra:
            if d.line is None and d.state in parser.state_lines:
                d = Diagnostic(d.severity, d.message, parser.state_lines[d.state], 1, d.state)
            report.diagnostics.append(d)
        if report.errors:
            report.machine = None
    return report
