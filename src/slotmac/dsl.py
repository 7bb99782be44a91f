"""Strategy machines and their text format.

A strategy machine is a probabilistic finite-state controller for one player
of the two-player slotted channel game.  Each state carries a transmit
probability; after every slot the machine follows a transition keyed on
(own action, feedback) where the action is T (transmitted) or I (idled) and
the feedback is the number of players that transmitted, 0, 1, or 2.

The text format is line-oriented::

    # duel machine, alternates turns after the first solo success
    machine four_state
    start 1
    state 1 transmit 0.5
      on T f=1 -> 2
      on T f=2 -> 1
      on I f=0 -> 1
      on I f=1 -> 3
    end
    ...

``machine NAME`` must come first.  ``start ID`` names the initial state.
``lastslot-override on-foreign-behavior`` arms the endgame rule: once the
machine decides its opponent is not a copy of itself, it transmits on the
final slot no matter what state it is in.  Each ``state ID transmit P``
block lists transitions and is closed by ``end``.  ``#`` starts a comment.

``analyze_strategy`` reads the text in one pass over its lines and then
validates the machine it describes.  ``check_machine`` is the one check a
machine passes before either engine plays it, however it was built.

With two players a machine that transmitted can only see feedback 1 or 2,
and one that idled only 0 or 1, so those are the transition keys a state
must provide (and only for actions its transmit probability allows).
Completeness is checked over states reachable from the start state;
anything else is reported as a warning, not an error.  A transition key
outside (T|I, f=0|1|2) is an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

# Decision values used throughout the package.
TRANSMIT = 1
IDLE = 0

_ACTION_LETTER = {TRANSMIT: "T", IDLE: "I"}
_ID_PATTERN = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_-]*\Z")
_TOKEN = re.compile(r"\S+")
_FEEDBACK = re.compile(r"f=([0-9]+)")
# every transition key a state may hold, (action, feedback), and its name
_KEYS = {(a, f): f"({_ACTION_LETTER[a]}, f={f})" for a in (TRANSMIT, IDLE) for f in (0, 1, 2)}

# Transition keys an action makes possible: feedback counts own action plus
# an opponent bit, so action a can only ever see feedback a or a+1.
def _feasible_feedback(action: int) -> tuple[int, int]:
    return (action, action + 1)


@dataclass(frozen=True)
class StateSpec:
    """One state: a transmit probability and its outgoing transitions.

    Transitions are keyed by ``(action, feedback)`` with action TRANSMIT or
    IDLE and feedback in {0, 1, 2}; values are target state ids.
    """

    transmit_prob: float
    transitions: dict[tuple[int, int], str]


@dataclass(frozen=True)
class StrategyMachine:
    name: str
    start: str
    states: dict[str, StateSpec]
    last_slot_override: bool = False


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    message: str
    line: int | None = None
    column: int | None = None
    state: str | None = None

    def render(self) -> str:
        loc = f"{self.line}:{self.column or 1}: " if self.line is not None else ""
        return f"{loc}{self.severity}: {self.message}"


class StrategyParseError(ValueError):
    """Raised when strategy text or a machine fails validation.  With a
    ``path``, each error reads ``PATH:LINE:COL: error: ...`` as
    ``slotmac validate`` prints it."""

    def __init__(self, diagnostics: list[Diagnostic], path: str | None = None):
        self.diagnostics = diagnostics
        where = "" if path is None else f"{path}:"
        super().__init__("; ".join(where + d.render() for d in diagnostics if d.severity == "error"))


@dataclass
class ParseReport:
    """Outcome of analyzing strategy text: a machine if one could be built,
    plus every diagnostic found along the way."""

    machine: StrategyMachine | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]


def _probability(toks: list[tuple[str, int, int]], error) -> float:
    """PROB of a ``state ID transmit PROB`` header; 0.0 once ``error`` has
    been told what is wrong with it."""
    if len(toks) < 4 or toks[2][0] != "transmit":
        error(toks[0], "state header must read: state ID transmit PROB")
        return 0.0
    if len(toks) > 4:
        error(toks[4], "unexpected trailing tokens after state header")
    text = toks[3][0]
    try:
        prob = float(text)
    except ValueError:
        error(toks[3], f"transmit probability {text!r} is not a number")
        return 0.0
    if not math.isfinite(prob) or not 0.0 <= prob <= 1.0:
        error(toks[3], f"transmit probability {text} is outside [0, 1]")
        return 0.0
    return prob


def _transition(toks: list[tuple[str, int, int]], error) -> tuple[tuple[int, int], str] | None:
    """``on T|I f=N -> ID`` as ((action, feedback), target); None once
    ``error`` has been told what is wrong with it."""
    if len(toks) != 5 or toks[3][0] != "->":
        return error(toks[0], "transition must read: on T|I f=N -> STATE")
    action, feedback, target = toks[1][0], toks[2][0], toks[4][0]
    if action not in ("T", "I"):
        return error(toks[1], f"action must be T or I, got {action!r}")
    m = _FEEDBACK.fullmatch(feedback)
    if not m:
        return error(toks[2], f"expected f=N, got {feedback!r}")
    if int(m[1]) not in (0, 1, 2):
        return error(toks[2], f"feedback must be 0, 1, or 2, got {int(m[1])}")
    if not _ID_PATTERN.match(target):
        return error(toks[4], f"invalid target state id {target!r}")
    return (TRANSMIT if action == "T" else IDLE, int(m[1])), target


def reachable_states(machine: StrategyMachine) -> set[str]:
    """States reachable from the start state, honoring which actions each
    state's transmit probability makes possible."""
    seen: set[str] = set()
    stack = [machine.start]
    while stack:
        sid = stack.pop()
        if sid in seen or sid not in machine.states:
            continue
        seen.add(sid)
        spec = machine.states[sid]
        for action in _possible_actions(spec.transmit_prob):
            for fb in _feasible_feedback(action):
                target = spec.transitions.get((action, fb))
                if target is not None and target not in seen:
                    stack.append(target)
    return seen


def _possible_actions(prob: float) -> tuple[int, ...]:
    actions: list[int] = []
    if prob > 0.0:
        actions.append(TRANSMIT)
    if prob < 1.0:
        actions.append(IDLE)
    return tuple(actions)


def validate_machine(machine: StrategyMachine) -> list[Diagnostic]:
    """Check a machine for structural problems.

    Errors make the machine unusable: a container of the wrong type (states
    not a dict, a state not a ``StateSpec``, its transitions not a dict, a
    start that is not a string), bad probabilities, a transition key
    outside (T|I, f=0|1|2), dangling transition targets, a missing start
    state, or a reachable state without a transition for an (action,
    feedback) pair that can actually occur.  Unreachable states and
    transitions that can never fire are warnings.
    """
    if not isinstance(machine.states, dict):
        return [Diagnostic("error", f"states {machine.states!r} is not a dict")]
    if not machine.states:
        return [Diagnostic("error", "machine has no states")]
    diags: list[Diagnostic] = []
    if not isinstance(machine.start, str) or machine.start not in machine.states:
        diags.append(Diagnostic("error", f"start state {machine.start!r} is not defined"))

    def report(severity: str, sid: str, message: str) -> None:
        diags.append(Diagnostic(severity, f"state {sid!r} {message}", state=sid))

    for sid, spec in machine.states.items():
        if not (isinstance(sid, str) and _ID_PATTERN.match(sid)):
            diags.append(Diagnostic("error", f"state id {sid!r} is not a valid identifier", state=sid))
        if not (isinstance(spec, StateSpec) and isinstance(spec.transitions, dict)):
            report("error", sid, f"is {spec!r}, not a StateSpec with a dict of transitions")
            continue
        p = spec.transmit_prob
        if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 <= p <= 1.0):
            report("error", sid, f"transmit probability {p!r} is outside [0, 1]")
            continue
        actions = _possible_actions(p)
        for key, target in spec.transitions.items():
            if key not in _KEYS or not type(key[0]) is type(key[1]) is int:  # nor a bool, float or numpy int
                report("error", sid, f"transition key {key!r} is not (T|I, f=0|1|2)")
                continue
            action, fb = key
            if not isinstance(target, str) or target not in machine.states:
                report("error", sid, f"transition {_KEYS[key]} targets undefined state {target!r}")
            if fb - action not in (0, 1):  # the opponent's bit; see _feasible_feedback
                report("warning", sid, f"transition {_KEYS[key]} can never fire with two players")
            elif action not in actions:
                report("warning", sid, f"transition on action {_ACTION_LETTER[action]} can never fire at transmit probability {p:g}")
    if any(d.severity == "error" for d in diags):
        # reachability is meaningless with dangling references present
        return diags
    reached = reachable_states(machine)
    for sid in machine.states:
        if sid not in reached:
            report("warning", sid, "is unreachable from the start state")
    for sid, spec in machine.states.items():
        for action in _possible_actions(spec.transmit_prob) if sid in reached else ():
            for fb in _feasible_feedback(action):
                if (action, fb) not in spec.transitions:
                    report("error", sid, f"is missing its transition for {_KEYS[action, fb]}")
    return diags


def check_machine(machine: StrategyMachine) -> StrategyMachine:
    """The machine itself when ``validate_machine`` finds no error in it;
    raises StrategyParseError listing the errors otherwise."""
    errors = [d for d in validate_machine(machine) if d.severity == "error"]
    if errors:
        raise StrategyParseError(errors)
    return machine


def analyze_strategy(text: str) -> ParseReport:
    """Parse and validate strategy text, reporting every diagnostic.

    Walks the lines once, holding each token as (text, line, column).  The
    validator's diagnostics about a state carry its header line.
    """
    diags: list[Diagnostic] = []

    def error(tok: tuple[str, int, int], message: str) -> None:
        diags.append(Diagnostic("error", message, tok[1], tok[2]))

    def ident(toks: list[tuple[str, int, int]], what: str) -> str | None:
        if len(toks) < 2:
            return error(toks[-1], f"missing {what}")
        if not _ID_PATTERN.match(toks[1][0]):
            return error(toks[1], f"invalid {what} {toks[1][0]!r}")
        return toks[1][0]

    name = start = current = None  # current: the state whose block is open
    override = False
    states: dict[str, StateSpec] = {}
    header: dict[str, int] = {}  # each state's header line
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, 1):
        toks = [(m[0], lineno, m.start() + 1) for m in _TOKEN.finditer(raw.partition("#")[0])]
        if not toks:
            continue
        head, word = toks[0], toks[0][0]
        if current is not None:
            if word == "on":
                move = _transition(toks, error)
                if move is not None and move[0] in trans:
                    error(head, f"duplicate transition for {_KEYS[move[0]]}")
                elif move is not None:
                    trans[move[0]] = move[1]
            elif word == "end":
                states[current], current = StateSpec(prob, trans), None
            else:
                error(head, f"expected transition or end, got {word!r}")
        elif word == "machine":
            if name is not None:
                error(head, "duplicate machine declaration")
            elif states or start is not None:
                error(head, "machine declaration must come first")
            name = ident(toks, "machine name")
        elif name is None:
            error(head, "expected machine declaration before anything else")
            name = ""  # keep going so later mistakes are still reported
        elif word == "start":
            if start is not None:
                error(head, "duplicate start declaration")
            start = ident(toks, "start state id")
        elif word == "lastslot-override":
            if len(toks) < 2 or toks[1][0] != "on-foreign-behavior":
                error(head, "lastslot-override takes the single mode on-foreign-behavior")
            override = True
        elif word == "state":
            sid, p = ident(toks, "state id"), _probability(toks, error)
            if sid is not None:
                if sid in states:
                    error(head, f"duplicate state {sid!r}")
                current, prob, trans, header[sid] = sid, p, {}, lineno
        elif word == "end":
            error(head, "end outside a state block")
        else:
            error(head, f"unknown directive {word!r}")
    if current is not None:
        diags.append(Diagnostic("error", f"state {current!r} is missing its end", header[current], 1))
    elif not diags and start is None:
        diags.append(Diagnostic("error", "missing start declaration", max(1, len(lines)), 1))
    if diags:
        return ParseReport(None, diags)
    machine = StrategyMachine(name, start, states, override)
    diags = [replace(d, line=header[d.state], column=1) if d.state in header else d for d in validate_machine(machine)]
    return ParseReport(None if any(d.severity == "error" for d in diags) else machine, diags)


def parse_strategy(text: str) -> StrategyMachine:
    """Parse strategy text into a validated machine.

    Raises StrategyParseError carrying line/column diagnostics if the text
    is malformed or the machine it describes is invalid.
    """
    report = analyze_strategy(text)
    if report.machine is None:
        errors = report.errors or [Diagnostic("error", "no machine could be built")]
        raise StrategyParseError(errors)
    return report.machine


def machine_source(machine: StrategyMachine) -> str:
    """Serialize a machine to canonical strategy text.

    ``parse_strategy(machine_source(m))`` reproduces ``m`` exactly:
    probabilities are written with repr so no precision is lost.
    """
    lines = [f"machine {machine.name}", f"start {machine.start}"]
    if machine.last_slot_override:
        lines.append("lastslot-override on-foreign-behavior")
    for sid, spec in machine.states.items():
        lines.append(f"state {sid} transmit {_format_prob(spec.transmit_prob)}")
        for (action, fb) in sorted(spec.transitions, key=lambda k: (k[0] != TRANSMIT, k[1])):
            target = spec.transitions[(action, fb)]
            lines.append(f"  on {_ACTION_LETTER[action]} f={fb} -> {target}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def _format_prob(p: float) -> str:
    if p == int(p):
        return str(int(p))
    return repr(float(p))


def is_deterministic(machine: StrategyMachine) -> bool:
    """True when every state transmits with probability exactly 0 or 1."""
    return all(s.transmit_prob in (0.0, 1.0) for s in machine.states.values())
