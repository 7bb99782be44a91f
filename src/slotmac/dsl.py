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

With two players a machine that transmitted can only see feedback 1 or 2,
and one that idled only 0 or 1, so those are the transition keys a state
must provide (and only for actions its transmit probability allows).
Completeness is checked over states reachable from the start state;
anything else is reported as a warning, not an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

# Decision values used throughout the package.
TRANSMIT = 1
IDLE = 0

_ACTION_LETTER = {TRANSMIT: "T", IDLE: "I"}
_ID_PATTERN = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_-]*\Z")

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

    Errors make the machine unusable: bad probabilities, dangling transition
    targets, a missing start state, or a reachable state without a
    transition for an (action, feedback) pair that can actually occur.
    Unreachable states and transitions that can never fire are warnings.
    """
    diags: list[Diagnostic] = []
    if not machine.states:
        diags.append(Diagnostic("error", "machine has no states"))
        return diags
    if machine.start not in machine.states:
        diags.append(Diagnostic("error", f"start state {machine.start!r} is not defined"))
    for sid, spec in machine.states.items():
        if not _ID_PATTERN.match(sid):
            diags.append(Diagnostic("error", f"state id {sid!r} is not a valid identifier", state=sid))
        p = spec.transmit_prob
        if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 <= p <= 1.0):
            diags.append(Diagnostic("error", f"state {sid!r} transmit probability {p!r} is outside [0, 1]", state=sid))
            continue
        for (action, fb), target in spec.transitions.items():
            if target not in machine.states:
                diags.append(Diagnostic(
                    "error",
                    f"state {sid!r} transition ({_ACTION_LETTER[action]}, f={fb}) targets undefined state {target!r}",
                    state=sid,
                ))
            if fb not in _feasible_feedback(action):
                diags.append(Diagnostic(
                    "warning",
                    f"state {sid!r} transition ({_ACTION_LETTER[action]}, f={fb}) can never fire with two players",
                    state=sid,
                ))
            elif action not in _possible_actions(p):
                diags.append(Diagnostic(
                    "warning",
                    f"state {sid!r} transition on action {_ACTION_LETTER[action]} can never fire at transmit probability {p:g}",
                    state=sid,
                ))
    if any(d.severity == "error" for d in diags):
        # reachability is meaningless with dangling references present
        return diags
    reached = reachable_states(machine)
    for sid in machine.states:
        if sid not in reached:
            diags.append(Diagnostic("warning", f"state {sid!r} is unreachable from the start state", state=sid))
    for sid, spec in machine.states.items():
        if sid not in reached:
            continue
        for action in _possible_actions(spec.transmit_prob):
            for fb in _feasible_feedback(action):
                if (action, fb) not in spec.transitions:
                    diags.append(Diagnostic(
                        "error",
                        f"state {sid!r} is missing its transition for ({_ACTION_LETTER[action]}, f={fb})",
                        state=sid,
                    ))
    return diags


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
