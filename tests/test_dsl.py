"""Parser, validator, and serializer behavior."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotmac import (
    StrategyParseError,
    analyze_strategy,
    builtin,
    check_machine,
    is_deterministic,
    machine_source,
    parse_strategy,
    validate_machine,
)
from slotmac.dsl import StateSpec, StrategyMachine
from slotmac.strategies import BUILTIN_NAMES, corpus_dir, load_strategy_file

from conftest import analyze_strategy as line_parser_analyze
from conftest import random_machine

GOOD = """
# a comment
machine demo
start a
state a transmit 0.5
  on T f=1 -> b
  on T f=2 -> a
  on I f=0 -> a
  on I f=1 -> a
end
state b transmit 0   # trailing comment
  on I f=0 -> a
  on I f=1 -> b
end
"""


def test_parse_basic():
    m = parse_strategy(GOOD)
    assert m.name == "demo"
    assert m.start == "a"
    assert set(m.states) == {"a", "b"}
    assert m.states["a"].transmit_prob == 0.5
    assert m.states["a"].transitions[(1, 2)] == "a"
    assert not m.last_slot_override


def test_corpus_matches_builtins():
    # the corpus is the builtins' only definition: one file per name, and
    # builtin() returns exactly what the file parses to
    files = {f.stem: f for f in corpus_dir().glob("*.strat")}
    assert set(files) == set(BUILTIN_NAMES)
    for name in BUILTIN_NAMES:
        assert load_strategy_file(files[name]) == builtin(name)


def test_roundtrip_builtins():
    for name in BUILTIN_NAMES:
        m = builtin(name)
        assert parse_strategy(machine_source(m)) == m


def test_roundtrip_random_machines():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = random_machine(rng)
        assert parse_strategy(machine_source(m)) == m


def _errors_of(text):
    with pytest.raises(StrategyParseError) as err:
        parse_strategy(text)
    return err.value.diagnostics


def test_probability_out_of_range_has_position():
    bad = GOOD.replace("transmit 0.5", "transmit 1.5")
    diags = _errors_of(bad)
    assert any("outside [0, 1]" in d.message and d.line == 5 and d.column == 18 for d in diags)


def test_strategy_file_error_starts_with_the_path(tmp_path):
    path = tmp_path / "bad.strat"
    path.write_text(GOOD.replace("transmit 0.5", "transmit 1.5"))
    with pytest.raises(StrategyParseError) as err:
        load_strategy_file(path)
    assert str(err.value).startswith(f"{path}:5:18: error: transmit probability 1.5")
    assert err.value.diagnostics == _errors_of(path.read_text())


def test_unknown_target_state():
    bad = GOOD.replace("on T f=1 -> b", "on T f=1 -> zz")
    assert any("undefined state 'zz'" in d.message for d in _errors_of(bad))


def test_duplicate_state():
    bad = GOOD + "state a transmit 1\n  on T f=1 -> a\n  on T f=2 -> a\nend\n"
    assert any("duplicate state" in d.message for d in _errors_of(bad))


def test_duplicate_transition():
    bad = GOOD.replace("on T f=2 -> a", "on T f=1 -> a")
    assert any("duplicate transition" in d.message for d in _errors_of(bad))


def test_missing_end():
    bad = GOOD.rstrip().rsplit("end", 1)[0]
    assert any("missing its end" in d.message for d in _errors_of(bad))


def test_missing_reachable_transition_is_error():
    bad = GOOD.replace("  on I f=0 -> a\n  on I f=1 -> a\n", "  on I f=0 -> a\n")
    assert any("missing its transition for (I, f=1)" in d.message for d in _errors_of(bad))


def test_garbage_line():
    assert any("unknown directive" in d.message for d in _errors_of(GOOD + "wibble\n"))


def test_unreachable_state_is_warning_only():
    text = GOOD + "state c transmit 1\n  on T f=1 -> c\n  on T f=2 -> c\nend\n"
    report = analyze_strategy(text)
    assert report.machine is not None
    assert any("unreachable" in d.message for d in report.warnings)
    # and an unreachable state may be incomplete without sinking the machine
    text = GOOD + "state c transmit 1\n  on T f=1 -> c\nend\n"
    report = analyze_strategy(text)
    assert report.machine is not None


def test_impossible_pair_is_warning():
    text = GOOD.replace("  on I f=0 -> a\n", "  on I f=0 -> a\n  on I f=2 -> a\n")
    report = analyze_strategy(text)
    assert report.machine is not None
    assert any("can never fire with two players" in d.message for d in report.warnings)


def test_dead_action_transition_is_warning():
    text = GOOD.replace("state b transmit 0", "state b transmit 0").replace(
        "  on I f=0 -> a\n  on I f=1 -> b\nend\n",
        "  on I f=0 -> a\n  on I f=1 -> b\n  on T f=1 -> a\nend\n",
    )
    report = analyze_strategy(text)
    assert report.machine is not None
    assert any("can never fire at transmit probability 0" in d.message for d in report.warnings)


def test_validate_programmatic_machine():
    m = StrategyMachine("x", "nowhere", {"a": StateSpec(0.0, {(0, 0): "a", (0, 1): "a"})})
    diags = validate_machine(m)
    assert any("start state 'nowhere' is not defined" in d.message for d in diags)
    m = StrategyMachine("x", "a", {"a": StateSpec(1.5, {})})
    assert any("outside [0, 1]" in d.message for d in validate_machine(m))


_IDLE_LOOP = {(0, 0): "a", (0, 1): "a"}


@pytest.mark.parametrize("machine, message", [
    (StrategyMachine("x", ["a"], {"a": StateSpec(0.0, _IDLE_LOOP)}), "start state ['a'] is not defined"),
    (StrategyMachine("x", "a", {"a": (0.0, _IDLE_LOOP)}), "state 'a' is (0.0, "),
    (StrategyMachine("x", "a", {"a": StateSpec(0.0, list(_IDLE_LOOP.items()))}), "not a StateSpec with a dict"),
    (StrategyMachine("x", "a", [("a", StateSpec(0.0, _IDLE_LOOP))]), "is not a dict"),
], ids=["list_start", "tuple_state", "list_transitions", "list_states"])
def test_containers_of_the_wrong_type_are_errors(machine, message):
    diags = validate_machine(machine)
    assert any(d.severity == "error" and message in d.message for d in diags)
    with pytest.raises(StrategyParseError, match=re.escape(message)):
        check_machine(machine)


def test_validate_clean_builtins():
    for name in BUILTIN_NAMES:
        assert validate_machine(builtin(name)) == []


def test_is_deterministic():
    assert is_deterministic(builtin("tft0"))
    assert is_deterministic(builtin("always"))
    assert is_deterministic(builtin("never"))
    assert not is_deterministic(builtin("three_state"))
    assert not is_deterministic(builtin("four_state"))


def test_tft_parse_behaves_like_mirror():
    # drive the parsed tft0 against a scripted opponent and check it echoes
    from slotmac import RngStream, play_game
    from conftest import ScriptedStrategy

    rng = np.random.default_rng(3)
    actions = [int(b) for b in rng.integers(0, 2, 40)]
    m = load_strategy_file(corpus_dir() / "tft0.strat")
    t = play_game(m, ScriptedStrategy(actions), 40, RngStream(0, (0,)), RngStream(0, (1,)))
    mine = [rec.decisions[0] for rec in t.slots]
    assert mine[0] == 0
    assert mine[1:] == actions[:-1]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=0x2FF), max_size=300))
def test_parser_rejects_garbage_gracefully(text):
    # anything at all either parses or raises the parse error, never a crash
    try:
        parse_strategy(text)
    except StrategyParseError as err:
        assert err.diagnostics


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.sampled_from([
            "machine m", "start a", "state a transmit 0.5", "on T f=1 -> a",
            "on I f=0 -> a", "on I f=1 -> a", "on T f=2 -> a", "end",
            "lastslot-override on-foreign-behavior", "# note", "",
        ]),
        max_size=14,
    )
)
def test_parser_total_on_shuffled_directives(lines):
    try:
        parse_strategy("\n".join(lines))
    except StrategyParseError as err:
        assert err.diagnostics


# directive lines, well formed and not, for the parser-oracle properties
DIRECTIVES = [
    "machine m", "machine", "machine bad!", "machine m extra", "start a", "start", "start !a", "start b",
    "state a transmit 0.5", "state b transmit 0", "state a transmit 1.5", "state a transmit x", "state a",
    "state a send 0.5", "state a transmit 0.5 junk", "state", "state a transmit nan", "state a transmit -0",
    "on T f=1 -> a", "on I f=0 -> a", "on I f=1 -> b", "on T f=2 -> a", "on X f=1 -> a", "on T f=3 -> a",
    "on T f=02 -> a", "on T g=1 -> a", "on T f=1 => a", "on T f=1 -> !a", "on T f=1 -> a b", "on",
    "on I f=2 -> a", "end", "end extra", "lastslot-override on-foreign-behavior", "lastslot-override",
    "lastslot-override off", "# note", "", "wibble", "  on T f=1 -> a  # c", "\ton I f=0 -> a",
]
SOURCES = [GOOD] + [f.read_text() for f in sorted(corpus_dir().glob("*.strat"))]


def _same_as_line_parser(text):
    # field for field and in order: reprs show dict order and tell -0.0 from 0.0
    new, old = analyze_strategy(text), line_parser_analyze(text)
    assert (repr(new.machine), repr(new.diagnostics)) == (repr(old.machine), repr(old.diagnostics))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200), st.text(alphabet="machinestartTIf=012->#\n\r\t .!_ab\x85", max_size=300)))
def test_one_pass_parser_matches_line_parser_on_any_text(text):
    _same_as_line_parser(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["", "  ", "\t"]), st.sampled_from(DIRECTIVES)), max_size=16))
def test_one_pass_parser_matches_line_parser_on_shuffled_directives(lines):
    _same_as_line_parser("\n".join(indent + line for indent, line in lines))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SOURCES),
    st.lists(
        st.tuples(
            st.sampled_from(["delete", "insert", "swap", "edit"]),
            st.integers(0, 60),
            st.integers(0, 60),
            st.sampled_from(DIRECTIVES),
            st.text(alphabet="0123456789.-TIf=>#ab! ", max_size=3),
        ),
        max_size=4,
    ),
)
def test_one_pass_parser_matches_line_parser_on_edited_sources(source, edits):
    lines = source.splitlines()
    for op, i, j, line, chars in edits:
        if op == "insert":
            lines.insert(i % (len(lines) + 1), line)
            continue
        if not lines:
            continue
        i, j = i % len(lines), j % len(lines)
        if op == "delete":
            del lines[i]
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:  # overwrite the line's characters from column j on
            lines[i] = lines[i][:j] + chars + lines[i][j + len(chars):]
    _same_as_line_parser("\n".join(lines) + "\n")
