"""Built-in strategies for the two-player slotted channel game.

Each builtin is defined once, as the ``.strat`` file of its name in the
bundled corpus (``corpus_dir()``), the same format a contestant submits;
``builtin(name)`` parses that file on first use.  ``BUILTIN_NAMES`` lists
the builtins and must match the corpus's file stems.

The two championship machines share a design: flip a fair coin until
somebody gets through alone, then alternate turns forever, using the
feedback to agree on whose turn it is without ever exchanging identities.

* ``three_state``: coin-flip state, then a two-state alternation (just
  scored -> yield, just yielded -> transmit).  Against a copy of itself it
  settles into perfect alternation after the first solo success.
* ``four_state``: same, but after yielding once it locks into a "my turn"
  state that holds the turn until a collision hands it back.  The lock-in
  state is never reached in self-play, and against a dead channel the
  machine streams instead of politely alternating with nobody.
* ``four_state_enhanced``: four_state plus the last-slot override: it
  simulates a copy of itself against the observed feedback, and the first
  time the opponent does something a copy never would, it marks the
  opponent foreign and transmits on the final slot no matter what.

``tft0`` and ``tft1`` repeat the opponent's previous action (inferred from
feedback), starting with idle and transmit respectively.  ``always`` and
``never`` do what their names say.
"""

from __future__ import annotations

from functools import cache
from importlib import resources
from pathlib import Path

from .dsl import StrategyMachine, StrategyParseError, parse_strategy, reachable_states

BUILTIN_NAMES: tuple[str, ...] = (
    "never", "always", "tft0", "tft1", "three_state", "four_state", "four_state_enhanced",
)

# tournament lineup in the customary reporting order
DEFAULT_LINEUP: tuple[str, ...] = (
    "four_state",
    "three_state",
    "tft0",
    "tft1",
    "always",
    "never",
)


@cache
def builtin(name: str) -> StrategyMachine:
    """Look up a built-in machine by name.  See BUILTIN_NAMES.  Repeat
    calls return the same object."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin strategy {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    return load_strategy_file(corpus_dir() / f"{name}.strat")


def never_transmits(machine: StrategyMachine) -> bool:
    """True when no reachable state can ever transmit.  Used to locate a
    dead-channel opponent in a tournament lineup whatever it is named."""
    return all(machine.states[s].transmit_prob == 0.0 for s in reachable_states(machine))


def corpus_dir() -> Path:
    """Directory holding the bundled .strat sources for every builtin."""
    return Path(str(resources.files(__package__).joinpath("strategies")))


def load_strategy_file(path: str | Path) -> StrategyMachine:
    """Parse one .strat file; a parse error's message starts with the path."""
    try:
        return parse_strategy(Path(path).read_text(encoding="utf-8"))
    except StrategyParseError as exc:
        raise StrategyParseError(exc.diagnostics, str(path)) from None


def load_strategy_dir(path: str | Path) -> dict[str, StrategyMachine]:
    """Parse every .strat file in a directory, keyed by declared machine
    name, in sorted filename order.  Raises ValueError naming the directory
    when it is missing or holds no .strat file."""
    files = sorted(Path(path).glob("*.strat"))
    if not files:
        raise ValueError(f"no .strat file in strategy directory {path}")
    machines: dict[str, StrategyMachine] = {}
    for file in files:
        machine = load_strategy_file(file)
        if machine.name in machines:
            raise ValueError(f"duplicate machine name {machine.name!r} in {file}")
        machines[machine.name] = machine
    return machines
