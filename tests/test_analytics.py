"""Closed forms and the exact self-play evaluator."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotmac import (
    alpha_optimal,
    beta3,
    beta4,
    builtin,
    exact_self_play_alpha,
    expected_y,
    first_success_pmf,
)
from slotmac.batch import compile_machine
from slotmac.strategies import BUILTIN_NAMES

from conftest import dp_self_play_alpha, enumerate_self_play_alpha, random_machine

CLOSED_FORMS = (alpha_optimal, expected_y, first_success_pmf, beta3, beta4)


def test_alpha_small_horizons_exact():
    assert alpha_optimal(1) == Fraction(1, 4)
    assert alpha_optimal(2) == Fraction(5, 8)
    assert alpha_optimal(3) == Fraction(17, 16)
    assert alpha_optimal(4) == Fraction(49, 32)
    assert alpha_optimal(100) == Fraction(99, 2) + Fraction(1, 2**101)


def test_alpha_closed_form_structure():
    for T in range(1, 40):
        assert alpha_optimal(T) == Fraction(T - 1, 2) + Fraction(1, 2 ** (T + 1))


def test_expected_y_values():
    assert expected_y(1) == Fraction(1, 2)
    assert expected_y(3) == Fraction(7, 8)
    assert expected_y(100) == 1 - Fraction(1, 2**100)


def test_pmf_sums_to_one():
    for T in (1, 2, 5, 17):
        pmf = first_success_pmf(T)
        assert len(pmf) == T + 1
        assert sum(pmf) == 1


def test_pmf_mean_is_expected_y():
    for T in (1, 2, 5, 17, 60):
        pmf = first_success_pmf(T)
        assert sum(i * p for i, p in enumerate(pmf)) == expected_y(T)


def test_beta_values():
    assert beta4(100) == 98 + Fraction(3, 2**100)
    assert beta4(2) == Fraction(3, 4)
    assert beta3(100) == Fraction(100, 2) - Fraction(1, 3) + Fraction(1, 3 * 2**100)
    assert beta3(99) == Fraction(99, 2) - Fraction(1, 6) + Fraction(1, 3 * 2**99)
    # parity matters for the three-state family
    assert beta3(4) - beta3(3) != beta3(5) - beta3(4)


def test_beta4_beats_beta3_at_long_horizons():
    for T in (10, 50, 100):
        assert beta4(T) > beta3(T)


def test_rejects_bad_horizon():
    for fn in CLOSED_FORMS:
        with pytest.raises(ValueError):
            fn(0)
        with pytest.raises(ValueError):
            fn(-3)


def _exact_four_state(horizon):
    return exact_self_play_alpha(builtin("four_state"), horizon)


@pytest.mark.parametrize("fn", CLOSED_FORMS + (_exact_four_state,))
def test_horizon_accepts_integer_types_but_bool(fn):
    # numpy integers are horizons; bools and non-integers are not
    assert fn(np.int64(5)) == fn(5)
    assert fn(np.uint8(3)) == fn(3)
    for bad in (True, False, np.bool_(True), 2.0, 2.5, "3", None):
        with pytest.raises(ValueError):
            fn(bad)


@pytest.mark.parametrize("T", range(1, 9))
def test_enumerator_agrees_with_dp_oracle(T):
    # two independent exact computations: integer pattern counts per joint
    # state vs a joint-state dynamic program over Fractions
    m = builtin("four_state")
    val = exact_self_play_alpha(m, T)
    assert isinstance(val, Fraction)
    assert val == dp_self_play_alpha(m, T)
    assert val == alpha_optimal(T)


def test_enumerator_chunking_invariance():
    m = builtin("four_state")
    a = enumerate_self_play_alpha(m, 6, chunk_size=64)
    b = enumerate_self_play_alpha(m, 6, chunk_size=1 << 20)
    assert a == b == alpha_optimal(6)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_evaluator_matches_brute_force_on_builtins(name):
    # brute force plays every bit pattern through the batch engine, shadow
    # included, so this also checks that a copy is never foreign
    m = builtin(name)
    for T in range(1, 9):
        assert exact_self_play_alpha(m, T) == enumerate_self_play_alpha(m, T), T


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 6),
    override=st.booleans(),
)
def test_evaluator_matches_both_oracles_on_random_machines(seed, horizon, override):
    m = random_machine(np.random.default_rng(seed), half=True, override=override)
    value = exact_self_play_alpha(m, horizon)
    assert value == enumerate_self_play_alpha(m, horizon)
    assert value == dp_self_play_alpha(m, horizon)


def test_evaluator_at_long_horizon():
    # far past where enumerating 4^T patterns could go
    for name in ("four_state", "three_state"):
        assert exact_self_play_alpha(builtin(name), 200) == alpha_optimal(200)


def test_evaluator_rejects_reachable_missing_transition():
    # a hand-built table whose idle-and-hear-nothing move leads nowhere;
    # the evaluator must fail rather than index the last state
    compiled = compile_machine(builtin("four_state"))
    trans = compiled.trans.copy()
    trans[compiled.start, 0, 0] = -1
    broken = dataclasses.replace(compiled, trans=trans)
    with pytest.raises(ValueError, match="no transition"):
        exact_self_play_alpha(broken, 2)


def test_enumerator_on_three_state():
    # the three-state machine is optimal in self-play too
    m = builtin("three_state")
    for T in range(1, 7):
        assert exact_self_play_alpha(m, T) == alpha_optimal(T)


def test_enumerator_on_deterministic_machines():
    assert exact_self_play_alpha(builtin("never"), 5) == 0
    assert exact_self_play_alpha(builtin("always"), 5) == 0
    # seeded mirrors split every slot from the start
    assert exact_self_play_alpha(builtin("tft0"), 6) == 0
    assert dp_self_play_alpha(builtin("tft0"), 6) == 0


def test_enumerator_rejects_general_probabilities():
    bad = builtin("four_state")
    states = dict(bad.states)
    spec = states["1"]
    for p in (0.3, 0.25, 0.75):
        states["1"] = type(spec)(p, spec.transitions)
        m = type(bad)(name="x", start=bad.start, states=states)
        with pytest.raises(ValueError):
            exact_self_play_alpha(m, 3)
