"""Scalar game engine and capture episode runner."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotmac import (
    RngStream,
    SlotRecord,
    StrategyParseError,
    TournamentConfig,
    builtin,
    compile_machine,
    merit_report,
    play_capture_episode,
    play_game,
    run_games,
    run_games_with_uniforms,
    run_tournament,
    validate_machine,
)
from slotmac.capture import FixedProbabilityPolicy
from slotmac.dsl import StateSpec, StrategyMachine
from slotmac.game import MachineSession

from conftest import ReplayStream, ScriptedStrategy, random_machine


def _streams(seed=0):
    return RngStream(seed, (90, 0)), RngStream(seed, (90, 1))


def test_always_vs_never_scores_full_horizon():
    ra, rb = _streams()
    t = play_game(builtin("always"), builtin("never"), 25, ra, rb)
    assert t.scores == (25, 0)
    assert all(rec.feedback == 1 and rec.scorer == 0 for rec in t.slots)
    assert t.first_success == 1


def test_always_self_play_all_collisions():
    ra, rb = _streams()
    t = play_game(builtin("always"), builtin("always"), 12, ra, rb)
    assert t.scores == (0, 0)
    assert all(rec.feedback == 2 for rec in t.slots)
    assert t.first_success is None
    assert t.slots_before_success == 12


def test_tft_echoes_with_one_slot_lag():
    actions = [1, 0, 1, 1, 0, 0, 1, 0]
    ra, rb = _streams()
    t = play_game(builtin("tft0"), ScriptedStrategy(actions), len(actions), ra, rb)
    mine = [rec.decisions[0] for rec in t.slots]
    assert mine == [0] + actions[:-1]


def test_tft0_vs_tft1_alternates_perfectly():
    # seeded opposite, they trade the channel slot by slot
    ra, rb = _streams()
    t = play_game(builtin("tft0"), builtin("tft1"), 20, ra, rb)
    assert t.scores == (10, 10)
    assert [rec.decisions for rec in t.slots[:4]] == [(0, 1), (1, 0), (0, 1), (1, 0)]


def test_feedback_is_transmitter_count():
    # feedback and scorer are derived from the decisions, for all four pairs
    for x, y in itertools.product((0, 1), repeat=2):
        rec = SlotRecord(1, (x, y))
        assert rec.feedback == x + y
        assert rec.scorer == {(1, 0): 0, (0, 1): 1}.get((x, y))
    ra, rb = _streams(7)
    t = play_game(builtin("four_state"), builtin("three_state"), 60, ra, rb)
    for rec in t.slots:
        assert rec.feedback == sum(rec.decisions)
        assert rec.scorer == (rec.decisions.index(1) if rec.feedback == 1 else None)
    assert tuple(sum(rec.scorer == p for rec in t.slots) for p in (0, 1)) == t.scores


def test_scores_count_solo_slots():
    ra, rb = _streams(11)
    t = play_game(builtin("four_state"), builtin("four_state"), 80, ra, rb)
    solo_a = sum(1 for rec in t.slots if rec.decisions == (1, 0))
    solo_b = sum(1 for rec in t.slots if rec.decisions == (0, 1))
    assert t.scores == (solo_a, solo_b)


def test_same_streams_reproduce_transcript():
    t1 = play_game(builtin("four_state"), builtin("three_state"), 50, *_streams(3))
    t2 = play_game(builtin("four_state"), builtin("three_state"), 50, *_streams(3))
    assert t1 == t2
    t3 = play_game(builtin("four_state"), builtin("three_state"), 50, *_streams(4))
    assert t1 != t3


def test_state_traces_follow_transitions():
    ra, rb = _streams(1)
    m = builtin("three_state")
    t = play_game(m, m, 40, ra, rb)
    assert t.state_traces is not None
    for trace, side in zip(t.state_traces, (0, 1)):
        assert len(trace) == 40
        assert trace[0] == m.start
        for k in range(39):
            rec = t.slots[k]
            key = (rec.decisions[side], rec.feedback)
            assert trace[k + 1] == m.states[trace[k]].transitions[key]


def test_session_draws_one_uniform_per_slot():
    # a slot in a deterministic state still owns its uniform, so state never
    # desynchronizes the stream: slot t always reads the t-th draw
    m = StrategyMachine("coin_then_wait", "c", {
        "c": StateSpec(0.5, {(1, 1): "w", (1, 2): "c", (0, 0): "c", (0, 1): "c"}),
        "w": StateSpec(0.0, {(0, 0): "c", (0, 1): "c"}),
    })
    uniforms = [0.1, 0.9, 0.7, 0.2, 0.8, 0.3, 0.6, 0.95, 0.4, 0.05]
    counting = ReplayStream(uniforms)
    sess = MachineSession(m, counting.generator(), 10)
    for t in range(1, 11):
        a = sess.decide(t)
        assert a == int(uniforms[t - 1] < m.states[sess.trace[-1]].transmit_prob), t
        sess.observe(t, a, a)  # pretend solo slot
    assert "w" in sess.trace and sess.trace.count("c") > 1
    assert counting.draws == 10


def test_scalar_matches_vectorized_on_shared_uniforms():
    # both engines fed identical uniforms must give identical scores
    rng = np.random.default_rng(17)
    horizon, n = 30, 8
    ua = rng.random((n, horizon))
    ub = rng.random((n, horizon))
    for ma, mb in [
        (builtin("four_state"), builtin("four_state")),
        (builtin("three_state"), builtin("four_state")),
        (builtin("four_state_enhanced"), random_machine(rng)),
        (random_machine(rng), random_machine(rng)),
    ]:
        batch = run_games_with_uniforms(ma, mb, ua, ub)
        for g in range(n):
            t = play_game(ma, mb, horizon, ReplayStream(ua[g]), ReplayStream(ub[g]))
            assert t.scores == (batch.scores_a[g], batch.scores_b[g]), (ma.name, mb.name, g)
            want = t.first_success if t.first_success is not None else 0
            assert batch.first_success[g] == want


@pytest.mark.parametrize("bad", [1.0, 1.5, -0.25, np.nan])
def test_vectorized_rejects_out_of_range_uniforms(bad):
    # two always-transmitters can only collide; a uniform of 1 used to idle
    # one of them into an undefined successor and score impossible games
    ok = np.full((1, 3), 0.5)
    worse = ok.copy()
    worse[0, 1] = bad
    for ua, ub in ((worse, ok), (ok, worse)):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            run_games_with_uniforms(builtin("always"), builtin("always"), ua, ub)
    batch = run_games_with_uniforms(builtin("always"), builtin("always"), ok, np.zeros((1, 3)))
    assert (batch.scores_a, batch.scores_b) == (0, 0)


def test_vectorized_accepts_empty_uniforms():
    # no games: the range check has no min or max to read
    empty = np.zeros((0, 4))
    batch = run_games_with_uniforms(builtin("four_state"), builtin("tft1"), empty, empty)
    assert batch.scores_a.shape == batch.scores_b.shape == batch.first_success.shape == (0,)


def test_vectorized_rejects_zero_horizon():
    # (runs, 0) matrices would play zero-slot games and score them all 0
    none = np.zeros((3, 0))
    with pytest.raises(ValueError, match="horizon"):
        run_games_with_uniforms(builtin("four_state"), builtin("tft1"), none, none)


def _tournament_horizon(horizon):
    config = TournamentConfig.from_machines(
        {"a": builtin("four_state"), "b": builtin("never")}, horizon=horizon, runs=50, seed=1
    )
    matrix = run_tournament(config)
    return matrix.to_csv() + merit_report(matrix, config).to_json()


HORIZON_ENTRY_POINTS = {
    "play_game": lambda T: play_game(builtin("four_state"), builtin("tft1"), T, *_streams()).scores,
    "run_games": lambda T: run_games(builtin("four_state"), builtin("tft1"), T, 50, seed=1).scores_a.tolist(),
    "tournament": _tournament_horizon,
}


@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRY_POINTS))
def test_one_horizon_rule(entry):
    # the rule of the analytics closed forms: numpy integers are horizons;
    # bools, floats, None and 0 are not
    fn = HORIZON_ENTRY_POINTS[entry]
    assert fn(np.int64(5)) == fn(5)
    assert fn(np.uint8(3)) == fn(3)
    for bad in (True, False, np.bool_(True), 2.0, 2.5, None, 0, -1):
        with pytest.raises(ValueError, match="horizon"):
            fn(bad)


def test_invalid_machine_rejected_before_play():
    broken = StrategyMachine("broken", "a", {"a": StateSpec(0.5, {(1, 1): "a"})})
    ra, rb = _streams()
    with pytest.raises(StrategyParseError):
        play_game(broken, builtin("never"), 5, ra, rb)


@pytest.mark.parametrize("key", [(0, -1), (1, 3), (2, 0), "zz", (0,)], ids=repr)
def test_transition_key_outside_the_domain_is_rejected(key):
    # (0, -1) once passed with a warning and compiled into the (T, f=2)
    # slot, so the batch engine went to b where the scalar engine stayed in a
    coin = StateSpec(0.5, {(0, 0): "a", (0, 1): "a", (1, 1): "a", (1, 2): "a", key: "b"})
    m = StrategyMachine("odd", "a", {"a": coin, "b": StateSpec(0.0, {(0, 0): "b", (0, 1): "b"})})
    errors = [d for d in validate_machine(m) if d.severity == "error"]
    assert [d.message for d in errors] == [f"state 'a' transition key {key!r} is not (T|I, f=0|1|2)"]
    with pytest.raises(StrategyParseError):
        compile_machine(m)
    with pytest.raises(StrategyParseError):
        run_games(m, builtin("four_state"), 5, 10, seed=0)
    with pytest.raises(StrategyParseError):
        play_game(m, builtin("four_state"), 5, *_streams())


EDIT_KEYS = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (0, -1), (1, 3), (2, 0), "zz", (0,), (1.0, 1), (True, 1)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    # (key, target) set on a random state; a None target deletes the key
    st.lists(st.tuples(st.sampled_from(EDIT_KEYS), st.sampled_from(["1", "2", "3", "nowhere", 5, ["1"], None])), max_size=3),
    st.integers(1, 12),
)
def test_both_engines_play_exactly_the_checked_machines(seed, override, seat_b, edits, horizon):
    rng = np.random.default_rng(seed)
    machine = random_machine(rng, override=override)
    states = dict(machine.states)
    for key, target in edits:
        sid = list(states)[int(rng.integers(len(states)))]
        transitions = dict(states[sid].transitions)
        if target is None:
            transitions.pop(key, None)
        else:
            transitions[key] = target
        states[sid] = StateSpec(states[sid].transmit_prob, transitions)
    machine = dataclasses.replace(machine, states=states)
    opponent = random_machine(rng, override=bool(rng.integers(2)))
    pair = (opponent, machine) if seat_b else (machine, opponent)
    ua, ub = rng.random((6, horizon)), rng.random((6, horizon))
    diags = validate_machine(machine)  # never raises, whatever the keys
    if any(d.severity == "error" for d in diags):
        with pytest.raises(StrategyParseError):
            compile_machine(machine)
        with pytest.raises(StrategyParseError):
            play_game(*pair, horizon, ReplayStream(ua[0]), ReplayStream(ub[0]))
        return
    batch = run_games_with_uniforms(*pair, ua, ub)
    for g in range(len(ua)):
        t = play_game(*pair, horizon, ReplayStream(ua[g]), ReplayStream(ub[g]))
        assert t.scores == (batch.scores_a[g], batch.scores_b[g])
        assert batch.first_success[g] == (t.first_success or 0)


def test_decisions_validated():
    class Liar:
        def begin(self, rng, horizon):
            return self

        def decide(self, t):
            return 2

        def observe(self, t, own, feedback):
            pass

    ra, rb = _streams()
    with pytest.raises(ValueError):
        play_game(Liar(), builtin("never"), 3, ra, rb)


def test_capture_episode_single_user():
    res = play_capture_episode(FixedProbabilityPolicy(1.0), 1, RngStream(0, (91,)))
    assert res.capture_slot == 1
    assert res.winner == 0
    assert not res.censored


def test_capture_episode_two_users_geometric():
    # p = 1/2 with two users resolves with chance 1/2 per slot; check the
    # empirical mean over scalar episodes against E = 2
    times = []
    for k in range(4000):
        res = play_capture_episode(FixedProbabilityPolicy(0.5), 2, RngStream(5, (92, k)))
        assert not res.censored
        times.append(res.capture_slot)
    mean = np.mean(times)
    assert abs(mean - 2.0) < 4 * np.std(times) / np.sqrt(len(times))


def test_capture_episode_decisions_consistent():
    res = play_capture_episode(FixedProbabilityPolicy(0.4), 5, RngStream(9, (93,)))
    assert not res.censored
    for t, row in enumerate(res.decisions, start=1):
        k = sum(row)
        if t == res.capture_slot:
            assert k == 1
        else:
            assert k != 1
    assert res.winner == res.decisions[-1].index(1)


def test_capture_episode_censoring():
    res = play_capture_episode(FixedProbabilityPolicy(0.0), 3, RngStream(0, (94,)), max_slots=50)
    assert res.censored
    assert res.capture_slot is None
    assert res.winner is None
    assert len(res.decisions) == 50


def test_capture_episode_rejects_bad_users():
    with pytest.raises(ValueError):
        play_capture_episode(FixedProbabilityPolicy(0.5), 0, RngStream(0, (95,)))
