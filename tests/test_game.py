"""Scalar game engine and capture episode runner."""

from __future__ import annotations

import numpy as np
import pytest

from slotmac import (
    RngStream,
    StrategyParseError,
    builtin,
    play_capture_episode,
    play_game,
    run_games_with_uniforms,
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
    ra, rb = _streams(7)
    t = play_game(builtin("four_state"), builtin("three_state"), 60, ra, rb)
    for rec in t.slots:
        assert rec.feedback == sum(rec.decisions)
        assert rec.scorer == (rec.decisions.index(1) if rec.feedback == 1 else None)


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
    # a machine in an all-deterministic state still consumes its draw, so
    # state never desynchronizes the stream
    m = builtin("tft0")
    counting = ReplayStream([0.3] * 10)
    sess = MachineSession(m, counting.generator(), 10)
    for t in range(1, 6):
        a = sess.decide(t)
        sess.observe(t, a, a)  # pretend solo slot
    assert counting.draws == 5


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


def test_invalid_machine_rejected_before_play():
    broken = StrategyMachine("broken", "a", {"a": StateSpec(0.5, {(1, 1): "a"})})
    ra, rb = _streams()
    with pytest.raises(StrategyParseError):
        play_game(broken, builtin("never"), 5, ra, rb)


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
