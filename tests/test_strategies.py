"""Behavioral properties of the built-in strategies."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from slotmac import (
    RngStream,
    alpha_optimal,
    beta3,
    beta4,
    builtin,
    expected_y,
    first_success_pmf,
    play_game,
    run_games,
    run_games_with_uniforms,
)
from slotmac.strategies import BUILTIN_NAMES, DEFAULT_LINEUP, never_transmits

from conftest import ReplayStream, ScriptedStrategy, random_machine

HORIZON = 100
RUNS = 200_000


@pytest.fixture(scope="module")
def self_play():
    m = builtin("four_state")
    return run_games(m, m, HORIZON, RUNS, seed=101)


def test_self_play_mean_near_alpha(self_play):
    scores = (self_play.scores_a + self_play.scores_b) / 2
    alpha = float(alpha_optimal(HORIZON))
    stderr = scores.std(ddof=1) / math.sqrt(RUNS)
    assert abs(scores.mean() - alpha) < 4 * stderr


def test_first_success_distribution(self_play):
    # chi-square against the closed-form law of the first solo slot; the
    # pmf indexes Y = slots wasted, so success in slot s has mass pmf[s-1]
    pmf = first_success_pmf(HORIZON)
    observed = np.bincount(self_play.first_success, minlength=HORIZON + 1)
    # bucket: slots 1..8 individually, everything later pooled (tiny tails
    # would break the chi-square approximation)
    cut = 8
    obs = np.concatenate([observed[1 : cut + 1], [observed[0] + observed[cut + 1 :].sum()]])
    probs = [float(pmf[s - 1]) for s in range(1, cut + 1)]
    probs.append(1.0 - sum(probs))
    chi2 = stats.chisquare(obs, RUNS * np.asarray(probs))
    assert chi2.pvalue > 1e-4


def test_no_success_probability(self_play):
    # both sides idle forever with chance 2^-T; at T=100 that is never seen
    assert (self_play.first_success == 0).sum() == 0


def test_expected_slots_before_success(self_play):
    waste = self_play.first_success - 1
    want = float(expected_y(HORIZON))
    stderr = waste.std(ddof=1) / math.sqrt(RUNS)
    assert abs(waste.mean() - want) < 4 * stderr


def test_collision_state_unreachable_in_self_play():
    # the post-collision recovery state only fires against foreign play; in
    # self-play neither copy can ever enter it.  Walk every joint state
    # (s_a, s_b) that moves of positive probability reach.
    m = builtin("four_state")

    def actions(sid):
        p = m.states[sid].transmit_prob
        return [x for x, possible in ((0, p < 1), (1, p > 0)) if possible]

    seen = {(m.start, m.start)}
    stack = list(seen)
    while stack:
        sa, sb = stack.pop()
        for xa in actions(sa):
            for xb in actions(sb):
                f = xa + xb
                nxt = (m.states[sa].transitions[(xa, f)], m.states[sb].transitions[(xb, f)])
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    assert {sid for pair in seen for sid in pair} == {"1", "2", "3"}


def test_perfect_alternation_after_first_success():
    # once someone scores, every remaining slot scores exactly one player
    m = builtin("four_state")
    for seed in range(30):
        ra = RngStream(seed, (80, 0))
        rb = RngStream(seed, (80, 1))
        t = play_game(m, m, 50, ra, rb)
        first = t.first_success
        assert first is not None
        for rec in t.slots[first - 1 :]:
            assert rec.feedback == 1
        assert sum(t.scores) == 50 - (first - 1)


def test_three_state_alternation_holds_too():
    m = builtin("three_state")
    for seed in range(30):
        t = play_game(m, m, 50, RngStream(seed, (81, 0)), RngStream(seed, (81, 1)))
        first = t.first_success
        assert first is not None
        for rec in t.slots[first - 1 :]:
            assert rec.feedback == 1


def _margin(machine, opponent, horizon=40, runs=6000, seed=7):
    batch = run_games(machine, opponent, horizon, runs, seed=seed)
    return int(batch.scores_b.max() - batch.scores_a.min()), batch


def test_never_loses_by_more_than_one_vs_builtins():
    # the championship pair concede at most a single point to anyone
    for name in ("four_state", "three_state"):
        mine = builtin(name)
        for other in BUILTIN_NAMES:
            opp = builtin(other)
            batch = run_games(mine, opp, 40, 4000, seed=13)
            worst = int((batch.scores_b - batch.scores_a).max())
            assert worst <= 1, (name, other, worst)


def test_never_loses_by_more_than_one_vs_random_fsms():
    rng = np.random.default_rng(23)
    for name in ("four_state", "three_state"):
        mine = builtin(name)
        for _ in range(100):
            opp = random_machine(rng)
            batch = run_games(mine, opp, 25, 300, seed=int(rng.integers(1 << 30)))
            worst = int((batch.scores_b - batch.scores_a).max())
            assert worst <= 1, (name, opp, worst)


def test_beta_against_cooperative_opponent():
    # against a dead channel the scores concentrate on the closed forms
    runs = RUNS // 2
    for name, beta in (("four_state", beta4), ("three_state", beta3)):
        for horizon in (99, 100):
            batch = run_games(builtin(name), builtin("never"), horizon, runs, seed=31)
            assert batch.scores_b.max() == 0
            mean = batch.scores_a.mean()
            stderr = batch.scores_a.std(ddof=1) / math.sqrt(runs)
            assert abs(mean - float(beta(horizon))) < 4 * stderr, (name, horizon)


def test_tft_mutual_split():
    # opposite-seeded mirrors split a horizon exactly
    batch = run_games(builtin("tft0"), builtin("tft1"), 60, 100, seed=3)
    assert (batch.scores_a == 30).all()
    assert (batch.scores_b == 30).all()


def test_enhanced_forces_last_slot_transmit():
    # a scripted foreigner idles on the last slot; vanilla politely idles too,
    # the enhanced variant, having detected foreign play, grabs the point
    opp = [1, 1, 0, 1, 0, 1, 0, 0]
    horizon = len(opp)
    # first own draw 0.9 -> idle in the mixing state, stays distinguishable
    own = [0.9] * horizon
    vanilla = play_game(
        builtin("four_state"), ScriptedStrategy(opp), horizon,
        ReplayStream(own), ReplayStream([0.5] * horizon),
    )
    enhanced = play_game(
        builtin("four_state_enhanced"), ScriptedStrategy(opp), horizon,
        ReplayStream(own), ReplayStream([0.5] * horizon),
    )
    assert vanilla.slots[-1].decisions[0] == 0
    assert enhanced.slots[-1].decisions[0] == 1
    assert enhanced.scores[0] == vanilla.scores[0] + 1


def test_enhanced_matches_vanilla_in_self_play():
    # the override never triggers against its own kind
    rng = np.random.default_rng(41)
    ua = rng.random((500, 20))
    ub = rng.random((500, 20))
    a = run_games_with_uniforms(builtin("four_state"), builtin("four_state"), ua, ub)
    b = run_games_with_uniforms(
        builtin("four_state_enhanced"), builtin("four_state_enhanced"), ua, ub
    )
    assert (a.scores_a == b.scores_a).all()
    assert (a.scores_b == b.scores_b).all()


def test_never_transmits_detection():
    assert never_transmits(builtin("never"))
    for name in BUILTIN_NAMES:
        if name != "never":
            assert not never_transmits(builtin(name))
    # renaming must not fool it: detection is behavioral, not by name
    renamed = builtin("never")
    renamed = type(renamed)(
        name="competitor", start=renamed.start, states=renamed.states,
        last_slot_override=renamed.last_slot_override,
    )
    assert never_transmits(renamed)


def test_builtin_is_parsed_once():
    for name in BUILTIN_NAMES:
        assert builtin(name) is builtin(name)


def test_default_lineup_names_resolve():
    assert len(DEFAULT_LINEUP) == 6
    for name in DEFAULT_LINEUP:
        builtin(name)
