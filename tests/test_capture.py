"""Minimum-time capture: table solver, policies, simulation, and the
supporting evidence that the table cannot be beaten by much."""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotmac import (
    FixedProbabilityPolicy,
    GroupSplittingPolicy,
    RngStream,
    capture_objective,
    converse_checks,
    play_capture_episode,
    simulate_capture,
    solve_capture_table,
)
from slotmac import capture
from slotmac.capture import (
    MAX_USERS,
    SCAN_POINTS,
    capture_upper_bound,
    minimize_three_user_relaxation,
    simulate_virtual_pair,
    three_user_relaxation,
)
from slotmac.cli import _json_text
from slotmac.optimize import SCREEN_SLACK

from conftest import dense_relaxation_grid, scalar_capture_table

# reference solution of the recursion, one row per group size
REFERENCE = {
    1: (1.0, 1.0),
    2: (0.5, 2.0),
    3: (0.411972, 1.787955),
    4: (0.302995, 2.134543),
    5: (0.238639, 2.155752),
    6: (0.191461, 2.262458),
    7: (0.166629, 2.275431),
}


def test_table_matches_reference(capture_table):
    for n, (p, z) in REFERENCE.items():
        assert capture_table.probs[n] == pytest.approx(p, abs=1e-4), n
        assert capture_table.values[n] == pytest.approx(z, abs=1e-5), n


def test_three_beats_two(capture_table):
    # the counterintuitive row: three users resolve faster than two
    assert capture_table.values[3] < capture_table.values[2]
    assert min(capture_table.values[2:]) == capture_table.values[3]


def test_table_fixed_point(capture_table):
    # each solved value must reproduce itself through the objective
    for n in range(2, 8):
        z = capture_objective(n, capture_table.probs[n], capture_table.values)
        assert z == pytest.approx(capture_table.values[n], abs=1e-9)


def test_table_grid_oracle(capture_table):
    # a dumb dense scan cannot find a better probability
    for n in (2, 3, 4):
        best = min(
            capture_objective(n, p, capture_table.values)
            for p in np.linspace(1e-4, 1 - 1e-4, 2001)
        )
        assert capture_table.values[n] <= best + 1e-6


def test_rows_and_csv(capture_table):
    rows = capture_table.rows()
    assert [r[0] for r in rows] == list(range(1, 8))
    assert rows[0][1:] == (1.0, 1.0)
    text = capture_table.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "n,p,z"
    assert len(lines) == 8
    n, p, z = lines[3].split(",")
    assert int(n) == 3
    assert float(p) == pytest.approx(REFERENCE[3][0], abs=1e-6)
    assert float(z) == pytest.approx(REFERENCE[3][1], abs=1e-6)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_capture_table(0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_solver_rejects_a_bad_tolerance_before_any_stage(tol):
    # with n_max = 1 no stage runs, so the golden-section check never saw tol
    for n_max in (1, 3):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve_capture_table(n_max, tol)


def test_screened_solver_matches_scalar_scan():
    # the numpy screen only decides which grid points the scalar objective
    # visits, so the table is the full scalar scan's, bit for bit
    assert repr(solve_capture_table(60)) == repr(scalar_capture_table(60))


def test_objective_weights_change_no_bits(capture_table):
    # the per-stage weight list the solver builds once gives the bits the
    # objective computes from math.comb term by term
    rng = np.random.default_rng(8)
    z = list(capture_table.values) + [math.e] * 300
    for n in (2, 3, 7, 40, 150, 300):
        weights = capture._weights(n, z)
        for p in rng.uniform(0.001, 0.999, 10).tolist():
            expected = 1.0
            for i in range(2, n):
                expected += min(z[i], z[n - i]) * math.comb(n, i) * p**i * (1.0 - p) ** (n - i)
            expected /= 1.0 - p**n - (1.0 - p) ** n
            assert capture_objective(n, p, z, weights) == capture_objective(n, p, z) == expected


def test_solver_digest_n100():
    # recorded from the full scalar scan
    table = solve_capture_table(100)
    digest = hashlib.sha256(repr((table.probs, table.values)).encode()).hexdigest()
    assert digest == "dd11d9dfa8e122f33f33ac7bb94894d3356993f08499f529216bda44ad17855e"


def test_solver_digest_n300():
    # recorded from the math.comb weights and the power-form screen
    table = solve_capture_table(300)
    digest = hashlib.sha256(repr((table.probs, table.values)).encode()).hexdigest()
    assert digest == "f03699f9a4d35bec8d6023dbf7ce47ad1fd17793e98706a2935e65998a551d1b"


@pytest.mark.parametrize("n", [2, 3, 7, 100, 300, MAX_USERS])
def test_screen_within_half_slack_of_the_objective(n, capture_table):
    # the contract under which the screen changes no bit of the table
    z = list(capture_table.values) + [math.e] * MAX_USERS
    weights = capture._weights(n, z)
    step = (0.999 - 0.001) / (SCAN_POINTS - 1)
    xs = [0.001 + i * step for i in range(SCAN_POINTS)]
    exact = np.array([capture_objective(n, x, z, weights) for x in xs])
    assert np.max(np.abs(capture._screen(n, weights)(np.array(xs)) - exact)) < SCREEN_SLACK / 2


def test_solver_evaluates_few_scalar_points(monkeypatch):
    calls = []
    scalar = capture.capture_objective
    monkeypatch.setattr(capture, "capture_objective", lambda *a: calls.append(a) or scalar(*a))
    solve_capture_table(30)
    # a screened grid point or two plus the golden-section polish per stage,
    # not the 999-point scan
    assert len(calls) <= 50 * 29


def test_max_users_is_the_float_limit():
    # every weight min(z_i, z_{n-i}) C(n, i) with z <= e is finite up to
    # MAX_USERS, and the middle one is not one user later
    assert math.isfinite(math.comb(MAX_USERS, MAX_USERS // 2) * math.e)
    assert not math.isfinite(math.comb(MAX_USERS + 1, (MAX_USERS + 1) // 2) * math.e)
    z = [math.e] * MAX_USERS
    for p in (0.001, 0.5, 0.999):
        assert math.isfinite(capture_objective(MAX_USERS, p, z))


def test_solver_rejects_n_past_the_float_limit(monkeypatch):
    with pytest.raises(ValueError, match="1027"):
        capture_objective(MAX_USERS + 1, 0.5, [math.e] * (MAX_USERS + 1))

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage was solved")

    monkeypatch.setattr(capture, "scan_then_golden", no_stage)
    for n_max in (MAX_USERS + 1, 1030):
        with pytest.raises(ValueError, match="1027"):
            solve_capture_table(n_max)


def test_two_users_left_transmit_half(capture_table):
    policy = GroupSplittingPolicy(capture_table)
    assert policy.transmit_prob(2) == pytest.approx(0.5, abs=1e-4)
    assert policy.transmit_prob(1) == 1.0


def test_survivor_prefers_smaller_expected_time(capture_table):
    policy = GroupSplittingPolicy(capture_table)
    # of 3, a pair transmitted: the silent singleton finishes next slot
    assert policy.survivor(3, 2) == "silent"
    assert policy.survivor(3, 1) == "transmitters"
    # of 6, three transmitted: both halves look alike, keep the transmitters
    assert policy.survivor(6, 3) == "transmitters"
    # of 7, transmitted side of 3 beats silent side of 4
    assert policy.survivor(7, 3) == "transmitters"
    assert policy.survivor(7, 4) == "silent"
    # survivor is only consulted on a proper split; mirror-image calls must
    # never disagree about which physical side lives on
    for group in range(2, 8):
        for k in range(1, group):
            a = policy.survivor(group, k)
            b = policy.survivor(group, group - k)
            if 2 * k != group:
                assert (a == "transmitters") == (b == "silent"), (group, k)


def test_three_user_pair_collision_resolves_next_slot(capture_table):
    # hunt for an episode whose first slot is a two-user collision, then the
    # lone silent user must take slot 2 solo
    policy = GroupSplittingPolicy(capture_table)
    seen = False
    for k in range(200):
        res = play_capture_episode(policy, 3, RngStream(2, (70, k)))
        first = [sum(row) for row in res.decisions]
        if first[0] == 2:
            assert res.capture_slot == 2
            silent = res.decisions[0].index(0)
            assert res.decisions[1][silent] == 1
            assert res.winner == silent
            seen = True
    assert seen


def test_simulation_matches_table(capture_table):
    policy = GroupSplittingPolicy(capture_table)
    for n in (2, 3, 5):
        s = simulate_capture(policy, n, episodes=120_000, seed=5)
        assert s.censored == 0
        assert abs(s.mean - capture_table.values[n]) < 4 * s.stderr, n


def test_scalar_episodes_agree_with_table(capture_table):
    policy = GroupSplittingPolicy(capture_table)
    times = [
        play_capture_episode(policy, 3, RngStream(8, (71, k))).capture_slot
        for k in range(3000)
    ]
    mean = float(np.mean(times))
    stderr = float(np.std(times, ddof=1)) / math.sqrt(len(times))
    assert abs(mean - capture_table.values[3]) < 4 * stderr


def test_policy_tables_cover_the_reachable_sizes(capture_table):
    policy = GroupSplittingPolicy(capture_table)
    sizes, probs, koff, after = capture._policy_rows(policy, 7)
    reachable = {7}
    for m in range(7, 1, -1):
        if m in reachable:
            reachable |= {k if policy.survivor(m, k) == "transmitters" else m - k for k in range(2, m)}
    assert sizes[0] == 7 and len(sizes) == len(reachable) and set(sizes.tolist()) == reachable
    for r, m in enumerate(sizes.tolist()):
        assert probs[r] == policy.transmit_prob(m)
        row = after[koff[r]: koff[r] + m + 1]
        # nobody or everybody transmitting keeps the group; k = 1 captures
        assert row[0] == r and row[1] == -1 and (m == 1 or row[m] == r)
        for k in range(2, m):
            assert sizes[row[k]] == (k if policy.survivor(m, k) == "transmitters" else m - k), (m, k)


def test_policy_tables_of_a_policy_that_never_splits_have_one_row():
    sizes, probs, koff, after = capture._policy_rows(FixedProbabilityPolicy(0.001), 20_000)
    assert sizes.tolist() == [20_000] and koff.tolist() == [0]
    assert len(after) == 20_001 and after[1] == -1 and np.count_nonzero(after) == 1
    assert probs.tolist() == [0.001]


@dataclass(frozen=True)
class _BadAtFive:
    """From 7 users, a slot where 2 transmit keeps the silent 5, the one
    size whose verdict and probability are the given ones; every other
    size transmits with 0.2 and repeats."""

    verdict: str = "repeat"
    p: float = 0.2

    def transmit_prob(self, group_size):
        return self.p if group_size == 5 else 0.2

    def survivor(self, group_size, transmitted):
        if group_size == 5:
            return self.verdict
        return "silent" if (group_size, transmitted) == (7, 2) else "repeat"


def test_policy_tables_check_every_reachable_size():
    with pytest.raises(ValueError, match="'sideways' is not recognized"):
        capture._policy_rows(_BadAtFive(verdict="sideways"), 7)
    with pytest.raises(ValueError, match="1.5 is outside"):
        capture._policy_rows(_BadAtFive(p=1.5), 7)
    # from 6 users size 5 is never reached, so nothing asks it
    sizes, _, _, _ = capture._policy_rows(_BadAtFive("sideways", 1.5), 6)
    assert sizes.tolist() == [6]


VERDICTS = ("transmitters", "silent", "repeat")


class _Scripted:
    """A policy read from per-size probabilities and a verdict per (m, k),
    recording every question it is asked."""

    def __init__(self, probs, verdicts):
        self.probs, self.verdicts, self.asked = probs, verdicts, []

    def transmit_prob(self, group_size):
        self.asked.append((group_size,))
        return self.probs[group_size]

    def survivor(self, group_size, transmitted):
        self.asked.append((group_size, transmitted))
        return VERDICTS[self.verdicts[group_size, transmitted]]


@settings(max_examples=150, deadline=None)
@given(
    users=st.integers(1, 40),
    data=st.data(),
    weights=st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any),
    seed=st.integers(0, 2**32 - 1),
)
def test_policy_rows_equal_a_plain_search_over_survivor(users, data, weights, seed):
    probs = [math.nan, *data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                           min_size=users, max_size=users))]
    verdicts = np.random.default_rng(seed).choice(3, size=(users + 1, users + 1), p=np.array(weights) / sum(weights))
    policy = _Scripted(probs, verdicts)

    def side(m, k):
        return VERDICTS[verdicts[m, k]]

    def left(m, k):
        return {"transmitters": k, "silent": m - k, "repeat": m}[side(m, k)]

    reachable, frontier = {users}, [users]
    while frontier:
        m = frontier.pop()
        new = {left(m, k) for k in range(2, m)} - reachable
        reachable |= new
        frontier += new

    sizes, row_probs, koff, after = capture._policy_rows(policy, users)
    assert sizes[0] == users
    assert len(sizes) == len(reachable) and set(sizes.tolist()) == reachable
    # asked in the order reached, the probability first, and nothing else
    assert policy.asked == [q for m in sizes.tolist() for q in [(m,), *[(m, k) for k in range(2, m)]]]
    assert koff.tolist() == np.cumsum([0, *(sizes + 1)])[:-1].tolist() and len(after) == sum(sizes + 1)
    for r, m in enumerate(sizes.tolist()):
        assert row_probs[r] == probs[m]
        row = after[koff[r]: koff[r] + m + 1]
        assert row[0] == r and row[1] == -1 and (m == 1 or row[m] == r)
        assert [sizes[row[k]] for k in range(2, m)] == [left(m, k) for k in range(2, m)]


def test_group_splitting_past_its_table_names_the_size():
    # it used to raise a bare IndexError from the table's tuples
    policy = GroupSplittingPolicy(solve_capture_table(5))
    message = "group size 7 is outside the solved table's 1..n_max = 5"
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_capture(policy, 7, 100, 0)
    with pytest.raises(ValueError, match=re.escape(message)):
        play_capture_episode(policy, 7, RngStream(0, (0,)))
    with pytest.raises(ValueError, match=re.escape(message)):
        policy.survivor(7, 2)


@pytest.mark.parametrize(
    "bad, seed, message",
    [(_BadAtFive(verdict="sideways"), 1, "'sideways' is not recognized"), (_BadAtFive(p=1.5), 0, "1.5 is outside")],
)
def test_scalar_episodes_check_a_policy_as_the_tables_do(bad, seed, message):
    with pytest.raises(ValueError, match=message):
        play_capture_episode(bad, 5, RngStream(seed, (0,)))


@dataclass(frozen=True)
class _EvenSplit:
    """Four users at p = 1/2; a slot where 2 of 4 transmit keeps ``side``."""

    side: str

    def transmit_prob(self, group_size):
        return 0.5

    def survivor(self, group_size, transmitted):
        return self.side if (group_size, transmitted) == (4, 2) else "repeat"


@pytest.mark.parametrize("side", ["transmitters", "silent"])
def test_scalar_episodes_keep_the_named_side_of_an_even_split(side):
    # when 2 of 4 transmit both sides have 2 members: only the side, not
    # the size, says who stays active
    splits = 0
    for seed in range(20):
        rows = play_capture_episode(_EvenSplit(side), 4, RngStream(seed, (0,))).decisions
        t = next((t for t, row in enumerate(rows) if sum(row) == 2), None)
        if t is None:
            continue
        splits += 1
        kept = {i for i, x in enumerate(rows[t]) if x == (side == "transmitters")}
        assert all(i in kept for row in rows[t + 1:] for i, x in enumerate(row) if x)
    assert splits > 0


def test_fixed_probability_mean():
    # n users at fixed p resolve as a geometric with success n p (1-p)^(n-1)
    n, p = 4, 0.3
    s = simulate_capture(FixedProbabilityPolicy(p), n, episodes=80_000, seed=6)
    want = 1.0 / (n * p * (1 - p) ** (n - 1))
    assert abs(s.mean - want) < 4 * s.stderr


def test_censoring_counted_not_averaged():
    # transmit probability so high that 4 users nearly always collide
    s = simulate_capture(FixedProbabilityPolicy(0.999), 4, episodes=400, seed=7, max_slots=30)
    assert s.censored > 0
    assert s.completed + s.censored == s.episodes
    d = s.to_json_dict()
    assert d["censored"] == s.censored


def test_summary_json_roundtrip(capture_table):
    s = simulate_capture(GroupSplittingPolicy(capture_table), 2, episodes=5000, seed=8)
    d = s.to_json_dict()
    assert d["episodes"] == 5000
    assert d["mean"] == pytest.approx(s.mean)


def test_virtual_pair_expectation():
    s = simulate_virtual_pair(episodes=100_000, seed=9)
    assert abs(s.mean - 2.0) < 4 * s.stderr


def test_relaxation_objective_spot_values(capture_table):
    # at a = c the problem is symmetric and strictly worse than the optimum
    sym = three_user_relaxation(1 / 3, 1 / 3)
    a, c, val = minimize_three_user_relaxation()
    assert val < sym
    assert c == pytest.approx(0.0, abs=1e-2)
    assert val == pytest.approx(capture_table.values[3], abs=1e-4)
    assert 0 < a < 1


@pytest.mark.parametrize("window", [(0.0, 1.0, 0.0, 1.0), (0.5855, 0.5905, 0.0, 0.0025)], ids=["square", "zoom"])
def test_relaxation_grid_matches_dense_oracle_bit_for_bit(window):
    lo_a, hi_a, lo_c, hi_c = window
    a = np.linspace(lo_a, hi_a, capture.RELAXATION_GRID)
    c = np.linspace(lo_c, hi_c, capture.RELAXATION_GRID)
    value = capture._relaxation_grid(a, c)
    assert np.array_equal(value.view(np.int64), dense_relaxation_grid(a, c).view(np.int64))


def test_relaxation_feasible_region():
    from slotmac.capture import _relaxation_feasible

    assert _relaxation_feasible(np.float64(1 / 3), np.float64(1 / 3))
    assert not _relaxation_feasible(np.float64(0.9), np.float64(0.9))
    assert not _relaxation_feasible(np.float64(-0.1), np.float64(0.2))
    # the cube-sum cap rules out near-deterministic corners
    assert not _relaxation_feasible(np.float64(0.99), np.float64(0.0))


def test_upper_bound_monotone_toward_e():
    vals = [capture_upper_bound(n) for n in range(2, 30)]
    assert all(v <= math.e + 1e-12 for v in vals)
    assert vals == sorted(vals)
    assert capture_upper_bound(2) == pytest.approx(2.0)


def test_converse_report(capture_table):
    rep = converse_checks(capture_table, episodes=50_000, seed=3)
    assert abs(rep.virtual_pair.mean - 2.0) < 4 * rep.virtual_pair.stderr
    assert rep.relaxation_value == pytest.approx(capture_table.values[3], abs=1e-4)
    assert rep.z3 == pytest.approx(capture_table.values[3], abs=1e-9)
    for n, z, bound in rep.bounds:
        assert z <= bound + 1e-9
        assert bound <= math.e + 1e-12
        assert z == pytest.approx(capture_table.values[n], abs=1e-12)
    for w in rep.windows:
        assert w.low <= w.p <= w.high, w.n
        assert w.inside
        assert w.p == pytest.approx(capture_table.probs[w.n], abs=1e-12)
    d = rep.to_json_dict()
    assert d["relaxation"]["value"] == pytest.approx(rep.relaxation_value)
    assert all(row["z"] <= row["e"] for row in d["bounds"])


@pytest.mark.parametrize("cpus", [1, 2])
def test_converse_bytes_independent_of_worker_count(cpus, capture_table, monkeypatch):
    # recorded with the virtual pair and the relaxation run one after the other
    monkeypatch.setattr(capture, "_usable_cpus", lambda: cpus)
    text = _json_text(converse_checks(capture_table, episodes=70_000, seed=3).to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == "71fde5c88948a51a45c349a0e1f13b11f09dabbb68026576b31c4d4abb7c4172"
