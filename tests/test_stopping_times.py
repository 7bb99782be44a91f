"""The shared stopping-time loop: every simulator's draws pinned exactly,
and the input checks the loop owns."""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotmac import capture
from slotmac.capture import (
    CHUNK_SIZE,
    CaptureTable,
    FixedProbabilityPolicy,
    GroupSplittingPolicy,
    simulate_capture,
    simulate_virtual_pair,
    solve_capture_table,
    summarize_times,
)
from slotmac.multichannel import (
    _code_drawer,
    _three_user_outcomes,
    simulate_multichannel,
    simulate_three_user_two_channel,
    simulate_two_user,
)
from slotmac.rng import DOMAIN_CAPTURE, DOMAIN_MISC, RngStream

SKEWED = (0.7, 0.1, 0.1, 0.1)
FAMILY = (0.4, 0.3, 0.6)

@functools.cache
def _table(n_max):
    return solve_capture_table(n_max)


def _with_prob(table, n, p):
    """``table`` with p_n replaced: a policy off the inversion path at n
    that splits into sizes on it."""
    probs = list(table.probs)
    probs[n] = p
    return CaptureTable(tuple(probs), table.values)


# name -> (call, (episodes, completed, censored, repr(mean), repr(stderr))).
# The values were recorded before the four simulators shared one loop;
# any change to a draw, its order or the censoring rule shows up here.
PINNED = {
    "capture_two_chunks": (
        lambda t: simulate_capture(GroupSplittingPolicy(t), 7, 70_000, seed=11),
        (70000, 70000, 0, "2.2675428571428573", "0.005625337585897699"),
    ),
    "capture_fixed_all_censored": (
        lambda t: simulate_capture(FixedProbabilityPolicy(0.999), 4, 400, seed=7, max_slots=30),
        (400, 0, 400, "nan", "nan"),
    ),
    "capture_one_slot": (
        lambda t: simulate_capture(GroupSplittingPolicy(t), 3, 1000, seed=2, max_slots=1),
        (1000, 413, 587, "1.0", "0.0"),
    ),
    "virtual_pair_unchunked": (
        lambda t: simulate_virtual_pair(70_000, seed=3),
        (70000, 70000, 0, "2.0056142857142856", "0.005356834320313036"),
    ),
    "virtual_pair_censored": (
        lambda t: simulate_virtual_pair(5000, seed=4, max_slots=2),
        (5000, 3745, 1255, "1.325233644859813", "0.007656081061471471"),
    ),
    "two_user_two_chunks": (
        lambda t: simulate_two_user(3, 70_000, seed=4),
        (70000, 70000, 0, "1.1437857142857142", "0.0015395442407670548"),
    ),
    "two_user_skewed_censored": (
        lambda t: simulate_two_user(2, 3000, seed=5, distribution=SKEWED, max_slots=2),
        (3000, 2215, 785, "1.3530474040632054", "0.010156964461714428"),
    ),
    "three_two_two_chunks": (
        lambda t: simulate_three_user_two_channel(FAMILY, 70_000, seed=6),
        (70000, 70000, 0, "1.3765", "0.002086039461405195"),
    ),
    # follow-ups after slot 1 land on slot max_slots = 2 and count;
    # those after slot 2 would land past it and are censored
    "three_two_followup_at_cap": (
        lambda t: simulate_three_user_two_channel(FAMILY, 5000, seed=8, max_slots=2),
        (5000, 4866, 134, "1.3205918618988903", "0.00669114123404943"),
    ),
    "three_two_followup_censored": (
        lambda t: simulate_three_user_two_channel(FAMILY, 5000, seed=8, max_slots=1),
        (5000, 3306, 1694, "1.0", "0.0"),
    ),
    "dispatch_two_user": (
        lambda t: simulate_multichannel(2, 2, 3000, seed=9),
        (3000, 3000, 0, "1.3576666666666666", "0.01311377384389725"),
    ),
    "dispatch_three_two": (
        lambda t: simulate_multichannel(3, 2, 3000, seed=9),
        (3000, 3000, 0, "1.3136666666666668", "0.011596182710161367"),
    ),
    "dispatch_three_one": (
        lambda t: simulate_multichannel(3, 1, 3000, seed=9, table=t),
        (3000, 3000, 0, "1.7736666666666667", "0.015620683168637635"),
    ),
    # recorded before the capture step drew its binomials from inversion
    # tables: sizes on and off the table path, the p > 0.5 flip and p = 0
    "capture_hundred_three_chunks": (
        lambda t: simulate_capture(GroupSplittingPolicy(_table(100)), 100, 140_000, seed=12),
        (140000, 140000, 0, "2.363985714285714", "0.004112340708160501"),
    ),
    "capture_fixed_half_fallback": (
        lambda t: simulate_capture(FixedProbabilityPolicy(0.5), 100, 3000, seed=13, max_slots=40),
        (3000, 0, 3000, "nan", "nan"),
    ),
    "capture_split_from_half_fallback": (
        lambda t: simulate_capture(GroupSplittingPolicy(_with_prob(_table(100), 100, 0.5)), 100, 20_000, seed=14),
        (20000, 20000, 0, "3.3612", "0.01090126918681922"),
    ),
    "capture_fixed_zero_no_draw": (
        lambda t: simulate_capture(FixedProbabilityPolicy(0.0), 5, 500, seed=15, max_slots=30),
        (500, 0, 500, "nan", "nan"),
    ),
    "capture_fixed_flip": (
        lambda t: simulate_capture(FixedProbabilityPolicy(0.9), 6, 3000, seed=16, max_slots=600),
        (3000, 103, 2897, "321.0388349514563", "17.28815879384694"),
    ),
    "capture_one_user": (
        lambda t: simulate_capture(GroupSplittingPolicy(_table(100)), 1, 1000, seed=17),
        (1000, 1000, 0, "1.0", "0.0"),
    ),
    "dispatch_three_one_three_chunks": (
        lambda t: simulate_multichannel(3, 1, 140_000, seed=18),
        (140000, 140000, 0, "1.7926285714285715", "0.0023403335656230154"),
    ),
    # recorded before the capture step took its rows in the order reached:
    # the solved policy reaches 151 group sizes from 300 users
    "capture_three_hundred_three_chunks": (
        lambda t: simulate_capture(GroupSplittingPolicy(_table(300)), 300, 140_000, seed=19),
        (140000, 140000, 0, "2.3755928571428573", "0.004116712908912549"),
    ),
}


def test_pinned_cases_span_chunks():
    assert 70_000 > CHUNK_SIZE


def _renumbered(rows, seed):
    """``_policy_rows``' rows in a random order that keeps row 0 first."""
    sizes, probs, koff, after = rows
    order = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(len(sizes) - 1)])
    new_row = np.argsort(order)  # old row -> new row
    blocks = [after[koff[r]: koff[r] + sizes[r] + 1] for r in order.tolist()]
    after = np.concatenate([np.where(b < 0, -1, new_row[b]) for b in blocks])
    return sizes[order], probs[order], np.cumsum([0, *(sizes[order] + 1)])[:-1], after


@pytest.mark.parametrize("users, table_p", [(100, None), (300, None), (100, 0.5)])
def test_row_numbering_changes_no_bit(users, table_p):
    # ids keep their positions and words are read in position order, so
    # which number a group size's row gets never reaches a draw; p = 0.5 at
    # 100 users puts every slot on ``Generator.binomial``
    table = _table(users) if table_p is None else _with_prob(_table(users), users, table_p)
    rows = capture._policy_rows(GroupSplittingPolicy(table), users)
    assert len(rows[0]) > 50

    def run(rows):
        return capture._stopping_times(lambda chunk: RngStream(20, (DOMAIN_CAPTURE, users, chunk)), 70_000,
                                       capture._CaptureStep(*rows))

    renumbered = _renumbered(rows, seed=users)
    assert renumbered[0][0] == users and not np.array_equal(renumbered[0], rows[0])
    assert run(renumbered) == run(rows)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_simulator_draws_are_pinned(name, capture_table):
    call, expected = PINNED[name]
    s = call(capture_table)
    assert (s.episodes, s.completed, s.censored, repr(s.mean), repr(s.stderr)) == expected


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_worker_count_changes_no_bit(name, cpus, capture_table, monkeypatch):
    monkeypatch.setattr(capture, "_usable_cpus", lambda: cpus)
    call, expected = PINNED[name]
    s = call(capture_table)
    assert (s.episodes, s.completed, s.censored, repr(s.mean), repr(s.stderr)) == expected


@pytest.mark.parametrize("failing", ["pool thread", "calling thread"])
def test_exception_in_a_chunk_propagates(failing, monkeypatch):
    monkeypatch.setattr(capture, "_usable_cpus", lambda: 2)
    both_started = threading.Barrier(2, timeout=30)

    def stream(chunk):
        # chunk 0 runs on the calling thread and chunk 1 on the pool thread;
        # neither starts its episodes before the other has begun
        both_started.wait()
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing == "calling thread"):
            raise RuntimeError(f"chunk {chunk} failed")
        return RngStream(0, (chunk,))

    def step(gen, ids):
        return np.where(gen.random(len(ids)) < 0.5, -1, 0), None

    with pytest.raises(RuntimeError, match="chunk [01] failed"):
        capture._stopping_times(stream, 20, step, chunk_size=10)


def test_every_chunk_runs_once_on_more_threads_than_cores(monkeypatch):
    # threads share the output array; a chunk run twice or never would show
    # in the streams asked for, and a write outside a chunk's slice in the
    # summary
    asked = []

    def stream(chunk):
        asked.append(chunk)
        return RngStream(0, (chunk,))

    def step(gen, ids):
        return np.where(gen.random(len(ids)) < 0.3, -1, 0), None

    def run(cpus):
        monkeypatch.setattr(capture, "_usable_cpus", lambda: cpus)
        asked.clear()
        summary = capture._stopping_times(stream, 997, step, chunk_size=7)
        assert sorted(asked) == list(range(143))
        return summary

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        crowded = run(8)
    finally:
        sys.setswitchinterval(interval)
    assert crowded == run(1)


SIMULATORS = {
    "capture": lambda episodes, max_slots: simulate_capture(
        FixedProbabilityPolicy(0.5), 3, episodes, seed=0, max_slots=max_slots),
    "virtual_pair": lambda episodes, max_slots: simulate_virtual_pair(episodes, seed=0, max_slots=max_slots),
    "two_user": lambda episodes, max_slots: simulate_two_user(2, episodes, seed=0, max_slots=max_slots),
    "three_two": lambda episodes, max_slots: simulate_three_user_two_channel(
        FAMILY, episodes, seed=0, max_slots=max_slots),
}


@pytest.mark.parametrize("name", sorted(SIMULATORS))
@pytest.mark.parametrize("episodes, max_slots", [(0, 10), (-3, 10), (10, 0), (10, -1)])
def test_simulators_reject_empty_runs(name, episodes, max_slots):
    with pytest.raises(ValueError, match="episodes >= 1 and max_slots >= 1"):
        SIMULATORS[name](episodes, max_slots)


def test_a_chunk_too_large_for_its_index_field_is_refused():
    # the one-stream virtual pair is a single chunk of every episode; the
    # check comes before the 32 GiB output array is asked for
    with pytest.raises(ValueError, match="a chunk holds at most 4294967296 episodes"):
        simulate_virtual_pair(2**32 + 1, seed=0)


VERDICTS = ("transmitters", "silent", "repeat")


class _TablePolicy:
    """A capture policy read from tables: p per group size and a survivor
    verdict per (size, count)."""

    def __init__(self, probs: list[float], verdicts: np.ndarray):
        self.probs, self.verdicts = [0.0, *probs], verdicts

    def transmit_prob(self, group_size: int) -> float:
        return self.probs[group_size]

    def survivor(self, group_size: int, transmitted: int) -> str:
        return VERDICTS[self.verdicts[group_size, transmitted]]


def _reference_capture(policy: _TablePolicy, users: int, episodes: int, seed: int, max_slots: int):
    """``simulate_capture`` written as a plain loop: ``Generator.binomial``
    every slot on the chunk's stream, and masks that compact the open
    episodes' indices and group sizes."""
    def side(m: int, k: int) -> int:
        if not 1 < k < m:  # 0 and m reveal nothing; 1 ends the episode
            return m
        return {"transmitters": k, "silent": m - k, "repeat": m}[policy.survivor(m, k)]

    sizes = range(users + 1)
    probs = np.array([policy.transmit_prob(m) for m in sizes])
    after = np.array([[side(m, k) for k in sizes] for m in sizes])
    done_at = np.zeros(episodes, dtype=np.int64)
    for chunk in range(-(-episodes // CHUNK_SIZE)):
        ends = done_at[chunk * CHUNK_SIZE:(chunk + 1) * CHUNK_SIZE]
        gen = RngStream(seed, (DOMAIN_CAPTURE, users, chunk)).generator()
        open_idx, group = np.arange(len(ends)), np.full(len(ends), users)
        for t in range(1, max_slots + 1):
            if len(open_idx) == 0:
                break
            k = gen.binomial(group, probs[group])
            ended = k == 1
            ends[open_idx[ended]] = t
            open_idx, group = open_idx[~ended], after[group, k][~ended]
    return summarize_times(done_at[done_at > 0], int(np.count_nonzero(done_at == 0)))


def _prob(m: int, zero: bool):
    """p for size m: 1, any p in (0, 1), p above 1/2, or min(p, 1 - p) m
    within 1/2 of the 30 where numpy leaves inversion for BTPE; and 0 too
    when ``zero``, which draws no uniform."""
    near_btpe = st.floats(29.5, 30.5).map(lambda mean: min(mean / m, 0.5))
    p = (st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True) | st.floats(0.5, 1.0, exclude_min=True)
         | near_btpe | near_btpe.map(lambda p: 1.0 - p))
    return p | st.just(0.0) if zero else p


@settings(max_examples=60, deadline=None)
@given(
    users=st.integers(1, 70),
    zero=st.booleans(),
    data=st.data(),
    verdict_seed=st.integers(0, 2**32 - 1),
    repeats=st.floats(0.0, 1.0),
    episodes=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
    max_slots=st.integers(1, 40),
)
def test_capture_equals_a_reference_loop(users, zero, data, verdict_seed, repeats, episodes, seed, max_slots):
    # p = 0, or m p' > 30 past 60 users, takes the policy off the inversion tables
    probs = [data.draw(_prob(m, zero)) for m in range(1, users + 1)]
    verdicts = np.random.default_rng(verdict_seed).choice(
        3, size=(users + 1, users + 1), p=[(1 - repeats) / 2, (1 - repeats) / 2, repeats])
    policy = _TablePolicy(probs, verdicts)
    got = simulate_capture(policy, users, episodes, seed, max_slots=max_slots)
    assert repr(got) == repr(_reference_capture(policy, users, episodes, seed, max_slots))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 129, 8193, 65536, 65537, 131_073, 300_007, 1_048_583])
def test_summary_has_the_bits_of_numpy_mean_and_std(n):
    # the pairwise tree splits past 2^16 elements, a sum of squares at a time;
    # the loop stores ends in the narrowest unsigned type that holds max_slots
    # (uint8 copies wrap the few ends past 255, which is fine for a bit check)
    for dtype in (np.int64, np.uint8, np.uint16, np.uint32):
        times = np.random.default_rng(n).geometric(0.05, n).astype(dtype)
        s = summarize_times(times, 3)
        stderr = float(np.std(times, ddof=1) / math.sqrt(n)) if n > 1 else math.nan
        assert (s.episodes, s.completed, s.censored) == (n + 3, n, 3)
        assert (repr(s.mean), repr(s.stderr)) == (repr(float(np.mean(times))), repr(stderr)), dtype


EDGES = [255, 256, 65535, 65536]  # the largest max_slots of uint8 and uint16 ends, and one past each


@pytest.mark.parametrize("max_slots", EDGES)
def test_ends_land_on_max_slots_at_each_end_type_edge(max_slots, monkeypatch):
    # episode 0 ends at max_slots - 1, 1 at max_slots, 2 by a follow-up onto
    # max_slots, 3 by a follow-up past it (censored), 4 never and 5 at slot 1
    stop = np.array([max_slots - 1, max_slots, max_slots - 1, max_slots, 0, 1])
    follow_up = np.array([False, False, True, True, False, False])
    slot = itertools.count(1)

    def step(gen, ids):
        now = stop[ids] == next(slot)
        return np.where(now, -1, 0), now & follow_up[ids]

    types = []
    monkeypatch.setattr(capture, "summarize_times", lambda times, censored: types.append(times.dtype)
                        or summarize_times(times, censored))
    got = capture._stopping_times(lambda chunk: RngStream(0, (chunk,)), 6, step, max_slots=max_slots)
    assert next(slot) == max_slots + 1
    assert types == [{255: np.uint8, 256: np.uint16, 65535: np.uint16, 65536: np.uint32}[max_slots]]
    assert got == summarize_times(np.array([max_slots - 1, max_slots, max_slots, 1], dtype=np.int64), 2)


@pytest.mark.parametrize("max_slots, p", [(255, 0.7), (256, 0.7), (65535, 0.9), (65536, 0.9)])
def test_censoring_capture_at_each_end_type_edge_equals_the_int64_reference(max_slots, p):
    # a few percent of the episodes run past max_slots; p > 0.5 reads the flipped table
    episodes = 3000 if max_slots < 1000 else 300
    policy = FixedProbabilityPolicy(p)
    got = simulate_capture(policy, 6, episodes, seed=22, max_slots=max_slots)
    assert 0 < got.censored < episodes // 10
    assert repr(got) == repr(_reference_capture(policy, 6, episodes, 22, max_slots))


# recorded before ends were stored narrower than int64: 8 episodes of the
# three-user run end on slot 255, nearly all by a follow-up from slot 254,
# and the 20 that end on 256, nearly all by a follow-up, are censored at 255
THREE_USER_EDGES = {
    255: (40000, 39227, 773, "60.47222576286741", "0.27089098535490663"),
    256: (40000, 39247, 753, "60.571865365505644", "0.27166765800342474"),
    65535: (40000, 40000, 0, "65.4964", "0.32330918699715283"),
    65536: (40000, 40000, 0, "65.4964", "0.32330918699715283"),
}


@pytest.mark.parametrize("max_slots", EDGES)
def test_three_user_follow_ups_at_each_end_type_edge_are_pinned(max_slots):
    # p = 1, q = 1 - 1/192: three users repeat about 63 rounds in 64, and a
    # round that does not repeat nearly always leaves a follow-up slot
    s = simulate_three_user_two_channel((1.0, 1 - 1 / 192, 0.5), 40_000, seed=21, max_slots=max_slots)
    assert (s.episodes, s.completed, s.censored, repr(s.mean), repr(s.stderr)) == THREE_USER_EDGES[max_slots]


def _reference_virtual_pair(episodes: int, seed: int, max_slots: int):
    """``simulate_virtual_pair`` as a plain loop: one ``random_raw`` call per
    slot over every open episode, coins from bits 31 and 63 of each word."""
    gen = RngStream(seed, (DOMAIN_MISC, 2)).generator()
    done_at = np.zeros(episodes, dtype=np.int64)
    open_idx = np.arange(episodes)
    for t in range(1, max_slots + 1):
        if len(open_idx) == 0:
            break
        w = gen.bit_generator.random_raw(len(open_idx))
        one_packet = (w >> np.uint64(31) & np.uint64(1)) != (w >> np.uint64(63))
        done_at[open_idx[one_packet]] = t
        open_idx = open_idx[~one_packet]
    return summarize_times(done_at[done_at > 0], int(np.count_nonzero(done_at == 0)))


@pytest.mark.parametrize("episodes, max_slots", [(200_000, 10_000), (200_000, 3), (CHUNK_SIZE + 1, 10_000)])
def test_virtual_pair_in_blocks_equals_one_draw_a_slot(episodes, max_slots):
    # 200,000 episodes are four blocks of CHUNK_SIZE on one stream
    assert -(-episodes // CHUNK_SIZE) == (4 if episodes == 200_000 else 2)
    got = simulate_virtual_pair(episodes, seed=23, max_slots=max_slots)
    assert repr(got) == repr(_reference_virtual_pair(episodes, 23, max_slots))


TOP = 2**53 - 1
BUCKET = 1 << 41  # the j of one of the 4,096 buckets


class _Words:
    """A generator stand-in whose bit generator hands out given raw words."""

    def __init__(self, words: np.ndarray):
        self.bit_generator, self.words = self, words

    def random_raw(self, size):
        assert size == len(self.words)
        return self.words.copy()


# subset weights: anywhere, zero, on the 2^-12 grid of bucket edges, or a
# j or two off it; forty of them may sum past 1 before the last
WEIGHTS = (st.floats(0.0, 0.05) | st.just(0.0) | st.integers(0, 100).map(lambda i: i / 4096)
           | st.sampled_from([2.0**-53, 2.0**-52, 1e-300]))


@settings(max_examples=80, deadline=None)
@given(dist=st.lists(WEIGHTS, min_size=1, max_size=40).map(np.array)
       | st.sampled_from([2, 3, 13]).map(lambda m: np.full(1 << m, 2.0**-m)),
       low=st.integers(0, 2**11 - 1), seed=st.integers(0, 2**32 - 1))
def test_code_lookup_equals_searchsorted_on_the_same_uniforms(dist, low, seed):
    # words at, around and past every threshold, at the first and last j of
    # each bucket that holds one, and at random; 13 channels put 8,192
    # thresholds in 4,096 buckets
    cum = np.cumsum(dist)
    cum[-1] = 1.0
    t = np.ceil(cum * 2.0**53).astype(np.int64) - 1
    first = t // BUCKET * BUCKET
    rng = np.random.default_rng(seed)
    j = np.concatenate([[0, TOP], t - 1, t, t + 1, t + 2, first, first + BUCKET - 1, rng.integers(0, TOP, 100)])
    words = np.clip(j, 0, TOP).astype(np.uint64) << 11 | np.uint64(low)
    draw = _code_drawer(dist)
    codes = draw(_Words(words), len(words), 1)
    assert np.array_equal(codes[:, 0], np.searchsorted(cum, (words >> 11) * 2.0**-53, side="right"))
    # and from a real stream, whose words the step reads where numpy's uniforms were
    mine, numpy_ = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw(mine, 500, 3)
    assert np.array_equal(got, np.searchsorted(cum, numpy_.random((500, 3)), side="right"))
    assert mine.random() == numpy_.random()


def _bit_logic(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The three-user step's outcome from (n, 3) subset codes, worked out
    with bit arithmetic per draw: the next row bits and the follow-up mask."""
    bit1, bit2 = codes & 1, (codes >> 1) & 1
    c1 = bit1[:, 0] + bit1[:, 1] + bit1[:, 2]
    c2 = bit2[:, 0] + bit2[:, 1] + bit2[:, 2]
    capture = (c1 == 1) | (c2 == 1)
    same = (codes[:, 0] == codes[:, 1]) & (codes[:, 1] == codes[:, 2])
    return np.where(same, 0, -1), ~capture & ~same


def test_outcome_table_equals_the_bit_logic_on_every_pattern():
    codes = np.array(list(itertools.product(range(4), repeat=3)))
    pattern = codes[:, 0] | codes[:, 1] << 2 | codes[:, 2] << 4
    assert sorted(pattern.tolist()) == list(range(64))
    row, follow_up = _three_user_outcomes()
    want_row, want_follow_up = _bit_logic(codes)
    assert row.dtype == np.int64 and follow_up.dtype == bool
    assert np.array_equal(row[pattern], want_row) and np.array_equal(follow_up[pattern], want_follow_up)
