"""The capture simulator's table-driven step against numpy's own
``Generator.binomial``: from the same uniforms, the size the policy's split
leaves after ``Generator.binomial(m, p)`` of m transmit, and the stream
left where numpy leaves it.

The tables copy numpy 2.4's inversion sampler bit for bit, so a numpy whose
sampler changes fails ``test_forced_uniforms_at_every_threshold`` first."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotmac import GroupSplittingPolicy, solve_capture_table
from slotmac.capture import BUCKET_BITS, INDEX_MASK, SLOW, _CaptureStep, _policy_rows

TOP = _CaptureStep.TOP
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
PCG_MULT_INV = pow(PCG_MULT, -1, 2**128)


def forced_generator(j: int) -> np.random.Generator:
    """A PCG64 generator whose next ``random()`` is exactly j * 2**-53.

    PCG64 steps its 128-bit state to s * MULT + inc and outputs the low word
    rotated by the top six bits, xored with the high word; a stepped state
    of j << 11 has a zero high word, so the output is j << 11 and the double
    is (j << 11 >> 11) * 2**-53."""
    bits = np.random.PCG64(0)
    state = bits.state
    inc = state["state"]["inc"]
    state["state"]["state"] = (((j << 11) - inc) * PCG_MULT_INV) % 2**128
    bits.state = state
    return np.random.Generator(bits)


def test_forced_generator_reads_the_uniform_asked_for():
    for j in (0, 1, 12345, 2**52, TOP):
        assert forced_generator(j).random() == j * 2.0**-53


# the stopping-time steps read raw PCG64 words in place of the draws below;
# a numpy that maps words to draws differently fails these first

def test_raw_words_are_the_uniforms_generator_random_returns():
    raw, numpy_ = np.random.Generator(np.random.PCG64(3)), np.random.Generator(np.random.PCG64(3))
    for shape in (1, 7, 1000, (500, 3)):
        assert np.array_equal((raw.bit_generator.random_raw(shape) >> 11) * 2.0**-53, numpy_.random(shape))
    assert raw.random() == numpy_.random()


def test_coin_pairs_are_bits_31_and_63_of_raw_words():
    # Lemire's method on range 2 keeps the top bit of each 32-bit half of
    # a word, low half first; consecutive calls on one generator would show
    # a half carried over from the call before
    raw, numpy_ = np.random.Generator(np.random.PCG64(4)), np.random.Generator(np.random.PCG64(4))
    for n in (1, 7, 1000, 1, 7, 1000, 7):
        w = raw.bit_generator.random_raw(n)
        assert np.array_equal(numpy_.integers(0, 2, size=(n, 2)), np.stack([w >> 31 & 1, w >> 63], axis=1))
    assert raw.random() == numpy_.random()


# seven sizes, on the inversion path, that the split sends k of m to by
# k mod 7, so that counts less than seven apart leave different sizes
WITNESSES = tuple(range(2001, 2008))


def _tables(rows: dict[int, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(sizes, probs, koff, after) in the layout of ``_policy_rows`` for the
    sizes of ``WITNESSES`` (p = 1) and ``rows``, numbered in that order: k = 1
    of m captures and any other k leaves WITNESSES[k % 7], which is row k % 7."""
    rows = {**dict.fromkeys(WITNESSES, 1.0), **rows}
    koff = np.cumsum([0, *[m + 1 for m in rows]])[:-1]
    after = [-1 if k == 1 else k % 7 for m in rows for k in range(m + 1)]
    return np.array(list(rows)), np.array(list(rows.values())), koff, np.array(after, dtype=np.int64)


def _rows(row_bits: np.ndarray) -> np.ndarray:
    """The rows that a step's returned row bits name, -1 for a capture."""
    assert np.all((row_bits == -1) | (row_bits >= 0) & (row_bits & INDEX_MASK == 0))
    return row_bits >> _CaptureStep.ROW_SHIFT


def _ids(group: np.ndarray) -> np.ndarray:
    return group << _CaptureStep.ROW_SHIFT | np.arange(len(group))


def _row_of(step: _CaptureStep, sizes: np.ndarray) -> np.ndarray:
    row = {m: r for r, m in enumerate(step.sizes.tolist())}
    return np.array([row[m] for m in sizes.tolist()], dtype=np.int64)


def _reachable(policy, users: int) -> dict[int, float]:
    sizes, probs, _, _ = _policy_rows(policy, users)
    return dict(zip(sizes.tolist(), probs.tolist()))


# size -> p: every size the solved policy reaches from 100 users, and rows
# at the edges of the inversion path: the p > 0.5 flip, p = 1, m p' = 30
# exactly, the largest bound (m p' = 30 at m = 1000) and tiny p
ROWS = {
    "solved_100": lambda: _reachable(GroupSplittingPolicy(solve_capture_table(100)), 100),
    "edges": lambda: {1: 0.3, 2: 1.0, 3: 0.999, 6: 0.9, 7: 1e-300, 60: 0.5, 61: 0.49, 1000: 0.03},
    "near_btpe": lambda: {m: 30.0 / m if m % 2 else 1.0 - 29.9 / m for m in range(60, 1000, 37)},
}


def _edge_uniforms(step: _CaptureStep, row: int) -> list[int]:
    """j = 0 and TOP, j around every threshold of the row (the redraw
    threshold included), and the first and last j of each bucket holding a
    threshold and of its neighbours."""
    js = {0, TOP}
    bucket = 1 << BUCKET_BITS
    for t in step.thresholds[row, : step.bound[row] + 1].tolist():
        js.update(range(t - 1, t + 3))
        first = (max(t, 0) // bucket) * bucket
        js.update((first - 1, first, first + bucket - 1, first + bucket, first - bucket))
    return sorted(j for j in js if 0 <= j <= TOP)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_forced_uniforms_at_every_threshold(name):
    # each draw is a slot of three: the forced uniform and two stream ones,
    # so a redraw rewinds a slot of more than one
    rows = ROWS[name]()
    sizes, probs, koff, after = _tables(rows)
    step = _CaptureStep(sizes, probs, koff, after)
    mismatches = checked = redraws = 0
    for row, m in enumerate(sizes.tolist()):
        if m not in rows:
            continue
        group = np.full(3, row)
        for j in _edge_uniforms(step, row):
            mine, numpy_ = forced_generator(j), forced_generator(j)
            got = _rows(step(mine, _ids(group)))
            want = after[koff[group] + numpy_.binomial(sizes[group], probs[group])]
            mismatches += not np.array_equal(got, want) or mine.random() != numpy_.random()
            checked += 1
            redraws += j > step.thresholds[row, step.bound[row]]
    assert mismatches == 0, f"{mismatches} of {checked} forced uniforms differ from numpy"
    assert redraws > 0


@pytest.mark.parametrize("name", sorted(ROWS))
def test_every_pure_bucket_holds_the_count_its_thresholds_give(name):
    # the count as the size the split leaves after it
    sizes, probs, koff, after = _tables(ROWS[name]())
    step = _CaptureStep(sizes, probs, koff, after)
    first = np.arange(4096, dtype=np.int64) << BUCKET_BITS
    last = first + (1 << BUCKET_BITS) - 1
    for row, t in enumerate(step.thresholds):
        m = sizes[row]
        x_first = np.count_nonzero(first[:, None] > t, axis=1)
        x_last = np.count_nonzero(last[:, None] > t, axis=1)
        fused = step.fused[row * 4096:(row + 1) * 4096]
        pure = (x_first == x_last) & (x_first <= step.bound[row])
        assert np.array_equal(fused != SLOW, pure)
        k = m - x_first[pure] if probs[row] > 0.5 else x_first[pure]
        assert np.array_equal(_rows(fused[pure]), after[koff[row] + k])


def _assert_slots_match(rows: dict[int, float], group: np.ndarray, seed: int, slots: int = 3) -> _CaptureStep:
    # ``group`` holds sizes; the step sees the rows that hold them
    sizes, probs, koff, after = _tables(rows)
    step = _CaptureStep(sizes, probs, koff, after)
    group = _row_of(step, group)
    mine, numpy_ = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(slots):
        got = _rows(step(mine, _ids(group)))
        assert np.array_equal(got, after[koff[group] + numpy_.binomial(sizes[group], probs[group])])
    assert mine.random() == numpy_.random()
    return step


@pytest.mark.parametrize("m, p, tabled", [
    (60, 0.5, True),  # m p = 30: inversion
    (61, 0.5, False),  # BTPE
    (100, 0.3, True),  # 0.3 * 100 rounds to 30
    (100, math.nextafter(0.3, 1), False),  # 30.000000000000004
    (100, 0.7, False),  # (1 - 0.7) * 100 = 30.000000000000004
    (6, 0.0, False),  # no draw at all
    (6, 1.0, True),
])
def test_tables_only_where_numpy_inverts(m, p, tabled):
    step = _assert_slots_match({m: p, 1: 1.0}, np.repeat([m, 1], 5000), seed=m)
    assert (step.fused is not None) == tabled


def test_row_bits_stay_below_the_sign_bit(monkeypatch):
    # two rows fit below bit 63 when a row is worth 2^62, three do not
    monkeypatch.setattr(_CaptureStep, "ROW_SHIFT", 62)
    with pytest.raises(ValueError, match="at most 2 group sizes"):
        _CaptureStep(*_tables({}))


def by_mean(m: int, low: float, high: float):
    """p with min(p, 1 - p) m in [low, high], on either side of 1/2."""
    p = st.floats(low, high).map(lambda mean: min(mean / m, 1.0))
    return p | p.map(lambda p: 1.0 - p)


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 400), min_size=1, max_size=8, unique=True),
    odd=st.none() | st.integers(1, 400),
    data=st.data(),
    count=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_slots_equal_numpy_binomial_on_equal_streams(sizes, odd, data, count, seed):
    # sizes numpy draws by inversion, and perhaps one anywhere: p in
    # {0, 1/2, 1}, any p, or min(p, 1 - p) m around BTPE's 30
    rows = {m: data.draw(by_mean(m, 1e-9, 30.0)) for m in sizes}
    if odd is not None:
        rows[odd] = data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0) | by_mean(odd, 29.9, 30.1))
    group = np.random.default_rng(seed).choice(sorted(rows), count)
    _assert_slots_match(rows, group, seed)
