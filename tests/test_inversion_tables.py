"""The capture simulator's table-driven binomial against numpy's own
``Generator.binomial``: the same integers from the same uniforms, and the
stream left where numpy leaves it.

The tables copy numpy 2.4's inversion sampler bit for bit, so a numpy whose
sampler changes fails ``test_forced_uniforms_at_every_threshold`` first."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotmac import GroupSplittingPolicy, solve_capture_table
from slotmac.capture import _binomial_draw, _InversionTables, _policy_tables

TOP = _InversionTables.TOP
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


def _rows(rows: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    probs = np.zeros(max(rows) + 1)
    sizes = np.array(sorted(rows))
    probs[sizes] = [rows[m] for m in sizes]
    return probs, sizes


def _reachable(policy, users: int) -> tuple[np.ndarray, np.ndarray]:
    probs, offset, _ = _policy_tables(policy, users)
    return probs, np.flatnonzero(offset >= 0)


# (probs, sizes in row order): every size the solved policy reaches from 100
# users, and rows at the edges of the inversion path: the p > 0.5 flip,
# p = 1, m p' = 30 exactly, the largest bound (m p' = 30 at m = 1000) and
# tiny p
ROWS = {
    "solved_100": lambda: _reachable(GroupSplittingPolicy(solve_capture_table(100)), 100),
    "edges": lambda: _rows({1: 0.3, 2: 1.0, 3: 0.999, 6: 0.9, 7: 1e-300, 60: 0.5, 61: 0.49, 1000: 0.03}),
    "near_btpe": lambda: _rows({m: 30.0 / m if m % 2 else 1.0 - 29.9 / m for m in range(60, 1000, 37)}),
}


def _edge_uniforms(tables: _InversionTables, row: int) -> list[int]:
    """j = 0 and TOP, j around every threshold of the row (the redraw
    threshold included), and the first and last j of each bucket holding a
    threshold and of its neighbours."""
    js = {0, TOP}
    bucket = 1 << _InversionTables.BUCKET_BITS
    for t in tables.thresholds[row, : tables.bound[row] + 1].tolist():
        js.update(range(t - 1, t + 3))
        first = (max(t, 0) // bucket) * bucket
        js.update((first - 1, first, first + bucket - 1, first + bucket, first - bucket))
    return sorted(j for j in js if 0 <= j <= TOP)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_forced_uniforms_at_every_threshold(name):
    # each draw is a slot of three: the forced uniform and two stream ones,
    # so a redraw rewinds a slot of more than one
    probs, sizes = ROWS[name]()
    tables = _InversionTables(probs, sizes)
    mismatches = checked = redraws = 0
    for row, m in enumerate(sizes.tolist()):
        group = np.full(3, m)
        for j in _edge_uniforms(tables, row):
            mine, numpy_ = forced_generator(j), forced_generator(j)
            got = tables.draw(mine, group)
            want = numpy_.binomial(group, probs[group])
            mismatches += not np.array_equal(got, want) or mine.random() != numpy_.random()
            checked += 1
            redraws += j > tables.thresholds[row, tables.bound[row]]
    assert mismatches == 0, f"{mismatches} of {checked} forced uniforms differ from numpy"
    assert redraws > 0


@pytest.mark.parametrize("name", sorted(ROWS))
def test_every_pure_bucket_holds_the_count_its_thresholds_give(name):
    tables = _InversionTables(*ROWS[name]())
    first = np.arange(4096, dtype=np.int64) << _InversionTables.BUCKET_BITS
    last = first + (1 << _InversionTables.BUCKET_BITS) - 1
    for row, t in enumerate(tables.thresholds):
        x_first = np.count_nonzero(first[:, None] > t, axis=1)
        x_last = np.count_nonzero(last[:, None] > t, axis=1)
        lut = tables.lut[row * 4096:(row + 1) * 4096]
        pure = (x_first == x_last) & (x_first <= tables.bound[row])
        assert np.array_equal(lut >= 0, pure)
        assert np.array_equal(lut[pure], x_first[pure])


def _draw(rows: dict[int, float]):
    """``_binomial_draw`` for a policy reaching the sizes of ``rows``."""
    probs, sizes = _rows(rows)
    offset = np.full(len(probs), -1)
    offset[sizes] = 0
    return probs, _binomial_draw(probs, offset)


def _assert_slots_match(rows: dict[int, float], group: np.ndarray, seed: int, slots: int = 3) -> None:
    probs, draw = _draw(rows)
    mine, numpy_ = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(slots):
        assert np.array_equal(draw(mine, group), numpy_.binomial(group, probs[group]))
    assert mine.random() == numpy_.random()


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
    _, draw = _draw({m: p})
    assert isinstance(getattr(draw, "__self__", None), _InversionTables) == tabled
    _assert_slots_match({m: p, 1: 1.0}, np.repeat([m, 1], 5000), seed=m)


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
