"""The scan-then-golden minimizer with and without a vectorized screen."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slotmac.optimize import SCREEN_SLACK, golden_section, scan_then_golden

from conftest import scalar_scan_then_golden


def _dips(dips, scale, flat_at):
    """A smooth bowl with Gaussian dips, scaled, optionally cut flat at a
    level so that several grid points tie exactly."""

    def f(x: float) -> float:
        value = scale * ((x - 0.5) ** 2 - sum(d * math.exp(-(((x - c) / w) ** 2)) for c, w, d in dips))
        return value if flat_at is None else max(value, flat_at)

    return f


@settings(max_examples=200, deadline=None)
@given(
    dips=st.lists(
        st.tuples(
            st.floats(0.0, 1.0),
            st.floats(0.02, 0.5),
            st.sampled_from([0.0, 0.25, 0.5, 0.5 + 1e-10, 1.0]) | st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=4,
    ),
    points=st.integers(2, 60),
    flat=st.none() | st.floats(0.0, 0.3),
    # small scales put many grid points within the slack of the minimum
    scale=st.floats(1e-8, 10.0),
    data=st.data(),
)
def test_screen_within_half_slack_changes_nothing(dips, points, flat, scale, data):
    base = _dips(dips, scale, None)
    xs = [i * (1.0 / (points - 1)) for i in range(points)]
    # cut the bowl flat just above its lowest grid value
    f = base if flat is None else _dips(dips, scale, min(base(x) for x in xs) + flat * scale)
    half_open = st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True)
    errors = data.draw(st.lists(half_open, min_size=points, max_size=points))
    screened = [f(x) + e * SCREEN_SLACK for x, e in zip(xs, errors)]
    # the documented contract, checked exactly: |screen - f| < SCREEN_SLACK / 2
    assume(all(abs(Fraction(s) - Fraction(f(x))) < Fraction(SCREEN_SLACK) / 2 for s, x in zip(screened, xs)))

    def screen(grid: np.ndarray) -> np.ndarray:
        assert grid.tolist() == xs
        return np.array(screened)

    want = scan_then_golden(f, 0.0, 1.0, points, tol=1e-6)
    assert want == scalar_scan_then_golden(f, 0.0, 1.0, points, tol=1e-6)
    assert scan_then_golden(f, 0.0, 1.0, points, tol=1e-6, screen=screen) == want


def test_tied_grid_minimum_goes_to_the_first_point():
    # grid points 3..7 tie and the screen ranks the last of them lowest;
    # off the grid f is high, so the polish cannot beat the grid point
    xs = [i * 0.1 for i in range(11)]
    on_grid = dict(zip(xs, [0.5, 0.4, 0.3, 0.2, 0.2, 0.2, 0.2, 0.2, 0.3, 0.4, 0.5]))
    visited = []

    def f(x):
        visited.append(x)
        return on_grid.get(x, 1.0)

    def screen(grid):
        return np.array([on_grid[x] for x in grid.tolist()]) - 1e-11 * np.arange(len(grid))

    assert scan_then_golden(f, 0.0, 1.0, 11, tol=1e-6, screen=screen) == (xs[3], 0.2)
    # only the tied points reach f before the polish
    assert visited[:5] == xs[3:8]
    assert not on_grid.keys() & set(visited[5:])
    assert scan_then_golden(f, 0.0, 1.0, 11, tol=1e-6) == (xs[3], 0.2)


def test_golden_section_below_float_spacing_returns():
    # a tol under the spacing of floats near 0.3 used to loop forever
    x, fx = golden_section(lambda x: (x - 0.3) ** 2, 0.0, 1.0, tol=1e-17)
    assert x == pytest.approx(0.3, abs=1e-15)
    assert fx <= 1e-30


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_golden_section_rejects_a_tolerance_it_cannot_stop_at(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        golden_section(lambda x: (x - 0.3) ** 2, 0.0, 1.0, tol=tol)
