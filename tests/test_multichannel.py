"""Multiple channels: closed forms, the three-user family, and the
follow-up designation rule."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from slotmac import (
    beta_theta_full,
    beta_theta_independent,
    multichannel,
    optimize_three_user_two_channel,
    renewal_value,
    simulate_multichannel,
    two_user_capture_time,
)
from slotmac.capture import GroupSplittingPolicy, simulate_capture

from conftest import dense_z_grid
from slotmac.multichannel import (
    DEFAULT_THREE_USER_PARAMS,
    MAX_CHANNELS,
    MAX_GRID,
    SLAB_ROWS,
    _beta_theta_poly,
    _grid_min,
    _z_grid,
    resolve_multichannel,
    simulate_three_user_two_channel,
    simulate_two_user,
    two_user_value,
)

# subset codes: bit 0 = first channel, bit 1 = second channel


# the follow-up designation after a theta slot, as the paper argues it; the
# simulator applies its own vectorized test
def slot_outcome(codes: tuple[int, int, int]) -> str:
    """Classify a three-user slot: "capture", "repeat" (all same subset,
    nothing learned), or "followup" (a single user is identified)."""
    c1 = sum(c & 1 for c in codes)
    c2 = sum((c >> 1) & 1 for c in codes)
    if c1 == 1 or c2 == 1:
        return "capture"
    if codes[0] == codes[1] == codes[2]:
        return "repeat"
    return "followup"


def followup_will_transmit(own: int, c1: int, c2: int) -> bool:
    """One user's follow-up decision after a theta slot, from its own
    subset code and the channel counts alone.

    The user transmits iff its code is below both other codes in every
    completion of the counts consistent with its view.  In theta patterns
    this selects exactly one user.
    """
    rem1 = c1 - (own & 1)
    rem2 = c2 - ((own >> 1) & 1)
    pairs = [
        (x, y)
        for x in range(4)
        for y in range(4)
        if (x & 1) + (y & 1) == rem1 and ((x >> 1) & 1) + ((y >> 1) & 1) == rem2
    ]
    if not pairs:
        raise ValueError("channel counts are inconsistent with the claimed subset")
    return all(own < min(x, y) for x, y in pairs)


def followup_transmitter(codes: tuple[int, int, int]) -> int:
    """Index of the user designated to transmit after a theta slot (the
    unique minimum subset code)."""
    if slot_outcome(codes) != "followup":
        raise ValueError("not a follow-up pattern")
    low = min(codes)
    assert codes.count(low) == 1
    return codes.index(low)


def _code_probs(p, q, r):
    # per-user law of the family: first channel with p, second with q on
    # top of the first and r otherwise
    return {3: p * q, 1: p * (1 - q), 2: (1 - p) * r, 0: (1 - p) * (1 - r)}


def _classify(codes):
    c1 = sum(c & 1 for c in codes)
    c2 = sum(c >> 1 for c in codes)
    if c1 == 1 or c2 == 1:
        return "capture"
    if len(set(codes)) == 1:
        return "repeat"
    return "followup"


def _enumerated_beta_theta(p, q, r):
    w = _code_probs(p, q, r)
    beta = theta = 0.0
    for codes in itertools.product(range(4), repeat=3):
        prob = w[codes[0]] * w[codes[1]] * w[codes[2]]
        kind = _classify(codes)
        if kind == "repeat":
            beta += prob
        elif kind == "followup":
            theta += prob
    return beta, theta


def test_two_user_closed_form():
    assert two_user_capture_time(1) == 2
    assert two_user_capture_time(2) == Fraction(4, 3)
    assert two_user_capture_time(3) == Fraction(8, 7)
    with pytest.raises(ValueError):
        two_user_capture_time(0)


def test_two_user_value_uniform_hits_closed_form():
    for m in (1, 2, 3, 4):
        uniform = [1.0 / 2**m] * 2**m
        assert two_user_value(uniform) == pytest.approx(float(two_user_capture_time(m)), rel=1e-12)


def test_two_user_value_point_mass_never_resolves():
    assert two_user_value([1.0, 0.0, 0.0, 0.0]) == math.inf


def test_two_user_uniform_is_optimal():
    # no other subset distribution does better than uniform
    rng = np.random.default_rng(12)
    base = two_user_value([0.25] * 4)
    for _ in range(300):
        q = rng.dirichlet(np.full(4, rng.uniform(0.2, 5.0)))
        assert two_user_value(q) >= base - 1e-12


def test_two_user_value_validates():
    with pytest.raises(ValueError):
        two_user_value([0.5, 0.6])
    with pytest.raises(ValueError):
        two_user_value([1.2, -0.2])


@pytest.mark.parametrize(
    "p,q,r",
    [(0.5, 0.0, 1.0), (0.360882, 0.360882, 0.360882), (0.4, 0.3, 0.6), (0.7, 0.9, 0.1), (1.0, 0.5, 0.5)],
)
def test_family_formulas_match_enumeration(p, q, r):
    want_beta, want_theta = _enumerated_beta_theta(p, q, r)
    bt = beta_theta_full(p, q, r)
    assert bt.beta == pytest.approx(want_beta, abs=1e-12)
    assert bt.theta == pytest.approx(want_theta, abs=1e-12)


def test_independent_is_diagonal_slice():
    for p in (0.0, 0.2, 0.360882, 0.5, 0.9, 1.0):
        diag = beta_theta_full(p, p, p)
        ind = beta_theta_independent(p)
        assert ind.beta == pytest.approx(diag.beta, abs=1e-12)
        assert ind.theta == pytest.approx(diag.theta, abs=1e-12)


def test_renewal_value():
    from slotmac.multichannel import BetaTheta

    assert renewal_value(BetaTheta(0.0, 0.0)) == 1.0
    assert renewal_value(BetaTheta(0.5, 0.0)) == 2.0
    assert renewal_value(BetaTheta(0.25, 0.5)) == 2.0
    assert renewal_value(BetaTheta(1.0, 0.0)) == math.inf


def test_designated_point_has_no_followups():
    # the family optimum never needs a follow-up slot at all
    bt = beta_theta_full(0.5, 0.0, 1.0)
    assert bt.theta == 0.0
    assert renewal_value(bt) == pytest.approx(4 / 3, abs=1e-12)


def test_followup_pattern_census():
    # every one of the 64 patterns: captures have a unique solo channel,
    # repeats are unanimous, and every follow-up designates exactly one user
    kinds = {"capture": 0, "repeat": 0, "followup": 0}
    for codes in itertools.product(range(4), repeat=3):
        kind = _classify(codes)
        kinds[kind] += 1
        assert slot_outcome(codes) == kind
        if kind != "followup":
            with pytest.raises(ValueError):
                followup_transmitter(codes)
            continue
        c1 = sum(c & 1 for c in codes)
        c2 = sum(c >> 1 for c in codes)
        deciders = [i for i, own in enumerate(codes) if followup_will_transmit(own, c1, c2)]
        assert deciders == [followup_transmitter(codes)], codes
    assert sum(kinds.values()) == 64
    assert kinds["repeat"] == 4


def test_followup_next_slot_is_solo():
    # the designated user transmitting alone on the first channel is a
    # capture whatever the others do, because they all stay silent
    for codes in itertools.product(range(4), repeat=3):
        if _classify(codes) != "followup":
            continue
        winner = followup_transmitter(codes)
        follow = tuple(1 if i == winner else 0 for i in range(3))
        assert _classify(follow) == "capture"


def test_classification_invariant_under_channel_swap():
    # outcomes do not care which channel is which; the designation rule
    # does (the code order is its tie-break), so only the class is preserved
    swap = {0: 0, 1: 2, 2: 1, 3: 3}
    for codes in itertools.product(range(4), repeat=3):
        swapped = tuple(swap[c] for c in codes)
        assert _classify(swapped) == _classify(codes)


def test_designation_equivariant_under_user_permutation():
    for codes in itertools.product(range(4), repeat=3):
        if _classify(codes) != "followup":
            continue
        winner = followup_transmitter(codes)
        for perm in itertools.permutations(range(3)):
            shuffled = tuple(codes[perm[i]] for i in range(3))
            assert followup_transmitter(shuffled) == perm.index(winner)


def test_optimizer_finds_reference_optima():
    opt = optimize_three_user_two_channel()
    p, q, r = opt.full.params
    assert (p, q, r) == pytest.approx((0.5, 0.0, 1.0), abs=1e-3)
    assert opt.full.value == pytest.approx(4 / 3, abs=1e-4)
    (pi,) = opt.independent.params
    assert pi == pytest.approx(0.360882, abs=1e-3)
    assert opt.independent.value == pytest.approx(1.343727, abs=1e-4)
    assert opt.full.value < opt.independent.value
    d = opt.to_json_dict()
    assert d["full"]["value"] == pytest.approx(opt.full.value)


def test_optimizer_tolerance_below_float_spacing_returns():
    # golden-section tolerances of step * 1e-4 fall below the float spacing
    # of the bracket here, which used to hang the polish
    opt = optimize_three_user_two_channel(grid=21, tol=1e-12)
    assert opt.full.params == pytest.approx((0.5, 0.0, 1.0), abs=1e-9)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_optimizer_rejects_a_tolerance_it_cannot_stop_at(tol):
    # tol <= 0 used to loop forever and nan to skip the polish silently
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        optimize_three_user_two_channel(grid=21, tol=tol)


@pytest.mark.parametrize("grid", [10, MAX_GRID + 1])
def test_optimizer_rejects_grids_out_of_range(grid):
    # the scan holds grid^3 points; the bound is checked before any allocation
    with pytest.raises(ValueError, match=f"need 11 <= grid <= {MAX_GRID}, got {grid}"):
        optimize_three_user_two_channel(grid=grid)


@pytest.mark.parametrize("grid", [11, 21, 41])
def test_sparse_z_grid_matches_dense_oracle_bit_for_bit(grid):
    # broadcasting the one-axis factors must not move a bit of any grid point
    xs = np.linspace(0.0, 1.0, grid)
    assert np.array_equal(_z_grid(xs, xs).view(np.int64), dense_z_grid(xs).view(np.int64))


def _dense_by_rows(xs: np.ndarray) -> np.ndarray:
    """``dense_z_grid(xs)`` filled one i-row at a time, so grid 201 holds one
    grid^3 array and not the dense meshgrid's several."""
    q, r = np.meshgrid(xs, xs, indexing="ij")
    z = np.full((len(xs),) * 3, math.inf)
    for i, p in enumerate(xs):
        beta, theta = _beta_theta_poly(np.full(q.shape, p), q, r)
        ok = beta < 1.0 - 1e-9
        z[i][ok] = (1.0 + theta[ok]) / (1.0 - beta[ok])
    return z


def _argmin_point(xs: np.ndarray, z: np.ndarray) -> tuple[list[float], float]:
    i, j, k = np.unravel_index(np.argmin(z), z.shape)
    return [float(xs[i]), float(xs[j]), float(xs[k])], float(z[i, j, k])


@pytest.mark.parametrize("grid", [11, 21, 41, 101, 201])
def test_slab_scan_finds_the_dense_argmin(grid):
    xs = np.linspace(0.0, 1.0, grid)
    if grid <= 41:
        assert np.array_equal(_dense_by_rows(xs).view(np.int64), dense_z_grid(xs).view(np.int64))
    assert grid > SLAB_ROWS and _grid_min(xs) == _argmin_point(xs, _dense_by_rows(xs))


@pytest.mark.parametrize("levels", [1, 4, 16])
@pytest.mark.parametrize("grid", [11, 21, 41])
def test_slab_scan_breaks_ties_as_argmin_does(grid, levels, monkeypatch):
    # rounding z down to 1/levels makes the minimum a plateau over several
    # slabs; levels = 1 makes nearly the whole grid one tie
    xs = np.linspace(0.0, 1.0, grid)
    coarse = lambda xi, xs: np.floor(_z_grid(xi, xs) * levels) / levels  # noqa: E731
    want = _argmin_point(xs, coarse(xs, xs))
    rows = np.nonzero(coarse(xs, xs) == want[1])[0]
    assert len(set((rows // SLAB_ROWS).tolist())) > 1
    monkeypatch.setattr(multichannel, "_z_grid", coarse)
    assert _grid_min(xs) == want


@pytest.mark.parametrize("tol", [2.9e-16, 1e-16, 1e-300, math.ulp(0.0)])
def test_optimizer_tolerance_below_the_float_spacing_of_its_point(tol):
    # the trust interval around p = 0.5 and r = 1 falls below their float
    # spacing, which used to reach golden_section as lo == hi
    opt = optimize_three_user_two_channel(tol=tol)
    assert opt.full.value <= optimize_three_user_two_channel().full.value
    assert opt.full.params == (0.5, 0.0, 1.0)


def test_optimizer_values_are_self_consistent():
    opt = optimize_three_user_two_channel()
    assert opt.full.value == pytest.approx(renewal_value(beta_theta_full(*opt.full.params)), abs=1e-12)
    assert opt.independent.value == pytest.approx(
        renewal_value(beta_theta_independent(*opt.independent.params)), abs=1e-12
    )


def test_simulate_two_user_matches_closed_form():
    for m in (1, 2, 3):
        s = simulate_two_user(m, episodes=60_000, seed=4)
        assert s.censored == 0
        assert abs(s.mean - float(two_user_capture_time(m))) < 4 * s.stderr, m


def test_simulate_two_user_skewed_distribution():
    q = [0.5, 0.25, 0.125, 0.125]
    s = simulate_two_user(2, episodes=60_000, seed=5, distribution=q)
    assert abs(s.mean - two_user_value(q)) < 4 * s.stderr


def test_simulate_three_user_family_matches_renewal():
    for params in [(0.5, 0.0, 1.0), (0.360882, 0.360882, 0.360882), (0.4, 0.3, 0.6)]:
        want = renewal_value(beta_theta_full(*params))
        s = simulate_three_user_two_channel(params, episodes=120_000, seed=6)
        assert s.censored == 0
        assert abs(s.mean - want) < 4 * s.stderr, params


def test_simulate_three_user_optimum_exact_value():
    s = simulate_three_user_two_channel((0.5, 0.0, 1.0), episodes=120_000, seed=7)
    assert abs(s.mean - 4 / 3) < 4 * s.stderr


def test_dispatcher_routes():
    s = simulate_multichannel(2, 3, episodes=20_000, seed=8)
    assert abs(s.mean - float(two_user_capture_time(3))) < 6 * s.stderr
    s = simulate_multichannel(3, 2, episodes=20_000, seed=8)
    assert abs(s.mean - 4 / 3) < 6 * s.stderr


def test_dispatcher_single_channel_is_plain_capture(capture_table):
    # one channel reduces to the splitting game
    s = simulate_multichannel(3, 1, episodes=60_000, seed=9, table=capture_table)
    direct = simulate_capture(GroupSplittingPolicy(capture_table), 3, episodes=60_000, seed=9)
    assert s.mean == direct.mean
    assert s.stderr == direct.stderr


def test_dispatcher_rejects_unsupported_combo():
    with pytest.raises(ValueError):
        simulate_multichannel(4, 2, episodes=100, seed=0)


def test_resolver_expected_values(capture_table):
    assert resolve_multichannel(2, 3)[1] == float(two_user_capture_time(3))
    q = [0.5, 0.25, 0.125, 0.125]
    assert resolve_multichannel(2, 2, distribution=q)[1] == two_user_value(q)
    assert resolve_multichannel(3, 2)[1] == renewal_value(beta_theta_full(*DEFAULT_THREE_USER_PARAMS))
    assert resolve_multichannel(3, 2)[1] == pytest.approx(4 / 3, abs=1e-15)
    assert resolve_multichannel(3, 2, params=(0.4, 0.3, 0.6))[1] == renewal_value(beta_theta_full(0.4, 0.3, 0.6))
    assert resolve_multichannel(3, 1, table=capture_table)[1] == capture_table.values[3]


@pytest.mark.parametrize(
    "users, channels, given",
    [
        (2, 2, {"params": (0.1, 0.2, 0.3)}),
        (2, 1, {"params": (0.5, 0.0, 1.0)}),
        (3, 1, {"params": (0.1, 0.2, 0.3)}),
        (3, 1, {"distribution": (0.5, 0.5)}),
        (3, 2, {"distribution": (0.25, 0.25, 0.25, 0.25)}),
    ],
)
def test_resolver_rejects_options_the_configuration_ignores(users, channels, given):
    # these used to be accepted and silently dropped
    (name,) = given
    with pytest.raises(ValueError, match=f"{name} does not apply"):
        resolve_multichannel(users, channels, **given)
    with pytest.raises(ValueError, match=f"{name} does not apply"):
        simulate_multichannel(users, channels, episodes=100, seed=0, **given)


@pytest.mark.parametrize("channels", [0, MAX_CHANNELS + 1, 40])
def test_two_users_reject_channel_counts_out_of_range(channels):
    # 30 channels used to die allocating 2^30 floats (8 GiB) for the subsets
    with pytest.raises(ValueError, match=f"channels <= {MAX_CHANNELS}, got {channels}"):
        resolve_multichannel(2, channels)
    with pytest.raises(ValueError, match=f"channels <= {MAX_CHANNELS}, got {channels}"):
        simulate_two_user(channels, episodes=10, seed=0)


def test_two_users_on_the_most_channels():
    s = simulate_two_user(MAX_CHANNELS, episodes=1000, seed=0)
    assert (s.completed, s.mean) == (1000, 1.0)


def test_resolver_looks_up_simulators_when_called(monkeypatch):
    # instrumentation wraps these module attributes after import
    from slotmac import multichannel

    calls = []
    for name in ("simulate_two_user", "simulate_three_user_two_channel"):
        monkeypatch.setattr(multichannel, name, lambda *a, name=name, **kw: calls.append(name))
    simulate_multichannel(2, 2, episodes=10, seed=0)
    simulate_multichannel(3, 2, episodes=10, seed=0)
    assert calls == ["simulate_two_user", "simulate_three_user_two_channel"]
