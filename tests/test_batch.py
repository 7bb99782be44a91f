"""The batch engine's single state table per machine: every builtin
pairing's draws pinned exactly, move-for-move agreement with the scalar
engine on random override machines, the int16 limit on state ids and the
failure on a hand-built table with a reachable undefined move.  A player
draws only while some game has it outside its closed states (whose whole
future plays probability 0 or 1), and games with both players closed are
parked and finished by binary lifting over their joint chain; the results
still equal those of a full draw for every player, those of the scalar
engine game by game and those of the slot-by-slot loop the engine used
before it parked games, and the chain that of a plain breadth-first search."""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slotmac.batch as batch_module
from slotmac import StateSpec, StrategyMachine, play_game, run_games, run_games_with_uniforms
from slotmac.batch import CHUNK_SIZE, compile_machine
from slotmac.rng import DOMAIN_GAME
from slotmac.strategies import BUILTIN_NAMES, builtin

from conftest import (
    ReplayStream,
    fixed_point_closed,
    full_draw_run_games,
    random_machine,
    slot_by_slot_games,
)

# (a, b) -> sha256(scores_a || scores_b || first_success)[:20] of
# run_games(a, b, 9, 3000, seed=2024, pairing=(i, j)), i and j the indices
# in BUILTIN_NAMES.  Recorded while the override shadow was still a separate
# pass beside the slot loop; any change to a draw, its order or a move
# shows up here.
PINNED_BUILTINS = {
    ("never", "never"): "d7967a6f7d2dd3204ed7",
    ("never", "always"): "114448ceab3f2693a8ff",
    ("never", "tft0"): "d7967a6f7d2dd3204ed7",
    ("never", "tft1"): "4ad7b4c0a0c02fca1a42",
    ("never", "three_state"): "72928dfae85bb232c261",
    ("never", "four_state"): "ae8d4321f295df1dcd22",
    ("never", "four_state_enhanced"): "108ae1d28a9da3ababa6",
    ("always", "never"): "102abf4b9ef9daa17c77",
    ("always", "always"): "d7967a6f7d2dd3204ed7",
    ("always", "tft0"): "2d982e5fa10156aa191b",
    ("always", "tft1"): "d7967a6f7d2dd3204ed7",
    ("always", "three_state"): "b8ea6b183fd7d79e78ab",
    ("always", "four_state"): "659d099d80548c4c8fc9",
    ("always", "four_state_enhanced"): "4e26857300a0fccf4d93",
    ("tft0", "never"): "d7967a6f7d2dd3204ed7",
    ("tft0", "always"): "4ad7b4c0a0c02fca1a42",
    ("tft0", "tft0"): "d7967a6f7d2dd3204ed7",
    ("tft0", "tft1"): "f89465edb2f8149a49d2",
    ("tft0", "three_state"): "6a963f9ad49678dd9478",
    ("tft0", "four_state"): "d993c4e9454f0ec8d2fc",
    ("tft0", "four_state_enhanced"): "1c53bcf3cb2fde7e00fb",
    ("tft1", "never"): "2d982e5fa10156aa191b",
    ("tft1", "always"): "d7967a6f7d2dd3204ed7",
    ("tft1", "tft0"): "54e700a6a3ea922dd3b4",
    ("tft1", "tft1"): "d7967a6f7d2dd3204ed7",
    ("tft1", "three_state"): "8a4ce5351319f7c66e85",
    ("tft1", "four_state"): "4fc08d8d17f8db99f573",
    ("tft1", "four_state_enhanced"): "821a0c351fb31b442783",
    ("three_state", "never"): "0a7d54ab0208da1342ac",
    ("three_state", "always"): "2d523e72f10361769ef6",
    ("three_state", "tft0"): "8fb2233d25cf50f73cae",
    ("three_state", "tft1"): "57e6f4a81c145f35cc55",
    ("three_state", "three_state"): "629596965b80bfaeec00",
    ("three_state", "four_state"): "e41ab15c69bb24bdc00e",
    ("three_state", "four_state_enhanced"): "a25d4aaa2b1eea28d99f",
    ("four_state", "never"): "933958731281a5556fbf",
    ("four_state", "always"): "2c392a087dfcc0f87b7c",
    ("four_state", "tft0"): "c383c97284fb482db0eb",
    ("four_state", "tft1"): "4cc90050458bd636fbc6",
    ("four_state", "three_state"): "5a619fad3af2c1c50a81",
    ("four_state", "four_state"): "eaa02b8380856cea2952",
    ("four_state", "four_state_enhanced"): "4d9486b96858439631eb",
    ("four_state_enhanced", "never"): "47ac477f272545e4733d",
    ("four_state_enhanced", "always"): "bd73ed6682f52787ec81",
    ("four_state_enhanced", "tft0"): "fe427bd4698261da8ce1",
    ("four_state_enhanced", "tft1"): "37f512124500f8dc3919",
    ("four_state_enhanced", "three_state"): "7b550c0cd2dd4f2f65db",
    ("four_state_enhanced", "four_state"): "53d526db812b0552baf7",
    ("four_state_enhanced", "four_state_enhanced"): "bc06aa52b5228d2bdb7b",
}

# seed -> the same digest of run_games(ma, mb, 12, 3000, seed=2024,
# pairing=(seed, 99)), where ma (override on) and mb (override on for odd
# seeds) come from random_machine(default_rng(seed)); in every one the
# override changes some scores, and ma starts in a state other than its
# first declared one
PINNED_RANDOM = {
    0: "742f3d8b66970fe02086",
    1: "1557ed190ab9b24b3177",
    2: "459f912d76ba5295efc1",
    3: "c421f4010bb314eea010",
}


# the same digest of run_games(four_state_enhanced, tft1, 7, CHUNK_SIZE + 5,
# seed=2024, pairing=(6, 3)): the second chunk has its own streams
PINNED_TWO_CHUNKS = "9888b8659f2c6c518a8a"

# (a, b) -> the same digest of run_games(a, b, 100, 16384, seed=2024,
# pairing=(i, j)) for i <= j, the tournament benchmark's shape, recorded
# with the slot-by-slot engine before games were parked
PINNED_BENCH_SHAPE = {
    ("never", "never"): "3381de4ca9f3a477f259",
    ("never", "always"): "3e78d13ef6d36d7ff3d9",
    ("never", "tft0"): "3381de4ca9f3a477f259",
    ("never", "tft1"): "d4b00ed047a5dfb258f0",
    ("never", "three_state"): "28240c33d9fcfddfda28",
    ("never", "four_state"): "434eb6036c9a67a803a2",
    ("never", "four_state_enhanced"): "0c8414af461f462faa0a",
    ("always", "always"): "3381de4ca9f3a477f259",
    ("always", "tft0"): "f15da58b8802b3edf4ca",
    ("always", "tft1"): "3381de4ca9f3a477f259",
    ("always", "three_state"): "4924f1f16fd7537dbcd0",
    ("always", "four_state"): "e0fc8be5215be8abee65",
    ("always", "four_state_enhanced"): "1c369bf49557dc8d7ec5",
    ("tft0", "tft0"): "3381de4ca9f3a477f259",
    ("tft0", "tft1"): "ab9b665b64cf9839cb7e",
    ("tft0", "three_state"): "7bd6a9b36fbbd68f330d",
    ("tft0", "four_state"): "05e7bf3aa2c0385b6f94",
    ("tft0", "four_state_enhanced"): "bb81df486fd477b51fa8",
    ("tft1", "tft1"): "3381de4ca9f3a477f259",
    ("tft1", "three_state"): "886244ad1ceb975d6536",
    ("tft1", "four_state"): "61854f2686f8b774e905",
    ("tft1", "four_state_enhanced"): "f08970c217b226855a64",
    ("three_state", "three_state"): "199f739d1423dd42e910",
    ("three_state", "four_state"): "2086c3ddc7a37b4c2a88",
    ("three_state", "four_state_enhanced"): "fc1dce7b04bfea74b0ca",
    ("four_state", "four_state"): "b3c5e1833498c2bfeaa6",
    ("four_state", "four_state_enhanced"): "84d9c46504b1f82556ec",
    ("four_state_enhanced", "four_state_enhanced"): "f850c1649be404f159f7",
}

# (a, b) -> the same digest of run_games(a, b, 1000, CHUNK_SIZE + 5,
# seed=2024, pairing=(i, j)), recorded with the slot-by-slot engine
PINNED_LONG = {
    ("four_state", "four_state"): "bc7134d6582e2c960d4f",
    ("four_state_enhanced", "three_state"): "6084dcc9f5d1a5e6cc8e",
    ("tft0", "tft1"): "c35a4dd88838f5fa83cf",
    ("three_state", "never"): "7a5334b24dd201809761",
    ("always", "four_state_enhanced"): "fb02582198c6549e09b2",
}

# (a, b) -> the same digest of run_games(a, b, 1, 3000, seed=2024,
# pairing=(i, j)): only the final slot is played, with no transition after it
PINNED_HORIZON_ONE = {
    ("never", "never"): "d7967a6f7d2dd3204ed7",
    ("never", "always"): "4ad7b4c0a0c02fca1a42",
    ("always", "never"): "2d982e5fa10156aa191b",
    ("always", "always"): "d7967a6f7d2dd3204ed7",
    ("four_state", "four_state_enhanced"): "255659d3e7e82e79a6db",
    ("four_state_enhanced", "four_state"): "a9c88b8cdd6a63ffd31f",
}


def _digest(batch) -> str:
    h = hashlib.sha256()
    for arr in (batch.scores_a, batch.scores_b, batch.first_success):
        h.update(arr.tobytes())
    return h.hexdigest()[:20]


@pytest.mark.parametrize("a, b", sorted(PINNED_BUILTINS))
def test_builtin_pairing_draws_pinned(a, b):
    pairing = (BUILTIN_NAMES.index(a), BUILTIN_NAMES.index(b))
    batch = run_games(builtin(a), builtin(b), 9, 3000, seed=2024, pairing=pairing)
    assert _digest(batch) == PINNED_BUILTINS[(a, b)]


def test_two_chunk_draws_pinned():
    batch = run_games(builtin("four_state_enhanced"), builtin("tft1"), 7, CHUNK_SIZE + 5, seed=2024, pairing=(6, 3))
    assert _digest(batch) == PINNED_TWO_CHUNKS


@pytest.mark.parametrize("a, b", sorted(PINNED_HORIZON_ONE))
def test_horizon_one_draws_pinned(a, b):
    pairing = (BUILTIN_NAMES.index(a), BUILTIN_NAMES.index(b))
    batch = run_games(builtin(a), builtin(b), 1, 3000, seed=2024, pairing=pairing)
    assert _digest(batch) == PINNED_HORIZON_ONE[(a, b)]


@pytest.mark.parametrize("a, b", sorted(PINNED_BENCH_SHAPE))
def test_bench_shape_draws_pinned(a, b):
    pairing = (BUILTIN_NAMES.index(a), BUILTIN_NAMES.index(b))
    batch = run_games(builtin(a), builtin(b), 100, 16_384, seed=2024, pairing=pairing)
    assert _digest(batch) == PINNED_BENCH_SHAPE[(a, b)]


@pytest.mark.parametrize("a, b", sorted(PINNED_LONG))
def test_long_two_chunk_draws_pinned(a, b):
    pairing = (BUILTIN_NAMES.index(a), BUILTIN_NAMES.index(b))
    batch = run_games(builtin(a), builtin(b), 1000, CHUNK_SIZE + 5, seed=2024, pairing=pairing)
    assert _digest(batch) == PINNED_LONG[(a, b)]


@pytest.mark.parametrize("seed", sorted(PINNED_RANDOM))
def test_random_override_pairing_draws_pinned(seed):
    rng = np.random.default_rng(seed)
    ma = random_machine(rng, override=True)
    mb = random_machine(rng, override=seed % 2 == 1)
    batch = run_games(ma, mb, 12, 3000, seed=2024, pairing=(seed, 99))
    assert _digest(batch) == PINNED_RANDOM[seed]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 12),
    sides=st.sampled_from(["a", "b", "both"]),
)
def test_batch_matches_scalar_with_override(seed, horizon, sides):
    rng = np.random.default_rng(seed)
    ma = random_machine(rng, override=sides != "b")
    mb = random_machine(rng, override=sides != "a")
    ua = rng.random((8, horizon))
    ub = rng.random((8, horizon))
    batch = run_games_with_uniforms(ma, mb, ua, ub)
    for g in range(len(ua)):
        t = play_game(ma, mb, horizon, ReplayStream(ua[g]), ReplayStream(ub[g]))
        assert t.scores == (batch.scores_a[g], batch.scores_b[g]), g
        assert batch.first_success[g] == (t.first_success or 0), g


def _rotated(machine: StrategyMachine, k: int) -> StrategyMachine:
    # the same machine with its states declared from the k-th one on, so it
    # no longer starts in its first declared state
    items = list(machine.states.items())
    states = dict(items[k:] + items[:k])
    return StrategyMachine(machine.name, machine.start, states, machine.last_slot_override)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("opponent", BUILTIN_NAMES)
def test_override_start_is_not_the_first_declared_state(k, opponent):
    # declaration order is not behaviour: the rotated machine reproduces the
    # draws pinned for four_state_enhanced from either seat
    enhanced = builtin("four_state_enhanced")
    rotated = _rotated(enhanced, k)
    assert next(iter(rotated.states)) != rotated.start
    i, j = BUILTIN_NAMES.index("four_state_enhanced"), BUILTIN_NAMES.index(opponent)
    as_a = run_games(rotated, builtin(opponent), 9, 3000, seed=2024, pairing=(i, j))
    as_b = run_games(builtin(opponent), rotated, 9, 3000, seed=2024, pairing=(j, i))
    assert _digest(as_a) == PINNED_BUILTINS[("four_state_enhanced", opponent)]
    assert _digest(as_b) == PINNED_BUILTINS[(opponent, "four_state_enhanced")]


def test_rotated_override_machine_matches_scalar_in_self_play():
    # a copy of itself is never foreign, so no game ends in a last-slot grab
    rng = np.random.default_rng(5)
    rotated = _rotated(builtin("four_state_enhanced"), 2)
    plain = StrategyMachine("four_state", rotated.start, rotated.states)
    ua, ub = rng.random((64, 10)), rng.random((64, 10))
    batch = run_games_with_uniforms(rotated, rotated, ua, ub)
    reference = run_games_with_uniforms(plain, plain, ua, ub)
    for g in range(len(ua)):
        t = play_game(rotated, rotated, 10, ReplayStream(ua[g]), ReplayStream(ub[g]))
        assert t.scores == (batch.scores_a[g], batch.scores_b[g]), g
    assert (batch.scores_a == reference.scores_a).all()
    assert (batch.scores_b == reference.scores_b).all()


def _cycle(n_states: int, override: bool) -> StrategyMachine:
    # a coin flip in every state, every move leading to the next state
    ids = [f"s{i}" for i in range(n_states)]
    states = {
        sid: StateSpec(0.5, dict.fromkeys([(0, 0), (0, 1), (1, 1), (1, 2)], ids[(i + 1) % n_states]))
        for i, sid in enumerate(ids)
    }
    return StrategyMachine("cycle", ids[0], states, last_slot_override=override)


def test_override_table_fits_int16_at_180_states():
    # 180 * 181 = 32,580 (own, shadow) states: the largest that fits
    compiled = compile_machine(_cycle(180, override=True))
    assert compiled.trans.shape == (180 * 181, 2, 3)
    assert compiled.trans.max() == 180 * 181 - 1
    assert compiled.trans.min() >= -1


@pytest.mark.parametrize("n_states, override", [(181, True), (32_769, False)])
def test_tables_past_int16_rejected(n_states, override):
    # numpy 1.x would wrap such ids silently instead of raising
    with pytest.raises(ValueError, match="int16"):
        compile_machine(_cycle(n_states, override))


def _broken_four_state():
    # a hand-built table whose idle-and-hear-nothing move from the start
    # state leads nowhere; compile_machine's validation never sees it
    compiled = compile_machine(builtin("four_state"))
    trans = compiled.trans.copy()
    trans[compiled.start, 0, 0] = -1
    return dataclasses.replace(compiled, trans=trans)


@pytest.mark.parametrize("seat", ["a", "b"])
def test_reachable_undefined_transition_raises(seat):
    # both idle on slot 1 in about a quarter of the games
    broken, other = _broken_four_state(), builtin("four_state")
    pair = (broken, other) if seat == "a" else (other, broken)
    with pytest.raises(ValueError, match="no transition"):
        run_games(*pair, 2, 200, seed=0)
    idle = np.full((1, 2), 0.9)
    with pytest.raises(ValueError, match="no transition"):
        run_games_with_uniforms(*pair, idle, idle)


def test_unreached_undefined_transition_plays():
    broken, other = _broken_four_state(), builtin("four_state")
    reference = run_games_with_uniforms(other, other, [[0.1, 0.9]], [[0.9, 0.9]])
    batch = run_games_with_uniforms(broken, other, [[0.1, 0.9]], [[0.9, 0.9]])
    assert (batch.scores_a, batch.scores_b) == (reference.scores_a, reference.scores_b)
    # the undefined move on the final slot is never followed
    batch = run_games_with_uniforms(broken, other, [[0.9]], [[0.9]])
    assert batch.scores_a[0] == batch.scores_b[0] == batch.first_success[0] == 0


def test_override_with_undefined_move_on_the_final_slot_plays():
    # never with the override: tft1's opening transmit exposes it as
    # foreign, so on the final slot it transmits from a state that defines
    # no transmit transition
    grab = StrategyMachine("grab", "off", builtin("never").states, last_slot_override=True)
    assert (compile_machine(grab).trans[:, 1] == -1).all()
    batch = run_games(grab, builtin("tft1"), 5, 100, seed=1)
    assert (batch.scores_a == 1).all() and (batch.scores_b == 1).all()
    assert (batch.first_success == 1).all()
    ua = ub = np.full((1, 5), 0.5)
    t = play_game(grab, builtin("tft1"), 5, ReplayStream(ua[0]), ReplayStream(ub[0]))
    batch = run_games_with_uniforms(grab, builtin("tft1"), ua, ub)
    assert t.scores == (batch.scores_a[0], batch.scores_b[0]) == (1, 1)


def test_horizon_past_int32_rejected():
    with pytest.raises(ValueError, match="horizon"):
        run_games(builtin("never"), builtin("never"), 2**31, 1, seed=0)


DETERMINISTIC = ("never", "always", "tft0", "tft1")


@pytest.mark.parametrize("a", BUILTIN_NAMES)
@pytest.mark.parametrize("b", BUILTIN_NAMES)
def test_skipped_draws_change_no_game(a, b):
    # two chunks, so the second chunk's streams are checked too
    pairing = (BUILTIN_NAMES.index(a), BUILTIN_NAMES.index(b))
    args = (builtin(a), builtin(b), 7, CHUNK_SIZE + 5)
    got = run_games(*args, seed=31, pairing=pairing)
    assert _digest(got) == _digest(full_draw_run_games(*args, seed=31, pairing=pairing))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 12),
    runs=st.integers(0, 40),
    fixed=st.sampled_from(["a", "b", "both"]),
    override=st.sampled_from(["", "a", "b", "both"]),
)
def test_skipped_draws_change_no_game_on_random_machines(seed, horizon, runs, fixed, override):
    rng = np.random.default_rng(seed)
    ma = random_machine(rng, deterministic=fixed != "b", override=override in ("a", "both"))
    mb = random_machine(rng, deterministic=fixed != "a", override=override in ("b", "both"))
    got = run_games(ma, mb, horizon, runs, seed=seed, pairing=(3, 4))
    assert _digest(got) == _digest(full_draw_run_games(ma, mb, horizon, runs, seed=seed, pairing=(3, 4)))


@pytest.mark.parametrize("seat", ["a", "b"])
def test_deterministic_pairing_with_reachable_undefined_transition_raises(seat):
    # never idles and hears nothing on slot 1 of every game, and the broken
    # table has no successor for that move
    compiled = compile_machine(builtin("never"))
    trans = compiled.trans.copy()
    trans[compiled.start, 0, 0] = -1
    broken = dataclasses.replace(compiled, trans=trans)
    pair = (broken, builtin("never")) if seat == "a" else (builtin("never"), broken)
    with pytest.raises(ValueError, match="no transition"):
        run_games(*pair, 2, 200, seed=0)
    assert run_games(*pair, 2, 0, seed=0).scores_a.shape == (0,)  # no game, no move
    # on the final slot the move is never followed
    assert (run_games(*pair, 1, 200, seed=0).scores_a == 0).all()


@pytest.fixture
def streams(monkeypatch):
    """The id of every stream run_games builds a generator for, in order."""
    built = []

    class CountingStream(batch_module.RngStream):
        def generator(self):
            built.append(self.stream)
            return super().generator()

    monkeypatch.setattr(batch_module, "RngStream", CountingStream)
    return built


@pytest.mark.parametrize("fixed", DETERMINISTIC)
def test_deterministic_player_gets_no_stream(fixed, streams):
    i, j = BUILTIN_NAMES.index(fixed), BUILTIN_NAMES.index("four_state")
    run_games(builtin(fixed), builtin("four_state"), 5, CHUNK_SIZE + 5, seed=3, pairing=(i, j))
    run_games(builtin("four_state"), builtin(fixed), 5, CHUNK_SIZE + 5, seed=3, pairing=(j, i))
    assert streams == [
        (DOMAIN_GAME, i, j, 0, 1), (DOMAIN_GAME, i, j, 1, 1),
        (DOMAIN_GAME, j, i, 0, 0), (DOMAIN_GAME, j, i, 1, 0),
    ]


def test_deterministic_pairing_builds_no_stream(streams):
    # the final-slot grab keeps never deterministic: its foreign states
    # transmit with probability 1
    grab = StrategyMachine("grab", "off", builtin("never").states, last_slot_override=True)
    for a in DETERMINISTIC + (grab,):
        for b in DETERMINISTIC + (grab,):
            ma, mb = (builtin(m) if isinstance(m, str) else m for m in (a, b))
            out = run_games(ma, mb, 9, CHUNK_SIZE + 5, seed=3)
            assert out.scores_a.shape == (CHUNK_SIZE + 5,) and out.scores_a.dtype == np.int32
    assert streams == []


@pytest.mark.parametrize("a, b", [("tft0", "tft1"), ("tft0", "four_state"), ("four_state", "four_state")])
def test_no_runs_gives_empty_arrays(a, b, streams):
    out = run_games(builtin(a), builtin(b), 5, 0, seed=3)
    for arr in (out.scores_a, out.scores_b, out.first_success):
        assert arr.shape == (0,) and arr.dtype == np.int32
    assert streams == []


@pytest.mark.parametrize("field", ["probs", "last_probs"])
@pytest.mark.parametrize("near", [np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)])
def test_probability_next_to_0_or_1_still_draws(field, near, streams):
    # 1 - 2**-53 idles on a draw of 1 - 2**-53, and 2**-1074 transmits on
    # a draw of 0: only exactly 0 and 1 ignore the uniform
    compiled = compile_machine(_cycle(1, override=False))  # every move defined
    fixed = np.full_like(compiled.probs, round(near))
    table = dataclasses.replace(compiled, probs=fixed, last_probs=fixed)
    run_games(table, builtin("tft0"), 3, 10, seed=3)
    assert streams == []
    run_games(dataclasses.replace(table, **{field: np.full_like(fixed, near)}), builtin("tft0"), 3, 10, seed=3)
    assert streams == [(DOMAIN_GAME, 0, 0, 0, 0)]


# parking: once every game has a player in states whose whole future plays
# probability 0 or 1, that player stops drawing, and once the games with
# both players closed are half the live ones they are parked and finished
# by binary lifting over their joint states

BENCH_PAIRS = [(a, b) for i, a in enumerate(BUILTIN_NAMES) for b in BUILTIN_NAMES[i:]]


@pytest.mark.parametrize("a, b", BENCH_PAIRS)
def test_fast_forward_changes_no_game(a, b):
    # the 65,536-game chunk closes late, the 5-game chunk early
    pairing = (BUILTIN_NAMES.index(a), BUILTIN_NAMES.index(b))
    args = (builtin(a), builtin(b), 40, CHUNK_SIZE + 5)
    got = run_games(*args, seed=13, pairing=pairing)
    assert _digest(got) == _digest(full_draw_run_games(*args, seed=13, pairing=pairing))


def _coin_head_machine(rng, override: bool) -> StrategyMachine:
    # coin states that may move anywhere, then deterministic states that
    # only move among themselves; the start is a coin state
    head, tail = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    ids = [str(i) for i in range(head + tail)]
    states = {}
    for i, sid in enumerate(ids):
        p = float(np.round(rng.uniform(0.05, 0.95), 3)) if i < head else float(rng.integers(0, 2))
        targets = ids if i < head else ids[head:]
        actions = [a for a, possible in ((1, p > 0), (0, p < 1)) if possible]
        states[sid] = StateSpec(p, {(a, f): targets[int(rng.integers(len(targets)))] for a in actions for f in (a, a + 1)})
    return StrategyMachine("head", ids[0], states, last_slot_override=override)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 60),
    override=st.sampled_from(["", "a", "b", "both"]),
)
def test_fast_forward_matches_scalar_on_coin_heads(seed, horizon, override):
    rng = np.random.default_rng(seed)
    ma = _coin_head_machine(rng, override in ("a", "both"))
    mb = _coin_head_machine(rng, override in ("b", "both"))
    ua, ub = rng.random((12, horizon)), rng.random((12, horizon))
    batch = run_games_with_uniforms(ma, mb, ua, ub)
    for g in range(len(ua)):
        t = play_game(ma, mb, horizon, ReplayStream(ua[g]), ReplayStream(ub[g]))
        assert t.scores == (batch.scores_a[g], batch.scores_b[g]), g
        assert batch.first_success[g] == (t.first_success or 0), g


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), override=st.booleans())
def test_closed_states_are_those_that_reach_no_coin(seed, override):
    compiled = compile_machine(random_machine(np.random.default_rng(seed), override=override))
    coin = {s for s in range(len(compiled.probs)) if {compiled.probs[s], compiled.last_probs[s]} - {0.0, 1.0}}
    closed = batch_module._tables(compiled, batch_module._MOVES)[3][::4]
    for s in range(len(compiled.probs)):
        seen, todo = {s}, [s]
        while todo:
            for nxt in compiled.trans[todo.pop()].ravel():
                if nxt >= 0 and int(nxt) not in seen:
                    seen.add(int(nxt))
                    todo.append(int(nxt))
        assert closed[s] == (not seen & coin), s


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), override=st.booleans(), kind=st.sampled_from(["any", "deterministic", "half"]))
def test_closed_states_match_the_fixed_point(seed, override, kind):
    machine = random_machine(np.random.default_rng(seed), deterministic=kind == "deterministic",
                             half=kind == "half", override=override)
    compiled = compile_machine(machine)
    for moves in (batch_module._MOVES, batch_module._MOVES_B):
        closed = batch_module._tables(compiled, moves)[3]
        assert np.array_equal(closed, np.repeat(fixed_point_closed(compiled, moves), 4))


def _idle_chain(n: int, coin: int) -> batch_module.CompiledMachine:
    # state s idles into s + 1 and the last state into itself; state coin
    # transmits with probability 1/2 and moves on whatever it does
    probs = np.zeros(n)
    probs[coin] = 0.5
    trans = np.full((n, 2, 3), -1, dtype=np.int16)
    nxt = np.minimum(np.arange(1, n + 1), n - 1)
    trans[:, 0, 0] = trans[:, 0, 1] = nxt
    trans[coin, 1, 1] = trans[coin, 1, 2] = nxt[coin]
    return batch_module.CompiledMachine(probs, probs, trans, 0)


@pytest.mark.parametrize("n, coin", [(2_000, 1_999), (2_000, 700), (32_000, 31_999), (32_000, 16_000)])
def test_closed_states_of_long_idle_chains(n, coin):
    # the fixed point took one numpy pass per state of the chain, 5 s per
    # call at 32,000 states; only the states past the coin are closed
    chain = _idle_chain(n, coin)
    closed = batch_module._tables(chain, batch_module._MOVES)[3][::4]
    assert np.array_equal(closed, np.arange(n) > coin)
    if n <= 2_000:
        assert np.array_equal(closed, fixed_point_closed(chain))
    got = run_games(chain, builtin("never"), 5, 10, seed=1)
    assert got.scores_a.sum() == got.scores_b.sum() == 0


@pytest.fixture
def draws(monkeypatch):
    """How many times each stream run_games builds is drawn from."""
    counts = {}

    class CountingStream(batch_module.RngStream):
        def generator(self):
            gen, stream = super().generator(), self.stream
            counts[stream] = 0

            class Counting:
                def random(self, size):
                    counts[stream] += 1
                    return gen.random(size)

            return Counting()

    monkeypatch.setattr(batch_module, "RngStream", CountingStream)
    return counts


def test_closed_player_stops_drawing(draws):
    # four_state leaves its coin state for good on its first solo success
    i, j = BUILTIN_NAMES.index("four_state"), BUILTIN_NAMES.index("never")
    args = (builtin("four_state"), builtin("never"), 100, CHUNK_SIZE + 5)
    got = run_games(*args, seed=3, pairing=(i, j))
    assert sorted(draws) == [(DOMAIN_GAME, i, j, 0, 0), (DOMAIN_GAME, i, j, 1, 0)]
    assert all(0 < count < 100 for count in draws.values()), draws
    assert _digest(got) == _digest(full_draw_run_games(*args, seed=3, pairing=(i, j)))


def test_undefined_transition_reached_only_after_the_switch():
    # one game: four_state idles 5 slots, wins slot 6 and so reaches state
    # 2 (closed) and then state 4, whose solo transmit on slot 8 leads nowhere
    four = builtin("four_state")
    compiled = compile_machine(four)
    trans = compiled.trans.copy()
    trans[list(four.states).index("4"), 1, 1] = -1
    broken = dataclasses.replace(compiled, trans=trans)
    ua = np.array([[0.9] * 5 + [0.1] + [0.5] * 3])
    ub = np.full_like(ua, 0.5)
    with pytest.raises(ValueError, match="no transition"):
        run_games_with_uniforms(broken, builtin("never"), ua, ub)
    # on the final slot the move is never followed
    batch = run_games_with_uniforms(broken, builtin("never"), ua[:, :8], ub[:, :8])
    reference = run_games_with_uniforms(four, builtin("never"), ua[:, :8], ub[:, :8])
    assert (batch.scores_a[0], batch.first_success[0]) == (reference.scores_a[0], reference.first_success[0]) == (2, 6)


def test_undefined_transition_followed_as_the_other_player_closes():
    # four_state wins slot 1 and is closed from slot 2 on; never hears that
    # win on a move its broken table leaves undefined, so the switch finds
    # never already past the end of its table
    compiled = compile_machine(builtin("never"))
    trans = compiled.trans.copy()
    trans[compiled.start, 0, 1] = -1
    broken = dataclasses.replace(compiled, trans=trans)
    with pytest.raises(ValueError, match="no transition"):
        run_games_with_uniforms(builtin("four_state"), broken, [[0.1, 0.5]], [[0.5, 0.5]])
    assert run_games_with_uniforms(builtin("four_state"), broken, [[0.1]], [[0.5]]).scores_a[0] == 1


def test_negative_seed_rejected_once_a_stream_is_built():
    with pytest.raises(ValueError, match="seed -1"):
        run_games(builtin("four_state"), builtin("never"), 5, 10, seed=-1)


def _holed(rng, machine) -> batch_module.CompiledMachine:
    # the compiled table with up to three possible moves made undefined
    compiled = compile_machine(machine)
    trans = compiled.trans.copy()
    for _ in range(int(rng.integers(0, 4))):
        action = int(rng.integers(2))
        trans[int(rng.integers(len(trans))), action, action + int(rng.integers(2))] = -1
    return dataclasses.replace(compiled, trans=trans)


def _outcome(engine, ma, mb, ua, ub):
    try:
        batch = engine(ma, mb, ua, ub)
    except ValueError:
        return "raises"
    return batch.scores_a.tolist(), batch.scores_b.tolist(), batch.first_success.tolist()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 300),
    games=st.integers(1, 40),
    kinds=st.tuples(*[st.sampled_from(["any", "deterministic", "half", "coin head"])] * 2),
    override=st.sampled_from(["", "a", "b", "both"]),
    holes=st.sampled_from(["", "a", "b", "both"]),
)
def test_parking_matches_the_slot_by_slot_engine(seed, horizon, games, kinds, override, holes):
    rng = np.random.default_rng(seed)
    machines = []
    for side, kind in zip("ab", kinds):
        on = override in (side, "both")
        machine = (_coin_head_machine(rng, on) if kind == "coin head" else
                   random_machine(rng, deterministic=kind == "deterministic", half=kind == "half", override=on))
        machines.append(_holed(rng, machine) if holes in (side, "both") else machine)
    ua, ub = rng.random((games, horizon)), rng.random((games, horizon))
    expected = _outcome(slot_by_slot_games, *machines, ua, ub)
    assert _outcome(run_games_with_uniforms, *machines, ua, ub) == expected
    if kinds[0] == kinds[1] and override in ("", "both") and holes in ("", "both"):
        # self-play on one table
        assert _outcome(run_games_with_uniforms, machines[0], machines[0], ua, ub) == _outcome(
            slot_by_slot_games, machines[0], machines[0], ua, ub)


@pytest.mark.parametrize("a, b, runs", [("always", "never", 100), ("tft0", "tft1", 16_384)])
def test_deterministic_pairing_at_the_int32_horizon(a, b, runs):
    # the closed tail takes 31 doubling steps, not 2**31 - 1 slots
    horizon = 2**31 - 1
    start = time.perf_counter()
    batch = run_games(builtin(a), builtin(b), horizon, runs, seed=5)
    assert time.perf_counter() - start < 1.0
    for arr in (batch.scores_a, batch.scores_b, batch.first_success):
        assert arr.dtype == np.int32 and arr.shape == (runs,)
    expected = (horizon, 0) if a == "always" else (horizon // 2, horizon // 2 + 1)  # tft1 sends first
    assert (batch.scores_a == expected[0]).all() and (batch.scores_b == expected[1]).all()
    assert (batch.first_success == 1).all()


@pytest.fixture
def searches(monkeypatch):
    """The compiled table of every closed-state search ``_tables`` makes."""
    searched = []
    original = batch_module._tables

    def counting(m, moves, closed=None):
        if closed is None:
            searched.append(m)
        return original(m, moves, closed)

    monkeypatch.setattr(batch_module, "_tables", counting)
    return searched


def test_self_play_searches_closed_states_once(searches):
    four = compile_machine(builtin("four_state"))
    run_games(four, four, 9, 100, seed=1)
    run_games_with_uniforms(four, four, [[0.5] * 9], [[0.5] * 9])
    assert searches == [four, four]
    # a replaced table is a new table, searched for itself: the coin cycle
    # has no closed state, its idle copy only closed ones
    coins = compile_machine(_cycle(3, override=False))
    idle = dataclasses.replace(coins, probs=np.zeros_like(coins.probs), last_probs=np.zeros_like(coins.probs))
    searches.clear()
    run_games(coins, coins, 9, 100, seed=1)
    got = run_games(idle, idle, 9, 100, seed=1)
    assert searches == [coins, idle]
    assert not batch_module._tables(coins, batch_module._MOVES)[3].any()
    assert batch_module._tables(idle, batch_module._MOVES)[3].all()
    assert not (got.scores_a.any() or got.scores_b.any() or got.first_success.any())


def _transmit_chain(n: int) -> batch_module.CompiledMachine:
    # a deterministic walk through n states, transmitting in every third,
    # whatever the moves; the last state repeats itself
    probs = (np.arange(n) % 3 == 0).astype(float)
    trans = np.repeat(np.minimum(np.arange(1, n + 1), n - 1), 6).reshape(n, 2, 3).astype(np.int16)
    return batch_module.CompiledMachine(probs, probs, trans, 0)


@pytest.mark.parametrize("horizon", range(1, 20))
def test_search_reaches_as_deep_as_the_tail(horizon):
    # parked on slot 1, every game walks one chain of joint states; while
    # the chain still moves at the horizon, the search must reach exactly
    # as deep as the tail, and one state short leaves the final move wrong
    rng = np.random.default_rng(horizon)
    ua, ub = rng.random((3, horizon)), rng.random((3, horizon))
    for ma, mb in ((_transmit_chain(16), builtin("never")), (_transmit_chain(16), _transmit_chain(11))):
        assert _outcome(run_games_with_uniforms, ma, mb, ua, ub) == _outcome(slot_by_slot_games, ma, mb, ua, ub)


def _plain_chain(a, b, roots, depth):
    # the joint chain by a plain breadth-first search over the compiled
    # tables: level d holds the states first reached after d transitions
    def moves(sa, sb, pa, pb):
        if sa < 0 or sb < 0:
            return set()
        return {(xa, xb, (int(a.trans[sa, xa, xa + xb]), int(b.trans[sb, xb, xa + xb])))
                for xa in (0, 1) for xb in (0, 1)
                if (pa[sa] if xa else 1 - pa[sa]) > 0 and (pb[sb] if xb else 1 - pb[sb]) > 0}

    chain, level = {}, set(roots)
    for _ in range(depth + 1):
        for state in level:
            chain[state] = moves(*state, a.probs, b.probs), moves(*state, a.last_probs, b.last_probs)
        level = {s for state in level for _, _, s in chain[state][0]} - set(chain)
    return chain


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 12),
    kinds=st.tuples(*[st.sampled_from(["any", "deterministic", "half", "coin head"])] * 2),
    override=st.sampled_from(["", "a", "b", "both"]),
    holes=st.sampled_from(["", "a", "b", "both"]),
    self_play=st.booleans(),
)
def test_joint_chain_matches_a_plain_search(seed, horizon, kinds, override, holes, self_play):
    rng = np.random.default_rng(seed)
    machines = []
    for side, kind in zip("ab", kinds):
        on = override in (side, "both")
        machine = (_coin_head_machine(rng, on) if kind == "coin head" else
                   random_machine(rng, deterministic=kind == "deterministic", half=kind == "half", override=on))
        machines.append(_holed(rng, machine) if holes in (side, "both") else compile_machine(machine))
    a, b = (machines[0], machines[0]) if self_play else machines
    # roots over every state id of each seat, -1 (undefined) included
    roots = [(int(rng.integers(-1, len(a.probs))), int(rng.integers(-1, len(b.probs)))) for _ in range(3)]
    for depth in range(horizon + 1):
        got = batch_module._joint_chain(a, b, roots, depth)
        assert {s: tuple(map(set, v)) for s, v in got.items()} == _plain_chain(a, b, roots, depth), depth
        assert all(len(set(v)) == len(v) for moves in got.values() for v in moves)
    # the walk stops once no new state appears, however deep it may go
    assert batch_module._joint_chain(a, b, roots, 2**31 - 2).keys() == _plain_chain(
        a, b, roots, (len(a.probs) + 1) * (len(b.probs) + 1)).keys()
