"""Command-line surface: outputs, manifests, replay, and exit codes."""

from __future__ import annotations

import contextlib
import filecmp
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slotmac
from slotmac import (
    TournamentConfig,
    alpha_optimal,
    analyze_strategy,
    beta3,
    beta4,
    builtin,
    cli,
    expected_y,
    run_games_with_uniforms,
)
from slotmac.cli import main
from slotmac.dsl import machine_source
from slotmac.multichannel import MAX_GRID
from slotmac.rng import DOMAIN_MISC, RngStream
from slotmac.strategies import DEFAULT_LINEUP, corpus_dir

from conftest import dict_transcripts, random_machine


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "slotmac" in capsys.readouterr().out


def test_validate_good_file(capsys):
    path = corpus_dir() / "four_state.strat"
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 0
    assert "ok" in out and "four_state" in out and "4 states" in out


def test_validate_echo_roundtrip(capsys, tmp_path):
    # stdout is the canonical source alone; the ok line and any warning
    # (here an unreachable state) go to stderr
    path = tmp_path / "extra.strat"
    path.write_text(machine_source(builtin("three_state")) + "state spare transmit 0\nend\n")
    code, out, err = run(["validate", "--echo", str(path)], capsys)
    assert code == 0
    assert "warning" in err and ": ok (" in err
    echo = tmp_path / "echo.strat"
    echo.write_text(out)
    code, again, err = run(["validate", "--echo", str(echo)], capsys)
    assert code == 0 and again == out and ": ok (" in err
    assert out == machine_source(analyze_strategy(path.read_text()).machine)


def test_validate_bad_file(capsys, tmp_path):
    bad = tmp_path / "broken.strat"
    bad.write_text("machine broken\nstart a\nstate a transmit 2\nend\n")
    code, out, err = run(["validate", str(bad)], capsys)
    assert code == 1
    assert "outside [0, 1]" in out
    assert "broken.strat:3:18: error" in out


def test_validate_output_independent_of_hash_seed(tmp_path):
    # eight missing transitions over three reachable states, reported in
    # declaration order whatever PYTHONHASHSEED is
    gaps = tmp_path / "gaps.strat"
    gaps.write_text(
        "machine gaps\nstart a\n"
        "state a transmit 0.5\n  on T f=1 -> b\n  on I f=1 -> c\nend\n"
        "state b transmit 0.5\n  on T f=2 -> c\nend\n"
        "state c transmit 0.5\n  on I f=0 -> a\nend\n"
    )
    src = str(Path(slotmac.__file__).parents[1])
    outputs = set()
    for hash_seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "slotmac.cli", "validate", str(gaps)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        outputs.add(proc.stdout)
    (out,) = outputs
    assert out.count("is missing its transition") == 8


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(["validate", str(tmp_path / "nope.strat")], capsys)
    assert code == 1


def test_analytics_table_values(capsys, tmp_path):
    code, out, _ = run(
        ["analytics", "--t-min", "1", "--t-max", "6", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 0
    lines = (tmp_path / "analytics.csv").read_text().strip().splitlines()
    assert lines[0] == "T,alpha,expected_y,beta3,beta4"
    assert len(lines) == 7
    for line in lines[1:]:
        T, alpha, ey, b3, b4 = line.split(",")
        T = int(T)
        assert float(alpha) == pytest.approx(float(alpha_optimal(T)), rel=1e-12)
        assert float(ey) == pytest.approx(float(expected_y(T)), rel=1e-12)
        assert float(b3) == pytest.approx(float(beta3(T)), rel=1e-12)
        assert float(b4) == pytest.approx(float(beta4(T)), rel=1e-12)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "analytics"
    assert "analytics.csv" in manifest["outputs"]


def test_capture_solve_csv(capsys, tmp_path):
    code, out, _ = run(
        ["capture", "solve", "--n-max", "7", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 0
    lines = (tmp_path / "capture_table.csv").read_text().strip().splitlines()
    assert len(lines) == 8
    n, p, z = lines[3].split(",")
    assert (int(n), float(p), float(z)) == (3, pytest.approx(0.411972, abs=1e-4), pytest.approx(1.787955, abs=1e-5))
    assert "z3" in out or "1.7879" in out


def test_capture_simulate_json(capsys, tmp_path):
    code, out, _ = run(
        [
            "capture", "simulate", "--users", "3", "--episodes", "20000",
            "--seed", "5", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads((tmp_path / "capture_sim.json").read_text())
    assert data["users"] == 3
    assert data["episodes"] == 20000
    assert abs(data["mean"] - 1.787955) < 5 * data["stderr"]


def test_capture_converse_json(capsys, tmp_path):
    code, out, _ = run(
        ["capture", "converse", "--episodes", "20000", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 0
    data = json.loads((tmp_path / "converse.json").read_text())
    assert data["relaxation"]["value"] == pytest.approx(data["relaxation"]["z3"], abs=1e-4)
    assert all(w["inside"] for w in data["windows"])


def test_multichannel_simulate_json(capsys, tmp_path):
    code, out, _ = run(
        [
            "multichannel", "simulate", "--users", "3", "--channels", "2",
            "--episodes", "30000", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads((tmp_path / "multichannel_sim.json").read_text())
    assert abs(data["mean"] - 4 / 3) < 5 * data["stderr"]


def test_multichannel_optimize(capsys, tmp_path):
    code, out, _ = run(
        ["multichannel", "optimize", "--emit-plot-data", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 0
    data = json.loads((tmp_path / "multichannel_opt.json").read_text())
    three = data["three_users_two_channels"]
    assert three["full"]["value"] == pytest.approx(4 / 3, abs=1e-4)
    assert three["independent"]["value"] == pytest.approx(1.343727, abs=1e-4)
    assert data["two_users"]["m=2"] == pytest.approx(4 / 3, rel=1e-12)
    sweep = (tmp_path / "multichannel_sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "family,p,q,r,beta,theta,value"
    assert len(sweep) > 50
    best = min(
        float(row.split(",")[-1]) for row in sweep[1:] if row.startswith("independent,")
    )
    assert best == pytest.approx(three["independent"]["value"], abs=1e-3)


def test_tournament_outputs_and_replay(capsys, tmp_path):
    first = tmp_path / "first"
    code, out, _ = run(
        [
            "tournament", "--entrants", "four_state,three_state,never",
            "--horizon", "30", "--runs", "2000", "--seed", "9",
            "--out-dir", str(first),
        ],
        capsys,
    )
    assert code == 0
    assert (first / "score_matrix.csv").exists()
    assert (first / "merit.json").exists()
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["command"] == "tournament"
    assert "jobs" not in manifest["options"]

    second = tmp_path / "second"
    code, out, _ = run(
        ["replay", str(first / "manifest.json"), "--jobs", "3", "--out-dir", str(second)],
        capsys,
    )
    assert code == 0
    match, mismatch, errors = filecmp.cmpfiles(
        first, second, ["score_matrix.csv", "merit.json", "manifest.json"], shallow=False
    )
    assert mismatch == [] and errors == []


REPLAY_FORMS = {
    "tournament": ["tournament", "--entrants", "four_state,tft0", "--horizon", "20", "--runs", "500",
                   "--seed", "3", "--dump-transcripts", "1"],
    "analytics": ["analytics", "--t-min", "2", "--t-max", "9"],
    "capture_solve": ["capture", "solve", "--n-max", "6"],
    "capture_simulate": ["capture", "simulate", "--users", "5", "--episodes", "4000", "--seed", "2"],
    "capture_simulate_fixed_p": ["capture", "simulate", "--users", "4", "--episodes", "4000",
                                 "--fixed-p", "0.3", "--max-slots", "5", "--seed", "2"],
    "capture_converse": ["capture", "converse", "--n-max", "5", "--episodes", "4000", "--seed", "4"],
    "multichannel_optimize": ["multichannel", "optimize", "--grid", "21", "--emit-plot-data"],
    "multichannel_simulate_params": ["multichannel", "simulate", "--users", "3", "--channels", "2",
                                     "--episodes", "4000", "--params", "0.4,0.3,0.6", "--seed", "5"],
    "multichannel_simulate_two_users": ["multichannel", "simulate", "--users", "2", "--channels", "3",
                                        "--episodes", "4000", "--seed", "6"],
    "multichannel_simulate_one_channel": ["multichannel", "simulate", "--users", "3", "--channels", "1",
                                          "--episodes", "4000", "--seed", "7"],
}


@pytest.mark.parametrize("form", sorted(REPLAY_FORMS))
def test_replay_is_byte_identical(form, capsys, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    code, _, _ = run(REPLAY_FORMS[form] + ["--out-dir", str(first)], capsys)
    assert code == 0
    manifest = json.loads((first / "manifest.json").read_text())
    names = manifest["outputs"] + ["manifest.json"]
    assert sorted(p.name for p in first.iterdir()) == sorted(names)
    code, _, _ = run(["replay", str(first / "manifest.json"), "--out-dir", str(second)], capsys)
    assert code == 0
    assert sorted(p.name for p in second.iterdir()) == sorted(names)
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert mismatch == [] and errors == []


@pytest.mark.parametrize("users, channels", [(2, 2), (3, 1)])
def test_multichannel_params_not_applied_exit_one(users, channels, capsys, tmp_path):
    # --params only shapes three users on two channels; elsewhere it used
    # to be dropped silently while the manifest still recorded it
    code, _, err = run(
        ["multichannel", "simulate", "--users", str(users), "--channels", str(channels),
         "--episodes", "100", "--params", "0.1,0.2,0.3", "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    assert code == 1
    assert "params does not apply" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("channels", ["30", "40"])
def test_multichannel_oversized_channel_count_exit_one(channels, capsys, tmp_path):
    # 30 channels used to end in a numpy allocation traceback
    code, _, err = run(
        ["multichannel", "simulate", "--users", "2", "--channels", channels, "--episodes", "100",
         "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    assert code == 1
    assert f"need 1 <= channels <= 20, got {channels}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["capture", "simulate", "--users", "3", "--max-slots", "0"],
        ["capture", "simulate", "--users", "3", "--episodes", "0"],
        ["multichannel", "simulate", "--users", "3", "--channels", "2", "--max-slots", "-1"],
        ["multichannel", "simulate", "--users", "2", "--channels", "2", "--max-slots", "0"],
    ],
)
def test_empty_simulation_exit_one(argv, capsys, tmp_path):
    # max-slots 0 used to censor every episode and write "mean": NaN
    code, _, err = run(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert code == 1
    assert "max_slots >= 1" in err
    assert not (tmp_path / "out").exists()


def test_tournament_merit_sanity(capsys, tmp_path):
    code, out, _ = run(
        [
            "tournament", "--entrants", "four_state,never", "--horizon", "50",
            "--runs", "3000", "--seed", "4", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    merit = json.loads((tmp_path / "merit.json").read_text())
    assert merit["beta_baseline"] == "never"
    rows = {r["name"]: r for r in merit["entrants"]}
    assert abs(rows["four_state"]["beta"] - 48.0) < 0.1


def test_tournament_transcripts(capsys, tmp_path):
    code, out, _ = run(
        [
            "tournament", "--entrants", "tft0,tft1", "--horizon", "10",
            "--runs", "50", "--dump-transcripts", "2", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads((tmp_path / "transcripts.json").read_text())
    entries = data["transcripts"]
    assert len(entries) == 3  # the 2-entrant round robin has 3 pairings
    assert [e["pairing"] for e in entries] == [["tft0", "tft0"], ["tft0", "tft1"], ["tft1", "tft1"]]
    for entry in entries:
        assert len(entry["games"]) == 2
        for game in entry["games"]:
            assert len(game["slots"]) == 10
            for a, b, feedback in game["slots"]:
                assert feedback == a + b
    # opposite-phase mirrors alternate solo slots for the whole game
    crossed = entries[1]["games"][0]
    assert crossed["scores"] == [5, 5]


BENCH_LINEUP = "four_state,three_state,tft0,tft1,always,never,four_state_enhanced"

# (entrants, horizon, games per pairing, seed) -> sha256 of transcripts.json,
# recorded when the file was still built as dicts and written by json.dumps
PINNED_TRANSCRIPTS = {
    (BENCH_LINEUP, 100, 2, 7000): "686e22387a78b888aba9bf5819393fcd56d62224b01a8cb89dfde2239275b142",
    (BENCH_LINEUP, 1, 1, 7000): "3f32b18d7750f0f969281781763b994707da2e8549f3baef4329791173a3d767",
    ("four_state,four_state_enhanced,never", 30, 3, 5):
        "bb45d39a96cc9b723f0d571f3150b28569aa8b32140a95c17cb916ad21712fd3",
    ("never", 1, 1, 3): "bb5797c5ec82c3fc040c6523c2a196e38ea146d259e5a32e29a8456761c3399d",
}


@pytest.mark.parametrize("shape", sorted(PINNED_TRANSCRIPTS))
def test_transcripts_bytes_pinned(shape, capsys, tmp_path):
    entrants, horizon, games, seed = shape
    code, _, _ = run(
        ["tournament", "--entrants", entrants, "--horizon", str(horizon), "--runs", "8",
         "--seed", str(seed), "--dump-transcripts", str(games), "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    text = (tmp_path / "transcripts.json").read_bytes()
    assert hashlib.sha256(text).hexdigest() == PINNED_TRANSCRIPTS[shape]


# (file, command) -> sha256 of the file, recorded while each report still
# wrote its fields out by name
PINNED_REPORTS = {
    ("merit.json", "tournament --runs 300 --horizon 30 --seed 4"):
        "b05e981d126f8c8458954e67e6dd20e2f92df785de83b1b2c225d9ef1f479051",
    ("merit.json", "tournament --entrants four_state,three_state --runs 1 --horizon 7 --seed 0"):
        "6157c8456699ce027dd5906ee7ee979057383b1c9ca49b80cc7e3d4d7bfdccaf",
    ("converse.json", "capture converse --episodes 20000 --n-max 9 --seed 0"):
        "5df18f5fa9d021d4a1ff0bb970c399ddc570485066b8cb442c3247f5047d78bc",
    ("converse.json", "capture converse --episodes 4000 --n-max 5 --seed 4"):
        "7abdac1b540844580728c12fbeb426d518801821ff3163d99df3bc9a8ac77230",
}


@pytest.mark.parametrize("name, command", sorted(PINNED_REPORTS))
def test_report_bytes_pinned(name, command, capsys, tmp_path):
    code, _, _ = run([*command.split(), "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == PINNED_REPORTS[name, command]


def _lineup(names, machines, horizon, seed):
    return TournamentConfig(entrants=tuple(zip(names, machines)), horizon=horizon, runs=1, seed=seed)


@pytest.mark.parametrize("names, sha", [
    (BENCH_LINEUP.split(","), "bfb806a83de2afcbbd47b7c416c4c5f9dc15264f2dd3deccbb4b893350ef41af"),
    (["never"], "860ae7876e3c646d3923edcee05a3241778586a072da352fd8a6cd86de955d7a"),
])
def test_transcripts_of_no_games_match_the_dict_builder(names, sha):
    # no example games: every pairing still gets its empty "games" list
    config = _lineup(names, [builtin(n) for n in names], 10, 1)
    text = cli._transcripts(config, 0)
    assert text == dict_transcripts(config, 0)
    assert hashlib.sha256(text.encode()).hexdigest() == sha


def _raised_or(fn):
    try:
        return fn()
    except Exception as exc:  # the type is what is compared
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(
        st.one_of(st.sampled_from(DEFAULT_LINEUP), st.tuples(st.integers(0, 2**32 - 1), st.booleans())),
        min_size=1, max_size=3,
    ),
    names=st.lists(st.text(min_size=1, max_size=6), min_size=3, max_size=3, unique=True),
    horizon=st.integers(1, 200),
    games=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_transcripts_match_the_dict_builder(picks, names, horizon, games, seed):
    # builtins and random machines (general p, override on and off) under
    # arbitrary entrant names: the direct writer gives the json.dumps bytes
    machines = [builtin(p) if isinstance(p, str) else random_machine(np.random.default_rng(p[0]), override=p[1])
                for p in picks]
    config = _lineup(names[: len(machines)], machines, horizon, seed)
    assert _raised_or(lambda: cli._transcripts(config, games)) == _raised_or(lambda: dict_transcripts(config, games))


def test_dumped_games_replay_through_the_batch_engine(capsys, tmp_path):
    # each dumped game, redrawn from its named streams as whole blocks and
    # played by the vectorized engine, scores the same and first succeeds
    # in the same slot: a check that does not read the byte format
    names, horizon, seed = BENCH_LINEUP.split(","), 40, 21
    code, _, _ = run(
        ["tournament", "--entrants", ",".join(names), "--horizon", str(horizon), "--runs", "8",
         "--seed", str(seed), "--dump-transcripts", "2", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    entries = iter(json.loads((tmp_path / "transcripts.json").read_text())["transcripts"])
    for i in range(len(names)):
        for j in range(i, len(names)):
            entry = next(entries)
            assert entry["pairing"] == [names[i], names[j]]
            for g, game in enumerate(entry["games"]):
                ua, ub = (RngStream(seed, (DOMAIN_MISC, i, j, g, p)).generator().random(horizon) for p in (0, 1))
                batch = run_games_with_uniforms(builtin(names[i]), builtin(names[j]), ua[None], ub[None])
                assert game["scores"] == [int(batch.scores_a[0]), int(batch.scores_b[0])], (i, j, g)
                first = next((t for t, (_, _, f) in enumerate(game["slots"], 1) if f == 1), 0)
                assert first == batch.first_success[0], (i, j, g)
    assert next(entries, None) is None


def test_seed_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SLOTMAC_SEED", "123")
    run(
        ["capture", "simulate", "--users", "2", "--episodes", "5000", "--out-dir", str(tmp_path / "a")],
        capsys,
    )
    monkeypatch.delenv("SLOTMAC_SEED")
    run(
        [
            "capture", "simulate", "--users", "2", "--episodes", "5000",
            "--seed", "123", "--out-dir", str(tmp_path / "b"),
        ],
        capsys,
    )
    a = json.loads((tmp_path / "a" / "capture_sim.json").read_text())
    b = json.loads((tmp_path / "b" / "capture_sim.json").read_text())
    assert a == b


def test_bad_arguments_exit_one(capsys, tmp_path):
    code, _, err = run(["capture", "simulate", "--users", "0", "--episodes", "10"], capsys)
    assert code == 1
    assert err.strip()


def test_unknown_entrant_exit_one(capsys):
    code, _, err = run(["tournament", "--entrants", "four_state,zzz", "--runs", "10"], capsys)
    assert code == 1
    assert "zzz" in err


@pytest.mark.parametrize("make", [False, True], ids=["missing", "empty"])
def test_strategy_dir_without_machines_exit_one(make, capsys, tmp_path):
    # a directory with nothing to load is blamed, not the entrants
    folder = tmp_path / "machines"
    if make:
        folder.mkdir()
        (folder / "notes.txt").write_text("no machines here\n")
    code, _, err = run(["tournament", "--strategy-dir", str(folder), "--runs", "10"], capsys)
    assert code == 1
    assert str(folder) in err
    assert "unknown entrants" not in err


def test_tournament_enters_any_builtin(capsys, tmp_path):
    # four_state_enhanced is a builtin outside the default lineup
    code, _, err = run(
        ["tournament", "--entrants", "four_state,four_state_enhanced,never", "--horizon", "20",
         "--runs", "500", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0, err
    merit = json.loads((tmp_path / "merit.json").read_text())
    assert [r["name"] for r in merit["entrants"]] == ["four_state", "four_state_enhanced", "never"]


def test_tournament_same_bytes_with_and_without_strategy_dir(capsys, tmp_path):
    # the builtins are the bundled corpus, so naming it changes only the
    # manifest's strategy_dir
    argv = ["tournament", "--entrants", ",".join(DEFAULT_LINEUP + ("four_state_enhanced",)),
            "--horizon", "20", "--runs", "500", "--seed", "5", "--dump-transcripts", "1"]
    plain, named = tmp_path / "plain", tmp_path / "named"
    assert run(argv + ["--out-dir", str(plain)], capsys)[0] == 0
    assert run(argv + ["--strategy-dir", str(corpus_dir()), "--out-dir", str(named)], capsys)[0] == 0
    names = ["score_matrix.csv", "merit.json", "transcripts.json"]
    match, mismatch, errors = filecmp.cmpfiles(plain, named, names, shallow=False)
    assert match == names
    assert json.loads((plain / "manifest.json").read_text())["options"]["strategy_dir"] is None


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize(
    "argv, mean",
    [
        # every episode censored: no mean, no stderr
        (["--users", "4", "--fixed-p", "0.999", "--max-slots", "30", "--episodes", "400"], None),
        # one episode completes: a mean but no stderr
        (["--users", "3", "--fixed-p", "0.9", "--max-slots", "1", "--episodes", "10", "--seed", "0"], 1.0),
    ],
)
def test_undefined_summary_written_as_null(argv, mean, capsys, tmp_path):
    code, _, _ = run(["capture", "simulate", *argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    data = json.loads((tmp_path / "capture_sim.json").read_text(), parse_constant=_reject_constant)
    assert data["mean"] == mean
    assert data["stderr"] is None


@pytest.mark.parametrize(
    "option, value, message",
    [("--jobs", "-3", "jobs must be at least 1"), ("--jobs", "0", "jobs must be at least 1"),
     ("--dump-transcripts", "-1", "--dump-transcripts must be at least 0")],
)
def test_tournament_execution_options_range_checked(option, value, message, capsys, tmp_path):
    # --jobs -3 used to run single-threaded; --dump-transcripts -1 wrote no games
    code, _, err = run(["tournament", "--runs", "10", "--horizon", "5", option, value,
                        "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 1
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # no entrant here draws, so no stream was ever built to reject the seed
        ["tournament", "--entrants", "never,always", "--runs", "5", "--horizon", "5"],
        ["tournament", "--entrants", "four_state,never", "--runs", "5", "--horizon", "5"],
        ["capture", "simulate", "--users", "5", "--episodes", "50"],
    ],
    ids=["deterministic-lineup", "coin-lineup", "capture-simulate"],
)
def test_negative_seed_exit_one(argv, capsys, tmp_path):
    code, _, err = run(argv + ["--seed", "-1", "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 1
    assert "seed" in err and "-1" in err
    assert not (tmp_path / "out").exists()


def test_replay_jobs_range_checked(capsys, tmp_path):
    code, _, _ = run(["tournament", "--runs", "10", "--horizon", "5", "--out-dir", str(tmp_path / "a")], capsys)
    assert code == 0
    code, _, err = run(["replay", str(tmp_path / "a" / "manifest.json"), "--jobs", "0",
                        "--out-dir", str(tmp_path / "b")], capsys)
    assert code == 1
    assert "--jobs must be at least 1" in err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["capture", "solve", "--n-max", "1028"],
        ["capture", "converse", "--n-max", "1028"],
        ["capture", "simulate", "--users", "1028"],
    ],
)
def test_capture_solver_past_float_limit_exit_one(argv, capsys, tmp_path):
    # n = 1030 used to end in an OverflowError traceback after every smaller stage
    code, _, err = run(argv + ["--out-dir", str(tmp_path / "out")], capsys)
    assert code == 1
    assert "1027" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("users", ["2000", "0"])
def test_solved_policy_simulation_names_users_range(users, capsys, tmp_path):
    # it used to report the solver's "n_max must be between 1 and 1027",
    # an option capture simulate does not have
    code, out, err = run(["capture", "simulate", "--users", users, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 1
    assert "--users must be in 1..1027" in err and "--fixed-p has no upper limit" in err
    assert "n_max" not in err and not out
    assert not (tmp_path / "out").exists()


def test_fixed_p_simulation_past_solver_limit_allowed(capsys, tmp_path):
    code, _, err = run(["capture", "simulate", "--users", "1028", "--fixed-p", "0.001", "--episodes", "50",
                        "--max-slots", "5", "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    assert json.loads((tmp_path / "capture_sim.json").read_text())["users"] == 1028


@pytest.mark.parametrize(
    "argv",
    [
        ["capture", "solve", "--n-max", "3"],
        ["multichannel", "optimize", "--grid", "21"],
        ["capture", "solve", "--n-max", "1"],
    ],
)
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_solver_tolerance_out_of_range_exit_one(argv, tol, capsys, tmp_path):
    # --tol 0 and -1 used to hang, and nan to print an unpolished grid point;
    # with --n-max 1, which solves no stage, -1 used to exit 0 and nan to
    # write the table and then fail on the manifest
    code, _, err = run(argv + ["--tol", tol, "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 1
    assert "tol must be finite and positive" in err
    assert not (tmp_path / "out").exists()


def test_multichannel_optimize_oversized_grid_exit_one(capsys, tmp_path):
    grid = MAX_GRID + 1
    code, _, err = run(["multichannel", "optimize", "--grid", str(grid), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 1
    assert f"need 11 <= grid <= {MAX_GRID}, got {grid}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", ["1e-16", "1e-300"])
def test_multichannel_optimize_tolerance_below_float_spacing(tol, capsys, tmp_path):
    # any tol below about 3e-16 used to exit 1 with golden_section's "need lo < hi"
    code, _, err = run(["multichannel", "optimize", "--tol", tol, "--out-dir", str(tmp_path / "fine")], capsys)
    assert code == 0, err
    assert run(["multichannel", "optimize", "--out-dir", str(tmp_path / "default")], capsys)[0] == 0
    fine, default = ((tmp_path / d / "multichannel_opt.json").read_text() for d in ("fine", "default"))
    value = lambda text: json.loads(text)["three_users_two_channels"]["full"]["value"]  # noqa: E731
    assert value(fine) <= value(default)


def test_strategy_dir_names_the_malformed_file(capsys, tmp_path):
    # the error used to give a line and column but not which file of the
    # directory they are in
    folder = tmp_path / "machines"
    folder.mkdir()
    for path in corpus_dir().glob("*.strat"):
        (folder / path.name).write_text(path.read_text())
    bad = folder / "zz_bad.strat"
    bad.write_text("machine zz\nstart off\nstate off transmit 1.5\n  on I f=0 -> off\n  on I f=1 -> off\nend\n")
    code, _, err = run(["tournament", "--strategy-dir", str(folder), "--runs", "10"], capsys)
    assert code == 1
    assert err.startswith(f"slotmac: error: {bad}:3:")
    assert "transmit probability 1.5 is outside [0, 1]" in err


@pytest.mark.parametrize(
    "manifest, message",
    [
        ([1, 2], "manifest is not a JSON object"),
        ({"tool": "slotmac"}, "manifest has no command"),
        ({"command": "capture solve"}, "manifest has no options object"),
        ({"command": "capture solve", "options": {}}, "manifest options have no 'n_max'"),
    ],
    ids=["not-an-object", "no-command", "no-options", "missing-option"],
)
def test_replay_malformed_manifest_exit_one(manifest, message, capsys, tmp_path):
    # each of these used to end in a KeyError or TypeError traceback
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, _, err = run(["replay", str(path), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 1
    assert f"{path}: {message}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["", '{"command": "capture solve", "opt'], ids=["empty", "truncated"])
def test_replay_manifest_not_json_names_the_path(text, capsys, tmp_path):
    # the decoder's message used to come without the manifest's path
    path = tmp_path / "manifest.json"
    path.write_text(text)
    code, _, err = run(["replay", str(path), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err.startswith(f"slotmac: error: {path}: manifest is not JSON: ")
    assert not (tmp_path / "out").exists()


# a replayed manifest goes through the parser a typed command does: its
# options become the command line it records, and it is accepted only if
# that line's parse records exactly those options

DELETE = object()


@pytest.mark.parametrize(
    "argv, change, option",
    [
        (["capture", "solve", "--n-max", "3"], {"n_max": "x"}, "--n-max"),
        (["analytics", "--t-max", "3"], {"t_min": 1.5}, "--t-min"),
        (["capture", "simulate", "--users", "3", "--episodes", "10"], {"episodes": 10.0}, "--episodes"),
        (["multichannel", "simulate", "--users", "3", "--channels", "2", "--episodes", "10"],
         {"params": [0.5, 0]}, "--params"),
        (["tournament", "--entrants", "never,always", "--runs", "5", "--horizon", "5"],
         {"strategy_dir": 7}, "'strategy_dir'"),
        (["capture", "solve", "--n-max", "3"], {"tol": "1e-9"}, "'tol'"),
        (["tournament", "--entrants", "never", "--runs", "5", "--horizon", "5"],
         {"entrants": "four_state"}, "'entrants'"),
        (["capture", "simulate", "--users", "3", "--episodes", "10"], {"users": True}, "--users"),
        (["multichannel", "optimize", "--grid", "11"], {"emit_plot_data": "no"}, "--emit-plot-data"),
        (["capture", "solve", "--n-max", "3"], {"bogus": 1}, "--bogus"),
        (["capture", "simulate", "--users", "3", "--episodes", "10"], {"fixed_p": DELETE}, "'fixed_p'"),
        # 0 == False in Python: this used to run with no transcripts
        (["tournament", "--entrants", "never", "--runs", "5", "--horizon", "5", "--dump-transcripts", "1"],
         {"dump_transcripts": False}, "'dump_transcripts'"),
        # an option that asks for help prints it and exits before any check
        (["capture", "solve", "--n-max", "3"], {"help": True}, "--help"),
    ],
    ids=["string-int", "float-int", "float-episodes", "two-params", "int-dir", "string-tol", "string-entrants",
         "bool-users", "string-flag", "unknown-key", "missing-nullable", "false-zero", "help"],
)
def test_replay_refuses_options_its_command_line_does_not_record(argv, change, option, capsys, tmp_path):
    # each of these used to end in a traceback, run with a wrong value, or
    # exit 0 and write a manifest that differs from the one replayed
    assert run(argv + ["--out-dir", str(tmp_path / "first")], capsys)[0] == 0
    manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
    for key, value in change.items():
        if value is DELETE:
            del manifest["options"][key]
        else:
            manifest["options"][key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, _, err = run(["replay", str(path), "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err.startswith(f"slotmac: error: {path}: ")
    assert option in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["capture", "simulate", "--users", "x"], "argument --users: invalid int value: 'x'"),
        (["capture", "simulate"], "the following arguments are required: --users"),
        (["capture", "solve", "--bogus"], "unrecognized arguments: --bogus"),
        (["multichannel", "simulate", "--users", "3", "--channels", "2", "--params", "1,2"],
         "--params needs exactly three comma-separated values"),
    ],
)
def test_bad_command_line_exit_one(argv, message, capsys):
    # argparse used to print a usage line and exit 2
    code, out, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("slotmac: error: ") and message in err
    assert "usage" not in err and err.count("\n") == 1 and out == ""


def test_bad_seed_environment_named(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SLOTMAC_SEED", "abc")
    code, _, err = run(["capture", "simulate", "--users", "3", "--episodes", "10",
                        "--out-dir", str(tmp_path / "out")], capsys)
    assert code == 1
    assert "SLOTMAC_SEED" in err and "'abc'" in err
    assert not (tmp_path / "out").exists()
    # a command with no seed never reads it, and --seed overrides it
    assert run(["analytics", "--t-max", "3"], capsys)[0] == 0
    assert run(["capture", "simulate", "--users", "3", "--episodes", "10", "--seed", "1"], capsys)[0] == 0


@pytest.fixture(scope="module")
def replay_forms(tmp_path_factory):
    """Every REPLAY_FORMS command run once, into a directory per form, and
    the JSON kinds each option takes in some form (null: it is nullable)."""
    base = tmp_path_factory.mktemp("forms")
    kinds = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for form, argv in REPLAY_FORMS.items():
            assert main(argv + ["--out-dir", str(base / form)]) == 0
            for key, value in json.loads((base / form / "manifest.json").read_text())["options"].items():
                kinds.setdefault(key, set()).add(_kind(value))
    return base, kinds


def _kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return {str: "string", list: "list", dict: "object", type(None): "null"}.get(type(value), "number")


OTHER_VALUES = {
    "string": st.text(max_size=8),
    "bool": st.booleans(),
    "number": st.integers(-10, 10) | st.floats(allow_nan=False),
    "list": st.lists(st.integers(-3, 3) | st.floats(-1, 1) | st.text(max_size=3), max_size=4),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "null": st.none(),
}
JSON_VALUES = st.one_of(*OTHER_VALUES.values())


@settings(max_examples=200, deadline=None)
@given(form=st.sampled_from(sorted(REPLAY_FORMS)), data=st.data())
def test_mutated_manifest_refused_or_replayed_exactly(replay_forms, form, data):
    base, kinds = replay_forms
    manifest = json.loads((base / form / "manifest.json").read_text())
    options = manifest["options"]
    mutation = data.draw(st.sampled_from(["delete", "add", "retype"]))
    if mutation == "add":
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in options))
        options[key] = data.draw(JSON_VALUES)
    else:
        key = data.draw(st.sampled_from(sorted(options)))
        if mutation == "delete":
            del options[key]
        else:
            others = [OTHER_VALUES[kind] for kind in OTHER_VALUES if kind not in kinds[key]]
            if type(options[key]) is int:  # a float for an int option
                others.append(st.floats(allow_nan=False))
            options[key] = data.draw(st.one_of(others))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "manifest.json", Path(tmp) / "out"
        path.write_text(json.dumps(manifest))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["replay", str(path), "--out-dir", str(out)])
        if code == 1:
            assert err.getvalue().startswith(f"slotmac: error: {path}: ")
            assert not out.exists()
        else:
            assert code == 0
            names = sorted(p.name for p in (base / form).iterdir())
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (base / form / name).read_bytes(), name
