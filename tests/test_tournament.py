"""Round-robin scoring and the merit summary."""

from __future__ import annotations

import json
import math
import re
import threading

import numpy as np
import pytest

from slotmac import (
    TournamentConfig,
    beta3,
    beta4,
    builtin,
    merit_report,
    run_games,
    run_tournament,
)
from slotmac import tournament
from slotmac.strategies import DEFAULT_LINEUP


def _config(names=DEFAULT_LINEUP, horizon=40, runs=2000, seed=11):
    return TournamentConfig.from_machines(
        {n: builtin(n) for n in names}, horizon=horizon, runs=runs, seed=seed
    )


@pytest.fixture(scope="module")
def lineup_matrix():
    config = _config()
    return config, run_tournament(config)


def test_jobs_do_not_change_numbers():
    config = _config(runs=800)
    serial = run_tournament(config, jobs=1)
    for jobs in (3, 4):
        threaded = run_tournament(config, jobs=jobs)
        assert (serial.mean == threaded.mean).all()
        assert (serial.stderr == threaded.stderr).all()


def _threads_playing(monkeypatch, jobs):
    """The threads that play the pairings of a 2-entrant tournament (3
    pairings) run at ``jobs``."""
    threads = []
    original = tournament.run_games

    def recorded(*args, **kwargs):
        threads.append(threading.current_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(tournament, "run_games", recorded)
    run_tournament(_config(names=("four_state", "tft1"), horizon=10, runs=50), jobs=jobs)
    assert len(threads) == 3
    return threads


def test_one_job_plays_every_pairing_on_the_calling_thread(monkeypatch):
    assert set(_threads_playing(monkeypatch, 1)) == {threading.current_thread()}


def test_no_more_threads_than_pairings(monkeypatch):
    threads = _threads_playing(monkeypatch, 8)
    assert threading.current_thread() in threads
    assert len(set(threads)) <= 3


@pytest.mark.parametrize("failing", ["pool thread", "calling thread"])
def test_exception_in_a_pairing_propagates(failing, monkeypatch):
    both_started = threading.Barrier(2, timeout=30)
    original = tournament.run_games

    def run_games(*args, pairing, **kwargs):
        # with 2 workers the calling thread plays (0, 0) then (1, 1) and the
        # pool thread (0, 1); (0, 0) and (0, 1) wait for each other, so both
        # threads are running before either fails
        if pairing != (1, 1):
            both_started.wait()
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing == "calling thread"):
            raise RuntimeError(f"pairing {pairing} failed")
        return original(*args, pairing=pairing, **kwargs)

    monkeypatch.setattr(tournament, "run_games", run_games)
    with pytest.raises(RuntimeError, match=r"pairing \(0, [01]\) failed"):
        run_tournament(_config(names=("four_state", "tft1"), horizon=10, runs=50), jobs=2)


def test_cells_are_shared_pairing_runs(lineup_matrix):
    # any cell must be reproducible by running that one pairing directly
    config, matrix = lineup_matrix
    i, j = 0, 3
    batch = run_games(
        builtin(config.entrants[i][0]), builtin(config.entrants[j][0]),
        config.horizon, config.runs, config.seed, pairing=(i, j),
    )
    assert matrix.mean[i, j] == batch.scores_a.mean()
    assert matrix.mean[j, i] == batch.scores_b.mean()


def test_deterministic_self_play_diagonal_is_zero(lineup_matrix):
    # deterministic twins always collide or always idle: exactly nothing
    _, matrix = lineup_matrix
    for name in ("tft0", "tft1", "always", "never"):
        mean, stderr = matrix.cell(name, name)
        assert mean == 0.0
        assert stderr == 0.0


def test_dead_channel_rows(lineup_matrix):
    _, matrix = lineup_matrix
    # nobody scores against a machine that cannot transmit is wrong on
    # purpose: everyone scores against it, it scores nothing
    for name in DEFAULT_LINEUP[:-1]:
        assert matrix.cell("never", name)[0] == 0.0
    mean, _ = matrix.cell("always", "never")
    assert mean == 40.0


def test_merit_alpha_beta_gamma(lineup_matrix):
    config, matrix = lineup_matrix
    report = merit_report(matrix, config)
    assert report.baseline == "never"
    k = len(matrix.names)
    by_name = {row.name: row for row in report.rows}
    for i, name in enumerate(matrix.names):
        row = by_name[name]
        assert row.alpha == matrix.mean[i, i]
        assert row.gamma == pytest.approx(matrix.mean[i].sum() / k, rel=1e-12)
    # closed-form betas at this horizon, within simulation noise
    row = by_name["four_state"]
    assert abs(row.beta - float(beta4(config.horizon))) < 4 * max(row.beta_stderr, 1e-9)
    row = by_name["three_state"]
    assert abs(row.beta - float(beta3(config.horizon))) < 4 * max(row.beta_stderr, 1e-9)
    assert by_name["always"].beta == float(config.horizon)
    assert by_name["tft1"].beta == 1.0
    assert by_name["tft0"].beta == 0.0
    assert by_name["never"].beta == 0.0


def test_merit_recognizes_renamed_dead_machine():
    # a dead machine under a flattering name is still the baseline
    dead = builtin("never")
    renamed = type(dead)(name="champion", start=dead.start, states=dead.states)
    config = TournamentConfig.from_machines(
        {"four_state": builtin("four_state"), "champion": renamed},
        horizon=20, runs=500, seed=2,
    )
    report = merit_report(run_tournament(config), config)
    assert report.baseline == "champion"


def test_merit_beta_none_without_baseline():
    config = _config(names=("four_state", "three_state", "tft0"), runs=400)
    report = merit_report(run_tournament(config), config)
    assert report.baseline is None
    assert all(row.beta is None and row.beta_stderr is None for row in report.rows)
    text = report.to_json()
    data = json.loads(text)
    assert data["beta_baseline"] is None
    assert all(entry["beta"] is None for entry in data["entrants"])


def test_csv_parses_back(lineup_matrix):
    _, matrix = lineup_matrix
    lines = matrix.to_csv().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["entrant", *matrix.names, "total"]
    cell = re.compile(r"^(-?\d+\.\d{4})±(\d+\.\d{4})$")
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        assert parts[0] == matrix.names[i]
        total = 0.0
        for j, token in enumerate(parts[1:-1]):
            m = cell.match(token)
            assert m, token
            assert float(m.group(1)) == pytest.approx(matrix.mean[i, j], abs=5e-5)
            total += matrix.mean[i, j]
        assert float(parts[-1]) == pytest.approx(total, abs=5e-4)


def test_tft1_holds_even_against_four_state():
    # the seeded-transmit mirror comes out a shade under an even split
    batch = run_games(builtin("tft1"), builtin("four_state"), 100, 20_000, seed=17)
    mean = batch.scores_a.mean()
    stderr = batch.scores_a.std(ddof=1) / math.sqrt(20_000)
    assert abs(mean - 49.67) < max(4 * stderr, 0.05)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(runs=0)
    with pytest.raises(ValueError):
        _config(horizon=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        _config(names=("never", "always"), seed=-1)
    with pytest.raises(ValueError):
        TournamentConfig.from_machines({})
    with pytest.raises(ValueError):
        TournamentConfig(
            entrants=(("dup", builtin("never")), ("dup", builtin("always"))),
            horizon=10, runs=10, seed=0,
        )
