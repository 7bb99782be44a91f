"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one client issues one call after another,
each starting when the previous one returns, from one process with at most
two threads.  A *pass* is one round of the workload's calls; the runner
repeats passes for the requested time and reports medians.

* ``tournament``: the run users make most.  It is dominated by RNG draws
  and the ``batch`` slot loop; seven of its 28 pairings take the
  foreign-opponent shadow path; it also uses the thread pool, the scalar
  engine (transcripts) and manifest replay.  It runs no capture code.
* ``capture``: the pure-Python capture-table solver and the four copies of
  the stopping-time simulation loop, each about half of the time.  It
  never enters ``batch``.
* ``exact``: the ``batch`` engine in another shape, a million short games
  per call driven by pre-built uniforms, with the largest memory
  footprint.  A change that helps ``tournament`` but hurts this shape
  shows here.

Every figure a pass produces is checked against an oracle from
``oracles.py``; each failed check counts toward the run's ``failed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from slotmac import analytics, capture, cli, multichannel, tournament
from slotmac.batch import CHUNK_SIZE, GameBatch, compile_machine, run_games_with_uniforms
from slotmac.dsl import is_deterministic
from slotmac.rng import DOMAIN_GAME, RngStream
from slotmac.strategies import BUILTIN_NAMES, builtin, corpus_dir

# |sampled - exact| / stderr above this fails a check.  With about ten
# z-checks per pass, a false failure at 5 sigma is a one-in-10^5 run event.
Z_GATE = 5.0


@dataclass
class Checks:
    """Tally of output checks.  ``bias`` is added to every numeric oracle;
    the smoke test sets it to prove that wrong oracles are caught."""

    bias: float = 0.0
    attempted: int = 0
    failed: int = 0
    max_z: float = 0.0
    failures: list[str] = field(default_factory=list)

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def close(self, name: str, got, want, tol: float = 0.0) -> None:
        """|got - want| <= tol * max(1, |want|); exact equality at tol 0,
        which keeps Fractions exact."""
        if self.bias:
            want = want + self.bias
        if tol == 0.0:
            ok = got == want
        else:
            ok = abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want)))
        self.expect(name, ok, f"got {got!r}, want {want!r}")

    def z(self, name: str, sampled: float, stderr: float, exact) -> None:
        exact = float(exact) + self.bias
        if not (stderr > 0 and math.isfinite(stderr)):
            self.expect(name, False, f"stderr {stderr!r}")
            return
        z = abs(sampled - exact) / stderr
        self.max_z = max(self.max_z, z)
        self.expect(name, z <= Z_GATE, f"z = {z:.2f} ({sampled!r} vs {exact!r} +- {stderr!r})")


class Steps:
    """Wall and CPU seconds of each named step of a pass."""

    def __init__(self) -> None:
        self.times: dict[str, tuple[float, float]] = {}

    @contextlib.contextmanager
    def __call__(self, key: str):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self.times[key] = (time.perf_counter() - t0, time.process_time() - c0)


@dataclass
class PassRecord:
    wall_s: float
    cpu_s: float
    steps: dict[str, tuple[float, float]]  # step -> (wall, cpu)
    data: dict


def pass_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


@contextlib.contextmanager
def _maybe_span(tracer, name: str, tag=None):
    if tracer is None:
        yield
    else:
        with tracer.span(name, tag):
            yield


@contextlib.contextmanager
def _instrumented(tracer, install, *args):
    """Install a workload's wrappers for the duration of a block."""
    if tracer is None:
        yield
        return
    install(tracer, *args)
    try:
        yield
    finally:
        tracer.unpatch()


def _cli(argv: list[str], tracer=None, tag=None) -> int:
    # the CLI prints a summary on every call; the benchmark owns stdout
    with contextlib.redirect_stdout(io.StringIO()), _maybe_span(tracer, "cli.main", tag):
        return cli.main(argv)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _dir_bytes(*dirs: Path) -> int:
    return sum(f.stat().st_size for d in dirs for f in d.rglob("*") if f.is_file())


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Workload:
    name: str
    # timed as setup_s in a fresh interpreter that has src/ on sys.path:
    # imports what the workload uses and loads its inputs
    setup_code: str

    def __init__(self, work: Path, seed: int, size):
        self.work = work
        self.seed = seed
        self.size = size

    def prepare(self, checks: Checks) -> None:
        """Compute oracles once per run; cross-checks count as checks."""

    def run_pass(self, k: int, tracer=None) -> PassRecord:
        raise NotImplementedError

    def check(self, record: PassRecord, checks: Checks) -> None:
        raise NotImplementedError

    def layer_metrics(self, tracer, record: PassRecord, untraced: list[PassRecord]) -> dict[str, float]:
        raise NotImplementedError

    def _timed(self, tracer, body) -> PassRecord:
        steps = Steps()
        with _maybe_span(tracer, "bench.pass"):
            c0, t0 = time.process_time(), time.perf_counter()
            data = body(steps)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return PassRecord(wall, cpu, steps.times, data)


# ---------------------------------------------------------------------------
# tournament


@dataclass(frozen=True)
class TournamentSize:
    runs: int
    horizon: int
    transcripts: int


ENTRANTS = ("four_state", "three_state", "tft0", "tft1", "always", "never", "four_state_enhanced")
DUEL_MACHINES = ("four_state", "three_state", "four_state_enhanced")
DEAD_CHANNEL = "never"


def _digest(result: GameBatch) -> str:
    h = hashlib.sha256()
    for arr in (result.scores_a, result.scores_b, result.first_success):
        h.update(arr.tobytes())
    return h.hexdigest()


class TournamentWorkload(Workload):
    name = "tournament"
    setup_code = (
        "import slotmac.cli\n"
        "from slotmac.batch import compile_machine\n"
        "from slotmac.strategies import corpus_dir, load_strategy_dir\n"
        "machines = load_strategy_dir(corpus_dir())\n"
        f"compiled = [compile_machine(machines[n]) for n in {ENTRANTS!r}]\n"
    )

    def prepare(self, checks: Checks) -> None:
        T = self.size.horizon
        self.alpha = {n: oracles.self_play_alpha(builtin(n), T) for n in DUEL_MACHINES}
        dead = builtin(DEAD_CHANNEL)
        self.beta = {
            n: oracles.duel_expected_scores(builtin(n), dead, T)[0]
            for n in ("four_state", "three_state")
        }
        checks.close("alpha_optimal closed form", analytics.alpha_optimal(T), self.alpha["four_state"])
        checks.close("beta4 closed form", analytics.beta4(T), self.beta["four_state"])
        checks.close("beta3 closed form", analytics.beta3(T), self.beta["three_state"])
        det = [n for n in ENTRANTS if is_deterministic(builtin(n))]
        self.det_cells = {}
        for a in det:
            for b in det:
                sa, sb = oracles.deterministic_scores(builtin(a), builtin(b), T)
                self.det_cells[(a, b)] = Fraction(sa + sb, 2) if a == b else Fraction(sa)

    def run_pass(self, k: int, tracer=None) -> PassRecord:
        base = self.work / "tournament" / f"pass{k}"
        run_dir, replay_dir = _fresh_dir(base / "run"), _fresh_dir(base / "replay")
        argv = [
            "tournament", "--strategy-dir", str(corpus_dir()),
            "--entrants", ",".join(ENTRANTS),
            "--horizon", str(self.size.horizon), "--runs", str(self.size.runs),
            "--jobs", "2", "--dump-transcripts", str(self.size.transcripts),
            "--seed", str(pass_seed(self.seed, k)), "--out-dir", str(run_dir),
        ]
        replay = ["replay", str(run_dir / cli.MANIFEST_NAME), "--jobs", "1", "--out-dir", str(replay_dir)]
        fused: dict[tuple[int, int], str] = {}
        split: dict[tuple[int, int], str] = {}

        def body(step):
            with step("run"), _instrumented(tracer, self._instrument, fused, None):
                rc_run = _cli(argv, tracer, "run")
            with step("replay"), _instrumented(tracer, self._instrument, None, split):
                rc_replay = _cli(replay, tracer, "replay")
            return {"rc": (rc_run, rc_replay), "run_dir": run_dir, "replay_dir": replay_dir,
                    "fused": fused, "split": split, "traced": tracer is not None}

        record = self._timed(tracer, body)
        record.data["bytes_written"] = _dir_bytes(run_dir, replay_dir)
        return record

    def _instrument(self, tracer, fused, split) -> None:
        """Run phase (``fused`` given): time each fused ``run_games`` call.
        Replay phase (``split`` given): replace it by pre-drawn uniforms
        plus ``run_games_with_uniforms`` so draws and slot loop are timed
        apart; both phases record a digest of every GameBatch."""
        tracer.patch(cli.RUNNERS, "tournament", "cli.runner", tag="tournament")
        tracer.patch(cli, "load_strategy_dir", "dsl.load_strategy_dir")
        tracer.patch(cli, "run_tournament", "tournament.run_tournament")
        tracer.patch(cli, "play_game", "game.play_game",
                     on_result=lambda a, kw, r: tracer.count("game.slots", r.horizon))
        if fused is not None:
            original = tournament.run_games

            def timed_run_games(machine_a, machine_b, horizon, runs, seed, pairing=(0, 0), **kw):
                with tracer.span("batch.run_games", (ENTRANTS[pairing[0]], ENTRANTS[pairing[1]])):
                    result = original(machine_a, machine_b, horizon, runs, seed, pairing=pairing, **kw)
                with tracer.span("trace.verify"):
                    fused[tuple(pairing)] = _digest(result)
                return result

            tracer.replace(tournament, "run_games", timed_run_games)
        else:
            tracer.replace(tournament, "run_games",
                           lambda *a, **kw: self._split_run_games(tracer, split, *a, **kw))

    @staticmethod
    def _split_run_games(tracer, digests, machine_a, machine_b, horizon, runs, seed,
                         pairing=(0, 0), chunk_size=CHUNK_SIZE, track_visits=False):
        if track_visits:
            raise ValueError("the split path does not track visits")
        names = (ENTRANTS[pairing[0]], ENTRANTS[pairing[1]])
        with tracer.span("batch.split_run_games", names):
            ma, mb = compile_machine(machine_a), compile_machine(machine_b)
            out = GameBatch(*(np.zeros(runs, dtype=np.int32) for _ in range(3)))
            for chunk, lo in enumerate(range(0, runs, chunk_size)):
                hi = min(lo + chunk_size, runs)
                n = hi - lo
                with tracer.span("rng.draw"):
                    # (horizon, n) is the order run_games draws in; the
                    # transposed view reads each slot's column contiguously
                    ua, ub = (
                        RngStream(seed, (DOMAIN_GAME, pairing[0], pairing[1], chunk, player))
                        .generator().random((horizon, n))
                        for player in (0, 1)
                    )
                tracer.count("rng.draws", 2 * horizon * n)
                with tracer.span("batch.engine", names):
                    part = run_games_with_uniforms(ma, mb, ua.T, ub.T)
                tracer.count("batch.engine_game_slots", horizon * n)
                out.scores_a[lo:hi] = part.scores_a
                out.scores_b[lo:hi] = part.scores_b
                out.first_success[lo:hi] = part.first_success
        with tracer.span("trace.verify"):
            digests[tuple(pairing)] = _digest(out)
        return out

    def check(self, record: PassRecord, checks: Checks) -> None:
        rc_run, rc_replay = record.data["rc"]
        checks.expect("tournament exit status", rc_run == 0, f"exit {rc_run}")
        checks.expect("replay exit status", rc_replay == 0, f"exit {rc_replay}")
        run_dir, replay_dir = record.data["run_dir"], record.data["replay_dir"]
        if rc_run != 0 or rc_replay != 0:
            return
        manifest = json.loads((run_dir / cli.MANIFEST_NAME).read_text())
        for name in manifest["outputs"] + [cli.MANIFEST_NAME]:
            checks.expect(f"replay bytes of {name}",
                          (run_dir / name).read_bytes() == (replay_dir / name).read_bytes())
        merit = json.loads((run_dir / "merit.json").read_text())
        rows = {row["name"]: row for row in merit["entrants"]}
        checks.expect("beta baseline", merit["beta_baseline"] == DEAD_CHANNEL, repr(merit["beta_baseline"]))
        for name, exact in self.alpha.items():
            checks.z(f"alpha {name}", rows[name]["alpha"], rows[name]["alpha_stderr"], exact)
        for name, exact in self.beta.items():
            checks.z(f"beta {name}", rows[name]["beta"], rows[name]["beta_stderr"], exact)
        cells = self._cells((run_dir / "score_matrix.csv").read_text())
        for (a, b), exact in self.det_cells.items():
            mean, stderr = cells[(a, b)]
            checks.close(f"cell {a} vs {b}", Fraction(mean), exact)
            checks.expect(f"cell {a} vs {b} stderr", stderr == 0.0, repr(stderr))
        self._check_transcripts(json.loads((run_dir / "transcripts.json").read_text()), checks)
        if record.data["traced"]:
            fused, split = record.data["fused"], record.data["split"]
            pairs = len(ENTRANTS) * (len(ENTRANTS) + 1) // 2
            same = [p for p in fused if split.get(p) == fused[p]]
            checks.expect("split draws + engine reproduce run_games", len(same) == pairs,
                          f"{len(same)} of {pairs} pairings byte-identical")

    @staticmethod
    def _cells(csv: str) -> dict[tuple[str, str], tuple[str, float]]:
        lines = csv.strip().splitlines()
        names = lines[0].split(",")[1:-1]
        cells = {}
        for line in lines[1:]:
            row, *values = line.split(",")
            for col, value in zip(names, values):
                mean, stderr = value.split("±")
                cells[(row, col)] = (mean, float(stderr))
        return cells

    def _check_transcripts(self, payload: dict, checks: Checks) -> None:
        entries = payload["transcripts"]
        pairs = len(ENTRANTS) * (len(ENTRANTS) + 1) // 2
        ok = len(entries) == pairs
        for entry in entries:
            ok &= len(entry["games"]) == self.size.transcripts
            for game in entry["games"]:
                slots = game["slots"]
                ok &= len(slots) == self.size.horizon
                ok &= all(f == x + y for x, y, f in slots)
                ok &= game["scores"] == [sum(x for x, y, f in slots if f == 1),
                                         sum(y for x, y, f in slots if f == 1)]
        checks.expect("transcripts consistent", bool(ok))

    def layer_metrics(self, tracer, record, untraced) -> dict[str, float]:
        selfs = tracer.self_times()
        draw, engine = tracer.total("rng.draw"), tracer.total("batch.engine")
        pairing_s = [s.duration for s in tracer.named("batch.run_games")]
        per_pair = {s.tag: 0.0 for s in tracer.named("batch.engine")}
        for s in tracer.named("batch.engine"):
            per_pair[s.tag] += s.duration
        enhanced = ("four_state_enhanced", "four_state_enhanced")
        plain = ("four_state", "four_state")
        runner = sum(selfs[s.id] for s in tracer.named("cli.runner"))
        return {
            "rng.draw_s": draw,
            "rng.draws": tracer.counts.get("rng.draws", 0),
            "rng.share": _ratio(draw, draw + engine),
            "batch.engine_s": engine,
            "batch.engine_ns_per_game_slot": 1e9 * _ratio(engine, tracer.counts.get("batch.engine_game_slots", 0)),
            "batch.split_overhead_s": sum(selfs[s.id] for s in tracer.named("batch.split_run_games")),
            "batch.override_ratio": _ratio(per_pair.get(enhanced, 0.0), per_pair.get(plain, 0.0)),
            "tournament.jobs_speedup": _ratio(_median(r.steps["replay"][0] for r in untraced),
                                              _median(r.steps["run"][0] for r in untraced)),
            "tournament.pairing_s_p50": _median(pairing_s),
            "tournament.pairing_s_max": max(pairing_s, default=0.0),
            "tournament.self_s": sum(selfs[s.id] for s in tracer.named("tournament.run_tournament")),
            "game.play_game_us_per_slot": 1e6 * _ratio(tracer.total("game.play_game"),
                                                       tracer.counts.get("game.slots", 0)),
            "cli.self_s": sum(selfs[s.id] for s in tracer.named("cli.main")),
            "cli.runner_self_s": runner,
            "cli.bytes_written": record.data["bytes_written"],
            "cli.replay_s": tracer.total("cli.main", lambda tag: tag == "replay"),
            "dsl.load_s": tracer.total("dsl.load_strategy_dir"),
        }


# ---------------------------------------------------------------------------
# capture


@dataclass(frozen=True)
class CaptureSize:
    large_users: int
    large_episodes: int
    small_users: int
    small_episodes: int
    converse_episodes: int
    multichannel_episodes: int


MAX_SLOTS = 10_000


class CaptureWorkload(Workload):
    name = "capture"
    setup_code = "import slotmac.cli\nslotmac.cli.build_parser()\n"

    def prepare(self, checks: Checks) -> None:
        self.z = oracles.capture_values(max(self.size.large_users, 7))
        half = Fraction(1, 2)
        self.three_two = oracles.three_user_two_channel_value(half, Fraction(0), Fraction(1))
        self.grid_min = oracles.three_user_two_channel_grid_min(41)

    def _commands(self, seed: int, out: Path) -> dict[str, list[str]]:
        s = self.size
        common = ["--seed", str(seed)]
        sim = lambda users, episodes: [  # noqa: E731
            "capture", "simulate", "--users", str(users), "--episodes", str(episodes),
            "--max-slots", str(MAX_SLOTS), *common]
        mc = lambda users, channels: [  # noqa: E731
            "multichannel", "simulate", "--users", str(users), "--channels", str(channels),
            "--episodes", str(s.multichannel_episodes), "--max-slots", str(MAX_SLOTS), *common]
        commands = {
            "large": sim(s.large_users, s.large_episodes),
            "small": sim(s.small_users, s.small_episodes),
            "converse": ["capture", "converse", "--episodes", str(s.converse_episodes), *common],
            "three_two": mc(3, 2),
            "two_three": mc(2, 3),
            "optimize": ["multichannel", "optimize"],
        }
        return {key: argv + ["--out-dir", str(_fresh_dir(out / key))] for key, argv in commands.items()}

    def run_pass(self, k: int, tracer=None) -> PassRecord:
        out = self.work / "capture" / f"pass{k}"
        commands = self._commands(pass_seed(self.seed, k), out)

        def body(step):
            rcs = {}
            with _instrumented(tracer, self._instrument):
                for key, argv in commands.items():
                    with step(key):
                        rcs[key] = _cli(argv, tracer, key)
            return {"rc": rcs, "out": out}

        record = self._timed(tracer, body)
        record.data["bytes_written"] = _dir_bytes(out)
        return record

    def _instrument(self, tracer) -> None:
        for command in ("capture simulate", "capture converse", "multichannel simulate", "multichannel optimize"):
            tracer.patch(cli.RUNNERS, command, "cli.runner", tag=command)

        def episodes(layer):
            def record(args, kwargs, summary):
                tracer.count(f"{layer}.episode_slots", summary.mean * summary.completed + summary.censored * MAX_SLOTS)
                tracer.count(f"{layer}.censored", summary.censored)
            return record

        # one optimizer stage per group size 2..n_max
        tracer.patch(cli, "solve_capture_table", "capture.solve_capture_table",
                     on_result=lambda a, kw, table: tracer.count("optimize.stages", table.n_max - 1))
        tracer.patch_aggregate(capture, "capture_objective", "capture.objective")
        tracer.patch(cli, "simulate_capture", "capture.simulate_capture", on_result=episodes("capture"))
        tracer.patch(cli, "converse_checks", "capture.converse_checks")
        for name in ("simulate_two_user", "simulate_three_user_two_channel"):
            tracer.patch(multichannel, name, "multichannel.simulate", on_result=episodes("multichannel"))
        tracer.patch(cli, "optimize_three_user_two_channel", "multichannel.optimize")

    def check(self, record: PassRecord, checks: Checks) -> None:
        out = record.data["out"]
        for key, rc in record.data["rc"].items():
            checks.expect(f"{key} exit status", rc == 0, f"exit {rc}")
        if any(record.data["rc"].values()):
            return
        load = lambda key, name: json.loads((out / key / name).read_text())  # noqa: E731
        for key in ("large", "small"):
            sim = load(key, "capture_sim.json")
            users = sim["users"]
            checks.close(f"solver z_{users}", sim["expected"], self.z[users], tol=1e-9)
            checks.z(f"capture mean, {users} users", sim["mean"], sim["stderr"], self.z[users])
            checks.expect(f"capture censored, {users} users", sim["censored"] == 0, str(sim["censored"]))
        conv = load("converse", "converse.json")
        pair = conv["virtual_pair"]
        checks.z("virtual pair mean", pair["mean"], pair["stderr"], 2)
        checks.expect("virtual pair censored", pair["censored"] == 0, str(pair["censored"]))
        checks.close("relaxation infimum", conv["relaxation"]["value"], self.z[3], tol=1e-6)
        for row in conv["bounds"]:
            checks.close(f"converse z_{row['n']}", row["z"], self.z[row["n"]], tol=1e-9)
            checks.expect(f"naive bound n={row['n']}", row["z"] <= row["naive"] <= math.e)
        checks.expect("probe windows", all(w["inside"] for w in conv["windows"]))
        for key, exact in (("three_two", self.three_two), ("two_three", oracles.two_user_value(3))):
            sim = load(key, "multichannel_sim.json")
            checks.close(f"{key} expected", sim["expected"], exact, tol=1e-12)
            checks.z(f"{key} mean", sim["mean"], sim["stderr"], exact)
            checks.expect(f"{key} censored", sim["censored"] == 0, str(sim["censored"]))
        opt = load("optimize", "multichannel_opt.json")
        for m in (1, 2, 3):
            checks.close(f"two users, {m} channels", opt["two_users"][f"m={m}"], oracles.two_user_value(m), tol=1e-15)
        full, ind = opt["three_users_two_channels"]["full"], opt["three_users_two_channels"]["independent"]
        checks.close("full optimum value", full["value"],
                     oracles.three_user_two_channel_value(full["p"], full["q"], full["r"]), tol=1e-12)
        checks.expect("full optimum beats the grid", full["value"] <= self.grid_min + 1e-12,
                      f"{full['value']!r} > {self.grid_min!r}")
        checks.close("independent optimum value", ind["value"],
                     oracles.three_user_two_channel_value(ind["p"], ind["p"], ind["p"]), tol=1e-12)
        checks.expect("independent family is no better", ind["value"] >= full["value"])

    def layer_metrics(self, tracer, record, untraced) -> dict[str, float]:
        selfs = tracer.self_times()
        evals = tracer.counts.get("capture.objective", 0)
        simulate = tracer.total("capture.simulate_capture")
        mc_simulate = tracer.total("multichannel.simulate")
        return {
            "capture.solve_s": tracer.total("capture.solve_capture_table"),
            "capture.objective_evals": evals,
            "capture.objective_us_per_eval": 1e6 * _ratio(tracer.agg_s.get("capture.objective", 0.0), evals),
            "capture.simulate_s": simulate,
            "capture.episode_slots_per_s": _ratio(tracer.counts.get("capture.episode_slots", 0), simulate),
            "capture.censored": tracer.counts.get("capture.censored", 0),
            "capture.converse_s": tracer.total("capture.converse_checks"),
            "optimize.evals_per_stage": _ratio(evals, tracer.counts.get("optimize.stages", 0)),
            "multichannel.simulate_s": mc_simulate,
            "multichannel.episode_slots_per_s": _ratio(tracer.counts.get("multichannel.episode_slots", 0), mc_simulate),
            "multichannel.optimize_s": tracer.total("multichannel.optimize"),
            "cli.self_s": sum(selfs[s.id] for s in tracer.named("cli.main")),
            "cli.runner_self_s": sum(selfs[s.id] for s in tracer.named("cli.runner")),
            "cli.bytes_written": record.data["bytes_written"],
        }


# ---------------------------------------------------------------------------
# exact


@dataclass(frozen=True)
class ExactSize:
    max_horizon: int


class ExactWorkload(Workload):
    name = "exact"
    setup_code = (
        "from slotmac import analytics\n"
        "from slotmac.batch import compile_machine\n"
        "from slotmac.strategies import BUILTIN_NAMES, builtin\n"
        "compiled = [compile_machine(builtin(n)) for n in BUILTIN_NAMES]\n"
    )

    def prepare(self, checks: Checks) -> None:
        self.cases = [(name, T) for name in BUILTIN_NAMES for T in range(1, self.size.max_horizon + 1)]
        self.expected = {(name, T): oracles.self_play_alpha(builtin(name), T) for name, T in self.cases}

    def run_pass(self, k: int, tracer=None) -> PassRecord:
        order = list(self.cases)
        random.Random(pass_seed(self.seed, k)).shuffle(order)
        machines = {name: builtin(name) for name in BUILTIN_NAMES}

        def body(step):
            values = {}
            with _instrumented(tracer, self._instrument):
                for name, T in order:
                    with step(f"{name} T={T}"), _maybe_span(tracer, "analytics.exact_self_play_alpha", (name, T)):
                        values[(name, T)] = analytics.exact_self_play_alpha(machines[name], T)
            return {"values": values}

        return self._timed(tracer, body)

    @staticmethod
    def _instrument(tracer) -> None:
        tracer.patch(analytics, "run_games_with_uniforms", "batch.run_games_with_uniforms")

    def check(self, record: PassRecord, checks: Checks) -> None:
        for case, value in record.data["values"].items():
            checks.close(f"exact alpha {case}", value, self.expected[case])

    def layer_metrics(self, tracer, record, untraced) -> dict[str, float]:
        selfs = tracer.self_times()
        spans = tracer.named("analytics.exact_self_play_alpha")
        return {
            "batch.exact_engine_s": tracer.total("batch.run_games_with_uniforms"),
            "analytics.exact_s": sum(s.duration for s in spans),
            "analytics.self_s": sum(selfs[s.id] for s in spans),
            "analytics.games_enumerated": sum(4 ** s.tag[1] for s in spans),
        }


WORKLOADS = {w.name: w for w in (TournamentWorkload, CaptureWorkload, ExactWorkload)}

SIZES = {
    "full": {
        "tournament": TournamentSize(runs=16_384, horizon=100, transcripts=2),
        "capture": CaptureSize(large_users=100, large_episodes=4_000_000, small_users=7,
                               small_episodes=4_000_000, converse_episodes=1_000_000,
                               multichannel_episodes=1_000_000),
        "exact": ExactSize(max_horizon=10),
    },
    "tiny": {
        "tournament": TournamentSize(runs=512, horizon=20, transcripts=1),
        "capture": CaptureSize(large_users=12, large_episodes=4_000, small_users=5,
                               small_episodes=4_000, converse_episodes=4_000,
                               multichannel_episodes=4_000),
        "exact": ExactSize(max_horizon=4),
    },
}
