"""Round-robin tournaments and figure-of-merit reporting.

Every unordered pair of entrants (self-pairings included) plays a common
batch of games; the pair (i, j) and the pair (j, i) are the same games
seen from the two sides, exactly as when two seats play each other once.
Cell (i, j) of the score matrix is entrant i's mean score against entrant
j.  The three figures of merit mirror how the lineup is usually judged:

    alpha: mean score against a copy of yourself (the diagonal)
    beta:  mean score against a dead channel, when the lineup has one
    gamma: mean score over all games played (row mean, self included)

Pairings draw from streams named by (seed, pair, chunk) and write their
cells by index, so ``rng.run_units`` may run them on any number of threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .batch import compile_machine, run_games
from .dsl import StrategyMachine
from .game import check_horizon
from .rng import run_units
from .strategies import never_transmits


@dataclass(frozen=True)
class TournamentConfig:
    entrants: tuple[tuple[str, StrategyMachine], ...]
    horizon: int = 100
    runs: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        names = [name for name, _ in self.entrants]
        if len(names) != len(set(names)):
            raise ValueError("entrant names must be unique")
        if len(names) == 0:
            raise ValueError("need at least one entrant")
        # stored as a plain int: a numpy integer would not serialize to JSON
        object.__setattr__(self, "horizon", check_horizon(self.horizon))
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.seed < 0:  # a deterministic lineup builds no stream to reject it
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def from_machines(cls, machines: dict[str, StrategyMachine], **kwargs) -> "TournamentConfig":
        return cls(entrants=tuple(machines.items()), **kwargs)


@dataclass
class ScoreMatrix:
    names: tuple[str, ...]
    horizon: int
    runs: int
    seed: int
    mean: np.ndarray  # (k, k): row entrant's mean score vs column entrant
    stderr: np.ndarray

    @property
    def totals(self) -> np.ndarray:
        return self.mean.sum(axis=1)

    def cell(self, row: str, col: str) -> tuple[float, float]:
        i = self.names.index(row)
        j = self.names.index(col)
        return float(self.mean[i, j]), float(self.stderr[i, j])

    def to_csv(self) -> str:
        lines = ["entrant," + ",".join(self.names) + ",total"]
        for i, name in enumerate(self.names):
            cells = [f"{self.mean[i, j]:.4f}±{self.stderr[i, j]:.4f}" for j in range(len(self.names))]
            lines.append(f"{name},{','.join(cells)},{self.totals[i]:.4f}")
        return "\n".join(lines) + "\n"


def _sample_stats(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if len(values) < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


def run_tournament(config: TournamentConfig, jobs: int = 1) -> ScoreMatrix:
    """Play the full round robin and tabulate mean scores.

    The diagonal averages (own + twin) / 2 per game, an unbiased and
    lower-variance read on self-play value.  ``jobs`` (the calling thread
    included) only sets how many pairings run at once, never the numbers.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    k = len(config.entrants)
    names = tuple(name for name, _ in config.entrants)
    compiled = [compile_machine(m) for _, m in config.entrants]
    mean = np.zeros((k, k))
    stderr = np.zeros((k, k))

    pairs = [(i, j) for i in range(k) for j in range(i, k)]

    def play_pair(pair: int) -> None:
        i, j = pairs[pair]
        batch = run_games(compiled[i], compiled[j], config.horizon, config.runs, config.seed, pairing=(i, j))
        if i == j:
            per_game = (batch.scores_a + batch.scores_b) / 2.0
            mean[i, i], stderr[i, i] = _sample_stats(per_game)
        else:
            mean[i, j], stderr[i, j] = _sample_stats(batch.scores_a)
            mean[j, i], stderr[j, i] = _sample_stats(batch.scores_b)

    run_units(len(pairs), play_pair, jobs)
    return ScoreMatrix(names, config.horizon, config.runs, config.seed, mean, stderr)


@dataclass(frozen=True)
class MeritRow:
    name: str
    alpha: float
    alpha_stderr: float
    beta: float | None
    beta_stderr: float | None
    gamma: float


@dataclass
class MeritReport:
    horizon: int
    runs: int
    baseline: str | None  # the dead-channel entrant beta is measured against
    rows: list[MeritRow] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "horizon": self.horizon,
            "runs": self.runs,
            "beta_baseline": self.baseline,
            "entrants": [
                {
                    "name": r.name,
                    "alpha": r.alpha,
                    "alpha_stderr": r.alpha_stderr,
                    "beta": r.beta,
                    "beta_stderr": r.beta_stderr,
                    "gamma": r.gamma,
                }
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def merit_report(matrix: ScoreMatrix, config: TournamentConfig) -> MeritReport:
    """Extract the figures of merit from a finished score matrix.

    beta needs a dead-channel entrant in the lineup; it is recognized by
    behavior (no reachable state can transmit), not by name.  Without one,
    beta is reported as undefined rather than guessed.
    """
    names = matrix.names
    baseline = None
    for name, machine in config.entrants:
        if never_transmits(machine):
            baseline = name
            break
    report = MeritReport(matrix.horizon, matrix.runs, baseline)
    k = len(names)
    for i, name in enumerate(names):
        beta = beta_se = None
        if baseline is not None:
            beta, beta_se = matrix.cell(name, baseline)
        report.rows.append(
            MeritRow(
                name=name,
                alpha=float(matrix.mean[i, i]),
                alpha_stderr=float(matrix.stderr[i, i]),
                beta=beta,
                beta_stderr=beta_se,
                gamma=float(matrix.totals[i] / k),
            )
        )
    return report
