"""Slotted multiple-access channel games: optimal-by-symmetry strategy
machines, round-robin tournaments, and minimum expected capture time for n
users on one or more shared channels."""

from .analytics import alpha_optimal, beta3, beta4, exact_self_play_alpha, expected_y, first_success_pmf
from .batch import GameBatch, compile_machine, run_games, run_games_with_uniforms
from .capture import (
    CaptureTable,
    ConverseReport,
    FixedProbabilityPolicy,
    GroupSplittingPolicy,
    SimSummary,
    capture_objective,
    converse_checks,
    simulate_capture,
    solve_capture_table,
)
from .dsl import (
    Diagnostic,
    StateSpec,
    StrategyMachine,
    StrategyParseError,
    analyze_strategy,
    check_machine,
    is_deterministic,
    machine_source,
    parse_strategy,
    validate_machine,
)
from .game import (
    CapturePolicy,
    EpisodeResult,
    GameTranscript,
    SlotRecord,
    play_capture_episode,
    play_game,
)
from .multichannel import (
    BetaTheta,
    ThreeUserOptimum,
    beta_theta_full,
    beta_theta_independent,
    optimize_three_user_two_channel,
    renewal_value,
    simulate_multichannel,
    two_user_capture_time,
)
from .rng import RngStream
from .strategies import BUILTIN_NAMES, DEFAULT_LINEUP, builtin, corpus_dir, load_strategy_dir, load_strategy_file
from .tournament import MeritReport, ScoreMatrix, TournamentConfig, merit_report, run_tournament

__version__ = "0.1.0"
