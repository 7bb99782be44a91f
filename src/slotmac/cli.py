"""Command-line front end.

Every command that writes files also writes a ``manifest.json`` capturing
the tool version, the command, and its fully resolved options.  A manifest
can be fed back through ``slotmac replay`` to regenerate the outputs; the
bytes come out identical whatever ``--jobs`` is set to, because every
random draw is named by (seed, stream id), never by scheduling.

A replay rebuilds the command line its manifest records and parses it
like a typed one, so both reach a runner through the same checks.  The
master seed is taken from ``--seed`` when given, else from the
``SLOTMAC_SEED`` environment variable, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__
from .analytics import alpha_optimal, beta3, beta4, expected_y
from .capture import (
    MAX_USERS,
    FixedProbabilityPolicy,
    GroupSplittingPolicy,
    converse_checks,
    simulate_capture,
    solve_capture_table,
)
from .dsl import analyze_strategy, machine_source
from .game import play_game
from .multichannel import (
    beta_theta_full,
    beta_theta_independent,
    optimize_three_user_two_channel,
    renewal_value,
    resolve_multichannel,
    two_user_capture_time,
)
from .rng import DOMAIN_MISC, RngStream
from .strategies import DEFAULT_LINEUP, corpus_dir, load_strategy_dir
from .tournament import TournamentConfig, merit_report, run_tournament

MANIFEST_NAME = "manifest.json"


@dataclass
class CommandResult:
    summary: str
    files: dict[str, str]


def _json_text(payload) -> str:
    # NaN is not JSON: an undefined value must be written as null, never as NaN
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# command runners: plain-dict options in, text files out


def _exec_tournament(opts: dict) -> CommandResult:
    dump = opts["dump_transcripts"]
    if dump < 0:
        raise ValueError(f"--dump-transcripts must be at least 0, got {dump}")
    machines = load_strategy_dir(opts["strategy_dir"] or corpus_dir())
    names = opts["entrants"]
    missing = [n for n in names if n not in machines]
    if missing:
        raise ValueError(f"unknown entrants: {', '.join(missing)}")
    config = TournamentConfig(
        entrants=tuple((n, machines[n]) for n in names),
        horizon=opts["horizon"],
        runs=opts["runs"],
        seed=opts["seed"],
    )
    matrix = run_tournament(config, jobs=opts["jobs"])
    report = merit_report(matrix, config)
    files = {"score_matrix.csv": matrix.to_csv(), "merit.json": report.to_json()}
    if dump:
        files["transcripts.json"] = _transcripts(config, dump)
    lines = [
        f"tournament: {len(names)} entrants, horizon {config.horizon}, "
        f"{config.runs} runs per pairing, seed {config.seed}",
        "",
        matrix.to_csv().rstrip(),
        "",
        "figures of merit (alpha self-play, beta vs dead channel, gamma overall):",
    ]
    for row in report.rows:
        beta_txt = f"{row.beta:8.3f}" if row.beta is not None else "  (n/a)"
        lines.append(f"  {row.name:20s} alpha {row.alpha:8.3f}  beta {beta_txt}  gamma {row.gamma:8.3f}")
    return CommandResult("\n".join(lines), files)


def _transcripts(config: TournamentConfig, games_per_pair: int) -> str:
    """transcripts.json, written directly: the bytes ``_json_text`` gives
    {"transcripts": [{"games": [{"scores", "slots"}], "pairing"}]}, without
    the pure-Python encoder ``json.dumps`` falls back to under ``indent``."""
    rows = {(x, y): "\n{0}[\n{0}  {1},\n{0}  {2},\n{0}  {3}\n{0}]".format(" " * 12, x, y, x + y)
            for x in (0, 1) for y in (0, 1)}  # the four [x, y, f] slot rows
    entries = []
    k = len(config.entrants)
    for i in range(k):
        for j in range(i, k):
            (name_i, machine_i), (name_j, machine_j) = config.entrants[i], config.entrants[j]
            games = []
            for g in range(games_per_pair):
                transcript = play_game(
                    machine_i, machine_j, config.horizon,
                    RngStream(config.seed, (DOMAIN_MISC, i, j, g, 0)),
                    RngStream(config.seed, (DOMAIN_MISC, i, j, g, 1)),
                )
                a, b = transcript.scores
                slots = ",".join([rows[r.decisions] for r in transcript.slots])
                games.append(f'\n        {{\n          "scores": [\n            {a},\n            {b}\n'
                             f'          ],\n          "slots": [{slots}\n          ]\n        }}')
            games_text = f"[{','.join(games)}\n      ]" if games else "[]"
            entries.append(f'\n    {{\n      "games": {games_text},\n      "pairing": [\n'
                           f"        {json.dumps(name_i)},\n        {json.dumps(name_j)}\n      ]\n    }}")
    return f'{{\n  "transcripts": [{",".join(entries)}\n  ]\n}}\n'


def _exec_analytics(opts: dict) -> CommandResult:
    t_min, t_max = opts["t_min"], opts["t_max"]
    if not 1 <= t_min <= t_max:
        raise ValueError("need 1 <= t-min <= t-max")
    lines = ["T,alpha,expected_y,beta3,beta4"]
    for t in range(t_min, t_max + 1):
        lines.append(
            f"{t},{float(alpha_optimal(t))!r},{float(expected_y(t))!r},"
            f"{float(beta3(t))!r},{float(beta4(t))!r}"
        )
    csv = "\n".join(lines) + "\n"
    return CommandResult(csv.rstrip(), {"analytics.csv": csv})


def _exec_capture_solve(opts: dict) -> CommandResult:
    table = solve_capture_table(opts["n_max"], opts["tol"])
    return CommandResult(table.to_csv().rstrip(), {"capture_table.csv": table.to_csv()})


def _exec_capture_simulate(opts: dict) -> CommandResult:
    users = opts["users"]
    if opts["fixed_p"] is not None:
        policy = FixedProbabilityPolicy(opts["fixed_p"])
        expected = None
        policy_desc = {"kind": "fixed", "p": opts["fixed_p"]}
    else:
        if not 1 <= users <= MAX_USERS:
            raise ValueError(f"--users must be in 1..{MAX_USERS} for the solved policy; --fixed-p has no upper limit")
        table = solve_capture_table(users)
        policy = GroupSplittingPolicy(table)
        expected = table.values[users]
        policy_desc = {"kind": "group-splitting", "p": table.probs[users]}
    summary = simulate_capture(policy, users, opts["episodes"], opts["seed"], max_slots=opts["max_slots"])
    payload = {"users": users, "policy": policy_desc, "expected": expected, **summary.to_json_dict()}
    text = (
        f"capture simulate: {users} users, {summary.episodes} episodes, "
        f"mean {summary.mean:.5f} (stderr {summary.stderr:.5f}, censored {summary.censored})"
    )
    if expected is not None:
        text += f"\nsolver value for comparison: {expected:.5f}"
    return CommandResult(text, {"capture_sim.json": _json_text(payload)})


def _exec_capture_converse(opts: dict) -> CommandResult:
    table = solve_capture_table(opts["n_max"])
    report = converse_checks(table, episodes=opts["episodes"], seed=opts["seed"])
    text = [
        f"virtual pair mean {report.virtual_pair.mean:.4f} (target 2)",
        f"three-user relaxation infimum {report.relaxation_value:.6f} at "
        f"a={report.relaxation_argmin[0]:.4f}, c={report.relaxation_argmin[1]:.4f} "
        f"(z3 = {report.z3:.6f})",
        "n, z_n, naive (1-1/n)^-(n-1):",
    ]
    for n, z, bound in report.bounds:
        text.append(f"  {n}: {z:.5f} <= {bound:.5f}")
    return CommandResult("\n".join(text), {"converse.json": _json_text(report.to_json_dict())})


def _exec_multichannel_optimize(opts: dict) -> CommandResult:
    result = optimize_three_user_two_channel(grid=opts["grid"], tol=opts["tol"])
    two_user = {f"m={m}": float(two_user_capture_time(m)) for m in (1, 2, 3)}
    payload = {"three_users_two_channels": result.to_json_dict(), "two_users": two_user}
    files = {"multichannel_opt.json": _json_text(payload)}
    if opts["emit_plot_data"]:
        files["multichannel_sweep.csv"] = _sweep_csv(result)
    p, q, r = result.full.params
    text = (
        f"three users, two channels:\n"
        f"  full family optimum   (p,q,r) = ({p:.4f}, {q:.4f}, {r:.4f})  value {result.full.value:.5f}\n"
        f"  independent optimum    p = {result.independent.params[0]:.6f}  value {result.independent.value:.5f}\n"
        f"two users: m=1 -> 2, m=2 -> 4/3, m=3 -> 8/7"
    )
    return CommandResult(text, files)


def _sweep_csv(result) -> str:
    # value profiles along p for plotting: the independent family, and the
    # full family with (q, r) pinned at the optimum
    _, q_star, r_star = result.full.params
    lines = ["family,p,q,r,beta,theta,value"]
    for i in range(1, 1000):
        p = i / 1000.0
        bt = beta_theta_independent(p)
        lines.append(f"independent,{p:.3f},{p:.3f},{p:.3f},{bt.beta!r},{bt.theta!r},{renewal_value(bt)!r}")
    for i in range(0, 1001):
        p = i / 1000.0
        bt = beta_theta_full(p, q_star, r_star)
        lines.append(f"full,{p:.3f},{q_star!r},{r_star!r},{bt.beta!r},{bt.theta!r},{renewal_value(bt)!r}")
    return "\n".join(lines) + "\n"


def _exec_multichannel_simulate(opts: dict) -> CommandResult:
    users, channels = opts["users"], opts["channels"]
    simulate, expected = resolve_multichannel(users, channels, opts["params"])
    summary = simulate(opts["episodes"], opts["seed"], max_slots=opts["max_slots"])
    payload = {"users": users, "channels": channels, "params": opts["params"], "expected": expected,
               **summary.to_json_dict()}
    text = (
        f"multichannel simulate: {users} users on {channels} channel(s), "
        f"mean {summary.mean:.5f} (stderr {summary.stderr:.5f}), expected {expected:.5f}"
    )
    return CommandResult(text, {"multichannel_sim.json": _json_text(payload)})


RUNNERS: dict[str, Callable[[dict], CommandResult]] = {
    "tournament": _exec_tournament,
    "analytics": _exec_analytics,
    "capture solve": _exec_capture_solve,
    "capture simulate": _exec_capture_simulate,
    "capture converse": _exec_capture_converse,
    "multichannel optimize": _exec_multichannel_optimize,
    "multichannel simulate": _exec_multichannel_simulate,
}


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """Raises an input error as a ValueError, which ``main`` reports like
    any other, where argparse would print usage and exit 2."""

    def error(self, message: str):
        raise ValueError(message)


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value {text!r} (--seed, else $SLOTMAC_SEED)") from None


def _params(text: str) -> list[float]:
    values = [float(x) for x in text.split(",")]
    if len(values) != 3:
        raise argparse.ArgumentTypeError("--params needs exactly three comma-separated values")
    return values


def _add_seed(parser: argparse.ArgumentParser) -> None:
    # a string default goes through type= too, so a bad $SLOTMAC_SEED is an input error
    parser.add_argument("--seed", type=_seed, default=os.environ.get("SLOTMAC_SEED") or "0",
                        help="master seed (default: $SLOTMAC_SEED, else 0)")


def _add_out_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="write outputs plus a manifest.json here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slotmac",
                     description="Slotted channel games: tournaments, closed forms, capture times.")
    parser.add_argument("--version", action="version", version=f"slotmac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tournament", help="round-robin tournament of strategy machines")
    t.add_argument("--entrants", type=lambda text: [s for s in text.split(",") if s],
                   default=",".join(DEFAULT_LINEUP),
                   help="comma-separated machine names (default: the six-machine built-in lineup)")
    t.add_argument("--strategy-dir", type=lambda text: str(Path(text).resolve()), default=None,
                   help="load .strat files from this directory instead of the builtins")
    t.add_argument("--horizon", type=int, default=100)
    t.add_argument("--runs", type=int, default=1000, help="games per pairing")
    t.add_argument("--jobs", type=int, default=1, help="pairings to run concurrently")
    t.add_argument("--dump-transcripts", type=int, default=0, metavar="N",
                   help="also write N example game transcripts per pairing")
    _add_seed(t)
    _add_out_dir(t)

    a = sub.add_parser("analytics", help="closed-form score table over a horizon range")
    a.add_argument("--t-min", type=int, default=1)
    a.add_argument("--t-max", type=int, default=100)
    _add_out_dir(a)

    c = sub.add_parser("capture", help="n-user capture time tools")
    csub = c.add_subparsers(dest="subcommand", required=True)
    cs = csub.add_parser("solve", help="solve the capture recursion table")
    cs.add_argument("--n-max", type=int, default=7)
    cs.add_argument("--tol", type=float, default=1e-9)
    _add_out_dir(cs)
    ci = csub.add_parser("simulate", help="Monte Carlo the capture time")
    ci.add_argument("--users", type=int, required=True)
    ci.add_argument("--episodes", type=int, default=100_000)
    ci.add_argument("--max-slots", type=int, default=10_000)
    ci.add_argument("--fixed-p", type=float, default=None,
                    help="use a fixed transmit probability instead of the solved policy")
    _add_seed(ci)
    _add_out_dir(ci)
    cc = csub.add_parser("converse", help="floor evidence for the solved table")
    cc.add_argument("--n-max", type=int, default=7)
    cc.add_argument("--episodes", type=int, default=200_000)
    _add_seed(cc)
    _add_out_dir(cc)

    m = sub.add_parser("multichannel", help="capture with parallel channels")
    msub = m.add_subparsers(dest="subcommand", required=True)
    mo = msub.add_parser("optimize", help="optimize the three-user two-channel families")
    mo.add_argument("--grid", type=int, default=101)
    mo.add_argument("--tol", type=float, default=1e-6)
    mo.add_argument("--emit-plot-data", action="store_true",
                    help="also write a value-vs-p sweep as CSV")
    _add_out_dir(mo)
    ms = msub.add_parser("simulate", help="Monte Carlo a multichannel configuration")
    ms.add_argument("--users", type=int, required=True, choices=(2, 3))
    ms.add_argument("--channels", type=int, required=True)
    ms.add_argument("--episodes", type=int, default=100_000)
    ms.add_argument("--max-slots", type=int, default=10_000)
    ms.add_argument("--params", type=_params, default=None,
                    help="three users on two channels: p,q,r (default 0.5,0,1)")
    _add_seed(ms)
    _add_out_dir(ms)

    v = sub.add_parser("validate", help="parse and validate .strat files")
    v.add_argument("files", nargs="+", type=Path)
    v.add_argument("--echo", action="store_true", help="print the canonical form of valid files alone on stdout, the rest on stderr")

    r = sub.add_parser("replay", help="re-run a command from its manifest")
    r.add_argument("manifest", type=Path)
    r.add_argument("--jobs", type=int, default=None, help="override the recorded jobs setting")
    r.add_argument("--out-dir", type=Path, default=None,
                   help="write outputs here (default: alongside the manifest)")
    return parser


def _collect_options(args: argparse.Namespace) -> tuple[str, dict]:
    """The command name and its options: every parsed argument except the
    routing keys and --out-dir."""
    command = " ".join(getattr(args, key) for key in ("command", "subcommand") if hasattr(args, key))
    return command, {k: v for k, v in vars(args).items() if k not in ("command", "subcommand", "out_dir")}


def _write_outputs(out_dir: Path, command: str, opts: dict, files: dict[str, str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    manifest = {
        "tool": "slotmac",
        "version": __version__,
        "command": command,
        # jobs is pure execution detail; it never changes any output byte,
        # so it is not part of a run's identity
        "options": {k: v for k, v in opts.items() if k != "jobs"},
        "outputs": sorted(files),
    }
    (out_dir / MANIFEST_NAME).write_text(_json_text(manifest), encoding="utf-8")


def _run_validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.files:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            status = 1
            continue
        report = analyze_strategy(text)
        # with --echo, stdout holds the canonical sources alone
        notes = sys.stderr if args.echo else sys.stdout
        for diag in report.diagnostics:
            print(f"{path}:{diag.render()}", file=notes)
        if report.machine is None:
            status = 1
        else:
            print(f"{path}: ok ({report.machine.name}, {len(report.machine.states)} states)", file=notes)
            if args.echo:
                print(machine_source(report.machine), end="")
    return status


def _run_replay(args: argparse.Namespace) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
        if not isinstance(manifest, dict):
            raise ValueError("manifest is not a JSON object")
        if "command" not in manifest:
            raise ValueError("manifest has no command")
        command, options = manifest["command"], manifest.get("options")
        if not isinstance(command, str) or command not in RUNNERS:
            raise ValueError(f"manifest names unknown command {command!r}")
        if not isinstance(options, dict):
            raise ValueError("manifest has no options object")
        # the command line the manifest records: each option as --key=value,
        # a list comma-joined, true a bare flag, null and false left out
        argv = command.split()
        for key, value in options.items():
            if value is not None and value is not False:
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                argv.append("--" + key.replace("_", "-") + ("" if value is True else "=" + text))
        if command == "tournament" and args.jobs is not None:
            argv.append(f"--jobs={args.jobs}")
        try:  # an option that asks for --help prints it and exits
            _, opts = _collect_options(build_parser().parse_args(argv))
        except SystemExit:
            raise ValueError("manifest options ask for --help") from None
        # accepted only as the fixed point of that command line; JSON texts
        # are compared, as 0 == False in Python
        recorded = {k: v for k, v in opts.items() if k != "jobs"}
        for key in sorted(recorded.keys() | options.keys()):
            if key not in options:
                raise ValueError(f"manifest options have no {key!r}")
            read = json.dumps(recorded[key]) if key in recorded else "nothing"
            if json.dumps(options[key]) != read:
                raise ValueError(f"manifest option {key!r} is {json.dumps(options[key])}, "
                                 f"which its command line reads as {read}")
        result = RUNNERS[command](opts)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.manifest}: manifest is not JSON: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{args.manifest}: {exc}") from None
    print(result.summary)
    _write_outputs(args.out_dir or args.manifest.parent, command, opts, result.files)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "validate":
            return _run_validate(args)
        if args.command == "replay":
            return _run_replay(args)
        command, opts = _collect_options(args)
        result = RUNNERS[command](opts)
        print(result.summary)
        if args.out_dir is not None:
            _write_outputs(args.out_dir, command, opts, result.files)
        return 0
    except (ValueError, OSError) as exc:
        print(f"slotmac: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
