"""Command-line interface.

Four subcommands: ``run`` executes one deliberation and writes its trace,
``batch`` sweeps seeds times configurations into a summary CSV,
``reproduce`` replays a named built-in scenario against its expected
outputs, and ``verify`` executes the seeded check matrix.

Config files are read by ``profiles.setup_from_json``: ``run`` writes its
flags over the file's keys and hands it the result, and ``batch`` hands it
each entry of ``profiles.batch_from_json``.  The profile and script paths
that a config file names are read relative to that file's directory
(``profiles.relative_to_file``); ``--profile`` is read relative to the
working directory.  Every
``DelibError``, and an ``--out`` path that cannot be opened, ends in one
``error: ...`` line on stderr.

Exit codes are a stable contract: 0 for a converged run (or a clean
command), 2 for a detected cycle, 3 for a capped run, 4 for a failed
verification, and 1 for any configuration or input error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import IO, Optional, Sequence

from .engine import Outcome, run
from .errors import DelibError, ParseError
from .policies import PolicyKind
from .profiles import (
    batch_from_json,
    load_json,
    relative_to_file,
    setup_from_json,
    summary_row,
    write_summary_csv,
    write_trace_jsonl,
)
from .replays import DEFAULT_ESCAPE_ITERATIONS, REPLAY_NAMES, replay
from .rules import VotingRule
from .spaces import Family, Metric
from .verification import CHECK_FIELDS, CHECK_NAMES, run_verification

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CYCLE = 2
EXIT_CAP = 3
EXIT_VERIFY_FAILED = 4

_OUTCOME_EXIT = {
    Outcome.CONVERGED: EXIT_OK,
    Outcome.CYCLE: EXIT_CYCLE,
    Outcome.CAP_REACHED: EXIT_CAP,
}


def _with_flags(cfg: dict, args: argparse.Namespace) -> dict:
    """The run config with each flag given to ``run`` written over its key: flags win.

    ``--dim``, ``--m`` and ``--k`` size the space that the config or
    ``--space``/``--distance`` name, and are refused when none is named.
    """
    named = cfg.get("space")
    space = {"family": args.space, "distance": args.distance}
    if args.space or args.distance or named:
        space.update(dimension=args.dim, committee_size=args.k)
        if args.m is not None:
            family = args.space or (named.get("family") if isinstance(named, dict) else None)
            space["dimension" if family == Family.EUCLIDEAN.value else "num_candidates"] = args.m
    else:
        for flag, value in (("--dim", args.dim), ("--m", args.m), ("--k", args.k)):
            if value is not None:
                raise ParseError(
                    f"{flag} sizes a space, but none is named (use --space/--distance "
                    "or the config file)"
                )
    return _merge(cfg, {
        "seed": args.seed, "n": args.n, "epsilon": args.epsilon, "max_iters": args.max_iters,
        "profile": args.profile, "rule": {"rule": args.rule}, "policy": {"kind": args.policy},
        "space": space,
    })


def _merge(value, flags: dict):
    """The given (not None) ``flags`` written over ``value``, object by object.

    A value that is not an object is replaced when a flag is given for it, and
    otherwise left for the config reader to judge.
    """
    given = {}
    for key, flag in flags.items():
        if isinstance(flag, dict):
            flag = _merge(value.get(key) if isinstance(value, dict) else None, flag)
        if flag is not None:
            given[key] = flag
    if not given:
        return value
    return {**value, **given} if isinstance(value, dict) else given


def _open_out(path: str) -> IO[str]:
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None


def cmd_run(args: argparse.Namespace) -> int:
    cfg = {}
    if args.config is not None:
        cfg = relative_to_file(load_json(args.config), args.config)
    initial, config, seed = setup_from_json(
        _with_flags(cfg, args) if isinstance(cfg, dict) else cfg
    )
    report = run(initial, config)
    if args.out:
        with _open_out(args.out) as fh:
            if args.format == "csv":
                write_summary_csv([summary_row(report, config, seed)], fh)
            else:
                write_trace_jsonl(report, config.space, fh)
    if not args.quiet:
        row = summary_row(report, config, seed)
        print(
            f"outcome={row['outcome']} moving_iterations={row['moving_iterations']} "
            f"states={row['states']} winner={row['final_winner']}"
        )
        if report.outcome is Outcome.CYCLE:
            print(
                f"cycle: period {report.cycle_period}, "
                f"first seen at iteration {report.cycle_first_index}"
            )
        if report.outcome is Outcome.CAP_REACHED:
            print(f"cap reached; growth_detected={report.growth_detected}")
        if args.out:
            print(f"wrote {args.format} to {args.out}")
    return _OUTCOME_EXIT[report.outcome]


def cmd_batch(args: argparse.Namespace) -> int:
    rows = []
    for cfg in batch_from_json(load_json(args.config)):
        initial, config, seed = setup_from_json(relative_to_file(cfg, args.config))
        rows.append(summary_row(run(initial, config), config, seed))
    if args.out:
        with _open_out(args.out) as fh:
            write_summary_csv(rows, fh)
        if not args.quiet:
            print(f"wrote {len(rows)} rows to {args.out}")
    else:
        write_summary_csv(rows, sys.stdout)
    return EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    result = replay(args.name, iterations=args.iterations)
    if not args.quiet:
        for line in result.lines:
            print(line)
    if result.passed:
        if not args.quiet:
            print(f"{result.name}: ok")
        return EXIT_OK
    for failure in result.failures:
        print(f"{result.name}: {failure}", file=sys.stderr)
    return EXIT_ERROR


def _write_check_rows(rows, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(CHECK_FIELDS)
    for r in rows:
        writer.writerow(
            [r.check, r.configuration, r.seed, "pass" if r.passed else "FAIL",
             r.observed, r.predicted]
        )


def cmd_verify(args: argparse.Namespace) -> int:
    rows = run_verification(seeds=range(args.seeds), checks=args.checks, corrupt=args.corrupt)
    if args.out:
        with _open_out(args.out) as fh:
            _write_check_rows(rows, fh)
    else:
        _write_check_rows(rows, sys.stdout)
    failed = [r for r in rows if not r.passed]
    if not args.quiet:
        print(
            f"{len(rows) - len(failed)}/{len(rows)} checks passed",
            file=sys.stderr,
        )
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delibsim",
        description="Iterative deliberation dynamics over metric opinion spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one deliberation run")
    p_run.add_argument("config", nargs="?", help="JSON config file")
    p_run.add_argument("--space", choices=[f.value for f in Family])
    p_run.add_argument("--distance", choices=[m.value for m in Metric])
    p_run.add_argument("--rule", choices=[r.value for r in VotingRule])
    p_run.add_argument("--epsilon", type=float)
    p_run.add_argument("--policy", choices=[k.value for k in PolicyKind])
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--n", type=int, help="agents to generate")
    p_run.add_argument("--m", type=int, help="candidates (binary/ranking spaces)")
    p_run.add_argument("--k", type=int, help="committee size")
    p_run.add_argument("--dim", type=int, help="dimension (real-vector spaces)")
    p_run.add_argument("--max-iters", dest="max_iters", type=int)
    p_run.add_argument("--profile", help="initial profile JSON file")
    p_run.add_argument("--out", help="output file")
    p_run.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_batch = sub.add_parser("batch", help="run a seeds x configurations matrix")
    p_batch.add_argument("config", help="JSON batch config file")
    p_batch.add_argument("--out", help="summary CSV path (default: stdout)")
    p_batch.add_argument("--quiet", action="store_true")
    p_batch.set_defaults(func=cmd_batch)

    p_rep = sub.add_parser("reproduce", help="replay a named built-in scenario")
    p_rep.add_argument("name", choices=REPLAY_NAMES)
    p_rep.add_argument(
        "--iterations", type=int, default=DEFAULT_ESCAPE_ITERATIONS,
        help="length of the scripted escape runs",
    )
    p_rep.add_argument("--quiet", action="store_true")
    p_rep.set_defaults(func=cmd_reproduce)

    p_ver = sub.add_parser("verify", help="run the seeded check matrix")
    p_ver.add_argument("--seeds", type=int, default=5, help="seeds per check")
    p_ver.add_argument("--checks", nargs="+", choices=CHECK_NAMES)
    p_ver.add_argument("--out", help="report CSV path (default: stdout)")
    p_ver.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p_ver.add_argument("--quiet", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DelibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
