"""Command-line interface.

Four subcommands: ``run`` executes one deliberation and writes its trace,
``batch`` sweeps seeds times configurations into a summary CSV,
``reproduce`` replays a named built-in scenario against its expected
outputs, and ``verify`` executes the seeded check matrix.

Exit codes are a stable contract: 0 for a converged run (or a clean
command), 2 for a detected cycle, 3 for a capped run, 4 for a failed
verification, and 1 for any configuration or input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import IO, Optional, Sequence

from .engine import EngineConfig, Outcome, run
from .errors import DelibError, ParseError
from .policies import ConstraintMode, L1Mode, PolicyKind, PolicySpec
from .profiles import (
    GeneratorSpec,
    generate,
    load_profile,
    load_script,
    profile_from_json,
    space_from_json,
    summary_row,
    write_summary_csv,
    write_trace_jsonl,
)
from .replays import DEFAULT_ESCAPE_ITERATIONS, REPLAY_NAMES, replay
from .rules import NEEDS_TIEBREAK, Profile, RuleSpec, VotingRule
from .spaces import Family, Metric, SpaceSpec
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


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise ParseError("a config file must hold a JSON object")
    return obj


def _convert(kind, value, what: str):
    """``kind(value)`` for a value read from a config file; a ParseError if it does not fit."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"invalid {what}: {value!r}") from None


def _resolve_space(cfg: dict, args: argparse.Namespace) -> Optional[SpaceSpec]:
    obj = cfg.get("space") or {}
    if not isinstance(obj, dict):
        raise ParseError(f"a space must be an object, got {type(obj).__name__}")
    obj = dict(obj)
    if getattr(args, "space", None):
        obj["family"] = args.space
    if getattr(args, "distance", None):
        obj["distance"] = args.distance
    if "family" not in obj and not obj:
        return None
    family = obj.get("family")
    if getattr(args, "dim", None) is not None:
        obj["dimension"] = args.dim
    if getattr(args, "m", None) is not None:
        if family == Family.EUCLIDEAN.value:
            obj["dimension"] = args.m
        else:
            obj["num_candidates"] = args.m
    if getattr(args, "k", None) is not None:
        obj["committee_size"] = args.k
    return space_from_json(obj)


def _space_size(space: SpaceSpec) -> int:
    if space.family is Family.EUCLIDEAN:
        return space.dimension
    return space.num_candidates


def _resolve_rule(cfg: dict, args: argparse.Namespace, space: SpaceSpec) -> RuleSpec:
    obj = cfg.get("rule")
    kind_name = None
    tiebreak = None
    if isinstance(obj, str):
        kind_name = obj
    elif isinstance(obj, dict):
        kind_name = obj.get("rule")
        tiebreak = obj.get("tiebreak_order")
    elif obj is not None:
        raise ParseError("'rule' must be a rule name or an object")
    if getattr(args, "rule", None):
        kind_name = args.rule
    if kind_name is None:
        raise ParseError("no voting rule given (use --rule or the config file)")
    kind = _convert(VotingRule, kind_name, "rule")
    if tiebreak is None and kind in NEEDS_TIEBREAK:
        tiebreak = tuple(range(_space_size(space)))
    return RuleSpec(kind, tiebreak)


def _resolve_policy(
    cfg: dict, args: argparse.Namespace, space: SpaceSpec, default_seed: Optional[int]
) -> PolicySpec:
    obj = dict(cfg.get("policy") or {})
    if getattr(args, "policy", None):
        obj["kind"] = args.policy
    kind = _convert(PolicyKind, obj.get("kind", PolicyKind.DEFAULT.value), "policy kind")
    seed = obj.get("seed")
    if seed is None and kind is PolicyKind.SEEDED_RANDOM:
        seed = default_seed
    if seed is not None:
        seed = _convert(int, seed, "policy seed")
    script = None
    if "script" in obj and obj["script"] is not None:
        script = load_script(obj["script"], space)
    # Deepest-disagreement moves are only auditable one-sidedly, so that
    # metric gets approach-only checking unless the config says otherwise.
    default_mode = (
        ConstraintMode.APPROACH_ONLY
        if space.distance is Metric.FIRST_CHANGED
        else ConstraintMode.STRICT
    )
    return PolicySpec(
        kind=kind,
        seed=seed,
        script=script,
        l1_mode=_convert(L1Mode, obj.get("l1_mode", L1Mode.COORD_ORDER.value), "l1_mode"),
        constraint_mode=_convert(
            ConstraintMode, obj.get("constraint_mode", default_mode.value), "constraint_mode"
        ),
    )


def _setting(cfg: dict, args: argparse.Namespace, name: str, default=None):
    """A flag's value when the command has that flag and it was given, else the config's."""
    value = getattr(args, name, None)
    return value if value is not None else cfg.get(name, default)


def _setup(cfg: dict, args: argparse.Namespace) -> tuple[Profile, EngineConfig, int]:
    """Merge config file and flag overrides into a ready-to-run pair."""
    seed = _convert(int, _setting(cfg, args, "seed", 0), "seed")
    space = _resolve_space(cfg, args)
    profile = None
    profile_src = getattr(args, "profile", None) or cfg.get("profile")
    if profile_src is not None:
        profile = (
            load_profile(profile_src)
            if isinstance(profile_src, str)
            else profile_from_json(profile_src)
        )
        if space is not None and profile.spec != space:
            raise ParseError("the profile's space differs from the configured space")
        space = profile.spec
    if space is None:
        raise ParseError("no space given (use --space/--distance or the config file)")
    policy = _resolve_policy(cfg, args, space, seed)
    if policy.kind is PolicyKind.SCRIPTED:
        initial = Profile(space, policy.script[0])
        if profile is not None and profile.points != initial.points:
            raise ParseError("the given profile differs from the script's first entry")
    elif profile is not None:
        initial = profile
    else:
        n = _setting(cfg, args, "n")
        if n is None:
            raise ParseError(
                "no initial profile: give --profile, a script, or --n to generate"
            )
        box = cfg.get("box")
        initial = generate(
            GeneratorSpec(
                space,
                n=_convert(int, n, "n"),
                seed=seed,
                euclidean_box=box or None,
            )
        )
    rule = _resolve_rule(cfg, args, space)
    max_iters = _setting(cfg, args, "max_iters")
    config = EngineConfig(
        space,
        rule,
        policy,
        epsilon=_convert(float, _setting(cfg, args, "epsilon", 1.0), "epsilon"),
        max_iters=_convert(int, max_iters, "max_iters") if max_iters is not None else None,
    )
    return initial, config, seed


def cmd_run(args: argparse.Namespace) -> int:
    try:
        initial, config, seed = _setup(_load_config_file(args.config), args)
        report = run(initial, config)
    except DelibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.out:
        if args.format == "csv":
            write_summary_csv([summary_row(report, config, seed)], args.out)
        else:
            write_trace_jsonl(report, config.space, args.out)
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
    try:
        cfg = _load_config_file(args.config)
        seeds = cfg.get("seeds")
        entries = cfg.get("configurations")
        if not isinstance(seeds, list) or not seeds:
            raise ParseError("batch config needs a non-empty 'seeds' array")
        if not isinstance(entries, list) or not entries:
            raise ParseError("batch config needs a non-empty 'configurations' array")
        rows = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise ParseError("each batch configuration must be an object")
            for seed in seeds:
                merged = dict(entry)
                merged["seed"] = seed
                initial, config, row_seed = _setup(merged, args)
                report = run(initial, config)
                rows.append(summary_row(report, config, row_seed))
    except DelibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.out:
        write_summary_csv(rows, args.out)
        if not args.quiet:
            print(f"wrote {len(rows)} rows to {args.out}")
    else:
        write_summary_csv(rows, sys.stdout)
    return EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    try:
        result = replay(args.name, iterations=args.iterations)
    except DelibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
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
    try:
        rows = run_verification(
            seeds=range(args.seeds), checks=args.checks, corrupt=args.corrupt
        )
    except DelibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
