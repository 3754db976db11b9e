"""Seeded profile generation and file formats.

Profiles, scripts and run configs travel as JSON, traces as JSON Lines,
batch results as CSV.  Each JSON format has one reader here, which refuses
unknown keys and values of the wrong JSON type; ``setup_from_json`` reads a
run config into a ready-to-run profile and ``EngineConfig``.  Every
generator is a pure function of its seed.  The worst-case
builders construct the profiles that force the deepest-disagreement
dynamics to take their full iteration count: a stable anchor majority plus
movers starting at maximal distance.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import IO, Iterator, Optional, Sequence, Union

import numpy as np

from . import arrays
from .engine import EngineConfig, Outcome, RunReport
from .errors import ConfigurationError, ParseError
from .policies import ConstraintMode, L1Mode, PolicyKind, PolicySpec, Script
from .rules import NEEDS_TIEBREAK, Profile, RuleSpec, VotingRule
from .spaces import (
    Family,
    Metric,
    Point,
    SpaceSpec,
    point_from_json,
    point_to_json,
)

SUMMARY_FIELDS = (
    "family",
    "distance",
    "rule",
    "epsilon",
    "seed",
    "outcome",
    "moving_iterations",
    "states",
    "final_winner",
)


@dataclass(frozen=True)
class GeneratorSpec:
    """Uniform sampling plan for one space."""

    space: SpaceSpec
    n: int
    seed: int
    euclidean_box: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError("a profile needs at least one agent")
        if self.euclidean_box is not None:
            if self.space.family is not Family.EUCLIDEAN:
                raise ConfigurationError("a sampling box only applies to real vectors")
            try:
                box = tuple((float(lo), float(hi)) for lo, hi in self.euclidean_box)
            except (TypeError, ValueError, OverflowError):
                raise ConfigurationError("a box must list (low, high) number pairs") from None
            if len(box) != self.space.dimension:
                raise ConfigurationError(
                    f"box has {len(box)} ranges for dimension {self.space.dimension}"
                )
            if any(lo > hi for lo, hi in box):
                raise ConfigurationError("box ranges must satisfy low <= high")
            object.__setattr__(self, "euclidean_box", box)


DEFAULT_BOX_RANGE = (0.0, 10.0)


def generate(g: GeneratorSpec) -> Profile:
    """n independent uniform draws from the space, deterministic per seed."""
    rng = random.Random(g.seed)
    space = g.space
    points = []
    for _ in range(g.n):
        if space.family is Family.EUCLIDEAN:
            box = g.euclidean_box or (DEFAULT_BOX_RANGE,) * space.dimension
            if space.integer_lattice:
                coords = [float(rng.randint(int(lo), int(hi))) for lo, hi in box]
            else:
                coords = [rng.uniform(lo, hi) for lo, hi in box]
            points.append(Point.reals(coords))
        elif space.family is Family.BINARY:
            m = space.num_candidates
            if space.committee_size is not None:
                ones = set(rng.sample(range(m), space.committee_size))
                points.append(Point.of_bits(1 if i in ones else 0 for i in range(m)))
            else:
                points.append(Point.of_bits(rng.randrange(2) for _ in range(m)))
        else:
            seq = list(range(space.num_candidates))
            rng.shuffle(seq)
            points.append(Point.of_ranking(seq))
    return Profile(space, tuple(points))


def space_to_json(space: SpaceSpec) -> dict:
    out: dict = {"family": space.family.value, "distance": space.distance.value}
    if space.dimension is not None:
        out["dimension"] = space.dimension
    if space.num_candidates is not None:
        out["num_candidates"] = space.num_candidates
    if space.committee_size is not None:
        out["committee_size"] = space.committee_size
    if space.integer_lattice:
        out["integer_lattice"] = True
    return out


_SPACE_KEYS = {
    "family",
    "distance",
    "dimension",
    "num_candidates",
    "committee_size",
    "integer_lattice",
}


def _fields(obj, what: str, keys: set) -> dict:
    """A JSON object's fields, all named in ``keys``; a null field counts as absent."""
    if not isinstance(obj, dict):
        raise ParseError(f"a {what} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - keys
    if unknown:
        raise ParseError(f"unknown {what} fields: {', '.join(sorted(unknown))}")
    return {key: value for key, value in obj.items() if value is not None}


_JSON_TYPES = {int: "an integer", (int, float): "a number", bool: "true or false",
               str: "a file path", list: "an array"}


def _typed(value, kind, what: str):
    """``value`` if it has the JSON type ``kind`` (a bool is no number); None stays None."""
    if value is not None and (
        not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
    ):
        shown = type(value).__name__ if isinstance(value, (list, dict)) else repr(value)
        raise ParseError(f"{what} must be {_JSON_TYPES[kind]}, got {shown}")
    return value


def _member(kind, value, what: str):
    """The member of enum ``kind`` that is, or has the value, ``value``."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ParseError(f"invalid {what}: {value!r}") from None


def space_from_json(obj) -> SpaceSpec:
    obj = _fields(obj, "space", _SPACE_KEYS)
    for key in ("family", "distance"):
        if key not in obj:
            raise ParseError(f"space is missing the {key!r} field")
    size = {key: _typed(obj.get(key), int, f"space field {key!r}")
            for key in ("dimension", "num_candidates", "committee_size")}
    return SpaceSpec(
        family=_member(Family, obj["family"], "space family"),
        distance=_member(Metric, obj["distance"], "distance"),
        integer_lattice=_typed(obj.get("integer_lattice", False), bool,
                               "space field 'integer_lattice'"),
        **size,
    )


def profile_to_json(profile: Profile) -> dict:
    return {
        "space": space_to_json(profile.spec),
        "points": [point_to_json(profile.spec, p) for p in profile.points],
    }


def profile_from_json(obj) -> Profile:
    obj = _fields(obj, "profile", {"space", "points"})
    if "space" not in obj or "points" not in obj:
        raise ParseError("a profile needs 'space' and 'points' fields")
    space = space_from_json(obj["space"])
    raw = obj["points"]
    if not isinstance(raw, list) or not raw:
        raise ParseError("'points' must be a non-empty array")
    # point_from_json validated each point
    return Profile.of_checked(space, tuple(point_from_json(space, item) for item in raw))


def load_json(path: str):
    """The JSON value in a UTF-8 file; a ParseError names the path on any failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def load_profile(path: str) -> Profile:
    return profile_from_json(load_json(path))


def save_profile(profile: Profile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_json(profile), fh, indent=2)
        fh.write("\n")


def load_script(path: str, space: SpaceSpec) -> tuple[tuple[Point, ...], ...]:
    """A script file is an array of profiles, each an array of point literals.

    Each point is parsed and checked as ``point_from_json`` does; a
    ``PolicySpec`` turns a real-vector script into its array form.
    """
    obj = load_json(path)
    if not isinstance(obj, list) or not obj:
        raise ParseError("a script must be a non-empty array of profiles")
    script = []
    for row, entry in enumerate(obj):
        if not isinstance(entry, list) or not entry:
            raise ParseError(f"script entry {row} must be a non-empty array of points")
        script.append(tuple(point_from_json(space, item) for item in entry))
    sizes = {len(profile) for profile in script}
    if len(sizes) != 1:
        raise ParseError("every script entry must list the same number of agents")
    return tuple(script)


_CONFIG_KEYS = {"space", "profile", "policy", "rule", "n", "seed", "box", "epsilon", "max_iters"}


def setup_from_json(obj) -> tuple[Profile, EngineConfig, int]:
    """Read a run config into its initial profile, engine config and seed.

    This is the one reader of the config format that the README's "Command
    line" section lists.  The initial profile is a scripted policy's first
    entry, else ``profile`` (inline, or a profile file's path), else ``n``
    agents generated from ``seed``; ``n`` and ``box`` are refused when they
    would go unused.
    """
    cfg = _fields(obj, "config", _CONFIG_KEYS)
    seed = _typed(cfg.get("seed", 0), int, "seed")
    n = _typed(cfg.get("n"), int, "n")
    for pair in _typed(cfg.get("box", []), list, "box"):
        for bound in _typed(pair, list, "a box range"):
            _typed(bound, (int, float), "a box bound")
    try:
        epsilon = float(_typed(cfg.get("epsilon", 1.0), (int, float), "epsilon"))
    except OverflowError:
        raise ParseError("epsilon is too large for a float") from None
    space = space_from_json(cfg["space"]) if "space" in cfg else None
    profile = cfg.get("profile")
    if profile is not None:
        profile = load_profile(profile) if isinstance(profile, str) else profile_from_json(profile)
        if space is not None and profile.spec != space:
            raise ParseError("the profile's space differs from the configured space")
        space = profile.spec
    if space is None:
        raise ParseError("no space given (use --space/--distance or the config file)")

    policy = _fields(cfg.get("policy", {}), "policy",
                     {"kind", "seed", "script", "l1_mode", "constraint_mode"})
    kind = _member(PolicyKind, policy.get("kind", PolicyKind.DEFAULT), "policy kind")
    script = _typed(policy.get("script"), str, "policy field 'script'")
    # Deepest-disagreement moves are only auditable one-sidedly, so that
    # metric gets approach-only checking unless the config says otherwise.
    default_mode = (ConstraintMode.APPROACH_ONLY if space.distance is Metric.FIRST_CHANGED
                    else ConstraintMode.STRICT)
    policy = PolicySpec(
        kind=kind,
        seed=_typed(policy.get("seed", seed if kind is PolicyKind.SEEDED_RANDOM else None),
                    int, "policy seed"),
        script=None if script is None else load_script(script, space),
        l1_mode=_member(L1Mode, policy.get("l1_mode", L1Mode.COORD_ORDER), "l1_mode"),
        constraint_mode=_member(
            ConstraintMode, policy.get("constraint_mode", default_mode), "constraint_mode"
        ),
    )
    if policy.kind is PolicyKind.SCRIPTED or profile is not None:
        for key in ("n", "box"):
            if key in cfg:
                raise ParseError(f"{key!r} is unused: a profile or script supplies the agents")
    if policy.kind is PolicyKind.SCRIPTED:
        initial = Profile(space, policy.script[0])
        if profile is not None and profile.points != initial.points:
            raise ParseError("the given profile differs from the script's first entry")
    elif profile is not None:
        initial = profile
    elif n is not None:
        initial = generate(GeneratorSpec(space, n=n, seed=seed, euclidean_box=cfg.get("box")))
    else:
        raise ParseError("no initial profile: give --profile, a script, or --n to generate")

    rule = cfg.get("rule", {})
    rule = _fields({"rule": rule} if isinstance(rule, str) else rule, "rule",
                   {"rule", "tiebreak_order"})
    if "rule" not in rule:
        raise ParseError("no voting rule given (use --rule or the config file)")
    voting_rule = _member(VotingRule, rule["rule"], "rule")
    order = rule.get("tiebreak_order")
    if order is not None:
        order = tuple(
            _typed(c, int, "a tiebreak entry") for c in _typed(order, list, "tiebreak_order")
        )
    elif voting_rule in NEEDS_TIEBREAK and space.num_candidates is not None:
        order = tuple(range(space.num_candidates))
    config = EngineConfig(
        space,
        RuleSpec(voting_rule, order),
        policy,
        epsilon=epsilon,
        max_iters=_typed(cfg.get("max_iters"), int, "max_iters"),
    )
    return initial, config, seed


def relative_to_file(cfg, config_path: str):
    """A run config read from ``config_path``, with the file paths it names
    (``profile`` and ``policy.script``) made relative to that file's directory.

    An absolute path stays as it is; a value of any other type is left for
    ``setup_from_json`` to judge.
    """
    if not isinstance(cfg, dict):
        return cfg
    directory = os.path.dirname(config_path)
    cfg = dict(cfg)
    if isinstance(cfg.get("profile"), str):
        cfg["profile"] = os.path.join(directory, cfg["profile"])
    policy = cfg.get("policy")
    if isinstance(policy, dict) and isinstance(policy.get("script"), str):
        cfg["policy"] = {**policy, "script": os.path.join(directory, policy["script"])}
    return cfg


def batch_from_json(obj) -> list[dict]:
    """The run configs of a batch config: each configuration with each seed, in order."""
    batch = _fields(obj, "batch config", {"seeds", "configurations"})
    for key in ("seeds", "configurations"):
        if not isinstance(batch.get(key), list) or not batch[key]:
            raise ParseError(f"batch config needs a non-empty {key!r} array")
    for entry in batch["configurations"]:
        if "seed" in _fields(entry, "batch configuration", _CONFIG_KEYS):
            raise ParseError("a batch configuration takes its seeds from 'seeds', not 'seed'")
    return [
        {**entry, "seed": seed} for entry in batch["configurations"] for seed in batch["seeds"]
    ]


def save_script(script: Script, space: SpaceSpec, path: str) -> None:
    """Write a script (see ``load_script``): a ``(T + 1, n, d)`` array or point profiles."""
    if isinstance(script, np.ndarray):
        data = script.tolist()
    else:
        data = [[point_to_json(space, p) for p in profile] for profile in script]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")


def write_trace_jsonl(report: RunReport, space: SpaceSpec, out: Union[str, IO[str]]) -> None:
    """One JSON object per observed state, in order.

    Each line holds the bytes ``json.dumps`` gives for the record's
    ``index``, ``points`` (as ``point_to_json`` writes them), ``winner``,
    ``distances`` and ``moved`` (null on a terminal record).  The records of
    an array run are written straight from the run's arrays
    (``IterationRecord.run_arrays``) by ``arrays.trace_texts``, a block of
    records at a time; for real vectors, only the coordinates whose float64
    bit pattern differs from the same entry of the record before are
    formatted again.
    """

    def texts(records: list) -> Iterator[tuple]:
        run = records[0].run_arrays
        if run is not None:
            return arrays.trace_texts(space.family, run, [r.index for r in records])
        return (
            (json.dumps([point_to_json(space, p) for p in r.points]),
             json.dumps(point_to_json(space, r.winner)),
             json.dumps(list(r.distances)),
             json.dumps(list(r.moved) if r.moved is not None else None))
            for r in records
        )

    def emit(fh: IO[str]) -> None:
        # consecutive records of one array run are written together
        for _, group in itertools.groupby(report.trace, key=lambda r: id(r.run_arrays)):
            records = list(group)
            for r, (points, winner, distances, moved) in zip(records, texts(records)):
                fh.write(
                    f'{{"index": {r.index}, "points": {points}, "winner": {winner}, '
                    f'"distances": {distances}, "moved": {moved}}}\n'
                )

    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            emit(fh)
    else:
        emit(out)


def final_winner(report: RunReport) -> Point:
    return report.point if report.point is not None else report.trace[-1].winner


def summary_row(
    report: RunReport, config: EngineConfig, seed: Optional[int] = None
) -> dict:
    return {
        "family": config.space.family.value,
        "distance": config.space.distance.value,
        "rule": config.rule.rule.value,
        "epsilon": config.epsilon,
        "seed": "" if seed is None else seed,
        "outcome": report.outcome.value,
        "moving_iterations": report.moving_iterations,
        "states": report.states,
        "final_winner": json.dumps(point_to_json(config.space, final_winner(report))),
    }


def write_summary_csv(rows: Sequence[dict], out: Union[str, IO[str]]) -> None:
    def emit(fh: IO[str]) -> None:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)

    if isinstance(out, str):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
    else:
        emit(out)


def worst_case_vnw(m: int, movers: int, seed: int) -> Profile:
    """Hypercube profile whose movers need the full iteration count.

    A strict majority of anchors sits on a random base point, so bitwise
    majority returns the base no matter where the movers are; each mover
    starts at the base's complement, distance m, and disagrees at every
    position below its current distance, so no move can skip ahead.
    """
    if m < 1 or movers < 1:
        raise ConfigurationError("need at least one position and one mover")
    rng = random.Random(seed)
    base = [rng.randrange(2) for _ in range(m)]
    space = SpaceSpec(Family.BINARY, Metric.FIRST_CHANGED, num_candidates=m)
    anchors = [Point.of_bits(base)] * (movers + 1)
    away = Point.of_bits(1 - b for b in base)
    return Profile(space, tuple(anchors + [away] * movers))


_SWF_WORST_CASE_ANCHORS = {
    VotingRule.BORDA: lambda m: m,
    VotingRule.COPELAND: lambda m: 2,
    VotingRule.KEMENY: lambda m: 2,
}


def worst_case_swf(m: int, rule: VotingRule, seed: int) -> Profile:
    """Ranking profile whose single mover needs the full iteration count.

    Enough anchors on a random base ranking pin the winner to that ranking
    outright (the anchor count depends on how much one ballot can distort
    the rule's scores); the mover starts at the base's reversal, distance m
    under the deepest-disagreement metric.
    """
    if rule not in _SWF_WORST_CASE_ANCHORS:
        raise ConfigurationError(
            f"no worst-case construction for {rule.value}; its winner can drift"
        )
    if m < 2:
        raise ConfigurationError("need at least two candidates")
    rng = random.Random(seed)
    base = list(range(m))
    rng.shuffle(base)
    space = SpaceSpec(Family.RANKING, Metric.FIRST_CHANGED, num_candidates=m)
    anchors = [Point.of_ranking(base)] * _SWF_WORST_CASE_ANCHORS[rule](m)
    return Profile(space, tuple(anchors + [Point.of_ranking(reversed(base))]))
