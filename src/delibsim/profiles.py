"""Seeded profile generation and file formats.

Profiles and scripts travel as JSON, traces as JSON Lines, batch results
as CSV.  Every generator is a pure function of its seed.  The worst-case
builders construct the profiles that force the deepest-disagreement
dynamics to take their full iteration count: a stable anchor majority plus
movers starting at maximal distance.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from typing import IO, Optional, Sequence, Union

from . import arrays
from .engine import EngineConfig, Outcome, RunReport
from .errors import ConfigurationError, ParseError
from .rules import Profile, VotingRule
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


def space_from_json(obj) -> SpaceSpec:
    if not isinstance(obj, dict):
        raise ParseError(f"a space must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _SPACE_KEYS
    if unknown:
        raise ParseError(f"unknown space fields: {', '.join(sorted(unknown))}")
    for key in ("family", "distance"):
        if key not in obj:
            raise ParseError(f"space is missing the {key!r} field")
    try:
        family = Family(obj["family"])
        distance = Metric(obj["distance"])
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    for key in ("dimension", "num_candidates", "committee_size"):
        value = obj.get(key)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise ParseError(f"space field {key!r} must be an integer, got {value!r}")
    return SpaceSpec(
        family=family,
        distance=distance,
        dimension=obj.get("dimension"),
        num_candidates=obj.get("num_candidates"),
        committee_size=obj.get("committee_size"),
        integer_lattice=bool(obj.get("integer_lattice", False)),
    )


def profile_to_json(profile: Profile) -> dict:
    return {
        "space": space_to_json(profile.spec),
        "points": [point_to_json(profile.spec, p) for p in profile.points],
    }


def profile_from_json(obj) -> Profile:
    if not isinstance(obj, dict) or "space" not in obj or "points" not in obj:
        raise ParseError("a profile needs 'space' and 'points' fields")
    space = space_from_json(obj["space"])
    raw = obj["points"]
    if not isinstance(raw, list) or not raw:
        raise ParseError("'points' must be a non-empty array")
    return Profile(space, tuple(point_from_json(space, item) for item in raw))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def load_profile(path: str) -> Profile:
    return profile_from_json(_load_json(path))


def save_profile(profile: Profile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_json(profile), fh, indent=2)
        fh.write("\n")


def load_script(path: str, space: SpaceSpec) -> tuple[tuple[Point, ...], ...]:
    """A script file is an array of profiles, each an array of point literals."""
    obj = _load_json(path)
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


def save_script(
    script: Sequence[Sequence[Point]], space: SpaceSpec, path: str
) -> None:
    data = [[point_to_json(space, p) for p in profile] for profile in script]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")


def write_trace_jsonl(report: RunReport, space: SpaceSpec, out: Union[str, IO[str]]) -> None:
    """One JSON object per observed state, in order.

    Each line holds the bytes ``json.dumps`` gives for the record's
    ``index``, ``points`` (as ``point_to_json`` writes them), ``winner``,
    ``distances`` and ``moved`` (null on a terminal record).  Array-backed
    states are written straight from their arrays.  For real vectors, a
    coordinate whose float64 bit pattern equals the same entry of the
    previous state reuses that entry's text; only the previous state's texts
    are kept, and every other bit pattern, distances included, is formatted
    once per state.
    """

    def emit(fh: IO[str]) -> None:
        state_json = arrays.StateJson()
        for r in report.trace:
            if r.array is not None and space.family is Family.EUCLIDEAN:
                points = state_json(r.array)
                distances = arrays.floats_json(r.distances)
            else:
                if r.array is not None:
                    points = json.dumps(arrays.to_json(r.array))
                else:
                    points = json.dumps([point_to_json(space, p) for p in r.points])
                distances = json.dumps(list(r.distances))
            winner = json.dumps(point_to_json(space, r.winner))
            moved = json.dumps(list(r.moved) if r.moved is not None else None)
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
