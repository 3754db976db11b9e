"""Voting rules: profile in, winning position out.

Real-vector spaces aggregate element-wise (mean, floored mean, median).
Binary spaces use approval counting (bitwise majority, top-k committees).
Ranking spaces offer the exact swap-distance minimizer (Kemeny, by dynamic
programming over candidate subsets) plus the classic positional/pairwise
rules (Plurality, Borda, Copeland, STV), all returning complete rankings.

Rules that order candidates by score take a tiebreak order: a fixed
permutation of the candidate indices, earlier meaning preferred.  Ties in
scores are broken toward the earlier candidate; ties when picking an
elimination loser are broken against the later candidate.

A rule is checked once, at the boundary: ``RuleSpec`` checks that its order
is a permutation of integers (refusing a bool or ``1.5`` rather than
truncating it), and ``require_compatible``, which ``winner`` calls, that
the rule fits the space and has an order naming every candidate where it
needs one.  The rule functions take what passed and do not check it again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidPointError, UnsupportedSizeError
from .spaces import Family, Point, SpaceSpec, total, validate_point

#: ceiling for the swap-distance minimizer's 2^m-subset tables: ~0.3 s, 9-43 MB at m=16
KEMENY_MAX_CANDIDATES = 16


class VotingRule(str, Enum):
    MEAN = "mean"
    FLOOR_MEAN = "floor_mean"
    MEDIAN = "median"
    MAJORITY = "majority"
    TOPK_MAJORITY = "topk_majority"
    KEMENY = "kemeny"
    PLURALITY = "plurality"
    BORDA = "borda"
    COPELAND = "copeland"
    STV = "stv"


#: rules whose scores feed candidate_scores / scoring_ranking
SCORING_RULES = frozenset({VotingRule.PLURALITY, VotingRule.BORDA, VotingRule.COPELAND})

_RULE_FAMILY = {
    VotingRule.MEAN: Family.EUCLIDEAN,
    VotingRule.FLOOR_MEAN: Family.EUCLIDEAN,
    VotingRule.MEDIAN: Family.EUCLIDEAN,
    VotingRule.MAJORITY: Family.BINARY,
    VotingRule.TOPK_MAJORITY: Family.BINARY,
    VotingRule.KEMENY: Family.RANKING,
    VotingRule.PLURALITY: Family.RANKING,
    VotingRule.BORDA: Family.RANKING,
    VotingRule.COPELAND: Family.RANKING,
    VotingRule.STV: Family.RANKING,
}

#: rules that order candidates by score and so need a tiebreak order
NEEDS_TIEBREAK = frozenset(
    {
        VotingRule.TOPK_MAJORITY,
        VotingRule.PLURALITY,
        VotingRule.BORDA,
        VotingRule.COPELAND,
        VotingRule.STV,
    }
)


@dataclass(frozen=True)
class Profile:
    """An ordered collection of agent positions in one space.

    ``points`` may also be given as an ``(n, d)`` array of real vectors,
    one row per agent.  A real-vector script is an array, so this keeps
    ``Profile(space, script[0])`` working for the scripts that
    ``replays.example3_script`` and ``example4_script`` return, as it did
    when they were tuples of point profiles.
    """

    spec: SpaceSpec
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        points = self.points
        if isinstance(points, np.ndarray):
            points = map(Point.reals, points.tolist())
        object.__setattr__(self, "points", tuple(points))
        if len(self.points) == 0:
            raise ConfigurationError("a profile needs at least one agent")
        for i, p in enumerate(self.points):
            violation = validate_point(self.spec, p)
            if violation is not None:
                raise InvalidPointError(f"agent {i}: {violation}")

    @classmethod
    def of_checked(cls, spec: SpaceSpec, points: tuple[Point, ...]) -> "Profile":
        """A profile of points already validated against ``spec``, not checked again."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "spec", spec)
        object.__setattr__(profile, "points", points)
        return profile

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RuleSpec:
    """A rule choice plus the tiebreak order it may need."""

    rule: VotingRule
    tiebreak_order: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.tiebreak_order is not None:
            try:
                order = tuple(self.tiebreak_order)
            except TypeError:
                raise ConfigurationError("tiebreak order must be a permutation of 0..m-1") from None
            for i, c in enumerate(order):
                # a bool is an Integral too, and int() would truncate 1.5 to 1
                if isinstance(c, bool) or not isinstance(c, numbers.Integral):
                    raise ConfigurationError(f"tiebreak entry {i} = {c!r} is not an integer")
            order = tuple(int(c) for c in order)
            if sorted(order) != list(range(len(order))):
                raise ConfigurationError("tiebreak order must be a permutation of 0..m-1")
            object.__setattr__(self, "tiebreak_order", order)


def tiebreak_positions(m: int, tiebreak: Optional[Sequence[int]]) -> list[int]:
    """Map candidate -> position in the tiebreak order (identity if none given)."""
    if tiebreak is None:
        return list(range(m))
    pos = [0] * m
    for i, c in enumerate(tiebreak):
        pos[c] = i
    return pos


def mean_elementwise(profile: Profile) -> Point:
    """Coordinate-wise arithmetic mean."""
    vectors = [p.real_vector for p in profile.points]
    n = profile.n
    return Point.reals(total(col) / n for col in zip(*vectors))


def floor_mean_elementwise(profile: Profile) -> Point:
    """Coordinate-wise mean rounded down, staying on the integer lattice."""
    mean = mean_elementwise(profile)
    return Point.reals(float(math.floor(x)) for x in mean.real_vector)


def median_elementwise(profile: Profile) -> Point:
    """Coordinate-wise median; with an even number of agents the larger of
    the two middle values is used."""
    vectors = [p.real_vector for p in profile.points]
    n = profile.n
    return Point.reals(sorted(col)[n // 2] for col in zip(*vectors))


def bitwise_majority(profile: Profile) -> Point:
    """Entry-wise majority ballot; an exact tie resolves to 1."""
    n = profile.n
    ballots = [p.bits for p in profile.points]
    return Point.of_bits(1 if 2 * sum(col) >= n else 0 for col in zip(*ballots))


def topk_majority(profile: Profile, k: int, tiebreak: Optional[Sequence[int]] = None) -> Point:
    """Committee of the k most-approved candidates.

    Equal approval counts are resolved toward the candidate earlier in the
    tiebreak order, which is required.
    """
    m = profile.spec.num_candidates
    tpos = tiebreak_positions(m, tiebreak)
    approvals = [0] * m
    for p in profile.points:
        for c, b in enumerate(p.bits):
            approvals[c] += b
    chosen = sorted(range(m), key=lambda c: (-approvals[c], tpos[c]))[:k]
    committee = set(chosen)
    return Point.of_bits(1 if c in committee else 0 for c in range(m))


def _pairwise_preference(profile: Profile) -> list[list[int]]:
    """prefers[a][b] = number of agents ranking a before b."""
    m = profile.spec.num_candidates
    prefers = [[0] * m for _ in range(m)]
    for p in profile.points:
        for i, a in enumerate(p.ranking):
            for b in p.ranking[i + 1:]:
                prefers[a][b] += 1
    return prefers


def kemeny_ranking(profile: Profile, tiebreak: Optional[Sequence[int]] = None) -> Point:
    """The ranking with minimal total swap distance to the profile.

    Exact, by dynamic programming over the 2^m candidate subsets (Betzler et
    al., TCS 410, 2009); refuses m > KEMENY_MAX_CANDIDATES.  Cost ties go to the
    ranking lexicographically smallest in tiebreak order (index order if none).
    """
    m = profile.spec.num_candidates
    if m > KEMENY_MAX_CANDIDATES:
        raise UnsupportedSizeError(
            f"subset search over 2^{m} candidate sets refused (limit {KEMENY_MAX_CANDIDATES})"
        )
    order = sorted(range(m), key=tiebreak_positions(m, tiebreak).__getitem__)
    prefers = _pairwise_preference(profile)
    against = [[0] for _ in range(m)]  # [c][S]: ballot pairs with a member of S before c
    for c, row in enumerate(against):
        for d in range(m):
            row += [x + prefers[d][c] for x in row]
    best = [0] * (1 << m)  # best[S]: least cost of ordering S
    for s in range(1, 1 << m):
        best[s] = min(against[c][s] + best[s ^ 1 << c] for c in range(m) if s >> c & 1)
    ranking, s = [], (1 << m) - 1
    while s:
        c = next(c for c in order if s >> c & 1 and against[c][s] + best[s ^ 1 << c] == best[s])
        ranking.append(c)
        s ^= 1 << c
    return Point.of_ranking(ranking)


def candidate_scores(profile: Profile, kind: VotingRule) -> list[int]:
    """Per-candidate scores for a scoring rule.

    Plurality counts first places.  Borda awards m - place with places
    counted from 1, so a first place is worth m - 1.  Copeland counts
    strictly won pairwise matches; pairwise ties contribute nothing.
    """
    m = profile.spec.num_candidates
    if kind is VotingRule.PLURALITY:
        scores = [0] * m
        for p in profile.points:
            scores[p.ranking[0]] += 1
        return scores
    if kind is VotingRule.BORDA:
        scores = [0] * m
        for p in profile.points:
            for place, c in enumerate(p.ranking):
                scores[c] += m - 1 - place
        return scores
    prefers = _pairwise_preference(profile)
    scores = [0] * m
    for a in range(m):
        for b in range(m):
            if a != b and prefers[a][b] > prefers[b][a]:
                scores[a] += 1
    return scores


def scoring_ranking(profile: Profile, kind: VotingRule, tiebreak: Sequence[int]) -> Point:
    """Rank candidates by descending score, tiebreak order deciding equal scores."""
    m = profile.spec.num_candidates
    tpos = tiebreak_positions(m, tiebreak)
    scores = candidate_scores(profile, kind)
    order = sorted(range(m), key=lambda c: (-scores[c], tpos[c]))
    return Point.of_ranking(order)


def stv_rounds(profile: Profile, tiebreak: Sequence[int]) -> list[tuple[int, int]]:
    """Elimination rounds of single transferable vote.

    Each round removes the Plurality loser of the profile restricted to the
    remaining candidates; the returned list holds (candidate, first-place
    count at elimination time) in elimination order.  A count tie eliminates
    the candidate later in the tiebreak order.
    """
    m = profile.spec.num_candidates
    tpos = tiebreak_positions(m, tiebreak)
    ballots = [list(p.ranking) for p in profile.points]
    remaining = set(range(m))
    rounds: list[tuple[int, int]] = []
    while remaining:
        counts = {c: 0 for c in remaining}
        for ballot in ballots:
            counts[ballot[0]] += 1
        loser = min(remaining, key=lambda c: (counts[c], -tpos[c]))
        rounds.append((loser, counts[loser]))
        remaining.discard(loser)
        for ballot in ballots:
            ballot.remove(loser)
    return rounds


def stv_ranking(profile: Profile, tiebreak: Sequence[int]) -> Point:
    """Full ranking induced by STV: candidates in reverse elimination order."""
    rounds = stv_rounds(profile, tiebreak)
    ranking = [c for c, _ in reversed(rounds)]
    return Point.of_ranking(ranking)


def require_compatible(rule: RuleSpec, space: SpaceSpec) -> None:
    """Raise ConfigurationError unless ``rule`` can pick winners in ``space``."""
    expected = _RULE_FAMILY[rule.rule]
    if space.family is not expected:
        raise ConfigurationError(
            f"rule {rule.rule.value} needs a {expected.value} space, got {space.family.value}"
        )
    order = rule.tiebreak_order
    if order is None and rule.rule in NEEDS_TIEBREAK:
        raise ConfigurationError(f"rule {rule.rule.value} needs a tiebreak order")
    m = space.num_candidates
    if order is not None and m is not None and len(order) != m:
        raise ConfigurationError(f"tiebreak order lists {len(order)} candidates, space has {m}")
    if rule.rule is VotingRule.MAJORITY and space.committee_size is not None:
        raise ConfigurationError("bitwise majority applies to unconstrained ballots")
    if rule.rule is VotingRule.TOPK_MAJORITY and space.committee_size is None:
        raise ConfigurationError("topk_majority needs a space with a committee size")


def winner(rule: RuleSpec, profile: Profile) -> Point:
    """Apply a rule to a profile after checking the pairing makes sense."""
    require_compatible(rule, profile.spec)
    if rule.rule is VotingRule.MEAN:
        return mean_elementwise(profile)
    if rule.rule is VotingRule.FLOOR_MEAN:
        return floor_mean_elementwise(profile)
    if rule.rule is VotingRule.MEDIAN:
        return median_elementwise(profile)
    if rule.rule is VotingRule.MAJORITY:
        return bitwise_majority(profile)
    if rule.rule is VotingRule.TOPK_MAJORITY:
        return topk_majority(profile, profile.spec.committee_size, rule.tiebreak_order)
    if rule.rule is VotingRule.KEMENY:
        return kemeny_ranking(profile, rule.tiebreak_order)
    if rule.rule in SCORING_RULES:
        return scoring_ranking(profile, rule.rule, rule.tiebreak_order)
    return stv_ranking(profile, rule.tiebreak_order)
