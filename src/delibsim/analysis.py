"""Executable convergence arguments.

The termination proofs for the ordinal rules order profiles by a potential
vector built from per-candidate triplets; this module computes those
vectors and the lexicographic comparison that orders them.  It also
predicts iteration counts per configuration (exact, capped, or no claim),
checks winner stability over a trace, provides an independent exhaustive
Kemeny oracle, and implements the smallest-enclosing-ball containment test
that pins down where mean runs can converge.  ``explain`` judges a run by
the argument that covers its configuration, checked on the run's trace.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .engine import CAP_MULTIPLIER, EngineConfig, RunReport
from .errors import ConfigurationError, UnsupportedSizeError
from .rules import (
    SCORING_RULES,
    Profile,
    RuleSpec,
    VotingRule,
    candidate_scores,
    require_compatible,
    scoring_ranking,
    stv_rounds,
    tiebreak_positions,
    winner,
)
from .spaces import Family, Metric, Point, SpaceSpec, dist, exceeds, points_equal, total

BRUTEFORCE_MAX_CANDIDATES = 6
ENCLOSING_BALL_MAX_DIM = 3
ENCLOSING_BALL_MAX_POINTS = 10_000

#: rules whose winner cannot change while agents only move toward it
_MONOTONE_RULES = frozenset(
    {
        VotingRule.MAJORITY,
        VotingRule.TOPK_MAJORITY,
        VotingRule.PLURALITY,
        VotingRule.BORDA,
        VotingRule.COPELAND,
    }
)


class Comparison(str, Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


@dataclass(frozen=True)
class PotentialVector:
    """Per-candidate (rule_score, priority_score, borda_score) triplets.

    Triplets follow the candidates' positions in the current winner; the
    priority score is m - 1 minus the candidate's position in the fixed
    tie-break order, so earlier-prioritized candidates score higher.
    """

    triplets: tuple[tuple[float, int, int], ...]

    def __post_init__(self) -> None:
        m = len(self.triplets)
        if sorted(t[1] for t in self.triplets) != list(range(m)):
            raise ConfigurationError(
                "priority scores must be a permutation of 0..m-1"
            )

    @property
    def flat(self) -> tuple[float, ...]:
        return tuple(x for t in self.triplets for x in t)


def lex_compare(p: PotentialVector, q: PotentialVector) -> Comparison:
    """Flat lexicographic comparison of two equal-length vectors."""
    if len(p.triplets) != len(q.triplets):
        raise ConfigurationError(
            f"potential vectors differ in length: {len(p.triplets)} vs {len(q.triplets)}"
        )
    if p.flat < q.flat:
        return Comparison.LESS
    if p.flat > q.flat:
        return Comparison.GREATER
    return Comparison.EQUAL


def potential_scoring(
    profile: Profile, kind: VotingRule, order: Sequence[int]
) -> PotentialVector:
    """Potential vector for a scoring rule, triplets in winner order."""
    if kind not in SCORING_RULES:
        raise ConfigurationError(f"{kind.value} is not a scoring rule")
    require_compatible(RuleSpec(kind, order), profile.spec)
    m = profile.spec.num_candidates
    scores = candidate_scores(profile, kind)
    borda = candidate_scores(profile, VotingRule.BORDA)
    priority = [m - 1 - pos for pos in tiebreak_positions(m, order)]
    w = scoring_ranking(profile, kind, order)
    return PotentialVector(
        tuple((scores[c], priority[c], borda[c]) for c in w.ranking)
    )


def potential_stv(profile: Profile, order: Sequence[int]) -> PotentialVector:
    """Potential vector for iterated-elimination voting.

    Each candidate's rule score is its first-place count in the reduced
    profile at the round it was eliminated (the surviving candidate gets
    its final-round count).  Triplets run from the winner's last place to
    its first, which is exactly elimination order.
    """
    require_compatible(RuleSpec(VotingRule.STV, order), profile.spec)
    m = profile.spec.num_candidates
    borda = candidate_scores(profile, VotingRule.BORDA)
    priority = [m - 1 - pos for pos in tiebreak_positions(m, order)]
    rounds = stv_rounds(profile, order)
    return PotentialVector(
        tuple((count, priority[c], borda[c]) for c, count in rounds)
    )


class BoundKind(str, Enum):
    EXACT = "exact"
    CAP = "cap"
    NONE = "none"


@dataclass(frozen=True)
class BoundPrediction:
    kind: BoundKind
    iterations: Optional[int] = None


NO_BOUND = BoundPrediction(BoundKind.NONE, None)


def _ceil_steps(d: float, epsilon: float) -> int:
    if d <= 0:
        return 0
    return math.ceil(d / epsilon)


def _max_steps(rule: RuleSpec, initial: Profile, epsilon: float) -> int:
    w0 = winner(rule, initial)
    return max(_ceil_steps(dist(initial.spec, p, w0), epsilon) for p in initial.points)


def iteration_bound(
    space: SpaceSpec,
    rule: Union[RuleSpec, VotingRule],
    initial: Profile,
    epsilon: float,
) -> BoundPrediction:
    """Predicted moving-iteration count for a configuration.

    EXACT counts hold for winner-stable rules: the farthest agent's step
    count for median (taxicab/straight-line), Hamming majority variants,
    and Kemeny under any distance; a flat ceil(m/epsilon) for monotone
    rules under the deepest-disagreement metric.  Floor-mean shares the
    median prediction, exact whenever its winner holds still; rounding
    drift can let such runs finish early.  Mean runs get a budget cap
    with a generous constant.  Scoring rules and iterated elimination
    under swap distance converge but carry no counting claim, and nothing
    is claimed for sup-metric runs, which need not converge at all.
    """
    if isinstance(rule, VotingRule):
        rule = RuleSpec(rule)
    kind = rule.rule
    if space.distance is Metric.FIRST_CHANGED:
        if kind is VotingRule.KEMENY:
            return BoundPrediction(BoundKind.EXACT, _max_steps(rule, initial, epsilon))
        if kind in _MONOTONE_RULES:
            m = space.num_candidates
            return BoundPrediction(BoundKind.EXACT, _ceil_steps(m, epsilon))
        return NO_BOUND
    if space.family is Family.EUCLIDEAN:
        if space.distance is Metric.LINF:
            return NO_BOUND
        if kind is VotingRule.MEAN:
            return BoundPrediction(
                BoundKind.CAP, CAP_MULTIPLIER * _max_steps(rule, initial, epsilon)
            )
        if kind in (VotingRule.MEDIAN, VotingRule.FLOOR_MEAN):
            return BoundPrediction(BoundKind.EXACT, _max_steps(rule, initial, epsilon))
        return NO_BOUND
    if space.family is Family.BINARY:
        return BoundPrediction(BoundKind.EXACT, _max_steps(rule, initial, epsilon))
    if kind is VotingRule.KEMENY:
        return BoundPrediction(BoundKind.EXACT, _max_steps(rule, initial, epsilon))
    return NO_BOUND


def winner_stability(trace: Sequence) -> bool:
    """True when every record in the trace carries the same winner, by ``points_equal``."""
    if not trace:
        raise ConfigurationError("winner stability needs a non-empty trace")
    w0 = trace[0].winner
    if w0.real_vector is None:
        return all(r.winner.values == w0.values for r in trace)
    # points_equal reads only the family, so any real-vector metric will do
    space = SpaceSpec(Family.EUCLIDEAN, Metric.L2, dimension=len(w0.real_vector))
    return all(points_equal(space, r.winner, w0) for r in trace)


def _inversion_cost(ballot: Sequence[int], ranking: Sequence[int]) -> int:
    # pairs the ballot orders oppositely to the candidate ranking
    pos = {c: i for i, c in enumerate(ballot)}
    cost = 0
    for i, a in enumerate(ranking):
        for b in ranking[i + 1:]:
            if pos[a] > pos[b]:
                cost += 1
    return cost


def kemeny_bruteforce(
    profile: Profile, tiebreak: Optional[Sequence[int]] = None
) -> Point:
    """Exhaustive reference for the minimal-total-swap ranking.

    Deliberately independent of the production implementation: it scores
    each of the m! rankings by summing per-ballot inversion counts rather
    than aggregating a preference matrix.  Ties resolve exactly like the
    production rule.
    """
    m = profile.spec.num_candidates
    if m > BRUTEFORCE_MAX_CANDIDATES:
        raise UnsupportedSizeError(
            f"brute force over {m}! rankings refused (limit {BRUTEFORCE_MAX_CANDIDATES})"
        )
    if tiebreak is None:
        tpos = list(range(m))
    else:
        if sorted(tiebreak) != list(range(m)):
            raise ConfigurationError("tie-break order must be a permutation of the candidates")
        tpos = [0] * m
        for i, c in enumerate(tiebreak):
            tpos[c] = i
    best_key = None
    best_perm = None
    for perm in itertools.permutations(range(m)):
        total = sum(_inversion_cost(p.ranking, perm) for p in profile.points)
        key = (total, tuple(tpos[c] for c in perm))
        if best_key is None or key < best_key:
            best_key, best_perm = key, perm
    return Point.of_ranking(best_perm)


def _circumcenter(boundary: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
    """Smallest ball with all boundary points on its surface.

    The center lies in the boundary's affine hull; the minimum-norm
    least-squares solution lands there even for degenerate inputs.
    """
    p0 = boundary[0]
    if len(boundary) == 1:
        return p0, 0.0
    q = np.array([p - p0 for p in boundary[1:]], dtype=float)
    rhs = np.array([v @ v for v in q], dtype=float)
    x, *_ = np.linalg.lstsq(2.0 * q, rhs, rcond=None)
    return p0 + x, float(np.linalg.norm(x))


def _ball_of(
    pts: list[np.ndarray], boundary: tuple[np.ndarray, ...], dim: int
) -> tuple[Optional[np.ndarray], float]:
    if len(boundary) == dim + 1:
        return _circumcenter(boundary)
    center, radius = _circumcenter(boundary) if boundary else (None, -1.0)
    for i, p in enumerate(pts):
        if center is None or np.linalg.norm(p - center) > radius + 1e-10:
            center, radius = _ball_of(pts[:i], boundary + (p,), dim)
    return center, radius


def enclosing_ball_l2(
    points: Iterable[Union[Point, Sequence[float]]], seed: int = 0
) -> tuple[tuple[float, ...], float]:
    """Exact smallest enclosing ball; returns (center, diameter).

    Randomized incremental over a seeded shuffle, recursing only on the
    boundary set, so the recursion depth stays at most dimension + 2.
    """
    raw = [p.real_vector if isinstance(p, Point) else tuple(p) for p in points]
    if not raw:
        raise ConfigurationError("the enclosing ball needs at least one point")
    dim = len(raw[0])
    if dim > ENCLOSING_BALL_MAX_DIM:
        raise UnsupportedSizeError(
            f"enclosing ball supports up to {ENCLOSING_BALL_MAX_DIM} dimensions, got {dim}"
        )
    if len(raw) > ENCLOSING_BALL_MAX_POINTS:
        raise UnsupportedSizeError(
            f"enclosing ball supports up to {ENCLOSING_BALL_MAX_POINTS} points"
        )
    if any(len(p) != dim for p in raw):
        raise ConfigurationError("all points must share one dimension")
    pts = [np.array(p, dtype=float) for p in raw]
    random.Random(seed).shuffle(pts)
    center, radius = _ball_of(pts, (), dim)
    return tuple(float(c) for c in center), 2.0 * max(radius, 0.0)


def ball_containment(initial: Profile, final_point: Point) -> bool:
    """Whether the final point sits inside the initial profile's smallest
    enclosing ball (straight-line metric), within the space's tolerance."""
    center, diameter = enclosing_ball_l2(initial.points)
    gap = math.dist(final_point.real_vector, center)
    return not exceeds(initial.spec, gap, diameter / 2.0)


def sum_distance_to_winner(profile: Profile, w: Point) -> float:
    """Total distance of all agents from a given point."""
    return total(dist(profile.spec, p, w) for p in profile.points)


@dataclass(frozen=True)
class Explanation:
    """A run judged by the argument that covers it: ``iteration_bound``'s kind
    and count, the observed moving iterations, and each invariant's verdict."""

    kind: BoundKind
    predicted: Optional[int]
    observed: int
    invariants: Mapping[str, bool]

    @property
    def holds(self) -> bool:
        """Every invariant held, and the count equals an EXACT bound or is within a CAP."""
        return all(self.invariants.values()) and (
            self.kind is BoundKind.NONE
            or self.observed == self.predicted
            or (self.kind is BoundKind.CAP and self.observed < self.predicted)
        )


def explain(initial: Profile, config: EngineConfig, report: RunReport) -> Explanation:
    """Judge ``report``, a run of ``config`` from ``initial``, on its trace.

    The invariants are ``winner-stable`` under EXACT; ``distance-shrinking``
    and ``ball-contained`` under CAP; and under swap distance, where scoring
    rules and STV carry no bound, ``potential-greater`` or ``potential-less``:
    the potential moves that way on every moving step.  The prediction uses
    ``rules.winner`` whatever winner the run took, so a wrong winner shows.
    """
    space, rule = config.space, config.rule
    bound = iteration_bound(space, rule, initial, config.epsilon)
    trace = report.trace
    invariants = {}
    if bound.kind is BoundKind.EXACT:
        invariants["winner-stable"] = winner_stability(trace)
    elif bound.kind is BoundKind.CAP:
        sums = [total(r.distances) for r in trace]
        invariants["distance-shrinking"] = all(a > b for a, b in zip(sums, sums[1:]))
        invariants["ball-contained"] = space.distance is Metric.L1 or (
            report.point is not None and ball_containment(initial, report.point)
        )
    elif space.distance is Metric.SWAP:
        # one pass at most: an array-path record builds its points on each read
        states = (Profile.of_checked(space, r.points) for r in trace)
        order = rule.tiebreak_order
        if rule.rule is VotingRule.STV:
            expected, vectors = Comparison.LESS, [potential_stv(p, order) for p in states]
        else:
            expected = Comparison.GREATER
            vectors = [potential_scoring(p, rule.rule, order) for p in states]
        moves = zip(vectors, vectors[1:], trace)
        steps = [lex_compare(b, a) for a, b, rec in moves if any(rec.moved)]
        invariants[f"potential-{expected.value}"] = all(s is expected for s in steps)
    return Explanation(bound.kind, bound.iterations, report.moving_iterations, invariants)
