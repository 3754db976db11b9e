"""Synchronized deliberation loop.

Each iteration computes the current winner, then moves every agent against
that same winner (moves never see each other's updates within an
iteration).  A run ends in one of three ways:

* CONVERGED  - an iteration moved nobody, which means every agent sits on
  the winner, i.e. the profile is a consensus;
* CYCLE      - a profile reappeared (period and first index are reported);
  runs on discrete spaces are always checked for this, real-vector runs
  never;
* CAP_REACHED - the iteration budget ran out; a growth flag reports whether
  the winner was still drifting monotonically away from where it started.

The full per-iteration trace is kept: profile, winner, every agent's
distance to it, and which agents moved.  Every proposed move is refereed
before it is taken: the new point must belong to the space and the move
must pass ``check_constraints``; a move that fails raises.

``run`` advances the state in one of two ways, chosen from the config alone:

* the array path, for the default policy on real vectors (every rule and
  metric, both taxicab move modes, integer lattices included) and on
  unconstrained ballots under Hamming distance with bitwise majority.  A
  state is one array (see ``delibsim.arrays``); the rule, the moves, point
  validation and both movement laws run over all agents at once, with the
  same arithmetic as the per-agent code, and the first agent that fails
  is reported by ``step``'s own referee, so errors read the same.
  Records keep the state array and build ``points`` anew on each access;
* the per-agent path, ``step``, for everything else: scripted and
  seeded-random policies, committee ballots, rankings, the
  deepest-disagreement metric, and any run given a winner function.
  ``step`` is also the reference the array path is tested against.

Each state's winner and distances are computed once: the referee judges
each move against the recorded distance, and the default budget is sized
from the first state's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from . import arrays
from . import rules as rules_mod
from .errors import ConfigurationError, ConstraintViolationError, InvalidPointError
from .policies import (
    ConstraintMode,
    L1Mode,
    MovePolicy,
    PolicyKind,
    PolicySpec,
    check_constraints,
)
from .rules import Profile, RuleSpec, VotingRule
from .spaces import (
    Family, Metric, Point, SpaceSpec, dist, exceeds, points_equal, validate_point
)

#: fallback iteration budget when no initial distance is available
DEFAULT_MAX_ITERS = 10_000
#: budget multiplier applied to the farthest agent's step count; also the
#: constant of ``analysis.iteration_bound``'s CAP predictions
CAP_MULTIPLIER = 10
DEFAULT_GROWTH_WINDOW = 50

#: picks a profile's winner under a rule; ``rules.winner`` unless a run is given another
WinnerFn = Callable[[RuleSpec, Profile], Point]

_LATTICE_RULES = frozenset({VotingRule.FLOOR_MEAN, VotingRule.MEDIAN})


class Outcome(str, Enum):
    CONVERGED = "converged"
    CYCLE = "cycle"
    CAP_REACHED = "cap_reached"


@dataclass(frozen=True)
class EngineConfig:
    """Everything a run needs besides the initial profile."""

    space: SpaceSpec
    rule: RuleSpec
    policy: PolicySpec = field(default_factory=PolicySpec)
    epsilon: float = 1.0
    max_iters: Optional[int] = None
    growth_window: int = DEFAULT_GROWTH_WINDOW

    def __post_init__(self) -> None:
        space, rule, policy = self.space, self.rule, self.policy
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ConfigurationError(f"step size must be positive and finite, got {self.epsilon}")
        if space.family is not Family.EUCLIDEAN and self.epsilon != int(self.epsilon):
            raise ConfigurationError("discrete spaces need an integer step size")
        rules_mod.require_compatible(rule, space)
        if (
            space.distance is Metric.HAMMING
            and space.committee_size is not None
            and int(self.epsilon) % 2 != 0
        ):
            raise ConfigurationError(
                "committee ballots move by paired exchanges; the step size must be even"
            )
        if space.distance is Metric.FIRST_CHANGED:
            if policy.constraint_mode is not ConstraintMode.APPROACH_ONLY:
                raise ConfigurationError(
                    "the deepest-disagreement metric supports only approach_only checking"
                )
        if space.integer_lattice:
            if rule.rule not in _LATTICE_RULES:
                raise ConfigurationError(
                    "integer lattices support only floor_mean and median rules"
                )
            if self.epsilon != int(self.epsilon):
                raise ConfigurationError("integer lattices need an integer step size")
            lattice_safe_metric = space.distance is Metric.L1 and (
                policy.l1_mode is L1Mode.COORD_ORDER or space.dimension == 1
            )
            if not (lattice_safe_metric or space.dimension == 1):
                raise ConfigurationError(
                    "integer lattices need the taxicab metric with coordinate-order "
                    "moves (any metric works in one dimension)"
                )
        if self.max_iters is not None and self.max_iters < 1:
            raise ConfigurationError("the iteration budget must be at least 1")
        if self.growth_window < 1:
            raise ConfigurationError("the growth window must be at least 1")
        if policy.kind is PolicyKind.SCRIPTED:
            for entry in policy.script:
                Profile(space, entry)  # raises InvalidPointError for a point off the space


class IterationRecord:
    """State at one iteration plus, when a step ran from it, the move data.

    ``points`` is either a tuple of points or an array-path state (see
    ``delibsim.arrays``).  A state array is kept as ``array`` and ``points``
    then builds a new tuple of points on every read, so a trace holds one
    array per state instead of n point objects; ``array`` is None otherwise.
    """

    __slots__ = ("index", "array", "_points", "winner", "distances", "moved")

    def __init__(
        self,
        index: int,
        points: Union[tuple[Point, ...], np.ndarray],
        winner: Point,
        distances: tuple[float, ...],
        moved: Optional[tuple[bool, ...]] = None,
    ) -> None:
        self.index = index
        self.array = points if isinstance(points, np.ndarray) else None
        self._points = None if self.array is not None else tuple(points)
        self.winner = winner
        self.distances = distances
        self.moved = moved

    @property
    def points(self) -> tuple[Point, ...]:
        if self.array is not None:
            return arrays.points(self.array)
        return self._points

    def _fields(self) -> tuple:
        return (self.index, self.points, self.winner, self.distances, self.moved)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IterationRecord):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        names = ("index", "points", "winner", "distances", "moved")
        body = ", ".join(f"{k}={v!r}" for k, v in zip(names, self._fields()))
        return f"IterationRecord({body})"


@dataclass(frozen=True)
class RunReport:
    outcome: Outcome
    #: consensus point for CONVERGED runs
    point: Optional[Point]
    #: iterations in which at least one agent moved
    moving_iterations: int
    #: profiles observed, initial state included
    states: int
    trace: tuple[IterationRecord, ...]
    cycle_period: Optional[int] = None
    cycle_first_index: Optional[int] = None
    growth_detected: Optional[bool] = None
    elapsed_seconds: float = 0.0


def is_consensus(profile: Profile) -> bool:
    """All agents on one point (within tolerance for real vectors)."""
    first = profile.points[0]
    return all(points_equal(profile.spec, first, p) for p in profile.points[1:])


def _state_key(state) -> object:
    """Hashable identity of a profile or ballot state array, for cycle detection."""
    if isinstance(state, np.ndarray):
        return state.tobytes()
    return tuple(p.values for p in state.points)


def _referee(
    config: EngineConfig,
    agent: int,
    iteration: int,
    before: Point,
    after: Point,
    w: Point,
    d_before: float,
    validated: bool = False,
) -> None:
    """Raise unless one agent's new point is in the space and its move is legal.

    ``d_before`` is the agent's recorded distance to ``w``.  ``validated``
    skips the point check for a point already checked where it entered.
    """
    if not validated:
        violation = validate_point(config.space, after)
        if violation is not None:
            raise InvalidPointError(violation)
    violation = check_constraints(
        config.space, before, after, w, config.epsilon, config.policy.constraint_mode,
        d_before=d_before,
    )
    if violation is not None:
        raise ConstraintViolationError(
            f"agent {agent} at iteration {iteration}: {violation}",
            agent=agent,
            iteration=iteration,
        )


def step(
    profile: Profile,
    config: EngineConfig,
    *,
    policy: Optional[MovePolicy] = None,
    iteration: int = 0,
    winner: Optional[WinnerFn] = None,
) -> tuple[Profile, IterationRecord]:
    """One synchronized iteration; returns the next profile and this state's record.

    ``winner`` picks the winner, ``rules.winner`` when None.
    """
    space = config.space
    mover = policy if policy is not None else MovePolicy(space, config.policy)
    # the config's own scripted policy proposes script points, which
    # EngineConfig has validated
    scripted = (
        type(mover) is MovePolicy
        and mover.spec is config.policy
        and config.policy.kind is PolicyKind.SCRIPTED
    )
    w = (winner or rules_mod.winner)(config.rule, profile)
    distances = tuple(dist(space, p, w) for p in profile.points)
    next_points = []
    moved = []
    for i, p in enumerate(profile.points):
        p_next = mover.move(p, w, config.epsilon, iteration, i)
        _referee(config, i, iteration, p, p_next, w, distances[i], validated=scripted)
        next_points.append(p_next)
        moved.append(not points_equal(space, p, p_next))
    record = IterationRecord(
        index=iteration,
        points=profile.points,
        winner=w,
        distances=distances,
        moved=tuple(moved),
    )
    # every new point is validated: by the referee or, if scripted, by EngineConfig
    return Profile.of_checked(space, tuple(next_points)), record


def _takes_array_path(config: EngineConfig) -> bool:
    if config.policy.kind is not PolicyKind.DEFAULT:
        return False
    if config.space.family is Family.EUCLIDEAN:
        return True
    # EngineConfig already limits bitwise majority to unconstrained ballots
    return config.space.distance is Metric.HAMMING and config.rule.rule is VotingRule.MAJORITY


def check_array_moves(
    config: EngineConfig,
    before: np.ndarray,
    after: np.ndarray,
    w: np.ndarray,
    d_before: np.ndarray,
    iteration: int,
) -> None:
    """The array path's referee: raise as ``step`` would for the same moves.

    Every agent is checked at once; the first one that fails is handed to
    ``step``'s referee, so the error names the same agent with the same
    message (or is the same ``InvalidPointError`` for a point off the space).
    """
    bad = arrays.failing(
        config.space, config.policy.constraint_mode, before, after, w, d_before, config.epsilon
    )
    for i in bad.tolist():
        before_i, after_i = arrays.point(before[i]), arrays.point(after[i])
        _referee(config, i, iteration, before_i, after_i, arrays.point(w), d_before[i].item())


def _array_step(
    state: np.ndarray, config: EngineConfig, iteration: int
) -> tuple[np.ndarray, IterationRecord]:
    """``step`` for a state array."""
    space, epsilon = config.space, config.epsilon
    w = arrays.winner(config.rule.rule, state)
    d = arrays.distances(space, state, w)
    after = arrays.move(space, config.policy.l1_mode, state, w, d, epsilon)
    check_array_moves(config, state, after, w, d, iteration)
    record = IterationRecord(
        index=iteration,
        points=state,
        winner=arrays.point(w),
        distances=tuple(d.tolist()),
        moved=tuple(arrays.moved(space, state, after).tolist()),
    )
    return after, record


def _terminal_record(
    state, config: EngineConfig, index: int, winner: Optional[WinnerFn]
) -> IterationRecord:
    """The record of a last state, which no step ran from: no moves."""
    if isinstance(state, np.ndarray):
        w = arrays.winner(config.rule.rule, state)
        distances = tuple(arrays.distances(config.space, state, w).tolist())
        return IterationRecord(index, state, arrays.point(w), distances)
    w = (winner or rules_mod.winner)(config.rule, state)
    distances = tuple(dist(config.space, p, w) for p in state.points)
    return IterationRecord(index, state.points, w, distances)


def _default_max_iters(space: SpaceSpec, distances: tuple[float, ...], epsilon: float) -> int:
    """The budget for a run whose first state has these distances to its winner."""
    far = max(distances)
    if not exceeds(space, far, 0):
        return DEFAULT_MAX_ITERS
    return max(1, CAP_MULTIPLIER * math.ceil(far / epsilon))


def _growth_detected(trace: list[IterationRecord], config: EngineConfig) -> bool:
    """True when the winner kept drifting away from the initial winner over
    the whole final window."""
    window = config.growth_window
    if len(trace) < window + 1:
        return False
    w0 = trace[0].winner
    drift = [dist(config.space, r.winner, w0) for r in trace[-(window + 1):]]
    return all(a < b for a, b in zip(drift, drift[1:]))


def run(initial: Profile, config: EngineConfig, winner: Optional[WinnerFn] = None) -> RunReport:
    """Iterate from ``initial`` until consensus, a cycle, or the budget cap.

    ``winner`` picks each state's winner, ``rules.winner`` when None; a run
    given one takes the per-agent path, so it sees every state.
    """
    if initial.spec != config.space:
        raise ConfigurationError("the profile's space differs from the configured space")
    started = time.perf_counter()
    if winner is None and _takes_array_path(config):
        state = arrays.from_profile(initial)
        advance = lambda state, j: _array_step(state, config, j)
    else:
        state = initial
        mover = MovePolicy(config.space, config.policy)
        advance = lambda state, j: step(state, config, policy=mover, iteration=j, winner=winner)
    max_iters = config.max_iters
    trace: list[IterationRecord] = []
    seen = {_state_key(state): 0} if config.space.family is not Family.EUCLIDEAN else None
    outcome = Outcome.CAP_REACHED
    point = None
    cycle_period = None
    cycle_first = None
    j = 0
    while max_iters is None or j < max_iters:
        next_state, record = advance(state, j)
        trace.append(record)
        if max_iters is None:
            max_iters = _default_max_iters(config.space, record.distances, config.epsilon)
        if not any(record.moved):
            outcome = Outcome.CONVERGED
            point = record.winner
            break
        state = next_state
        j += 1
        if seen is not None:
            key = _state_key(state)
            if key in seen:
                outcome = Outcome.CYCLE
                cycle_first = seen[key]
                cycle_period = j - cycle_first
                trace.append(_terminal_record(state, config, j, winner))
                break
            seen[key] = j
    else:
        terminal = _terminal_record(state, config, max_iters, winner)
        trace.append(terminal)
        # consensus reached on the budget's last step still counts
        if is_consensus(Profile.of_checked(config.space, terminal.points)):
            outcome = Outcome.CONVERGED
            point = terminal.winner
    growth = _growth_detected(trace, config) if outcome is Outcome.CAP_REACHED else None
    moving = sum(1 for r in trace if r.moved and any(r.moved))
    return RunReport(
        outcome=outcome,
        point=point,
        moving_iterations=moving,
        states=len(trace),
        trace=tuple(trace),
        cycle_period=cycle_period,
        cycle_first_index=cycle_first,
        growth_detected=growth,
        elapsed_seconds=time.perf_counter() - started,
    )
