"""Synchronized deliberation loop.

Each iteration computes the current winner, then moves every agent against
that same winner (moves never see each other's updates within an
iteration).  A run ends in one of three ways:

* CONVERGED  - an iteration moved nobody and its profile is a consensus
  (``is_consensus``).  An iteration that moves nobody from a profile that
  is no consensus raises ``InfeasibleStepError``: some agent's step was lost,
  too small to change its point beyond the tolerance;
* CYCLE      - a profile reappeared (period and first index are reported);
  the per-agent path checks for this on discrete spaces.  The array path's
  one discrete rule, bitwise majority, cannot cycle: default Hamming moves
  flip bits only toward the winner, so no column's majority ever changes;
* CAP_REACHED - the iteration budget ran out; a growth flag reports whether
  the winner was still drifting monotonically away from where it started.

The full per-iteration trace is kept: profile, winner, every agent's
distance to it, and which agents moved.  Every proposed move is refereed
before it is taken: the new point must belong to the space and the move
must pass ``check_constraints``; a move that fails raises.

``run`` advances the state in one of two ways, chosen from the config alone:

* the array path, ``_run_arrays``, for the default policy on real vectors
  (every rule and metric, both taxicab move modes, integer lattices
  included) and on unconstrained ballots under Hamming distance with
  bitwise majority, and for a real-vector script (one ``(T + 1, n, d)``
  array, see ``delibsim.policies``).  A state is one array (see
  ``delibsim.arrays``); winners, distances, point validation, both
  movement laws and moved flags are computed over a block of stacked
  states at once, with the same arithmetic as the per-agent code.  The
  default policy's block is the current state, whose moves make the next;
  a script's block is many of its states.  The first failing move is
  re-judged by ``step``'s referee, so errors read the same.  Records read
  their rows from the run's arrays on access;
* the per-agent path, ``step``, for everything else: ballot and ranking
  scripts, seeded-random policies, committee ballots, rankings, the
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
from typing import Callable, Optional

import numpy as np

from . import arrays
from . import rules as rules_mod
from .errors import (
    ConfigurationError,
    ConstraintViolationError,
    InfeasibleStepError,
    InvalidPointError,
)
from .policies import (
    ConstraintMode,
    L1Mode,
    MovePolicy,
    PolicyKind,
    PolicySpec,
    check_constraints,
    require_next_entry,
)
from .rules import Profile, RuleSpec, VotingRule
from .spaces import (
    Family, Metric, Point, SpaceSpec, differs, dist, exceeds, points_equal, validate_point
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
            _check_script(space, policy.script)


def _check_script(space: SpaceSpec, script) -> None:
    """Raise as ``Profile`` does for the first script entry that is not a
    profile of ``space``, or if the entries list different numbers of agents;
    an array script is checked in one pass."""
    if not isinstance(script, np.ndarray):
        for entry in script:
            Profile(space, entry)
        if len({len(entry) for entry in script}) > 1:
            raise ConfigurationError("every script entry must list the same number of agents")
        return
    agents, dimension = script.shape[1:]
    if space.family is not Family.EUCLIDEAN or agents == 0 or dimension != space.dimension:
        Profile(space, script[0])  # raises: no entry fits the space
    ok = np.isfinite(script)
    if space.integer_lattice:
        ok &= script == np.floor(script)
    bad = np.flatnonzero(~ok.all(axis=(1, 2)))
    if len(bad):
        Profile(space, script[bad[0]])


class IterationRecord:
    """State at one iteration plus, when a step ran from it, the move data.

    ``moved`` is None on a run's terminal record, the last state of a run
    that no step ran from.  The records of an array run are
    ``_ArrayRecord``s, which read every field from the run's arrays.
    """

    __slots__ = ("index", "points", "winner", "distances", "moved")
    #: the arrays of the whole run, whose row ``index`` this record reads:
    #: states, winners, distances and moved flags, the last without a row for
    #: the terminal record; only ``_ArrayRecord`` has them
    run_arrays: Optional[tuple] = None

    def __init__(
        self,
        index: int,
        points: tuple[Point, ...],
        winner: Point,
        distances: tuple[float, ...],
        moved: Optional[tuple[bool, ...]] = None,
    ) -> None:
        self.index = index
        self.points = tuple(points)
        self.winner = winner
        self.distances = distances
        self.moved = moved

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in IterationRecord.__slots__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IterationRecord):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in zip(IterationRecord.__slots__, self._fields()))
        return f"IterationRecord({body})"


class _ArrayRecord(IterationRecord):
    """A record of an array run: row ``index`` of the run's states, winners,
    distances and moved flags (``run_arrays``), each read on access; ``points`` is
    built anew on every read.  A long trace then holds one small object per
    state; the base class's stored fields stay unset.
    """

    __slots__ = ("_rows",)

    def __init__(self, index: int, rows: tuple) -> None:
        self.index = index
        self._rows = rows

    @property
    def run_arrays(self) -> tuple:
        return self._rows

    @property
    def points(self) -> tuple[Point, ...]:
        return arrays.points(self._rows[0][self.index])

    @property
    def winner(self) -> Point:
        return arrays.point(self._rows[1][self.index])

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(self._rows[2][self.index].tolist())

    @property
    def moved(self) -> Optional[tuple[bool, ...]]:
        moved = self._rows[3]
        return tuple(moved[self.index].tolist()) if self.index < len(moved) else None


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


def _state_key(profile: Profile) -> object:
    """Hashable identity of a profile, for cycle detection."""
    return tuple(p.values for p in profile.points)


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
            raise InvalidPointError(f"agent {agent} at iteration {iteration}: {violation}")
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
    policy, space = config.policy, config.space
    if policy.kind is PolicyKind.SCRIPTED:
        return isinstance(policy.script, np.ndarray)
    # EngineConfig already limits bitwise majority to unconstrained ballots
    return policy.kind is PolicyKind.DEFAULT and (space.family is Family.EUCLIDEAN or (
        space.distance is Metric.HAMMING and config.rule.rule is VotingRule.MAJORITY))


def check_array_moves(
    config: EngineConfig,
    before: np.ndarray,
    after: np.ndarray,
    w: np.ndarray,
    d_before: np.ndarray,
    iteration: int,
) -> None:
    """The array runner's referee: raise as ``step`` would for the same moves.

    ``before`` and ``after`` hold the agents' rows of the states of the
    iterations from ``iteration`` on, one state after another; ``w`` holds
    each state's winner row and ``d_before`` each agent's distance to it.
    The first failing move is handed to ``step``'s referee, so the error
    reads the same.
    """
    w = w.reshape(-1, before.shape[1])
    n = len(before) // len(w)
    bad = arrays.failing(config.space, config.policy.constraint_mode, before, after,
                         _per_agent(w, n), d_before, config.epsilon)
    for k in bad.tolist():
        before_k, after_k = arrays.point(before[k]), arrays.point(after[k])
        _referee(config, k % n, iteration + k // n, before_k, after_k, arrays.point(w[k // n]),
                 d_before[k].item())


def _per_agent(w: np.ndarray, n: int) -> np.ndarray:
    """One winner row per agent of ``n``, for stacked states' winners ``w``;
    a single state's winner row broadcasts as it is."""
    return w if len(w) == 1 else w.repeat(n, axis=0)


def _terminal_record(
    profile: Profile, config: EngineConfig, index: int, winner: Optional[WinnerFn]
) -> IterationRecord:
    """The record of a last state, which no step ran from: no moves."""
    w = (winner or rules_mod.winner)(config.rule, profile)
    distances = tuple(dist(config.space, p, w) for p in profile.points)
    return IterationRecord(index, profile.points, w, distances)


def _lost_step(iteration: int, distances, epsilon: float) -> InfeasibleStepError:
    """The error for an idle state that is no consensus, naming the agent
    farthest from the winner: its step was lost, too small to change its
    point beyond the tolerance."""
    agent = max(range(len(distances)), key=distances.__getitem__)
    return InfeasibleStepError(
        f"agent {agent} at iteration {iteration}: the step of {epsilon} toward the winner, "
        f"{distances[agent]} away, was lost: nobody moved by more than the tolerance, "
        "but the profile is no consensus"
    )


def _default_max_iters(space: SpaceSpec, distances: tuple[float, ...], epsilon: float) -> int:
    """The budget for a run whose first state has these distances to its winner."""
    far = max(distances)
    if not exceeds(space, far, 0):
        return DEFAULT_MAX_ITERS
    if not math.isfinite(far / epsilon):
        raise ConfigurationError(
            f"the farthest agent is {far} from the winner, too far to size the default "
            "iteration budget; set max_iters"
        )
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


#: how a run ended: its trace, outcome, consensus point and (first index, period) of a cycle
_Ending = tuple[list[IterationRecord], Outcome, Optional[Point], Optional[tuple[int, int]]]


def _capped(
    trace: list[IterationRecord], terminal: IterationRecord, config: EngineConfig
) -> _Ending:
    """The ending of a run whose budget ran out at ``terminal``."""
    trace.append(terminal)
    # consensus reached on the budget's last step still counts
    if is_consensus(Profile.of_checked(config.space, terminal.points)):
        return trace, Outcome.CONVERGED, terminal.winner, None
    return trace, Outcome.CAP_REACHED, None, None


def _iterate(initial: Profile, config: EngineConfig, winner: Optional[WinnerFn]) -> _Ending:
    """Advance one profile at a time with ``step`` until consensus, a cycle,
    or the budget."""
    mover = MovePolicy(config.space, config.policy)
    max_iters = config.max_iters
    trace: list[IterationRecord] = []
    seen = {_state_key(initial): 0} if config.space.family is not Family.EUCLIDEAN else None
    profile = initial
    j = 0
    while max_iters is None or j < max_iters:
        next_profile, record = step(profile, config, policy=mover, iteration=j, winner=winner)
        trace.append(record)
        if max_iters is None:
            max_iters = _default_max_iters(config.space, record.distances, config.epsilon)
        if not any(record.moved):
            if not is_consensus(profile):
                raise _lost_step(j, record.distances, config.epsilon)
            return trace, Outcome.CONVERGED, record.winner, None
        profile = next_profile
        j += 1
        if seen is not None:
            key = _state_key(profile)
            if key in seen:
                trace.append(_terminal_record(profile, config, j, winner))
                return trace, Outcome.CYCLE, None, (seen[key], j - seen[key])
            seen[key] = j
    return _capped(trace, _terminal_record(profile, config, max_iters, winner), config)


#: agent-states (rows of the stacked states) an array script's run judges at
#: a time, which bounds its temporary arrays
SCRIPT_BLOCK_ROWS = 4096


def _run_arrays(initial: Profile, config: EngineConfig) -> _Ending:
    """The run of a state array (see ``delibsim.arrays``), judged a block of
    states at a time: their winners, distances, move verdicts and moved flags.

    The default policy's block is the current state, whose ``arrays.move``
    makes the next; an array script's is up to ``SCRIPT_BLOCK_ROWS // n`` of
    its states.  Iteration 0 is judged alone, before its distances size a
    missing budget.  The run ends at the first failing move, the first
    iteration that moves nobody (which raises unless its state is a
    consensus), or the budget; a script too short for it raises as
    ``MovePolicy`` does.  Far-apart points give infinite distances,
    without numpy's overflow warnings.
    """
    space, rule, epsilon = config.space, config.rule.rule, config.epsilon
    l1_mode = config.policy.l1_mode
    script = config.policy.script if config.policy.kind is PolicyKind.SCRIPTED else None
    budget = config.max_iters
    first = arrays.from_profile(initial)
    n, width = first.shape
    states, size = [first], 1
    if script is not None:
        states = script[:None if budget is None else budget + 1]
        size = max(1, SCRIPT_BLOCK_ROWS // n)
        if first.tobytes() != states[0].tobytes():
            states = np.concatenate((first[None], states[1:]))
    reach = len(states) - 1 if script is not None else math.inf  # the last state on hand
    end = min(budget or 1, reach)  # the last state the run can reach; budgets are at least 1
    winners, distances, moved = [], [], []

    def observe(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Record each state's winner and its agents' distances to it."""
        # the median's winners are a view into a partitioned copy of the rows
        w = arrays.winner(rule, rows.reshape(-1, n, width)).copy()
        d = arrays.distances(space, rows, _per_agent(w, n))
        winners.append(w)
        distances.append(d)
        return w, d

    j = 0  # the block's first iteration
    with np.errstate(over="ignore", invalid="ignore"):
        while j < end:
            if script is None:
                rows = states[j]
                w, d = observe(rows)
                try:
                    states.append(arrays.move(space, l1_mode, rows, w[0], d, epsilon))
                except InfeasibleStepError:
                    # a step cannot be scaled: ``step`` raises, agent by agent,
                    # what the per-agent path raises first
                    step(Profile.of_checked(space, arrays.points(rows)), config, iteration=j)
                    raise
                after = states[-1]
            else:
                block = states[j:min(j + size, end)]
                rows = block.reshape(-1, width)
                w, d = observe(rows)
                after = states[j + 1:j + 1 + len(block)].reshape(-1, width)
            flags = arrays.moved(space, rows, after)
            # per state, whether anyone moved
            stirred = np.logical_or.reduce(flags.reshape(-1, n), axis=1).tolist()
            idle = not all(stirred)
            if idle:  # the run stops at the first idle state: no later move is judged
                k = (stirred.index(False) + 1) * n
                rows, after, w, d, flags = rows[:k], after[:k], w[:k // n], d[:k], flags[:k]
            check_array_moves(config, rows, after, w, d, j)
            moved.append(flags)
            if budget is None:  # sized from iteration 0's distances
                budget = _default_max_iters(space, d.tolist(), epsilon)
                end = min(budget, reach)
            if idle:
                end = j + len(w) - 1
                # ``is_consensus`` of the idle state, without building its points
                if differs(space, rows[-n], rows[-n:]).any():
                    raise _lost_step(end, d[-n:].tolist(), epsilon)
                break
            j += len(w)
        else:
            if end < (budget or 1):
                require_next_entry(script, end)  # raises: the script ends before the budget
            observe(states[end])
    kept = (states, np.concatenate(winners), np.concatenate(distances).reshape(-1, n),
            np.concatenate(moved).reshape(-1, n))
    trace = [_ArrayRecord(j, kept) for j in range(end + 1)]
    if len(trace) > len(kept[3]):
        return _capped(trace[:-1], trace[-1], config)
    return trace, Outcome.CONVERGED, trace[-1].winner, None


def run(initial: Profile, config: EngineConfig, winner: Optional[WinnerFn] = None) -> RunReport:
    """Iterate from ``initial`` until consensus, a cycle, or the budget cap.

    ``winner`` picks each state's winner, ``rules.winner`` when None; a run
    given one takes the per-agent path, so it sees every state.
    """
    if initial.spec != config.space:
        raise ConfigurationError("the profile's space differs from the configured space")
    script = config.policy.script if config.policy.kind is PolicyKind.SCRIPTED else None
    if script is not None and len(script[0]) != initial.n:
        raise ConfigurationError(
            f"the profile has {initial.n} agents, the script {len(script[0])}"
        )
    started = time.perf_counter()
    if winner is None and _takes_array_path(config):
        trace, outcome, point, cycle = _run_arrays(initial, config)
    else:
        trace, outcome, point, cycle = _iterate(initial, config, winner)
    cycle_first, cycle_period = cycle or (None, None)
    growth = _growth_detected(trace, config) if outcome is Outcome.CAP_REACHED else None
    return RunReport(
        outcome=outcome,
        point=point,
        # a run stops at the first iteration that moves nobody
        moving_iterations=len(trace) - 1,
        states=len(trace),
        trace=tuple(trace),
        cycle_period=cycle_period,
        cycle_first_index=cycle_first,
        growth_detected=growth,
        elapsed_seconds=time.perf_counter() - started,
    )
