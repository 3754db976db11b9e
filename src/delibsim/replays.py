"""Built-in reference scenarios with known outcomes.

Five named artifacts back the ``reproduce`` command: a one-dimensional
floored-mean run that reaches consensus in three moves, two scripted
sup-metric runs that drift to infinity while obeying both movement laws,
and the two ordinal potential vectors computed from a fixed three-ballot
profile.  Each replay reruns the scenario from scratch and diffs the
observed values against the expected ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import potential_scoring, potential_stv
from .engine import DEFAULT_GROWTH_WINDOW, EngineConfig, Outcome, RunReport, run
from .errors import ConfigurationError, UnsupportedSizeError
from .policies import ConstraintMode, PolicyKind, PolicySpec
from .rules import Profile, RuleSpec, VotingRule
from .spaces import Family, Metric, Point, SpaceSpec

REPLAY_NAMES = ("example1", "example3", "example4", "scoring-vector", "stv-vector")

#: three agents on a line, floored mean, step 1: consensus at 5 in 3 moves
EXAMPLE1_START = (3.0, 5.0, 8.0)
EXAMPLE1_POSITIONS = ((3, 5, 8), (4, 5, 7), (5, 5, 6), (5, 5, 5))
EXAMPLE1_WINNER = 5

#: sup-metric mean escape: everyone gains +1 per dimension per iteration
EXAMPLE3_START = ((-4.0, 2.0, 2.0), (2.0, -4.0, 2.0), (2.0, 2.0, -4.0))
#: sup-metric median escape with four agents
EXAMPLE4_START = ((0.0, 0.0, 0.0), (-2.0, 0.0, 0.0), (0.0, -2.0, 0.0), (0.0, 0.0, -2.0))

#: three ballots over three candidates; both potential vectors are known
ORDINAL_BALLOTS = ((0, 1, 2), (0, 1, 2), (2, 0, 1))
ORDINAL_ORDER = (0, 1, 2)
SCORING_VECTOR = (2, 2, 5, 1, 0, 2, 0, 1, 2)
STV_VECTOR = (0, 1, 2, 1, 0, 2, 3, 2, 5)

DEFAULT_ESCAPE_ITERATIONS = 500
#: an escape replay peaks at about 0.27 KB (example3) to 0.30 KB (example4) of
#: memory and takes about 10 us per iteration, so a longer one (over 1.5 GB)
#: is refused before its script is built
MAX_ESCAPE_ITERATIONS = 5_000_000


@dataclass(frozen=True)
class ReplayResult:
    name: str
    passed: bool
    lines: tuple[str, ...]
    failures: tuple[str, ...]


def _line_space() -> SpaceSpec:
    return SpaceSpec(Family.EUCLIDEAN, Metric.L1, dimension=1, integer_lattice=True)


def run_example1() -> tuple[RunReport, EngineConfig]:
    space = _line_space()
    config = EngineConfig(space, RuleSpec(VotingRule.FLOOR_MEAN), epsilon=1.0)
    initial = Profile(space, tuple(Point.reals([x]) for x in EXAMPLE1_START))
    return run(initial, config), config


def _check_length(iterations: int) -> None:
    if iterations > MAX_ESCAPE_ITERATIONS:
        raise UnsupportedSizeError(
            f"a replay of {iterations} iterations refused (limit {MAX_ESCAPE_ITERATIONS})"
        )


def example3_script(iterations: int) -> np.ndarray:
    """The example3 script: state j has every coordinate of the start moved by +j."""
    _check_length(iterations)
    # a count below 1 keeps the starting profile, so the run reports the budget
    steps = np.arange(max(iterations, 0) + 1, dtype=np.float64)
    return _read_only(np.array(EXAMPLE3_START) + steps[:, None, None])


#: example4's agents from state 1 on, relative to (j, j, j) in state j
_EXAMPLE4_OFFSETS = ((-1.0, -1.0, -1.0), (-2.0, 0.0, 0.0), (0.0, -2.0, 0.0), (0.0, 0.0, -2.0))


def example4_script(iterations: int) -> np.ndarray:
    """The example4 script: the start, then state j at (j, j, j) plus each agent's offset."""
    _check_length(iterations)
    steps = np.arange(1, max(iterations, 0) + 1, dtype=np.float64)
    moving = np.array(_EXAMPLE4_OFFSETS) + steps[:, None, None]
    return _read_only(np.concatenate((np.array(EXAMPLE4_START)[None], moving)))


def _read_only(script: np.ndarray) -> np.ndarray:
    """``script``, made read-only so that a ``PolicySpec`` keeps it without a copy."""
    script.flags.writeable = False
    return script


def _escape_run(
    rule: VotingRule,
    script: np.ndarray,
    iterations: int,
) -> tuple[RunReport, EngineConfig]:
    space = SpaceSpec(Family.EUCLIDEAN, Metric.LINF, dimension=3)
    policy = PolicySpec(
        kind=PolicyKind.SCRIPTED, script=script, constraint_mode=ConstraintMode.STRICT
    )
    # growth detection needs window + 1 trace records, so short replays
    # shrink the window rather than silently reporting no growth
    window = max(1, min(DEFAULT_GROWTH_WINDOW, iterations // 2))
    config = EngineConfig(
        space,
        RuleSpec(rule),
        policy,
        epsilon=1.0,
        max_iters=iterations,
        growth_window=window,
    )
    return run(Profile(space, script[0]), config), config


def run_example3(
    iterations: int = DEFAULT_ESCAPE_ITERATIONS,
) -> tuple[RunReport, EngineConfig]:
    return _escape_run(VotingRule.MEAN, example3_script(iterations), iterations)


def run_example4(
    iterations: int = DEFAULT_ESCAPE_ITERATIONS,
) -> tuple[RunReport, EngineConfig]:
    return _escape_run(VotingRule.MEDIAN, example4_script(iterations), iterations)


def ordinal_profile() -> Profile:
    space = SpaceSpec(Family.RANKING, Metric.SWAP, num_candidates=3)
    return Profile(space, tuple(Point.of_ranking(b) for b in ORDINAL_BALLOTS))


def _candidate(c: int) -> str:
    return chr(ord("a") + c)


def _fmt_vector(flat: tuple) -> str:
    return "(" + ", ".join(str(int(x)) for x in flat) + ")"


def _replay_example1() -> ReplayResult:
    report, _ = run_example1()
    lines = []
    failures = []
    for j, record in enumerate(report.trace):
        got = tuple(int(p.real_vector[0]) for p in record.points)
        w = record.winner.real_vector[0]
        lines.append(f"iteration {j}: points {got}, winner {int(w)}")
        if j < len(EXAMPLE1_POSITIONS) and got != EXAMPLE1_POSITIONS[j]:
            failures.append(
                f"iteration {j}: expected points {EXAMPLE1_POSITIONS[j]}, got {got}"
            )
        if w != EXAMPLE1_WINNER:
            failures.append(f"iteration {j}: expected winner {EXAMPLE1_WINNER}, got {w}")
    if len(report.trace) != len(EXAMPLE1_POSITIONS):
        failures.append(
            f"expected {len(EXAMPLE1_POSITIONS)} states, got {len(report.trace)}"
        )
    if report.outcome is not Outcome.CONVERGED:
        failures.append(f"expected convergence, got {report.outcome.value}")
    lines.append(f"outcome: {report.outcome.value} after {report.moving_iterations} moves")
    return ReplayResult("example1", not failures, tuple(lines), tuple(failures))


def _replay_escape(name: str, rule: VotingRule, iterations: int) -> ReplayResult:
    runner = run_example3 if rule is VotingRule.MEAN else run_example4
    report, _ = runner(iterations)
    failures = []
    for j, record in enumerate(report.trace):
        expected = (float(j),) * 3
        if record.winner.real_vector != expected:
            failures.append(
                f"iteration {j}: expected winner {expected}, got {record.winner.real_vector}"
            )
            break
    if report.outcome is not Outcome.CAP_REACHED:
        failures.append(f"expected a capped run, got {report.outcome.value}")
    if not report.growth_detected:
        failures.append("expected the growth heuristic to fire")
    shown = sorted(j for j in {0, 1, 2, iterations} if j < len(report.trace))
    lines = [f"iteration {j}: winner {tuple(report.trace[j].winner.real_vector)}" for j in shown]
    lines.append(
        f"outcome: {report.outcome.value} after {iterations} iterations, "
        f"growth_detected={report.growth_detected}"
    )
    return ReplayResult(name, not failures, tuple(lines), tuple(failures))


def _replay_vector(name: str) -> ReplayResult:
    profile = ordinal_profile()
    if name == "scoring-vector":
        vector = potential_scoring(profile, VotingRule.PLURALITY, ORDINAL_ORDER)
        expected = SCORING_VECTOR
        label = "plurality potential"
    else:
        vector = potential_stv(profile, ORDINAL_ORDER)
        expected = STV_VECTOR
        label = "elimination potential"
    lines = [
        "ballots: " + ", ".join(
            "(" + ",".join(_candidate(c) for c in b) + ")" for b in ORDINAL_BALLOTS
        )
    ]
    for (score, priority, borda), c in zip(vector.triplets, _vector_candidates(name, profile)):
        lines.append(f"candidate {_candidate(c)}: ({score}, {priority}, {borda})")
    lines.append(f"{label}: {_fmt_vector(vector.flat)}")
    failures = []
    if vector.flat != expected:
        failures.append(f"expected {_fmt_vector(expected)}, got {_fmt_vector(vector.flat)}")
    return ReplayResult(name, not failures, tuple(lines), tuple(failures))


def _vector_candidates(name: str, profile: Profile) -> tuple[int, ...]:
    from .rules import scoring_ranking, stv_rounds

    if name == "scoring-vector":
        return scoring_ranking(profile, VotingRule.PLURALITY, ORDINAL_ORDER).ranking
    return tuple(c for c, _ in stv_rounds(profile, ORDINAL_ORDER))


def replay(name: str, iterations: int = DEFAULT_ESCAPE_ITERATIONS) -> ReplayResult:
    """Rerun a named scenario and diff it against its expected outputs."""
    if name == "example1":
        return _replay_example1()
    if name == "example3":
        return _replay_escape(name, VotingRule.MEAN, iterations)
    if name == "example4":
        return _replay_escape(name, VotingRule.MEDIAN, iterations)
    if name in ("scoring-vector", "stv-vector"):
        return _replay_vector(name)
    raise ConfigurationError(
        f"unknown scenario {name!r}; choose one of {', '.join(REPLAY_NAMES)}"
    )
