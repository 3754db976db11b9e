"""The engine's array path against the per-agent reference.

``run`` takes the array path for the default policy on real vectors and on
unconstrained Hamming ballots with bitwise majority.  These tests compare
it with ``helpers.reference_run``, which iterates the public per-agent
``step``, over randomized configurations, and check that its referee raises
exactly what the per-agent referee raises.
"""

import io
import random

import numpy as np
import pytest

from delibsim import (
    ConstraintMode,
    ConstraintViolationError,
    EngineConfig,
    GeneratorSpec,
    InvalidPointError,
    L1Mode,
    Metric,
    MovePolicy,
    Point,
    PolicyKind,
    PolicySpec,
    Profile,
    RuleSpec,
    VotingRule,
    generate,
    points_equal,
    run,
    step,
    write_trace_jsonl,
)
from delibsim import arrays
from delibsim.engine import check_array_moves
from delibsim.spaces import EUCLIDEAN_EQ_TOL

from helpers import binary, euclidean, reference_jsonl, reference_run

_MODES = (ConstraintMode.STRICT, ConstraintMode.APPROACH_ONLY)


def _random_case(seed: int):
    """A random array-path configuration and profile; ``exact`` marks the
    cases whose trace must match the reference bit for bit."""
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    size = rng.randint(1, 12)
    mode = rng.choice(_MODES)
    if rng.random() < 0.25:
        space = binary(Metric.HAMMING, size)
        rule = VotingRule.MAJORITY
        epsilon = float(rng.randint(1, 4))
        policy = PolicySpec(constraint_mode=mode)
        box = None
        exact = True
    else:
        metric = rng.choice((Metric.L1, Metric.L2, Metric.LINF))
        l1_mode = rng.choice((L1Mode.COORD_ORDER, L1Mode.PROPORTIONAL))
        lattice = rng.random() < 0.3
        if lattice:
            rule = rng.choice((VotingRule.FLOOR_MEAN, VotingRule.MEDIAN))
            if rng.random() < 0.5:
                size = 1
            else:
                metric, l1_mode = Metric.L1, L1Mode.COORD_ORDER
            epsilon = float(rng.randint(1, 4))
        else:
            rule = rng.choice((VotingRule.MEAN, VotingRule.FLOOR_MEAN, VotingRule.MEDIAN))
            epsilon = rng.choice((float(rng.randint(1, 4)), rng.uniform(0.3, 4.0)))
        space = euclidean(metric, size, lattice=lattice)
        policy = PolicySpec(l1_mode=l1_mode, constraint_mode=mode)
        # far from the origin the referee's absolute tolerance is below float
        # resolution, so both paths must raise the same violation
        offset = rng.choice((0.0, 0.0, 0.0, -5.0, 1e8))
        box = tuple((offset, offset + 10.0) for _ in range(size))
        exact = lattice or rule is VotingRule.MEDIAN
    max_iters = rng.choice((None, rng.randint(1, 25)))
    if space.distance is Metric.LINF and max_iters is None and n * size > 60:
        max_iters = rng.randint(1, 25)  # sup-metric runs can use their whole budget
    config = EngineConfig(
        space,
        RuleSpec(rule),
        policy,
        epsilon=epsilon,
        max_iters=max_iters,
        growth_window=rng.randint(1, 8),
    )
    profile = generate(GeneratorSpec(space, n=n, seed=seed, euclidean_box=box))
    return profile, config, exact


def _outcome(profile, config, runner):
    try:
        return runner(profile, config), None
    except ConstraintViolationError as exc:
        return None, (exc.agent, exc.iteration, str(exc))


def _same_values(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    return len(a) == len(b) and all(abs(x - y) <= EUCLIDEAN_EQ_TOL for x, y in zip(a, b))


def _jsonl(report, space) -> str:
    out = io.StringIO()
    write_trace_jsonl(report, space, out)
    return out.getvalue()


@pytest.mark.parametrize("seed", range(120))
def test_array_path_matches_the_per_agent_reference(seed):
    profile, config, exact = _random_case(seed)
    got, got_error = _outcome(profile, config, run)
    want, want_error = _outcome(profile, config, reference_run)
    assert got_error == want_error
    if want is None:
        return
    assert got.trace[0].array is not None
    for name in (
        "outcome",
        "moving_iterations",
        "states",
        "cycle_period",
        "cycle_first_index",
        "growth_detected",
    ):
        assert getattr(got, name) == getattr(want, name), name
    for g, w in zip(got.trace, want.trace):
        assert g.index == w.index
        assert len(g.points) == len(w.points)
        for p, q in zip(g.points, w.points):
            assert _same_values(p.values, q.values, exact)
        assert _same_values(g.winner.values, w.winner.values, exact)
        assert _same_values(g.distances, w.distances, exact)
        assert g.moved == w.moved
    if exact:
        assert _jsonl(got, config.space) == _jsonl(want, config.space)


@pytest.mark.parametrize("seed", range(120))
def test_trace_jsonl_matches_the_reference_writer(seed):
    profile, config, _ = _random_case(seed)
    report, error = _outcome(profile, config, run)
    if report is None:
        return
    got = _jsonl(report, config.space).splitlines()
    assert got == reference_jsonl(report, config.space).splitlines()


def test_record_points_are_built_on_each_read():
    space = euclidean(Metric.L2, 2)
    profile = generate(GeneratorSpec(space, n=5, seed=1))
    report = run(profile, EngineConfig(space, RuleSpec(VotingRule.MEAN), epsilon=0.5))
    record = report.trace[0]
    assert record.array.shape == (5, 2)
    assert record.points == profile.points
    assert record.points is not record.points


def test_other_configs_and_overrides_take_the_per_agent_path():
    ballots = binary(Metric.HAMMING, 3)
    profile = Profile(ballots, (Point.of_bits("011"), Point.of_bits("110")))
    majority = EngineConfig(ballots, RuleSpec(VotingRule.MAJORITY))
    assert run(profile, majority).trace[0].array is not None
    seeded = EngineConfig(
        ballots,
        RuleSpec(VotingRule.MAJORITY),
        PolicySpec(kind=PolicyKind.SEEDED_RANDOM, seed=3),
    )
    assert run(profile, seeded).trace[0].array is None
    report = run(profile, majority, winner=lambda rule, prof: Point.of_bits("111"))
    assert report.trace[0].array is None
    assert report.trace[0].winner == Point.of_bits("111")


class _Proposed(MovePolicy):
    """Proposes fixed target points, so ``step``'s referee judges them."""

    def __init__(self, space, targets):
        super().__init__(space, PolicySpec())
        self.targets = targets

    def move(self, v, w, epsilon, iteration, agent):
        return self.targets[agent]


def _raised(action):
    try:
        action()
    except (ConstraintViolationError, InvalidPointError) as exc:
        return type(exc), getattr(exc, "agent", None), getattr(exc, "iteration", None), str(exc)
    return None


def _both_referees(profile, config, targets, iteration=3):
    """What the per-agent and the array referee raise for the same proposed moves."""
    before = arrays.from_profile(profile)
    after = np.array([p.values for p in targets], dtype=before.dtype)
    w = arrays.winner(config.rule.rule, before)
    d = arrays.distances(config.space, before, w)
    mover = _Proposed(config.space, targets)
    per_agent = _raised(lambda: step(profile, config, policy=mover, iteration=iteration))
    array = _raised(lambda: check_array_moves(config, before, after, w, d, iteration))
    return per_agent, array


@pytest.mark.parametrize("mode", _MODES)
def test_array_referee_raises_what_the_per_agent_referee_raises(mode):
    # the median of the four agents is (2, 2); every agent is 2 away under l1
    space = euclidean(Metric.L1, 2)
    start = [(0.0, 2.0), (2.0, 0.0), (2.0, 4.0), (4.0, 2.0)]
    legal = [(1.0, 2.0), (2.0, 1.0), (2.0, 3.0), (3.0, 2.0)]
    profile = Profile(space, tuple(Point.reals(p) for p in start))
    config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN), PolicySpec(constraint_mode=mode))
    strict = mode is ConstraintMode.STRICT
    stall = list(legal)
    stall[2] = start[2]  # no approach at all: breaks the first law in both modes
    detour = list(legal)
    detour[1] = (1.5, 1.5)  # one closer, but displaced by 2: breaks the second law
    both = list(detour)
    both[3] = start[3]
    for proposal, first_failing in ((legal, None), (stall, 2), (detour, 1 if strict else None),
                                    (both, 1 if strict else 3)):
        targets = tuple(Point.reals(p) for p in proposal)
        per_agent, array = _both_referees(profile, config, targets)
        assert per_agent == array
        if first_failing is None:
            assert array is None
        else:
            assert array[:3] == (ConstraintViolationError, first_failing, 3)


@pytest.mark.parametrize("mode", _MODES)
def test_array_referee_rejects_ballot_moves_like_the_per_agent_referee(mode):
    space = binary(Metric.HAMMING, 4)
    profile = Profile(space, tuple(Point.of_bits(b) for b in ("0000", "1111", "1100")))
    config = EngineConfig(
        space, RuleSpec(VotingRule.MAJORITY), PolicySpec(constraint_mode=mode), epsilon=1.0
    )
    # the majority is 1100; agent 0 flips a wrong bit, agent 1 a right one
    targets = tuple(Point.of_bits(b) for b in ("0001", "1110", "1100"))
    per_agent, array = _both_referees(profile, config, targets)
    assert per_agent == array
    assert array[:2] == (ConstraintViolationError, 0)


def test_array_referee_reports_lattice_points_off_the_lattice():
    space = euclidean(Metric.L1, 2, lattice=True)
    profile = Profile(space, tuple(Point.reals(p) for p in ((0.0, 0.0), (2.0, 2.0), (2.0, 2.0))))
    config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN), epsilon=1.0)
    # one closer to (2, 2) and displaced by one, as both laws ask, but off the lattice
    targets = tuple(Point.reals(p) for p in ((0.5, 0.5), (2.0, 2.0), (2.0, 2.0)))
    per_agent, array = _both_referees(profile, config, targets)
    assert per_agent == array
    assert array[0] is InvalidPointError


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_array_referee_reports_non_finite_points(mode, bad):
    space = euclidean(Metric.L2, 2)
    profile = Profile(space, (Point.reals((0.0, 0.0)), Point.reals((2.0, 0.0))))
    config = EngineConfig(space, RuleSpec(VotingRule.MEAN), PolicySpec(constraint_mode=mode))
    targets = (Point.reals((1.0, 0.0)), Point.reals((1.0, bad)))
    per_agent, array = _both_referees(profile, config, targets)
    assert per_agent == array
    assert array[0] is InvalidPointError


#: (multiple of EUCLIDEAN_EQ_TOL, whether an error that large is refused)
_TOLERANCE_EDGE = ((0.5, False), (2.0, True))


def _off_by(law, e):
    """(step size, agent 0's move from (0, 2) toward (2, 2)) with one law off by ``e``."""
    h = e / 2
    return {
        "approach": (1.0, (1.0 - h, 2.0 + h)),  # ends 1 + e away, displaced by 1
        "displacement": (1.0, (1.0 + h, 2.0 + h)),  # ends 1 away, displaced by 1 + e
        "landing": (2.0, (2.0 - h, 2.0 + h)),  # ends e away from the winner it should reach
    }[law]


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("law", ["approach", "displacement", "landing"])
@pytest.mark.parametrize("factor, too_far", _TOLERANCE_EDGE)
def test_referees_agree_at_the_tolerance_edge(mode, law, factor, too_far):
    # the median of the four agents is (2, 2); every agent is 2 away under l1
    space = euclidean(Metric.L1, 2)
    start = [(0.0, 2.0), (2.0, 0.0), (2.0, 4.0), (4.0, 2.0)]
    profile = Profile(space, tuple(Point.reals(p) for p in start))
    epsilon, off = _off_by(law, factor * EUCLIDEAN_EQ_TOL)
    if epsilon == 1.0:
        rest = [(2.0, 1.0), (2.0, 3.0), (3.0, 2.0)]
    else:  # within reach, the other agents land on the winner
        rest = [(2.0, 2.0)] * 3
    targets = tuple(Point.reals(p) for p in [off] + rest)
    config = EngineConfig(
        space, RuleSpec(VotingRule.MEDIAN), PolicySpec(constraint_mode=mode), epsilon=epsilon
    )
    per_agent, array = _both_referees(profile, config, targets)
    assert per_agent == array
    # approach-only checking leaves the displacement law unchecked
    refused = too_far and (law != "displacement" or mode is ConstraintMode.STRICT)
    if refused:
        assert array[:3] == (ConstraintViolationError, 0, 3)
    else:
        assert array is None


@pytest.mark.parametrize("factor, apart", _TOLERANCE_EDGE)
def test_points_equal_and_arrays_moved_agree_at_the_tolerance_edge(factor, apart):
    space = euclidean(Metric.L2, 2)
    e = factor * EUCLIDEAN_EQ_TOL
    for base in ((0.0, 0.0), (1.0, 2.0), (-3.0, 5.0)):
        for shift in ((e, 0.0), (0.0, -e), (e, e)):
            other = tuple(b + s for b, s in zip(base, shift))
            assert points_equal(space, Point.reals(base), Point.reals(other)) is not apart
            assert arrays.moved(space, np.array([base]), np.array([other])).tolist() == [apart]
