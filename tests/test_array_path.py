"""The engine's array path against the per-agent reference.

``run`` takes the array path for the default policy on real vectors and on
unconstrained Hamming ballots with bitwise majority.  These tests compare
it with ``helpers.reference_run``, which iterates the public per-agent
``step``, over randomized configurations, and check that its referee raises
exactly what the per-agent referee raises.
"""

import io
import json
import math
import random
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delibsim import (
    ConfigurationError,
    ConstraintMode,
    ConstraintViolationError,
    DelibError,
    EngineConfig,
    GeneratorSpec,
    InfeasibleStepError,
    InvalidPointError,
    L1Mode,
    Metric,
    MovePolicy,
    Outcome,
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
from delibsim import arrays, engine, rules
from delibsim.analysis import BoundKind, iteration_bound, winner_stability
from delibsim.engine import check_array_moves
from delibsim.spaces import EUCLIDEAN_EQ_TOL, total

from helpers import binary, euclidean, lost_step, reference_jsonl, reference_run

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
    )
    profile = generate(GeneratorSpec(space, n=n, seed=seed, euclidean_box=box))
    return profile, config, exact


def _outcome(profile, config, runner):
    try:
        return runner(profile, config), None
    except DelibError as exc:
        return None, (type(exc), getattr(exc, "agent", None), getattr(exc, "iteration", None),
                      str(exc))


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
    assert got.trace[0].run_arrays is not None
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


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("block", [1, 25])
def test_trace_jsonl_is_the_same_for_every_block_size(seed, block, monkeypatch):
    # one record per block, and blocks that end inside a run's states
    profile, config, _ = _random_case(seed)
    report, error = _outcome(profile, config, run)
    if report is None:
        return
    monkeypatch.setattr(arrays, "_TEXT_BLOCK", block)
    got = _jsonl(report, config.space).splitlines()
    assert got == reference_jsonl(report, config.space).splitlines()


@pytest.mark.parametrize("seed", range(120))
def test_each_trace_line_survives_a_json_round_trip(seed):
    profile, config, _ = _random_case(seed)
    report, error = _outcome(profile, config, run)
    if report is None:
        return
    for line in _jsonl(report, config.space).splitlines():
        assert json.dumps(json.loads(line)) == line


def test_record_points_are_built_on_each_read():
    space = euclidean(Metric.L2, 2)
    profile = generate(GeneratorSpec(space, n=5, seed=1))
    report = run(profile, EngineConfig(space, RuleSpec(VotingRule.MEAN), epsilon=0.5))
    record = report.trace[0]
    assert record.run_arrays[0][record.index].shape == (5, 2)
    assert record.points == profile.points
    assert record.points is not record.points


def test_other_configs_and_overrides_take_the_per_agent_path():
    ballots = binary(Metric.HAMMING, 3)
    profile = Profile(ballots, (Point.of_bits("011"), Point.of_bits("110")))
    majority = EngineConfig(ballots, RuleSpec(VotingRule.MAJORITY))
    assert run(profile, majority).trace[0].run_arrays is not None
    seeded = EngineConfig(
        ballots,
        RuleSpec(VotingRule.MAJORITY),
        PolicySpec(kind=PolicyKind.SEEDED_RANDOM, seed=3),
    )
    assert run(profile, seeded).trace[0].run_arrays is None
    report = run(profile, majority, winner=lambda rule, prof: Point.of_bits("111"))
    assert report.trace[0].run_arrays is None
    assert report.trace[0].winner == Point.of_bits("111")


@st.composite
def _majority_case(draw):
    """Ballots under Hamming distance with bitwise majority, odd and even n,
    and a step size up to beyond the ballot length."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 13))
    space = binary(Metric.HAMMING, m)
    rows = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    profile = Profile(space, tuple(Point.of_bits([int(b) for b in row]) for row in rows))
    epsilon = float(draw(st.integers(1, m + 2)))
    mode = draw(st.sampled_from(_MODES))
    return profile, EngineConfig(space, RuleSpec(VotingRule.MAJORITY), PolicySpec(
        constraint_mode=mode), epsilon=epsilon)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_majority_case())
def test_bitwise_majority_keeps_its_winner_so_no_run_can_cycle(case):
    # default moves flip bits only toward the winner, so each column's count
    # moves toward its majority: the winner holds, and the array path needs
    # no cycle check
    profile, config = case
    bound = iteration_bound(config.space, config.rule, profile, config.epsilon)
    assert bound.kind is BoundKind.EXACT
    for winner in (None, rules.winner):  # the array path, then step
        report = run(profile, config, winner=winner)
        assert winner_stability(report.trace)
        assert report.outcome is Outcome.CONVERGED
        assert report.moving_iterations == bound.iterations


class _Proposed(MovePolicy):
    """Proposes fixed target points, so ``step``'s referee judges them."""

    def __init__(self, space, targets):
        super().__init__(space, PolicySpec())
        self.targets = targets

    def move(self, v, w, d, epsilon, iteration, agent):
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


# --- scripted real-vector runs, evaluated as one array -----------------------

def _script_outcome(profile, config, runner):
    """(report, None), or (None, the type, text, agent and iteration of what
    the run raised); a script can be illegal, too short or off the space, and
    an infinite spread leaves no default budget."""
    try:
        return runner(profile, config), None
    except (ConfigurationError, ConstraintViolationError, InfeasibleStepError,
            InvalidPointError) as exc:
        return None, (type(exc), str(exc), getattr(exc, "agent", None),
                      getattr(exc, "iteration", None))


_SCRIPT_RULES = (VotingRule.MEAN, VotingRule.FLOOR_MEAN, VotingRule.MEDIAN)
_SCRIPT_METRICS = (
    (Metric.L1, L1Mode.COORD_ORDER),
    (Metric.L1, L1Mode.PROPORTIONAL),
    (Metric.L2, L1Mode.COORD_ORDER),
    (Metric.LINF, L1Mode.COORD_ORDER),
)


@st.composite
def _scripted_case(draw):
    """A profile and a scripted config whose script was recorded from a
    default-policy run, then perhaps perturbed or replayed under another
    rule, metric or constraint mode."""
    lattice = draw(st.booleans())
    size = draw(st.integers(1, 3))
    if lattice:
        rule = draw(st.sampled_from((VotingRule.FLOOR_MEAN, VotingRule.MEDIAN)))
        metric, l1_mode = (Metric.L1, L1Mode.COORD_ORDER) if size > 1 else draw(
            st.sampled_from(_SCRIPT_METRICS))
        epsilon = float(draw(st.integers(1, 3)))
    else:
        rule = draw(st.sampled_from(_SCRIPT_RULES))
        metric, l1_mode = draw(st.sampled_from(_SCRIPT_METRICS))
        epsilon = draw(st.sampled_from((1.0, 2.0, 0.7, 1.3)))
    space = euclidean(metric, size, lattice=lattice)
    n = draw(st.integers(2, 7))
    profile = generate(GeneratorSpec(space, n=n, seed=draw(st.integers(0, 10**6))))
    recording = EngineConfig(space, RuleSpec(rule), PolicySpec(l1_mode=l1_mode), epsilon=epsilon,
                             max_iters=draw(st.integers(1, 25)))
    recorded = run(profile, recording)
    script = np.array([r.run_arrays[0][r.index] for r in recorded.trace])
    if recorded.outcome is Outcome.CONVERGED:  # the state after the idle step
        script = np.concatenate((script, script[-1:]))
    if draw(st.integers(0, 2)) == 0:  # replay under another rule or metric
        if lattice:
            rule = draw(st.sampled_from((VotingRule.FLOOR_MEAN, VotingRule.MEDIAN)))
        else:
            rule = draw(st.sampled_from(_SCRIPT_RULES))
            metric, l1_mode = draw(st.sampled_from(_SCRIPT_METRICS))
            space = euclidean(metric, size)
    step_count = len(script) - 1
    perturbation = draw(st.sampled_from(("none", "nudge", "stall", "truncate", "consensus")))
    if perturbation == "nudge" and step_count:
        j, i, c = (draw(st.integers(1, step_count)), draw(st.integers(0, n - 1)),
                   draw(st.integers(0, size - 1)))
        deltas = (1.0, -2.0) if lattice else (1e-12, 5e-10, 2e-9, 1e-3, 0.5, -1.0)
        script[j, i, c] += draw(st.sampled_from(deltas))
    elif perturbation == "stall" and step_count:
        j, i = draw(st.integers(0, step_count - 1)), draw(st.integers(0, n - 1))
        script[j + 1:, i] = script[j, i]
    elif perturbation == "truncate":
        script = script[: draw(st.integers(1, len(script)))]
    elif perturbation == "consensus":  # the script goes on past its consensus
        script = np.concatenate([script] + [script[-1:]] * draw(st.integers(1, 3)))
    max_iters = draw(st.one_of(st.none(), st.integers(1, len(script) + 2)))
    policy = PolicySpec(PolicyKind.SCRIPTED, script=script, l1_mode=l1_mode,
                        constraint_mode=draw(st.sampled_from(_MODES)))
    config = EngineConfig(space, RuleSpec(rule), policy, epsilon=epsilon, max_iters=max_iters)
    return Profile(space, arrays.points(script[0])), config


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_scripted_case(), st.sampled_from((1, 5, 12, engine.SCRIPT_BLOCK_ROWS)))
def test_whole_script_path_matches_the_per_agent_reference(case, rows):
    profile, config = case
    assert isinstance(config.policy.script, np.ndarray)
    with mock.patch.object(engine, "SCRIPT_BLOCK_ROWS", rows):  # rows judged at once
        got, got_error = _script_outcome(profile, config, run)
    want, want_error = _script_outcome(profile, config, reference_run)
    assert got_error == want_error
    if want is None:
        return
    assert got.trace[0].run_arrays is not None
    assert got.trace == want.trace
    for name in ("outcome", "point", "moving_iterations", "states", "cycle_period",
                 "cycle_first_index", "growth_detected"):
        assert getattr(got, name) == getattr(want, name), name
    assert _jsonl(got, config.space) == _jsonl(want, config.space)


def test_a_script_replays_from_an_initial_profile_that_differs_from_its_first_entry():
    space = euclidean(Metric.L1, 1)
    script = np.array([[[0.0], [4.0]], [[1.0], [3.0]], [[2.0], [2.0]], [[2.0], [2.0]]])
    config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN),
                          PolicySpec(PolicyKind.SCRIPTED, script=script))
    for start in ((0.0, 4.0), (-0.0, 4.0), (1.0, 3.0)):
        profile = Profile(space, tuple(Point.reals((x,)) for x in start))
        got, got_error = _script_outcome(profile, config, run)
        want, want_error = _script_outcome(profile, config, reference_run)
        assert got_error == want_error
        if want is not None:
            assert got.trace == want.trace
            assert _jsonl(got, config.space) == _jsonl(want, config.space)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("entries", [[0], [0, 0], [0, 1]])
def test_iteration_0_is_judged_before_an_infinite_spread_sizes_the_budget(mode, entries):
    # two agents 3e308 apart under l-inf: the default budget overflows, but
    # only after iteration 0's moves and the script's length have been judged
    space = euclidean(Metric.LINF, 1)
    states = np.array([[[-1.5e308], [1.5e308]], [[-1.5e308], [0.0]]])
    config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN), PolicySpec(
        PolicyKind.SCRIPTED, script=states[entries], constraint_mode=mode))
    profile = Profile(space, arrays.points(states[0]))
    got, got_error = _script_outcome(profile, config, run)
    step_path = lambda p, c: run(p, c, winner=rules.winner)
    want, want_error = _script_outcome(profile, config, step_path)
    assert got is want is None
    assert got_error == want_error


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("metric", [Metric.L1, Metric.L2, Metric.LINF])
def test_an_infinite_spread_raises_alike_on_both_paths_without_warnings(mode, metric):
    # the agents are 3e308 apart, a distance no float holds
    space = euclidean(metric, 1)
    profile = Profile(space, (Point.reals((-1.5e308,)), Point.reals((1.5e308,))))
    config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN), PolicySpec(constraint_mode=mode))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the array path's overflow stays silent
        got = _script_outcome(profile, config, run)
    assert got == _script_outcome(profile, config, lambda p, c: run(p, c, winner=rules.winner))
    # the reference, too, steps iteration 0 before it sizes the budget
    assert _script_outcome(profile, config, reference_run) == got
    if metric is not Metric.L1:
        # epsilon / inf * inf would be NaN: the move toward the winner refuses
        assert got[1][:2] == (InfeasibleStepError, "agent 0 at iteration 0: the distance to "
                              "the winner overflows to inf, too far to scale a step of 1.0 "
                              "toward it")
    elif mode is ConstraintMode.STRICT:
        # nobody can move, and the strict mode refuses that before any budget
        assert got[1] == (ConstraintViolationError, "agent 0 at iteration 0: displacement "
                          "law violated: moved 0.0, expected exactly 1.0", 0, 0)
    else:
        # nobody can move, legally, so the budget is sized and there is none
        assert got[1][:2] == (ConfigurationError, (
            "the farthest agent is inf from the winner, too far to size the default "
            "iteration budget; set max_iters"))


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("metric, l1_mode, spread", [
    (Metric.L2, L1Mode.COORD_ORDER, 1.5e308), (Metric.LINF, L1Mode.COORD_ORDER, 1.5e308),
    (Metric.L1, L1Mode.PROPORTIONAL, 1.5e308)])
def test_a_scaled_move_toward_an_infinitely_far_winner_raises_on_both_paths(
    mode, metric, l1_mode, spread
):
    space = euclidean(metric, 1)
    profile = Profile(space, (Point.reals((-spread,)), Point.reals((spread,))))
    config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN),
                          PolicySpec(l1_mode=l1_mode, constraint_mode=mode), max_iters=5)
    for winner in (None, rules.winner):  # the array path, then step
        with pytest.raises(InfeasibleStepError) as raised:
            run(profile, config, winner=winner)
        assert str(raised.value) == ("agent 0 at iteration 0: the distance to the winner "
                                     "overflows to inf, too far to scale a step of 1.0 toward it")


@pytest.mark.parametrize("mode, error, message", [
    (ConstraintMode.STRICT, ConstraintViolationError,
     "agent 0 at iteration 0: displacement law violated: moved 0.0, expected exactly 1.0"),
    (ConstraintMode.APPROACH_ONLY, InfeasibleStepError, lost_step(0, 2e200)),
], ids=["strict", "approach_only"])
def test_a_step_lost_to_rounding_at_a_finite_distance_raises_on_both_paths(mode, error, message):
    # the l2 move scales by hypot's finite 2e200, but -1e200 + 1 == -1e200:
    # the strict mode refuses the move, and the approach-only mode, which
    # accepts it, must not call the two agents a consensus
    space = euclidean(Metric.L2, 1)
    profile = Profile(space, (Point.reals((-1e200,)), Point.reals((1e200,))))
    config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN), PolicySpec(constraint_mode=mode),
                          max_iters=5)
    for winner in (None, rules.winner):  # the array path, then step
        with pytest.raises(error) as raised:
            run(profile, config, winner=winner)
        assert str(raised.value) == message


@pytest.mark.parametrize("case", ["small steps", "far apart", "close pair"])
def test_an_idle_profile_that_is_no_consensus_raises_on_both_paths(case):
    if case == "close pair":
        # 1.5e-9 apart, so no consensus, but each step of 7.5e-10 is below the tolerance
        space = euclidean(Metric.L2, 1)
        profile = Profile(space, (Point.reals((0.0,)), Point.reals((1.5e-9,))))
        config = EngineConfig(space, RuleSpec(VotingRule.MEAN), epsilon=1.0)
        message = lost_step(0, 7.5e-10)
    elif case == "small steps":
        # every step of 1e-10 is below the tolerance, so nobody counts as moved
        space = euclidean(Metric.L2, 2)
        profile = generate(GeneratorSpec(space, n=7, seed=3))
        config = EngineConfig(space, RuleSpec(VotingRule.MEAN), epsilon=1e-10)
        message = lost_step(3, 5.968455983867633, epsilon=1e-10)
    else:
        # -1e17 + 1 == -1e17: the coordinate-order step is lost to rounding
        space = euclidean(Metric.L1, 1)
        profile = Profile(space, (Point.reals((-1e17,)), Point.reals((1e17,))))
        config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN),
                              PolicySpec(constraint_mode=ConstraintMode.APPROACH_ONLY),
                              max_iters=5)
        message = lost_step(0, 2e17)
    # the array path, then step, then the reference
    for runner in (run, lambda *args: run(*args, winner=rules.winner), reference_run):
        with pytest.raises(InfeasibleStepError) as raised:
            runner(profile, config)
        assert str(raised.value) == message


@pytest.mark.parametrize("metric", [Metric.L1, Metric.L2, Metric.LINF])
def test_runs_far_from_the_origin_converge_alike_under_every_metric(metric):
    # the l2 move's length is hypot's, so its squares no longer overflow
    x = 1e200
    space = euclidean(metric, 1)
    profile = Profile(space, tuple(Point.reals((v,)) for v in (-x, x, x / 2)))
    config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN),
                          PolicySpec(constraint_mode=ConstraintMode.APPROACH_ONLY),
                          epsilon=x / 4, max_iters=20)
    got = run(profile, config)
    want = run(profile, config, winner=rules.winner)
    for report in (got, want):
        assert report.outcome is Outcome.CONVERGED
        assert report.moving_iterations == 6
        assert report.point == Point.reals((x / 2,))
    assert _jsonl(got, space) == _jsonl(want, space)


@pytest.mark.parametrize("mode", _MODES)
def test_an_earlier_agent_fails_before_a_step_toward_an_infinitely_far_winner(mode):
    # the median is 1.5e308; agent 0's step of 1 is lost to rounding, which
    # the strict mode refuses, and agent 1's winner is infinitely far
    space = euclidean(Metric.LINF, 1)
    profile = Profile(space, tuple(Point.reals((x,)) for x in (1e300, -1.5e308, 1.5e308, 1.5e308)))
    config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN), PolicySpec(constraint_mode=mode),
                          max_iters=5)
    got = _script_outcome(profile, config, run)
    assert got == _script_outcome(profile, config, lambda p, c: run(p, c, winner=rules.winner))
    if mode is ConstraintMode.STRICT:
        assert got[1][:2] == (ConstraintViolationError, "agent 0 at iteration 0: displacement "
                              "law violated: moved 0.0, expected exactly 1.0")
    else:
        assert got[1][:2] == (InfeasibleStepError, "agent 1 at iteration 0: the distance to "
                              "the winner overflows to inf, too far to scale a step of 1.0 "
                              "toward it")


@pytest.mark.parametrize("agents", [1, 3])
def test_a_script_for_another_number_of_agents_is_refused_on_both_paths(agents):
    space = euclidean(Metric.L1, 1)
    script = np.array([[[0.0], [4.0]], [[1.0], [3.0]]])
    config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN),
                          PolicySpec(PolicyKind.SCRIPTED, script=script))
    profile = Profile(space, tuple(Point.reals((float(x),)) for x in range(agents)))
    for winner in (None, rules.winner):  # the whole-script path, then step
        with pytest.raises(ConfigurationError, match=f"the profile has {agents} agents"):
            run(profile, config, winner=winner)


def test_a_script_whose_entries_list_different_numbers_of_agents_is_refused():
    space = euclidean(Metric.L1, 1)
    script = ((Point.reals((0.0,)), Point.reals((4.0,))), (Point.reals((1.0,)),))
    with pytest.raises(ConfigurationError, match="the same number of agents"):
        EngineConfig(space, RuleSpec(VotingRule.MEDIAN), PolicySpec(PolicyKind.SCRIPTED,
                                                                    script=script))


def test_a_script_beside_another_policy_kind_is_left_unused():
    space = euclidean(Metric.L1, 1)
    profile = Profile(space, tuple(Point.reals((x,)) for x in (0.0, 2.0, 4.0)))
    script = np.array([[[0.0]], [[1.0]]])
    config = EngineConfig(space, RuleSpec(VotingRule.MEDIAN), PolicySpec(script=script))
    report = run(profile, config)
    assert report.outcome is Outcome.CONVERGED
    assert report.trace == run(profile, EngineConfig(space, RuleSpec(VotingRule.MEDIAN))).trace


def test_a_script_given_as_points_becomes_one_array():
    space = euclidean(Metric.LINF, 2)
    profiles = ((Point.reals((0.0, 0.0)), Point.reals((2.0, 2.0))),
                (Point.reals((1.0, 1.0)), Point.reals((1.0, 1.0))))
    policy = PolicySpec(PolicyKind.SCRIPTED, script=profiles)
    assert policy.script.shape == (2, 2, 2)
    assert not policy.script.flags.writeable
    assert policy == PolicySpec(PolicyKind.SCRIPTED, script=np.array(policy.script))
    assert hash(policy) == hash(PolicySpec(PolicyKind.SCRIPTED, script=profiles))
    ballots = binary(Metric.HAMMING, 2)
    bits = ((Point.of_bits("01"),), (Point.of_bits("11"),))
    assert PolicySpec(PolicyKind.SCRIPTED, script=bits).script == bits
    config = EngineConfig(space, RuleSpec(VotingRule.MEAN), policy, max_iters=1)
    # consensus reached on the budget's last step
    assert run(Profile(space, profiles[0]), config).outcome is Outcome.CONVERGED
    with pytest.raises(InvalidPointError):
        EngineConfig(ballots, RuleSpec(VotingRule.MAJORITY), policy)


@pytest.mark.parametrize("bad, message", [
    ((np.inf, 0.0), "agent 1: coordinate 0 = inf is not finite"),
    ((0.5, 0.0), "agent 1: coordinate 0 = 0.5 is not integral on an integer lattice"),
])
def test_a_script_array_is_checked_once_where_it_enters(bad, message):
    space = euclidean(Metric.L1, 2, lattice=True)
    script = np.zeros((3, 2, 2))
    script[2, 1] = bad
    with pytest.raises(InvalidPointError) as info:
        EngineConfig(space, RuleSpec(VotingRule.MEDIAN), PolicySpec(PolicyKind.SCRIPTED,
                                                                    script=script))
    assert str(info.value) == message
    with pytest.raises(InvalidPointError) as info:
        EngineConfig(euclidean(Metric.L1, 3), RuleSpec(VotingRule.MEDIAN),
                     PolicySpec(PolicyKind.SCRIPTED, script=np.zeros((3, 2, 2))))
    assert str(info.value) == "agent 0: expected 3 coordinates, got 2"


#: summands where float addition is delicate: signed zeros, infinities, NaN,
#: subnormals and magnitudes whose sum overflows
_DELICATE = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, -1e-310,
             2.2250738585072014e-308, 9e307, 1.5e308, 1.7976931348623157e308,
             -1.7976931348623157e308)


@st.composite
def _summand_rows(draw):
    """Rows to add: short ones, as an agent's d = 1-12 coordinates, or long
    ones, as one coordinate of n = 1-5000 agents.  Either random values with
    magnitudes from subnormal to overflowing, or one delicate value
    throughout; then a few delicate or arbitrary values dropped in."""
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 64)), draw(st.integers(1, 12)))
    else:
        shape = (draw(st.integers(1, 12)), draw(st.integers(1, 5000)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        low = draw(st.integers(-1074, 1023))
        high = draw(st.integers(low, 1023))
        with np.errstate(over="ignore"):
            rows = np.ldexp(rng.standard_normal(shape), rng.integers(low, high + 1, shape))
    else:
        rows = np.full(shape, draw(st.sampled_from(_DELICATE)))
    for _ in range(draw(st.integers(0, 12))):
        at = (draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1)))
        rows[at] = draw(st.sampled_from(_DELICATE) | st.floats())
    return rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_summand_rows())
def test_array_sums_equal_the_per_agent_total_bit_for_bit(rows):
    want = np.array([total(row) for row in rows.tolist()])
    for layout in (rows, np.asfortranarray(rows)):
        with np.errstate(over="ignore", invalid="ignore"):
            got = arrays._sums(layout)
        same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
        assert same.all(), (rows[~same], got[~same], want[~same])


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _stepped(value: float, steps: int) -> float:
    """``value`` moved ``steps`` doubles up (or down, when negative)."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


def _tie(lead: int, exponent: int) -> float:
    """The double nearest the decimal ``lead`` followed by a 5, times 10**exponent."""
    return float(f"{lead}5e{exponent}")


_NEIGHBOUR = st.integers(-3, 3)
_KERNEL_INPUTS = st.one_of(
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(_from_bits),  # raw 64-bit patterns
    st.integers(1, 2 ** 52 - 1).map(_from_bits),  # subnormals
    st.builds(_stepped, st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)), _NEIGHBOUR),
    st.builds(_stepped, st.integers(-323, 308).map(lambda k: float(f"1e{k}")), _NEIGHBOUR),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.integers(2 ** 53 - 1000, 2 ** 53 + 1000).map(float),
    st.integers(10 ** 16 - 1000, 10 ** 16 + 1000).map(float),
    st.builds(_stepped, st.sampled_from([1e-4, 1e-5, 1e15, 1e16, 1e17]), _NEIGHBOUR),
    # decimals halfway between two of 15, 16 or 17 digits
    st.builds(_stepped, st.builds(_tie, st.one_of(
        st.integers(10 ** (k - 1), 10 ** k - 1) for k in (15, 16, 17)
    ), st.integers(-30, 30)), _NEIGHBOUR),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _texts_agree(values) -> None:
    values = np.array(values, dtype=np.float64)
    texts = arrays._lines(arrays._float_columns(values).T[:, None], arrays._NEWLINE)
    assert texts == [json.dumps(v) for v in values.tolist()]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.tuples(_KERNEL_INPUTS, st.booleans()), min_size=1, max_size=40))
def test_the_float_text_kernel_writes_what_json_dumps_writes(drawn):
    _texts_agree([-v if negate else v for v, negate in drawn])


def test_the_float_text_kernel_agrees_on_every_power_of_two_and_ten_and_their_neighbours():
    powers = np.concatenate((np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{k}") for k in range(-323, 309)]))
    _texts_agree([_stepped(p, k) for p in powers.tolist() for k in range(-3, 4)])


def test_the_float_text_kernel_agrees_on_random_bit_patterns_and_decimals():
    rng = np.random.default_rng(0)
    bits = rng.integers(-(2 ** 63), 2 ** 63 - 1, 20_000, dtype=np.int64, endpoint=True)
    _texts_agree(bits.view(np.float64))
    _texts_agree(rng.uniform(0.0, 10.0, 20_000))
    _texts_agree(rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.integers(-20, 20, 20_000))
