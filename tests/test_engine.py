"""Engine: configuration guards, stepping, termination, and run reports."""

import math

import pytest

from delibsim import (
    ConfigurationError,
    ConstraintMode,
    ConstraintViolationError,
    EngineConfig,
    L1Mode,
    Metric,
    Outcome,
    Point,
    PolicyKind,
    PolicySpec,
    Profile,
    RuleSpec,
    VotingRule,
    dist,
    is_consensus,
    run,
    step,
)
from delibsim import engine, rules

from helpers import binary, euclidean, ranking_space

APPROACH = PolicySpec(constraint_mode=ConstraintMode.APPROACH_ONLY)


def line_profile(*values, lattice=False):
    space = euclidean(Metric.L1, 1, lattice=lattice)
    return Profile(space, tuple(Point.reals((float(v),)) for v in values))


# --- configuration guards ----------------------------------------------------


def test_config_rejects_nonpositive_epsilon():
    space = euclidean(Metric.L2, 1)
    with pytest.raises(ConfigurationError):
        EngineConfig(space, RuleSpec(VotingRule.MEAN), epsilon=0.0)
    with pytest.raises(ConfigurationError):
        EngineConfig(space, RuleSpec(VotingRule.MEAN), epsilon=-1.0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_config_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ConfigurationError):
        EngineConfig(euclidean(Metric.L2, 1), RuleSpec(VotingRule.MEAN), epsilon=epsilon)


def test_config_rejects_fractional_discrete_step():
    space = binary(Metric.HAMMING, 4)
    with pytest.raises(ConfigurationError):
        EngineConfig(space, RuleSpec(VotingRule.MAJORITY), epsilon=0.5)
    EngineConfig(space, RuleSpec(VotingRule.MAJORITY), epsilon=2.0)


def test_config_rejects_rule_family_mismatch():
    with pytest.raises(ConfigurationError):
        EngineConfig(euclidean(Metric.L2, 1), RuleSpec(VotingRule.KEMENY))
    with pytest.raises(ConfigurationError):
        EngineConfig(ranking_space(Metric.SWAP, 3), RuleSpec(VotingRule.MEAN))


def test_config_rejects_tiebreak_length_mismatch():
    space = ranking_space(Metric.SWAP, 3)
    with pytest.raises(ConfigurationError):
        EngineConfig(space, RuleSpec(VotingRule.PLURALITY, (0, 1, 2, 3)))


def test_config_rejects_majority_on_committee_space():
    space = binary(Metric.HAMMING, 4, k=2)
    with pytest.raises(ConfigurationError):
        EngineConfig(space, RuleSpec(VotingRule.MAJORITY), epsilon=2.0)


def test_config_rejects_topk_without_committee():
    space = binary(Metric.HAMMING, 4)
    with pytest.raises(ConfigurationError):
        EngineConfig(space, RuleSpec(VotingRule.TOPK_MAJORITY, (0, 1, 2, 3)))


def test_config_rejects_odd_step_on_committee():
    space = binary(Metric.HAMMING, 4, k=2)
    with pytest.raises(ConfigurationError):
        EngineConfig(space, RuleSpec(VotingRule.TOPK_MAJORITY, (0, 1, 2, 3)), epsilon=1.0)
    EngineConfig(space, RuleSpec(VotingRule.TOPK_MAJORITY, (0, 1, 2, 3)), epsilon=2.0)


def test_config_first_changed_needs_approach_only():
    space = binary(Metric.FIRST_CHANGED, 4)
    with pytest.raises(ConfigurationError):
        EngineConfig(space, RuleSpec(VotingRule.MAJORITY))
    EngineConfig(space, RuleSpec(VotingRule.MAJORITY), policy=APPROACH)


def test_config_lattice_restrictions():
    lattice1 = euclidean(Metric.L1, 1, lattice=True)
    EngineConfig(lattice1, RuleSpec(VotingRule.FLOOR_MEAN))
    with pytest.raises(ConfigurationError):
        EngineConfig(lattice1, RuleSpec(VotingRule.MEAN))
    with pytest.raises(ConfigurationError):
        EngineConfig(lattice1, RuleSpec(VotingRule.FLOOR_MEAN), epsilon=0.5)
    lattice2 = euclidean(Metric.L1, 2, lattice=True)
    EngineConfig(lattice2, RuleSpec(VotingRule.MEDIAN))
    with pytest.raises(ConfigurationError):
        EngineConfig(
            lattice2,
            RuleSpec(VotingRule.MEDIAN),
            policy=PolicySpec(l1_mode=L1Mode.PROPORTIONAL),
        )
    # one dimension keeps every metric on the lattice
    EngineConfig(
        euclidean(Metric.L2, 1, lattice=True),
        RuleSpec(VotingRule.MEDIAN),
    )


def test_config_budget_and_window_guards():
    space = euclidean(Metric.L2, 1)
    with pytest.raises(ConfigurationError):
        EngineConfig(space, RuleSpec(VotingRule.MEAN), max_iters=0)
    with pytest.raises(ConfigurationError):
        EngineConfig(space, RuleSpec(VotingRule.MEAN), growth_window=0)


# --- stepping ----------------------------------------------------------------


def test_step_computes_winner_distances_and_moves():
    profile = line_profile(3, 5, 8, lattice=True)
    config = EngineConfig(profile.spec, RuleSpec(VotingRule.FLOOR_MEAN))
    after, record = step(profile, config)
    assert record.index == 0
    assert record.winner.real_vector == (5.0,)
    assert record.distances == (2.0, 0.0, 3.0)
    assert record.moved == (True, False, True)
    assert [p.real_vector[0] for p in after.points] == [4.0, 5.0, 7.0]


def test_step_scripted_violation_names_agent_and_iteration():
    space = euclidean(Metric.L1, 1)
    script = (
        (Point.reals((0.0,)), Point.reals((10.0,))),
        (Point.reals((1.0,)), Point.reals((10.0,))),
        (Point.reals((1.0,)), Point.reals((9.0,))),  # agent 0 stalls at iteration 1
    )
    profile = Profile(space, script[0])
    config = EngineConfig(
        space,
        RuleSpec(VotingRule.MEDIAN),
        policy=PolicySpec(kind=PolicyKind.SCRIPTED, script=script),
    )
    after, _ = step(profile, config, iteration=0)
    with pytest.raises(ConstraintViolationError) as info:
        step(after, config, iteration=1)
    assert info.value.agent == 0
    assert info.value.iteration == 1
    assert "agent 0" in str(info.value)


def test_step_validates_each_new_point_once(monkeypatch):
    checked = []

    def counting(space, point):
        checked.append(point)
        return None

    space = binary(Metric.HAMMING, 4)
    profile = Profile(space, tuple(Point.of_bits(b) for b in ("0000", "1111", "1100")))
    script = (profile.points, tuple(Point.of_bits(b) for b in ("1000", "1101", "1100")))
    monkeypatch.setattr(engine, "validate_point", counting)
    monkeypatch.setattr(rules, "validate_point", counting)
    seeded = PolicySpec(kind=PolicyKind.SEEDED_RANDOM, seed=1)
    after, _ = step(profile, EngineConfig(space, RuleSpec(VotingRule.MAJORITY), seeded))
    assert checked == list(after.points)  # by the referee, not again by the next Profile
    config = EngineConfig(
        space, RuleSpec(VotingRule.MAJORITY), PolicySpec(kind=PolicyKind.SCRIPTED, script=script)
    )
    checked.clear()
    after, _ = step(profile, config)
    assert after.points == script[1]
    assert checked == []  # script points were validated by EngineConfig


def _count_per_agent_calls(monkeypatch) -> dict:
    """Count ``check_constraints``, ``dist`` and ``rules.winner`` calls from here on."""
    from delibsim import policies

    calls = {"check": 0, "dist": 0, "winner": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (engine, policies):
        check, distance = module.check_constraints, module.dist
        monkeypatch.setattr(module, "check_constraints", counting("check", check))
        monkeypatch.setattr(module, "dist", counting("dist", distance))
    monkeypatch.setattr(rules, "winner", counting("winner", rules.winner))
    return calls


def test_each_move_is_judged_once_against_its_recorded_distance(monkeypatch):
    from delibsim.replays import run_example3

    _, config = run_example3(30)
    calls = _count_per_agent_calls(monkeypatch)
    # a run given a winner function takes step, one agent at a time
    initial = Profile(config.space, config.policy.script[0])
    report = run(initial, config, winner=lambda rule, profile: rules.winner(rule, profile))
    n = len(report.trace[0].points)
    moves = n * (report.states - 1)
    assert moves == 90
    assert calls["check"] == moves
    # d(before, w) once per move in step; d(after, w) and d(before, after) in the referee;
    # the terminal state's distances and the growth window's drift
    assert calls["dist"] <= 3 * moves + n + config.growth_window + 1
    assert calls["winner"] == report.states


def test_a_scripted_real_vector_run_makes_no_per_agent_calls(monkeypatch):
    from delibsim.replays import run_example3

    calls = _count_per_agent_calls(monkeypatch)
    report, _ = run_example3(30)
    assert report.states == 31
    assert report.trace[0].array is not None
    assert calls["check"] == 0
    assert calls["winner"] == 0


# --- full runs ---------------------------------------------------------------


def test_run_converges_with_full_trace():
    profile = line_profile(3, 5, 8, lattice=True)
    config = EngineConfig(profile.spec, RuleSpec(VotingRule.FLOOR_MEAN))
    report = run(profile, config)
    assert report.outcome is Outcome.CONVERGED
    assert report.point.real_vector == (5.0,)
    assert report.moving_iterations == 3
    assert report.states == 4
    assert [rec.index for rec in report.trace] == [0, 1, 2, 3]
    assert report.trace[-1].moved == (False, False, False)
    assert report.elapsed_seconds >= 0.0


def test_run_rejects_profile_from_another_space():
    profile = line_profile(1, 2)
    config = EngineConfig(euclidean(Metric.L2, 1), RuleSpec(VotingRule.MEAN))
    with pytest.raises(ConfigurationError):
        run(profile, config)


def test_run_consensus_start_converges_immediately():
    profile = line_profile(4, 4, 4)
    config = EngineConfig(profile.spec, RuleSpec(VotingRule.MEDIAN))
    report = run(profile, config)
    assert report.outcome is Outcome.CONVERGED
    assert report.moving_iterations == 0
    assert report.states == 1


def test_run_cap_reached():
    profile = line_profile(0, 100)
    config = EngineConfig(profile.spec, RuleSpec(VotingRule.MEAN), max_iters=3)
    report = run(profile, config)
    assert report.outcome is Outcome.CAP_REACHED
    assert report.states == 4
    assert report.trace[-1].moved is None
    assert report.point is None
    assert report.growth_detected is False


def test_run_budget_ending_on_consensus_counts_as_converged():
    profile = line_profile(3, 5, 8, lattice=True)
    config = EngineConfig(profile.spec, RuleSpec(VotingRule.FLOOR_MEAN), max_iters=3)
    report = run(profile, config)
    assert report.outcome is Outcome.CONVERGED
    assert report.point.real_vector == (5.0,)
    assert report.states == 4


def test_run_cycle_detected_via_override():
    # a rule that chases the lone agent away from wherever it sits
    space = binary(Metric.HAMMING, 1)
    profile = Profile(space, (Point.of_bits("0"),))
    flip = lambda rule, prof: Point.of_bits("1" if prof.points[0].bits[0] == 0 else "0")
    config = EngineConfig(space, RuleSpec(VotingRule.MAJORITY))
    report = run(profile, config, winner=flip)
    assert report.outcome is Outcome.CYCLE
    assert report.cycle_period == 2
    assert report.cycle_first_index == 0
    assert report.point is None


def test_run_looks_for_cycles_only_on_discrete_spaces():
    # a winner far right, then far left: the two agents step right, then back,
    # so the profile repeats every two states, but real-vector runs are never
    # checked for cycles and use their whole budget
    profile = line_profile(0, 10)
    flip = lambda rule, prof: Point.reals((20.0 if prof.points[0].real_vector[0] == 0 else -20.0,))
    config = EngineConfig(profile.spec, RuleSpec(VotingRule.MEAN), max_iters=6)
    report = run(profile, config, winner=flip)
    assert report.outcome is Outcome.CAP_REACHED
    assert report.cycle_period is None
    assert report.states == 7


def test_run_growth_detected_on_receding_winner():
    # the drifting trio: every agent slides one diagonal step per iteration,
    # so the mean recedes with them and the winner never stops growing away
    from delibsim.replays import example3_script

    space = euclidean(Metric.LINF, 3)
    iters = 30
    script = example3_script(iters)
    profile = Profile(space, script[0])
    config = EngineConfig(
        space,
        RuleSpec(VotingRule.MEAN),
        policy=PolicySpec(kind=PolicyKind.SCRIPTED, script=script),
        max_iters=iters,
        growth_window=10,
    )
    report = run(profile, config)
    assert report.outcome is Outcome.CAP_REACHED
    assert report.growth_detected is True


def test_run_default_budget_scales_with_initial_spread():
    profile = line_profile(0, 100)
    config = EngineConfig(profile.spec, RuleSpec(VotingRule.MEAN), epsilon=1.0)
    report = run(profile, config)
    # D = 50, so the default cap of 10 ceil(D / eps) = 500 is never hit
    assert report.outcome is Outcome.CONVERGED
    assert report.states <= 501


def test_run_scripted_needs_one_profile_beyond_the_budget():
    space = euclidean(Metric.L1, 1)
    script = (
        (Point.reals((0.0,)), Point.reals((10.0,))),
        (Point.reals((1.0,)), Point.reals((9.0,))),
    )
    profile = Profile(space, script[0])
    config = EngineConfig(
        space,
        RuleSpec(VotingRule.MEAN),
        policy=PolicySpec(kind=PolicyKind.SCRIPTED, script=script),
        max_iters=2,
    )
    with pytest.raises(ConfigurationError):
        run(profile, config)


def test_is_consensus_uses_space_equality():
    exact = line_profile(2, 2)
    assert is_consensus(exact)
    close = Profile(
        euclidean(Metric.L2, 1),
        (Point.reals((2.0,)), Point.reals((2.0 + 1e-12,))),
    )
    assert is_consensus(close)
    apart = line_profile(2, 3)
    assert not is_consensus(apart)


def test_moving_iterations_counts_any_agent_motion():
    # one stubborn far agent keeps iterations moving after others settle
    profile = line_profile(0, 0, 9)
    config = EngineConfig(profile.spec, RuleSpec(VotingRule.MEDIAN), epsilon=2.0)
    report = run(profile, config)
    assert report.outcome is Outcome.CONVERGED
    assert report.point.real_vector == (0.0,)
    # agent at 9 needs ceil(9/2) = 5 iterations
    assert report.moving_iterations == 5
    assert report.states == 6
