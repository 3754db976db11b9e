"""Movement policies: step geometry, the two movement laws, and scripting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delibsim import (
    ConfigurationError,
    ConstraintMode,
    ConstraintViolationError,
    EngineConfig,
    InfeasibleStepError,
    L1Mode,
    Metric,
    MovePolicy,
    Point,
    PolicyKind,
    PolicySpec,
    Profile,
    RuleSpec,
    VotingRule,
    check_constraints,
    dist,
    step,
)
from delibsim.policies import (
    move_first_changed,
    move_hamming,
    move_real,
    move_swap,
)

from helpers import binary, euclidean, ranking_space


# --- euclidean moves ---------------------------------------------------------


def test_move_l2_straight_line():
    space = euclidean(Metric.L2, 2)
    v, w = Point.reals((0.0, 0.0)), Point.reals((3.0, 4.0))
    out = move_real(space, v, w, 1.0)
    assert out.real_vector == pytest.approx((0.6, 0.8))
    assert dist(space, out, w) == pytest.approx(4.0)


def test_move_l2_snaps_within_reach():
    space = euclidean(Metric.L2, 2)
    v, w = Point.reals((0.3, 0.4)), Point.reals((0.0, 0.0))
    assert move_real(space, v, w, 0.5) is w
    assert move_real(space, v, w, 2.0) is w


def test_move_l1_coordinate_order_spends_left_to_right():
    space = euclidean(Metric.L1, 2)
    v, w = Point.reals((0.0, 0.0)), Point.reals((3.0, 1.0))
    assert move_real(space, v, w, 2.0).real_vector == (2.0, 0.0)
    assert move_real(space, v, w, 3.5).real_vector == (3.0, 0.5)


def test_move_l1_proportional_splits_by_gap():
    space = euclidean(Metric.L1, 2)
    v, w = Point.reals((0.0, 0.0)), Point.reals((3.0, 1.0))
    out = move_real(space, v, w, 2.0, L1Mode.PROPORTIONAL)
    assert out.real_vector == pytest.approx((1.5, 0.5))


def test_move_l1_handles_negative_gaps():
    space = euclidean(Metric.L1, 2)
    v, w = Point.reals((5.0, 0.0)), Point.reals((2.0, 0.0))
    assert move_real(space, v, w, 1.0).real_vector == (4.0, 0.0)


def test_move_linf_scales_all_coordinates():
    space = euclidean(Metric.LINF, 2)
    v, w = Point.reals((0.0, 0.0)), Point.reals((4.0, 1.0))
    out = move_real(space, v, w, 1.0)
    assert out.real_vector == pytest.approx((1.0, 0.25))
    assert dist(space, out, w) == pytest.approx(3.0)


# --- discrete moves ----------------------------------------------------------


def test_move_hamming_flips_lowest_indices_first():
    space = binary(Metric.HAMMING, 5)
    v, w = Point.of_bits("00000"), Point.of_bits("10101")
    assert move_hamming(space, v, w, 2).bits == (1, 0, 1, 0, 0)


def test_move_hamming_arrives_when_within_reach():
    space = binary(Metric.HAMMING, 5)
    v, w = Point.of_bits("00000"), Point.of_bits("11000")
    assert move_hamming(space, v, w, 2) is w
    assert move_hamming(space, v, w, 5) is w


def test_move_hamming_committee_swaps_pairs():
    space = binary(Metric.HAMMING, 5, k=2)
    v, w = Point.of_bits("11000"), Point.of_bits("00011")
    out = move_hamming(space, v, w, 2)
    assert sum(out.bits) == 2
    assert dist(space, out, w) == 2
    # lowest-index drop and add
    assert out.bits == (0, 1, 0, 1, 0)


def test_move_hamming_committee_rejects_odd_step():
    space = binary(Metric.HAMMING, 5, k=2)
    v, w = Point.of_bits("11000"), Point.of_bits("00011")
    with pytest.raises(InfeasibleStepError):
        move_hamming(space, v, w, 1)


def test_move_hamming_seeded_is_deterministic():
    import random

    space = binary(Metric.HAMMING, 8)
    v, w = Point.of_bits("00000000"), Point.of_bits("11111111")
    a = move_hamming(space, v, w, 3, random.Random(7))
    b = move_hamming(space, v, w, 3, random.Random(7))
    assert a == b
    assert dist(space, a, w) == 5


def test_move_swap_leftmost_discordant_pair():
    space = ranking_space(Metric.SWAP, 3)
    v, w = Point.of_ranking((2, 1, 0)), Point.of_ranking((0, 1, 2))
    out = move_swap(space, v, w, 1)
    assert out.ranking == (1, 2, 0)
    assert dist(space, out, w) == 2


def test_move_swap_multiple_steps_and_arrival():
    space = ranking_space(Metric.SWAP, 4)
    v, w = Point.of_ranking((3, 2, 1, 0)), Point.of_ranking((0, 1, 2, 3))
    out = move_swap(space, v, w, 2)
    assert dist(space, out, w) == 4
    assert move_swap(space, v, w, 6) is w
    assert move_swap(space, v, w, 9) is w


def test_move_first_changed_binary_copies_window():
    space = binary(Metric.FIRST_CHANGED, 5)
    v, w = Point.of_bits("10110"), Point.of_bits("11100")
    # disagreement depth 4: window [2, 4) is copied, entry 1 left alone
    out = move_first_changed(space, v, w, 2)
    assert out.bits == (1, 0, 1, 0, 0)
    assert dist(space, out, w) == 2


def test_move_first_changed_arrives():
    space = binary(Metric.FIRST_CHANGED, 4)
    v, w = Point.of_bits("0110"), Point.of_bits("1110")
    assert move_first_changed(space, v, w, 1) is w


def test_move_first_changed_committee_repairs_prefix():
    space = binary(Metric.FIRST_CHANGED, 5, k=2)
    v, w = Point.of_bits("01010"), Point.of_bits("10001")
    # depth 5, step 2 copies w's last two entries; weight rises to 3 so a
    # prefix approval is dropped
    out = move_first_changed(space, v, w, 2)
    assert sum(out.bits) == 2
    assert dist(space, out, w) <= 3
    assert out.bits[3:] == (0, 1)


def test_move_first_changed_ranking_keeps_relative_prefix():
    space = ranking_space(Metric.FIRST_CHANGED, 4)
    v, w = Point.of_ranking((3, 1, 0, 2)), Point.of_ranking((0, 1, 2, 3))
    # depth 4, step 2 adopts w's suffix (2, 3); the rest keep v's order
    out = move_first_changed(space, v, w, 2)
    assert out.ranking == (1, 0, 2, 3)
    assert dist(space, out, w) <= 2


# --- the two laws, fuzzed ----------------------------------------------------


def _strict_ok(space, before, after, w, eps):
    msg = check_constraints(space, before, after, w, eps, ConstraintMode.STRICT)
    assert msg is None, msg


@given(
    st.integers(1, 4),
    st.sampled_from([Metric.L1, Metric.L2, Metric.LINF]),
    st.floats(0.1, 3.0),
    st.data(),
)
def test_euclidean_moves_obey_strict_laws(dim, metric, eps, data):
    coords = st.lists(st.floats(-20, 20), min_size=dim, max_size=dim)
    v = Point.reals(data.draw(coords))
    w = Point.reals(data.draw(coords))
    space = euclidean(metric, dim)
    for mode in (L1Mode.COORD_ORDER, L1Mode.PROPORTIONAL):
        _strict_ok(space, v, move_real(space, v, w, eps, mode), w, eps)


@given(st.integers(1, 10), st.integers(1, 4), st.data())
def test_hamming_moves_obey_strict_laws(m, eps, data):
    bits = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    v, w = Point.of_bits(data.draw(bits)), Point.of_bits(data.draw(bits))
    space = binary(Metric.HAMMING, m)
    _strict_ok(space, v, move_hamming(space, v, w, eps), w, eps)


@given(st.integers(2, 5), st.integers(1, 4), st.data())
def test_swap_moves_obey_strict_laws(m, eps, data):
    perm = st.permutations(range(m))
    v = Point.of_ranking(data.draw(perm))
    w = Point.of_ranking(data.draw(perm))
    space = ranking_space(Metric.SWAP, m)
    _strict_ok(space, v, move_swap(space, v, w, eps), w, eps)


@given(st.integers(1, 8), st.integers(1, 4), st.data())
def test_first_changed_moves_obey_approach_law(m, eps, data):
    bits = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    v, w = Point.of_bits(data.draw(bits)), Point.of_bits(data.draw(bits))
    space = binary(Metric.FIRST_CHANGED, m)
    out = move_first_changed(space, v, w, eps)
    msg = check_constraints(space, v, out, w, eps, ConstraintMode.APPROACH_ONLY)
    assert msg is None, msg


@given(st.integers(2, 5), st.integers(1, 3), st.data())
def test_first_changed_ranking_moves_obey_approach_law(m, eps, data):
    perm = st.permutations(range(m))
    v = Point.of_ranking(data.draw(perm))
    w = Point.of_ranking(data.draw(perm))
    space = ranking_space(Metric.FIRST_CHANGED, m)
    out = move_first_changed(space, v, w, eps)
    assert sorted(out.ranking) == list(range(m))
    msg = check_constraints(space, v, out, w, eps, ConstraintMode.APPROACH_ONLY)
    assert msg is None, msg


# --- check_constraints adjudication ------------------------------------------


def test_check_constraints_strict_accepts_exact_step():
    space = euclidean(Metric.L2, 1)
    v, w = Point.reals((0.0,)), Point.reals((10.0,))
    assert check_constraints(space, v, Point.reals((1.0,)), w, 1.0) is None


def test_check_constraints_strict_rejects_standing_still():
    space = euclidean(Metric.L2, 1)
    v, w = Point.reals((0.0,)), Point.reals((10.0,))
    msg = check_constraints(space, v, v, w, 1.0)
    assert msg is not None and "approach" in msg


def test_check_constraints_strict_rejects_overshoot():
    space = euclidean(Metric.L2, 1)
    v, w = Point.reals((0.0,)), Point.reals((10.0,))
    msg = check_constraints(space, v, Point.reals((2.5,)), w, 1.0)
    assert msg is not None and "approach" in msg


def test_check_constraints_strict_rejects_sideways_drift():
    # right distance to the winner, wrong displacement
    space = euclidean(Metric.L2, 2)
    v, w = Point.reals((0.0, 0.0)), Point.reals((10.0, 0.0))
    bad = Point.reals((10.0 - 9.0 * (0.8 ** 0.5), 9.0 * (0.2 ** 0.5)))
    assert dist(space, bad, w) == pytest.approx(9.0)
    msg = check_constraints(space, v, bad, w, 1.0)
    assert msg is not None and "displacement" in msg


def test_check_constraints_arrival_allows_short_displacement():
    space = euclidean(Metric.L2, 1)
    v, w = Point.reals((0.5,)), Point.reals((0.0,))
    assert check_constraints(space, v, w, w, 1.0) is None


def test_check_constraints_approach_only_allows_jump_to_winner():
    space = binary(Metric.FIRST_CHANGED, 4)
    v, w = Point.of_bits("0101"), Point.of_bits("1101")
    assert (
        check_constraints(space, v, w, w, 1, ConstraintMode.APPROACH_ONLY) is None
    )
    msg = check_constraints(space, v, v, w, 1, ConstraintMode.APPROACH_ONLY)
    assert msg is not None


def test_check_constraints_judges_against_a_given_distance():
    space = euclidean(Metric.L2, 1)
    v, w = Point.reals((0.0,)), Point.reals((10.0,))
    after = Point.reals((1.0,))
    assert check_constraints(space, v, after, w, 1.0, d_before=10.0) is None
    msg = check_constraints(space, v, after, w, 1.0, d_before=12.0)
    assert msg is not None and "expected exactly 11.0" in msg


def test_check_constraints_discrete_is_exact():
    space = binary(Metric.HAMMING, 4)
    v, w = Point.of_bits("0000"), Point.of_bits("1111")
    assert check_constraints(space, v, Point.of_bits("1100"), w, 2) is None
    assert check_constraints(space, v, Point.of_bits("1000"), w, 2) is not None


# --- MovePolicy --------------------------------------------------------------


def test_policy_default_dispatches_by_metric():
    space = euclidean(Metric.L2, 2)
    policy = MovePolicy(space, PolicySpec())
    v, w = Point.reals((0.0, 0.0)), Point.reals((3.0, 4.0))
    assert policy.move(v, w, 1.0, 0, 0).real_vector == pytest.approx((0.6, 0.8))


def test_policy_seeded_reproducible_and_order_independent():
    space = binary(Metric.HAMMING, 8)
    spec = PolicySpec(kind=PolicyKind.SEEDED_RANDOM, seed=11)
    v, w = Point.of_bits("00000000"), Point.of_bits("11111111")
    a = MovePolicy(space, spec).move(v, w, 3, iteration=2, agent=5)
    b = MovePolicy(space, spec).move(v, w, 3, iteration=2, agent=5)
    assert a == b
    # a different agent index draws a different stream (with overwhelming odds)
    c = MovePolicy(space, spec).move(v, w, 3, iteration=2, agent=6)
    d = MovePolicy(space, spec).move(v, w, 3, iteration=3, agent=5)
    assert len({a.bits, c.bits, d.bits}) > 1


def test_policy_scripted_returns_next_profile_entry():
    space = euclidean(Metric.L1, 1)
    script = (
        (Point.reals((0.0,)),),
        (Point.reals((1.0,)),),
    )
    spec = PolicySpec(kind=PolicyKind.SCRIPTED, script=script)
    policy = MovePolicy(space, spec)
    out = policy.move(Point.reals((0.0,)), Point.reals((5.0,)), 1.0, 0, 0)
    assert out.real_vector == (1.0,)


def test_policy_scripted_rejects_illegal_move():
    # the policy proposes the script point; the engine's referee rejects it
    space = euclidean(Metric.L1, 1)
    script = (
        (Point.reals((0.0,)),),
        (Point.reals((4.0,)),),  # a 4-unit jump under a 1-unit step
    )
    spec = PolicySpec(kind=PolicyKind.SCRIPTED, script=script)
    w = Point.reals((5.0,))
    assert MovePolicy(space, spec).move(script[0][0], w, 1.0, 0, 0) == script[1][0]
    config = EngineConfig(space, RuleSpec(VotingRule.MEAN), spec)
    with pytest.raises(ConstraintViolationError) as info:
        step(Profile(space, script[0]), config, winner=lambda rule, profile: w)
    assert info.value.agent == 0
    assert info.value.iteration == 0
    assert str(info.value).startswith("agent 0 at iteration 0: approach law violated")


def test_policy_scripted_exhausted_script():
    space = euclidean(Metric.L1, 1)
    script = ((Point.reals((0.0,)),),)
    spec = PolicySpec(kind=PolicyKind.SCRIPTED, script=script)
    policy = MovePolicy(space, spec)
    with pytest.raises(ConfigurationError):
        policy.move(Point.reals((0.0,)), Point.reals((5.0,)), 1.0, 0, 0)
