"""Analysis: potentials, bound predictions, the Kemeny oracle, balls, and explain."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delibsim import (
    BoundKind,
    Comparison,
    ConfigurationError,
    EngineConfig,
    Explanation,
    GeneratorSpec,
    Metric,
    Outcome,
    Point,
    PotentialVector,
    Profile,
    RuleSpec,
    UnsupportedSizeError,
    VotingRule,
    ball_containment,
    enclosing_ball_l2,
    explain,
    generate,
    iteration_bound,
    kemeny_bruteforce,
    lex_compare,
    potential_scoring,
    potential_stv,
    run,
    sum_distance_to_winner,
    winner_stability,
)
from delibsim.engine import IterationRecord
from delibsim.rules import kemeny_ranking
from delibsim.verification import _corrupted_winner, _kemeny_case

from helpers import binary, brute_min_ball_2d, euclidean, ranking_space

ORDINAL = ((0, 1, 2), (0, 1, 2), (2, 0, 1))


def ranking_profile(m, *rows, metric=Metric.SWAP):
    return Profile(ranking_space(metric, m), tuple(Point.of_ranking(r) for r in rows))


def line_profile(*values):
    return Profile(
        euclidean(Metric.L1, 1), tuple(Point.reals((float(v),)) for v in values)
    )


# --- potential vectors -------------------------------------------------------


def test_potential_vector_validates_priorities():
    PotentialVector(((2.0, 1, 5.0), (1.0, 0, 3.0)))
    with pytest.raises(ConfigurationError):
        PotentialVector(((2.0, 1, 5.0), (1.0, 1, 3.0)))


def test_potential_vector_flattens_in_order():
    p = PotentialVector(((2.0, 1, 5.0), (1.0, 0, 3.0)))
    assert p.flat == (2.0, 1, 5.0, 1.0, 0, 3.0)


def test_lex_compare_all_three_outcomes():
    a = PotentialVector(((2.0, 1, 5.0), (1.0, 0, 3.0)))
    b = PotentialVector(((2.0, 1, 5.0), (1.0, 0, 4.0)))
    assert lex_compare(a, a) is Comparison.EQUAL
    assert lex_compare(a, b) is Comparison.LESS
    assert lex_compare(b, a) is Comparison.GREATER
    # an early entry outranks everything after it
    c = PotentialVector(((3.0, 1, 0.0), (0.0, 0, 0.0)))
    assert lex_compare(a, c) is Comparison.LESS


def test_lex_compare_rejects_length_mismatch():
    a = PotentialVector(((2.0, 1, 5.0), (1.0, 0, 3.0)))
    b = PotentialVector(((2.0, 0, 5.0),))
    with pytest.raises(ConfigurationError):
        lex_compare(a, b)


def test_potential_scoring_golden_vector():
    p = ranking_profile(3, *ORDINAL)
    pot = potential_scoring(p, VotingRule.PLURALITY, (0, 1, 2))
    assert pot.flat == (2, 2, 5, 1, 0, 2, 0, 1, 2)


def test_potential_scoring_borda_uses_own_scores():
    p = ranking_profile(3, *ORDINAL)
    pot = potential_scoring(p, VotingRule.BORDA, (0, 1, 2))
    assert pot.flat == (5, 2, 5, 2, 1, 2, 2, 0, 2)


def test_potential_stv_golden_vector():
    p = ranking_profile(3, *ORDINAL)
    pot = potential_stv(p, (0, 1, 2))
    assert pot.flat == (0, 1, 2, 1, 0, 2, 3, 2, 5)


def test_potentials_reject_an_order_that_is_not_a_permutation():
    p = ranking_profile(3, *ORDINAL)
    # a repeat, a missing candidate, an extra one, an index out of range, and
    # entries that would truncate to a permutation
    for order in ((0, 0, 1), (0, 1), (0, 1, 2, 3), (0, 1, 3), (0, 1.5, 2), (True, 0, 2)):
        with pytest.raises(ConfigurationError):
            potential_scoring(p, VotingRule.PLURALITY, order)
        with pytest.raises(ConfigurationError):
            potential_stv(p, order)


def test_potential_stv_single_ballot():
    p = ranking_profile(2, (0, 1))
    assert potential_stv(p, (0, 1)).flat == (0, 0, 0, 1, 1, 1)


def test_potential_moves_with_deliberation():
    space = ranking_space(Metric.SWAP, 3)
    profile = ranking_profile(3, (1, 0, 2), (2, 1, 0), (0, 1, 2))
    order = (0, 1, 2)
    plur = EngineConfig(space, RuleSpec(VotingRule.PLURALITY, order))
    report = run(profile, plur)
    assert report.outcome is Outcome.CONVERGED
    pots = [
        potential_scoring(Profile(space, rec.points), VotingRule.PLURALITY, order)
        for rec in report.trace
    ]
    for before, after, rec in zip(pots, pots[1:], report.trace):
        if any(rec.moved):
            assert lex_compare(before, after) is Comparison.LESS
    stv = EngineConfig(space, RuleSpec(VotingRule.STV, order))
    report = run(profile, stv)
    assert report.outcome is Outcome.CONVERGED
    pots = [potential_stv(Profile(space, rec.points), order) for rec in report.trace]
    for before, after, rec in zip(pots, pots[1:], report.trace):
        if any(rec.moved):
            assert lex_compare(before, after) is Comparison.GREATER


# --- bound predictions -------------------------------------------------------


def test_bound_mean_gets_a_cap():
    p = line_profile(0, 10)
    b = iteration_bound(p.spec, VotingRule.MEAN, p, 1.0)
    # farthest agent sits 5 steps out; the cap allows ten times that
    assert b.kind is BoundKind.CAP
    assert b.iterations == 50
    assert iteration_bound(p.spec, VotingRule.MEAN, p, 2.0).iterations == 30


def test_bound_median_exact_farthest_agent():
    p = line_profile(0, 10)
    b = iteration_bound(p.spec, VotingRule.MEDIAN, p, 1.0)
    # the even-profile median sits on the larger middle value
    assert (b.kind, b.iterations) == (BoundKind.EXACT, 10)
    assert iteration_bound(p.spec, VotingRule.MEDIAN, p, 3.0).iterations == 4


def test_bound_floor_mean_exact_on_the_running_example():
    space = euclidean(Metric.L1, 1, lattice=True)
    p = Profile(space, tuple(Point.reals((v,)) for v in (3.0, 5.0, 8.0)))
    b = iteration_bound(space, VotingRule.FLOOR_MEAN, p, 1.0)
    assert (b.kind, b.iterations) == (BoundKind.EXACT, 3)


def test_bound_sup_metric_promises_nothing():
    space = euclidean(Metric.LINF, 3)
    p = Profile(space, (Point.reals((0.0, 0.0, 0.0)), Point.reals((4.0, 0.0, 0.0))))
    for rule in (VotingRule.MEAN, VotingRule.MEDIAN):
        assert iteration_bound(space, rule, p, 1.0).kind is BoundKind.NONE


def test_bound_hamming_majority_exact():
    space = binary(Metric.HAMMING, 4)
    p = Profile(
        space,
        (Point.of_bits("0000"), Point.of_bits("1111"), Point.of_bits("1111")),
    )
    b = iteration_bound(space, VotingRule.MAJORITY, p, 1.0)
    assert (b.kind, b.iterations) == (BoundKind.EXACT, 4)
    assert iteration_bound(space, VotingRule.MAJORITY, p, 3.0).iterations == 2


def test_bound_first_changed_monotone_rules_depend_only_on_size():
    space = binary(Metric.FIRST_CHANGED, 6)
    p = Profile(space, (Point.of_bits("000000"), Point.of_bits("000001")))
    b = iteration_bound(space, VotingRule.MAJORITY, p, 2.0)
    assert (b.kind, b.iterations) == (BoundKind.EXACT, 3)
    rspace = ranking_space(Metric.FIRST_CHANGED, 5)
    rp = ranking_profile(5, (0, 1, 2, 3, 4), metric=Metric.FIRST_CHANGED)
    b = iteration_bound(rspace, RuleSpec(VotingRule.BORDA, (0, 1, 2, 3, 4)), rp, 2.0)
    assert (b.kind, b.iterations) == (BoundKind.EXACT, 3)


def test_bound_first_changed_kemeny_tracks_the_farthest_agent():
    space = ranking_space(Metric.FIRST_CHANGED, 4)
    p = Profile(
        space,
        (
            Point.of_ranking((0, 1, 2, 3)),
            Point.of_ranking((0, 1, 2, 3)),
            Point.of_ranking((1, 0, 2, 3)),
        ),
    )
    b = iteration_bound(space, VotingRule.KEMENY, p, 1.0)
    # the kemeny winner is the unanimous-majority ranking; one agent differs
    # at depth 2
    assert (b.kind, b.iterations) == (BoundKind.EXACT, 2)


def test_bound_swap_kemeny_exact_but_scoring_open():
    p = ranking_profile(3, *ORDINAL)
    b = iteration_bound(p.spec, VotingRule.KEMENY, p, 1.0)
    # the (c,a,b) agent orders two pairs oppositely to the winner (a,b,c)
    assert (b.kind, b.iterations) == (BoundKind.EXACT, 2)
    for rule in (VotingRule.PLURALITY, VotingRule.BORDA, VotingRule.COPELAND, VotingRule.STV):
        spec = RuleSpec(rule, (0, 1, 2))
        assert iteration_bound(p.spec, spec, p, 1.0).kind is BoundKind.NONE


def test_bound_first_changed_stv_open():
    space = ranking_space(Metric.FIRST_CHANGED, 3)
    p = ranking_profile(3, *ORDINAL, metric=Metric.FIRST_CHANGED)
    spec = RuleSpec(VotingRule.STV, (0, 1, 2))
    assert iteration_bound(space, spec, p, 1.0).kind is BoundKind.NONE


def test_bound_consensus_start_is_zero():
    p = line_profile(4, 4)
    assert iteration_bound(p.spec, VotingRule.MEDIAN, p, 1.0).iterations == 0


# --- winner stability --------------------------------------------------------


def test_winner_stability_on_a_median_run():
    p = line_profile(0, 4, 9)
    report = run(p, EngineConfig(p.spec, RuleSpec(VotingRule.MEDIAN), epsilon=2.0))
    assert winner_stability(report.trace)


def test_winner_stability_detects_drift():
    mk = lambda x: IterationRecord(
        index=0,
        points=(Point.reals((x,)),),
        winner=Point.reals((x,)),
        distances=(0.0,),
    )
    assert winner_stability([mk(1.0), mk(1.0 + 1e-12)])
    assert not winner_stability([mk(1.0), mk(1.5)])


def test_winner_stability_discrete_and_empty():
    rec = IterationRecord(
        index=0,
        points=(Point.of_bits("01"),),
        winner=Point.of_bits("01"),
        distances=(0.0,),
    )
    drift = IterationRecord(
        index=1,
        points=(Point.of_bits("01"),),
        winner=Point.of_bits("11"),
        distances=(1.0,),
    )
    assert winner_stability([rec, rec])
    assert not winner_stability([rec, drift])
    with pytest.raises(ConfigurationError):
        winner_stability([])


# --- kemeny oracle -----------------------------------------------------------


def test_kemeny_bruteforce_agrees_on_hand_cases():
    p = ranking_profile(3, *ORDINAL)
    assert kemeny_bruteforce(p).ranking == (0, 1, 2)
    tie = ranking_profile(2, (0, 1), (1, 0))
    assert kemeny_bruteforce(tie).ranking == (0, 1)
    assert kemeny_bruteforce(tie, tiebreak=(1, 0)).ranking == (1, 0)


def test_kemeny_bruteforce_size_guard():
    p = ranking_profile(7, (0, 1, 2, 3, 4, 5, 6))
    with pytest.raises(UnsupportedSizeError):
        kemeny_bruteforce(p)


@settings(max_examples=60)
@given(st.integers(2, 4), st.integers(1, 6), st.data())
def test_kemeny_implementations_agree(m, n, data):
    rows = data.draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n))
    tiebreak = data.draw(st.one_of(st.none(), st.permutations(range(m))))
    p = ranking_profile(m, *rows)
    tb = tuple(tiebreak) if tiebreak is not None else None
    assert kemeny_ranking(p, tb) == kemeny_bruteforce(p, tb)


# --- enclosing balls ---------------------------------------------------------


def test_ball_three_point_golden():
    center, diameter = enclosing_ball_l2([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
    assert center == pytest.approx((1.0, 0.0))
    assert diameter == pytest.approx(2.0)


def test_ball_accepts_points_and_degenerate_inputs():
    pts = [Point.reals((0.0,)), Point.reals((10.0,))]
    center, diameter = enclosing_ball_l2(pts)
    assert center == pytest.approx((5.0,))
    assert diameter == pytest.approx(10.0)
    center, diameter = enclosing_ball_l2([(3.0, 4.0)])
    assert center == pytest.approx((3.0, 4.0))
    assert diameter == 0.0
    center, diameter = enclosing_ball_l2([(1.0, 1.0), (1.0, 1.0)])
    assert diameter == pytest.approx(0.0)


def test_ball_equilateral_triangle_uses_circumcircle():
    h = math.sqrt(3.0) / 2.0
    center, diameter = enclosing_ball_l2([(0.0, 0.0), (1.0, 0.0), (0.5, h)])
    assert center == pytest.approx((0.5, h / 3.0), abs=1e-9)
    assert diameter == pytest.approx(2.0 / math.sqrt(3.0))


def test_ball_obtuse_triangle_uses_diametral_pair():
    center, diameter = enclosing_ball_l2([(0.0, 0.0), (10.0, 0.0), (5.0, 0.5)])
    assert center == pytest.approx((5.0, 0.0))
    assert diameter == pytest.approx(10.0)


def test_ball_3d_regular_tetrahedron_vertices():
    pts = [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]
    center, diameter = enclosing_ball_l2(pts)
    assert center == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)
    assert diameter == pytest.approx(2.0 * math.sqrt(3.0))


def test_ball_input_guards():
    with pytest.raises(ConfigurationError):
        enclosing_ball_l2([])
    with pytest.raises(UnsupportedSizeError):
        enclosing_ball_l2([(0.0, 0.0, 0.0, 0.0)])


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
        min_size=2,
        max_size=8,
    )
)
def test_ball_matches_exhaustive_2d_search(pts):
    center, diameter = enclosing_ball_l2(pts)
    _, expected = brute_min_ball_2d(pts)
    assert diameter == pytest.approx(expected, abs=1e-7)
    radius = diameter / 2.0
    assert all(math.dist(center, p) <= radius + 1e-7 for p in pts)


def test_ball_containment_judgement():
    p = Profile(
        euclidean(Metric.L2, 2),
        (Point.reals((0.0, 0.0)), Point.reals((2.0, 0.0)), Point.reals((1.0, 1.0))),
    )
    assert ball_containment(p, Point.reals((1.0, 0.5)))
    assert ball_containment(p, Point.reals((2.0, 0.0)))
    assert not ball_containment(p, Point.reals((2.2, 0.0)))


def test_sum_distance_to_winner():
    p = line_profile(0, 4, 9)
    assert sum_distance_to_winner(p, Point.reals((4.0,))) == pytest.approx(9.0)
    assert sum_distance_to_winner(p, Point.reals((0.0,))) == pytest.approx(13.0)


# --- explain -----------------------------------------------------------------


def test_explain_flags_a_run_given_a_corrupted_winner():
    # verify --corrupt fails this seed's Kemeny exact-count row
    space, rule, profile, epsilon = _kemeny_case(0)
    config = EngineConfig(space, rule, epsilon=epsilon)
    honest = explain(profile, config, run(profile, config))
    assert honest == Explanation(BoundKind.EXACT, 0, 0, {"winner-stable": True})
    assert honest.holds
    corrupted = explain(profile, config, run(profile, config, _corrupted_winner))
    assert corrupted.predicted == honest.predicted
    assert not corrupted.holds


@pytest.mark.parametrize(
    "space, rule, kind, invariants",
    [
        (euclidean(Metric.L2, 2), RuleSpec(VotingRule.MEAN), BoundKind.CAP,
         {"distance-shrinking": True, "ball-contained": True}),
        (euclidean(Metric.L1, 2), RuleSpec(VotingRule.MEAN), BoundKind.CAP,
         {"distance-shrinking": True, "ball-contained": True}),
        (euclidean(Metric.LINF, 2), RuleSpec(VotingRule.MEDIAN), BoundKind.NONE, {}),
        (ranking_space(Metric.SWAP, 4), RuleSpec(VotingRule.BORDA, (0, 1, 2, 3)),
         BoundKind.NONE, {"potential-greater": True}),
        (ranking_space(Metric.SWAP, 4), RuleSpec(VotingRule.STV, (0, 1, 2, 3)),
         BoundKind.NONE, {"potential-less": True}),
    ],
    ids=["mean-l2", "mean-l1", "median-linf", "borda-swap", "stv-swap"],
)
def test_explain_names_the_invariants_of_each_argument(space, rule, kind, invariants):
    profile = generate(GeneratorSpec(space, n=5, seed=1))
    config = EngineConfig(space, rule, max_iters=200)
    report = run(profile, config)
    explanation = explain(profile, config, report)
    assert explanation.kind is kind
    assert explanation.invariants == invariants
    assert explanation.observed == report.moving_iterations
    assert (explanation.predicted is None) == (kind is BoundKind.NONE)
    assert explanation.holds


def test_explain_holds_only_when_the_count_matches():
    exact = Explanation(BoundKind.EXACT, 3, 3, {"winner-stable": True})
    cap = Explanation(BoundKind.CAP, 30, 3, {"distance-shrinking": True})
    assert exact.holds and cap.holds
    assert not Explanation(BoundKind.EXACT, 3, 2, {"winner-stable": True}).holds
    assert not Explanation(BoundKind.CAP, 30, 31, {"distance-shrinking": True}).holds
    assert not Explanation(BoundKind.CAP, 30, 3, {"distance-shrinking": False}).holds
    assert Explanation(BoundKind.NONE, None, 7, {}).holds
