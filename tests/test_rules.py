"""Voting rules: aggregation values, tie handling, and the winner dispatcher."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delibsim import (
    ConfigurationError,
    EngineConfig,
    Metric,
    Point,
    Profile,
    RuleSpec,
    UnsupportedSizeError,
    VotingRule,
    winner,
)
from delibsim.analysis import BRUTEFORCE_MAX_CANDIDATES, kemeny_bruteforce
from delibsim.cli import EXIT_ERROR, main
from delibsim.rules import (
    KEMENY_MAX_CANDIDATES,
    bitwise_majority,
    candidate_scores,
    floor_mean_elementwise,
    kemeny_ranking,
    mean_elementwise,
    median_elementwise,
    scoring_ranking,
    stv_ranking,
    stv_rounds,
    topk_majority,
)

from helpers import binary, euclidean, kendall_tau, ranking_space


def real_profile(metric, *rows):
    dim = len(rows[0])
    return Profile(euclidean(metric, dim), tuple(Point.reals(r) for r in rows))


def ballot_profile(m, *rows, k=None):
    return Profile(binary(Metric.HAMMING, m, k=k), tuple(Point.of_bits(r) for r in rows))


def ranking_profile(m, *rows):
    return Profile(ranking_space(Metric.SWAP, m), tuple(Point.of_ranking(r) for r in rows))


# the running ordinal example: two agents at (a,b,c), one at (c,a,b)
ORDINAL = ((0, 1, 2), (0, 1, 2), (2, 0, 1))


# --- real-vector rules -------------------------------------------------------


def test_mean_elementwise():
    p = real_profile(Metric.L2, (1.0, 2.0), (3.0, 4.0))
    assert mean_elementwise(p).real_vector == (2.0, 3.0)


def test_floor_mean_floors_toward_minus_infinity():
    p = real_profile(Metric.L1, (3.0,), (5.0,), (8.0,))
    assert floor_mean_elementwise(p).real_vector == (5.0,)
    q = real_profile(Metric.L1, (-3.0,), (-4.0,))
    assert floor_mean_elementwise(q).real_vector == (-4.0,)


def test_median_odd_takes_middle():
    p = real_profile(Metric.L1, (1.0,), (9.0,), (4.0,))
    assert median_elementwise(p).real_vector == (4.0,)


def test_median_even_takes_larger_middle():
    p = real_profile(Metric.L1, (1.0, 0.0), (3.0, -2.0), (9.0, 0.0), (4.0, 0.0))
    assert median_elementwise(p).real_vector == (4.0, 0.0)


def test_median_is_elementwise():
    p = real_profile(Metric.L2, (0.0, 9.0), (5.0, 5.0), (9.0, 0.0))
    assert median_elementwise(p).real_vector == (5.0, 5.0)


# --- approval rules ----------------------------------------------------------


def test_bitwise_majority_hand_values():
    p = ballot_profile(4, "1100", "1010", "1001")
    # first entry 3/3 ones, others 1/3
    assert bitwise_majority(p).bits == (1, 0, 0, 0)


def test_bitwise_majority_tie_resolves_to_one():
    p = ballot_profile(2, "10", "01")
    assert bitwise_majority(p).bits == (1, 1)


def test_bitwise_majority_rejects_committees():
    # refused at the boundary: require_compatible, which winner calls
    p = ballot_profile(4, "1100", "0110", k=2)
    with pytest.raises(ConfigurationError, match="unconstrained ballots"):
        winner(RuleSpec(VotingRule.MAJORITY), p)


def test_topk_majority_picks_most_approved():
    p = ballot_profile(4, "1100", "1010", "1001", k=2)
    # approvals 3,1,1,1; seats go to 0 and, by tiebreak, 1
    assert topk_majority(p, 2, (0, 1, 2, 3)).bits == (1, 1, 0, 0)
    assert topk_majority(p, 2, (3, 2, 1, 0)).bits == (1, 0, 0, 1)


def test_topk_majority_requires_tiebreak_and_valid_k():
    # the tiebreak is refused by require_compatible, k by SpaceSpec
    p = ballot_profile(3, "110", "011", k=2)
    with pytest.raises(ConfigurationError, match="needs a tiebreak order"):
        winner(RuleSpec(VotingRule.TOPK_MAJORITY), p)
    for k in (0, 4):
        with pytest.raises(ConfigurationError):
            binary(Metric.HAMMING, 3, k=k)


# --- kemeny ------------------------------------------------------------------


def test_kemeny_condorcet_profile():
    p = ranking_profile(3, *ORDINAL)
    assert kemeny_ranking(p).ranking == (0, 1, 2)


def test_kemeny_unanimous_profile():
    p = ranking_profile(4, (3, 1, 0, 2), (3, 1, 0, 2))
    assert kemeny_ranking(p).ranking == (3, 1, 0, 2)


def test_kemeny_tie_follows_tiebreak_order():
    p = ranking_profile(2, (0, 1), (1, 0))
    assert kemeny_ranking(p).ranking == (0, 1)
    assert kemeny_ranking(p, tiebreak=(1, 0)).ranking == (1, 0)


def test_kemeny_minimizes_total_inversions():
    rng_profiles = [
        ranking_profile(4, (0, 1, 2, 3), (3, 2, 1, 0), (1, 0, 3, 2)),
        ranking_profile(4, (2, 0, 3, 1), (2, 0, 3, 1), (0, 1, 2, 3), (3, 1, 0, 2)),
    ]
    for p in rng_profiles:
        best = kemeny_ranking(p).ranking
        cost = lambda r: sum(kendall_tau(r, q.ranking) for q in p.points)
        assert cost(best) == min(cost(r) for r in itertools.permutations(range(4)))


def test_kemeny_single_candidate():
    assert kemeny_ranking(ranking_profile(1, (0,), (0,))).ranking == (0,)


def test_kemeny_at_the_size_limit_returns_a_ranking():
    m = KEMENY_MAX_CANDIDATES
    p = ranking_profile(m, tuple(range(m)), tuple(reversed(range(m))), tuple(range(1, m)) + (0,))
    assert sorted(kemeny_ranking(p).ranking) == list(range(m))


def test_kemeny_above_the_size_limit_is_refused(capsys):
    m = KEMENY_MAX_CANDIDATES + 1
    with pytest.raises(UnsupportedSizeError):
        kemeny_ranking(ranking_profile(m, tuple(range(m))))
    code = main(["run", "--space", "ranking", "--distance", "swap", "--rule", "kemeny",
                 "--m", str(m), "--n", "3"])
    assert code == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# --- scoring rules -----------------------------------------------------------


def test_candidate_scores_plurality():
    p = ranking_profile(3, *ORDINAL)
    assert candidate_scores(p, VotingRule.PLURALITY) == [2, 0, 1]


def test_candidate_scores_borda():
    # top place is worth m-1, so each ballot hands out 2,1,0
    p = ranking_profile(3, *ORDINAL)
    assert candidate_scores(p, VotingRule.BORDA) == [5, 2, 2]


def test_candidate_scores_copeland():
    p = ranking_profile(3, *ORDINAL)
    assert candidate_scores(p, VotingRule.COPELAND) == [2, 1, 0]


def test_scoring_ranking_orders_by_score_then_tiebreak():
    p = ranking_profile(3, *ORDINAL)
    assert scoring_ranking(p, VotingRule.PLURALITY, (0, 1, 2)).ranking == (0, 2, 1)
    # borda ties b and c at 2; the tiebreak order decides
    assert scoring_ranking(p, VotingRule.BORDA, (0, 1, 2)).ranking == (0, 1, 2)
    assert scoring_ranking(p, VotingRule.BORDA, (2, 1, 0)).ranking == (0, 2, 1)


def test_scoring_ranking_single_voter():
    p = ranking_profile(3, (1, 2, 0))
    assert scoring_ranking(p, VotingRule.PLURALITY, (0, 1, 2)).ranking == (1, 0, 2)
    assert scoring_ranking(p, VotingRule.BORDA, (0, 1, 2)).ranking == (1, 2, 0)


# --- stv ---------------------------------------------------------------------


def test_stv_rounds_hand_example():
    p = ranking_profile(3, *ORDINAL)
    # b falls first with no first-place votes, c with one, a wins with all three
    assert stv_rounds(p, (0, 1, 2)) == [(1, 0), (2, 1), (0, 3)]
    assert stv_ranking(p, (0, 1, 2)).ranking == (0, 2, 1)


def test_stv_transfers_votes():
    # once 2 is eliminated its supporter counts for 1, flipping the lead
    p = ranking_profile(3, (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 1, 0))
    rounds = stv_rounds(p, (0, 1, 2))
    assert rounds[0] == (2, 1)
    assert rounds[1] == (0, 2)
    assert rounds[2] == (1, 5)


def test_stv_tie_eliminates_later_tiebreak_entry():
    p = ranking_profile(2, (0, 1), (1, 0))
    assert stv_rounds(p, (0, 1)) == [(1, 1), (0, 2)]
    assert stv_rounds(p, (1, 0)) == [(0, 1), (1, 2)]


def test_stv_requires_tiebreak():
    # refused at the boundary: require_compatible, which winner calls
    p = ranking_profile(2, (0, 1))
    with pytest.raises(ConfigurationError, match="needs a tiebreak order"):
        winner(RuleSpec(VotingRule.STV), p)


# --- RuleSpec and dispatch ---------------------------------------------------


def test_rulespec_tiebreak_must_be_permutation():
    RuleSpec(VotingRule.PLURALITY, (2, 0, 1))
    with pytest.raises(ConfigurationError):
        RuleSpec(VotingRule.PLURALITY, (0, 0, 1))


@pytest.mark.parametrize(
    "order, message",
    [
        ((0, 1.5, 2), "tiebreak entry 1 = 1.5 is not an integer"),
        ((True, 0, 2), "tiebreak entry 0 = True is not an integer"),
        ((0, 1.0, 2), "tiebreak entry 1 = 1.0 is not an integer"),
        ("012", "tiebreak entry 0 = '0' is not an integer"),
    ],
)
def test_rulespec_refuses_a_tiebreak_entry_that_is_no_integer(order, message):
    with pytest.raises(ConfigurationError) as raised:
        RuleSpec(VotingRule.BORDA, order)
    assert str(raised.value) == message


def test_rulespec_accepts_numpy_integer_tiebreak_entries():
    order = RuleSpec(VotingRule.BORDA, np.array([2, 0, 1], dtype=np.int64)).tiebreak_order
    assert order == (2, 0, 1)
    assert all(type(c) is int for c in order)


def test_winner_dispatch_matches_direct_calls():
    rp = ranking_profile(3, *ORDINAL)
    assert winner(RuleSpec(VotingRule.KEMENY), rp).ranking == (0, 1, 2)
    assert winner(RuleSpec(VotingRule.PLURALITY, (0, 1, 2)), rp).ranking == (0, 2, 1)
    assert winner(RuleSpec(VotingRule.STV, (0, 1, 2)), rp).ranking == (0, 2, 1)
    ep = real_profile(Metric.L2, (1.0,), (3.0,))
    assert winner(RuleSpec(VotingRule.MEAN), ep).real_vector == (2.0,)
    bp = ballot_profile(2, "10", "01")
    assert winner(RuleSpec(VotingRule.MAJORITY), bp).bits == (1, 1)
    cp = ballot_profile(3, "110", "011", k=2)
    assert winner(RuleSpec(VotingRule.TOPK_MAJORITY, (0, 1, 2)), cp).bits == (1, 1, 0)


def test_winner_rejects_family_mismatch():
    rp = ranking_profile(3, *ORDINAL)
    with pytest.raises(ConfigurationError):
        winner(RuleSpec(VotingRule.MEAN), rp)
    ep = real_profile(Metric.L2, (0.0,), (1.0,))
    with pytest.raises(ConfigurationError):
        winner(RuleSpec(VotingRule.KEMENY), ep)


def test_winner_requires_tiebreak_where_needed():
    rp = ranking_profile(3, *ORDINAL)
    for rule in (VotingRule.PLURALITY, VotingRule.BORDA, VotingRule.COPELAND, VotingRule.STV):
        with pytest.raises(ConfigurationError):
            winner(RuleSpec(rule), rp)
    with pytest.raises(ConfigurationError):
        winner(RuleSpec(VotingRule.STV), ranking_profile(2, (0, 1)))
    # kemeny's tiebreak is optional
    winner(RuleSpec(VotingRule.KEMENY), rp)


def test_config_and_winner_share_one_compatibility_check():
    rp = ranking_profile(3, *ORDINAL)
    cases = (
        (RuleSpec(VotingRule.MEAN), rp),
        (RuleSpec(VotingRule.PLURALITY), rp),
        (RuleSpec(VotingRule.KEMENY, (0, 1, 2, 3)), rp),
        (RuleSpec(VotingRule.MAJORITY), ballot_profile(3, "110", k=2)),
        (RuleSpec(VotingRule.MAJORITY), ballot_profile(4, "1100", "0110", k=2)),
        (RuleSpec(VotingRule.TOPK_MAJORITY, (0, 1, 2)), ballot_profile(3, "110")),
        (RuleSpec(VotingRule.TOPK_MAJORITY), ballot_profile(3, "110", "011", k=2)),
    )
    for rule, profile in cases:
        with pytest.raises(ConfigurationError) as from_winner:
            winner(rule, profile)
        with pytest.raises(ConfigurationError) as from_config:
            EngineConfig(profile.spec, rule, epsilon=2.0)
        assert str(from_config.value) == str(from_winner.value)


# --- property checks ---------------------------------------------------------


@given(st.integers(1, 9), st.data())
def test_bitwise_majority_agrees_with_column_counts(n, data):
    m = data.draw(st.integers(1, 6))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    p = Profile(binary(Metric.HAMMING, m), tuple(Point.of_bits(r) for r in rows))
    out = bitwise_majority(p).bits
    for c in range(m):
        ones = sum(r[c] for r in rows)
        assert out[c] == (1 if 2 * ones >= n else 0)


@given(st.integers(2, 4), st.integers(1, 5), st.data())
def test_kemeny_never_beaten_by_any_permutation(m, n, data):
    rows = data.draw(
        st.lists(st.permutations(range(m)), min_size=n, max_size=n)
    )
    p = ranking_profile(m, *rows)
    best = kemeny_ranking(p).ranking
    cost = lambda r: sum(kendall_tau(r, q.ranking) for q in p.points)
    assert all(cost(best) <= cost(r) for r in itertools.permutations(range(m)))


@settings(derandomize=True, max_examples=300)
@given(st.integers(1, BRUTEFORCE_MAX_CANDIDATES), st.data())
def test_kemeny_matches_the_bruteforce_oracle(m, data):
    # a few distinct ballots, repeated, so that equal costs come up often
    ballots = data.draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3))
    rows = data.draw(st.lists(st.sampled_from(ballots), min_size=1, max_size=8))
    order = data.draw(st.permutations(range(m)))
    p = ranking_profile(m, *rows)
    assert kemeny_ranking(p, order) == kemeny_bruteforce(p, order)
