"""Replays of the canonical runs and the self-verification harness."""

import pytest

from delibsim import (
    ConfigurationError,
    Metric,
    Outcome,
    Point,
    RuleSpec,
    UnsupportedSizeError,
    VotingRule,
    winner,
)
from delibsim.cli import main
from delibsim.replays import (
    MAX_ESCAPE_ITERATIONS,
    REPLAY_NAMES,
    example3_script,
    example4_script,
    ordinal_profile,
    replay,
    run_example1,
    run_example3,
    run_example4,
)
from delibsim.verification import CHECK_NAMES, run_verification, swf_timing_parameters

from helpers import ranking_space


def test_replay_names_all_pass():
    for name in REPLAY_NAMES:
        result = replay(name, iterations=40)
        assert result.passed, (name, result.failures)
        assert result.failures == ()
        assert result.lines


def test_escape_scripts_refuse_a_count_above_the_limit():
    for script in (example3_script, example4_script):
        with pytest.raises(UnsupportedSizeError):
            script(MAX_ESCAPE_ITERATIONS + 1)


def test_replay_unknown_name():
    with pytest.raises(ConfigurationError):
        replay("example99")


def test_example1_exact_path():
    report, _ = run_example1()
    assert report.outcome is Outcome.CONVERGED
    assert [p.real_vector[0] for rec in report.trace for p in rec.points] == [
        3, 5, 8, 4, 5, 7, 5, 5, 6, 5, 5, 5,
    ]
    assert report.moving_iterations == 3


def test_example3_winner_recedes_forever():
    report, _ = run_example3(iterations=25)
    assert report.outcome is Outcome.CAP_REACHED
    assert report.growth_detected is True
    for j, rec in enumerate(report.trace):
        assert rec.winner.real_vector == (float(j), float(j), float(j))


def test_example4_median_recedes_forever():
    report, _ = run_example4(iterations=25)
    assert report.outcome is Outcome.CAP_REACHED
    for j, rec in enumerate(report.trace):
        assert rec.winner.real_vector == (float(j), float(j), float(j))


def test_escape_scripts_have_budget_plus_one_profiles():
    assert len(example3_script(10)) == 11
    assert len(example4_script(10)) == 11
    # a count below 1 keeps the starting profile, so the budget check reports it
    assert len(example3_script(-3)) == len(example4_script(-3)) == 1


@pytest.mark.parametrize("name", ["example3", "example4"])
@pytest.mark.parametrize(
    "iterations, expected",
    [(1, [0, 1]), (2, [0, 1, 2]), (3, [0, 1, 2, 3]), (40, [0, 1, 2, 40])],
    ids=["1", "2", "3", "40"],
)
def test_escape_replay_lists_each_iteration_once_in_order(name, iterations, expected):
    lines = replay(name, iterations=iterations).lines
    assert [int(line.split(":")[0].split()[1]) for line in lines[:-1]] == expected


def test_ordinal_profile_matches_running_example():
    p = ordinal_profile()
    assert p.spec == ranking_space(Metric.SWAP, 3)
    assert [pt.ranking for pt in p.points] == [(0, 1, 2), (0, 1, 2), (2, 0, 1)]
    assert winner(RuleSpec(VotingRule.KEMENY), p) == Point.of_ranking((0, 1, 2))


# --- verification harness ----------------------------------------------------


def test_run_verification_all_checks_pass():
    rows = run_verification(seeds=range(2))
    assert rows
    assert {r.check for r in rows} == set(CHECK_NAMES)
    bad = [r for r in rows if not r.passed]
    assert bad == []


def test_run_verification_check_subset_and_unknown():
    rows = run_verification(seeds=range(1), checks=["kemeny-oracle"])
    assert {r.check for r in rows} == {"kemeny-oracle"}
    with pytest.raises(ConfigurationError):
        run_verification(seeds=range(1), checks=["bogus"])


def test_run_verification_corrupt_mode_fails_and_restores():
    rows = run_verification(seeds=range(1), corrupt=True)
    assert any(not r.passed for r in rows)
    # the sabotage hook must not leak out of the harness
    p = ordinal_profile()
    assert winner(RuleSpec(VotingRule.KEMENY), p) == Point.of_ranking((0, 1, 2))


def test_run_verification_corrupt_mode_fails_exactly_the_kemeny_rows():
    rows = run_verification(seeds=range(6), corrupt=True)

    def kemeny(r):
        return (
            (r.check == "exact-count" and r.configuration == "kemeny")
            or (r.check == "first-changed-timing" and r.configuration.startswith("swf-kemeny "))
            or r.check == "kemeny-oracle"
        )

    assert sum(map(kemeny, rows)) == 6 + 6 + 2
    assert [r for r in rows if kemeny(r) == r.passed] == []
    p = ordinal_profile()
    assert winner(RuleSpec(VotingRule.KEMENY), p) == Point.of_ranking((0, 1, 2))


def test_swf_timing_parameters_avoid_skip_cases():
    for seed in range(40):
        m, eps, rule = swf_timing_parameters(seed)
        assert eps >= 2
        assert m % eps != 1
        assert rule in (VotingRule.BORDA, VotingRule.COPELAND, VotingRule.KEMENY)


#: stdout of ``reproduce NAME --iterations N``, recorded from the per-agent scripted runs
_PINNED_REPLAYS = {
    ("example3", 1): (
        "iteration 0: winner (0.0, 0.0, 0.0)\n"
        "iteration 1: winner (1.0, 1.0, 1.0)\n"
        "outcome: cap_reached after 1 iterations, growth_detected=True\n"
        "example3: ok\n"
    ),
    ("example3", 2): (
        "iteration 0: winner (0.0, 0.0, 0.0)\n"
        "iteration 1: winner (1.0, 1.0, 1.0)\n"
        "iteration 2: winner (2.0, 2.0, 2.0)\n"
        "outcome: cap_reached after 2 iterations, growth_detected=True\n"
        "example3: ok\n"
    ),
    ("example3", 500): (
        "iteration 0: winner (0.0, 0.0, 0.0)\n"
        "iteration 1: winner (1.0, 1.0, 1.0)\n"
        "iteration 2: winner (2.0, 2.0, 2.0)\n"
        "iteration 500: winner (500.0, 500.0, 500.0)\n"
        "outcome: cap_reached after 500 iterations, growth_detected=True\n"
        "example3: ok\n"
    ),
    ("example3", 8000): (
        "iteration 0: winner (0.0, 0.0, 0.0)\n"
        "iteration 1: winner (1.0, 1.0, 1.0)\n"
        "iteration 2: winner (2.0, 2.0, 2.0)\n"
        "iteration 8000: winner (8000.0, 8000.0, 8000.0)\n"
        "outcome: cap_reached after 8000 iterations, growth_detected=True\n"
        "example3: ok\n"
    ),
    ("example4", 1): (
        "iteration 0: winner (0.0, 0.0, 0.0)\n"
        "iteration 1: winner (1.0, 1.0, 1.0)\n"
        "outcome: cap_reached after 1 iterations, growth_detected=True\n"
        "example4: ok\n"
    ),
    ("example4", 2): (
        "iteration 0: winner (0.0, 0.0, 0.0)\n"
        "iteration 1: winner (1.0, 1.0, 1.0)\n"
        "iteration 2: winner (2.0, 2.0, 2.0)\n"
        "outcome: cap_reached after 2 iterations, growth_detected=True\n"
        "example4: ok\n"
    ),
    ("example4", 500): (
        "iteration 0: winner (0.0, 0.0, 0.0)\n"
        "iteration 1: winner (1.0, 1.0, 1.0)\n"
        "iteration 2: winner (2.0, 2.0, 2.0)\n"
        "iteration 500: winner (500.0, 500.0, 500.0)\n"
        "outcome: cap_reached after 500 iterations, growth_detected=True\n"
        "example4: ok\n"
    ),
    ("example4", 8000): (
        "iteration 0: winner (0.0, 0.0, 0.0)\n"
        "iteration 1: winner (1.0, 1.0, 1.0)\n"
        "iteration 2: winner (2.0, 2.0, 2.0)\n"
        "iteration 8000: winner (8000.0, 8000.0, 8000.0)\n"
        "outcome: cap_reached after 8000 iterations, growth_detected=True\n"
        "example4: ok\n"
    ),
}


@pytest.mark.parametrize("name, iterations", sorted(_PINNED_REPLAYS))
def test_escape_replay_output_is_pinned(capsys, name, iterations):
    assert main(["reproduce", name, "--iterations", str(iterations)]) == 0
    assert capsys.readouterr().out == _PINNED_REPLAYS[name, iterations]
