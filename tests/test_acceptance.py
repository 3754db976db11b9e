"""Acceptance suite: the nine behaviors the package promises.

Each test prints one PASS line on success; a failure shows up as the usual
pytest report for that criterion.  Tolerances are pinned here, not imported,
so a drifting constant elsewhere cannot silently weaken the suite.
"""

import math
import random

from delibsim import (
    BoundKind,
    Comparison,
    ConstraintMode,
    EngineConfig,
    GeneratorSpec,
    Metric,
    Outcome,
    Point,
    PolicyKind,
    PolicySpec,
    Profile,
    RuleSpec,
    VotingRule,
    ball_containment,
    check_constraints,
    dist,
    generate,
    iteration_bound,
    kemeny_bruteforce,
    lex_compare,
    potential_scoring,
    potential_stv,
    run,
    sum_distance_to_winner,
    winner,
    winner_stability,
)
from delibsim.policies import MovePolicy
from delibsim.replays import example3_script, example4_script
from delibsim.rules import kemeny_ranking
from delibsim.verification import run_verification, swf_timing_parameters
from delibsim.profiles import worst_case_swf, worst_case_vnw

from helpers import binary, euclidean, ranking_space

UNIQUENESS_TOL = 1e-9
ESCAPE_ITERATIONS = 500

APPROACH = PolicySpec(constraint_mode=ConstraintMode.APPROACH_ONLY)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


# -- 1 -------------------------------------------------------------------


def test_c1_floor_mean_line_follows_the_golden_trace():
    """Three agents on the integer line reach 5 through the exact textbook path."""
    space = euclidean(Metric.L1, 1, lattice=True)
    profile = Profile(space, tuple(Point.reals((v,)) for v in (3.0, 5.0, 8.0)))
    report = run(profile, EngineConfig(space, RuleSpec(VotingRule.FLOOR_MEAN), epsilon=1.0))
    golden = ((3, 5, 8), (4, 5, 7), (5, 5, 6), (5, 5, 5))
    assert report.outcome is Outcome.CONVERGED
    assert report.states == 4 and report.moving_iterations == 3
    for rec, expected in zip(report.trace, golden):
        assert tuple(p.real_vector[0] for p in rec.points) == expected
        assert rec.winner.real_vector == (5.0,)
    assert report.point.real_vector == (5.0,)
    _report(1, "floor-mean line run reproduces (3,5,8) -> (5,5,5) exactly")


# -- 2 -------------------------------------------------------------------


def test_c2_mean_under_sup_metric_never_converges():
    """The drifting trio keeps every movement law yet walks away forever."""
    space = euclidean(Metric.LINF, 3)
    script = example3_script(ESCAPE_ITERATIONS)
    profile = Profile(space, script[0])
    config = EngineConfig(
        space,
        RuleSpec(VotingRule.MEAN),
        policy=PolicySpec(
            kind=PolicyKind.SCRIPTED,
            script=script,
            constraint_mode=ConstraintMode.STRICT,
        ),
        epsilon=1.0,
        max_iters=ESCAPE_ITERATIONS,
    )
    report = run(profile, config)
    assert report.outcome is Outcome.CAP_REACHED
    assert report.states == ESCAPE_ITERATIONS + 1
    assert report.growth_detected is True
    for j, rec in enumerate(report.trace):
        assert rec.winner.real_vector == (float(j), float(j), float(j))
    _report(2, f"mean/sup-metric trio escapes for {ESCAPE_ITERATIONS} strict iterations")


# -- 3 -------------------------------------------------------------------


def test_c3_median_under_sup_metric_never_converges():
    """Four agents drag the coordinatewise median one diagonal step per round."""
    space = euclidean(Metric.LINF, 3)
    script = example4_script(ESCAPE_ITERATIONS)
    profile = Profile(space, script[0])
    config = EngineConfig(
        space,
        RuleSpec(VotingRule.MEDIAN),
        policy=PolicySpec(
            kind=PolicyKind.SCRIPTED,
            script=script,
            constraint_mode=ConstraintMode.STRICT,
        ),
        epsilon=1.0,
        max_iters=ESCAPE_ITERATIONS,
    )
    report = run(profile, config)
    assert report.outcome is Outcome.CAP_REACHED
    assert report.growth_detected is True
    for j, rec in enumerate(report.trace):
        assert rec.winner.real_vector == (float(j), float(j), float(j))
    steps = [
        tuple(b - a for a, b in zip(p.winner.real_vector, q.winner.real_vector))
        for p, q in zip(report.trace, report.trace[1:])
    ]
    assert all(step == (1.0, 1.0, 1.0) for step in steps)
    _report(3, f"median/sup-metric quartet escapes for {ESCAPE_ITERATIONS} strict iterations")


# -- 4 -------------------------------------------------------------------


def test_c4_winner_stable_rules_hit_their_exact_counts():
    """500 random runs land exactly on the farthest-agent step count."""
    rows = run_verification(seeds=range(100), checks=["exact-count"])
    assert len(rows) == 500
    failures = [r for r in rows if not r.passed]
    assert failures == [], failures[:5]
    _report(4, "median/majority/committee/kemeny hit exact counts on 500 runs")


# -- 5 -------------------------------------------------------------------


def test_c5_mean_converges_fast_inside_the_initial_ball():
    """Mean runs converge within the cap, shrink total distance, stay in the ball."""
    for seed in range(100):
        metric = Metric.L1 if seed < 50 else Metric.L2
        dim = 1 + seed % 3
        n = 2 + (seed * 7) % 19
        epsilon = (0.5, 1.0, 2.5)[seed % 3]
        space = euclidean(metric, dim)
        profile = generate(GeneratorSpec(space, n=n, seed=seed * 131 + 7))
        bound = iteration_bound(space, VotingRule.MEAN, profile, epsilon)
        assert bound.kind is BoundKind.EXACT or bound.kind is BoundKind.CAP
        config = EngineConfig(space, RuleSpec(VotingRule.MEAN), epsilon=epsilon)
        report = run(profile, config)
        assert report.outcome is Outcome.CONVERGED, (seed, report.outcome)
        assert report.moving_iterations <= bound.iterations
        sums = [
            sum_distance_to_winner(Profile(space, rec.points), rec.winner)
            for rec in report.trace
        ]
        for j, rec in enumerate(report.trace[:-1]):
            if any(rec.moved):
                assert sums[j + 1] < sums[j], (seed, j, sums[j], sums[j + 1])
        if metric is Metric.L2:
            assert ball_containment(profile, report.point), seed
    _report(5, "100 mean runs: capped count, shrinking total distance, ball respected")


# -- 6 -------------------------------------------------------------------


def test_c6_ranking_potentials_move_monotonically():
    """Scoring potentials rise and the elimination potential falls, every step."""
    # the two frozen single-profile vectors first
    space3 = ranking_space(Metric.SWAP, 3)
    running = Profile(
        space3,
        (Point.of_ranking((0, 1, 2)), Point.of_ranking((0, 1, 2)), Point.of_ranking((2, 0, 1))),
    )
    assert potential_scoring(running, VotingRule.PLURALITY, (0, 1, 2)).flat == (
        2, 2, 5, 1, 0, 2, 0, 1, 2,
    )
    assert potential_stv(running, (0, 1, 2)).flat == (0, 1, 2, 1, 0, 2, 3, 2, 5)

    rules = (VotingRule.PLURALITY, VotingRule.BORDA, VotingRule.COPELAND, VotingRule.STV)
    for seed in range(100):
        m = 3 + seed % 3
        n = 2 + (seed * 3) % 6
        rule = rules[seed % 4]
        order = tuple(range(m))
        space = ranking_space(Metric.SWAP, m)
        profile = generate(GeneratorSpec(space, n=n, seed=seed * 97 + 13))
        policy = (
            PolicySpec()
            if seed < 50
            else PolicySpec(kind=PolicyKind.SEEDED_RANDOM, seed=seed)
        )
        config = EngineConfig(
            space, RuleSpec(rule, order), policy=policy, max_iters=2000
        )
        report = run(profile, config)
        assert report.outcome is Outcome.CONVERGED, (seed, rule)
        if rule is VotingRule.STV:
            pots = [
                potential_stv(Profile(space, rec.points), order)
                for rec in report.trace
            ]
            expected = Comparison.GREATER
        else:
            pots = [
                potential_scoring(Profile(space, rec.points), rule, order)
                for rec in report.trace
            ]
            expected = Comparison.LESS
        for j, rec in enumerate(report.trace[:-1]):
            if any(rec.moved):
                assert lex_compare(pots[j], pots[j + 1]) is expected, (seed, rule, j)
    _report(6, "100 ranking runs: scoring potentials rise, elimination potential falls")


# -- 7 -------------------------------------------------------------------


def test_c7_worst_case_profiles_exhaust_the_size_bound():
    """Adversarial profiles need exactly ceil(m/eps) iterations, never fewer."""
    for seed in range(25):
        m = 4 + seed % 6
        movers = 1 + seed % 3
        epsilon = 1 + seed % 3
        profile = worst_case_vnw(m=m, movers=movers, seed=seed)
        config = EngineConfig(
            profile.spec, RuleSpec(VotingRule.MAJORITY), policy=APPROACH, epsilon=epsilon
        )
        report = run(profile, config)
        assert report.outcome is Outcome.CONVERGED
        assert report.moving_iterations == math.ceil(m / epsilon), (seed, m, epsilon)
    for seed in range(25):
        m, epsilon, rule = swf_timing_parameters(seed)
        profile = worst_case_swf(m=m, rule=rule, seed=seed)
        order = tuple(profile.points[0].ranking)
        config = EngineConfig(
            profile.spec, RuleSpec(rule, order), policy=APPROACH, epsilon=epsilon
        )
        report = run(profile, config)
        assert report.outcome is Outcome.CONVERGED
        assert report.moving_iterations == math.ceil(m / epsilon), (seed, m, epsilon, rule)
    _report(7, "50 adversarial profiles take exactly ceil(m/eps) iterations")


# -- 8 -------------------------------------------------------------------


def test_c8_kemeny_search_matches_exhaustive_enumeration():
    """The margin-guided search and brute force agree on 200 profiles."""
    rng = random.Random(2024)
    for trial in range(200):
        m = rng.randint(2, 5)
        n = rng.randint(1, 7)
        space = ranking_space(Metric.SWAP, m)
        profile = generate(GeneratorSpec(space, n=n, seed=trial * 37 + 5))
        if trial % 3 == 0:
            tiebreak = None
        else:
            order = list(range(m))
            rng.shuffle(order)
            tiebreak = tuple(order)
        fast = kemeny_ranking(profile, tiebreak)
        slow = kemeny_bruteforce(profile, tiebreak)
        assert fast == slow, (trial, m, n, tiebreak)
    _report(8, "kemeny search equals brute-force enumeration on 200 profiles")


# -- 9 -------------------------------------------------------------------


def _random_point(rng, space):
    if space.family.value == "euclidean":
        return Point.reals(rng.uniform(-25.0, 25.0) for _ in range(space.dimension))
    if space.family.value == "binary":
        if space.committee_size is not None:
            ones = set(rng.sample(range(space.num_candidates), space.committee_size))
            return Point.of_bits(
                1 if i in ones else 0 for i in range(space.num_candidates)
            )
        return Point.of_bits(rng.randrange(2) for _ in range(space.num_candidates))
    seq = list(range(space.num_candidates))
    rng.shuffle(seq)
    return Point.of_ranking(seq)


def test_c9a_metric_axioms_hold_on_random_triples():
    """Identity, symmetry, and the triangle inequality, 1000 triples per metric."""
    spaces = [
        euclidean(Metric.L1, 3),
        euclidean(Metric.L2, 3),
        euclidean(Metric.LINF, 3),
        binary(Metric.HAMMING, 8),
        ranking_space(Metric.SWAP, 5),
        binary(Metric.FIRST_CHANGED, 8),
    ]
    rng = random.Random(99)
    for space in spaces:
        for _ in range(1000):
            x, y, z = (_random_point(rng, space) for _ in range(3))
            dxy = dist(space, x, y)
            assert dxy >= 0.0
            assert dist(space, x, x) == 0.0
            assert dxy == dist(space, y, x)
            assert dist(space, x, z) <= dxy + dist(space, y, z) + 1e-9
    _report(9, "metric axioms hold on 1000 random triples for all six metrics")


def test_c9b_default_moves_always_satisfy_the_laws():
    """1000 fuzzed moves per space pass the constraint checker."""
    cases = [
        (euclidean(Metric.L1, 2), ConstraintMode.STRICT, (0.5, 1.0, 2.5)),
        (euclidean(Metric.L2, 3), ConstraintMode.STRICT, (0.5, 1.0, 2.5)),
        (euclidean(Metric.LINF, 2), ConstraintMode.STRICT, (0.5, 1.0, 2.5)),
        (binary(Metric.HAMMING, 9), ConstraintMode.STRICT, (1, 2, 3)),
        (binary(Metric.HAMMING, 9, k=4), ConstraintMode.STRICT, (2, 4)),
        (ranking_space(Metric.SWAP, 5), ConstraintMode.STRICT, (1, 2, 3)),
        (binary(Metric.FIRST_CHANGED, 9), ConstraintMode.APPROACH_ONLY, (1, 2, 3)),
        (ranking_space(Metric.FIRST_CHANGED, 5), ConstraintMode.APPROACH_ONLY, (1, 2)),
    ]
    rng = random.Random(2718)
    for space, mode, epsilons in cases:
        policy = MovePolicy(space, PolicySpec(constraint_mode=mode))
        for trial in range(1000):
            v, w = _random_point(rng, space), _random_point(rng, space)
            eps = epsilons[trial % len(epsilons)]
            out = policy.move(v, w, eps, iteration=0, agent=0)
            msg = check_constraints(space, v, out, w, eps, mode)
            assert msg is None, (space.distance, trial, msg)
    _report(9, "8000 fuzzed default moves all satisfy the movement laws")


def test_c9c_straight_line_move_is_the_unique_legal_step():
    """Perturbing the straight-line step in any direction breaks a law."""
    rng = random.Random(31415)
    space = euclidean(Metric.L2, 3)
    checked = 0
    while checked < 10_000:
        v = Point.reals(rng.uniform(-10, 10) for _ in range(3))
        w = Point.reals(rng.uniform(-10, 10) for _ in range(3))
        eps = rng.choice((0.5, 1.0, 2.0))
        if dist(space, v, w) <= eps:
            continue
        policy = MovePolicy(space, PolicySpec())
        out = policy.move(v, w, eps, 0, 0)
        direction = [rng.gauss(0, 1) for _ in range(3)]
        norm = math.sqrt(sum(d * d for d in direction))
        # Both laws degrade quadratically along the tangent plane, so a
        # perturbation under ~1e-4 can sit inside the checker's 1e-9 slack;
        # 1e-3 is the smallest magnitude that must always be caught.
        magnitude = 10.0 ** rng.uniform(-3, 0)
        perturbed = Point.reals(
            o + magnitude * d / norm for o, d in zip(out.real_vector, direction)
        )
        assert dist(space, perturbed, out) > UNIQUENESS_TOL
        msg = check_constraints(space, v, perturbed, w, eps, ConstraintMode.STRICT)
        assert msg is not None, (v, w, eps, perturbed)
        checked += 1
    assert checked == 10_000
    _report(9, "10000 perturbations of the straight-line step all violate a law")
