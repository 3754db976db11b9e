"""Seeded end-to-end checks of every quantitative claim.

Each check row reruns one configuration from scratch and compares an
observed quantity against its predicted value: exact iteration counts with
a stable winner, capped mean convergence with shrinking total distance and
final-point ball containment, potential monotonicity for the ordinal
rules, full-length timing under the deepest-disagreement metric, and
exhaustive-oracle agreement for the minimal-total-swap rule.  The
``corrupt`` flag deliberately breaks one rule to prove the harness reports
failures: every run and the oracle comparison then take a winner function
that swaps the top two of each Kemeny ranking, while the predictions keep
using the honest rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import rules as rules_mod
from .analysis import (
    BoundKind,
    Comparison,
    ball_containment,
    iteration_bound,
    kemeny_bruteforce,
    lex_compare,
    potential_scoring,
    potential_stv,
    sum_distance_to_winner,
    winner_stability,
)
from .engine import EngineConfig, Outcome, WinnerFn, run
from .errors import ConfigurationError
from .policies import ConstraintMode, PolicySpec
from .profiles import GeneratorSpec, generate, worst_case_swf, worst_case_vnw
from .rules import Profile, RuleSpec, VotingRule
from .spaces import Family, Metric, Point, SpaceSpec

@dataclass(frozen=True)
class CheckRow:
    check: str
    configuration: str
    seed: int
    passed: bool
    observed: str
    predicted: str


CHECK_FIELDS = ("check", "configuration", "seed", "passed", "observed", "predicted")


def _identity(m: int) -> tuple[int, ...]:
    return tuple(range(m))


def _euclidean_case(seed: int, metric: Metric, rule: VotingRule):
    dim = 1 + seed % 3
    n = 2 + (seed * 7) % 14
    epsilon = (0.5, 1.0, 2.5)[seed % 3]
    space = SpaceSpec(Family.EUCLIDEAN, metric, dimension=dim)
    profile = generate(GeneratorSpec(space, n=n, seed=seed * 31 + 1))
    return space, RuleSpec(rule), profile, epsilon


def _vnw_case(seed: int):
    m = 4 + seed % 7
    n = 1 + (seed * 5) % 12
    epsilon = 1 + seed % 3
    space = SpaceSpec(Family.BINARY, Metric.HAMMING, num_candidates=m)
    profile = generate(GeneratorSpec(space, n=n, seed=seed * 31 + 2))
    return space, RuleSpec(VotingRule.MAJORITY), profile, float(epsilon)


def _mw_case(seed: int):
    m = 5 + seed % 5
    k = 2 + seed % (m - 3)
    n = 1 + (seed * 3) % 10
    space = SpaceSpec(Family.BINARY, Metric.HAMMING, num_candidates=m, committee_size=k)
    profile = generate(GeneratorSpec(space, n=n, seed=seed * 31 + 3))
    rule = RuleSpec(VotingRule.TOPK_MAJORITY, _identity(m))
    return space, rule, profile, 2.0


def _kemeny_case(seed: int):
    m = 3 + seed % 3
    n = 1 + (seed * 3) % 7
    epsilon = 1 + seed % 2
    space = SpaceSpec(Family.RANKING, Metric.SWAP, num_candidates=m)
    profile = generate(GeneratorSpec(space, n=n, seed=seed * 31 + 4))
    rule = RuleSpec(VotingRule.KEMENY, _identity(m))
    return space, rule, profile, float(epsilon)


_EXACT_CASES: dict[str, Callable] = {
    "median-l1": lambda s: _euclidean_case(s, Metric.L1, VotingRule.MEDIAN),
    "median-l2": lambda s: _euclidean_case(s, Metric.L2, VotingRule.MEDIAN),
    "majority-vnw": _vnw_case,
    "topk-mw": _mw_case,
    "kemeny": _kemeny_case,
}


def _check_exact_count(seed: int, winner: Optional[WinnerFn]) -> list[CheckRow]:
    rows = []
    for name, build in _EXACT_CASES.items():
        space, rule, profile, epsilon = build(seed)
        bound = iteration_bound(space, rule, profile, epsilon)
        config = EngineConfig(space, rule, epsilon=epsilon)
        report = run(profile, config, winner)
        ok = (
            report.outcome is Outcome.CONVERGED
            and winner_stability(report.trace)
            and bound.kind is BoundKind.EXACT
            and report.moving_iterations == bound.iterations
        )
        rows.append(
            CheckRow(
                "exact-count",
                name,
                seed,
                ok,
                f"{report.outcome.value}/{report.moving_iterations}",
                f"converged/{bound.iterations}",
            )
        )
    return rows


def _check_mean(seed: int, winner: Optional[WinnerFn]) -> list[CheckRow]:
    rows = []
    for name, metric in (("mean-l1", Metric.L1), ("mean-l2", Metric.L2)):
        space, rule, profile, epsilon = _euclidean_case(seed, metric, VotingRule.MEAN)
        bound = iteration_bound(space, rule, profile, epsilon)
        config = EngineConfig(space, rule, epsilon=epsilon)
        report = run(profile, config, winner)
        sums = [
            sum_distance_to_winner(Profile.of_checked(space, r.points), r.winner)
            for r in report.trace
        ]
        shrinking = all(a > b for a, b in zip(sums, sums[1:]))
        contained = metric is Metric.L1 or (
            report.point is not None and ball_containment(profile, report.point)
        )
        ok = (
            report.outcome is Outcome.CONVERGED
            and report.moving_iterations <= (bound.iterations or 0)
            and shrinking
            and contained
        )
        rows.append(
            CheckRow(
                "mean-convergence",
                name,
                seed,
                ok,
                f"{report.outcome.value}/{report.moving_iterations}"
                f"/shrinking={shrinking}/contained={contained}",
                f"converged/<={bound.iterations}/shrinking=True/contained=True",
            )
        )
    return rows


_POTENTIAL_RULES = (
    VotingRule.PLURALITY,
    VotingRule.BORDA,
    VotingRule.COPELAND,
    VotingRule.STV,
)


def _check_potential(seed: int, winner: Optional[WinnerFn]) -> list[CheckRow]:
    m = 3 + seed % 3
    n = 2 + (seed * 3) % 6
    order = _identity(m)
    space = SpaceSpec(Family.RANKING, Metric.SWAP, num_candidates=m)
    profile = generate(GeneratorSpec(space, n=n, seed=seed * 31 + 5))
    rows = []
    for kind in _POTENTIAL_RULES:
        config = EngineConfig(
            space, RuleSpec(kind, order), PolicySpec(), epsilon=1.0, max_iters=2000
        )
        report = run(profile, config, winner)
        if kind is VotingRule.STV:
            vectors = [
                potential_stv(Profile.of_checked(space, r.points), order) for r in report.trace
            ]
            expected = Comparison.LESS
        else:
            vectors = [
                potential_scoring(Profile.of_checked(space, r.points), kind, order)
                for r in report.trace
            ]
            expected = Comparison.GREATER
        steps = [
            lex_compare(b, a)
            for a, b, rec in zip(vectors, vectors[1:], report.trace)
            if any(rec.moved)
        ]
        monotone = all(s is expected for s in steps)
        ok = report.outcome is Outcome.CONVERGED and monotone
        rows.append(
            CheckRow(
                "potential",
                kind.value,
                seed,
                ok,
                f"{report.outcome.value}/monotone={monotone}",
                f"converged/monotone=True ({expected.value} each moving step)",
            )
        )
    return rows


_SWF_TIMING_RULES = (VotingRule.BORDA, VotingRule.COPELAND, VotingRule.KEMENY)


def swf_timing_parameters(seed: int) -> tuple[int, int, VotingRule]:
    """(m, epsilon, rule) for a full-length ranking run.

    The step size must be at least 2 and must not leave a remainder of 1:
    a one-candidate prefix has nowhere to go but the winner's own order,
    which would finish one iteration early.
    """
    epsilon = 2 + seed % 2
    m = 4 + seed % 4
    while m % epsilon == 1:
        m += 1
    return m, epsilon, _SWF_TIMING_RULES[seed % len(_SWF_TIMING_RULES)]


def _check_first_changed(seed: int, winner: Optional[WinnerFn]) -> list[CheckRow]:
    relaxed = PolicySpec(constraint_mode=ConstraintMode.APPROACH_ONLY)
    m_vnw, epsilon_vnw = 4 + seed % 6, 1 + seed % 3
    m_swf, epsilon_swf, kind = swf_timing_parameters(seed)
    cases = (
        (
            f"vnw-majority m={m_vnw} eps={epsilon_vnw}",
            worst_case_vnw(m_vnw, 1 + seed % 3, seed * 31 + 6),
            RuleSpec(VotingRule.MAJORITY),
            epsilon_vnw,
        ),
        (
            f"swf-{kind.value} m={m_swf} eps={epsilon_swf}",
            worst_case_swf(m_swf, kind, seed * 31 + 7),
            RuleSpec(kind, _identity(m_swf)),
            epsilon_swf,
        ),
    )
    rows = []
    for name, profile, rule, epsilon in cases:
        config = EngineConfig(profile.spec, rule, relaxed, epsilon=float(epsilon))
        report = run(profile, config, winner)
        predicted = math.ceil(profile.spec.num_candidates / epsilon)
        ok = report.outcome is Outcome.CONVERGED and report.moving_iterations == predicted
        rows.append(
            CheckRow(
                "first-changed-timing",
                name,
                seed,
                ok,
                f"{report.outcome.value}/{report.moving_iterations}",
                f"converged/{predicted}",
            )
        )
    return rows


def _check_kemeny_oracle(seed: int, winner: Optional[WinnerFn]) -> list[CheckRow]:
    m = 3 + seed % 3
    n = 1 + (seed * 5) % 7
    space = SpaceSpec(Family.RANKING, Metric.SWAP, num_candidates=m)
    profile = generate(GeneratorSpec(space, n=n, seed=seed * 31 + 8))
    order = _identity(m)
    fast = (winner or rules_mod.winner)(RuleSpec(VotingRule.KEMENY, order), profile)
    slow = kemeny_bruteforce(profile, order)
    ok = fast.ranking == slow.ranking
    return [
        CheckRow(
            "kemeny-oracle",
            f"m={m} n={n}",
            seed,
            ok,
            str(list(fast.ranking)),
            str(list(slow.ranking)),
        )
    ]


_CHECK_RUNNERS: dict[str, Callable[[int, Optional[WinnerFn]], list[CheckRow]]] = {
    "exact-count": _check_exact_count,
    "mean-convergence": _check_mean,
    "potential": _check_potential,
    "first-changed-timing": _check_first_changed,
    "kemeny-oracle": _check_kemeny_oracle,
}

CHECK_NAMES = tuple(_CHECK_RUNNERS)


def _corrupted_winner(rule: RuleSpec, profile: Profile) -> Point:
    """``rules.winner`` with the top two of every Kemeny ranking swapped."""
    honest = rules_mod.winner(rule, profile)
    if rule.rule is VotingRule.KEMENY and len(honest.ranking) >= 2:
        seq = list(honest.ranking)
        seq[0], seq[1] = seq[1], seq[0]
        return Point.of_ranking(seq)
    return honest


def run_verification(
    seeds: Sequence[int] = range(5),
    checks: Optional[Sequence[str]] = None,
    corrupt: bool = False,
) -> list[CheckRow]:
    """All check rows for the given seeds; every row independent."""
    names = tuple(checks) if checks is not None else CHECK_NAMES
    unknown = set(names) - set(CHECK_NAMES)
    if unknown:
        raise ConfigurationError(
            f"unknown checks: {', '.join(sorted(unknown))}; "
            f"available: {', '.join(CHECK_NAMES)}"
        )
    if not seeds:
        raise ConfigurationError("verification needs at least one seed")
    winner = _corrupted_winner if corrupt else None
    rows = []
    for name in names:
        for seed in seeds:
            rows.extend(_CHECK_RUNNERS[name](seed, winner))
    return rows
