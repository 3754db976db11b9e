"""The benchmark's workloads: inputs made from a seed, timed operations, and the gate.

Every workload is a fixed list of operations run back to back (a closed
loop: each starts when the previous one returns).  An operation is one
deliberation run, one ``run_verification`` call (one attempt per verify
row) or one ``reproduce`` through the CLI.  ``execute`` is the timed part;
``judge`` checks the output against the paper's invariants and, at the
default seed, against goldens recorded at the seed commit.

Why these two (README.md has the layer-by-layer predictions):

* crowd: large n with cheap rules, so per-agent work in spaces, policies and
  engine dominates, and each run writes its JSONL trace as ``run --out`` does;
* audit: about 280 tiny runs behind ``verify`` plus one 8001-state scripted
  replay, so per-run fixed costs and the analysis oracles show.

delibsim is reached only through module attributes at call time, so the
tracer's replacements are the functions that run.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from typing import Optional

DEFAULT_SEED = 0
EPSILON = 1.0

VERIFY_SEEDS = 20
#: Every parameter of a verify row is its seed modulo one of 2..7, 10 or 12,
#: so the parameters repeat with period 420.  Shifting the window by whole
#: periods keeps the mix of configurations (and the one expensive m=8 Kemeny
#: timing row) identical across workload seeds; only the random profiles
#: differ.  A shift by the bare seed would hold one or two such rows.
VERIFY_PERIOD = 420
REPLAY_ARGV = ("reproduce", "example3", "--iterations", "8000")
REPLAY_LAST_LINE = "example3: ok"
REPLAY_FINAL_WINNER = "iteration 8000: winner (8000.0, 8000.0, 8000.0)"
REPLAY_OUTCOME = "outcome: cap_reached after 8000 iterations, growth_detected=True"

#: tolerance for real-valued goldens (summation order may change)
REAL_TOL = 1e-9


@dataclass
class Verdict:
    attempted: int
    failed: int
    misses: list[str]
    #: the fields goldens hold; equal across passes of one process
    record: dict = field(default_factory=dict)


def _same(got, want) -> bool:
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_same(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(got, (int, float))
            and not isinstance(got, bool)
            and math.isclose(got, want, rel_tol=REAL_TOL, abs_tol=REAL_TOL)
        )
    return got == want


def field_misses(got: dict, want: Optional[dict]) -> list[str]:
    """The golden fields that ``got`` does not reproduce."""
    return [
        f"{name} = {got.get(name)!r}, golden {expected!r}"
        for name, expected in (want or {}).items()
        if not _same(got.get(name), expected)
    ]


class RunOp:
    """One deliberation run from a generated profile at step size 1."""

    def __init__(self, name: str, space, rule, n: int, gen_seed: int, bound: str, jsonl: bool):
        self.name = name
        self.space = space
        self.rule = rule
        self.n = n
        self.gen_seed = gen_seed
        #: the iteration_bound kind the paper gives this rule: exact, cap or none
        self.bound_kind = bound
        self.jsonl = jsonl
        self._bound = None

    def build(self, ds) -> None:
        self.profile = ds.generate(ds.GeneratorSpec(self.space, n=self.n, seed=self.gen_seed))
        self.config = ds.EngineConfig(self.space, self.rule, epsilon=EPSILON)

    def execute(self, ds):
        report = ds.run(self.profile, self.config)
        if self.jsonl:
            ds.write_trace_jsonl(report, self.space, io.StringIO())
        return report

    def failure_attempts(self, golden: Optional[dict]) -> int:
        return 1

    def judge(self, ds, report, golden: Optional[dict]) -> Verdict:
        misses = []
        if report.outcome is not ds.Outcome.CONVERGED:
            misses.append(f"outcome {report.outcome.value}, expected converged")
        final = ds.Profile(self.space, report.trace[-1].points)
        if report.outcome is ds.Outcome.CONVERGED and not ds.is_consensus(final):
            misses.append("converged without a consensus")
        if self._bound is None:
            self._bound = ds.iteration_bound(self.space, self.rule, self.profile, EPSILON)
        bound = self._bound
        if bound.kind.value != self.bound_kind:
            misses.append(f"iteration_bound is {bound.kind.value}, expected {self.bound_kind}")
        elif bound.kind.value == "exact" and report.moving_iterations != bound.iterations:
            misses.append(f"{report.moving_iterations} moving iterations, exact bound {bound.iterations}")
        elif bound.kind.value == "cap" and report.moving_iterations > bound.iterations:
            misses.append(f"{report.moving_iterations} moving iterations, cap {bound.iterations}")
        winner = report.point if report.point is not None else report.trace[-1].winner
        record = {
            "outcome": report.outcome.value,
            "moving_iterations": report.moving_iterations,
            "states": report.states,
            "winner": list(winner.values),
        }
        misses.extend(field_misses(record, golden))
        misses = [f"{self.name}: {m}" for m in misses]
        return Verdict(1, 1 if misses else 0, misses, record)


class VerifyOp:
    """``run_verification`` over 20 seeds; each row is one attempt."""

    name = "verify"

    def __init__(self, seed: int):
        start = VERIFY_PERIOD * seed
        self.seeds = range(start, start + VERIFY_SEEDS)

    def build(self, ds) -> None:
        pass

    def execute(self, ds):
        return ds.verification.run_verification(seeds=self.seeds)

    def failure_attempts(self, golden: Optional[dict]) -> int:
        return max(1, len(golden or ()))

    def judge(self, ds, rows, golden: Optional[dict]) -> Verdict:
        record = {
            f"{r.check}|{r.configuration}|{r.seed}": {
                "passed": r.passed,
                "observed": r.observed,
                "predicted": r.predicted,
            }
            for r in rows
        }
        misses = []
        bad_cases = set()
        for case, expected in (golden or {}).items():
            bad = ["missing"] if case not in record else field_misses(record[case], expected)
            if bad:
                bad_cases.add(case)
                misses.extend(f"{self.name} {case}: {m}" for m in bad)
        for case, fields in record.items():
            if not fields["passed"]:
                bad_cases.add(case)
                misses.append(
                    f"{self.name} {case}: row failed ({fields['observed']} vs {fields['predicted']})"
                )
        extra = len(bad_cases - set(record))
        return Verdict(len(record) + extra, len(bad_cases), misses, record)


class ReplayOp:
    """``delibsim reproduce example3 --iterations 8000`` through ``cli.main``."""

    name = "replay-example3"

    def build(self, ds) -> None:
        pass

    def execute(self, ds):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ds.cli.main(list(REPLAY_ARGV))
        return code, out.getvalue(), err.getvalue()

    def failure_attempts(self, golden: Optional[dict]) -> int:
        return 1

    def judge(self, ds, output, golden: Optional[dict]) -> Verdict:
        code, out, err = output
        lines = out.splitlines()
        misses = []
        if code != 0:
            misses.append(f"exit code {code}: {err.strip()}")
        if not lines or lines[-1] != REPLAY_LAST_LINE:
            misses.append(f"last line {lines[-1] if lines else None!r}, expected {REPLAY_LAST_LINE!r}")
        for expected in (REPLAY_FINAL_WINNER, REPLAY_OUTCOME):
            if expected not in lines:
                misses.append(f"missing line {expected!r}")
        record = {"exit_code": code, "stdout": out}
        misses.extend(field_misses(record, golden))
        misses = [f"{self.name}: {m}" for m in misses]
        return Verdict(1, 1 if misses else 0, misses, record)


# Crowd sizes are scaled so the three families take comparable shares of a
# pass; a regression in one family then cannot hide behind another.
CROWD_MEAN_N = 5000
CROWD_MEDIAN_N = 1000
CROWD_MAJORITY_N = 400


def build_ops(ds, workload: str, seed: int) -> list:
    """The workload's operations, inputs drawn from ``seed`` but not yet generated."""
    Family, Metric, VotingRule = ds.Family, ds.Metric, ds.VotingRule
    SpaceSpec, RuleSpec = ds.SpaceSpec, ds.RuleSpec

    def gen_seed(i: int) -> int:
        return seed * 100 + i

    if workload == "crowd":
        cases = [
            ("mean-l2", SpaceSpec(Family.EUCLIDEAN, Metric.L2, dimension=2),
             RuleSpec(VotingRule.MEAN), CROWD_MEAN_N, "cap"),
            ("median-l1", SpaceSpec(Family.EUCLIDEAN, Metric.L1, dimension=10),
             RuleSpec(VotingRule.MEDIAN), CROWD_MEDIAN_N, "exact"),
            ("majority-hamming", SpaceSpec(Family.BINARY, Metric.HAMMING, num_candidates=64),
             RuleSpec(VotingRule.MAJORITY), CROWD_MAJORITY_N, "exact"),
        ]
        return [
            RunOp(name, space, rule, n, gen_seed(i), bound, jsonl=True)
            for i, (name, space, rule, n, bound) in enumerate(cases)
        ]
    if workload == "audit":
        return [VerifyOp(seed), ReplayOp()]
    raise ValueError(f"unknown workload {workload!r}")

