"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately written against the definitions, not the
package internals: graph search instead of pair counting, determinant
geometry instead of least squares, and so on.  Values frozen from these
functions guard the real implementations against drift.
"""

import itertools
import json
import math
from collections import deque

from delibsim import (
    ConfigurationError,
    Family,
    IterationRecord,
    Metric,
    MovePolicy,
    Outcome,
    Point,
    RunReport,
    SpaceSpec,
    dist,
    is_consensus,
    point_to_json,
    step,
    winner,
)
from delibsim.engine import CAP_MULTIPLIER, DEFAULT_MAX_ITERS
from delibsim.spaces import EUCLIDEAN_EQ_TOL


def euclidean(metric: Metric, dim: int, lattice: bool = False) -> SpaceSpec:
    return SpaceSpec(Family.EUCLIDEAN, metric, dimension=dim, integer_lattice=lattice)


def binary(metric: Metric, m: int, k=None) -> SpaceSpec:
    return SpaceSpec(Family.BINARY, metric, num_candidates=m, committee_size=k)


def ranking_space(metric: Metric, m: int) -> SpaceSpec:
    return SpaceSpec(Family.RANKING, metric, num_candidates=m)


def lost_step(agent: int, distance: float, epsilon: float = 1.0, iteration: int = 0) -> str:
    """The text of the error for an idle profile that is no consensus."""
    return (f"agent {agent} at iteration {iteration}: the step of {epsilon} toward the "
            f"winner, {distance} away, was lost: nobody moved by more than the tolerance, "
            "but the profile is no consensus")


def bfs_swap_distance(a, b) -> int:
    """Shortest path between two rankings in the adjacent-transposition graph."""
    a, b = tuple(a), tuple(b)
    if a == b:
        return 0
    seen = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        steps = seen[cur]
        for i in range(len(cur) - 1):
            nxt = list(cur)
            nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
            nxt = tuple(nxt)
            if nxt == b:
                return steps + 1
            if nxt not in seen:
                seen[nxt] = steps + 1
                queue.append(nxt)
    raise AssertionError("permutation graph is connected; unreachable")


def suffix_disagreement(a, b) -> int:
    """Length minus the longest common suffix of two equal-length sequences."""
    m = len(a)
    shared = 0
    while shared < m and a[m - 1 - shared] == b[m - 1 - shared]:
        shared += 1
    return m - shared


def _circumcircle_2d(p1, p2, p3):
    """Circumcenter by perpendicular-bisector determinants; None if collinear."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    d = 2.0 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))
    if abs(d) < 1e-12:
        return None
    s1, s2, s3 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3
    ux = (s1 * (y2 - y3) + s2 * (y3 - y1) + s3 * (y1 - y2)) / d
    uy = (s1 * (x3 - x2) + s2 * (x1 - x3) + s3 * (x2 - x1)) / d
    return (ux, uy)


def brute_min_ball_2d(points):
    """Exact minimum enclosing circle of 2D points, by exhaustive boundary subsets.

    The optimum is determined by two diametral points or three concyclic
    ones, so trying every pair and triple and keeping the smallest circle
    that still covers everything is exact (if slow).  Returns (center, diameter).
    """
    pts = [tuple(map(float, p)) for p in points]
    if len(pts) == 1:
        return pts[0], 0.0
    best = None
    candidates = []
    for p, q in itertools.combinations(pts, 2):
        center = ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)
        candidates.append((center, math.dist(center, p)))
    for p, q, r in itertools.combinations(pts, 3):
        center = _circumcircle_2d(p, q, r)
        if center is not None:
            candidates.append((center, math.dist(center, p)))
    for center, radius in candidates:
        if all(math.dist(center, p) <= radius + 1e-9 for p in pts):
            if best is None or radius < best[1]:
                best = (center, radius)
    assert best is not None
    return best[0], 2.0 * best[1]


def all_rankings(m: int):
    return [Point.of_ranking(p) for p in itertools.permutations(range(m))]


def kendall_tau(a, b) -> int:
    """Discordant-pair count, summed the slow explicit way."""
    m = len(a)
    pos_a = {c: i for i, c in enumerate(a)}
    pos_b = {c: i for i, c in enumerate(b)}
    count = 0
    for x in range(m):
        for y in range(x + 1, m):
            if (pos_a[x] - pos_a[y]) * (pos_b[x] - pos_b[y]) < 0:
                count += 1
    return count


def reference_run(initial, config):
    """``engine.run`` rebuilt from the public per-agent ``step``.

    The same budget, outcome, cycle and growth rules as ``run``, written
    out again so that a run on the array path can be compared with what
    iterating ``step`` gives.  Returns a ``RunReport``.
    """
    space = config.space

    def observe(profile, index):
        w = winner(config.rule, profile)
        distances = tuple(dist(space, p, w) for p in profile.points)
        return IterationRecord(index, profile.points, w, distances)

    def default_budget(distances):
        far = max(distances)
        if far <= EUCLIDEAN_EQ_TOL:
            return DEFAULT_MAX_ITERS
        if not math.isfinite(far / config.epsilon):
            raise ConfigurationError(
                f"the farthest agent is {far} from the winner, too far to size the default "
                "iteration budget; set max_iters"
            )
        return max(1, CAP_MULTIPLIER * math.ceil(far / config.epsilon))

    max_iters = config.max_iters
    mover = MovePolicy(space, config.policy)
    cycles = space.family is not Family.EUCLIDEAN
    seen = {}
    trace = []
    profile = initial
    outcome, point, period, first = Outcome.CAP_REACHED, None, None, None
    j = 0
    while max_iters is None or j < max_iters:
        if cycles:
            seen[tuple(p.values for p in profile.points)] = j
        nxt, record = step(profile, config, policy=mover, iteration=j)
        trace.append(record)
        if max_iters is None:  # sized once iteration 0 has been stepped
            max_iters = default_budget(record.distances)
        if not any(record.moved):
            outcome, point = Outcome.CONVERGED, record.winner
            break
        profile = nxt
        key = tuple(p.values for p in profile.points)
        if cycles and key in seen:
            outcome, first = Outcome.CYCLE, seen[key]
            period = j + 1 - first
            trace.append(observe(profile, j + 1))
            break
        j += 1
    else:
        trace.append(observe(profile, max_iters))
        if is_consensus(profile):
            outcome, point = Outcome.CONVERGED, trace[-1].winner
    growth = None
    if outcome is Outcome.CAP_REACHED:
        window = trace[-(config.growth_window + 1):]
        drift = [dist(space, r.winner, trace[0].winner) for r in window]
        growth = len(trace) > config.growth_window and all(
            a < b for a, b in zip(drift, drift[1:])
        )
    return RunReport(
        outcome=outcome,
        point=point,
        moving_iterations=sum(1 for r in trace if r.moved and any(r.moved)),
        states=len(trace),
        trace=tuple(trace),
        cycle_period=period,
        cycle_first_index=first,
        growth_detected=growth,
    )


def reference_jsonl(report, space) -> str:
    """The JSONL trace of ``report``: each record serialized on its own with
    ``json.dumps``, its points read through ``record.points`` and
    ``point_to_json``, as the trace format defines it."""
    lines = []
    for r in report.trace:
        row = {
            "index": r.index,
            "points": [point_to_json(space, p) for p in r.points],
            "winner": point_to_json(space, r.winner),
            "distances": list(r.distances),
            "moved": list(r.moved) if r.moved is not None else None,
        }
        lines.append(json.dumps(row) + "\n")
    return "".join(lines)
