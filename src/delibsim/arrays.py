"""Array kernels for the engine's array path.

A state is one array per iteration: ``(n, d)`` float64 rows for real
vectors, ``(n, m)`` uint8 rows of 0/1 entries for ballots.  A scripted run
stacks its states as ``(T, n, d)``: ``winner`` takes the stack, and the
other kernels take its rows flattened to ``(T * n, d)`` with one winner row
per agent.  Every kernel computes what the per-agent code computes for each
row, with the same floating-point operations in the same order, so results
match it bit for bit:

* sums that the per-agent code takes with ``sum`` (taxicab distances, the
  straight-line norm inside ``move_l2``, the mean) go through ``sum`` here
  too, one row or column at a time, because numpy adds in another order and
  ``sum`` itself compensates from Python 3.12 on;
* Euclidean distances use ``math.hypot`` and the straight-line norm uses
  ``** 0.5``, which differs from ``np.sqrt`` in the last bit on some inputs;
* everything else (differences, scaling, clipping, comparisons, maxima,
  medians, counts) is exact elementwise work that numpy does in one pass;
  tolerance comparisons go through ``spaces.differs`` and ``spaces.exceeds``,
  the functions the per-agent code uses.

Which configurations take this path is decided in ``engine.run``.  The
trace writer reads states through ``to_json`` (ballots) and ``StateJson``
(real vectors), which give the bytes ``json.dumps`` gives.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .policies import ConstraintMode, L1Mode
from .rules import Profile, VotingRule
from .spaces import Family, Metric, Point, SpaceSpec, differs, exceeds

_BALLOT = np.uint8


def from_profile(profile: Profile) -> np.ndarray:
    """The state array of a profile."""
    if profile.spec.family is Family.BINARY:
        return np.array([p.bits for p in profile.points], dtype=_BALLOT)
    return np.array([p.real_vector for p in profile.points], dtype=np.float64)


def point(row: np.ndarray) -> Point:
    """The point one state row (or winner) stands for."""
    if row.dtype == _BALLOT:
        return Point.of_bits(row.tolist())
    return Point.reals(row.tolist())


def points(state: np.ndarray) -> tuple[Point, ...]:
    """The points of every row, built anew on each call."""
    make = Point.of_bits if state.dtype == _BALLOT else Point.reals
    return tuple(make(row) for row in state.tolist())


def to_json(state: np.ndarray) -> list:
    """Each ballot row as ``point_to_json`` writes it: a 0/1 string."""
    m = state.shape[1]
    return (state + ord("0")).view(f"S{m}").ravel().astype(f"U{m}").tolist()


def _texts(bits: np.ndarray) -> np.ndarray:
    """The ``json.dumps`` text of each float64 bit pattern in ``bits`` (1-D int64).

    Each distinct pattern is formatted once.  Patterns, not values, are the
    key, so ``-0.0`` and ``0.0`` keep their own texts.
    """
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[inverse]


def floats_json(values) -> str:
    """``json.dumps`` of a sequence of floats."""
    bits = np.array(values, dtype=np.float64).view(np.int64)
    return "[" + ", ".join(_texts(bits).tolist()) + "]"


class StateJson:
    """``json.dumps`` of successive float64 states of one run, one at a time.

    Only the previous state's bit patterns and entry texts are kept.  An
    entry whose bit pattern equals the previous state's entry reuses its
    text; the others go through ``_texts``.  Between iterations most
    entries stay put, so most are never formatted again.
    """

    def __init__(self) -> None:
        self._bits: Optional[np.ndarray] = None
        self._texts: Optional[np.ndarray] = None

    def __call__(self, state: np.ndarray) -> str:
        bits = np.ascontiguousarray(state, dtype=np.float64).reshape(-1).view(np.int64)
        if self._bits is None or self._bits.shape != bits.shape:
            texts = _texts(bits)
        else:
            texts = self._texts.copy()
            fresh = np.flatnonzero(bits != self._bits)
            if len(fresh):
                texts[fresh] = _texts(bits[fresh])
        self._bits, self._texts = bits, texts
        rows = texts.reshape(state.shape).tolist()
        return "[[" + "], [".join(map(", ".join, rows)) + "]]"


def _sums(rows: np.ndarray) -> np.ndarray:
    """``sum`` of each row, as the per-agent code adds it."""
    return np.fromiter(map(sum, rows.tolist()), np.float64, len(rows))


def winner(rule: VotingRule, state: np.ndarray) -> np.ndarray:
    """The rule's winner as one row; same value as ``rules.winner``.

    Agents run along axis -2, so a stack of states, ``(T, n, d)``, gives
    one winner row per state, ``(T, d)``.
    """
    n = state.shape[-2]
    if rule is VotingRule.MAJORITY:
        return (2 * state.sum(axis=-2, dtype=np.int64) >= n).astype(_BALLOT)
    if rule is VotingRule.MEDIAN:
        return np.partition(state, n // 2, axis=-2)[..., n // 2, :]
    columns = np.swapaxes(state, -1, -2)
    mean = _sums(columns.reshape(-1, n)).reshape(columns.shape[:-1]) / n
    return np.floor(mean) if rule is VotingRule.FLOOR_MEAN else mean


def distances(space: SpaceSpec, state: np.ndarray, to: np.ndarray) -> np.ndarray:
    """``dist`` from each row of ``state`` to ``to`` (one row, or one row per agent)."""
    if space.family is Family.BINARY:
        return np.count_nonzero(state != to, axis=1)
    gaps = np.abs(state - to)
    if space.distance is Metric.L1:
        return _sums(gaps)
    if space.distance is Metric.L2:
        return np.fromiter(map(math.hypot, *gaps.T.tolist()), np.float64, len(state))
    return gaps.max(axis=1)


def move(
    space: SpaceSpec,
    l1_mode: L1Mode,
    state: np.ndarray,
    w: np.ndarray,
    d: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Every agent's default move toward ``w``; ``d`` holds the distances to it."""
    if space.family is Family.BINARY:
        # flip the first epsilon disagreements; within reach that is all of them
        disagree = state != w
        flip = disagree & (np.cumsum(disagree, axis=1) <= int(epsilon))
        return state ^ flip.astype(_BALLOT)
    gaps = w - state
    if space.distance is Metric.L2:
        norms = np.array([s ** 0.5 for s in map(sum, (gaps * gaps).tolist())])
    elif space.distance is Metric.LINF:
        norms = np.abs(gaps).max(axis=1)
    else:
        norms = d
    if space.distance is Metric.L1 and l1_mode is L1Mode.COORD_ORDER:
        # the budget left before each coordinate, spent in coordinate order;
        # it stays positive while whole gaps are taken and drops to zero or
        # below once one gap absorbs the rest
        size = np.abs(gaps)
        budget = np.subtract.accumulate(
            np.hstack([np.full((len(state), 1), float(epsilon)), size[:, :-1]]), axis=1
        )
        active = budget > 0
        steps = np.minimum(size, budget)
        stepped = np.where(active, state + np.where(gaps > 0, steps, -steps), state)
    else:
        stepped = state + (epsilon / np.where(norms > 0, norms, 1.0))[:, None] * gaps
    return np.where((norms <= epsilon)[:, None], w, stepped)


def failing(
    space: SpaceSpec,
    mode: ConstraintMode,
    before: np.ndarray,
    after: np.ndarray,
    w: np.ndarray,
    d_before: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Indices of the agents whose move leaves the space or breaks an active law.

    The same comparisons as ``check_constraints`` and ``validate_point``,
    on the same distances, ``d_before`` reused from before the move.
    """
    if space.family is Family.BINARY:
        bad = (after > 1).any(axis=1)
    else:
        bad = ~np.isfinite(after).all(axis=1)
        if space.integer_lattice:
            bad |= (after != np.floor(after)).any(axis=1)
    d_after = distances(space, after, w)
    target = np.maximum(0.0, d_before - epsilon)
    if mode is ConstraintMode.APPROACH_ONLY:
        bad |= exceeds(space, d_after, target)
        return np.flatnonzero(bad)
    shift = distances(space, before, after)
    bad |= differs(space, d_after, target)
    bad |= np.where(
        exceeds(space, d_after, 0), differs(space, shift, epsilon), exceeds(space, shift, epsilon)
    )
    return np.flatnonzero(bad)


def moved(space: SpaceSpec, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Per agent, whether it moved: ``not points_equal(before, after)``."""
    return differs(space, before, after).any(axis=1)
