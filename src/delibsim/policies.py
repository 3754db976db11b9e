"""Per-agent move generation under the two movement laws.

A move from v toward the winner w with step size epsilon must

* land exactly epsilon closer to w (or on w when already within reach), and
* displace the agent by exactly epsilon (any smaller displacement is fine
  once the agent reaches w).

A real-vector move's length is the distance the laws are stated in, the
one ``spaces.dist_lp`` gives (``move_real``).  ``check_constraints``
verifies both laws for a proposed move.  Under the deepest-disagreement
metric only a relaxed first law is checkable: suffix copying can overshoot
the target distance (rankings have no point at distance 1 from w, for
instance), so runs over that metric use ``ConstraintMode.APPROACH_ONLY``,
which accepts any sufficient approach.

Each space has a deterministic default policy; binary and ranking spaces
also offer seeded-random variants that pick uniformly among the eligible
minimal edits.  A scripted policy replays an explicit profile sequence and
is how the known divergence scenarios are driven.  A real-vector script is
held as one float64 array of shape ``(T + 1, n, d)``, state by state; a
script given as profiles of real-vector points is turned into that array
once, when the ``PolicySpec`` is built.  Ballot and ranking scripts, and
real-vector ones whose profiles differ in size, stay tuples of point
profiles.  No policy judges its own moves: the engine's referee checks
every move, scripted ones included.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError, InfeasibleStepError
from .spaces import (
    Family,
    Metric,
    Point,
    SpaceSpec,
    differs,
    dist,
    dist_first_changed,
    dist_hamming,
    dist_lp,
    dist_swap,
    exceeds,
)


class PolicyKind(str, Enum):
    DEFAULT = "default"
    SEEDED_RANDOM = "seeded_random"
    SCRIPTED = "scripted"


class L1Mode(str, Enum):
    COORD_ORDER = "coord_order"
    PROPORTIONAL = "proportional"


class ConstraintMode(str, Enum):
    STRICT = "strict"
    APPROACH_ONLY = "approach_only"


#: a script: one ``(T + 1, n, d)`` float64 array, or a tuple of point profiles
Script = Union[np.ndarray, tuple[tuple[Point, ...], ...]]


def _script_form(script) -> Script:
    """``script`` as one read-only float64 array when it is a stack of equal
    real-vector profiles, else as a tuple of point profiles.

    A read-only float64 array is kept as it is; any other array is copied.
    """
    if not isinstance(script, np.ndarray):
        script = tuple(tuple(profile) for profile in script)
        if not all(p.real_vector is not None for profile in script for p in profile):
            return script
        try:
            array = np.array([[p.real_vector for p in profile] for profile in script], np.float64)
        except ValueError:  # profiles or points of different sizes
            return script
        if array.ndim != 3:
            return script
    elif script.dtype != np.float64 or script.flags.writeable:
        array = np.array(script, dtype=np.float64)
    else:
        array = script
    if array.ndim != 3:
        raise ConfigurationError(
            f"a script array has shape (states, agents, dimension), got {array.shape}"
        )
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class PolicySpec:
    """How agents move: default, seeded-random, or scripted replay.

    Two specs are equal when every field is; array scripts compare bit for bit.
    """

    kind: PolicyKind = PolicyKind.DEFAULT
    seed: Optional[int] = None
    script: Optional[Script] = None
    l1_mode: L1Mode = L1Mode.COORD_ORDER
    constraint_mode: ConstraintMode = ConstraintMode.STRICT

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.SEEDED_RANDOM and self.seed is None:
            raise ConfigurationError("seeded_random policy needs a seed")
        if self.kind is PolicyKind.SCRIPTED:
            if self.script is None or len(self.script) == 0:
                raise ConfigurationError("scripted policy needs a script")
            object.__setattr__(self, "script", _script_form(self.script))

    def _key(self) -> tuple:
        script = self.script
        if isinstance(script, np.ndarray):
            script = (script.shape, script.tobytes())
        return (self.kind, self.seed, script, self.l1_mode, self.constraint_mode)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolicySpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def require_next_entry(script: Script, iteration: int) -> None:
    """Raise unless ``script`` holds the profile that follows ``iteration``."""
    if iteration + 1 >= len(script):
        raise ConfigurationError(
            f"script provides {len(script)} profiles, iteration {iteration} needs one more"
        )


def _as_step_count(epsilon: float) -> int:
    step = int(epsilon)
    if step != epsilon or step <= 0:
        raise ConfigurationError(f"discrete moves need a positive integer step, got {epsilon}")
    return step


def too_far_message(length: float, epsilon: float) -> str:
    """Why no step can be scaled toward a winner whose distance overflows to
    ``length``: the factor ``epsilon / length`` is 0, and an infinite gap
    times 0 is NaN."""
    return (f"the distance to the winner overflows to {length}, too far to scale a step "
            f"of {epsilon} toward it")


def move_real(
    space: SpaceSpec, v: Point, w: Point, epsilon: float, mode: L1Mode = L1Mode.COORD_ORDER
) -> Point:
    """Move ``epsilon`` toward ``w``, or onto it when within reach.

    The move's length is ``d = dist_lp(v, w)``.  A scaled move goes
    ``epsilon / d`` of each gap, along the straight line to ``w``: under l2
    that is the only point both laws allow, under l-inf and proportional l1
    one of them.  Coordinate-order l1 spends the step budget on the gaps in
    coordinate order instead.
    """
    d = dist_lp(space, v, w)
    if d <= epsilon:
        return w
    gaps = [b - a for a, b in zip(v.real_vector, w.real_vector)]
    if space.distance is Metric.L1 and mode is L1Mode.COORD_ORDER:
        out = list(v.real_vector)
        budget = epsilon
        for i, g in enumerate(gaps):
            if budget <= 0:
                break
            step = min(abs(g), budget)
            out[i] += step if g > 0 else -step
            budget -= step
        return Point.reals(out)
    if d == math.inf:
        raise InfeasibleStepError(too_far_message(d, epsilon))
    f = epsilon / d
    return Point.reals(a + f * g for a, g in zip(v.real_vector, gaps))


def move_hamming(
    space: SpaceSpec,
    v: Point,
    w: Point,
    epsilon: float,
    rng: Optional[random.Random] = None,
) -> Point:
    """Flip epsilon disagreeing entries toward w.

    Committee ballots must keep their size, so they move by paired
    exchanges (one approval dropped, one gained); an odd step size is
    infeasible there.  The default picks the lowest-index candidates; a
    seeded rng picks uniformly instead.
    """
    step = _as_step_count(epsilon)
    committee = space.committee_size is not None
    if committee and step % 2 != 0:
        raise InfeasibleStepError(
            f"committee ballots change an even number of entries per move; step {step} is odd"
        )
    d = dist_hamming(space, v, w)
    if d <= step:
        return w
    bits = list(v.bits)
    if not committee:
        disagree = [i for i, (a, b) in enumerate(zip(v.bits, w.bits)) if a != b]
        chosen = sorted(rng.sample(disagree, step)) if rng else disagree[:step]
        for i in chosen:
            bits[i] = 1 - bits[i]
        return Point.of_bits(bits)
    drops = [i for i, (a, b) in enumerate(zip(v.bits, w.bits)) if a == 1 and b == 0]
    adds = [i for i, (a, b) in enumerate(zip(v.bits, w.bits)) if a == 0 and b == 1]
    pairs = step // 2
    chosen_drops = sorted(rng.sample(drops, pairs)) if rng else drops[:pairs]
    chosen_adds = sorted(rng.sample(adds, pairs)) if rng else adds[:pairs]
    for i in chosen_drops:
        bits[i] = 0
    for i in chosen_adds:
        bits[i] = 1
    return Point.of_bits(bits)


def move_swap(
    space: SpaceSpec,
    v: Point,
    w: Point,
    epsilon: float,
    rng: Optional[random.Random] = None,
) -> Point:
    """Perform epsilon adjacent transpositions toward w.

    Each transposition swaps an adjacent pair the agent orders oppositely
    to w, so each reduces the swap distance by exactly one.  The default
    always takes the leftmost eligible pair; a seeded rng picks uniformly.
    """
    step = _as_step_count(epsilon)
    d = dist_swap(space, v, w)
    if d <= step:
        return w
    wpos = {c: i for i, c in enumerate(w.ranking)}
    seq = list(v.ranking)
    for _ in range(step):
        eligible = [i for i in range(len(seq) - 1) if wpos[seq[i]] > wpos[seq[i + 1]]]
        i = rng.choice(eligible) if rng else eligible[0]
        seq[i], seq[i + 1] = seq[i + 1], seq[i]
    return Point.of_ranking(seq)


def move_first_changed(space: SpaceSpec, v: Point, w: Point, epsilon: float) -> Point:
    """Adopt w's entries on the window just below the current agreement suffix.

    Under the deepest-disagreement metric the only way to approach w is to
    extend the shared suffix, so the agent copies w's entries at positions
    [d - epsilon, d).  Rankings keep the displaced candidates in the agent's
    own relative order in the prefix; committee ballots repair their size by
    flipping the lowest-index prefix entries that help.
    """
    step = _as_step_count(epsilon)
    d = dist_first_changed(space, v, w)
    if d <= step:
        return w
    start = d - step
    if space.family is Family.BINARY:
        bits = list(v.bits[:start]) + list(w.bits[start:])
        if space.committee_size is not None:
            k = space.committee_size
            excess = sum(bits) - k
            for i in range(start):
                if excess == 0:
                    break
                if excess > 0 and bits[i] == 1:
                    bits[i] = 0
                    excess -= 1
                elif excess < 0 and bits[i] == 0:
                    bits[i] = 1
                    excess += 1
            if excess != 0:
                raise InfeasibleStepError(
                    f"cannot restore committee size {k} by adjusting the first {start} entries"
                )
        return Point.of_bits(bits)
    suffix = w.ranking[start:]
    taken = set(suffix)
    prefix = [c for c in v.ranking if c not in taken]
    return Point.of_ranking(prefix + list(suffix))


def check_constraints(
    space: SpaceSpec,
    before: Point,
    after: Point,
    winner: Point,
    epsilon: float,
    mode: ConstraintMode = ConstraintMode.STRICT,
    *,
    d_before: Optional[float] = None,
) -> Optional[str]:
    """Return None if the move obeys the active laws, else a description.

    Never raises for a bad move; the description carries the numbers.
    Comparisons go through ``spaces.differs`` and ``spaces.exceeds``, which
    own the tolerance.  ``d_before`` is d(before, winner) when the caller
    already has it; None computes it here.
    """
    if d_before is None:
        d_before = dist(space, before, winner)
    d_after = dist(space, after, winner)
    target = max(0.0, d_before - epsilon)
    if mode is ConstraintMode.APPROACH_ONLY:
        if exceeds(space, d_after, target):
            return (
                f"approach law violated: distance to winner is {d_after}, "
                f"needed at most {target} (excess {d_after - target})"
            )
        return None
    if differs(space, d_after, target):
        return (
            f"approach law violated: distance to winner is {d_after}, "
            f"expected exactly {target} (off by {abs(d_after - target)})"
        )
    moved = dist(space, before, after)
    if not exceeds(space, d_after, 0):
        if exceeds(space, moved, epsilon):
            return (
                f"displacement law violated: moved {moved}, "
                f"allowed at most {epsilon} when landing on the winner"
            )
    elif differs(space, moved, epsilon):
        return f"displacement law violated: moved {moved}, expected exactly {epsilon}"
    return None


class MovePolicy:
    """Bound policy for one run: produces every agent's move, deterministically.

    Seeded-random choices derive an rng per (iteration, agent), so moves
    within an iteration are order-independent.
    """

    def __init__(self, space: SpaceSpec, spec: PolicySpec):
        self.space = space
        self.spec = spec

    def _rng(self, iteration: int, agent: int) -> Optional[random.Random]:
        if self.spec.kind is not PolicyKind.SEEDED_RANDOM:
            return None
        mix = (self.spec.seed * 1_000_003 + iteration) * 1_000_003 + agent
        return random.Random(mix)

    def move(self, v: Point, w: Point, epsilon: float, iteration: int, agent: int) -> Point:
        """``agent``'s next point; an infeasible step raises with the agent and iteration named."""
        if self.spec.kind is PolicyKind.SCRIPTED:
            return self._scripted(iteration, agent)
        try:
            return self._default(v, w, epsilon, iteration, agent)
        except InfeasibleStepError as exc:
            raise InfeasibleStepError(f"agent {agent} at iteration {iteration}: {exc}") from None

    def _default(self, v: Point, w: Point, epsilon: float, iteration: int, agent: int) -> Point:
        space = self.space
        rng = self._rng(iteration, agent)
        if space.distance is Metric.FIRST_CHANGED:
            return move_first_changed(space, v, w, epsilon)
        if space.family is Family.EUCLIDEAN:
            return move_real(space, v, w, epsilon, self.spec.l1_mode)
        if space.family is Family.BINARY:
            return move_hamming(space, v, w, epsilon, rng)
        return move_swap(space, v, w, epsilon, rng)

    def _scripted(self, iteration: int, agent: int) -> Point:
        """The script's next point for ``agent``; the engine's referee judges the move."""
        script = self.spec.script
        require_next_entry(script, iteration)
        if isinstance(script, np.ndarray):
            return Point.reals(script[iteration + 1, agent].tolist())
        return script[iteration + 1][agent]
