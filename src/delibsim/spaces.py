"""Opinion spaces: point families, distance functions, validity checks.

Three families of positions are supported: real vectors, binary ballots
(0/1 approval vectors, optionally constrained to a fixed committee size),
and rankings (permutations of candidate indices).  Every type here is an
immutable value and every function is pure.

A point is validated once, where it enters the program: ``Profile`` and
``point_from_json`` check theirs, ``EngineConfig`` checks a script's points
and the engine's referee checks each proposed move.  ``SpaceSpec`` matches
the metric to the family when it is built.  So the distance functions take
valid points of their space, under its metric, and check neither again.
``point_from_json`` reads an array entry only as the number it is: a
boolean is refused everywhere, and a fraction in a ballot or ranking, not
truncated.

This module owns the tolerance: every comparison of coordinates, distances
or step lengths goes through ``differs`` and ``exceeds``, which take Python
numbers and numpy arrays alike.  Real values within ``EUCLIDEAN_EQ_TOL``
count as equal; discrete ones compare exactly.  It also owns the summation
rule: ``total`` adds left to right from 0, with no compensation, so a sum
gives the same bits on every Python version and on the array path.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterable, Optional, Sequence, Union

from .errors import ConfigurationError, InvalidPointError

#: absolute tolerance for real values: coordinates, distances and step lengths
EUCLIDEAN_EQ_TOL = 1e-9


class Family(str, Enum):
    EUCLIDEAN = "euclidean"
    BINARY = "binary"
    RANKING = "ranking"


class Metric(str, Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"
    HAMMING = "hamming"
    FIRST_CHANGED = "first_changed"
    SWAP = "swap"


_COMPATIBLE = {
    Family.EUCLIDEAN: frozenset({Metric.L1, Metric.L2, Metric.LINF}),
    Family.BINARY: frozenset({Metric.HAMMING, Metric.FIRST_CHANGED}),
    Family.RANKING: frozenset({Metric.SWAP, Metric.FIRST_CHANGED}),
}


@dataclass(frozen=True)
class SpaceSpec:
    """Declarative description of one opinion space.

    Exactly one size field applies per family: ``dimension`` for real
    vectors, ``num_candidates`` for ballots and rankings.  ``committee_size``
    restricts binary ballots to exactly-k approvals.  ``integer_lattice``
    marks a real-vector space whose points must have integral coordinates.
    """

    family: Family
    distance: Metric
    dimension: Optional[int] = None
    num_candidates: Optional[int] = None
    committee_size: Optional[int] = None
    integer_lattice: bool = False

    def __post_init__(self) -> None:
        if self.distance not in _COMPATIBLE[self.family]:
            raise ConfigurationError(
                f"distance {self.distance.value} is not defined on {self.family.value} spaces"
            )
        if self.family is Family.EUCLIDEAN:
            if self.dimension is None or self.dimension < 1:
                raise ConfigurationError("euclidean spaces need dimension >= 1")
            if self.num_candidates is not None or self.committee_size is not None:
                raise ConfigurationError("candidate counts do not apply to euclidean spaces")
        else:
            if self.num_candidates is None or self.num_candidates < 1:
                raise ConfigurationError(f"{self.family.value} spaces need num_candidates >= 1")
            if self.dimension is not None:
                raise ConfigurationError("dimension applies only to euclidean spaces")
            if self.integer_lattice:
                raise ConfigurationError("integer_lattice applies only to euclidean spaces")
            if self.committee_size is not None:
                if self.family is not Family.BINARY:
                    raise ConfigurationError("committee_size applies only to binary spaces")
                if not 1 <= self.committee_size <= self.num_candidates:
                    raise ConfigurationError(
                        "committee_size must lie between 1 and num_candidates"
                    )


@dataclass(frozen=True)
class Point:
    """One position: exactly one of the three payload fields is set."""

    real_vector: Optional[tuple[float, ...]] = None
    bits: Optional[tuple[int, ...]] = None
    ranking: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        payloads = [p for p in (self.real_vector, self.bits, self.ranking) if p is not None]
        if len(payloads) != 1:
            raise InvalidPointError("a point holds exactly one of real_vector, bits, ranking")
        if self.real_vector is not None:
            object.__setattr__(self, "real_vector", tuple(float(x) for x in self.real_vector))
        elif self.bits is not None:
            object.__setattr__(self, "bits", tuple(int(x) for x in self.bits))
        else:
            object.__setattr__(self, "ranking", tuple(int(x) for x in self.ranking))

    @classmethod
    def reals(cls, values: Iterable[float]) -> "Point":
        return cls(real_vector=tuple(values))

    @classmethod
    def of_bits(cls, values: Union[str, Iterable[int]]) -> "Point":
        if isinstance(values, str):
            values = [int(ch) for ch in values]
        return cls(bits=tuple(values))

    @classmethod
    def of_ranking(cls, values: Iterable[int]) -> "Point":
        return cls(ranking=tuple(values))

    @property
    def family(self) -> Family:
        if self.real_vector is not None:
            return Family.EUCLIDEAN
        if self.bits is not None:
            return Family.BINARY
        return Family.RANKING

    @property
    def values(self) -> tuple:
        if self.real_vector is not None:
            return self.real_vector
        if self.bits is not None:
            return self.bits
        return self.ranking


def validate_point(space: SpaceSpec, point: Point) -> Optional[str]:
    """Return None if ``point`` belongs to ``space``, else the first violation found."""
    if point.family is not space.family:
        return f"point family {point.family.value} does not match space family {space.family.value}"
    if space.family is Family.EUCLIDEAN:
        vec = point.real_vector
        if len(vec) != space.dimension:
            return f"expected {space.dimension} coordinates, got {len(vec)}"
        for i, x in enumerate(vec):
            if not math.isfinite(x):
                return f"coordinate {i} = {x} is not finite"
        if space.integer_lattice:
            for i, x in enumerate(vec):
                if x != math.floor(x):
                    return f"coordinate {i} = {x} is not integral on an integer lattice"
        return None
    if space.family is Family.BINARY:
        bits = point.bits
        if len(bits) != space.num_candidates:
            return f"expected {space.num_candidates} entries, got {len(bits)}"
        for i, b in enumerate(bits):
            if b not in (0, 1):
                return f"entry {i} = {b} is not a bit"
        if space.committee_size is not None and sum(bits) != space.committee_size:
            return f"ballot selects {sum(bits)} candidates, committee size is {space.committee_size}"
        return None
    ranking = point.ranking
    if len(ranking) != space.num_candidates:
        return f"expected {space.num_candidates} entries, got {len(ranking)}"
    if sorted(ranking) != list(range(space.num_candidates)):
        return "entries are not a permutation of the candidate indices"
    return None


def total(values: Iterable[float]) -> float:
    """The sum of ``values``, added left to right from 0.

    The builtin ``sum`` compensates float rounding from Python 3.12 on;
    this is the plain sum on every version, and ``arrays`` adds in the same
    order.
    """
    return reduce(operator.add, values, 0)


def dist_lp(space: SpaceSpec, x: Point, y: Point) -> float:
    """Minkowski distance on real vectors, selected by the space's metric."""
    diffs = [abs(a - b) for a, b in zip(x.real_vector, y.real_vector)]
    if space.distance is Metric.L1:
        return total(diffs)
    if space.distance is Metric.L2:
        return math.hypot(*diffs)
    return max(diffs)


def dist_hamming(space: SpaceSpec, x: Point, y: Point) -> int:
    """Number of entries at which two ballots differ."""
    return sum(a != b for a, b in zip(x.bits, y.bits))


def dist_first_changed(space: SpaceSpec, x: Point, y: Point) -> int:
    """Distance by deepest disagreement: 0 if equal, else 1 + last differing index.

    Equivalently num_candidates minus the length of the longest common
    suffix.  This is an ultrametric: extending the shared suffix is the only
    way to get closer.
    """
    a, b = x.values, y.values
    for i in range(len(a) - 1, -1, -1):
        if a[i] != b[i]:
            return i + 1
    return 0


def dist_swap(space: SpaceSpec, x: Point, y: Point) -> int:
    """Minimum number of adjacent transpositions turning one ranking into the other.

    Computed as the number of candidate pairs the two rankings order
    differently.
    """
    pos = {c: i for i, c in enumerate(y.ranking)}
    seq = [pos[c] for c in x.ranking]
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return inversions


def dist(space: SpaceSpec, x: Point, y: Point) -> float:
    """Distance between two points under the space's configured metric."""
    if space.distance in (Metric.L1, Metric.L2, Metric.LINF):
        return dist_lp(space, x, y)
    if space.distance is Metric.HAMMING:
        return dist_hamming(space, x, y)
    if space.distance is Metric.SWAP:
        return dist_swap(space, x, y)
    return dist_first_changed(space, x, y)


#: the largest gap between two values of a family that still counts as none
_TOLERANCE = {Family.EUCLIDEAN: EUCLIDEAN_EQ_TOL, Family.BINARY: 0, Family.RANKING: 0}


def differs(space: SpaceSpec, a, b):
    """``abs(a - b)`` above the space's tolerance; elementwise for arrays."""
    return abs(a - b) > _TOLERANCE[space.family]


def exceeds(space: SpaceSpec, a, b):
    """``a`` above ``b`` by more than the space's tolerance; elementwise for arrays."""
    return a > b + _TOLERANCE[space.family]


def points_equal(space: SpaceSpec, x: Point, y: Point) -> bool:
    """Equality under the space's convention: no coordinate ``differs``."""
    if space.family is Family.EUCLIDEAN:
        if len(x.real_vector) != len(y.real_vector):
            return False
        return not any(differs(space, a, b) for a, b in zip(x.real_vector, y.real_vector))
    return x.values == y.values


def point_to_json(space: SpaceSpec, point: Point):
    """JSON literal for a point: number array for reals and rankings, 0/1 string for ballots."""
    if space.family is Family.EUCLIDEAN:
        return list(point.real_vector)
    if space.family is Family.BINARY:
        return "".join(str(b) for b in point.bits)
    return list(point.ranking)


def point_from_json(space: SpaceSpec, obj) -> Point:
    """Parse a point literal; raises InvalidPointError if it does not fit the space."""
    try:
        point = _point_from_literal(space, obj)
    except (TypeError, ValueError, OverflowError):
        raise InvalidPointError(f"not a {space.family.value} point: {obj!r}") from None
    violation = validate_point(space, point)
    if violation is not None:
        raise InvalidPointError(violation)
    return point


def _point_from_literal(space: SpaceSpec, obj) -> Point:
    if space.family is Family.EUCLIDEAN:
        if not isinstance(obj, Sequence) or isinstance(obj, str):
            raise InvalidPointError(f"expected a coordinate array, got {obj!r}")
        return Point.reals(_entries(obj, whole=False))
    if space.family is Family.BINARY:
        if isinstance(obj, str):
            if not set(obj) <= {"0", "1"}:
                raise InvalidPointError(f"ballot string must be 0/1 only, got {obj!r}")
            return Point.of_bits(obj)
        if isinstance(obj, Sequence):
            return Point.of_bits(_entries(obj, whole=True))
        raise InvalidPointError(f"expected a 0/1 string, got {obj!r}")
    if not isinstance(obj, Sequence) or isinstance(obj, str):
        raise InvalidPointError(f"expected a candidate index array, got {obj!r}")
    return Point.of_ranking(_entries(obj, whole=True))


def _entries(obj: Sequence, whole: bool) -> Sequence:
    """The entries of an array literal, each a number (a bool is none), and
    integral where ``whole``: ``1.0`` passes as 1, ``1.5`` does not."""
    for i, x in enumerate(obj):
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise InvalidPointError(f"entry {i} = {x!r} is not a number")
        if whole and x != math.floor(x):
            raise InvalidPointError(f"entry {i} = {x!r} is not an integer")
    return obj
