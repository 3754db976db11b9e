"""Array kernels for the engine's array path.

A state is one array per iteration: ``(n, d)`` float64 rows for real
vectors, ``(n, m)`` uint8 rows of 0/1 entries for ballots.  A scripted run
stacks its states as ``(T, n, d)``: ``winner`` takes the stack, and the
other kernels take its rows flattened to ``(T * n, d)`` with one winner row
per agent.  Every kernel computes what the per-agent code computes for each
row, with the same floating-point operations in the same order, so results
match it bit for bit:

* sums that the per-agent code takes with ``spaces.total`` (taxicab
  distances, the mean) are one ``np.add.accumulate`` along the summed axis,
  which adds left to right as ``total`` does; ``np.sum`` adds pairwise, so
  it is not used;
* Euclidean distances use ``math.hypot``, as ``spaces.dist_lp`` does;
  ``np.hypot`` can differ from it in the last bit;
* a move's length is the agent's distance to the winner, which the run has
  already computed, so no kernel measures a move again;
* everything else (differences, scaling, clipping, comparisons, maxima,
  medians, counts) is exact elementwise work that numpy does in one pass;
  tolerance comparisons go through ``spaces.differs`` and ``spaces.exceeds``,
  the functions the per-agent code uses.

Which configurations take this path is decided in ``engine.run``.

The trace writer turns a run's arrays into the bytes ``json.dumps`` gives
with ``trace_texts``, a block of records at a time: NUL-padded uint8 text
cells for every state entry, winner, distance and moved flag, compacted by
``bytes.translate`` (real-vector points once per record, the other fields
once per block).  Floats go through one kernel, ``_float_columns``, once
per block, which writes ``repr``'s text (the shortest digits that read
back to the same double) with uint8 column operations:

* ``_shortest`` scales each value to ``y = x * 10**(16 - e10)`` in
  [1e16, 1e17) as a double-double, with Dekker's exact product against a
  table of powers of ten held as ``hi + lo`` pairs; ``y`` is off by less
  than 1e-13 of its last unit.  It rounds ``y`` to 15, 16 and 17 digits and
  keeps the shortest rounding that lies strictly inside the half-ulp
  rounding interval (Steele & White, PLDI 1990; Adams, PLDI 2018);
* the digits are laid out by ``repr``'s rules (positional for decimal
  exponents from -4 to 15, else ``e±XX``; ``.0`` on whole numbers) from a
  two-digit pair table, NUL bytes padding each text, and one
  ``bytes.translate`` drops the padding;
* every value the fast path does not take goes through ``json.dumps``
  (one call for all of them): NaN, the infinities, subnormals, a
  significand that is a power of two (its interval is lopsided), decimal
  exponents beyond about ±250, and values within 1e-9 of a last unit from
  a rounding tie or an interval edge.  Only IEEE-754 double operations
  are used, so the text is the same on every platform.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Iterator, Sequence

import numpy as np

from .errors import InfeasibleStepError
from .policies import ConstraintMode, L1Mode, too_far_message
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


# --- float64 to JSON text -------------------------------------------------

#: the fast path takes doubles within 2**±830 (about 1e±250): there the
#: double-double scale factor 10**(16 - e10) and its low part stay normal
_BINARY_LIMIT = 830
#: decimal exponents the power table covers; a log10 estimate stays inside
_DECIMAL_LIMIT = 251
#: how close, in units of the 17th significant digit, the scaled value may
#: come to a rounding tie or to the rounding interval's edge before the value
#: goes to ``json.dumps``; the double-double error there is below 1e-13
_MARGIN = 1e-9
#: text rows: sign, "0.000", 18 mantissa bytes (17 digits and the dot), "e+123"
_WIDTH = 29
_MAGNITUDE = (1 << 63) - 1
_FRACTION = (1 << 52) - 1
#: the two ASCII digits of 0..99, one column each
_PAIRS = np.array([list(b"%02d" % k) for k in range(100)], dtype=np.uint8).T.copy()
#: the rounding units of 15, 16 and 17 significant digits, in 17th-digit units
_UNITS = np.array([[100.0], [10.0], [1.0]])
_UNIT_RECIPROCALS = np.array([[0.01], [0.1], [1.0]])
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]
_MANTISSA_ROWS = np.arange(18, dtype=np.uint8)[:, None]
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
_LEAD_ROWS = np.arange(5, dtype=np.uint8)[:, None]


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """10**(16 - e10) for each ``|e10| <= _DECIMAL_LIMIT``, indexed by
    ``e10 + _DECIMAL_LIMIT``, as double-double pairs ``hi + lo``: ``hi`` is the
    power rounded to a double and ``lo`` the rest, rounded.  Both come from
    Python ints, whose true division rounds correctly.  Built on first use,
    not at import."""
    hi, lo = [], []
    for e10 in range(-_DECIMAL_LIMIT, _DECIMAL_LIMIT + 1):
        s = 16 - e10
        p, q = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)  # the power is p / q
        hi.append(p / q)
        num, den = hi[-1].as_integer_ratio()
        lo.append((p * den - num * q) / (q * den))
    return np.array(hi), np.array(lo)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into a high and a low half of 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest round-trip digits of each positive double in ``x``.

    Returns them as a 17-digit integer (zero-padded on the right), the decimal
    exponent of the first digit, and whether the result is certain.  ``x`` is
    scaled to ``y = x * 10**(16 - e10)`` in [1e16, 1e17) as a double-double
    (Dekker's exact product with the table's ``hi``, plus ``x`` times its
    ``lo``), then rounded to 15, 16 and 17 digits; the shortest candidate that
    lies strictly inside the half-ulp rounding interval wins (Steele & White,
    PLDI 1990).  With the significand not a power of two the interval is
    symmetric, so when any k-digit decimal lies in it, the nearest one does,
    and 15 digits never hold two.  A result is uncertain when ``y`` falls
    outside [1e16, 1e17) (log10 one off next to a power of ten) or comes
    within ``_MARGIN`` of a tie or an interval edge.
    """
    e10 = np.floor(np.log10(x)).astype(np.int64)
    table_hi, table_lo = _powers_of_ten()
    scale_hi = table_hi[e10 + _DECIMAL_LIMIT]
    scale_lo = table_lo[e10 + _DECIMAL_LIMIT]
    product = x * scale_hi
    xh, xl = _split(x)
    sh, sl = _split(scale_hi)
    tail = (((xh * sh - product) + xh * sl + xl * sh) + xl * sl) + x * scale_lo
    hi = product + tail  # y = hi + lo; hi is a whole number above 2**53
    lo = tail - (hi - product)
    certain = (hi - 1e16 + lo >= 0) & (hi < 1e17)
    half = 0.5 * np.spacing(x) * scale_hi  # half an ulp of x, scaled
    whole = hi.astype(np.int64)
    below = whole - whole // 100 * 100
    t = below + lo  # y above the multiple of 100 beneath it
    nearest = np.floor(t * _UNIT_RECIPROCALS + 0.5) * _UNITS  # per digit count
    gaps = np.abs(t - nearest)
    certain &= (np.abs(gaps - half) > _MARGIN).all(axis=0)
    certain &= (np.abs(gaps - 0.5 * _UNITS) > _MARGIN).all(axis=0)
    inside = gaps < half
    up = np.where(inside[0], nearest[0], np.where(inside[1], nearest[1], nearest[2]))
    digits = whole - below + up.astype(np.int64)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    return digits, e10 + carry, certain


def _float_columns(values) -> np.ndarray:
    """The ``json.dumps`` text of each float64 in ``values``, one column each.

    Returns a ``(_WIDTH, N)`` uint8 array whose column k holds value k's
    ASCII text with NUL bytes between and around its parts, which
    ``_compact`` drops.  Texts follow ``repr``: positional for decimal
    exponents from -4 to 15 (with ".0" on whole numbers), ``e±XX``
    otherwise.  Zeros are written directly; every value ``_shortest`` does not take (NaN, the
    infinities, subnormals, a power-of-two significand, beyond about 1e±250)
    or cannot certify goes through ``json.dumps``.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    count = len(values)
    bits = values.view(np.int64)
    magnitude = bits & _MAGNITUDE
    zero = magnitude == 0
    fast = (np.abs((magnitude >> 52) - 1023) <= _BINARY_LIMIT) & (magnitude & _FRACTION != 0)
    # 1.5 stands in for the values the fast path does not take
    digits, e10, certain = _shortest(np.where(fast, np.abs(values), 1.5))
    digits[zero] = 0  # "0.0": digit 0 before the point
    e10[zero] = 0
    cols = np.zeros((_WIDTH, count), np.uint8)
    cols[0] = (bits < 0) * np.uint8(ord("-"))
    # digit j in row j + 1, a NUL row on either side: the first digit, then
    # two groups of eight digits, a pair at a time
    d = np.zeros((19, count), np.uint8)
    top = digits // 10 ** 8
    d[1] = top // 10 ** 8 + ord("0")
    for row, group in ((2, top % 10 ** 8), (10, digits - top * 10 ** 8)):
        for at in range(row + 6, row - 1, -2):
            rest = group // 100
            d[at:at + 2] = np.take(_PAIRS, group - rest * 100, axis=1)
            group = rest
    significant = ((d[1:18] != ord("0")) * _PLACES).max(axis=0)
    decpt = e10 + 1  # the value is 0.d1d2... * 10**decpt
    exponent = (decpt < -3) | (decpt > 16)
    small = ~exponent & (decpt < 1)
    # "0." and the zeros between it and the first digit
    cols[1:6] = _LEAD * (_LEAD_ROWS < np.where(small, 2 - decpt, 0).astype(np.uint8))
    # the digits, the point inserted before digit ``dot``, cut at ``length``
    dot = np.where(exponent, 1, np.where(small, 18, decpt)).astype(np.uint8)
    length = np.where(
        exponent,
        significant + (significant > 1),
        np.where(small, significant, np.maximum(significant, decpt + 1) + 1),
    ).astype(np.uint8)
    rows = _MANTISSA_ROWS
    mantissa = d[1:] * (rows < dot) + d[:-1] * (rows > dot) + (rows == dot) * np.uint8(ord("."))
    cols[6:24] = mantissa * (rows < length)
    wide = np.flatnonzero(exponent)
    if len(wide):
        power = decpt[wide] - 1
        size = np.abs(power)
        cols[24, wide] = ord("e")
        cols[25, wide] = np.where(power < 0, ord("-"), ord("+"))
        cols[26, wide] = (size >= 100) * (size // 100 + ord("0"))
        cols[27:29, wide] = np.take(_PAIRS, size % 100, axis=1)
    slow = np.flatnonzero(~(fast & certain | zero))
    if len(slow):
        texts = json.dumps(values[slow].tolist())[1:-1].split(", ")
        cols[:, slow] = np.array(texts, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH).T
    return cols


def _compact(text: np.ndarray) -> str:
    """The uint8 ASCII ``text`` read in memory order, NUL bytes dropped."""
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _ends(shape: tuple) -> np.ndarray:
    """The bytes after each entry of a JSON list of ``shape``, ``(n,)`` or
    ``(n, d)``, one NUL-padded row per entry in row-major order: ", " within
    a list, "], [" between the rows of a nested one, and "]" or "]]" and a
    newline after the last entry."""
    ends = np.zeros((math.prod(shape), 4), np.uint8)
    ends[:, :2] = np.frombuffer(b", ", np.uint8)
    if len(shape) == 2:
        ends[shape[1] - 1::shape[1]] = np.frombuffer(b"], [", np.uint8)
    close = b"]" * len(shape) + b"\n"
    ends[-1] = 0
    ends[-1, :len(close)] = np.frombuffer(close, np.uint8)
    return ends


#: what follows a record's only entry when it is not a list
_NEWLINE = np.array([[ord("\n")]], np.uint8)


def _lines(cells: np.ndarray, ends: np.ndarray) -> list[str]:
    """One text per record: ``cells``, ``(k, c, w)``, holds the NUL-padded
    ASCII of each of ``k`` records' ``c`` entries, and ``ends``, ``(c, e)``,
    the bytes after each entry (see ``_ends``)."""
    k, c, w = cells.shape
    text = np.empty((k, c, w + ends.shape[1]), np.uint8)
    text[..., :w] = cells
    text[..., w:] = ends
    return _compact(text).split("\n")[:-1]


#: "false" and "true", one row each
_FLAGS = np.array([list(b"false"), list(b"true\0")], dtype=np.uint8)
#: about how many state entries one block of trace records holds
_TEXT_BLOCK = 1 << 14


def trace_texts(family: Family, run: tuple, indices: Sequence[int]) -> Iterator[tuple]:
    """The ``json.dumps`` texts of records ``indices`` of an array run.

    ``run`` holds the run's states, winners, distances and moved flags (no
    moved row for the terminal record).  Yields, per record, the texts of
    its points (as ``point_to_json`` writes them), winner, distances and
    moved flags ("null" without a row).  Records are taken in blocks of
    about ``_TEXT_BLOCK`` state entries; a block's floats are formatted by
    one ``_float_columns`` call, and its winners, distances and flags are
    compacted at once.  Real-vector points keep one text row per state
    entry: an entry whose float64 bit pattern equals the same entry of the
    record before keeps its row, so only changed entries are formatted, and
    each record's points are that array compacted.  Patterns, not values,
    are compared, so ``-0.0`` and ``0.0`` keep their own texts.
    """
    if not indices:
        return
    states, winners, distances, moved = run
    n, width = states[indices[0]].shape
    entries = n * width
    agent_ends = _ends((n,))
    if family is Family.EUCLIDEAN:
        # the previous record's entries, and their texts, each followed by its ends
        last_bits = None
        rows = np.zeros((entries, _WIDTH + 4), np.uint8)
        rows[:, _WIDTH:] = _ends((n, width))
    size = max(1, _TEXT_BLOCK // entries)
    for at in range(0, len(indices), size):
        block = indices[at:at + size]
        k = len(block)
        flagged = [j for j in block if j < len(moved)]  # the terminal record has no row
        texts = iter(_lines(_FLAGS[moved[flagged].astype(np.intp)], agent_ends))
        flags = ["[" + next(texts) if j < len(moved) else "null" for j in block]
        state = np.stack([states[j] for j in block])
        if family is not Family.EUCLIDEAN:
            quote = np.full((k, n, 1), ord('"'), np.uint8)
            ballots = np.concatenate((quote, state + np.uint8(ord("0")), quote), axis=2)
            winner = np.concatenate((quote[:, :1], winners[block][:, None] + np.uint8(ord("0")),
                                     quote[:, :1]), axis=2)
            yield from zip(["[" + text for text in _lines(ballots, agent_ends)],
                           _lines(winner, _NEWLINE),
                           map(json.dumps, distances[block].tolist()), flags)
            continue
        bits = state.reshape(k, entries).view(np.int64)
        fresh = np.ones(bits.shape, bool)
        np.not_equal(bits[1:], bits[:-1], out=fresh[1:])
        if last_bits is not None:
            np.not_equal(bits[0], last_bits, out=fresh[0])
        last_bits = bits[-1]
        where = np.flatnonzero(fresh)
        # the fresh entries, the winners and the distances: one kernel call
        cells = _float_columns(np.concatenate((bits.reshape(-1)[where].view(np.float64),
                                               winners[block].reshape(-1),
                                               distances[block].reshape(-1)))).T
        cuts = np.searchsorted(where, np.arange(k + 1) * entries).tolist()
        points = []
        for i in range(k):  # record i's fresh entries replace their rows' texts
            rows[where[cuts[i]:cuts[i + 1]] - i * entries, :_WIDTH] = cells[cuts[i]:cuts[i + 1]]
            points.append("[[" + _compact(rows)[:-1])
        cells = cells[len(where):]
        yield from zip(points,
                       ["[" + t for t in _lines(cells[:k * width].reshape(k, width, _WIDTH),
                                                _ends((width,)))],
                       ["[" + t for t in _lines(cells[k * width:].reshape(k, n, _WIDTH),
                                                agent_ends)],
                       flags)


def _sums(rows: np.ndarray) -> np.ndarray:
    """``spaces.total`` of each row: left to right, from 0.

    ``accumulate`` adds in order (``np.sum`` adds pairwise); ``+ 0.0``
    turns a row of ``-0.0`` into ``0.0``, as a sum that starts at 0 does.
    """
    return np.add.accumulate(rows.T, axis=0)[-1] + 0.0


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
    """Every agent's default move toward ``w``; ``d`` holds the recorded
    distances to it, which are the moves' lengths, as in ``MovePolicy.move``.

    A scaled move toward a winner at an infinite distance raises
    ``InfeasibleStepError``, as ``MovePolicy.move`` does.
    """
    if space.family is Family.BINARY:
        # flip the first epsilon disagreements; within reach that is all of them
        disagree = state != w
        flip = disagree & (np.cumsum(disagree, axis=1) <= int(epsilon))
        return state ^ flip.astype(_BALLOT)
    gaps = w - state
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
        if (d == math.inf).any():
            raise InfeasibleStepError(too_far_message(math.inf, epsilon))
        stepped = state + (epsilon / np.where(d > 0, d, 1.0))[:, None] * gaps
    return np.where((d <= epsilon)[:, None], w, stepped)


def outside(space: SpaceSpec, rows: np.ndarray) -> np.ndarray:
    """Per row, whether an entry lies outside ``space``: ``validate_point``'s
    verdict on a row of the space's width, and on a row of several points
    whether any of them fails it."""
    if space.family is Family.BINARY:
        return (rows > 1).any(axis=1)
    bad = ~np.isfinite(rows).all(axis=1)
    if space.integer_lattice:
        bad |= (rows != np.floor(rows)).any(axis=1)
    return bad


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
    bad = outside(space, after)
    d_after = distances(space, after, w)
    target = np.maximum(0.0, d_before - epsilon)
    if mode is ConstraintMode.APPROACH_ONLY:
        bad |= exceeds(space, d_after, target)
        return bad.nonzero()[0]
    shift = distances(space, before, after)
    bad |= differs(space, d_after, target)
    bad |= np.where(
        exceeds(space, d_after, 0), differs(space, shift, epsilon), exceeds(space, shift, epsilon)
    )
    return bad.nonzero()[0]


def moved(space: SpaceSpec, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Per agent, whether it moved: ``not points_equal(before, after)``."""
    return differs(space, before, after).any(axis=1)
