"""Spaces: point validation, metrics, equality, and the JSON point codec."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delibsim import (
    ConfigurationError,
    EngineConfig,
    Family,
    InvalidPointError,
    Metric,
    MovePolicy,
    Point,
    PolicyKind,
    PolicySpec,
    Profile,
    RuleSpec,
    SpaceSpec,
    VotingRule,
    dist,
    point_from_json,
    point_to_json,
    points_equal,
    step,
    validate_point,
)
from delibsim.spaces import dist_lp, total

from helpers import (
    REFUSED_POINT_LITERALS,
    bfs_swap_distance,
    binary,
    euclidean,
    kendall_tau,
    ranking_space,
    suffix_disagreement,
)


# --- SpaceSpec validation ---------------------------------------------------


def test_euclidean_needs_dimension():
    with pytest.raises(ConfigurationError):
        SpaceSpec(Family.EUCLIDEAN, Metric.L2)
    with pytest.raises(ConfigurationError):
        SpaceSpec(Family.EUCLIDEAN, Metric.L2, dimension=0)


def test_euclidean_rejects_candidate_counts():
    with pytest.raises(ConfigurationError):
        SpaceSpec(Family.EUCLIDEAN, Metric.L2, dimension=2, num_candidates=3)


def test_discrete_needs_num_candidates():
    with pytest.raises(ConfigurationError):
        SpaceSpec(Family.BINARY, Metric.HAMMING)
    with pytest.raises(ConfigurationError):
        SpaceSpec(Family.RANKING, Metric.SWAP, dimension=3)


def test_metric_family_compatibility():
    with pytest.raises(ConfigurationError):
        SpaceSpec(Family.BINARY, Metric.L2, num_candidates=3)
    with pytest.raises(ConfigurationError):
        SpaceSpec(Family.RANKING, Metric.HAMMING, num_candidates=3)
    with pytest.raises(ConfigurationError):
        SpaceSpec(Family.EUCLIDEAN, Metric.SWAP, dimension=2)
    # every legal pairing constructs
    euclidean(Metric.L1, 2)
    euclidean(Metric.L2, 2)
    euclidean(Metric.LINF, 2)
    binary(Metric.HAMMING, 4)
    binary(Metric.FIRST_CHANGED, 4)
    ranking_space(Metric.SWAP, 4)
    ranking_space(Metric.FIRST_CHANGED, 4)


def test_committee_bounds():
    binary(Metric.HAMMING, 5, k=2)
    with pytest.raises(ConfigurationError):
        binary(Metric.HAMMING, 5, k=0)
    with pytest.raises(ConfigurationError):
        binary(Metric.HAMMING, 5, k=6)
    binary(Metric.HAMMING, 3, k=3)
    with pytest.raises(ConfigurationError):
        binary(Metric.HAMMING, 3, k=4)
    with pytest.raises(ConfigurationError):
        ranking_space(Metric.SWAP, 5).__class__(
            Family.RANKING, Metric.SWAP, num_candidates=5, committee_size=2
        )


def test_lattice_only_euclidean():
    euclidean(Metric.L1, 1, lattice=True)
    with pytest.raises(ConfigurationError):
        SpaceSpec(Family.BINARY, Metric.HAMMING, num_candidates=3, integer_lattice=True)


# --- Point construction and validation --------------------------------------


def test_point_single_payload():
    with pytest.raises(InvalidPointError):
        Point(real_vector=(1.0,), bits=(0, 1))
    with pytest.raises(InvalidPointError):
        Point()


def test_point_constructors_coerce():
    assert Point.reals([1, 2]).real_vector == (1.0, 2.0)
    assert Point.of_bits("0110").bits == (0, 1, 1, 0)
    assert Point.of_bits([1, 0]).bits == (1, 0)
    assert Point.of_ranking([2, 0, 1]).ranking == (2, 0, 1)


def test_validate_point_dimension_and_family():
    space = euclidean(Metric.L2, 2)
    assert validate_point(space, Point.reals((1.0, 2.0))) is None
    assert validate_point(space, Point.reals((1.0,))) is not None
    assert validate_point(space, Point.of_bits("01")) is not None


def test_validate_point_lattice():
    space = euclidean(Metric.L1, 2, lattice=True)
    assert validate_point(space, Point.reals((3.0, -2.0))) is None
    assert validate_point(space, Point.reals((3.5, 0.0))) is not None


def test_validate_point_committee():
    space = binary(Metric.HAMMING, 4, k=2)
    assert validate_point(space, Point.of_bits("0110")) is None
    assert validate_point(space, Point.of_bits("0111")) is not None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_point_rejects_non_finite_coordinates(bad):
    for space in (euclidean(Metric.L2, 2), euclidean(Metric.L1, 2, lattice=True)):
        assert "not finite" in validate_point(space, Point.reals((1.0, bad)))
        with pytest.raises(InvalidPointError):
            point_from_json(space, [1.0, bad])


def test_validate_point_ranking_permutation():
    space = ranking_space(Metric.SWAP, 3)
    assert validate_point(space, Point.of_ranking((2, 0, 1))) is None
    assert validate_point(space, Point.of_ranking((0, 0, 1))) is not None
    assert validate_point(space, Point.of_ranking((0, 1))) is not None


# --- Metrics -----------------------------------------------------------------


def test_lp_hand_values():
    x, y = Point.reals((0.0, 0.0)), Point.reals((3.0, 4.0))
    assert dist(euclidean(Metric.L1, 2), x, y) == 7.0
    assert dist(euclidean(Metric.L2, 2), x, y) == 5.0
    assert dist(euclidean(Metric.LINF, 2), x, y) == 4.0


def test_hamming_hand_values():
    space = binary(Metric.HAMMING, 5)
    assert dist(space, Point.of_bits("10110"), Point.of_bits("10110")) == 0
    assert dist(space, Point.of_bits("10110"), Point.of_bits("01110")) == 2
    assert dist(space, Point.of_bits("11111"), Point.of_bits("00000")) == 5


def test_first_changed_hand_values():
    space = binary(Metric.FIRST_CHANGED, 4)
    a, b = Point.of_bits("1011"), Point.of_bits("1101")
    # entries 1 and 2 differ; the deeper one decides
    assert dist(space, a, b) == 3
    assert dist(space, a, a) == 0
    assert dist(space, Point.of_bits("0011"), Point.of_bits("1011")) == 1
    rspace = ranking_space(Metric.FIRST_CHANGED, 3)
    assert dist(rspace, Point.of_ranking((0, 1, 2)), Point.of_ranking((1, 0, 2))) == 2


def test_swap_hand_values():
    space = ranking_space(Metric.SWAP, 3)
    assert dist(space, Point.of_ranking((0, 1, 2)), Point.of_ranking((0, 1, 2))) == 0
    assert dist(space, Point.of_ranking((0, 1, 2)), Point.of_ranking((1, 0, 2))) == 1
    assert dist(space, Point.of_ranking((0, 1, 2)), Point.of_ranking((2, 1, 0))) == 3


def test_malformed_points_are_rejected_where_they_enter():
    # one coordinate in a plane, and a ballot with a 2 in it
    plane, ballots = euclidean(Metric.L2, 2), binary(Metric.HAMMING, 3)
    cases = (
        (plane, VotingRule.MEAN, Point.reals((1.0,)), Point.reals((1.0, 2.0))),
        (ballots, VotingRule.MAJORITY, Point.of_bits("012"), Point.of_bits("010")),
    )
    for space, rule, bad, good in cases:
        with pytest.raises(InvalidPointError):
            Profile(space, (good, bad))
        with pytest.raises(InvalidPointError):
            point_from_json(space, list(bad.values))
        with pytest.raises(InvalidPointError):
            EngineConfig(
                space,
                RuleSpec(rule),
                PolicySpec(kind=PolicyKind.SCRIPTED, script=((good,), (bad,))),
            )
        # a mover that proposes the bad point, for step's referee to judge
        mover = MovePolicy(space, PolicySpec())
        mover.move = lambda *move_args: bad
        with pytest.raises(InvalidPointError):
            step(Profile(space, (good,)), EngineConfig(space, RuleSpec(rule)), policy=mover)


def test_dist_dispatch_matches_direct():
    x, y = Point.reals((1.0, -2.0, 0.5)), Point.reals((0.0, 1.0, 0.5))
    for metric in (Metric.L1, Metric.L2, Metric.LINF):
        space = euclidean(metric, 3)
        assert dist(space, x, y) == dist_lp(space, x, y)


def test_total_adds_left_to_right_from_zero_on_every_python():
    # a compensated sum, as the builtin's is from Python 3.12 on, gives 1.0
    assert total((1e16, 1.0, -1e16)) == 0.0
    assert math.copysign(1.0, total((-0.0, -0.0))) == 1.0  # 0 + -0.0 is 0.0


@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    st.data(),
)
def test_lp_against_math_formulas(xs, data):
    ys = data.draw(st.lists(st.floats(-50, 50), min_size=len(xs), max_size=len(xs)))
    x, y = Point.reals(xs), Point.reals(ys)
    diffs = [abs(a - b) for a, b in zip(xs, ys)]
    assert dist(euclidean(Metric.L1, len(xs)), x, y) == pytest.approx(sum(diffs))
    assert dist(euclidean(Metric.L2, len(xs)), x, y) == pytest.approx(
        math.sqrt(sum(d * d for d in diffs))
    )
    assert dist(euclidean(Metric.LINF, len(xs)), x, y) == pytest.approx(max(diffs))


@given(st.integers(2, 4), st.data())
def test_swap_matches_graph_distance(m, data):
    perm = st.permutations(range(m))
    a, b = data.draw(perm), data.draw(perm)
    space = ranking_space(Metric.SWAP, m)
    d = dist(space, Point.of_ranking(a), Point.of_ranking(b))
    assert d == bfs_swap_distance(a, b)
    assert d == kendall_tau(a, b)


@given(st.integers(1, 8), st.data())
def test_first_changed_matches_suffix_scan(m, data):
    bits = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    a, b = data.draw(bits), data.draw(bits)
    space = binary(Metric.FIRST_CHANGED, m)
    assert dist(space, Point.of_bits(a), Point.of_bits(b)) == suffix_disagreement(a, b)


@given(st.integers(2, 4), st.data())
def test_metric_axioms_discrete(m, data):
    perm = st.permutations(range(m))
    a, b, c = data.draw(perm), data.draw(perm), data.draw(perm)
    for metric in (Metric.SWAP, Metric.FIRST_CHANGED):
        space = ranking_space(metric, m)
        pa, pb, pc = Point.of_ranking(a), Point.of_ranking(b), Point.of_ranking(c)
        assert dist(space, pa, pb) == dist(space, pb, pa)
        assert (dist(space, pa, pb) == 0) == (a == b)
        assert dist(space, pa, pc) <= dist(space, pa, pb) + dist(space, pb, pc)


def test_first_changed_is_ultrametric():
    # the strong triangle inequality, spot-checked exhaustively for m=3
    space = binary(Metric.FIRST_CHANGED, 3)
    pts = [Point.of_bits(f"{i:03b}") for i in range(8)]
    for a in pts:
        for b in pts:
            for c in pts:
                assert dist(space, a, c) <= max(dist(space, a, b), dist(space, b, c))


# --- points_equal ------------------------------------------------------------


def test_points_equal_tolerance():
    space = euclidean(Metric.L2, 2)
    a = Point.reals((1.0, 2.0))
    assert points_equal(space, a, Point.reals((1.0 + 1e-10, 2.0)))
    assert not points_equal(space, a, Point.reals((1.0 + 1e-6, 2.0)))


def test_points_equal_discrete_exact():
    space = binary(Metric.HAMMING, 3)
    assert points_equal(space, Point.of_bits("011"), Point.of_bits("011"))
    assert not points_equal(space, Point.of_bits("011"), Point.of_bits("010"))


# --- JSON codec --------------------------------------------------------------


def test_point_json_round_trip():
    cases = [
        (euclidean(Metric.L2, 2), Point.reals((1.5, -2.0)), [1.5, -2.0]),
        (binary(Metric.HAMMING, 4), Point.of_bits("0110"), "0110"),
        (ranking_space(Metric.SWAP, 3), Point.of_ranking((2, 0, 1)), [2, 0, 1]),
        # an integral float reads as its integer
        (ranking_space(Metric.SWAP, 3), Point.of_ranking((2, 0, 1)), [2.0, 0, 1]),
    ]
    for space, point, literal in cases:
        assert point_to_json(space, point) == literal
        assert point_from_json(space, literal) == point


def test_point_from_json_accepts_bit_arrays():
    space = binary(Metric.HAMMING, 3)
    assert point_from_json(space, [1, 0, 1]) == Point.of_bits("101")
    assert point_from_json(space, [1.0, 0, 1]) == Point.of_bits("101")


def test_point_from_json_rejects_bad_literals():
    with pytest.raises(InvalidPointError):
        point_from_json(euclidean(Metric.L2, 2), "12")
    with pytest.raises(InvalidPointError):
        point_from_json(euclidean(Metric.L2, 2), [1.0])
    with pytest.raises(InvalidPointError):
        point_from_json(binary(Metric.HAMMING, 3), "0121")
    with pytest.raises(InvalidPointError):
        point_from_json(binary(Metric.HAMMING, 3), "01")
    with pytest.raises(InvalidPointError):
        point_from_json(ranking_space(Metric.SWAP, 3), [0, 0, 1])
    with pytest.raises(InvalidPointError):
        point_from_json(ranking_space(Metric.SWAP, 3), "012")


@pytest.mark.parametrize("space, literal, message", REFUSED_POINT_LITERALS)
def test_point_from_json_refuses_bools_and_fractions(space, literal, message):
    with pytest.raises(InvalidPointError) as raised:
        point_from_json(space, literal)
    assert str(raised.value) == message
