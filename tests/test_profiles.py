"""Profile generation, serialization, trace/summary output, and constructions."""

import csv
import io
import json
import math

import numpy as np
import pytest

from delibsim import (
    ConfigurationError,
    ConstraintMode,
    EngineConfig,
    Family,
    GeneratorSpec,
    InvalidPointError,
    Metric,
    Outcome,
    ParseError,
    Point,
    PolicySpec,
    Profile,
    RuleSpec,
    RunReport,
    VotingRule,
    dist,
    generate,
    load_profile,
    load_script,
    run,
    save_profile,
    save_script,
    worst_case_swf,
    worst_case_vnw,
    write_summary_csv,
    write_trace_jsonl,
)
from delibsim import rules as rules_mod
from delibsim import spaces as spaces_mod
from delibsim.engine import _ArrayRecord
from delibsim.profiles import (
    profile_from_json,
    profile_to_json,
    space_from_json,
    space_to_json,
    summary_row,
)
from delibsim.rules import bitwise_majority

from helpers import REFUSED_POINT_LITERALS, binary, euclidean, ranking_space, reference_jsonl

APPROACH = PolicySpec(constraint_mode=ConstraintMode.APPROACH_ONLY)


# --- generation --------------------------------------------------------------


def test_generate_is_deterministic_per_seed():
    g = GeneratorSpec(euclidean(Metric.L2, 3), n=4, seed=42)
    assert generate(g) == generate(g)
    other = GeneratorSpec(euclidean(Metric.L2, 3), n=4, seed=43)
    assert generate(g) != generate(other)


def test_generate_respects_box():
    g = GeneratorSpec(
        euclidean(Metric.L1, 2),
        n=50,
        seed=1,
        euclidean_box=((-1.0, 0.0), (5.0, 6.0)),
    )
    for p in generate(g).points:
        assert -1.0 <= p.real_vector[0] <= 0.0
        assert 5.0 <= p.real_vector[1] <= 6.0


def test_generate_lattice_points_are_integral():
    g = GeneratorSpec(euclidean(Metric.L1, 2, lattice=True), n=20, seed=3)
    for p in generate(g).points:
        assert all(x == int(x) for x in p.real_vector)


def test_generate_committee_ballots_have_k_ones():
    g = GeneratorSpec(binary(Metric.HAMMING, 6, k=2), n=30, seed=5)
    for p in generate(g).points:
        assert sum(p.bits) == 2


def test_generate_rankings_are_permutations():
    g = GeneratorSpec(ranking_space(Metric.SWAP, 5), n=30, seed=7)
    for p in generate(g).points:
        assert sorted(p.ranking) == list(range(5))


def test_generator_spec_guards():
    with pytest.raises(ConfigurationError):
        GeneratorSpec(euclidean(Metric.L2, 2), n=0, seed=1)
    with pytest.raises(ConfigurationError):
        GeneratorSpec(binary(Metric.HAMMING, 3), n=2, seed=1, euclidean_box=((0, 1),))
    with pytest.raises(ConfigurationError):
        GeneratorSpec(euclidean(Metric.L2, 2), n=2, seed=1, euclidean_box=((0, 1),))
    with pytest.raises(ConfigurationError):
        GeneratorSpec(
            euclidean(Metric.L2, 1), n=2, seed=1, euclidean_box=((3.0, 1.0),)
        )


# --- space and profile JSON --------------------------------------------------


def test_space_json_round_trip():
    spaces = [
        euclidean(Metric.L2, 3),
        euclidean(Metric.L1, 1, lattice=True),
        binary(Metric.HAMMING, 5, k=2),
        ranking_space(Metric.FIRST_CHANGED, 4),
    ]
    for space in spaces:
        assert space_from_json(space_to_json(space)) == space


def test_space_from_json_rejects_unknown_keys():
    with pytest.raises(ParseError):
        space_from_json({"family": "euclidean", "distance": "l2", "dim": 2})


def test_space_from_json_requires_family_and_distance():
    with pytest.raises(ParseError):
        space_from_json({"distance": "l2", "dimension": 2})
    with pytest.raises(ParseError):
        space_from_json({"family": "euclidean", "dimension": 2})


def test_profile_json_round_trip():
    profile = Profile(
        binary(Metric.HAMMING, 4),
        (Point.of_bits("0110"), Point.of_bits("1001")),
    )
    assert profile_from_json(profile_to_json(profile)) == profile


def test_profile_from_json_guards():
    with pytest.raises(ParseError):
        profile_from_json({"points": ["01"]})
    with pytest.raises(ParseError):
        profile_from_json(
            {"space": {"family": "binary", "distance": "hamming", "num_candidates": 2}}
        )
    with pytest.raises(ParseError):
        profile_from_json(
            {
                "space": {"family": "binary", "distance": "hamming", "num_candidates": 2},
                "points": [],
            }
        )


def test_profile_file_round_trip(tmp_path):
    profile = Profile(
        euclidean(Metric.L1, 1, lattice=True),
        (Point.reals((3.0,)), Point.reals((5.0,)), Point.reals((8.0,))),
    )
    path = tmp_path / "profile.json"
    save_profile(profile, str(path))
    assert load_profile(str(path)) == profile
    raw = json.loads(path.read_text())
    assert raw["points"] == [[3.0], [5.0], [8.0]]


def test_load_profile_validates_each_point_once(tmp_path, monkeypatch):
    profile = generate(GeneratorSpec(euclidean(Metric.L2, 2), n=100, seed=0))
    path = tmp_path / "profile.json"
    save_profile(profile, str(path))
    calls = []
    original = spaces_mod.validate_point

    def counted(space, point):
        calls.append(point)
        return original(space, point)

    # the parser checks in spaces, a checked Profile in rules
    for module in (spaces_mod, rules_mod):
        monkeypatch.setattr(module, "validate_point", counted)
    assert load_profile(str(path)) == profile
    assert len(calls) == 100


@pytest.mark.parametrize("space, literal, message", REFUSED_POINT_LITERALS)
def test_load_profile_refuses_bools_and_fractions(tmp_path, space, literal, message):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"space": space_to_json(space), "points": [literal]}))
    with pytest.raises(InvalidPointError) as raised:
        load_profile(str(path))
    assert str(raised.value) == message


def test_load_profile_bad_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"space": }')
    with pytest.raises(ParseError) as info:
        load_profile(str(path))
    assert "line 1" in str(info.value)


# --- scripts -----------------------------------------------------------------


def test_script_file_round_trip(tmp_path):
    space = euclidean(Metric.LINF, 2)
    script = (
        (Point.reals((0.0, 0.0)), Point.reals((1.0, 1.0))),
        (Point.reals((0.5, 0.5)), Point.reals((1.0, 1.0))),
    )
    path = tmp_path / "script.json"
    save_script(script, space, str(path))
    assert load_script(str(path), space) == script


def test_load_script_guards(tmp_path):
    space = euclidean(Metric.L1, 1)
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(ParseError):
        load_script(str(empty), space)
    ragged = tmp_path / "ragged.json"
    ragged.write_text("[[[0.0]], [[0.0], [1.0]]]")
    with pytest.raises(ParseError):
        load_script(str(ragged), space)
    nonlist = tmp_path / "nonlist.json"
    nonlist.write_text('{"a": 1}')
    with pytest.raises(ParseError):
        load_script(str(nonlist), space)


# --- trace and summary output ------------------------------------------------


def _floor_mean_report():
    space = euclidean(Metric.L1, 1, lattice=True)
    profile = Profile(space, tuple(Point.reals((v,)) for v in (3.0, 5.0, 8.0)))
    config = EngineConfig(space, RuleSpec(VotingRule.FLOOR_MEAN))
    return run(profile, config), config


def test_write_trace_jsonl_structure():
    report, config = _floor_mean_report()
    buf = io.StringIO()
    write_trace_jsonl(report, config.space, buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == report.states == 4
    first, last = lines[0], lines[-1]
    assert first["index"] == 0
    assert first["points"] == [[3.0], [5.0], [8.0]]
    assert first["winner"] == [5.0]
    assert first["distances"] == [2.0, 0.0, 3.0]
    assert first["moved"] == [True, False, True]
    assert last["points"] == [[5.0], [5.0], [5.0]]
    assert last["moved"] == [False, False, False]


def test_write_trace_jsonl_cap_terminal_record_has_no_move_data():
    space = euclidean(Metric.L1, 1)
    profile = Profile(space, (Point.reals((0.0,)), Point.reals((100.0,))))
    config = EngineConfig(space, RuleSpec(VotingRule.MEAN), max_iters=2)
    report = run(profile, config)
    buf = io.StringIO()
    write_trace_jsonl(report, space, buf)
    last = json.loads(buf.getvalue().splitlines()[-1])
    assert last["moved"] is None
    assert "checks" not in last


def test_write_trace_jsonl_keeps_each_bit_pattern_of_array_states():
    space = euclidean(Metric.L1, 2)
    states = (
        # -0.0 and 0.0 in one column; 1.5 repeated across agents
        [[-0.0, 1.5], [0.0, 1.5], [2.0, 1.5]],
        # the first column flips between 0.0 and -0.0
        [[0.0, 1.5], [-0.0, 1.5], [2.0, 0.25]],
        [[-0.0, 1.5], [-0.0, 1.5], [2.0, 0.25]],
    )
    distances = ((0.0, -0.0, 2.0), (-0.0, 0.0, 0.1 + 0.2), (0.0, 1e-300, math.inf))
    moved = ((True, True, True), (True, False, False))  # none on the CAP terminal record
    # the rows an array run's records read: states, winners, distances, moved
    rows = (np.array(states), np.array([(0.0, 1.5)] * 3), np.array(distances), np.array(moved))
    trace = tuple(_ArrayRecord(j, rows) for j in range(3))
    report = RunReport(Outcome.CAP_REACHED, None, 2, 3, trace, growth_detected=False)
    buf = io.StringIO()
    write_trace_jsonl(report, space, buf)
    text = buf.getvalue()
    assert text == reference_jsonl(report, space)
    lines = text.splitlines()
    assert '"points": [[0.0, 1.5], [-0.0, 1.5], [2.0, 0.25]]' in lines[1]
    assert '"distances": [-0.0, 0.0, 0.30000000000000004]' in lines[1]
    assert lines[2].endswith('"distances": [0.0, 1e-300, Infinity], "moved": null}')


def test_summary_row_and_csv():
    report, config = _floor_mean_report()
    row = summary_row(report, config, seed=17)
    assert row["family"] == "euclidean"
    assert row["distance"] == "l1"
    assert row["rule"] == "floor_mean"
    assert row["epsilon"] == 1.0
    assert row["seed"] == 17
    assert row["outcome"] == "converged"
    assert row["moving_iterations"] == 3
    assert row["states"] == 4
    assert json.loads(row["final_winner"]) == [5.0]
    buf = io.StringIO()
    write_summary_csv([row], buf)
    parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert parsed[0]["rule"] == "floor_mean"
    assert parsed[0]["moving_iterations"] == "3"


def test_final_winner_prefers_consensus_point():
    # the last record's winner: a converged run's consensus point, a capped run's last winner
    report, config = _floor_mean_report()
    assert report.point == report.trace[-1].winner
    assert json.loads(summary_row(report, config)["final_winner"]) == [5.0]
    space = euclidean(Metric.L1, 1)
    profile = Profile(space, (Point.reals((0.0,)), Point.reals((100.0,))))
    config = EngineConfig(space, RuleSpec(VotingRule.MEAN), max_iters=2)
    capped = run(profile, config)
    assert capped.point is None
    winner = json.loads(summary_row(capped, config)["final_winner"])
    assert winner == list(capped.trace[-1].winner.real_vector)


# --- worst-case constructions ------------------------------------------------


def test_worst_case_vnw_shape():
    profile = worst_case_vnw(m=6, movers=2, seed=9)
    space = profile.spec
    assert space.family is Family.BINARY
    assert space.distance is Metric.FIRST_CHANGED
    assert profile.n == 5
    base = profile.points[0]
    # anchors agree, movers disagree everywhere
    assert profile.points[1] == base and profile.points[2] == base
    for mover in profile.points[3:]:
        assert all(a != b for a, b in zip(mover.bits, base.bits))
    # the anchors pin the majority to the base ballot
    assert bitwise_majority(profile) == base


def test_worst_case_vnw_realizes_the_bound():
    m, eps = 6, 2
    profile = worst_case_vnw(m=m, movers=2, seed=9)
    config = EngineConfig(
        profile.spec, RuleSpec(VotingRule.MAJORITY), policy=APPROACH, epsilon=eps
    )
    report = run(profile, config)
    assert report.outcome is Outcome.CONVERGED
    assert report.moving_iterations == 3  # ceil(6 / 2)


def test_worst_case_swf_shape_and_bound():
    # the slow-mover construction needs a step of at least 2 that does not
    # leave a forced one-candidate prefix on the final move (m % eps != 1)
    m, eps = 6, 2
    for rule in (VotingRule.BORDA, VotingRule.COPELAND, VotingRule.KEMENY):
        profile = worst_case_swf(m=m, rule=rule, seed=4)
        space = profile.spec
        assert space.family is Family.RANKING
        assert space.distance is Metric.FIRST_CHANGED
        base = profile.points[0]
        mover = profile.points[-1]
        assert mover.ranking == tuple(reversed(base.ranking))
        order = tuple(base.ranking)
        config = EngineConfig(
            space, RuleSpec(rule, order), policy=APPROACH, epsilon=eps
        )
        report = run(profile, config)
        assert report.outcome is Outcome.CONVERGED
        assert report.moving_iterations == 3  # ceil(5 / 2)


def test_worst_case_swf_rejects_unstable_rules():
    with pytest.raises(ConfigurationError):
        worst_case_swf(m=4, rule=VotingRule.PLURALITY, seed=0)
    with pytest.raises(ConfigurationError):
        worst_case_swf(m=4, rule=VotingRule.STV, seed=0)
