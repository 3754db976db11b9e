"""Command-line interface: commands, exit codes, file outputs, and errors."""

import csv
import json
import time
from pathlib import Path

import pytest

from delibsim import (
    ConstraintMode,
    EngineConfig,
    GeneratorSpec,
    L1Mode,
    Metric,
    Point,
    PolicyKind,
    PolicySpec,
    Profile,
    RuleSpec,
    VotingRule,
    generate,
    run,
    save_profile,
    save_script,
)
from delibsim import arrays, replays
from delibsim.cli import (
    EXIT_CAP,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from delibsim.profiles import setup_from_json, space_to_json, write_trace_jsonl
from delibsim.replays import MAX_ESCAPE_ITERATIONS, example3_script

from helpers import REFUSED_POINT_LITERALS, binary, euclidean, lost_step, ranking_space


def run_cli(*argv):
    return main(list(argv))


# --- run ---------------------------------------------------------------------


def test_run_generated_profile(capsys):
    code = run_cli(
        "run", "--space", "euclidean", "--distance", "l2", "--dim", "2",
        "--rule", "mean", "--n", "5", "--seed", "7",
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "outcome=converged" in out


def test_run_quiet_suppresses_summary(capsys):
    code = run_cli(
        "run", "--space", "euclidean", "--distance", "l2", "--dim", "1",
        "--rule", "mean", "--n", "3", "--seed", "1", "--quiet",
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""


def test_run_cap_exit_code(capsys):
    code = run_cli(
        "run", "--space", "euclidean", "--distance", "l1", "--dim", "1",
        "--rule", "mean", "--n", "4", "--seed", "2", "--epsilon", "0.25",
        "--max-iters", "2",
    )
    assert code == EXIT_CAP
    assert "cap reached" in capsys.readouterr().out


def test_run_missing_space_is_an_error(capsys):
    code = run_cli("run", "--rule", "mean", "--n", "3")
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_run_missing_profile_is_an_error(capsys):
    code = run_cli("run", "--space", "euclidean", "--distance", "l2", "--dim", "2")
    assert code == EXIT_ERROR
    assert "no initial profile" in capsys.readouterr().err


def test_run_with_profile_file(tmp_path, capsys):
    profile = Profile(
        euclidean(Metric.L1, 1, lattice=True),
        tuple(Point.reals((v,)) for v in (3.0, 5.0, 8.0)),
    )
    path = tmp_path / "profile.json"
    save_profile(profile, str(path))
    code = run_cli("run", "--profile", str(path), "--rule", "floor_mean")
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "moving_iterations=3" in out
    assert "winner=[5.0]" in out


@pytest.mark.parametrize("space, literal, message", REFUSED_POINT_LITERALS)
def test_run_refuses_a_profile_point_it_would_truncate(tmp_path, capsys, space, literal,
                                                       message):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"space": space_to_json(space), "points": [literal]}))
    rule = {"euclidean": "mean", "binary": "majority", "ranking": "kemeny"}[space.family.value]
    assert run_cli("run", "--profile", str(path), "--rule", rule) == EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_run_trace_output(tmp_path):
    out_path = tmp_path / "trace.jsonl"
    code = run_cli(
        "run", "--space", "binary", "--distance", "hamming", "--m", "5",
        "--rule", "majority", "--n", "4", "--seed", "3",
        "--out", str(out_path), "--format", "jsonl", "--quiet",
    )
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert lines[0]["index"] == 0
    assert all(len(rec["points"]) == 4 for rec in lines)
    assert lines[-1]["moved"] == [False, False, False, False]


def test_run_out_without_quiet_names_the_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    out_path = tmp_path / "trace.jsonl"
    assert run_cli("run", "examples/run.json", "--out", str(out_path)) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "outcome=converged moving_iterations=7 states=8 "
        "winner=[3.238327648331624, 3.656889169125855]",
        f"wrote jsonl to {out_path}",
    ]
    assert len(out_path.read_text().splitlines()) == 8


def test_run_csv_summary_output(tmp_path):
    out_path = tmp_path / "row.csv"
    code = run_cli(
        "run", "--space", "ranking", "--distance", "swap", "--m", "4",
        "--rule", "kemeny", "--n", "5", "--seed", "3",
        "--out", str(out_path), "--format", "csv", "--quiet",
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 1
    assert rows[0]["rule"] == "kemeny"
    assert rows[0]["outcome"] == "converged"


def test_run_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = {
        "space": {"family": "euclidean", "distance": "l2", "dimension": 2},
        "rule": "mean",
        "n": 4,
        "seed": 5,
        "epsilon": 0.5,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code = run_cli("run", str(path))
    assert code == EXIT_OK
    base = capsys.readouterr().out
    code = run_cli("run", str(path), "--seed", "6")
    assert code == EXIT_OK
    assert capsys.readouterr().out != base


def test_run_scripted_from_config(tmp_path, capsys):
    space = euclidean(Metric.LINF, 3)
    script = example3_script(10)
    spath = tmp_path / "script.json"
    save_script(script, space, str(spath))
    cfg = {
        "space": {"family": "euclidean", "distance": "linf", "dimension": 3},
        "rule": "mean",
        "policy": {"kind": "scripted", "script": str(spath)},
        "max_iters": 10,
    }
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    code = run_cli("run", str(cpath))
    out = capsys.readouterr().out
    assert code == EXIT_CAP
    assert "cap reached" in out


@pytest.mark.parametrize("key, value", [("n", 3), ("box", [[0, 1]] * 3)])
def test_run_refuses_agent_keys_that_a_script_overrides(tmp_path, capsys, key, value):
    spath = tmp_path / "script.json"
    save_script(example3_script(10), euclidean(Metric.LINF, 3), str(spath))
    cfg = {
        "space": {"family": "euclidean", "distance": "linf", "dimension": 3},
        "rule": "mean",
        "policy": {"kind": "scripted", "script": str(spath)},
        key: value,
    }
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    assert run_cli("run", str(cpath)) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {key!r} is unused: a profile or script supplies the agents\n"
    )


def test_run_profile_space_mismatch(tmp_path, capsys):
    profile = Profile(euclidean(Metric.L2, 2), (Point.reals((0.0, 0.0)),))
    path = tmp_path / "p.json"
    save_profile(profile, str(path))
    code = run_cli(
        "run", "--profile", str(path),
        "--space", "euclidean", "--distance", "l1", "--dim", "3",
        "--rule", "mean",
    )
    assert code == EXIT_ERROR
    assert "differs" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, message", [
    # steps of 1e-10 are below the tolerance
    ({"space": {"family": "euclidean", "distance": "l2", "dimension": 2}, "rule": "mean",
      "n": 7, "seed": 3, "epsilon": 1e-10},
     lost_step(3, 5.968455983867633, epsilon=1e-10)),
    # -1e17 + 1 == -1e17, and -1e200 + 1 == -1e200
    ({"profile": {"space": {"family": "euclidean", "distance": "l1", "dimension": 1},
                  "points": [[-1e17], [1e17]]},
      "rule": "median", "policy": {"constraint_mode": "approach_only"}, "max_iters": 5},
     lost_step(0, 2e17)),
    ({"profile": {"space": {"family": "euclidean", "distance": "l2", "dimension": 1},
                  "points": [[-1e200], [1e200]]},
      "rule": "median", "policy": {"constraint_mode": "approach_only"}, "max_iters": 5},
     lost_step(0, 2e200)),
])
def test_a_lost_step_is_an_error_not_a_consensus(tmp_path, capsys, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("run", str(path)) == EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


# --- config keys -------------------------------------------------------------


_E2 = {"family": "euclidean", "distance": "l2", "dimension": 2}
_SWAP4 = {"family": "ranking", "distance": "swap", "num_candidates": 4}
_INLINE = {"space": _E2, "points": [[0.0, 0.0], [4.0, 1.0], [2.5, 7.0], [9.0, 3.0]]}
_SCRIPT = example3_script(10)
_FILE_PROFILE = Profile(euclidean(Metric.L2, 2),
                        tuple(Point.reals((v, -v)) for v in (1.0, 2.0, 6.0)))


def _generated(space, n, seed, box=None):
    return generate(GeneratorSpec(space, n=n, seed=seed, euclidean_box=box))


@pytest.mark.parametrize(
    "cfg, flags, expected",
    [
        (
            {"space": {**_E2, "distance": "l1"}, "rule": "mean", "n": 5, "seed": 3,
             "box": [[-5, 5], [0.5, 2.5]], "epsilon": 0.75,
             "policy": {"l1_mode": "proportional", "constraint_mode": "approach_only"}},
            [],
            lambda: (
                _generated(euclidean(Metric.L1, 2), 5, 3, ((-5, 5), (0.5, 2.5))),
                EngineConfig(
                    euclidean(Metric.L1, 2), RuleSpec(VotingRule.MEAN),
                    PolicySpec(l1_mode=L1Mode.PROPORTIONAL,
                               constraint_mode=ConstraintMode.APPROACH_ONLY),
                    epsilon=0.75,
                ),
            ),
        ),
        (
            {"space": _E2, "rule": "median", "n": 5, "seed": 11,
             "policy": {"kind": "seeded_random"}},
            [],
            lambda: (
                _generated(euclidean(Metric.L2, 2), 5, 11),
                EngineConfig(euclidean(Metric.L2, 2), RuleSpec(VotingRule.MEDIAN),
                             PolicySpec(PolicyKind.SEEDED_RANDOM, seed=11)),
            ),
        ),
        (
            {"space": _SWAP4, "rule": {"rule": "copeland", "tiebreak_order": [3, 1, 0, 2]},
             "n": 6, "seed": 8},
            [],
            lambda: (
                _generated(ranking_space(Metric.SWAP, 4), 6, 8),
                EngineConfig(ranking_space(Metric.SWAP, 4),
                             RuleSpec(VotingRule.COPELAND, (3, 1, 0, 2))),
            ),
        ),
        (
            {"space": _SWAP4, "rule": "plurality", "n": 6, "seed": 8},
            [],
            lambda: (
                _generated(ranking_space(Metric.SWAP, 4), 6, 8),
                EngineConfig(ranking_space(Metric.SWAP, 4),
                             RuleSpec(VotingRule.PLURALITY, (0, 1, 2, 3))),
            ),
        ),
        (
            {"space": {"family": "binary", "distance": "first_changed", "num_candidates": 5},
             "rule": "majority", "n": 5, "seed": 6},
            [],
            lambda: (
                _generated(binary(Metric.FIRST_CHANGED, 5), 5, 6),
                EngineConfig(binary(Metric.FIRST_CHANGED, 5), RuleSpec(VotingRule.MAJORITY),
                             PolicySpec(constraint_mode=ConstraintMode.APPROACH_ONLY)),
            ),
        ),
        (
            {"space": {**_E2, "distance": "l1", "integer_lattice": True}, "rule": "floor_mean",
             "n": 5, "seed": 2, "box": [[0, 20], [0, 20]], "max_iters": 3},
            [],
            lambda: (
                _generated(euclidean(Metric.L1, 2, lattice=True), 5, 2, ((0, 20), (0, 20))),
                EngineConfig(euclidean(Metric.L1, 2, lattice=True),
                             RuleSpec(VotingRule.FLOOR_MEAN), max_iters=3),
            ),
        ),
        (
            {"rule": "mean", "profile": _INLINE, "epsilon": 0.3},
            [],
            lambda: (
                Profile(euclidean(Metric.L2, 2),
                        tuple(Point.reals(p) for p in _INLINE["points"])),
                EngineConfig(euclidean(Metric.L2, 2), RuleSpec(VotingRule.MEAN), epsilon=0.3),
            ),
        ),
        (
            {"space": {"family": "euclidean", "distance": "linf", "dimension": 3},
             "rule": "mean", "policy": {"kind": "scripted", "script": "script.json"},
             "max_iters": 10},
            [],
            lambda: (
                Profile(euclidean(Metric.LINF, 3), arrays.points(_SCRIPT[0])),
                EngineConfig(euclidean(Metric.LINF, 3), RuleSpec(VotingRule.MEAN),
                             PolicySpec(PolicyKind.SCRIPTED, script=_SCRIPT), max_iters=10),
            ),
        ),
        (
            {"space": _E2, "rule": "mean", "n": 4, "seed": 5, "epsilon": 0.5},
            ["--seed", "6", "--epsilon", "0.25", "--rule", "median", "--n", "7"],
            lambda: (
                _generated(euclidean(Metric.L2, 2), 7, 6),
                EngineConfig(euclidean(Metric.L2, 2), RuleSpec(VotingRule.MEDIAN),
                             epsilon=0.25),
            ),
        ),
        (
            {"rule": "mean", "profile": _INLINE, "policy": {"kind": "seeded_random", "seed": 4}},
            ["--profile", "profile.json", "--policy", "default"],
            lambda: (
                _FILE_PROFILE,
                EngineConfig(euclidean(Metric.L2, 2), RuleSpec(VotingRule.MEAN),
                             PolicySpec(seed=4)),
            ),
        ),
    ],
    ids=["box-l1-mode-constraint-mode", "seeded-random-run-seed", "tiebreak-order",
         "identity-tiebreak", "first-changed-approach-only", "lattice-max-iters",
         "inline-profile", "script-path", "flags-override", "profile-flag-policy-flag"],
)
def test_every_config_key_reaches_the_run(tmp_path, monkeypatch, cfg, flags, expected):
    monkeypatch.chdir(tmp_path)
    save_script(_SCRIPT, euclidean(Metric.LINF, 3), "script.json")
    save_profile(_FILE_PROFILE, "profile.json")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli("run", "cfg.json", *flags, "--out", "cli.jsonl", "--quiet") in (
        EXIT_OK, EXIT_CAP)
    initial, config = expected()
    write_trace_jsonl(run(initial, config), config.space, "expected.jsonl")
    assert (tmp_path / "cli.jsonl").read_text() == (tmp_path / "expected.jsonl").read_text()
    if not flags:
        assert setup_from_json(cfg)[:2] == (initial, config)


# --- batch -------------------------------------------------------------------


def test_batch_runs_grid(tmp_path, capsys):
    cfg = {
        "seeds": [0, 1],
        "configurations": [
            {
                "space": {"family": "euclidean", "distance": "l1", "dimension": 1},
                "rule": "median",
                "n": 3,
            },
            {
                "space": {"family": "binary", "distance": "hamming", "num_candidates": 4},
                "rule": "majority",
                "n": 5,
            },
        ],
    }
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(cfg))
    out_path = tmp_path / "grid.csv"
    code = run_cli("batch", str(path), "--out", str(out_path))
    assert code == EXIT_OK
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 4
    assert {r["seed"] for r in rows} == {"0", "1"}
    assert {r["rule"] for r in rows} == {"median", "majority"}


def test_batch_requires_seeds_and_configurations(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"configurations": []}))
    assert run_cli("batch", str(path)) == EXIT_ERROR
    assert "seeds" in capsys.readouterr().err


def test_batch_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert run_cli("batch", str(path)) == EXIT_ERROR
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "batch"])
def test_example_configs_run(command, capsys):
    path = Path(__file__).resolve().parent.parent / "examples" / f"{command}.json"
    assert run_cli(command, str(path)) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_escape_example_replays_its_script_to_the_cap(monkeypatch, capsys):
    # the config names its script file relative to itself, so it runs from
    # the repository root and from examples/ alike
    root = Path(__file__).resolve().parent.parent
    for directory, path in ((root, "examples/escape.json"), (root / "examples", "escape.json")):
        monkeypatch.chdir(directory)
        assert run_cli("run", path) == EXIT_CAP
        out, err = capsys.readouterr()
        assert err == ""
        assert out == (
            "outcome=cap_reached moving_iterations=50 states=51 winner=[50.0, 50.0, 50.0]\n"
            "cap reached; growth_detected=True\n"
        )


def test_config_file_paths_are_read_relative_to_the_config_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    space = euclidean(Metric.LINF, 3)
    save_script(_SCRIPT, space, str(tmp_path / "sub" / "script.json"))
    save_profile(_FILE_PROFILE, str(tmp_path / "sub" / "profile.json"))
    scripted = {"space": space_to_json(space), "rule": "mean", "max_iters": 10,
                "policy": {"kind": "scripted", "script": "script.json"}}
    (tmp_path / "sub" / "run.json").write_text(json.dumps(scripted))
    (tmp_path / "sub" / "profile-run.json").write_text(
        json.dumps({"rule": "mean", "profile": "profile.json"}))
    (tmp_path / "sub" / "batch.json").write_text(json.dumps(
        {"seeds": [0], "configurations": [scripted, {"rule": "mean", "profile": "profile.json"}]}))
    assert run_cli("run", "sub/run.json", "--quiet") == EXIT_CAP
    assert run_cli("run", "sub/profile-run.json", "--quiet") == EXIT_OK
    assert run_cli("batch", "sub/batch.json", "--out", "grid.csv", "--quiet") == EXIT_OK
    assert len((tmp_path / "grid.csv").read_text().splitlines()) == 3
    # --profile is a path from the working directory, not from the config file
    assert run_cli("run", "sub/profile-run.json", "--profile", "profile.json") == EXIT_ERROR
    assert capsys.readouterr().err == "error: profile.json: No such file or directory\n"
    assert run_cli("run", "sub/profile-run.json", "--profile", "sub/profile.json",
                   "--quiet") == EXIT_OK


# --- reproduce ---------------------------------------------------------------


def test_reproduce_known_names(capsys):
    assert run_cli("reproduce", "example1") == EXIT_OK
    out = capsys.readouterr().out
    assert "(5, 5, 5)" in out
    assert run_cli("reproduce", "stv-vector", "--quiet") == EXIT_OK


def test_reproduce_failure_goes_to_stderr_with_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(replays, "EXAMPLE1_WINNER", 6)
    assert run_cli("reproduce", "example1") == EXIT_ERROR
    out, err = capsys.readouterr()
    # the scenario's lines still print, without the closing "ok" line
    assert out.splitlines()[-1] == "outcome: converged after 3 moves"
    assert "example1: ok" not in out
    assert err == "".join(
        f"example1: iteration {j}: expected winner 6, got 5.0\n" for j in range(4)
    )


def test_reproduce_short_escape_budget(capsys):
    assert run_cli("reproduce", "example3", "--iterations", "30", "--quiet") == EXIT_OK
    assert run_cli("reproduce", "example4", "--iterations", "30", "--quiet") == EXIT_OK


@pytest.mark.parametrize("name", ["example3", "example4"])
def test_reproduce_refuses_an_unbuildable_script_at_once(capsys, name):
    start = time.perf_counter()
    assert run_cli("reproduce", name, "--iterations", str(10**20)) == EXIT_ERROR
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: a replay of {10**20} iterations refused (limit {MAX_ESCAPE_ITERATIONS})\n"
    )


def test_reproduce_unknown_name(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("reproduce", "example9")
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# --- verify ------------------------------------------------------------------


def test_verify_small_seed_count(tmp_path, capsys):
    out_path = tmp_path / "checks.csv"
    code = run_cli("verify", "--seeds", "1", "--out", str(out_path))
    assert code == EXIT_OK
    rows = list(csv.DictReader(out_path.open()))
    assert rows and all(r["passed"] == "pass" for r in rows)
    assert "checks passed" in capsys.readouterr().err


def test_verify_check_subset(capsys):
    code = run_cli("verify", "--seeds", "1", "--checks", "kemeny-oracle", "--quiet")
    assert code == EXIT_OK


def test_verify_corrupt_negative_control(capsys):
    code = run_cli("verify", "--seeds", "1", "--corrupt", "--quiet")
    assert code == EXIT_VERIFY_FAILED


# --- argument handling -------------------------------------------------------


_RUN_CFG = {
    "space": {"family": "euclidean", "distance": "l2", "dimension": 2},
    "rule": "mean",
    "n": 3,
}


@pytest.mark.parametrize(
    "command, cfg, flags",
    [
        ("run", {**_RUN_CFG, "n": "abc"}, []),
        ("run", {**_RUN_CFG, "epsilon": "x"}, []),
        ("run", {**_RUN_CFG, "epsilon": float("nan")}, []),
        ("run", {**_RUN_CFG, "policy": {"kind": "bogus"}}, []),
        ("run", {**_RUN_CFG, "space": {**_RUN_CFG["space"], "dimension": "2"}}, []),
        ("run", _RUN_CFG, ["--profile", "missing.json"]),
        ("batch", {"seeds": ["x"], "configurations": [_RUN_CFG]}, []),
        ("run", {**_RUN_CFG, "profile": {"space": _RUN_CFG["space"], "points": [["x"]]}}, []),
        ("run", {**_RUN_CFG, "space": {"family": "ranking", "distance": "swap",
                                       "num_candidates": 3},
                 "rule": {"rule": "borda", "tiebreak_order": "abc"}}, []),
        ("run", {**_RUN_CFG, "box": 5}, []),
        ("run", {**_RUN_CFG, "space": "ranking"}, []),
        ("run", {**_RUN_CFG, "seed": float("inf")}, []),
        ("run", {**_RUN_CFG, "epsilon": 10**400}, []),
        ("run", {**_RUN_CFG, "epsilom": 0.5, "max_iter": 3}, []),
        ("run", {**_RUN_CFG, "policy": {"kind": "default", "sed": 1}}, []),
        ("run", {**_RUN_CFG, "rule": {"rule": "mean", "tiebreak": [0, 1]}}, []),
        ("run", {**_RUN_CFG, "policy": "default"}, []),
        ("run", {**_RUN_CFG, "policy": [1]}, []),
        ("run", {**_RUN_CFG, "rule": ["mean"]}, []),
        ("run", {**_RUN_CFG, "policy": {"kind": "scripted", "script": [[[0.0, 0.0]]]}}, []),
        ("run", {**_RUN_CFG, "n": True}, []),
        ("run", {**_RUN_CFG, "n": 3.7}, []),
        ("run", {**_RUN_CFG, "n": "5"}, []),
        ("run", {"space": {"family": "euclidean", "distance": "l1", "dimension": 1,
                           "integer_lattice": "no"}, "rule": "floor_mean", "n": 3}, []),
        ("batch", {"seeds": [0], "configurations": [{**_RUN_CFG, "seed": 1}]}, []),
        ("batch", {"seeds": [0], "configurations": [_RUN_CFG], "seed": 1}, []),
        ("run", None, ["."]),
        ("run", b'{"n": "\xff"}', []),
        ("run", _RUN_CFG, ["--out", "missing/x.jsonl"]),
        ("batch", {"seeds": [0], "configurations": [_RUN_CFG]}, ["--out", "missing/x.csv"]),
        # no config file: the flags carry the bad value
        ("reproduce", None, ["example3", "--iterations", "0"]),
        ("reproduce", None, ["example3", "--iterations", "-3"]),
        ("reproduce", None, ["example4", "--iterations", "-3"]),
        ("verify", None, ["--seeds", "0"]),
        ("verify", None, ["--seeds", "-1"]),
        ("verify", None, ["--seeds", "1", "--checks", "kemeny-oracle",
                          "--out", "missing/x.csv"]),
        # a profile supplies the agents, so nothing may size or sample them
        ("run", {"rule": "mean", "profile": _INLINE, "n": 4}, []),
        ("run", {"rule": "mean", "profile": _INLINE, "box": [[0, 1], [0, 1]]}, []),
        ("run", {"rule": "mean", "profile": _INLINE}, ["--n", "4"]),
        ("run", {"rule": "mean", "profile": _INLINE}, ["--m", "3"]),
        ("run", {"rule": "mean", "profile": _INLINE}, ["--dim", "2"]),
        ("run", {"rule": "mean", "profile": _INLINE}, ["--k", "1"]),
        # the spread overflows a float, so no default budget can be sized
        ("run", {"profile": {"space": {"family": "euclidean", "distance": "l1", "dimension": 1},
                             "points": [[-1.5e308], [1.5e308]]},
                 "rule": "median", "policy": {"constraint_mode": "approach_only"}}, []),
    ],
    ids=["n", "epsilon", "epsilon-nan", "policy-kind", "dimension", "profile-file", "seed",
         "point-literal", "tiebreak-order", "box", "space-not-object", "seed-inf",
         "epsilon-overflow", "unknown-key", "unknown-policy-key", "unknown-rule-key",
         "policy-string", "policy-array", "rule-array", "inline-script", "n-bool", "n-float",
         "n-string", "integer-lattice-string", "batch-entry-seed", "batch-unknown-key",
         "config-directory", "config-not-utf8", "run-out-unwritable",
         "batch-out-unwritable", "iterations-0", "iterations-negative",
         "iterations-negative-example4", "seeds-0", "seeds-negative",
         "verify-out-unwritable", "profile-and-n", "profile-and-box", "profile-and-n-flag",
         "m-flag-without-space", "dim-flag-without-space", "k-flag-without-space",
         "spread-overflow"],
)
def test_bad_input_prints_an_error_line(tmp_path, monkeypatch, capsys, command, cfg, flags):
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        path = tmp_path / "cfg.json"
        if isinstance(cfg, bytes):
            path.write_bytes(cfg)
        else:
            path.write_text(json.dumps(cfg))
        flags = ["cfg.json", *flags]
    assert run_cli(command, *flags) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    if command == "reproduce":
        assert err == "error: the iteration budget must be at least 1\n"


def test_unknown_rule_rejected():
    with pytest.raises(SystemExit):
        run_cli("run", "--space", "euclidean", "--distance", "l2", "--dim", "1",
                "--rule", "approval", "--n", "3")


def test_no_command_shows_usage(capsys):
    with pytest.raises(SystemExit):
        run_cli()
