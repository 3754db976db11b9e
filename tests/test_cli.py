"""Command-line interface: commands, exit codes, file outputs, and errors."""

import csv
import json

import pytest

from delibsim import Metric, Point, Profile, save_profile, save_script
from delibsim.cli import (
    EXIT_CAP,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)

from helpers import euclidean


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
    from delibsim.replays import example3_script

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


# --- reproduce ---------------------------------------------------------------


def test_reproduce_known_names(capsys):
    assert run_cli("reproduce", "example1") == EXIT_OK
    out = capsys.readouterr().out
    assert "(5, 5, 5)" in out
    assert run_cli("reproduce", "stv-vector", "--quiet") == EXIT_OK


def test_reproduce_short_escape_budget(capsys):
    assert run_cli("reproduce", "example3", "--iterations", "30", "--quiet") == EXIT_OK
    assert run_cli("reproduce", "example4", "--iterations", "30", "--quiet") == EXIT_OK


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
        # no config file: the flags carry the bad value
        ("reproduce", None, ["example3", "--iterations", "0"]),
        ("reproduce", None, ["example3", "--iterations", "-3"]),
        ("reproduce", None, ["example4", "--iterations", "-3"]),
        ("verify", None, ["--seeds", "0"]),
        ("verify", None, ["--seeds", "-1"]),
    ],
    ids=["n", "epsilon", "epsilon-nan", "policy-kind", "dimension", "profile-file", "seed",
         "point-literal", "tiebreak-order", "box", "space-not-object", "seed-inf",
         "epsilon-overflow", "iterations-0", "iterations-negative",
         "iterations-negative-example4", "seeds-0", "seeds-negative"],
)
def test_bad_input_prints_an_error_line(tmp_path, monkeypatch, capsys, command, cfg, flags):
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
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
