"""Run one delibsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload crowd --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout.  The workload runs in one fresh worker
process (one thread, BLAS pinned to one thread, fixed PYTHONHASHSEED) that
imports delibsim from ``src/``.  With ``--trace 0`` six more fresh
processes only time the set-up, and the metrics are BENCHMARK.json's
end-to-end metrics; with ``--trace 1`` they are its per-layer metrics.
Every metric is printed as ``name = value unit``, including the per-layer
times that some workload never exercises and that BENCHMARK.json therefore
leaves out; the last line is one JSON object with the declared metrics.  The exit code is 0 only when every output passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: set-up-only processes; with the worker's own set-up, setup_s is a median of 7
SETUP_PROBES = 6
#: a run must end within 180 s; leave room to report
TIME_BUDGET_S = 170.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: the base count printed beside each ratio
BASES = {
    "agent_iters_per_s": "agent_iters",
    "spaces.dist.per_agent_iter": "engine.agent_iters",
    "spaces.validate_point.per_agent_iter": "engine.agent_iters",
    "policies.check_constraints.per_agent_iter": "engine.agent_iters",
    "rules.winner.per_state": "engine.states",
    "engine.moved_ratio": "engine.moves",
    "trace.overhead_ratio": "trace.untraced_wall_s",
}


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def measure(args) -> tuple[dict, dict]:
    """Run the workload; returns (worker result, metrics name -> (value, unit))."""
    deadline = time.monotonic() + TIME_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker([*common, "--setup-only"], deadline)["setup_s"])
    flags = ["--negative-control"] if args.negative_control else []
    result = _worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), *flags], deadline
    )
    if args.trace:
        return result, {name: tuple(v) for name, v in result["per_layer"].items()}
    setups.append(result["setup_s"])
    # The host's neighbours come and go: its contended speed recurs in every
    # run, while faster stretches are sporadic and scatter the lower passes.
    # The upper quartile of the passes tracks the recurring speed.
    wall = statistics.quantiles(result["wall_s"], n=4, method="inclusive")[2]
    return result, {
        "wall_s": (wall, "s"),
        "agent_iters_per_s": (result["agent_iters"] / wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "agent_iters": (result["agent_iters"], "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--negative-control", action="store_true",
                        help="gate against the wrong values in data/negative_control.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "delibsim" / "__init__.py").is_file():
        print(f"error: no delibsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        result, measured = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    env = result["env"]
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}, commit {env['commit']}")
    if args.trace:
        print(f"# spans written to {result['trace_file']}")
    else:
        print("# timed passes (s): " + ", ".join(f"{w:.4f}" for w in result["wall_s"]))
        print("# per operation, median over passes (s): "
              + ", ".join(f"{k} {v:.4f}" for k, v in result["op_wall_s"].items()))
    for name, (value, unit) in measured.items():
        line = f"{name} = {_fmt(value)} {unit}"
        if name in BASES:
            base = BASES[name]
            line += f"  (base {base} = {_fmt(measured[base][0])} {measured[base][1]})"
        if result.get("tracer_est_s", {}).get(name):
            line += f"  (of which tracer, est. {result['tracer_est_s'][name]:.4f} s)"
        print(line)
    metrics = {m["name"]: dict(zip(("value", "unit"), measured[m["name"]])) for m in declared}
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio = {failed / attempted!r} ({failed} of {attempted} operations failed)")

    problems = list(result.get("trace_problems", []))
    if result["threads"] != 1:
        problems.append(f"{result['threads']} threads alive in the worker")
    for line in result["misses"] + problems:
        print(f"gate: {line}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
