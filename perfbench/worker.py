"""One benchmark process: set up a workload, run its passes, print the measurements.

``run.py`` starts this script with a pinned environment; it is not meant to
be run by hand.  The last line of its output is one JSON object.

Passes (each runs every operation of the workload once, in order):

* pass 0 warms up.  It is not timed, and an observer on ``engine.run``
  counts agent-iterations (n x states per run) and checks that every
  converged run, including those inside ``verify``, ends in a consensus.
* ``--trace 0``: timed passes follow while the next one fits in
  ``--seconds`` (at least two).  Every pass is gated and must repeat pass
  0's outputs exactly.
* ``--trace 1``: untraced and traced passes alternate while the next one
  fits in ``--seconds``, at least two of each.  The set-up is
  traced too, so ``profiles.generate`` shows where inputs are generated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
GOLDENS = DATA / "goldens.json"
NEGATIVE_CONTROL = DATA / "negative_control.json"
OUT_DIR = ROOT / ".bench_out"
MAX_MISSES_SHOWN = 20
#: timed passes of each kind, whatever --seconds says
MIN_PASSES = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up and exit")
    p.add_argument("--negative-control", action="store_true",
                   help="gate against the deliberately wrong goldens in data/negative_control.json")
    return p.parse_args(argv)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _goldens(workload: str, seed: int, negative: bool, default_seed: int):
    if seed != default_seed:
        return {}
    golden = json.loads(GOLDENS.read_text())[workload]
    if negative:
        for entry in json.loads(NEGATIVE_CONTROL.read_text())[workload]:
            *parents, leaf = entry["path"]
            node = golden
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = entry["value"]
    return golden


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(ds) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "delibsim": ds.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class RunObserver:
    """Counts agent-iterations and checks consensus for every ``engine.run`` call."""

    def __init__(self, ds, patcher):
        self.agent_iters = 0
        self.runs = 0
        self.misses: list[str] = []
        original = ds.engine.run

        def observed(initial, config, *args, **kwargs):
            report = original(initial, config, *args, **kwargs)
            self.runs += 1
            self.agent_iters += initial.n * report.states
            if report.outcome is ds.Outcome.CONVERGED and not ds.is_consensus(
                ds.Profile(config.space, report.trace[-1].points)
            ):
                self.misses.append(f"run {self.runs}: converged without a consensus")
            return report

        patcher.replace_function(original, observed)


def run_pass(ds, ops, goldens, tracer=None, observer=None) -> dict:
    """Run every operation once; time only ``execute``; gate every output."""
    wall = 0.0
    op_wall: dict[str, float] = {}
    attempted = failed = 0
    misses: list[str] = []
    records: dict = {}
    for op in ops:
        golden = goldens.get(op.name)
        seen = len(observer.misses) if observer else 0
        error = None
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            output = op.execute(ds)
        except Exception:
            error = traceback.format_exc()
        op_wall[op.name] = time.perf_counter() - start
        wall += op_wall[op.name]
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                verdict = op.judge(ds, output, golden)
            except Exception:
                error = traceback.format_exc()
        output = None
        if error is not None:
            n = op.failure_attempts(golden)
            attempted += n
            failed += n
            misses.append(f"{op.name}: raised\n{error}")
            continue
        if observer and len(observer.misses) > seen:
            misses.extend(f"{op.name}: {m}" for m in observer.misses[seen:])
            if verdict.failed == 0:
                verdict.failed = 1
        attempted += verdict.attempted
        failed += verdict.failed
        misses.extend(verdict.misses)
        records[op.name] = verdict.record
    return {"wall_s": wall, "op_wall_s": op_wall, "attempted": attempted, "failed": failed,
            "misses": misses, "records": records}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import spans
    import workloads
    from tracer import Patcher, Tracer, wrapper_costs

    started = time.perf_counter()
    import delibsim as ds
    import delibsim.cli  # noqa: F401  (loads replays and verification too)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        patcher = spans.install(ds, tracer)
        tracer.active = True
    ops = workloads.build_ops(ds, args.workload, args.seed)
    for op in ops:
        op.build(ds)
    setup_s = time.perf_counter() - started
    if tracer is not None:
        tracer.active = False
        patcher.restore()
        setup_trace = tracer.snapshot()
        setup = {"by_name": tracer.by_name(), "counts": dict(tracer.counts),
                 "inside": tracer.wrapped_calls_inside()}

    if args.setup_only:
        _emit({"setup_s": setup_s})
        return 0
    if not Path(ds.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"delibsim imported from {ds.__file__}, not from this checkout", file=sys.stderr)
        return 2

    goldens = _goldens(args.workload, args.seed, args.negative_control, workloads.DEFAULT_SEED)
    misses: list[str] = []

    warm_patcher = Patcher()
    observer = RunObserver(ds, warm_patcher)
    try:
        warm = run_pass(ds, ops, goldens, observer=observer)
    finally:
        warm_patcher.restore()
    attempted, failed = warm["attempted"], warm["failed"]
    misses.extend(warm["misses"])

    untraced, traced = [], []
    longest = 0.0
    budget_start = time.perf_counter()
    while True:
        # stop before a pass that would end after --seconds, once each kind
        # of pass has enough samples
        fits = time.perf_counter() - budget_start + longest <= args.seconds
        if args.trace:
            if not fits and min(len(traced), len(untraced)) >= MIN_PASSES:
                break
            with_trace = len(traced) < len(untraced)
        else:
            if not fits and len(untraced) >= MIN_PASSES:
                break
            with_trace = False
        pass_start = time.perf_counter()
        if with_trace:
            tracer.reset()
            patcher = spans.install(ds, tracer)
            try:
                result = run_pass(ds, ops, goldens, tracer=tracer)
            finally:
                patcher.restore()
            result["trace"] = tracer.snapshot()
            result["by_name"] = tracer.by_name()
            result["counts"] = dict(tracer.counts)
            result["inside"] = tracer.wrapped_calls_inside()
            traced.append(result)
        else:
            result = run_pass(ds, ops, goldens)
            untraced.append(result)
        longest = max(longest, time.perf_counter() - pass_start)
        attempted += result["attempted"]
        failed += result["failed"]
        misses.extend(result["misses"])
        if result["records"] != warm["records"] and not result["failed"]:
            failed += 1
            attempted += 1
            misses.append("outputs differ from the warm-up pass")

    out = {
        "setup_s": setup_s,
        "wall_s": [r["wall_s"] for r in untraced],
        "op_wall_s": {name: statistics.median(r["op_wall_s"][name] for r in untraced)
                      for name in untraced[0]["op_wall_s"]},
        "agent_iters": observer.agent_iters,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "misses": misses[:MAX_MISSES_SHOWN],
        "threads": threading.active_count(),
        "env": environment(ds),
    }
    if args.trace:
        costs = wrapper_costs()
        layer, estimates, problems = spans.per_layer(
            setup, traced,
            untraced_wall=statistics.median(r["wall_s"] for r in untraced), costs=costs,
        )
        out["per_layer"] = layer
        out["tracer_est_s"] = estimates
        out["trace_problems"] = problems
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": out["env"],
            "wrapper_cost_s": {"span": costs[0], "counter": costs[1]},
            "tracer_est_s": estimates,
            "setup": setup_trace,
            "passes": [{"wall_s": r["wall_s"], **r["trace"]} for r in traced],
        }, indent=1) + "\n")
        out["trace_file"] = str(dump.relative_to(ROOT))
    _emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
