"""Which delibsim functions get spans, and the per-layer metrics made from them.

The layers are delibsim's modules.  Each traced function is wrapped at every
binding site (see ``tracer.Patcher``).  The ``dist_*`` helpers are wrapped
only where other modules call them directly, under the name ``spaces.dist``,
so that ``spaces.dist`` counts every distance evaluation exactly once.
"""

from __future__ import annotations

import statistics

from tracer import Patcher, Tracer

#: (module, function, span name); wrapped at every binding site
FUNCTION_SPANS = (
    ("spaces", "dist", "spaces.dist"),
    ("spaces", "validate_point", "spaces.validate_point"),
    ("spaces", "points_equal", "spaces.points_equal"),
    ("policies", "check_constraints", "policies.check_constraints"),
    ("engine", "step", "engine.step"),
    ("profiles", "generate", "profiles.generate"),
    ("replays", "replay", "replays.replay"),
    ("cli", "main", "cli.main"),
)
#: distance helpers: wrapped outside ``delibsim.spaces`` only
DIST_HELPERS = ("dist_lp", "dist_hamming", "dist_first_changed", "dist_swap")
ANALYSIS_FUNCTIONS = (
    "iteration_bound",
    "kemeny_bruteforce",
    "potential_scoring",
    "potential_stv",
    "ball_containment",
    "sum_distance_to_winner",
    "winner_stability",
)
#: rules that some workload runs; each gets its own winner self time
TRACED_RULES = (
    "mean", "median", "majority", "topk_majority",
    "kemeny", "plurality", "borda", "copeland", "stv",
)


def _count_run(tracer: Tracer):
    counts = tracer.counts

    def after(args, report):
        n = args[0].n
        counts["engine.states"] += report.states
        counts["engine.agent_iters"] += n * report.states
        counts["engine.trace.records"] += len(report.trace)
        for record in report.trace:
            counts["engine.trace.points"] += len(record.points)
            if record.moved is not None:
                counts["engine.moves"] += len(record.moved)
                counts["engine.moves_useful"] += sum(record.moved)

    return after


def _count_rows(tracer: Tracer):
    counts = tracer.counts

    def after(args, rows):
        counts["verification.rows"] += len(rows)
        counts["verification.rows_failed"] += sum(1 for r in rows if not r.passed)

    return after


def _count_jsonl(tracer: Tracer):
    counts = tracer.counts

    def after(args, _):
        sink = args[2]
        if hasattr(sink, "tell"):
            counts["profiles.write_trace_jsonl.bytes"] += sink.tell()

    return after


def install(ds, tracer: Tracer) -> Patcher:
    """Wrap every traced function of the loaded delibsim modules."""
    patcher = Patcher()
    modules = {name: getattr(ds, name) for name in
               ("spaces", "rules", "policies", "engine", "profiles",
                "analysis", "verification", "replays", "cli")}

    def wrap(module: str, fn_name: str, label, after=None, skip=()):
        fn = getattr(modules[module], fn_name, None)
        if fn is not None:
            patcher.replace_function(fn, tracer.span(label, fn, after), skip=skip)

    for module, fn_name, label in FUNCTION_SPANS:
        wrap(module, fn_name, label)
    for fn_name in DIST_HELPERS:
        wrap("spaces", fn_name, "spaces.dist", skip=("delibsim.spaces",))
    for fn_name in ANALYSIS_FUNCTIONS:
        wrap("analysis", fn_name, f"analysis.{fn_name}")
    wrap("rules", "winner", lambda rule, profile: f"rules.winner.{rule.rule.value}")
    wrap("engine", "run", "engine.run", after=_count_run(tracer))
    wrap("profiles", "write_trace_jsonl", "profiles.write_trace_jsonl", after=_count_jsonl(tracer))
    wrap("verification", "run_verification", "verification.run_verification",
         after=_count_rows(tracer))

    patcher.replace_method(modules["rules"].Profile, "__init__",
                           lambda fn: tracer.span("rules.Profile", fn))
    patcher.replace_method(modules["policies"].MovePolicy, "move",
                           lambda fn: tracer.span("policies.move", fn))
    patcher.replace_method(modules["spaces"].Point, "__init__",
                           lambda fn: tracer.counter("spaces.Point.created", fn))
    return patcher


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: the traced run fails when spans miss more than this share of a traced pass
UNATTRIBUTED_MAX_SHARE = 0.002


def per_layer(setup: dict, traced: list, untraced_wall: float, costs: tuple[float, float]):
    """Per-layer metrics: the traced set-up plus one traced pass.

    ``setup`` and each entry of ``traced`` hold ``by_name``, ``counts`` and
    ``inside`` of one tracer; traced passes also hold ``wall_s`` and
    ``trace``.  ``costs`` is ``tracer.wrapper_costs()``.  Counts come from
    the first traced pass and must repeat exactly in every other; self times
    are medians over the traced passes.  Returns the metrics (name ->
    (value, unit)), the estimated tracer cost inside each ``self_s`` metric
    (name -> seconds) and a list of problems found.
    """
    problems = []
    first = traced[0]

    def countable(r):
        return ({n: c for n, (c, _) in r["by_name"].items()}, r["counts"], r["inside"])

    for k, other in enumerate(traced[1:], 1):
        if countable(first) != countable(other):
            problems.append(f"traced pass {k} counted differently from traced pass 0")
    for k, r in enumerate(traced):
        missed = r["wall_s"] - r["trace"]["root_s"]
        if missed > UNATTRIBUTED_MAX_SHARE * r["wall_s"]:
            problems.append(
                f"traced pass {k}: {missed:.4f} s of {r['wall_s']:.4f} s ran outside every span"
            )

    def calls(name: str) -> int:
        return setup["by_name"].get(name, (0, 0.0))[0] + first["by_name"].get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        timed = statistics.median(r["by_name"].get(name, (0, 0.0))[1] for r in traced)
        return setup["by_name"].get(name, (0, 0.0))[1] + timed

    def count(name: str) -> int:
        return setup["counts"].get(name, 0) + first["counts"].get(name, 0)

    span_cost, counter_cost = costs

    def tracer_s(name: str) -> float:
        spans, counters = (a + b for a, b in zip(setup["inside"].get(name, (0, 0)),
                                                   first["inside"].get(name, (0, 0))))
        return spans * span_cost + counters * counter_cost

    winner_names = {n for n in (*setup["by_name"], *first["by_name"])
                    if n.startswith("rules.winner.")}
    winner_calls = sum(calls(n) for n in winner_names)
    agent_iters = count("engine.agent_iters")
    states = count("engine.states")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    unattributed = statistics.median(r["wall_s"] - r["trace"]["root_s"] for r in traced)

    m: dict[str, tuple[float, str]] = {}
    for name in ("spaces.dist", "spaces.validate_point", "policies.check_constraints"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.per_agent_iter"] = (_ratio(calls(name), agent_iters), "count/agent_iter")
    m["spaces.points_equal.calls"] = (calls("spaces.points_equal"), "count")
    m["spaces.points_equal.self_s"] = (self_s("spaces.points_equal"), "s")
    m["spaces.Point.created"] = (count("spaces.Point.created"), "count")
    m["rules.winner.calls"] = (winner_calls, "count")
    m["rules.winner.self_s"] = (sum(self_s(n) for n in winner_names), "s")
    m["rules.winner.per_state"] = (_ratio(winner_calls, states), "count/state")
    for rule in TRACED_RULES:
        m[f"rules.winner.{rule}.self_s"] = (self_s(f"rules.winner.{rule}"), "s")
    for name in ("rules.Profile", "policies.move", "engine.run", "engine.step",
                 "profiles.generate", "cli.main"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["engine.trace.records"] = (count("engine.trace.records"), "count")
    m["engine.trace.points"] = (count("engine.trace.points"), "count")
    m["engine.agent_iters"] = (agent_iters, "count")
    m["engine.states"] = (states, "count")
    m["engine.moves"] = (count("engine.moves"), "count")
    m["engine.moved_ratio"] = (_ratio(count("engine.moves_useful"), count("engine.moves")), "ratio")
    m["profiles.write_trace_jsonl.self_s"] = (self_s("profiles.write_trace_jsonl"), "s")
    m["profiles.write_trace_jsonl.bytes"] = (count("profiles.write_trace_jsonl.bytes"), "bytes")
    for fn_name in ANALYSIS_FUNCTIONS:
        m[f"analysis.{fn_name}.calls"] = (calls(f"analysis.{fn_name}"), "count")
        m[f"analysis.{fn_name}.self_s"] = (self_s(f"analysis.{fn_name}"), "s")
    m["verification.run_verification.self_s"] = (self_s("verification.run_verification"), "s")
    m["verification.rows"] = (count("verification.rows"), "count")
    m["verification.rows_failed"] = (count("verification.rows_failed"), "count")
    m["replays.replay.self_s"] = (self_s("replays.replay"), "s")
    m["trace.overhead_ratio"] = (_ratio(traced_wall, untraced_wall), "ratio")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.unattributed_s"] = (unattributed, "s")
    m["trace.span_wrapper_cost_s"] = (span_cost, "s")
    m["trace.counter_wrapper_cost_s"] = (counter_cost, "s")
    estimates = {name: tracer_s(name[:-len(".self_s")]) for name in m if name.endswith(".self_s")}
    estimates["rules.winner.self_s"] = sum(tracer_s(n) for n in winner_names)
    return m, estimates, problems
