"""The traced layers: which vcbranch functions get spans, and the per-layer
metrics computed from those spans, the tracer's counters and SolveStats.

Layers are the program's modules: graph, lp, reduce, branching, solver,
verify and cli.  A span name is "<layer>.<what>"; several functions may
share one span name (lp.shadow, graph.copy).  The metric names, units and
directions are declared in BENCHMARK.json.
"""

from __future__ import annotations

from collections import Counter

from tracer import HOOK, Target, Tracer


# -- hooks (run outside the measured span; charged to trace.hook) ------------

def _graph_key(tracer: Tracer, g) -> int:
    """Content key of a graph, cached per object for the current solve."""
    keys = tracer.scratch.setdefault("graph_keys", {})
    hit = keys.get(id(g))
    if hit is None or hit[0] is not g:
        hit = (g, hash((tuple(g.vertices()), tuple(g.edges()))))
        keys[id(g)] = hit  # holds g so its id is not reused during the solve
    return hit[1]


def _repeat(tracer: Tracer, name: str, key) -> None:
    seen = tracer.scratch.setdefault(name, set())
    if key in seen:
        tracer.counters[name + ".repeat"] += 1
    else:
        seen.add(key)


def _lp_core_before(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    if len(args) == 2:
        _repeat(tracer, "lp.core", (_graph_key(tracer, args[0]), frozenset(args[1])))


def _sweep_before(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    if kwargs.get("need_table"):
        tracer.counters["lp.sweep.table"] += 1


def _simplify_before(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    inst = args[0] if args else kwargs.get("inst")
    if hasattr(inst, "graph"):
        _repeat(tracer, "reduce.simplify", _graph_key(tracer, inst.graph))


def _simplify_after(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    for step in getattr(result[1], "steps", ()):
        tracer.counters["reduce.steps." + step.kind] += 1


def _level_before(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    depth = args[4] if len(args) > 4 else kwargs.get("depth")
    if depth == 0:  # a root call: one decision k of the ascending search
        tracer.counters["solver.k_steps"] += 1


def _pattern_after(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    if result is not None:
        tracer.counters["graph.find_pattern.hit"] += 1


TARGETS = [
    Target("lp.core", "vcbranch.lp", "_lp_core", before=_lp_core_before),
    Target("lp.sweep", "vcbranch.lp", "minsurp_full", before=_sweep_before),
    Target("lp.shadow", "vcbranch.lp", "shadow"),
    Target("lp.shadow", "vcbranch.lp", "shadow_minus"),
    Target("lp.shadow", "vcbranch.lp", "is_blocker"),
    Target("lp.shadow", "vcbranch.lp", "find_blocker"),
    Target("lp.weight", "vcbranch.lp", "lp_weight2"),
    Target("reduce.simplify", "vcbranch.reduce", "simplify",
           before=_simplify_before, after=_simplify_after),
    Target("reduce.gain", "vcbranch.reduce", "reduction_gain"),
    Target("reduce.lift", "vcbranch.reduce", "lift_cover"),
    Target("graph.find_pattern", "vcbranch.graph", "Graph.find_pattern", after=_pattern_after),
    Target("graph.copy", "vcbranch.graph", "Graph.delete_vertices"),
    Target("graph.copy", "vcbranch.graph", "Graph.add_vertex_with_edges"),
    Target("graph.copy", "vcbranch.graph", "Graph.add_biclique"),
    Target("branching.select", "vcbranch.branching", "select_branch"),
    Target("branching.make_child", "vcbranch.branching", "make_child"),
    Target("solver.solve", "vcbranch.solver", "solve_optimum"),
    # a generator function: its span only covers creating the generator
    Target("solver.level", "vcbranch.solver", "_solve_level_gen", before=_level_before),
    Target("verify.audit", "vcbranch.verify", "make_audit_record"),
    Target("verify.oracle", "vcbranch.verify", "brute_force_vc"),
    Target("cli.parse", "vcbranch.cli", "parse_graph"),
]

BASE_RULES = ("base-maxis-split", "base-agvc-split")


def case_metric(case: str) -> str:
    return "branching.case." + case.replace("/", ".")


def per_layer(tracer: Tracer, stats: list, names: list[str], corpus_s: float,
              untraced_corpus_s: float, scale: float) -> dict[str, float]:
    """Per-layer values of one traced pass.

    ``stats`` holds the SolveStats of every instance that solved; ``names``
    are the declared metrics.  A selector case gets its own
    ``branching.case.*`` metric when one is declared and is counted in
    ``branching.case.other`` otherwise.  Span times are wall seconds;
    ``scale`` (calibrated / wall seconds of the traced pass) puts them in
    the calibrated seconds of ``corpus_s``.
    """
    spans = tracer.summary()
    count = tracer.counters

    def calls(span: str) -> int:
        return spans[span].calls if span in spans else 0

    def self_s(span: str) -> float:
        return spans[span].self_s * scale if span in spans else 0.0

    def share(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    nodes = sum(s.nodes for s in stats)
    rules: Counter = Counter()
    cases: Counter = Counter()
    for s in stats:
        rules.update(s.rule_counts)
        cases.update(s.selector.cases)
    out = {
        "lp.core.calls": calls("lp.core"),
        "lp.core.self_s": self_s("lp.core"),
        "lp.core.calls_per_node": calls("lp.core") / max(nodes, 1),
        "lp.core.repeat_ratio": share(count["lp.core.repeat"], calls("lp.core")),
        "lp.sweep.calls": calls("lp.sweep"),
        "lp.sweep.table_calls": count["lp.sweep.table"],
        "lp.sweep.self_s": self_s("lp.sweep"),
        "lp.shadow.calls": calls("lp.shadow"),
        "lp.weight.calls": calls("lp.weight"),
        "reduce.simplify.calls": calls("reduce.simplify"),
        "reduce.simplify.self_s": self_s("reduce.simplify"),
        "reduce.simplify.repeat_ratio": share(count["reduce.simplify.repeat"],
                                              calls("reduce.simplify")),
        "reduce.steps.P1": count["reduce.steps.P1"],
        "reduce.steps.P2": count["reduce.steps.P2"],
        "reduce.steps.P3": count["reduce.steps.P3"],
        "reduce.gain.calls": calls("reduce.gain"),
        "reduce.lift.calls": calls("reduce.lift"),
        "reduce.lift.self_s": self_s("reduce.lift"),
        "graph.find_pattern.calls": calls("graph.find_pattern"),
        "graph.find_pattern.self_s": self_s("graph.find_pattern"),
        "graph.find_pattern.hit_ratio": share(count["graph.find_pattern.hit"],
                                              calls("graph.find_pattern")),
        "graph.copy.calls": calls("graph.copy"),
        "graph.copy.self_s": self_s("graph.copy"),
        "branching.select.calls": calls("branching.select"),
        "branching.select.self_s": self_s("branching.select"),
        "branching.make_child.calls": calls("branching.make_child"),
        "branching.make_child.self_s": self_s("branching.make_child"),
        "branching.fallbacks": sum(s.selector.fallbacks for s in stats),
    }
    out.update({name: 0 for name in names if name.startswith("branching.case.")})
    for case, hits in cases.items():
        name = case_metric(case)
        out[name if name in out else "branching.case.other"] += hits
    out.update({
        "solver.self_s": self_s("solver.solve"),
        "solver.max_depth": max((s.max_depth for s in stats), default=0),
        "solver.base_nodes": sum(rules[r] for r in BASE_RULES),
        "solver.k_steps": count["solver.k_steps"],
        "verify.audit.records": sum(len(s.audit_records) for s in stats),
        "verify.audit.violations": sum(s.audit_violations for s in stats),
        "verify.audit.self_s": self_s("verify.audit"),
        "verify.oracle.calls": calls("verify.oracle"),
        "verify.oracle.self_s": self_s("verify.oracle"),
        "cli.parse.self_s": self_s("cli.parse"),
        "trace.corpus_s": corpus_s,
        "trace.overhead_s": corpus_s - untraced_corpus_s,
        "trace.hook_s": spans[HOOK].total_s * scale if HOOK in spans else 0.0,
        "trace.absent_targets": len(tracer.absent),
    })
    return out
