import ast
import inspect
import io
import json
import sys
from collections import Counter

import pytest

from vcbranch import branching, reduce, solver
from vcbranch.graph import Graph, complete, cycle
from vcbranch.lp import Instance, lp_weight2
from vcbranch.solver import (
    BudgetExhausted,
    SolveStats,
    SolverConfig,
    base_agvc,
    base_maxis,
    solve_decision,
    solve_optimum,
)
from vcbranch.cli import NAMED_GRAPHS, circulant, gnp, random_regular, render_graph, run_command
from vcbranch.verify import brute_force_vc

from oracle_utils import (
    exhaustive_vc, is_cover, random_corpus, replay_steps, shuffled_ids, shuffled_union,
)


PETERSEN = NAMED_GRAPHS["petersen"]()


@pytest.mark.parametrize("level", [4, 5, 6, 7])
def test_solve_decision_petersen(level):
    r = solve_decision(Instance(PETERSEN, 6), cfg=SolverConfig(level=level))
    assert r.feasible and is_cover(PETERSEN, r.cover) and len(r.cover) <= 6
    assert not solve_decision(Instance(PETERSEN, 5), cfg=SolverConfig(level=level)).feasible
    assert r.stats.nodes >= 1


@pytest.mark.parametrize("level", [4, 5, 6, 7])
def test_solve_decision_circulant(level):
    g = circulant(9, (1, 2))
    assert solve_decision(Instance(g, 6), cfg=SolverConfig(level=level)).feasible
    assert not solve_decision(Instance(g, 5), cfg=SolverConfig(level=level)).feasible


def test_solve_optimum_examples():
    assert solve_optimum(cycle(5))[0] == 3
    opt, cover, _ = solve_optimum(Graph())
    assert opt == 0 and cover == frozenset()
    assert solve_optimum(complete(4))[0] == 3


def test_base_maxis():
    assert base_maxis(Instance(cycle(6), 3)).feasible
    assert not base_maxis(Instance(cycle(7), 3)).feasible  # VC(C7) = 4
    assert base_maxis(Instance(complete(4), 3)).feasible
    assert not base_maxis(Instance(complete(4), 2)).feasible
    r = base_maxis(Instance(PETERSEN, 6))
    assert r.feasible and is_cover(PETERSEN, r.cover)


def test_base_maxis_derives_each_child_once(monkeypatch):
    """The MaxIS stand-in derives each branch child with one
    delete_vertices call, and the child's fold edits it in place instead of
    deriving a second copy; a child whose branch alone passes k is not
    derived.  Feasibility, cover and nodes equal those of a run whose folds
    never edit in place, and the input graph is unchanged."""
    derived = []
    delete = Graph.delete_vertices
    monkeypatch.setattr(Graph, "delete_vertices",
                        lambda self, s: derived.append(1) or delete(self, s))
    real = solver._fold_subquadratic
    cases = [(random_regular(30, 4, 1), 17, False, 23), (random_regular(30, 4, 1), 20, True, 6),
             (random_regular(40, 3, 2), 22, False, 16)]
    for g, k, feasible, calls in cases:
        edges = g.edges()
        derived.clear()
        r = base_maxis(Instance(g, k))
        assert r.feasible is feasible and len(derived) == calls <= 2 * r.stats.nodes, k
        assert g.edges() == edges
        with monkeypatch.context() as m:
            m.setattr(solver, "_fold_subquadratic", lambda g, k, own=False: real(g, k))
            derived.clear()
            copied = base_maxis(Instance(g, k))
        assert len(derived) > calls
        assert (r.feasible, r.cover, r.stats.nodes) == \
            (copied.feasible, copied.cover, copied.stats.nodes), k


def test_base_agvc():
    r = base_agvc(Instance(cycle(5), 2))  # k < ceil(lambda) = 3
    assert not r.feasible and r.stats.nodes == 0
    assert base_agvc(Instance(PETERSEN, 6)).feasible
    assert not base_agvc(Instance(PETERSEN, 5)).feasible


def _dovetail(inst):
    """The base-agvc (level 3) and base-maxis stand-ins interleaved as the
    levels run them."""
    cfg, stats = SolverConfig(), SolveStats()
    gen = solver._dovetail_gen(solver._solve_level_gen(inst, 3, cfg, stats, 0, solver._NoReuse()),
                               solver._maxis_gen(inst.graph, [inst.k], stats, cfg),
                               solver.DOVETAIL_QUANTUM)
    feasible, cover = solver._drive(gen)
    return feasible, cover, stats


def test_dovetail():
    # instant winner: agvc answers C5/k2 with zero nodes, maxis never runs
    feasible, _, stats = _dovetail(Instance(cycle(5), 2))
    assert not feasible and stats.nodes == 0
    # same answer as either solver alone
    feasible, cover, stats = _dovetail(Instance(PETERSEN, 6))
    assert feasible and is_cover(PETERSEN, cover) and len(cover) <= 6
    alone = base_maxis(Instance(PETERSEN, 6))
    assert feasible == alone.feasible
    # deterministic: identical stats across repeat runs
    feasible2, cover2, stats2 = _dovetail(Instance(PETERSEN, 6))
    assert stats2.nodes == stats.nodes and cover2 == cover


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


#: frames a search may use above its caller's, whatever its tree depth
_DEPTH_MARGIN = 100


@pytest.mark.parametrize("run, n, d", [(base_agvc, 600, 6), (base_maxis, 1500, 5)],
                         ids=["base_agvc", "base_maxis"])
def test_deep_search_under_a_low_recursion_limit(run, n, d):
    """Every search runs in a fixed number of frames: with the recursion
    limit _DEPTH_MARGIN frames above this test's own, a trivially feasible
    k = n search far deeper than that margin answers.  Such a search takes
    the first child at every node, so its depth is one less than its
    nodes: max_depth is booked at each node's true depth."""
    g = random_regular(n, d, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + _DEPTH_MARGIN)
    try:
        r = run(Instance(g, n))
    finally:
        sys.setrecursionlimit(limit)
    assert r.feasible and is_cover(g, r.cover)
    assert r.stats.max_depth == r.stats.nodes - 1 > _DEPTH_MARGIN


def test_budget_exhausted_carries_stats():
    g = circulant(13, (1, 2, 3))
    cfg = SolverConfig(level=6, node_budget=1)
    with pytest.raises(BudgetExhausted) as err:
        solve_decision(Instance(g, exhaustive_vc(g) - 1), cfg=cfg)
    assert err.value.stats.nodes >= 1


@pytest.mark.parametrize("run", [
    lambda g, cfg: base_maxis(Instance(g, 18), cfg),
    lambda g, cfg: base_agvc(Instance(g, 22), cfg),
    lambda g, cfg: solve_decision(Instance(g, 22), cfg=cfg),
    lambda g, cfg: solve_optimum(g, cfg),
], ids=["base_maxis", "base_agvc", "solve_decision", "solve_optimum"])
def test_budget_exhausted_books_wall_time(run):
    cfg = SolverConfig(level=4, node_budget=3)
    with pytest.raises(BudgetExhausted) as err:
        run(random_regular(40, 3, 1), cfg)
    assert err.value.stats.nodes == 4 and err.value.stats.wall_time > 0


def test_dovetail_turns(monkeypatch):
    """With a one-node quantum the dovetailed solvers take turns inside
    every small solve; the answers still match the oracle.  The pinned rule
    counts include nodes that a dovetail closed at their yield, so each
    solver must book its rule before it yields."""
    monkeypatch.setattr(solver, "DOVETAIL_QUANTUM", 1)
    pinned = {
        (4, 3, 20, 1): {"base-agvc-split": 2, "base-maxis-split": 2},
        (5, 3, 16, 2): {"base-agvc-split": 2, "base-maxis-split": 4},
        (5, 3, 20, 1): {"base-agvc-split": 2, "base-maxis-split": 4},
    }
    both = 0
    for level in (4, 5):
        for d in (3, 4):
            for n, seed in [(16, 2), (20, 1), (22, 0), (26, 1)]:
                g = random_regular(n, d, seed)
                opt, cover, stats = solve_optimum(g, SolverConfig(level=level))
                assert opt == brute_force_vc(g)[0], (level, d, n, seed)
                assert is_cover(g, cover) and len(cover) == opt
                rules = stats.rule_counts
                if (level, d, n, seed) in pinned:
                    assert rules == pinned[level, d, n, seed], (level, d, n, seed)
                both += rules["base-maxis-split"] > 0 and len(rules) >= 2
    assert both >= 8, both


def test_component_folding_of_a_shuffled_union(monkeypatch):
    """simplify leaves three 4-regular components; the two of at most
    COMPONENT_THRESHOLD vertices are solved apart and folded, the LP value
    left is that of the largest, and the ComponentSolve steps are lifted
    back into the optimum cover."""
    parts = [random_regular(10, 4, 0), random_regular(12, 4, 1), random_regular(26, 4, 2)]
    g, owners = shuffled_union(parts, 5)
    folded, lambdas = [], []
    real = solver._simplify_and_fold

    def recording(inst, depth, stats):
        out, trace = real(inst, depth, stats)
        folded.extend(set(s.removed) for s in trace.steps if s.kind == "ComponentSolve")
        lambdas.append((out.lambda2, lp_weight2(out.graph)))
        return out, trace

    monkeypatch.setattr(solver, "_simplify_and_fold", recording)
    opt, cover, _ = solve_optimum(g)
    assert opt == sum(brute_force_vc(part)[0] for part in parts)
    assert is_cover(g, cover) and len(cover) == opt
    assert {frozenset(c) for c in folded} == {frozenset(c) for c in owners[:2]}
    assert (26, 26) in lambdas and all(a == b for a, b in lambdas)


def _fold_one_component_at_a_time(inst: Instance):
    """The component fold with two whole-graph derivations per folded
    component: the graph minus everything else, then the graph minus it."""
    g, k, trace = inst.graph, inst.k, reduce.ReductionTrace()
    for comp in g.components():
        if len(comp) <= solver.COMPONENT_THRESHOLD:
            cover = solver._component_cover(
                g.delete_vertices([v for v in g.vertices() if v not in set(comp)]))
            g = g.delete_vertices(comp)
            k -= len(cover)
            trace.steps.append(reduce.ReductionStep(
                kind="ComponentSolve", removed=tuple(comp), dk=len(cover),
                comp_cover=tuple(sorted(cover))))
    return Instance(g, k, lambda2=g.n), trace


def test_component_fold_builds_each_part_from_its_own_rows(monkeypatch):
    """Folding c small side components derives each component's graph from
    its own rows and the remainder once: at most c + 1 derivations from a
    graph larger than a component, not 2c whole-graph copies (quadratic in
    c).  Trace, covers, k and the graph left equal the one-at-a-time fold."""
    parts = [random_regular(12, 4, seed) for seed in range(30)] + [random_regular(30, 4, 99)]
    g, _ = shuffled_union(parts, 7)
    inst = Instance(g, g.n, lambda2=g.n)
    expected, expected_trace = _fold_one_component_at_a_time(inst)
    sources = []
    derive = Graph._derive
    monkeypatch.setattr(Graph, "_derive",
                        lambda self, adj: sources.append(self.n) or derive(self, adj))
    out, trace = solver._simplify_and_fold(inst, 1, SolveStats())
    large = [n for n in sources if n > solver.COMPONENT_THRESHOLD]
    assert len(large) <= len(parts) + 1, len(large)
    assert len(trace.steps) == len(parts) - 1
    assert trace.steps == expected_trace.steps
    assert out.graph == expected.graph
    replay_steps(inst.graph, trace, out.graph)  # the steps lead to the graph left
    assert (out.k, out.lambda2) == (expected.k, expected.lambda2)


def test_level_independence_and_oracle_small():
    for seed in range(40):
        g = gnp(6 + seed % 8, (0.2, 0.35, 0.5)[seed % 3], seed)
        opt = exhaustive_vc(g)
        answers = set()
        for level in (4, 5, 6, 7):
            r = solve_decision(Instance(g, opt), cfg=SolverConfig(level=level))
            r0 = solve_decision(Instance(g, opt - 1), cfg=SolverConfig(level=level)) if opt else None
            answers.add((r.feasible, r0.feasible if r0 else None))
            assert r.feasible and is_cover(g, r.cover) and len(r.cover) <= opt
            if r0:
                assert not r0.feasible
        assert len(answers) == 1


def test_monotone_in_k():
    g = gnp(11, 0.4, 3)
    opt = exhaustive_vc(g)
    for k in range(opt, min(g.n, opt + 3) + 1):
        assert solve_decision(Instance(g, k)).feasible


def test_component_folding():
    # two components, both small: each is solved exactly and folded
    g = Graph(edges=[(0, 1), (1, 2), (2, 0)])
    g2 = NAMED_GRAPHS["petersen"]()
    for u, v in g2.edges():
        g.add_edge(u + 10, v + 10)
    opt = 2 + 6
    r = solve_decision(Instance(g, opt))
    assert r.feasible and is_cover(g, r.cover) and len(r.cover) <= opt
    assert not solve_decision(Instance(g, opt - 1)).feasible


@pytest.mark.parametrize("level", [0, 3, 8, 9])
@pytest.mark.parametrize("entry", ["solve_decision", "solve_optimum"])
def test_entry_points_reject_a_level_outside_4_to_7(entry, level):
    """Both entry points reject a level that no selector covers, before any
    search: level 9 would ask the rates of a level 8 that has none, and
    levels below 4 would run the level-3 stand-in and book no rule."""
    cfg = SolverConfig(level=level)
    with pytest.raises(ValueError, match=f"level must be 4..7, got {level}"):
        if entry == "solve_decision":
            solve_decision(Instance(PETERSEN, 6), cfg=cfg)
        else:
            solve_optimum(PETERSEN, cfg)


def test_fresh_stats_share_no_container():
    """Each SolveStats starts from zero with containers of its own."""
    a, b = SolveStats(), SolveStats()
    a.rule_counts["split"] += 1
    a.audit_records.append(None)
    a.selector.note("fallback/split")
    assert b.rule_counts == Counter() and b.audit_records == []
    assert b.selector.cases == {} and b.selector.fallbacks == 0
    assert (b.nodes, b.max_depth, b.audit_violations, b.wall_time, b.component_nodes) == (
        0, 0, 0, 0.0, 0)


def test_stats_shape():
    r = solve_decision(Instance(PETERSEN, 6), cfg=SolverConfig(audit=True))
    st = r.stats
    assert st.nodes >= 1 and st.max_depth >= 0
    assert st.wall_time >= 0
    assert st.audit_violations == 0
    assert sum(st.rule_counts.values()) >= 1


def _search_summary(stats):
    audit = [(r.rule, r.claimed, r.realized, r.violation) for r in stats.audit_records]
    return stats.nodes, stats.rule_counts, Counter(stats.selector.cases), audit


@pytest.mark.parametrize("n,d,level,seed", [
    (24, 4, 4, 1), (20, 5, 5, 2), (22, 5, 6, 1), (18, 6, 7, 2),
    (40, 3, 4, 1),  # 3-regular: reaches the base-agvc stand-in
])
def test_optimum_search_equals_separate_decisions(n, d, level, seed):
    """Replaying cached work across k changes no node, rule, case or cover."""
    g = random_regular(n, d, seed)
    cfg = SolverConfig(level=level, audit=True)
    opt, cover, stats = solve_optimum(g, cfg)
    first = (Instance(g, 0).lambda2 + 1) // 2
    assert opt > first  # several decision values k are tried
    nodes, rules, cases, audit = 0, Counter(), Counter(), []
    for k in range(first, opt + 1):
        r = solve_decision(Instance(g, k), cfg=cfg)
        assert r.feasible == (k == opt)
        k_nodes, k_rules, k_cases, k_audit = _search_summary(r.stats)
        nodes += k_nodes
        rules += k_rules
        cases += k_cases
        audit += k_audit
    assert (nodes, rules, cases, audit) == _search_summary(stats)
    assert cover == r.cover
    if d == 3:
        assert rules["base-agvc-split"] > 0


def test_search_cache_does_not_outlive_the_call(monkeypatch):
    calls = []
    real = reduce.simplify

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "simplify", counting)
    monkeypatch.setattr(branching, "simplify", counting)
    g = random_regular(22, 5, 1)
    cfg = SolverConfig(level=6)
    first = solve_optimum(g, cfg)
    per_call = len(calls)
    second = solve_optimum(g, cfg)
    assert per_call > 0 and len(calls) == 2 * per_call
    assert first[:2] == second[:2] and first[2].nodes == second[2].nodes


def test_component_cover_is_minimum():
    graphs = [g for _, g in random_corpus(60, n_max=14, n_min=1)]
    # regular graphs: the first cover found is often not a minimum one
    graphs += [random_regular(12, d, seed) for d in (3, 4, 5) for seed in range(8)]
    graphs += [Graph(vertices=range(n)) for n in (1, 5)]  # edgeless
    graphs.append(Graph(edges=[(0, 1), (1, 2), (2, 0), (5, 6), (7, 8), (8, 9)]))
    assert sum(len(g.components()) > 1 for g in graphs) >= 10
    for g in graphs:
        cover = solver._component_cover(g)
        assert cover <= set(g.vertices()) and is_cover(g, cover)
        assert len(cover) == exhaustive_vc(g)


def _restart_loop_cover(g: Graph) -> frozenset[int]:
    """The component fold as base-maxis decisions: k = n, then one less
    than each cover found; the last cover found."""
    best, k = None, g.n
    while True:
        result = base_maxis(Instance(g, k, lambda2=0))
        if not result.feasible:
            return best
        best, k = result.cover, len(result.cover) - 1


def test_component_cover_equals_the_restart_loop(monkeypatch):
    """One branch-and-bound pass returns the very cover of the restart loop,
    folds no more often on any graph and less often in all, picks the same
    branch vertices and leaves its input graph as it was."""
    graphs = [g for _, g in random_corpus(40, n_max=16, n_min=4)]
    regular = [random_regular(n, d, seed) for n in (12, 16, 20, 24) for d in (3, 4, 5)
               for seed in (1, 2)]
    graphs += regular + [shuffled_ids(g, 3) for g in regular[::3]]
    graphs += [Graph(vertices=range(n)) for n in (0, 1, 6)]  # edgeless
    graphs.append(Graph(edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (7, 8),
                               (8, 9), (9, 7), (9, 10), (11, 12), (12, 13), (13, 11)]))
    folds = []
    real = solver._fold_subquadratic
    monkeypatch.setattr(solver, "_fold_subquadratic",
                        lambda *args: folds.append(1) or real(*args))
    one_pass = restarts = 0
    for g in graphs:
        before = g.copy()
        folds.clear()
        expected = _restart_loop_cover(g)
        loop_folds = len(folds)
        folds.clear()
        assert solver._component_cover(g) == expected
        assert len(folds) <= loop_folds
        one_pass += len(folds)
        restarts += loop_folds
        assert g == before and g.edges() == before.edges()
        if g.n:
            top = max(g.degree(v) for v in g.vertices())
            assert g.top_vertex() == min(v for v in g.vertices() if g.degree(v) == top)
    assert one_pass < restarts


def test_component_nodes_are_booked_once_per_preprocessed_graph():
    """component_nodes counts the fold's branch nodes apart from nodes: the
    optimum search books each folded graph once, as one decision run at the
    optimum does, two runs agree, and a graph without side components
    books none."""
    parts = [random_regular(10, 4, 0), random_regular(12, 4, 1), random_regular(26, 4, 2)]
    g, _ = shuffled_union(parts, 5)
    opt, _, stats = solve_optimum(g)
    assert opt > (Instance(g, 0).lambda2 + 1) // 2  # several decision values k are tried
    assert stats.component_nodes > 0
    assert solve_optimum(g)[2].component_nodes == stats.component_nodes
    assert solve_decision(Instance(g, opt)).stats.component_nodes == stats.component_nodes
    assert solve_optimum(random_regular(26, 4, 2))[2].component_nodes == 0


def test_solver_binds_no_oracle():
    """The solver takes the published rates and the audit record from
    verify, and nothing else: small components are solved in-layer."""
    from_verify = set()
    for node in ast.walk(ast.parse(inspect.getsource(solver))):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith("verify"):
                from_verify.update(alias.name for alias in node.names)
            else:
                assert "verify" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("verify") for alias in node.names)
    assert from_verify == {"AGVC_RATE", "MAXIS_RATES", "AuditRecord", "make_audit_record"}
    bound = {name for name, value in vars(solver).items()
             if getattr(value, "__module__", None) == "vcbranch.verify"}
    assert bound == {"AuditRecord", "make_audit_record"}


def test_level4_hands_base_agvc_a_preprocessed_graph(monkeypatch):
    """Within one decision run simplify never receives a graph that it was
    given or returned before: level 3 (base-agvc) only folds the graph that
    level 4 preprocessed."""
    seen, repeats = {}, []
    real = reduce.simplify

    def tracking(inst, *args, **kwargs):
        if id(inst.graph) in seen:
            repeats.append(inst.graph)
        out, trace = real(inst, *args, **kwargs)
        seen[id(inst.graph)] = inst.graph
        seen[id(out.graph)] = out.graph
        return out, trace

    monkeypatch.setattr(solver, "simplify", tracking)
    monkeypatch.setattr(branching, "simplify", tracking)
    cfg = SolverConfig(level=4)
    agvc_nodes = 0
    for seed in range(1, 6):
        g = random_regular(40, 3, seed)
        opt = solve_optimum(g, cfg)[0]
        for k in (opt - 1, opt):
            seen.clear()
            r = solve_decision(Instance(g, k), cfg=cfg)
            assert r.feasible == (k == opt)
            agvc_nodes += r.stats.rule_counts["base-agvc-split"]
    assert agvc_nodes > 0
    assert repeats == []


def test_optimum_search_past_n_is_a_solver_bug(monkeypatch):
    """k = n always admits a cover, so a decision run that answers
    infeasible there is a solver bug: solve_optimum raises rather than
    search on."""
    monkeypatch.setattr(solver, "_run", lambda inst, gen, stats, started:
                        solver.SolveResult(False, None, stats))
    with pytest.raises(AssertionError, match="optimum search exceeded n"):
        solve_optimum(PETERSEN)


def test_run_rejects_a_cover_with_a_vertex_outside_the_input(monkeypatch):
    """A cover naming a vertex the input lacks is a solver bug, even when
    it covers every edge within k: the CLI would print a vertex past n."""
    drive = solver._drive

    def padded(gen):
        feasible, cover = drive(gen)
        return feasible, cover | {999} if feasible else cover

    monkeypatch.setattr(solver, "_drive", padded)
    with pytest.raises(AssertionError, match=r"not in the graph=\[999\]"):
        solve_decision(Instance(PETERSEN, 10))


def test_a_bad_cover_fails_the_solve_that_made_it(monkeypatch, tmp_path):
    """lift_cover checks nothing; a node that branched checks the cover of
    its own graph, and _run checks the input's cover and its size."""
    lift = solver.lift_cover

    def lossy(trace, cover):
        out = lift(trace, cover)
        return out - {min(out)} if out else out

    monkeypatch.setattr(solver, "lift_cover", lossy)
    with pytest.raises(AssertionError, match=r"uncovered=\[\(\d+, \d+\)"):
        solve_optimum(random_regular(30, 5, 1), SolverConfig(level=5))
    path = tmp_path / "petersen.gr"
    path.write_text(render_graph(PETERSEN))
    buf = io.StringIO()
    assert run_command(["optimize", str(path), "--json"], stdout=buf) == 4  # never 1
    assert json.loads(buf.getvalue().splitlines()[-1])["exception"] == "AssertionError"

    monkeypatch.setattr(solver, "lift_cover", lift)
    drive = solver._drive

    def grown(gen):
        feasible, cover = drive(gen)
        return feasible, cover | {min(set(PETERSEN.vertices()) - cover)}

    monkeypatch.setattr(solver, "_drive", grown)
    with pytest.raises(AssertionError, match="size 7 > k = 6"):
        solve_decision(Instance(PETERSEN, 6))


def test_each_branched_graph_is_checked_once(monkeypatch):
    """One check per node, each on its own graph, plus _run's on the input."""
    graphs = []
    checked = solver._checked

    def counted(g, cover):
        graphs.append(g)
        return checked(g, cover)

    monkeypatch.setattr(solver, "_checked", counted)
    inst = Instance(random_regular(300, 6, 1), 300)
    result = base_agvc(inst)
    assert result.feasible
    assert len(graphs) == result.stats.nodes + 1 == 100
    # checks run bottom-up; the root branched on the input itself (no step applies)
    assert len({id(g) for g in graphs[:-1]}) == result.stats.nodes
    assert graphs[-1] is inst.graph is graphs[-2]
