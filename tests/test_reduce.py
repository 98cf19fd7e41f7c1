import math
import random
from collections import Counter

import pytest

from vcbranch.graph import Graph, complete, cycle, path, star
from vcbranch.lp import (
    Instance,
    _DELETED,
    _LPEngine,
    _engine,
    _msm_zeroset,
    _peel,
    _residual_two_connected,
    find_nonsingleton_minset,
    low_entries,
    lp_weight2,
    minsurp,
    minsurp_full,
    tight_vertices,
    zero_surplus_cert,
)
from vcbranch import reduce
from vcbranch.reduce import (
    ReductionTrace, _p1_step, _p2_step, _p3_step, lift_cover, reduction_gain, simplify,
)
from vcbranch.solver import _fold_subquadratic
from vcbranch.cli import circulant, gnp, hypercube, random_regular

from oracle_utils import exhaustive_vc, is_cover, replay_steps, shuffled_ids


def test_apply_p1():
    """P1 deletes N[I] and charges |N(I)| to the cover."""
    g = Graph(vertices=[0], edges=[])
    g.add_edge(1, 2)  # isolated 0 plus an edge
    g2, step = _p1_step(g, frozenset({0}))
    assert step.dk == 0 and 0 not in g2

    pend = path(2)  # 0-1, deg(0)=1
    g2, step = _p1_step(pend, frozenset({0}))
    assert step.dk == 1 and g2.n == 0

    g2, step = _p1_step(star(3), frozenset({1, 2, 3}))
    assert step.dk == 1 and g2.n == 0
    assert exhaustive_vc(star(3)) == 1


def test_apply_p2():
    """P2 folds I and N(I) into a fresh vertex y and charges |I|."""
    g2, step = _p2_step(cycle(4), frozenset({0}))
    assert step.dk == 1
    assert g2.edges() == [(2, step.created)]

    p3 = path(3)  # a-b-c = 0-1-2
    g2, step = _p2_step(p3, frozenset({1}))
    assert step.dk == 1
    assert g2.degree(step.created) == 0

    g2, step = _p2_step(cycle(5), frozenset({0}))
    assert step.dk == 1
    assert g2.edges() == [(2, 3), (2, step.created), (3, step.created)]
    assert exhaustive_vc(g2) == 2


def test_apply_p3():
    """P3 folds a funnel (u, x) and charges 1 + codeg(u, x)."""
    g2, step = _p3_step(complete(3), 0, 1)
    assert g2.n == 0 and step.dk == 2
    assert exhaustive_vc(complete(3)) == 2

    kite = Graph(edges=[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    g2, step = _p3_step(kite, 0, 1)
    assert step.dk == 2
    assert g2.vertices() == [3] and g2.degree(3) == 0

    # funnel with disjoint outer neighborhoods: biclique B_u x B_x appears
    g = Graph(edges=[(0, 1), (0, 2), (0, 3), (2, 3),        # funnel 0, out 1
                     (1, 4), (1, 5), (2, 6), (3, 7)])
    assert g.find_pattern() == ("funnel", 0, 1)
    g2, step = _p3_step(g, 0, 1)
    assert step.shared == ()
    for b_u in (2, 3):
        for b_x in (4, 5):
            assert g2.has_edge(b_u, b_x)
    assert step.dk == 1


def test_simplify_q4():
    inst, trace = simplify(Instance(hypercube(4), 8))
    assert inst.graph.n == 0 and inst.k == 0
    assert trace.total_dk == 8
    assert all(s.kind == "P1" for s in trace.steps)


def test_simplify_c4_and_c9_12():
    inst, trace = simplify(Instance(cycle(4), 2))
    assert inst.graph.n == 0 and inst.k == 0

    inst, trace = simplify(Instance(circulant(9, (1, 2)), 6))
    assert not trace.steps and inst.graph.n == 9
    g = inst.graph
    assert g.min_degree() >= 3
    assert g.find_pattern() is None
    assert minsurp(g).surplus >= 2


def test_simplify_triangle_uses_funnel_not_fold():
    # the degree-2 fold is unsound on a triangle; the policy must go P3
    inst, trace = simplify(Instance(complete(3), 2))
    assert [s.kind for s in trace.steps] == ["P3"]
    assert inst.k == 0 and inst.graph.n == 0
    inst, _ = simplify(Instance(complete(3), 1))
    assert inst.k < 0  # k=1 is infeasible and stays visibly so


def test_simplify_postconditions_random():
    for seed in range(40):
        g = gnp(6 + seed % 9, (0.2, 0.35, 0.5)[seed % 3], seed)
        inst, trace = simplify(Instance(g, g.n))
        out = inst.graph
        assert inst.lambda2 == lp_weight2(out) == out.n  # all-half is optimal
        if out.n:
            assert out.min_degree() >= 3
            assert out.find_pattern() is None
            assert minsurp(out).surplus >= 2
        # lift of the empty-extension is consistent in size
        opt_red = exhaustive_vc(out) if out.n <= 14 else None
        if opt_red is not None:
            assert exhaustive_vc(g) == opt_red + trace.total_dk


def _steps_with_snapshots(g, k):
    """(graph before, step, graph after) for each step simplify takes on g."""
    inst, trace = simplify(Instance(g, k))
    return replay_steps(g, trace, inst.graph)


def test_rule_safety_and_mu_monotone_random():
    for seed in range(30):
        g = gnp(6 + seed % 7, (0.25, 0.4)[seed % 2], seed)
        for gb, step, ga in _steps_with_snapshots(g, g.n):
            # exact feasibility transfer: VC(before) = VC(after) + dk
            assert exhaustive_vc(gb) == exhaustive_vc(ga) + step.dk
            # mu monotone: dk - dlambda >= 0, in doubled integers
            dl2 = Instance(gb, 0).lambda2 - Instance(ga, 0).lambda2
            assert 2 * step.dk - dl2 >= 0


def test_kite_bonus():
    # kite fold with minsurp >= 1: dk = 2 and mu drops by >= 1/2
    kite_plus = Graph(edges=[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3),
                             (1, 4), (3, 4), (1, 5), (3, 5), (4, 5)])
    assert minsurp(kite_plus).surplus >= 1
    inst0 = Instance(kite_plus, 5)
    g2, step = _p3_step(kite_plus, 0, 1)
    inst = Instance(g2, inst0.k - step.dk)
    assert step.dk == 2
    assert inst0.mu2 - inst.mu2 >= 1


def test_guaranteed_simplification_bounds():
    # non-adjacent subquadratic vertices with codeg 0 force S(G) >= 2
    g = Graph(edges=[(0, 1), (2, 3)])
    _, trace = simplify(Instance(g, 2))
    assert trace.total_dk >= 2

    # 2-vertices at pairwise distance >= 3: S(G) >= count
    g = path(8)  # interior degree-2 vertices 1..6; pick 1, 4 at distance 3
    _, trace = simplify(Instance(g, 4))
    assert trace.total_dk >= 2

    # surp(I) <= 1 and minsurp >= 0 gives S(G) >= |I| (here I = {0, 2} in C4)
    c4 = cycle(4)
    assert minsurp(c4).surplus == 0
    _, trace = simplify(Instance(c4, 2))
    assert trace.total_dk >= 2


def test_lift_cover():
    inst, trace = simplify(Instance(cycle(4), 2))
    lifted = lift_cover(trace, [])
    assert is_cover(cycle(4), lifted) and len(lifted) == 2

    k3 = complete(3)
    _, step = _p3_step(k3, 0, 1)
    tr = ReductionTrace(steps=[step])
    lifted = lift_cover(tr, [])
    assert is_cover(k3, lifted) and len(lifted) == 2

    # identity: empty trace leaves the cover unchanged
    tr = ReductionTrace()
    assert lift_cover(tr, [0, 2]) == {0, 2}

    # the replay checks nothing: a non-cover of the reduced graph lifts to
    # a non-cover (vcbranch.solver checks each node's cover)
    g = circulant(9, (1, 2))
    inst, trace = simplify(Instance(g, 6))
    assert inst.graph.n and not is_cover(g, lift_cover(trace, []))

    with pytest.raises(ValueError, match="unknown step kind 'P9'"):
        lift_cover(ReductionTrace([step._replace(kind="P9")]), [])


def test_fresh_traces_share_no_steps():
    a, b = ReductionTrace(), ReductionTrace()
    a.steps.append(_p3_step(complete(3), 0, 1)[1])
    assert b.steps == [] and ReductionTrace.__slots__ == ("steps",)  # and no graph


def test_lift_size_identity_random():
    for seed in range(25):
        g = gnp(6 + seed % 8, 0.3, seed)
        inst, trace = simplify(Instance(g, g.n))
        out = inst.graph
        # some cover of the reduced graph: all vertices with an edge
        reduced_cover = {u for e in out.edges() for u in e}
        lifted = lift_cover(trace, reduced_cover)
        assert is_cover(g, lifted)
        assert len(lifted) == len(reduced_cover) + trace.total_dk


def test_trace_serialization():
    _, trace = simplify(Instance(cycle(4), 2))
    text = "\n".join(step.serialize() for step in trace.steps)
    assert text.splitlines()
    for line in text.splitlines():
        kind = line.split()[0]
        assert kind in ("P1", "P2", "P3", "ComponentSolve")
        assert "removed=" in line and "dk=" in line


def _table_policy_simplify(inst: Instance) -> tuple[Instance, ReductionTrace]:
    """The rule policy of vcbranch.reduce with every step past the one-LP
    fast path decided from a full minsurp table: the reference that
    simplify's shortcuts must agree with."""
    g, k = inst.graph, inst.k
    trace = ReductionTrace()
    while g.n:
        msm, zero = _msm_zeroset(g, frozenset())
        ms, cert, table = minsurp_full(g, need_table=True)
        if msm < 0:
            g2, step = _p1_step(g, zero)
        elif ms <= 0:
            g2, step = _p1_step(g, frozenset(cert))
        elif ms == 1:
            deg2 = [x for x in g.vertices() if g.degree(x) == 2]
            indep2 = [x for x in deg2 if not g.has_edge(*sorted(g.neighbors(x)))]
            candidates = [(len(c), x, c) for x, (v, c) in sorted(table.items()) if v == 1]
            indep = [t for t in candidates if g.is_independent(g.neighborhood(t[2]))]
            match = g.find_pattern()
            if indep2:
                g2, step = _p2_step(g, frozenset({indep2[0]}))
            elif deg2:
                g2, step = _p3_step(g, deg2[0], min(g.neighbors(deg2[0])))
            elif indep:
                g2, step = _p2_step(g, frozenset(min(indep)[2]))
            elif match is not None:
                g2, step = _p3_step(g, match.u, match.out)
            else:
                g2, step = _p1_step(g, frozenset(min(candidates)[2]))
        else:
            match = g.find_pattern()
            if match is None:
                break
            g2, step = _p3_step(g, match.u, match.out)
        trace.steps.append(step)
        g, k = g2, k - step.dk
    return Instance(g, k), trace


def _sweep_nonsingleton_minset(g: Graph, table: dict, target: int):
    """find_nonsingleton_minset with its second pass as a minsurp sweep."""
    second_pass = []
    for x in sorted(table):
        v_x, cert_x = table[x]
        if v_x != target:
            continue
        if len(cert_x) >= 2:
            return cert_x
        second_pass.append(x)
    for x in second_pass:
        closed = g.neighborhood([x], closed=True)
        if len(closed) < g.n:
            value, cert, _ = minsurp_full(g, frozenset(closed))
            if value == 0:
                return frozenset(cert) | {x}
    return None


def test_simplify_equals_the_table_policy(monkeypatch):
    """simplify reads surplus-0 witnesses off the LP matching and skips the
    table when a degree-2 vertex fixes minsurp at 1; its trace and result
    equal those of the policy that builds the full table at every step."""
    graphs = [gnp(n, 3 / n, seed) for seed in range(3) for n in range(20, 121, 20)]
    graphs += [gnp(8 + seed % 9, (0.2, 0.35, 0.5)[seed % 3], seed) for seed in range(30)]
    graphs += [random_regular(16 + 2 * seed, d, seed) for seed in range(4) for d in (3, 4)]
    graphs += [cycle(n) for n in (5, 6, 9, 12, 31)] + [hypercube(4), circulant(12, [1, 2])]
    # certified P3 chains: minsurp >= 2 at most steps, so the certificate
    # decides them before any tight pass
    graphs += [random_regular(n, d, seed).delete_vertices(range(cut))
               for seed, (n, d, cut) in enumerate([(24, 5, 1), (28, 5, 2), (30, 6, 1), (32, 6, 2)])]
    second_pass_hits = certified_p3 = 0

    p3_step = reduce._p3_step

    def count_certified_p3(g, u, x, own=False):
        # read before the step: a later step edits g and its engine in place
        nonlocal certified_p3
        certified_p3 += g._lp is not None and g._lp.certified is True
        return p3_step(g, u, x, own)

    monkeypatch.setattr(reduce, "_p3_step", count_certified_p3)
    for seed, g in enumerate(graphs):
        g = shuffled_ids(g, seed)
        inst, trace = simplify(Instance(g, g.n))
        ref_inst, ref_trace = _table_policy_simplify(Instance(g, g.n))
        assert trace.steps == ref_trace.steps, seed
        assert inst.k == ref_inst.k, seed
        assert inst.lambda2 == lp_weight2(inst.graph) == ref_inst.lambda2, seed
        assert inst.graph.vertices() == ref_inst.graph.vertices(), seed
        assert inst.graph.edges() == ref_inst.graph.edges(), seed
        if g.n:
            _, _, table = minsurp_full(g, need_table=True)
            for target in (0, 1, 2):
                found = find_nonsingleton_minset(g, table, target)
                assert found == _sweep_nonsingleton_minset(g, table, target), (seed, target)
                if found is not None and all(len(c) < 2 for v, c in table.values()
                                             if v == target):
                    second_pass_hits += 1
    assert second_pass_hits >= 5 and certified_p3 >= 10, (second_pass_hits, certified_p3)


def _peel_graphs(monkeypatch) -> list[Graph]:
    """Mixed-degree graphs: simplified 5- and 6-regular graphs with a few
    vertices deleted, simplified G(n, p), and the graphs the selector hands
    find_nonsingleton_minset during level-7 solves (some have a surplus-2
    pair that only the gap case finds)."""
    from vcbranch import branching
    from vcbranch.solver import SolverConfig, solve_optimum

    graphs = []
    for seed in range(12):
        rng = random.Random(seed)
        for n, d in ((24, 5), (26, 5), (30, 6)):
            g = simplify(Instance(random_regular(n, d, seed), n))[0].graph
            graphs.append(g.delete_vertices(rng.sample(g.vertices(), 2 + seed % 6)))
        for n, c in ((30, 4.5), (36, 5.0), (40, 4.0)):
            graphs.append(simplify(Instance(gnp(n, c / n, seed), n))[0].graph)
    find = branching.find_nonsingleton_minset
    monkeypatch.setattr(branching, "find_nonsingleton_minset",
                        lambda g, table, target: graphs.append(g.delete_vertices([]))
                        or find(g, table, target))
    for seed in range(3):
        for g in (random_regular(30, 6, seed), random_regular(32, 5, seed)):
            solve_optimum(g, SolverConfig(level=7))
    return [g for g in graphs if g.n]


def test_peel_drops_only_candidates_without_a_surplus_zero_set(monkeypatch):
    """For minsurp(G) >= t and T = low_entries(G, t) with no non-singleton
    certificate at v_x == t, every gap-case candidate the peel drops has
    zero_surplus_cert(G - N[x]) None, and find_nonsingleton_minset equals
    the sweep, for t = 1 and t = 2."""
    dropped = {1: 0, 2: 0}
    found = 0
    for i, g in enumerate(_peel_graphs(monkeypatch)):
        value = minsurp_full(g)[0]
        for t in (1, 2):
            if value < t:
                continue
            table = low_entries(g, t)
            assert find_nonsingleton_minset(g, table, t) == \
                _sweep_nonsingleton_minset(g, table, t), (i, t)
            if any(len(c) >= 2 for v, c in table.values() if v == t):
                continue
            cands = [x for x in sorted(table) if table[x][0] == t]
            kept = _peel(g, cands, t)
            assert kept == [x for x in cands if x in kept], (i, t)
            for x in cands:
                cert = zero_surplus_cert(g, g.neighborhood([x], closed=True))
                if x not in kept:
                    assert cert is None, (i, t, x)
                    dropped[t] += 1
                else:
                    found += cert is not None
    assert dropped[1] >= 5 and dropped[2] >= 100 and found >= 5, (dropped, found)


def test_peel_pins_the_gap_case_tight_passes(monkeypatch):
    """On simplified G(40, 0.1), seed 9, the gap case has 6 candidates and
    none has a surplus-0 set in G - N[x]; the peel keeps 3, so
    find_nonsingleton_minset makes exactly 3 masked tight passes."""
    g = simplify(Instance(gnp(40, 4 / 40, 9), 40))[0].graph
    table = low_entries(g, 2)
    assert sorted(v for v, _ in table.values()) == [2] * 6
    passes = 0
    tight = _LPEngine.tight

    def counted(self, excluded):
        nonlocal passes
        passes += 1
        return tight(self, excluded)

    monkeypatch.setattr(_LPEngine, "tight", counted)
    assert find_nonsingleton_minset(g, table, 2) is None
    assert passes == 3


def test_simplify_long_odd_cycle_makes_linear_lp_solves(monkeypatch):
    """A 401-cycle folds down by P2 steps; no step may sweep all vertices."""
    calls = 0
    solve = _LPEngine.solve

    def counted(self, excluded):
        nonlocal calls
        calls += 1
        return solve(self, excluded)

    monkeypatch.setattr(_LPEngine, "solve", counted)
    inst, trace = simplify(Instance(shuffled_ids(cycle(401), 5), 201))
    assert inst.graph.n == 0 and trace.total_dk == 201
    assert calls <= 1000


def test_simplify_long_cycle_derives_every_engine(monkeypatch):
    """A shuffled 1001-cycle folds to the empty graph.  Each degree-2 fold
    decides that the next graph has no tight vertex, so one tight pass is
    made and only the graphs that ask for an LP build an engine (the input
    and the empty result); each engine after the input's is derived from
    its parent's, so no fold costs a full matching."""
    passes = builds = cold = 0
    tight, init = _LPEngine.tight, _LPEngine.__init__

    def counted_tight(self, excluded):
        nonlocal passes
        passes += 1
        return tight(self, excluded)

    def counted_init(self, *args):  # args: adj_map[, parent engine]
        nonlocal builds, cold
        builds += 1
        cold += len(args) < 2 or args[1] is None
        init(self, *args)

    monkeypatch.setattr(_LPEngine, "tight", counted_tight)
    monkeypatch.setattr(_LPEngine, "__init__", counted_init)
    inst, trace = simplify(Instance(shuffled_ids(cycle(1001), 7), 501))
    assert inst.graph.n == 0 and trace.total_dk == 501
    assert cold == 1
    assert passes <= 2 and builds <= 3


def _k4_ring(blocks: int) -> Graph:
    """A ring of K4 blocks, each sharing one vertex with the next."""
    g = Graph()
    n = 3 * blocks
    for b in range(blocks):
        block = [3 * b, 3 * b + 1, 3 * b + 2, (3 * b + 3) % n]
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                g.add_edge(u, v)
    return g


def test_simplify_edits_one_graph_in_place(monkeypatch):
    """A run derives one graph with delete_vertices and edits it in place
    from then on.  On a shuffled 5001-cycle every step but the last is a
    degree-2 fold and no step builds an engine.  On a ring of 300 K4 blocks
    every step asks the LP engine, which is edited with the graph and
    rebuilt only once its deleted slots outnumber its live ones, so the
    builds grow like log n, not like the number of steps."""
    copies = builds = 0
    delete_vertices, init = Graph.delete_vertices, _LPEngine.__init__

    def counted_copy(self, s):
        nonlocal copies
        copies += 1
        return delete_vertices(self, s)

    def counted_init(self, *args):
        nonlocal builds
        builds += 1
        init(self, *args)

    monkeypatch.setattr(Graph, "delete_vertices", counted_copy)
    monkeypatch.setattr(_LPEngine, "__init__", counted_init)
    for g, k, kinds, k_after in [
            (shuffled_ids(cycle(5001), 11), 2501, {"P2": 2499, "P3": 1}, 0),
            (shuffled_ids(_k4_ring(300), 3), 900, {"P3": 299, "P1": 1}, 300)]:
        inst = Instance(g, k)  # builds the input's engine
        copies = builds = 0
        out, trace = simplify(inst)
        assert Counter(step.kind for step in trace.steps) == kinds
        assert out.graph.n == 0 and out.k == k_after and trace.total_dk == k - k_after
        assert copies == 1 and builds <= math.log2(g.n), (copies, builds)


def test_reduction_runs_leave_their_input_unchanged():
    """simplify, reduction_gain and the base solver's fold edit only the
    graph their first step derives: the graph passed in keeps its edges and
    its engine, which still answers as a cold engine does."""
    graphs = [gnp(n, c / n, seed) for seed, n in enumerate(range(12, 60, 6)) for c in (2.0, 3.5)]
    graphs += [random_regular(n, d, seed) for seed in range(3) for n, d in [(20, 3), (24, 5)]]
    graphs += [cycle(41), _k4_ring(12)]
    for seed, g in enumerate(graphs):
        g = shuffled_ids(g, seed)
        edges = g.edges()
        engine = _engine(g)
        verts = g.vertices()
        runs = [lambda: simplify(Instance(g, g.n)),
                lambda: reduction_gain(g, verts[:2]),
                lambda: _fold_subquadratic(g, g.n)]
        for run in runs:
            run()
            assert g.edges() == edges and g._lp is engine and len(engine.index) == len(engine.verts)
            cold = _LPEngine(g._adj)
            for mask in [frozenset(), frozenset(verts[1::7]), g.neighborhood([verts[0]], closed=True)]:
                assert engine.solve(mask) == cold.solve(mask), seed
                assert engine.tight(mask) == cold.tight(mask), seed


def test_reduction_gain_derives_one_graph(monkeypatch):
    """reduction_gain derives G - X once and hands it to simplify, whose
    first step edits it in place: a call that takes a step makes exactly
    one delete_vertices call."""
    derived = []
    derive = Graph.delete_vertices
    monkeypatch.setattr(Graph, "delete_vertices",
                        lambda self, s: derived.append(self) or derive(self, s))
    g = cycle(9)
    assert reduction_gain(g, [0]) == 4
    assert derived == [g]


def test_simplify_certifies_before_the_tight_pass(monkeypatch):
    """On 6-regular graphs minus a vertex most steps have minsurp >= 2.
    simplify asks the certificate before the tight pass whenever the
    minimum degree is at least 3, so a tight pass runs only on a graph
    whose certificate declines or that has a vertex of degree below 3."""
    calls: list[bool] = []
    tight = _LPEngine.tight

    def recorded(self, excluded):
        # checked at call time: later steps edit the engine in place
        degree = min(len(row) for row, stamp in zip(self.adj, self._stamp) if stamp != _DELETED)
        calls.append(degree < 3 or not _residual_two_connected(self))
        return tight(self, excluded)

    monkeypatch.setattr(_LPEngine, "tight", recorded)
    certified = 0
    for n, seed in [(36, 14), (40, 5), (44, 5)]:
        g = random_regular(n, 6, seed)
        for cut in ([0], [0, 1], sorted(g.neighbors(0))[:2]):
            inst, _ = simplify(Instance(g.delete_vertices(cut), n))
            certified += inst.graph.n > 0 and inst.graph._lp.certified is True
    assert certified >= 6
    assert all(calls)


def _cold(g: Graph) -> Graph:
    """g with no LP engine."""
    return Graph(vertices=g.vertices(), edges=g.edges())


def test_p2_and_surplus0_p1_steps_decide_the_next_tight_set():
    """The two facts simplify carries its tight list by, checked on cold
    engines: after a P2 step (minsurp >= 1 before) min{0, minsurp} is 0 and
    no vertex is tight; after a P1 step on a surplus-0 min-set the tight
    vertices are the old ones minus the deleted ones."""
    graphs = [gnp(n, p, seed) for seed in range(8) for n in range(5, 31, 5)
              for p in (0.1, 0.2, 0.35)]
    graphs += [random_regular(n, d, seed) for seed in range(10) for d in (3, 4, 5)
               for n in (10, 16, 20)]
    graphs += [shuffled_ids(cycle(n), n) for n in (5, 8, 13, 40, 101)]
    p2 = table_p2 = p1 = p1_kept = 0
    for g in graphs:
        for gb, step, ga in _steps_with_snapshots(g, g.n):
            if step.kind == "P2":
                p2 += 1
                table_p2 += gb.degree(step.indset[0]) > 2
                if ga.n:
                    after = _cold(ga)
                    assert _msm_zeroset(after, frozenset())[0] == 0
                    assert tight_vertices(after) == []
            elif step.kind == "P1" and len(step.nbrs) == len(step.indset):
                p1 += 1
                before = tight_vertices(_cold(gb))
                assert step.indset[0] == before[0]
                expected = [x for x in before if x not in step.removed]
                assert tight_vertices(_cold(ga)) == expected
                p1_kept += bool(expected)
    assert p2 >= 150 and table_p2 >= 5 and p1 >= 150 and p1_kept >= 50


def test_p3_steps_recertify_minsurp_two_from_the_vertices_next_to_them(monkeypatch):
    """After a P3 step on a graph of minsurp >= 2, simplify checks minsurp
    >= 2 of the next graph on the vertices next to the step only (N(S) - S,
    S the deleted vertices), and every verdict equals the table's."""
    calls = []
    recertify = reduce.recertify_minsurp_two

    def recorded(g, near):
        verdict = recertify(g, near)
        calls.append((_cold(g), verdict))  # a snapshot: later steps edit g in place
        return verdict

    monkeypatch.setattr(reduce, "recertify_minsurp_two", recorded)
    regular = [random_regular(n, d, seed) for seed in range(10) for d in (4, 5, 6)
               for n in (16, 20, 24)]
    # minus 0-3 neighbours of one vertex: the P3 chains of a branch child
    graphs = [g.delete_vertices(sorted(g.neighbors(0))[:cut]) for g in regular for cut in range(4)]
    graphs += [gnp(n, 0.3, seed) for seed in range(12) for n in (14, 20)]
    seen = {True: 0, False: 0}
    for seed, g in enumerate(graphs):
        g = shuffled_ids(g, seed)
        calls.clear()
        expected = [ga for gb, step, ga in _steps_with_snapshots(g, g.n)
                    if step.kind == "P3" and minsurp_full(_cold(gb))[0] >= 2]
        assert [ga for ga, _ in calls] == expected, seed
        for ga, verdict in calls:
            if ga.n:
                assert verdict == (minsurp_full(_cold(ga))[0] >= 2), seed
                seen[verdict] += 1
    assert seen[True] >= 200 and seen[False] >= 50, seen


def test_first_scans_of_a_branch_child_look_only_next_to_the_deleted_set():
    """On G - D for a simplified G, every vertex of degree <= 2 and every
    kite or funnel has its u in near = N(D) - D, for D = {u} and D = N[u]:
    the degree-2 scan and find_pattern restricted to near equal the full
    scans of G - D."""
    graphs = [random_regular(n, d, seed) for seed in range(6) for d in (4, 5, 6)
              for n in (14, 20)]
    graphs += [gnp(n, p, seed) for seed in range(12) for n, p in [(14, 0.35), (20, 0.3)]]
    seen = Counter()
    for seed, g in enumerate(graphs):
        g = simplify(Instance(shuffled_ids(g, seed), g.n))[0].graph
        if not g.n:
            continue
        assert g.min_degree() >= 3 and g.find_pattern() is None
        for u in g.vertices():
            for delete in ({u}, g.neighborhood([u], closed=True)):
                if len(delete) == g.n:
                    continue
                h = g.delete_vertices(delete)
                near = g.neighborhood(delete)
                assert reduce._degree_two(h, near) == reduce._degree_two(h), (seed, u)
                assert h.find_pattern(_among=near) == h.find_pattern(), (seed, u)
                fold, first2 = reduce._degree_two(h)
                seen["fold"] += fold is not None
                seen["triangle"] += first2 is not None and first2 != fold
                seen[getattr(h.find_pattern(), "kind", None)] += 1
    assert min(seen[k] for k in ("fold", "triangle", "kite", "funnel")) >= 20, seen
