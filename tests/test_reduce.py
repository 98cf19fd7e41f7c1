import pytest

from vcbranch.graph import Graph, complete, cycle, path, star
from vcbranch.lp import Instance, SurplusCert, minsurp
from vcbranch.reduce import _p1_step, _p2_step, _p3_step, lift_cover, simplify
from vcbranch.cli import circulant, gnp, hypercube

from oracle_utils import exhaustive_vc, is_cover


def test_apply_p1():
    """P1 deletes N[I] and charges |N(I)| to the cover."""
    g = Graph(vertices=[0], edges=[])
    g.add_edge(1, 2)  # isolated 0 plus an edge
    g2, step = _p1_step(g, SurplusCert(frozenset({0}), -1))
    assert step.dk == 0 and 0 not in g2

    pend = path(2)  # 0-1, deg(0)=1
    g2, step = _p1_step(pend, SurplusCert(frozenset({0}), 0))
    assert step.dk == 1 and g2.n == 0

    g2, step = _p1_step(star(3), SurplusCert(frozenset({1, 2, 3}), -2))
    assert step.dk == 1 and g2.n == 0
    assert exhaustive_vc(star(3)) == 1


def test_apply_p2():
    """P2 folds I and N(I) into a fresh vertex y and charges |I|."""
    g2, step = _p2_step(cycle(4), SurplusCert(frozenset({0}), 1))
    assert step.dk == 1
    assert g2.edges() == [(2, step.created)]

    p3 = path(3)  # a-b-c = 0-1-2
    g2, step = _p2_step(p3, SurplusCert(frozenset({1}), 1))
    assert step.dk == 1
    assert g2.degree(step.created) == 0

    g2, step = _p2_step(cycle(5), SurplusCert(frozenset({0}), 1))
    assert step.dk == 1
    assert g2.is_clique([2, 3, step.created])
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
    assert g.is_funnel(0, 1)
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
    assert g.find_pattern("funnel") is None
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
        if out.n:
            assert out.min_degree() >= 3
            assert out.find_pattern("funnel") is None
            assert minsurp(out).surplus >= 2
        # lift of the empty-extension is consistent in size
        opt_red = exhaustive_vc(out) if out.n <= 14 else None
        if opt_red is not None:
            assert exhaustive_vc(g) == opt_red + trace.total_dk


def _steps_with_snapshots(g, k):
    snaps = []
    simplify(Instance(g, k),
             on_step=lambda gb, kb, step, ga, ka: snaps.append((gb, kb, step, ga, ka)))
    return snaps


def test_rule_safety_and_mu_monotone_random():
    for seed in range(30):
        g = gnp(6 + seed % 7, (0.25, 0.4)[seed % 2], seed)
        for gb, kb, step, ga, ka in _steps_with_snapshots(g, g.n):
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
    from vcbranch.reduce import ReductionTrace
    tr = ReductionTrace(steps=[step], final_graph=Graph())
    lifted = lift_cover(tr, [])
    assert is_cover(k3, lifted) and len(lifted) == 2

    # identity: empty trace leaves the cover unchanged
    tr = ReductionTrace(final_graph=cycle(4))
    assert lift_cover(tr, [0, 2]) == {0, 2}


def test_lift_cover_rejects_non_cover():
    inst, trace = simplify(Instance(circulant(9, (1, 2)), 6))
    with pytest.raises(ValueError):
        lift_cover(trace, [])  # not a cover of the (unchanged) reduced graph


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
    text = trace.serialize()
    assert text.splitlines()
    for line in text.splitlines():
        kind = line.split()[0]
        assert kind in ("P1", "P2", "P3", "ComponentSolve")
        assert "removed=" in line and "dk=" in line
