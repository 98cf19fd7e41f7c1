import sys

import pytest

from vcbranch.graph import Graph, PreconditionError, complete, cycle, star
from vcbranch.lp import (
    Instance, SurplusCert, _engine, blockers, certify_minsurp_two, find_nonsingleton_minset,
    low_entries, lp_weight2, minsurp, minsurp_full, shadow, shadow_minus, tight_vertices,
)
from vcbranch.branching import (
    BranchChild,
    MeasureParams,
    SIMPLE_LEVEL_PARAMS,
    _blocked_minset,
    _closed,
    make_child,
    rule_b,
    select_branch,
    split_indset,
    split_vertex,
    val,
)
from vcbranch.reduce import reduction_gain, simplify
from vcbranch.constraints import combine_rate
from vcbranch.cli import circulant, gnp, random_regular

from oracle_utils import exhaustive_vc, shuffled_ids


P4 = SIMPLE_LEVEL_PARAMS[4]


def test_val():
    assert abs(val(P4, [(1, 3), (1, 5)]) - 0.90259) <= 1e-4
    assert val(P4, []) == 0
    assert val(MeasureParams(0, 0), [(1, 1)] * 4) == 4


def _exhaustive_decision(g, k, decision):
    """parent feasible <=> some child feasible, via the brute-force oracle."""
    parent_feasible = exhaustive_vc(g) <= k
    child_feasible = False
    for child in decision.children:
        sub = child.inst
        if sub.graph.n <= 14 and exhaustive_vc(sub.graph) <= sub.k:
            child_feasible = True
    return parent_feasible == child_feasible


def test_split_vertex():
    c5 = cycle(5)
    d = split_vertex(Instance(c5, 3), 0)
    assert d.children[0].dk >= 1 and d.children[1].dk >= 2
    assert _exhaustive_decision(c5, 3, d)

    d = split_vertex(Instance(complete(2), 1), 0)
    assert _exhaustive_decision(complete(2), 1, d)

    k4 = complete(4)
    d = split_vertex(Instance(k4, 2), 0)
    assert all(c.inst.k < 0 or c.inst.mu2 < 0 or
               exhaustive_vc(c.inst.graph) > c.inst.k for c in d.children)
    assert exhaustive_vc(k4) == 3

    with pytest.raises(ValueError):
        split_vertex(Instance(cycle(5), 3), 9)


def test_split_indset():
    c5 = cycle(5)
    d1 = split_vertex(Instance(c5, 3), 0)
    d2 = split_indset(Instance(c5, 3), SurplusCert(frozenset({0}), 1))
    assert [c.inst.k for c in d1.children] == [c.inst.k for c in d2.children]

    c6 = cycle(6)
    with pytest.raises(PreconditionError):
        split_indset(Instance(c6, 4), SurplusCert(frozenset({0, 3}), 2))

    d = split_indset(Instance(c6, 4), SurplusCert(frozenset({0, 2, 4}), 0))
    assert _exhaustive_decision(c6, 4, d)
    assert _exhaustive_decision(c6, 2, split_indset(Instance(c6, 2),
                                                    SurplusCert(frozenset({0, 2, 4}), 0)))


def test_rule_b():
    g = Graph(edges=[(0, 1), (0, 2), (0, 3), (0, 4),
                     (5, 1), (5, 2), (5, 3), (4, 6)])
    d = rule_b(Instance(g, 4), 5, [0])
    # children <G - {0,5}, k-2> and <G - N[5], k-3>
    assert d.children[0].include == {0, 5}
    assert d.children[1].include == {1, 2, 3}
    for k in (2, 3, 4):
        assert _exhaustive_decision(g, k, rule_b(Instance(g, k), 5, [0]))

    unblocked = circulant(13, (1, 2, 3))  # shad(N[0]) = 2
    with pytest.raises(PreconditionError):
        rule_b(Instance(unblocked, 9), 6, [0])

    # generic k-drop arithmetic: ell blocked vertices give drops (ell+1, deg x)
    d = rule_b(Instance(g, 4), 5, [0])
    assert d.children[0].dk >= 2 and d.children[1].dk >= 3


def test_select_branch_c9_12():
    g = circulant(9, (1, 2))
    d = select_branch(Instance(g, 6))
    assert d.rule == "split-vertex"
    assert d.case == "thm5.1/r4-split"
    assert d.claimed == ((0.5, 1), (1.5, 4))
    assert shadow(g, g.neighborhood([0], closed=True)) == 0


def test_select_branch_six_regular():
    g = circulant(13, (1, 2, 3))
    d = select_branch(Instance(g, 9))
    assert d.rule == "split-vertex"
    assert d.claimed == ((0.5, 1), (2.5, 6))


def test_select_branch_preconditions():
    with pytest.raises(PreconditionError):
        select_branch(Instance(cycle(9), 6))  # maxdeg 2
    with pytest.raises(PreconditionError):
        select_branch(Instance(cycle(4), 2))  # not simplified (minsurp 0)
    # minimum degree 3, maximum degree 8, no kite or funnel, and a declined
    # certificate: only the surplus checks see that minsurp is 1
    g = gnp(15, 0.45, 1566)
    assert g.min_degree() >= 3 and g.max_degree() >= 4 and g.find_pattern() is None
    assert not certify_minsurp_two(g) and minsurp(g).surplus == 1
    with pytest.raises(PreconditionError, match="minsurp < 2"):
        select_branch(Instance(g, g.n))


def _with_isolated():
    """cycle(6) plus the isolated vertex 6."""
    g = cycle(6)
    g.add_vertex(6)
    return g


@pytest.mark.parametrize("call, error, message", [
    (lambda: make_child(Instance(cycle(6), 3), [0], [0, 1]),
     PreconditionError, "excluded vertex 1 has neighbors outside the included set"),
    (lambda: split_vertex(Instance(_with_isolated(), 4), 6),
     PreconditionError, "cannot split on isolated vertex 6"),
    (lambda: split_indset(Instance(cycle(6), 3), SurplusCert(frozenset({0}), 0)),
     PreconditionError, "certificate surplus does not match the graph"),
    (lambda: split_indset(Instance(_with_isolated(), 4), SurplusCert(frozenset({6}), -1)),
     PreconditionError, "indset with empty neighborhood"),
    (lambda: rule_b(Instance(cycle(6), 3), 0, [0]),
     PreconditionError, "blocker coincides with a blocked vertex"),
    (lambda: rule_b(Instance(cycle(6), 3), 1, [0]),
     PreconditionError, "blocker 1 is adjacent to 0"),
    (lambda: split_vertex(Instance(cycle(6), 3), 0, claimed=((1, 1),)),
     ValueError, "claimed branch-seq length does not match children"),
    (lambda: MeasureParams(-1, 0), ValueError, "measure constants must be non-negative"),
    (lambda: combine_rate(-1, 0, 0), ValueError, "rates must be non-negative"),
    (lambda: select_branch(Instance(Graph(), 0)), PreconditionError, "empty instance"),
    (lambda: select_branch(Instance(star(4), 1)), PreconditionError, "graph is not simplified"),
], ids=["make_child-exclude", "split_vertex-isolated", "split_indset-surplus",
        "split_indset-no-neighbours", "rule_b-coincides", "rule_b-adjacent",
        "claimed-length", "MeasureParams", "combine_rate", "select-empty", "select-star"])
def test_public_guards_raise(call, error, message):
    """Each public branching entry point rejects an input that breaks its
    precondition, with its own message."""
    with pytest.raises(error, match=message):
        call()


def _simplified_instances(count=40):
    out = []
    for seed in range(count):
        if seed % 3 == 0:
            g = gnp(8 + seed % 7, 0.4, seed)
        else:
            d = 4 + seed % 3
            n = 12 + (seed % 3) * 2
            if (n * d) % 2:
                n += 1
            g = random_regular(n, d, seed)
        inst, _ = simplify(Instance(g, exhaustive_vc(g) if g.n <= 14 else g.n))
        if inst.graph.n and inst.graph.max_degree() >= 4 and inst.graph.n <= 14:
            opt = exhaustive_vc(inst.graph)
            out.append(Instance(inst.graph, opt))
    return out


def test_selector_exhaustive_and_sound():
    params = list(SIMPLE_LEVEL_PARAMS.values())
    seen = 0
    for inst in _simplified_instances():
        g, opt = inst.graph, inst.k
        for k in (opt - 1, opt):
            d = select_branch(Instance(g, k, lambda2=inst.lambda2))
            seen += 1
            assert _exhaustive_decision(g, k, d)
            # realized drops dominate the claim; claims stay within budget
            for p in params[:3]:
                assert val(p, d.realized()) <= val(p, d.claimed) + 1e-12
            lvl = max(4, min(6, g.max_degree()))
            assert val(SIMPLE_LEVEL_PARAMS[lvl], d.claimed) <= 1 + 1e-9
    assert seen >= 20


def test_principal_drop_arithmetic():
    # on simplified parents, the principal subproblem of <G-N[u], k-deg(u)>
    # has 2*dmu = dk - s + min(0, minsurp(principal)), excess s counting u
    # and whatever became isolated
    from oracle_utils import exhaustive_minsurp

    checked = 0
    for seed in range(14):
        g = random_regular(12 + 2 * (seed % 2), 4, seed)
        inst, _ = simplify(Instance(g, g.n))
        g = inst.graph
        if g.n == 0 or g.max_degree() < 4:
            continue
        u = g.vertices()[0]
        closed = g.neighborhood([u], closed=True)
        rest = g.delete_vertices(closed)
        isolated = [v for v in rest.vertices() if rest.degree(v) == 0]
        principal = rest.delete_vertices(isolated)
        if not (0 < principal.n <= 12):
            continue
        s = 1 + len(isolated)
        msm = min(0, exhaustive_minsurp(principal))
        direct = Instance(principal, inst.k - g.degree(u))
        dmu2 = Instance(g, inst.k).mu2 - direct.mu2
        assert dmu2 == g.degree(u) - s + msm
        checked += 1
    assert checked >= 3


def test_shadow_bounds_on_simplified():
    # shad(u) >= 1 and shad(N[u]) >= 3 - deg(u) on simplified graphs
    for seed in range(10):
        g = random_regular(12, 4, seed)
        inst, _ = simplify(Instance(g, g.n))
        g = inst.graph
        if g.n == 0:
            continue
        for u in g.vertices()[:4]:
            assert shadow(g, [u]) >= 1
            closed = g.neighborhood([u], closed=True)
            if len(closed) < g.n:
                assert shadow(g, closed) >= 3 - g.degree(u)


def _surplus_two_showcase():
    """Simplified 10-vertex graph whose minsurp is 2 with the size-3
    min-set {0,1,2} (plus larger ones the canonical scan may prefer)."""
    return Graph(edges=[(0, 3), (0, 4), (0, 5), (1, 5), (1, 6), (1, 7),
                        (2, 3), (2, 6), (2, 7), (4, 6), (4, 7),
                        (3, 8), (5, 9), (8, 9), (8, 6), (9, 7)])


def test_surplus_two_size3_property():
    # a simplified graph containing a size-3 surplus-2 min-set yields a
    # surplus-two decision whose claim is dominated by a published pair
    g = _surplus_two_showcase()
    inst, trace = simplify(Instance(g, 6))
    assert not trace.steps
    assert g.surplus([0, 1, 2]) == 2
    opt = exhaustive_vc(g)
    d = select_branch(Instance(g, opt))
    assert d.case.startswith("surplus2/")
    assert _exhaustive_decision(g, opt, d)
    for p in (SIMPLE_LEVEL_PARAMS[4], SIMPLE_LEVEL_PARAMS[5]):
        assert (val(p, d.claimed) <= val(p, ((1, 4), (1, 5))) + 1e-12
                or val(p, d.claimed) <= val(p, ((0.5, 4), (2, 5))) + 1e-12)


def test_surplus_two_size3_handler_direct():
    from vcbranch.branching import _Selector

    g = _surplus_two_showcase()
    opt = exhaustive_vc(g)
    inst = Instance(g, opt)
    d = _Selector(inst)._s2_large(frozenset({0, 1, 2}))
    assert d is not None and d.case.startswith("surplus2/size3")
    assert _exhaustive_decision(g, opt, d)
    for p in (SIMPLE_LEVEL_PARAMS[4], SIMPLE_LEVEL_PARAMS[5]):
        assert (val(p, d.claimed) <= val(p, ((1, 4), (1, 5))) + 1e-12
                or val(p, d.claimed) <= val(p, ((0.5, 4), (2, 5))) + 1e-12)


def _decision_is_exhaustive_at_opt(g, d):
    return any((c.inst.graph.n == 0 and c.inst.k >= 0)
               or (c.inst.k >= 0 and exhaustive_vc(c.inst.graph) <= c.inst.k)
               for c in d.children)


def test_blocked_degree4_handler():
    # deg-4 vertex 0 with blocker 5 (N(5) inside N(0)); shad(N[0]) = -1
    from vcbranch.branching import _Selector
    from vcbranch.lp import shadow

    g = Graph(edges=[(0, 1), (0, 2), (0, 3), (0, 4), (5, 1), (5, 2), (5, 3),
                     (6, 1), (6, 4), (6, 8), (7, 2), (7, 4), (7, 9),
                     (8, 3), (8, 6), (8, 9), (9, 7), (9, 8), (9, 1)])
    inst, trace = simplify(Instance(g, 6))
    assert not trace.steps
    assert shadow(g, g.neighborhood([0], closed=True)) == -1
    d = _Selector(Instance(g, exhaustive_vc(g))).blocked_low(0)
    assert d.case == "branch4-3/ruleB-singleton"
    assert d.rule == "rule-B"
    assert _decision_is_exhaustive_at_opt(g, d)
    assert val(SIMPLE_LEVEL_PARAMS[4], d.claimed) <= 1
    # at the top level the same structure is consumed by a surplus-two set
    top = select_branch(Instance(g, exhaustive_vc(g)))
    assert top.case.startswith("surplus2/")


def test_blocked_degree6_handler():
    from vcbranch.branching import _Selector
    from vcbranch.lp import shadow

    g = Graph(edges=[(1, 8), (2, 9), (3, 10), (4, 8), (4, 11), (5, 9), (5, 12),
                     (6, 10), (6, 13), (8, 12), (9, 13), (10, 11), (11, 12),
                     (12, 13), (13, 11), (1, 11), (2, 12), (3, 13),
                     (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
                     (7, 1), (7, 2), (7, 3)])
    inst, trace = simplify(Instance(g, 9))
    assert not trace.steps
    assert shadow(g, g.neighborhood([0], closed=True)) == -1
    d = _Selector(Instance(g, exhaustive_vc(g))).blocked_high(0)
    assert d.case == "branch6-1/ruleB" and d.rule == "rule-B"
    assert _decision_is_exhaustive_at_opt(g, d)
    assert val(SIMPLE_LEVEL_PARAMS[6], d.claimed) <= 1


def test_degree5_with_3neighbor_handler():
    from vcbranch.branching import _Selector

    g = Graph(edges=[(0, 1), (0, 2), (0, 3), (0, 4), (0, 6),
                     (6, 1), (6, 2), (6, 3), (6, 5), (7, 1), (7, 2), (7, 3),
                     (4, 8), (4, 9), (5, 8), (5, 9), (8, 10), (9, 11),
                     (10, 11), (10, 12), (11, 12), (1, 12), (2, 10), (3, 11),
                     (12, 9)])
    inst, trace = simplify(Instance(g, 8))
    assert not trace.steps
    d = _Selector(Instance(g, exhaustive_vc(g))).deg5_with_3nbr(0)
    assert d.case.startswith("branch55/")
    assert _decision_is_exhaustive_at_opt(g, d)
    assert val(SIMPLE_LEVEL_PARAMS[5], d.claimed) <= 1
    assert val(SIMPLE_LEVEL_PARAMS[6], d.claimed) <= 1


@pytest.mark.parametrize("seed,case", [
    (238, "surplus2/pair-ruleB"),
    (934, "branch4-3/ruleB-nonsingleton"),
])
def test_selector_regressions_from_regular_graphs(seed, case):
    # seeds found by sweep: 5-regular graphs whose solves route through the
    # rarer blocker cases; pin the route and its soundness
    from vcbranch.solver import SolverConfig, solve_decision

    g = random_regular(16, 5, seed)
    opt = exhaustive_vc(g)
    hit = False
    for k in (opt, opt - 1):
        r = solve_decision(Instance(g, k), cfg=SolverConfig(level=4, audit=True))
        assert r.feasible == (k >= opt)
        assert r.stats.audit_violations == 0
        hit = hit or case in r.stats.selector.cases
    assert hit


def test_size3_split_plain_is_reached():
    """A level-6 search on a 6-regular graph that splits on a surplus-two
    set of size 3 with no vertex of N(I) seeing two of its members."""
    from vcbranch.solver import SolverConfig, solve_optimum

    _, _, stats = solve_optimum(random_regular(28, 6, 3), SolverConfig(level=6, audit=True))
    assert stats.selector.cases.get("surplus2/size3-split-plain") == 2
    assert stats.audit_violations == 0


#: the cheapest audited search found for each selector case a live solve
#: reaches: (case, graph, level)
_LIVE_CASES = [
    ("branch4-3/ruleB-nonsingleton", lambda: random_regular(36, 5, 4), 7),
    ("branch4-3/ruleB-singleton", lambda: random_regular(44, 4, 892486), 6),
    ("branch4-3prep/ruleB", lambda: gnp(40, 0.15, 3), 6),
    ("branch55/ruleB-R2", lambda: random_regular(30, 5, 21706), 4),
    ("branch55/split", lambda: random_regular(30, 4, 1), 5),
    ("branch6-1/ruleB", lambda: random_regular(36, 4, 864810), 5),
    ("surplus2/pair-ruleB", lambda: random_regular(36, 4, 3), 5),
    ("surplus2/pair-split", lambda: gnp(36, 0.15, 4), 7),
    ("surplus2/pair-splitz", lambda: random_regular(40, 3, 3), 5),
    ("surplus2/size3-ruleB", lambda: random_regular(36, 7, 968410), 6),
    ("surplus2/size3-split", lambda: gnp(40, 0.15, 3), 7),
    ("surplus2/size3-splitz", lambda: random_regular(36, 4, 7), 6),
    ("surplus2/size4-split", lambda: random_regular(30, 4, 5), 6),
    ("thm5.1/r4-split", lambda: random_regular(30, 4, 7), 4),
    ("thm5.1/r5-split", lambda: random_regular(40, 3, 3), 5),
    ("thm5.1/r6-split", lambda: gnp(30, 0.15, 1), 6),
]


@pytest.mark.parametrize("case, graph, level", _LIVE_CASES, ids=[c for c, _, _ in _LIVE_CASES])
def test_selector_case_fires_live_and_audits_clean(case, graph, level):
    """The case fires, every node's realized drops meet its rule's claim and
    val(realized) <= 1, and no fallback runs."""
    from vcbranch.solver import SolverConfig, solve_optimum

    _, _, stats = solve_optimum(graph(), SolverConfig(level=level, audit=True))
    assert stats.selector.cases.get(case, 0) >= 1
    assert stats.audit_violations == 0
    assert sum(rec.shortfalls for rec in stats.audit_records) == 0
    assert stats.selector.fallbacks == 0


def test_exits_deleted_by_proof_stay_unreached(monkeypatch):
    """The selector exits deleted by proof (see the docstrings of _Selector,
    _blocked_minset and deg5_with_3nbr) are unreachable on live searches:
    find_nonsingleton_minset returns None or an independent set of two or
    more vertices with surplus exactly 2; _blocked_minset gets a blocked u
    with N[u] != V, so it returns a non-empty set; and by Fact N,
    deg4_blocker's x has shadow_minus(G, N[x]) > 3 - deg(x) and no two
    degree-3 vertices of blocked_high's iset share two neighbours.  Seeded
    level 4-6 solves call each at least once."""
    from vcbranch import branching
    from vcbranch.solver import SolverConfig, solve_optimum

    calls = dict.fromkeys(("find_nonsingleton_minset", "_blocked_minset", "deg4_blocker",
                           "blocked_high"), 0)
    find = branching.find_nonsingleton_minset
    deg4_blocker = branching._Selector.deg4_blocker
    blocked_high = branching._Selector.blocked_high

    def checked_find(g, table):
        calls["find_nonsingleton_minset"] += 1
        indset = find(g, table)
        assert indset is None or (len(indset) >= 2 and g.is_independent(indset)
                                  and g.surplus(indset) == 2), sorted(indset)
        return indset

    def checked_blocked_minset(g, u):
        calls["_blocked_minset"] += 1
        assert g.degree(u) + 1 < g.n, u
        iset = _blocked_minset(g, u)
        assert iset, u  # u is blocked
        return iset

    def checked_deg4_blocker(self, u, x):
        calls["deg4_blocker"] += 1
        assert shadow_minus(self.g, _closed(self.g, x)) > 3 - self.g.degree(x), (u, x)
        return deg4_blocker(self, u, x)

    def checked_blocked_high(self, u):
        calls["blocked_high"] += 1
        g = self.g
        cubic = [x for x in sorted(_blocked_minset(g, u)) if g.degree(x) == 3]
        assert not any(len(g.neighbors(a) & g.neighbors(b)) >= 2
                       for i, a in enumerate(cubic) for b in cubic[i + 1:]), u
        return blocked_high(self, u)

    monkeypatch.setattr(branching, "find_nonsingleton_minset", checked_find)
    monkeypatch.setattr(branching, "_blocked_minset", checked_blocked_minset)
    monkeypatch.setattr(branching._Selector, "deg4_blocker", checked_deg4_blocker)
    monkeypatch.setattr(branching._Selector, "blocked_high", checked_blocked_high)
    for graph, level in [(random_regular(30, 5, 21706), 4), (random_regular(36, 4, 864810), 5),
                         (random_regular(28, 6, 3), 6), (gnp(40, 0.15, 3), 6)]:
        solve_optimum(graph, SolverConfig(level=level))
    assert min(calls.values()) >= 1, calls


@pytest.mark.parametrize("path, graph, level, opt", [
    # deg5_with_3nbr hands a blocker of degree >= 4 to deg4_blocker
    (("deg5_with_3nbr", "deg4_blocker", "branch4-3prep/ruleB"),
     lambda: gnp(32, 0.1626437805477872, 170217), 6, 20),
    # blocked_high returns the decision of its blocked_low(za) call
    (("blocked_high", "blocked_low", "branch55/split"),
     lambda: gnp(44, 0.10766093561325314, 265051), 5, 25),
    # blocked_high's own rule B with the claim for |iset| >= 2
    (("blocked_high", "|iset| >= 2", "branch6-1/ruleB"),
     lambda: gnp(44, 0.15067463463193673, 911309), 6, 29),
], ids=["deg5-deg4", "high-low", "high-iset2"])
def test_selector_paths_fire_live_and_audit_clean(monkeypatch, path, graph, level, opt):
    """Each selector path fires on a seeded live solve that finds the
    optimum and audits clean.  The _Selector methods are wrapped to record
    (caller, callee, case) for each call that returns a decision;
    blocked_high also records whether its iset has two or more vertices."""
    from vcbranch import branching
    from vcbranch.solver import SolverConfig, solve_optimum

    seen, stack = set(), []

    def wrapped(name, method):
        def call(self, u, *args):
            caller = stack[-1] if stack else None
            stack.append(name)
            try:
                decision = method(self, u, *args)
            finally:
                stack.pop()
            if decision is not None:
                seen.add((caller, name, decision.case))
                if name == "blocked_high" and len(_blocked_minset(self.g, u)) >= 2:
                    seen.add((name, "|iset| >= 2", decision.case))
            return decision
        return call

    for name in ("deg4_blocker", "deg5_with_3nbr", "blocked_low", "blocked_high"):
        monkeypatch.setattr(branching._Selector, name,
                            wrapped(name, getattr(branching._Selector, name)))
    found, _, stats = solve_optimum(graph(), SolverConfig(level=level, audit=True))
    assert found == opt
    assert path in seen, sorted(seen, key=str)
    assert stats.audit_violations == 0 and stats.selector.fallbacks == 0
    assert sum(rec.shortfalls for rec in stats.audit_records) == 0


def test_blocked_minset_equals_the_sweep():
    """For a blocked u (minsurp(G - N[u]) <= 0, the only u its callers
    pass), _blocked_minset(g, u) is the min-set the minsurp sweep of
    G - N[u] certifies: the LP zero-set below 0, the min-set through the
    lowest tight vertex at 0."""
    seen = {"negative": 0, "zero": 0}
    graphs = [gnp(n, c / n, seed) for seed in range(25)
              for n, c in [(10 + seed % 9, 3.5), (14 + seed % 7, 5.0)]]
    graphs += [random_regular(14 + 2 * (seed % 3), d, seed) for seed in range(8) for d in (4, 5, 6)]
    for seed, g in enumerate(graphs):
        for u in g.vertices():
            closed = frozenset(g.neighborhood([u], closed=True))
            if len(closed) >= g.n:
                continue
            value, cert, _ = minsurp_full(g, closed)
            assert shadow_minus(g, closed) == min(0, value)
            if value <= 0:
                seen["negative" if value < 0 else "zero"] += 1
                assert _blocked_minset(g, u) == cert, (seed, u)
    assert min(seen.values()) >= 100, seen


def _simplified_search_graphs(per_root: int, sizes=(30, 36), seeds=range(1, 5)):
    """Simplified graphs of maximum degree >= 4 met by a depth-first walk of
    select_branch's children, at most per_root from each seeded root."""
    for n in sizes:
        for d in (4, 5, 6):
            for seed in seeds:
                stack = [simplify(Instance(random_regular(n, d, seed), n))[0]]
                met = 0
                while stack and met < per_root:
                    inst = stack.pop()
                    g = inst.graph
                    if g.n == 0 or g.degree(g.top_vertex()) < 4:
                        continue
                    met += 1
                    yield inst
                    stack.extend(c.inst for c in select_branch(inst).children)


def test_blocked_sets_reach_into_the_neighbourhood():
    """_Selector's lemma: on a simplified graph, a min-set I of G - N[u] with
    surplus s <= 0 has |N(I) & N(u)| >= 2 - s.  So the blocked-vertex rules
    always find an x in I with a neighbour in N(u) and return a decision
    wherever select_branch calls them."""
    from vcbranch.branching import _Selector

    seen = {"blocked": 0, "low": 0, "high": 0}
    for inst in _simplified_search_graphs(10):
        g = inst.graph
        sel = _Selector(inst, low_entries(g, 2))
        for u in g.vertices():
            closed = _closed(g, u)
            sm = shadow_minus(g, closed)
            if sm > 0 or (sm == 0 and not tight_vertices(g, closed)):
                continue  # N[u] = V, or minsurp(G - N[u]) > 0: u is not blocked
            iset = _blocked_minset(g, u)
            seen["blocked"] += 1
            outside = g.neighborhood(iset) - g.neighbors(u)
            s = len(outside) - len(iset)
            assert s <= 0
            assert len(g.neighborhood(iset) & g.neighbors(u)) >= 2 - s
            r = g.degree(u)
            if r < 4 or sm >= (0 if r <= 5 else 6 - r):
                continue
            seen["low" if r <= 5 else "high"] += 1
            decision = sel.blocked_low(u) if r <= 5 else sel.blocked_high(u)
            assert decision is not None and decision.case is not None
    assert min(seen.values()) >= 20, seen


def test_surplus_two_pairs_always_decide():
    """The facts behind _Selector._s2_pair's two deleted exits, on every
    independent pair I with |N(I)| = 4 (surplus 2) of simplified graphs
    met by seeded searches: when no vertex of N(I) in a non-adjacent pair
    has degree >= 5, reduction_gain(G, I) >= 2, so pair-split decides; and
    every such vertex z with shad(N[z]) < 0 has a blocker outside I, so
    pair-ruleB decides."""
    seen = {"pairs": 0, "gain": 0, "blocker": 0}
    for inst in _simplified_search_graphs(20, sizes=(30,), seeds=range(1, 41)):
        g = inst.graph
        for a in g.vertices():
            na = g.neighbors(a)
            for b in {b for w in na for b in g.neighbors(w)} - na:
                if b <= a or len(na | g.neighbors(b)) != 4:
                    continue
                indset = frozenset((a, b))
                seen["pairs"] += 1
                side = sorted(g.neighborhood(indset))
                high = {z for i, z1 in enumerate(side) for z2 in side[i + 1:]
                        if not g.has_edge(z1, z2) for z in (z1, z2) if g.degree(z) >= 5}
                if not high:
                    seen["gain"] += 1
                    assert reduction_gain(g, indset) >= 2, sorted(indset)
                for z in high:
                    if shadow_minus(g, _closed(g, z)) < 0:
                        seen["blocker"] += 1
                        outside = [t for t, _ in blockers(g, z) if t not in indset]
                        assert outside, (sorted(indset), z)
    assert min(seen.values()) >= 20, seen


def test_a_blocked_degree5_vertex_can_have_only_gain1_blockers():
    """On this simplified 17-vertex graph, vertex 0 has degree 5 and a
    degree-3 neighbour, is blocked (shad(N[0]) = -2), and its min-set holds
    two degree-3 vertices, each with reduction gain 1 together with 0: none
    of branch55/split, the deg4_blocker hand-off and ruleB-R2 would fire at
    w = 0.  But then {0, 6, 7} has surplus 2, so select_branch takes a
    surplus-two rule and never reaches deg5_with_3nbr.  By Fact N (see
    _Selector), a blocked w of universe that select_branch reaches has
    shad(N[w]) = 4 - deg(w) exactly, so this graph does not show that the
    branch55 tail (ruleB-nonsingleton, ruleB-pigeonhole and
    fallback/branch55-ruleB) is reachable."""
    g = Graph(vertices=range(17), edges=[
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 6), (1, 12), (1, 15), (1, 16),
        (2, 11), (2, 16), (3, 6), (3, 7), (3, 13), (3, 14), (3, 15), (4, 7), (4, 8), (4, 9),
        (4, 13), (5, 6), (5, 7), (5, 9), (5, 11), (8, 10), (8, 11), (9, 12), (9, 14),
        (10, 14), (10, 15), (11, 15), (12, 14), (12, 15), (13, 14), (13, 15), (13, 16)])
    _, trace = simplify(Instance(g, g.n))
    assert not trace.steps
    assert minsurp(g).surplus == 2
    assert g.degree(0) == 5 and any(g.degree(t) == 3 for t in g.neighbors(0))
    assert shadow_minus(g, _closed(g, 0)) == -2
    blocked = _blocked_minset(g, 0)
    assert blocked == {6, 7} and all(g.degree(x) == 3 for x in blocked)
    assert all(reduction_gain(g, {0, x}) == 1 for x in blocked)
    assert g.is_independent({0, 6, 7}) and g.surplus({0, 6, 7}) == 2
    assert select_branch(Instance(g, g.n)).case == "surplus2/size3-splitz"


def _has_small_surplus_set(g: Graph) -> bool:
    """Whether G has an independent set of two or more vertices with
    surplus <= 2, by enumerating the independent sets of G."""
    verts = g.vertices()
    bit = {v: 1 << i for i, v in enumerate(verts)}
    nbrs = [sum(bit[w] for w in g.neighbors(v)) for v in verts]

    def grow(start: int, size: int, blocked: int, reach: int) -> bool:
        # extend a set of size members, N(set) = reach, by a vertex j >= start
        for j in range(start, len(verts)):
            if blocked >> j & 1:
                continue
            with_j = reach | nbrs[j]
            if size >= 1 and with_j.bit_count() - (size + 1) <= 2:
                return True
            if grow(j + 1, size + 1, blocked | nbrs[j], with_j):
                return True
        return False

    return grow(0, 0, 0, 0)


def _small_simplified_graphs():
    """Simplified graphs of at most 22 vertices: simplified regular graphs,
    the children select_branch makes on them, and simplified G(n, p)."""
    for n in (14, 16, 18, 20, 22):
        for d in (3, 4, 5, 6):
            for seed in range(10):
                g = simplify(Instance(random_regular(n, d, seed), n))[0].graph
                if not g.n:
                    continue
                yield g
                if g.max_degree() >= 4:
                    for child in select_branch(Instance(g, g.n, lambda2=g.n)).children:
                        if child.inst.graph.n:
                            yield child.inst.graph
    for seed in range(120):
        n = 14 + seed % 9
        g = simplify(Instance(gnp(n, 0.3 + 0.1 * (seed % 3), seed), n))[0].graph
        if g.n:
            yield g


def test_fact_n_holds_by_brute_force():
    """Fact N (see _Selector): on a simplified G, a None from
    find_nonsingleton_minset(G, low_entries(G, 2)) means no independent set
    of two or more vertices has surplus 2, checked by enumeration, and then
    shadow_minus(G, N[v]) >= min(0, 4 - deg(v)) for every v with N[v] != V.
    A set it returns is such a set; some are found by the gap case alone."""
    seen = {"none": 0, "found": 0, "gap case": 0}
    for g in _small_simplified_graphs():
        assert g.n <= 22 and g.min_degree() >= 3
        table = low_entries(g, 2)
        indset = find_nonsingleton_minset(g, table)
        assert (indset is not None) == _has_small_surplus_set(g), g.edges()
        if indset is not None:
            assert len(indset) >= 2 and g.is_independent(indset) and g.surplus(indset) == 2
            seen["found"] += 1
            seen["gap case"] += all(len(cert) == 1 for _, cert in table.values())
            continue
        seen["none"] += 1
        for v in g.vertices():
            if g.degree(v) + 1 < g.n:
                assert shadow_minus(g, _closed(g, v)) >= min(0, 4 - g.degree(v)), (g.edges(), v)
    assert seen["none"] >= 300 and seen["found"] >= 20 and seen["gap case"] >= 5, seen


def test_size3_rule_b_takes_the_lowest_blocker(monkeypatch):
    """surplus2/size3-ruleB branches on the lowest blocker t != y of z.  The
    live solve of _LIVE_CASES reaches it at a z with eight candidates."""
    from vcbranch import branching
    from vcbranch.solver import SolverConfig, solve_optimum

    taken = []
    s2_large = branching._Selector._s2_large

    def recorded(self, indset):
        decision = s2_large(self, indset)
        if decision.case == "surplus2/size3-ruleB":
            g = self.g
            z = min(z for z in g.neighborhood(indset) if len(g.neighbors(z) & indset) == 2)
            (y,) = indset - g.neighbors(z)
            ts = [t for t, _ in blockers(g, z) if t != y]
            taken.append((len(ts), decision.children[0].include == {z, ts[0]}))
        return decision

    monkeypatch.setattr(branching._Selector, "_s2_large", recorded)
    solve_optimum(random_regular(36, 7, 968410), SolverConfig(level=6))
    assert taken == [(8, True)], taken


def test_children_carry_independent_copies():
    g = circulant(9, (1, 2))
    inst = Instance(g, 6)
    d = split_vertex(inst, 0)
    d.children[0].inst.graph.add_vertex(99)
    assert 99 not in g and 99 not in d.children[1].inst.graph


def test_make_child_owns_its_graph_and_equals_a_separate_simplify():
    """make_child derives G - D once and simplify edits it in place: the
    parent keeps its edges and its LP engine, matching and verdict, and the
    child (graph, k, lambda and trace) equals simplify of G - D derived from
    a cold copy.  With the selector's table (D = {u} and D = N[u] on a
    simplified G) the child's first scans look only next to D and G - u is
    certified from N(u) & T; without it every scan runs in full."""
    graphs = [inst.graph for inst in _simplified_instances()]
    graphs += [simplify(Instance(shuffled_ids(random_regular(n, d, seed), seed), n))[0].graph
               for seed in range(6) for d in (4, 5, 6) for n in (14, 18)]
    stepped = declined = 0
    for seed, g in enumerate(graphs):
        inst = Instance(g, g.n, lambda2=g.n)
        engine = _engine(g)
        certified = certify_minsurp_two(g)
        low = low_entries(g, 2)
        state = (g.edges(), engine.match_l[:], engine.match_r[:], engine.exposed[:], len(engine.index))
        for u in g.vertices():
            nbrs = set(g.neighbors(u))
            declined += bool(nbrs & low.keys())
            for include, delete in [({u}, {u}), (nbrs, nbrs | {u})]:
                for table in (low, None):
                    child = make_child(inst, include, delete, table)
                    assert (g.edges(), engine.match_l, engine.match_r, engine.exposed,
                            len(engine.index)) == state, (seed, u)
                    assert g._lp is engine and engine.certified is certified, (seed, u)
                    cold = Graph(vertices=g.vertices(), edges=g.edges())
                    ref, trace = simplify(Instance(cold.delete_vertices(delete),
                                                   g.n - len(include), lambda2=0))
                    assert child.inst.graph == ref.graph, (seed, u, sorted(delete))
                    assert (child.inst.k, child.inst.lambda2) == (ref.k, ref.lambda2)
                    assert child.trace.steps == trace.steps, (seed, u, sorted(delete))
                    assert child.inst.graph._lp is not engine
                    stepped += bool(trace.steps)
    assert stepped >= 100 and declined >= 20, (stepped, declined)


def test_selector_makes_few_masked_solves(monkeypatch):
    """The selector reads minsurp == 2 and the v_x == 2 entries off capped
    checks on the stored matching instead of one masked LP per vertex, and
    the minsurp >= 2 certificate simplify computed for a graph is reused."""
    from vcbranch import lp

    solves = []
    solve = lp._LPEngine.solve
    monkeypatch.setattr(lp._LPEngine, "solve",
                        lambda self, excluded: solves.append(self) or solve(self, excluded))
    insts = [simplify(Instance(random_regular(60, 6, seed), 45))[0] for seed in range(4)]
    for seed, inst in enumerate(insts):
        assert inst.graph.n == 60
        solves.clear()
        select_branch(inst)
        assert len(solves) < inst.graph.n // 4, (seed, len(solves))

    certified = []
    certify = lp._residual_two_connected
    monkeypatch.setattr(lp, "_residual_two_connected",
                        lambda engine: certified.append(engine) or certify(engine))
    for seed in range(4):
        inst, _ = simplify(Instance(random_regular(60, 6, seed), 45))
        for child in select_branch(inst).children:
            child.inst  # children are simplified when first read
    # the list holds every engine, so no id is reused
    assert len(certified) > 4 and len({id(e) for e in certified}) == len(certified)


def test_split_child_reuses_the_selectors_solve(monkeypatch):
    """Before a split on u the selector asks shadow_minus(G, N[u]); the
    N[u] child's lambda2_pre asks the parent's engine for the same mask and
    is answered from the engine's memo, with no second augmenting search
    (the G - u child makes no solve under the selector)."""
    from vcbranch import branching, lp

    searches = 0
    augment = lp._LPEngine._augment

    def counted_augment(self, *args):
        nonlocal searches
        searches += 1
        return augment(self, *args)

    weights = []  # (mask, searches made inside lp_weight2)
    weight2 = branching.lp_weight2

    def counted_weight2(g, excluded):
        before = searches
        out = weight2(g, excluded)
        weights.append((excluded, searches - before))
        return out

    monkeypatch.setattr(lp._LPEngine, "_augment", counted_augment)
    monkeypatch.setattr(branching, "lp_weight2", counted_weight2)
    splits = 0
    for seed in range(8):
        inst, _ = simplify(Instance(random_regular(40, 6, seed), 40))
        weights.clear()
        d = select_branch(inst)
        if d.rule != "split-vertex":
            continue
        splits += 1
        u_child, nu_child = d.children
        closed = frozenset(nu_child.include | u_child.include)
        assert weights == [(closed, 0)], seed
        cold = Graph(vertices=inst.graph.vertices(), edges=inst.graph.edges())
        assert nu_child.lambda2_pre == lp_weight2(cold.delete_vertices(closed)), seed
    assert splits >= 4, splits


def test_children_are_simplified_when_first_read(monkeypatch):
    """select_branch makes no child reduction run; reading a child's inst
    runs it once, and realized() forces every child."""
    from vcbranch import branching

    runs = []
    run = branching.simplify
    monkeypatch.setattr(branching, "simplify",
                        lambda inst, **kw: runs.append(inst) or run(inst, **kw))
    for seed in range(4):
        inst, _ = simplify(Instance(random_regular(40, 6, seed), 40))
        runs.clear()
        d = select_branch(inst)
        assert runs == [], seed
        first = d.children[0]
        graph = first.inst.graph
        assert len(runs) == 1
        # the trace is the run that made graph: it accounts for the k drop
        assert first.inst.graph is graph and first.dk == len(first.include) + first.trace.total_dk
        assert first.dk >= 1 and first.dmu2 >= 0 and len(runs) == 1
        d.realized()
        assert len(runs) == len(d.children), seed


def test_children_are_derived_only_when_forced(monkeypatch):
    """make_child derives no graph.  In a level-6 optimum search every
    G - D is derived by BranchChild._force, once per forced child, so a
    child that the search rejects from its LP bound is never derived."""
    from vcbranch import branching
    from vcbranch.solver import SolverConfig, solve_optimum

    callers = []  # the code object calling each delete_vertices
    derive = Graph.delete_vertices

    def counted_derive(self, s):
        callers.append(sys._getframe(1).f_code)
        return derive(self, s)

    made = []
    make = branching.make_child

    def checked_make(*args):
        before = len(callers)
        child = make(*args)
        assert len(callers) == before
        made.append(child)
        return child

    monkeypatch.setattr(Graph, "delete_vertices", counted_derive)
    monkeypatch.setattr(branching, "make_child", checked_make)
    for seed in range(3):
        made.clear()
        callers.clear()
        solve_optimum(random_regular(30, 6, seed), SolverConfig(level=6))
        forced = sum(child._done is not None for child in made)
        assert callers.count(BranchChild._force.__code__) == forced, seed
        assert 0 < forced < len(made), (seed, forced, len(made))


def _children_by_k():
    """(parent, child, the k range from ceil(lambda) to the optimum + 1) for
    the selector's and the top split's children on simplified 4/5/6-regular
    and G(n, p) graphs."""
    from vcbranch.solver import solve_optimum

    insts = _simplified_instances()
    for seed in range(6):
        for g in (random_regular(22, 4 + seed % 3, seed), gnp(22, 0.3, seed)):
            g = simplify(Instance(g, g.n))[0].graph
            if g.n and g.max_degree() >= 4:
                insts.append(Instance(g, solve_optimum(g)[0], lambda2=g.n))
    for inst in insts:
        ks = range((inst.lambda2 + 1) // 2, inst.k + 2)
        for d in (select_branch(inst), split_vertex(inst, inst.graph.top_vertex())):
            for child in d.children:
                yield inst, child, ks


def test_unforced_rejection_implies_the_forced_child_fails():
    """No reduction step raises k or mu, so for a visit with budget k the
    forced child has k' <= k - |include| and mu2' <= 2(k - |include|) -
    lambda2_pre; whenever the solver rejects a child unforced, the forced
    child fails k' < 0 or mu2' < 0."""
    rejected = kept = 0
    for parent, child, ks in _children_by_k():
        for k in ks:
            k_pre = k - len(child.include)
            bound2 = 2 * k_pre - child.lambda2_pre
            k_child = k - child.dk
            mu2_child = 2 * k_child - child.inst.lambda2
            assert k_child <= k_pre and mu2_child <= bound2, (parent, k)
            if k_pre < 0 or bound2 < 0:
                rejected += 1
                assert k_child < 0 or mu2_child < 0, (parent, k)
            else:
                kept += 1
    assert rejected >= 100 and kept >= 100, (rejected, kept)


def test_lambda2_pre_of_the_split_children_equals_a_cold_solve():
    """make_child reads 2*lambda(G - D) with one masked solve, or, for
    D = {u} under the selector's table, as n - 1 with none; both equal
    lp_weight2 of G - D derived from a cold copy."""
    graphs = [inst.graph for inst in _simplified_instances()]
    graphs += [simplify(Instance(shuffled_ids(random_regular(n, d, seed), seed), n))[0].graph
               for seed in range(4) for d in (4, 5, 6) for n in (14, 18)]
    graphs += [simplify(Instance(gnp(n, 0.35, seed), n))[0].graph
               for seed in range(8) for n in (14, 18)]
    checked = 0
    for seed, g in enumerate(graphs):
        if g.n == 0:
            continue
        inst = Instance(g, g.n, lambda2=g.n)
        low = low_entries(g, 2)
        cold = Graph(vertices=g.vertices(), edges=g.edges())
        for u in g.vertices():
            if not g.neighbors(u):
                continue
            deleted = [{u}, set(g.neighbors(u)) | {u}]
            for table in (low, None):
                d = split_vertex(inst, u, _low=table)
                for child, delete in zip(d.children, deleted):
                    want = lp_weight2(cold.delete_vertices(delete))
                    assert child.lambda2_pre == want, (seed, u, sorted(delete), table is None)
                    checked += 1
    assert checked >= 1000, checked
