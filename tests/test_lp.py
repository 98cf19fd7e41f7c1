import collections
import copy
import gc
import itertools
import math
import random

import pytest

from vcbranch.graph import Graph, complete, cycle, path, star
from vcbranch.lp import (
    Instance,
    _DELETED,
    _LPEngine,
    blockers,
    certify_minsurp_two,
    _dominated_by_root_only,
    _engine,
    _strongly_two_connected,
    find_blocker,
    is_blocker,
    _lp_core,
    _residual_two_connected,
    low_entries,
    lp_basic_solution,
    minsurp,
    minsurp_full,
    recertify_minsurp_two,
    shadow,
    shadow_minus,
    tight_vertices,
    zero_surplus_cert,
)
from vcbranch.branching import make_child
from vcbranch.cli import gnp, random_regular
from vcbranch.reduce import simplify

from oracle_utils import (
    exhaustive_lp_weight2,
    exhaustive_minsurp,
    exhaustive_vc,
    shuffled_ids,
)


def test_lp_basic_small():
    assert lp_basic_solution(complete(2)).theta2 == {0: 1, 1: 1}
    sol = lp_basic_solution(star(3))
    assert sol.theta2 == {0: 2, 1: 0, 2: 0, 3: 0}
    assert sol.weight2 == exhaustive_lp_weight2(star(3)) == 2
    sol = lp_basic_solution(cycle(5))
    assert all(t == 1 for t in sol.theta2.values())
    assert sol.weight2 == exhaustive_lp_weight2(cycle(5)) == 5


def test_lp_matches_exhaustive_random():
    for seed in range(60):
        g = gnp(4 + seed % 6, (0.15, 0.3, 0.45)[seed % 3], seed)
        sol = lp_basic_solution(g)
        assert sol.weight2 == exhaustive_lp_weight2(g)
        zero = sol.zero_set()
        assert g.is_independent(zero)
        # neighbors of the zero-set carry value one
        for v in g.neighborhood(zero):
            assert sol.theta2[v] == 2
        if zero:
            assert g.surplus(zero) == sol.weight2 - g.n


def test_minsurp_examples():
    assert minsurp(cycle(5)).surplus == 1
    cert = minsurp(star(3))
    assert cert.surplus == -2 and cert.indset == {1, 2, 3}
    assert minsurp(complete(4)).surplus == 2
    with pytest.raises(ValueError):
        minsurp(Graph())


def test_minsurp_matches_exhaustive_random():
    for seed in range(60):
        g = gnp(5 + seed % 7, (0.2, 0.35, 0.5)[seed % 3], seed)
        cert = minsurp(g)
        assert cert.surplus == exhaustive_minsurp(g)
        assert g.surplus(cert.indset) == cert.surplus


def test_lambda_lower_bounds_cover():
    for seed in range(30):
        g = gnp(9, 0.3, seed)
        inst = Instance(g, 0)
        assert inst.lambda2 <= 2 * exhaustive_vc(g)


def test_shadow():
    assert shadow(cycle(5), [0]) == 0
    # remainder is the edge 2-3; each singleton endpoint has surplus 0 there
    assert shadow(cycle(5), [4, 0, 1]) == exhaustive_minsurp(
        cycle(5).delete_vertices([4, 0, 1])) == 0
    assert shadow(complete(2), [0, 1]) == math.inf
    # ids outside the graph are an error, not an emptied or ignored mask
    for g, x in ((path(3), [7, 8, 9]), (cycle(6), [7])):
        for query in (shadow, shadow_minus):
            with pytest.raises(ValueError, match=r"unknown vertices \[7"):
                query(g, x)


def test_shadow_monotone_bound():
    # shad(X) >= minsurp(G) - |X| on random graphs
    for seed in range(25):
        g = gnp(9, 0.35, seed)
        if g.n == 0 or g.min_degree() == 0:
            continue
        ms = minsurp(g).surplus
        for x in ([0], [0, 3], [1, 4, 7]):
            s = shadow(g, x)
            assert s >= ms - len(x)


def test_find_blocker():
    # u=0 with N(0)={1,2,3,4}; x=5 with N(5)={1,2,3}; edge 4-6:
    # G - N[0] leaves 5 and 6 isolated
    g = Graph(edges=[(0, 1), (0, 2), (0, 3), (0, 4),
                     (5, 1), (5, 2), (5, 3), (4, 6)])
    hit = find_blocker(g, 0)
    assert hit is not None
    x, cert = hit
    assert x == 5
    assert cert.surplus == -2 and cert.indset == {5, 6}
    assert find_blocker(star(3), 0) is None          # G - N[center] empty


def test_find_blocker_zero_shadow_counts_as_blocked():
    # shad(N[0]) on C5 is 0, so vertex 0 is blocked with blocker 2
    assert shadow(cycle(5), [4, 0, 1]) == 0
    hit = find_blocker(cycle(5), 0)
    assert hit is not None and hit[0] == 2 and hit[1].surplus == 0


def test_find_blocker_unblocked():
    # C13(1,2,3) has shad(N[0]) = 2 > 0: vertex 0 is not blocked
    from vcbranch.cli import circulant
    g = circulant(13, (1, 2, 3))
    assert shadow(g, g.neighborhood([0], closed=True)) == 2
    assert find_blocker(g, 0) is None


def test_blockers_equal_the_table_minimum():
    """blockers(g, u) lists the entries of the minsurp table of G - N[u]
    that attain its minimum when that is <= 0; find_blocker takes the one
    with the smallest certificate, and is_blocker certifies exactly these."""
    graphs = [gnp(n, c / n, seed) for seed in range(30)
              for n, c in [(8 + seed % 9, 3.0), (12 + seed % 11, 4.0)]]
    graphs += [random_regular(12 + 2 * (seed % 4), d, seed) for seed in range(6) for d in (3, 4, 5)]
    graphs += [star(3), complete(4)]  # G - N[u] empty
    seen = {"blocked": 0, "unblocked": 0, "empty": 0}
    for seed, g in enumerate(graphs):
        g = shuffled_ids(g, seed)
        for u in g.vertices()[:5]:
            closed = frozenset(g.neighborhood([u], closed=True))
            found = blockers(g, u)
            if len(closed) >= g.n:
                seen["empty"] += 1
                assert found == [] and find_blocker(g, u) is None
                continue
            value, _, table = minsurp_full(g, closed, need_table=True)
            expected = [(x, cert) for x, (v, cert) in sorted(table.items())
                        if v == value and value <= 0]
            assert [(x, c.indset) for x, c in found] == expected, (seed, u)
            assert all(c.surplus == value for _, c in found)
            seen["blocked" if found else "unblocked"] += 1
            best = min(expected, key=lambda e: (len(e[1]), e[0]), default=None)
            hit = find_blocker(g, u)
            assert (hit and (hit[0], hit[1].indset)) == (best or None), (seed, u)
            certs = dict(found)
            for x in g.vertices():
                cert = is_blocker(g, u, x)
                assert cert == certs.get(x), (seed, u, x)
    assert seen["blocked"] >= 20 and seen["unblocked"] >= 20 and seen["empty"] >= 3, seen


def test_zero_set_surplus_identity():
    for seed in range(40):
        g = gnp(8, 0.3, seed)
        sol = lp_basic_solution(g)
        zero = sol.zero_set()
        if zero:
            assert g.surplus(zero) == 2 * sol.weight - g.n
        else:
            assert 2 * sol.weight == g.n


def test_instance_caches_mu():
    inst = Instance(cycle(5), 3)
    assert inst.lambda2 == 5 and inst.mu2 == 1
    assert inst.lam == 2.5 and inst.mu == 0.5
    assert Instance(cycle(5), 2).mu2 < 0
    assert repr(inst) == "Instance(n=5, k=3, lambda=2.5, mu=0.5)"


def _shuffled_cycle(n: int, seed: int) -> Graph:
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return Graph(vertices=ids, edges=[(ids[i], ids[(i + 1) % n]) for i in range(n)])


def test_lp_long_odd_cycle_does_not_recurse():
    g = _shuffled_cycle(5001, seed=3)
    sol = lp_basic_solution(g)
    assert sol.weight2 == 5001 and sol.zero_set() == frozenset()
    v = g.vertices()[0]
    assert shadow_minus(g, g.neighborhood([v], closed=True)) == 0


def _masks(g: Graph, rng: random.Random) -> list[frozenset[int]]:
    verts = g.vertices()
    masks = [frozenset(), frozenset(verts), frozenset({-1, 10**6}),
             frozenset(verts) | {10**6}]
    masks += [g.neighborhood([x], closed=True) for x in verts]
    for _ in range(25):
        mask = set(rng.sample(verts, rng.randint(0, len(verts))))
        if rng.random() < 0.3:
            mask.add(10**6 + rng.randrange(5))  # ids not in the graph
        masks.append(frozenset(mask))
    return masks


def test_masked_lp_equals_from_scratch_solve():
    """Masked solves on a graph's engine equal cold solves of the deleted graph.

    The zero-set and weight are canonical (independent of the maximum
    matching found), so the comparison is exact.
    """
    rng = random.Random(11)
    graphs = [gnp(n, p, seed) for seed, (n, p) in enumerate(
        [(8, 0.3), (9, 0.45), (12, 0.2), (20, 0.15), (25, 0.1), (30, 0.2)])]
    graphs += [random_regular(n, d, seed) for seed, (n, d) in enumerate(
        [(8, 3), (10, 4), (16, 3), (20, 5), (24, 6)])]
    for g in graphs:
        for mask in _masks(g, rng):
            masked = _lp_core(g, mask)
            sub = g.delete_vertices(mask & set(g.vertices()))
            cold = _lp_core(sub, frozenset())
            assert masked == cold, (g, sorted(mask))
            assert _lp_core(g, mask) == masked  # the first query left the stored matching intact
            if sub.n <= 8:
                assert masked[0] == exhaustive_lp_weight2(sub)
            assert masked[2] == sub.n


def test_lp_engine_dropped_on_mutation_and_not_shared():
    def rebuilt(h: Graph) -> Graph:
        return Graph(vertices=h.vertices(), edges=h.edges())

    g = gnp(14, 0.25, 4)
    lp_basic_solution(g)
    assert g._lp is not None
    u, v = next((u, v) for u in g.vertices() for v in g.vertices()
                if u < v and not g.has_edge(u, v))
    g.add_edge(u, v)
    assert g._lp is None
    assert lp_basic_solution(g) == lp_basic_solution(rebuilt(g))
    assert shadow_minus(g, [u, v]) == shadow_minus(rebuilt(g), [u, v])
    g.add_vertex()
    assert g._lp is None
    assert lp_basic_solution(g) == lp_basic_solution(rebuilt(g))

    children = [g.copy(), g.delete_vertices([0]), g.add_vertex_with_edges([1, 2])[0],
                g.add_biclique([3], [5, 6])]
    for child in children:
        assert child._lp is None
        assert lp_basic_solution(child) == lp_basic_solution(rebuilt(child))
        assert child._lp is not g._lp


def _reached_graphs(obj) -> list:
    """The graphs and LP engines reachable from obj through containers,
    instances and branch children; the walk does not enter a graph."""
    from vcbranch.branching import BranchChild

    found, seen, stack = [], set(), [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, (Graph, _LPEngine)):
            found.append(x)
        elif isinstance(x, (tuple, list, dict, set, frozenset, Instance, BranchChild)):
            stack.extend(gc.get_referents(x))
    return found


def test_derived_graphs_hold_no_engine():
    """A graph from copy or delete_vertices of a graph whose engine is
    built references no LP engine: it builds its own from its own rows when
    first asked, so no derived graph keeps its source's engine alive.  An
    unforced make_child child holds no graph but its parent's, and no
    engine."""
    derived = 0
    for seed, g in enumerate([gnp(18, 0.25, 3), random_regular(16, 4, 5), cycle(11)]):
        g = shuffled_ids(g, seed)
        engine = _engine(g)
        u = g.vertices()[0]
        for child in [g.copy(), g.delete_vertices([u])]:
            assert not any(isinstance(r, _LPEngine) for r in gc.get_referents(child)), seed
            assert _engine(child) is not engine
            assert _engine(child).solve(frozenset()) == _LPEngine(child._adj).solve(frozenset())
            derived += 1
        for table in (None, low_entries(g, 2)):
            reached = _reached_graphs(make_child(Instance(g, g.n), {u}, {u}, table))
            assert len(reached) == 1 and reached[0] is g, seed
        assert g._lp is engine
    assert derived == 6


def _edit_in_place(h: Graph, rng: random.Random) -> str:
    """One random in-place edit of h, of the kinds a reduction run makes."""
    verts = h.vertices()
    kind = rng.choice(("delete", "delete", "add", "join"))
    if kind == "delete" or len(verts) < 4:
        h._delete(rng.sample(verts, rng.randint(1, min(3, len(verts)))))
        return "delete"
    if kind == "add":
        h._add_adjacent(rng.sample(verts, rng.randint(0, 4)))
        return kind
    side = rng.sample(verts, rng.randint(2, min(5, len(verts))))
    cut = rng.randint(1, len(side) - 1)
    h._join(side[:cut], side[cut:])
    return kind


def _assert_engine_equals_cold(h: Graph, rng: random.Random, where) -> None:
    """h's engine holds a maximum matching of h's double cover, and its
    queries answer as a cold engine of h does."""
    engine = _engine(h)
    cold = _LPEngine(h._adj)
    live = [u for u, stamp in enumerate(engine._stamp) if stamp != _DELETED]
    assert len(engine.index) == len(live) == h.n, where
    assert [engine.verts[u] for u in live] == cold.verts, where
    index = engine.index
    assert sorted(index.values()) == live, where
    for u in live:
        assert engine.adj[u] == sorted(index[w] for w in h._adj[engine.verts[u]]), where
    match_l, match_r = engine.match_l, engine.match_r
    for u, w in enumerate(match_l):
        assert w == -1 or (match_r[w] == u and w in engine.adj[u]), where
    for w, u in enumerate(match_r):
        assert u == -1 or match_l[u] == w, where
    assert sorted(engine.exposed) == [u for u in live if match_l[u] == -1], where
    assert len(engine.exposed) == len(cold.exposed), where
    verts = h.vertices()
    masks = [frozenset()] + [frozenset(rng.sample(verts, rng.randint(1, min(4, len(verts)))))
                             for _ in range(3 if verts else 0)]
    for mask in masks:
        assert engine.solve(mask) == cold.solve(mask), (where, sorted(mask))
        assert engine.tight(mask) == cold.tight(mask), (where, sorted(mask))
    for x in verts:
        for stop in range(-1, 4):
            assert engine.deficiency_exceeds(x, stop) == cold.deficiency_exceeds(x, stop), \
                (where, x, stop)


def test_in_place_edits_equal_a_cold_engine():
    """A reduction run deletes vertices, adds a vertex next to a set and
    joins two sides in place, and edits the graph's engine with them.  After
    every edit the engine gives a cold engine's solve (masked and unmasked),
    tight, deficiency_exceeds and exposed-count answers, and an accepted
    certificate means minsurp >= 2.  A copy taken before an edit has no
    engine until it is queried, and then answers for its own graph, while
    h keeps its engine and edits it in place.  A delete that leaves the
    deleted slots outnumbering the live ones drops h's engine instead."""
    rng = random.Random(53)
    bases = [gnp(n, c / n, seed) for seed, n in enumerate(range(10, 46, 3)) for c in (2.0, 3.5)]
    bases += [random_regular(n, d, seed) for seed in range(5)
              for n, d in [(14 + 2 * seed, 3), (13 + seed, 4), (16 + 2 * seed, 5)]]
    seen = collections.Counter()
    for seed, g in enumerate(bases):
        g = shuffled_ids(g, seed)
        h = g.delete_vertices([])  # a derived graph, as a run's first step makes
        _engine(h)
        for step in range(16):
            if h.n < 3:
                break
            snapshot = h.copy() if rng.random() < 0.15 else None
            engine = h._lp
            kind = _edit_in_place(h, rng)
            if snapshot is not None:
                seen["snapshot"] += 1
                assert snapshot._lp is None
                _assert_engine_equals_cold(snapshot, rng, (seed, step, "snapshot"))
                assert snapshot._lp is not engine
            if h._lp is engine:
                seen[kind] += 1
            else:  # compacted: the next query builds a compact engine
                assert kind == "delete" and h._lp is None
                seen["compacted"] += 1
            seen["exposed"] += bool(_engine(h).exposed)
            _assert_engine_equals_cold(h, rng, (seed, step, kind))
            if certify_minsurp_two(h):
                seen["accepted"] += 1
                assert minsurp_full(Graph(h.vertices(), h.edges()))[0] >= 2, (seed, step)
    assert min(seen[k] for k in ("delete", "add", "join", "snapshot", "compacted")) >= 10, seen
    assert seen["accepted"] >= 10 and seen["exposed"] >= 100, seen


def test_engine_delete_declines_exactly_when_deleted_slots_would_outnumber_live_ones():
    """_LPEngine.delete(S) returns False, and leaves every engine field as
    it was, exactly when 2 * (live - |S|) < slots.  Otherwise it deletes S,
    clears the cached verdict and solve memo, and answers as a cold engine
    of the smaller graph does."""
    rng = random.Random(23)
    seen = collections.Counter()
    for seed in range(40):
        h = shuffled_ids(gnp(rng.randint(3, 16), rng.uniform(0.1, 0.6), seed), seed)
        engine = _LPEngine(h._adj)
        while True:
            s = rng.sample(h.vertices(), rng.randint(1, max(1, h.n // 3)))
            engine.solve(frozenset(s[:1]))
            engine.certified = _residual_two_connected(engine)
            fields = [getattr(engine, name) for name in _LPEngine.__slots__]
            state = copy.deepcopy(fields)
            declines = 2 * (len(engine.index) - len(s)) < len(engine.verts)
            assert engine.delete(s) == (not declines), seed
            seen[declines] += 1
            if declines:
                assert [getattr(engine, name) for name in _LPEngine.__slots__] == state, seed
                break
            h = h.delete_vertices(s)
            assert engine.certified is None and engine._memo is None, seed
            assert sorted(engine.index) == h.vertices(), seed
            assert engine.solve(frozenset()) == _LPEngine(h._adj).solve(frozenset()), seed
    assert seen[True] == 40 and seen[False] >= 40, seen


def _union(a: Graph, b: Graph) -> Graph:
    """The disjoint union of a and b, b's ids moved above a's."""
    shift = max(a.vertices(), default=-1) + 1
    return Graph(vertices=a.vertices() + [v + shift for v in b.vertices()],
                 edges=a.edges() + [(u + shift, v + shift) for u, v in b.edges()])


def test_tight_vertices_equal_the_sweep(monkeypatch):
    """Where min{0, minsurp(G - X)} == 0, the residual-graph test names
    exactly the zero entries of the minsurp table, and the certificate is the
    sweep's first surplus-0 one; where it is negative, both return None.

    X is empty or N[x] plus a few random vertices; ids are shuffled so that
    the lowest tight vertex is not an artefact of the generator's order.
    Both paths answer: the two-search shortcut (a strongly connected
    residual digraph, empty answer) and the Tarjan pass, which also answers
    empty on disjoint unions of odd cycles and of regular graphs, whose
    residual digraph is not strongly connected.  The stored matching is
    unchanged after every query.
    """
    strong = []
    connected = _LPEngine._strongly_connected
    monkeypatch.setattr(_LPEngine, "_strongly_connected",
                        lambda self, n_active: strong.append(connected(self, n_active))
                        or strong[-1])
    rng = random.Random(17)
    graphs = [gnp(n, c / n, seed) for seed in range(90)
              for n, c in [(6 + seed % 11, 2.5), (10 + seed % 19, 3.5)]]
    graphs += [random_regular(n, d, seed) for seed in range(16)
               for n, d in [(10 + 2 * seed, 3), (12 + seed, 4), (12 + 2 * seed, 5)]]
    graphs += [cycle(n) for n in range(3, 43)]
    graphs += [_union(cycle(a), cycle(b)) for a in (3, 5, 7) for b in (3, 5, 9)]
    graphs += [_union(random_regular(10 + seed, 4, seed), random_regular(12, 3, seed))
               for seed in range(6)]
    seen = dict.fromkeys(itertools.product((False, True), ("negative", "tight", "tight-free")), 0)
    paths = collections.Counter()
    for seed, g in enumerate(graphs):
        g = shuffled_ids(g, seed)
        engine = _engine(g)
        stored = (engine.match_l[:], engine.match_r[:], engine.exposed[:])
        verts = g.vertices()
        masks = [frozenset()]
        for x in rng.sample(verts, min(4, len(verts))):
            extra = rng.sample(verts, rng.randint(0, 3))
            masks.append(g.neighborhood([x], closed=True) | set(extra))
        for mask in masks:
            if len(mask) >= g.n:
                continue
            strong.clear()
            tight = tight_vertices(g, mask)
            assert (engine.match_l, engine.match_r, engine.exposed) == stored, (seed, sorted(mask))
            answered = strong[:]  # [] when the masked view has no perfect matching
            if answered:
                path = "shortcut" if answered[0] else "tarjan"
                paths[path, "empty" if not tight else "tight"] += 1
                if not answered[0] and not tight and len(g.components()) > 1:
                    paths["tarjan", "empty", "disconnected"] += 1
            cert = zero_surplus_cert(g, mask)
            assert (engine.match_l, engine.match_r, engine.exposed) == stored, (seed, sorted(mask))
            if shadow_minus(g, mask) < 0:
                seen[bool(mask), "negative"] += 1
                assert tight is None and cert is None and not answered, (seed, sorted(mask))
                continue
            value, first, table = minsurp_full(g, mask, need_table=True)
            assert tight == [y for y in sorted(table) if table[y][0] == 0], (seed, sorted(mask))
            if value == 0:
                seen[bool(mask), "tight"] += 1
                assert cert == first, (seed, sorted(mask))
            else:
                seen[bool(mask), "tight-free"] += 1
                assert cert is None, (seed, sorted(mask))
    assert min(seen.values()) >= 50, seen
    assert min(paths["shortcut", "empty"], paths["tarjan", "tight"]) >= 100, paths
    assert paths["tarjan", "empty", "disconnected"] >= 10, paths


def _residual_digraph(g: Graph):
    """(successor lists, sigma) of the residual digraph of the engine's
    perfect matching, on engine indices; None without a perfect matching."""
    engine = _engine(g)
    if engine.exposed:
        return None
    match_l, match_r = engine.match_l, engine.match_r
    succ = [[match_r[w] for w in nbrs if w != match_l[u]] for u, nbrs in enumerate(engine.adj)]
    return succ, match_r


def _capped_menger(succ, s: int, t: int, cap: int = 3) -> int:
    """Internally vertex-disjoint s -> t paths, at most cap, by augmenting
    paths on the split digraph (v_in = 2v, v_out = 2v + 1, unit capacities
    on arcs and on inner vertices)."""
    residual: dict[int, dict[int, int]] = {}

    def arc(a: int, b: int, c: int) -> None:
        residual.setdefault(a, {})[b] = c
        residual.setdefault(b, {}).setdefault(a, 0)

    for v, outs in enumerate(succ):
        arc(2 * v, 2 * v + 1, cap if v in (s, t) else 1)
        for w in outs:
            arc(2 * v + 1, 2 * w, 1)
    flow = 0
    while flow < cap:
        parent = {2 * s + 1: None}
        queue = [2 * s + 1]
        for a in queue:
            for b, c in residual[a].items():
                if c > 0 and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if 2 * t not in parent:
            break
        b = 2 * t
        while parent[b] is not None:
            a = parent[b]
            residual[a][b] -= 1
            residual[b][a] += 1
            b = a
        flow += 1
    return flow


def _strongly_connected(succ, removed: int = -1) -> bool:
    keep = [v for v in range(len(succ)) if v != removed]
    pred = [[] for _ in succ]
    for u, outs in enumerate(succ):
        for v in outs:
            pred[v].append(u)
    for arcs in (succ, pred):
        seen = {keep[0]}
        stack = [keep[0]]
        while stack:
            for v in arcs[stack.pop()]:
                if v != removed and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) < len(keep):
            return False
    return True


def test_certify_minsurp_two():
    """The table value v_x is the number of internally disjoint
    x -> match_r[x] paths in the residual digraph D (compared up to 3), the
    certificate accepts exactly when D is strongly connected without a
    strong articulation point (each vertex removed in turn), and whatever
    it accepts has minsurp >= 2."""
    graphs = [gnp(n, c / n, seed) for seed in range(60)
              for n, c in [(8 + seed % 13, 4.5), (10 + seed % 7, 6.0)]]
    graphs += [random_regular(n, d, seed) for seed in range(12)
               for n, d in [(10 + 2 * seed, 3), (10 + seed, 4), (10 + 2 * seed, 5)]]
    graphs += [cycle(n) for n in range(3, 12)]
    seen = dict.fromkeys(("accepted", "minsurp <= 1", "no perfect matching"), 0)
    for seed, g in enumerate(graphs):
        g = shuffled_ids(g, seed)
        if g.n < 3:
            continue
        certified = certify_minsurp_two(g)
        digraph = _residual_digraph(g)
        if digraph is None:
            seen["no perfect matching"] += 1
            assert not certified, seed
            continue
        succ, sigma = digraph
        value, _, table = minsurp_full(g, need_table=True)
        for i, x in enumerate(_engine(g).verts):
            assert _capped_menger(succ, i, sigma[i]) == min(3, table[x][0]), (seed, x)
        assert certified == (_strongly_connected(succ)
                             and all(_strongly_connected(succ, v) for v in range(g.n))), seed
        if certified:
            seen["accepted"] += 1
            assert value >= 2, seed
        else:
            seen["minsurp <= 1"] += value <= 1
    assert seen["accepted"] >= 50 and seen["minsurp <= 1"] >= 50, seen
    assert seen["no perfect matching"] >= 5, seen

    # minimum degree 3 and minsurp 1: a single vertex cuts some x from sigma(x)
    g = random_regular(10, 3, 192)
    assert minsurp(g).surplus == 1 and not certify_minsurp_two(g)
    # two K4s sharing vertex 0: minsurp 2, D strongly connected, but a
    # strong articulation point, so the certificate declines
    g = Graph(edges=[(u, v) for part in ([0, 1, 2, 3], [0, 4, 5, 6])
                     for u, v in itertools.combinations(part, 2)])
    succ, _ = _residual_digraph(g)
    assert minsurp(g).surplus == 2 and _strongly_connected(succ)
    assert not all(_strongly_connected(succ, v) for v in range(g.n))
    assert not certify_minsurp_two(g)
    assert certify_minsurp_two(complete(5)) and not certify_minsurp_two(Graph())


def _mixed_degree_graphs() -> list[Graph]:
    """G(n, p), regular graphs of degree 3-6 and odd cycles: graphs with and
    without perfect matchings, and with v_x <= 2 entries (random 6-regular
    graphs have none)."""
    graphs = [gnp(n, c / n, seed) for seed in range(60)
              for n, c in [(8 + seed % 13, 3.0), (10 + seed % 11, 4.5), (12 + seed % 7, 6.0)]]
    graphs += [random_regular(n, d, seed) for seed in range(8)
               for n, d in [(10 + 2 * seed, 3), (10 + seed, 4), (12 + 2 * seed, 5), (14 + seed, 6)]]
    graphs += [cycle(n) for n in range(3, 16, 2)]
    return [shuffled_ids(g, seed) for seed, g in enumerate(graphs)]


def test_deficiency_check_equals_the_masked_solve():
    """deficiency_exceeds(x, stop) says whether the deficiency of G - N[x]
    (exposed left vertices of the double cover) exceeds stop, exactly as the
    masked solve reports it.  Every query masks and augments on the stored
    matching in place; after each deficiency check, solve and tight (on N[x]
    and on random masks, with and without a perfect matching of the double
    cover of G - mask) the stored matching is as it was.  A query that
    follows one with a different mask, and an unmasked solve (answered off
    the stored matching with no search), equal a cold engine's first query,
    on engines with and without exposed vertices.  Half the graphs are
    first edited in place (a vertex deleted, a vertex appended), so their
    engines hold deleted slots and appended ones; stop runs from -1 (always
    exceeded) up to 5."""
    rng = random.Random(5)
    seen = dict.fromkeys(range(4), 0)
    tight_seen = {True: 0, False: 0}  # keyed by "tight returned None"
    unmasked_seen = {True: 0, False: 0}  # keyed by "the engine has exposed vertices"
    edited = 0
    for seed, g in enumerate(_mixed_degree_graphs()):
        if seed % 2:
            g = g.delete_vertices([])
            _engine(g)
            g._delete(rng.sample(g.vertices(), 1))
            g._add_adjacent(rng.sample(g.vertices(), 3))
            edited += g._lp is not None and len(g._lp.verts) > len(g._lp.index)
        engine = _engine(g)
        stored = (engine.match_l[:], engine.match_r[:], engine.exposed[:])
        verts = g.vertices()
        for x in verts:
            closed = frozenset(g.neighborhood([x], closed=True))
            weight2, _, n_active = engine.solve(closed)
            assert (engine.match_l, engine.match_r, engine.exposed) == stored, (seed, x)
            deficiency = n_active - weight2
            seen[min(deficiency, 3)] += 1
            for stop in range(-1, 6):
                assert engine.deficiency_exceeds(x, stop) == (deficiency > stop), (seed, x, stop)
                assert (engine.match_l, engine.match_r, engine.exposed) == stored, (seed, x)
            for mask in (closed, frozenset(rng.sample(verts, rng.randint(1, len(verts) // 2)))):
                weight2, _, n_active = engine.solve(mask)
                assert (engine.match_l, engine.match_r, engine.exposed) == stored, (seed, mask)
                tight = engine.tight(mask)
                assert (engine.match_l, engine.match_r, engine.exposed) == stored, (seed, mask)
                assert (tight is None) == (weight2 < n_active), (seed, mask)
                tight_seen[tight is None] += 1
            other = frozenset(rng.sample(verts, rng.randint(0, len(verts) // 2)))
            assert engine.solve(other) == _LPEngine(g._adj).solve(other), (seed, other)
            assert engine.tight(other) == _LPEngine(g._adj).tight(other), (seed, other)
            assert engine.solve(frozenset()) == _LPEngine(g._adj).solve(frozenset()), seed
            assert (engine.match_l, engine.match_r, engine.exposed) == stored, (seed, x)
            unmasked_seen[bool(engine.exposed)] += 1
    assert min(seen.values()) >= 200, seen
    assert min(tight_seen.values()) >= 1000, tight_seen
    assert min(unmasked_seen.values()) >= 400, unmasked_seen
    assert edited >= 100, edited


def test_solve_memo_is_cleared_by_in_place_edits():
    """The engine answers a repeated mask from its memo of the last solve;
    after an in-place delete, add_vertex or add_edges, solve(mask) equals a
    cold engine's answer, so a stale memo is never read."""
    rng = random.Random(11)
    changed = dict.fromkeys(("delete", "add", "join"), 0)
    for seed, g in enumerate(_mixed_degree_graphs()):
        h = g.delete_vertices([])
        engine = _engine(h)
        for kind in changed:
            verts = h.vertices()
            if len(verts) < 4:
                break
            mask = frozenset(rng.sample(verts, rng.randint(1, 3)))
            before = engine.solve(mask)
            assert engine.solve(mask) is before  # the memo's answer
            if kind == "delete":
                h._delete(rng.sample(sorted(set(verts) - mask), 1))
            elif kind == "add":
                h._add_adjacent(rng.sample(verts, 3))
            else:
                cut = len(verts) // 2
                h._join(verts[:cut:2], verts[cut::2])
            if h._lp is not engine:  # compacted: dropped for a rebuild
                break
            after = engine.solve(mask)
            assert after == _LPEngine(h._adj).solve(mask), (seed, kind)
            changed[kind] += after != before
    assert min(changed.values()) >= 30, changed


def test_cold_builds_of_large_sparse_graphs():
    """Cold engines far larger than any derived chain in the other tests: a
    shuffled 20001-vertex path (one left vertex stays exposed) and a shuffled
    80 x 80 grid (perfect matching)."""
    n = 20001
    path = shuffled_ids(Graph(vertices=range(n), edges=[(i, i + 1) for i in range(n - 1)]), 3)
    engine = _LPEngine(path._adj)
    assert engine.solve(frozenset())[0] == n - 1 and len(engine.exposed) == 1
    side = 80
    edges = [(v, v + 1) for v in range(side * side) if v % side < side - 1]
    edges += [(v, v + side) for v in range(side * (side - 1))]
    grid = shuffled_ids(Graph(vertices=range(side * side), edges=edges), 4)
    engine = _LPEngine(grid._adj)
    assert engine.solve(frozenset())[0] == side * side and engine.exposed == []


def test_low_entries_equal_the_table():
    """For minsurp >= bound, low_entries(g, bound) is minsurp_full's table
    restricted to the entries with v_x <= bound, certificates included."""
    seen = dict.fromkeys(((1, "empty"), (1, "entries"), (2, "empty"), (2, "entries")), 0)
    for seed, g in enumerate(_mixed_degree_graphs()):
        value, _, table = minsurp_full(g, need_table=True)
        for bound in (1, 2):
            if value < bound:
                continue
            low = {x: e for x, e in table.items() if e[0] <= bound}
            assert low_entries(g, bound) == low, (seed, bound)
            seen[bound, "entries" if low else "empty"] += 1
    assert min(seen.values()) >= 30, seen


def test_split_child_recertifies_from_the_parent_table():
    """For a simplified G, a vertex u and T = low_entries(G, 2), the x with
    v_x <= 2: minsurp(G - u) >= 2 iff every y in N(u) & T has v_y >= 2 in
    G - u, so recertify_minsurp_two(G - u, N(u) & T) equals the table's
    verdict, and caches it on G - u's engine.  A y in N(u) & T never has:
    a set through y of surplus <= 2 in G loses u from its neighborhood, so
    a non-empty list always declines."""
    graphs = [random_regular(n, d, seed) for seed in range(6) for d in (4, 5, 6)
              for n in (14, 18)]
    graphs += [gnp(n, p, seed) for seed in range(12) for n, p in [(14, 0.35), (18, 0.3)]]
    seen = collections.Counter()
    for seed, g in enumerate(graphs):
        g = simplify(Instance(shuffled_ids(g, seed), g.n))[0].graph
        if not g.n:
            continue
        assert g.min_degree() >= 3 and g.find_pattern() is None and minsurp_full(g)[0] >= 2
        low = low_entries(g, 2)
        for u in g.vertices():
            near = sorted(y for y in g.neighbors(u) if y in low)
            child = g.delete_vertices([u])
            verdict = recertify_minsurp_two(child, near)
            cold = Graph(vertices=child.vertices(), edges=child.edges())
            assert verdict == (minsurp_full(cold)[0] >= 2), (seed, u)
            assert verdict == (not near) and certify_minsurp_two(child) is verdict, (seed, u)
            seen[verdict, "regular" if g.max_degree() == g.min_degree() else "mixed"] += 1
    assert min(seen.values()) >= 5 and len(seen) == 4, seen


def _root_dominates_alone(succ) -> bool:
    """Brute force: everything is reachable from 0, and no x != 0 cuts
    another vertex off 0."""
    def reached(cut):
        seen = {0}
        stack = [0]
        while stack:
            for v in succ[stack.pop()]:
                if v != cut and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen)

    n = len(succ)
    return reached(-1) == n and all(reached(x) == n - 1 for x in range(1, n))


def test_dominator_test_equals_brute_force():
    """_dominated_by_root_only, forward and on the reverse digraph, equals
    the brute-force dominator test, and _strongly_two_connected equals
    "strongly connected, and still so with any one vertex removed", on
    random digraphs and on one digraph per way to fail."""
    two_triangles = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    fixed = {
        "unreachable vertex": [[1], [0], [0]],
        "forward dominator": [[1], [2, 3], [0], [0]],  # 1 dominates 2 and 3
        "reverse dominator": [[2, 3], [0], [1], [1]],  # 1 post-dominates 2 and 3
        # both ways around two triangles that share 0: 0 is the only
        # dominator from 0 in both directions, but D - 0 falls apart
        "split of D - 0": [[v for a, b in two_triangles for u, v in ((a, b), (b, a)) if u == x]
                           for x in range(5)],
        "accepted": [[v for v in range(4) if v != u] for u in range(4)],
    }
    rng = random.Random(7)
    digraphs = list(fixed.values())
    digraphs += [[[v for v in range(n) if v != u and rng.random() < p] for u in range(n)]
                 for n, p in ((rng.randint(2, 9), rng.choice((0.25, 0.4, 0.6)))
                              for _ in range(600))]
    verdicts = []
    for succ in digraphs:
        pred = [[u for u in range(len(succ)) if v in succ[u]] for v in range(len(succ))]
        forward, backward = _dominated_by_root_only(succ, pred), _dominated_by_root_only(pred, succ)
        assert forward == _root_dominates_alone(succ), succ
        assert backward == _root_dominates_alone(pred), succ
        both = _strongly_two_connected(succ, pred)
        assert both == (_strongly_connected(succ)
                        and all(_strongly_connected(succ, v) for v in range(len(succ)))), succ
        verdicts.append((forward, backward, both))
    assert dict(zip(fixed, verdicts)) == {
        "unreachable vertex": (False, True, False),
        "forward dominator": (False, True, False),
        "reverse dominator": (True, False, False),
        "split of D - 0": (True, True, False),
        "accepted": (True, True, True),
    }
    seen = collections.Counter(verdicts)
    assert seen[False, False, False] >= 20 and seen[True, True, True] >= 20, seen
    assert min(seen[False, True, False], seen[True, False, False], seen[True, True, False]) >= 5, seen
