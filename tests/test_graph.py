import itertools
import random

import pytest

from vcbranch.graph import Graph, PatternMatch, PreconditionError, complete, cycle, star
from vcbranch.cli import gnp, parse_graph, random_regular, render_graph

from oracle_utils import shuffled_ids


def test_neighborhood_open_closed():
    c5 = cycle(5)
    assert c5.neighborhood([0]) == {1, 4}
    assert c5.neighborhood([0, 2], closed=True) == {0, 1, 2, 3, 4}
    k13 = star(3)
    assert k13.neighborhood([1, 2, 3]) == {0}


def test_neighborhood_unknown_vertex():
    with pytest.raises(ValueError):
        cycle(5).neighborhood([7])
    with pytest.raises(ValueError, match=r"unknown vertices \[7, 9\]"):
        cycle(5).delete_vertices([9, 7, 1])


def test_surplus():
    assert star(3).surplus([1, 2, 3]) == -2
    assert cycle(5).surplus([0, 2]) == 1
    g = Graph(vertices=[0])
    assert g.surplus([0]) == -1


def test_surplus_rejects_dependent_sets():
    with pytest.raises(PreconditionError):
        cycle(5).surplus([0, 1])
    with pytest.raises(PreconditionError, match="empty set"):
        Graph(vertices=[0]).surplus([])


def test_delete_vertices():
    c5 = cycle(5)
    p4 = c5.delete_vertices([0])
    assert p4.edges() == [(1, 2), (2, 3), (3, 4)]
    assert c5.n == 5  # original untouched
    k4 = complete(4)
    assert k4.delete_vertices([0, 1]).edges() == [(2, 3)]
    assert c5.delete_vertices([4, 0, 1]).edges() == [(2, 3)]


def test_add_vertex_with_edges():
    g, y = Graph().add_vertex_with_edges([])
    assert g.degree(y) == 0
    e = Graph(edges=[(0, 1)])
    tri, y = e.add_vertex_with_edges([0, 1])
    assert tri.edges() == [(0, 1), (0, y), (1, y)]
    rest = cycle(4).delete_vertices([0, 1, 3])
    g, y = rest.add_vertex_with_edges([2])
    assert g.edges() == [(2, y)]
    assert y == 4  # fresh id, never one of the deleted


def test_add_biclique():
    g = Graph(vertices=[0, 1])
    assert g.add_biclique([0], [1]).has_edge(0, 1)
    e = Graph(edges=[(0, 1)])
    assert e.add_biclique([0], [1]).edges() == [(0, 1)]  # idempotent
    p = Graph(vertices=[0, 1, 2], edges=[(0, 2)])
    assert p.add_biclique([0, 1], [2]).edges() == [(0, 2), (1, 2)]
    with pytest.raises(ValueError):
        p.add_biclique([0, 1], [1, 2])


def test_copying_edits_equal_an_add_edge_loop():
    """add_vertex_with_edges and add_biclique (a copy plus one in-place edit)
    equal an add_edge loop on a copy, sides that are already partly joined
    included, and leave the source graph and its LP engine as they were.
    Unknown vertices in a, then in b, then overlapping sides raise, with
    their messages, and change nothing."""
    from vcbranch.lp import _engine

    rng = random.Random(17)
    joined = 0
    for seed in range(40):
        g = shuffled_ids(gnp(rng.randint(3, 14), rng.random(), seed), seed)
        g = g.delete_vertices(rng.sample(g.vertices(), seed % 2))  # ids above the live ones
        engine = _engine(g)
        before = (g.edges(), g.vertices(), g._next_id)
        verts = g.vertices()
        nbrs = rng.sample(verts, rng.randint(0, len(verts)))
        h, y = g.add_vertex_with_edges(nbrs)
        ref = g.copy()
        ry = ref.add_vertex()
        for v in nbrs:
            ref.add_edge(ry, v)
        assert (h, y, h._next_id) == (ref, ry, ref._next_id), seed
        side = rng.sample(verts, rng.randint(2, len(verts)))
        cut = rng.randint(1, len(side) - 1)
        a, b = side[:cut], side[cut:]
        joined += any(g.has_edge(u, v) for u in a for v in b)
        h = g.add_biclique(a, b)
        ref = g.copy()
        for u in a:
            for v in b:
                ref.add_edge(u, v)
        assert (h, h._next_id) == (ref, ref._next_id), seed
        assert (g.edges(), g.vertices(), g._next_id) == before and g._lp is engine, seed
    assert joined >= 10, joined
    g = cycle(5)
    for call, message in [(lambda: g.add_vertex_with_edges([0, 7]), r"unknown vertices \[7\]"),
                          (lambda: g.add_biclique([0, 8], [1, 9]), r"unknown vertices \[8\]"),
                          (lambda: g.add_biclique([0], [1, 9]), r"unknown vertices \[9\]"),
                          (lambda: g.add_biclique([0, 1, 2], [2, 1, 3]),
                           r"biclique sides overlap: \[1, 2\]")]:
        with pytest.raises(ValueError, match=message):
            call()
    assert g == cycle(5) and g._next_id == 5


def test_find_pattern_examples():
    k3 = complete(3)
    assert k3.find_pattern() == ("funnel", 0, 1)
    kite = Graph(edges=[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    assert kite.find_pattern() == ("kite", 0, 1)
    # one edge in N(0) is a funnel with out-neighbor 3, not a kite
    g = Graph(edges=[(0, 1), (0, 2), (0, 3), (1, 2)])
    assert g.find_pattern() == ("funnel", 0, 3)
    assert cycle(5).find_pattern() is None


def _two_scan_pattern(g: Graph):
    """The lowest kite, else the lowest funnel, by one clique test per
    (u, x): the reference for find_pattern's one-pass counting."""
    adj = g._adj

    def is_clique(s):
        return all(b in adj[a] for a, b in itertools.combinations(s, 2))

    for u in g.vertices():
        nbrs = adj[u]
        if len(nbrs) != 3 or not any(len(adj[y] & nbrs) == 2 for y in nbrs):
            continue
        for x in sorted(nbrs):
            a, b = sorted(nbrs - {x})
            if b in adj[a]:
                return PatternMatch("kite", u, x)
    for u in g.vertices():
        nbrs = adj[u]
        if len(nbrs) < 2 or (len(nbrs) == 2 and not is_clique(nbrs)):
            continue
        for x in sorted(nbrs):
            if is_clique(nbrs - {x}):
                return PatternMatch("funnel", u, x)
    return None


def test_find_pattern_equals_the_two_scans():
    """One counting pass finds what a kite scan followed by a funnel scan
    finds, on seeded G(n, p) and regular graphs, graphs with triangles
    through degree-2 vertices, K4/K5 neighbourhoods and isolated vertices,
    those graphs with a few vertices deleted, and copies edited in place by
    alternating _delete and _join steps (their neighbour sets then iterate
    in edit order, not id order)."""
    graphs = [gnp(n, p, seed) for seed in range(40)
              for n, p in [(6 + seed % 9, 0.3), (8 + seed % 7, 0.5), (12, 0.7)]]
    graphs += [random_regular(n, d, seed) for seed in range(10)
               for n, d in [(8 + 2 * seed, 3), (8 + seed, 4), (10 + 2 * seed, 5), (12, 6)]]
    graphs += [cycle(n) for n in (3, 4, 5)] + [complete(n) for n in range(1, 7)]
    # triangles through degree-2 vertices hanging off a 4-cycle
    graphs.append(Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 2), (5, 3)]))
    # u = 0 with a K4 and a K5 on its neighbourhood, plus isolated vertices
    for k in (4, 5):
        g = complete(k + 1)
        g.add_edge(k, k + 1)
        g.add_edge(k + 1, k + 2)
        g.add_vertex(k + 5)
        graphs.append(g)
    graphs.append(Graph(vertices=range(4)))
    rng = random.Random(5)
    kinds = set()
    edited = dict.fromkeys((None, "kite", "funnel"), 0)
    for seed, g in enumerate(graphs):
        g = shuffled_ids(g, seed)
        variants = [g] + [g.delete_vertices(rng.sample(g.vertices(), min(g.n, k)))
                          for k in (1, 2, 4)]
        for h in variants:
            match = h.find_pattern()
            assert match == _two_scan_pattern(h), (seed, h.edges())
            kinds.add(None if match is None else match.kind)
        h = g.delete_vertices([])
        for step in range(4):
            verts = h.vertices()
            if len(verts) < 3:
                break
            if step % 2:
                side = rng.sample(verts, min(4, len(verts)))
                h._join(side[:1], side[1:])
            else:
                h._delete(rng.sample(verts, 1))
            match = h.find_pattern()
            assert match == _two_scan_pattern(h), (seed, step, h.edges())
            edited[None if match is None else match.kind] += 1
    assert kinds == {None, "kite", "funnel"}
    assert min(edited.values()) >= 20, edited


def test_components():
    assert cycle(5).components() == [[0, 1, 2, 3, 4]]
    two = Graph(edges=[(0, 1), (2, 3)])
    assert two.components() == [[0, 1], [2, 3]]
    assert Graph().components() == []


def test_graphs_compare_by_adjacency_and_are_not_hashable():
    assert Graph(edges=[(0, 1)]) == Graph(edges=[(1, 0)]) != Graph(vertices=[0, 1])
    assert Graph().__eq__(1) is NotImplemented and Graph() != 1
    assert repr(cycle(5)) == "Graph(n=5, m=5)"
    with pytest.raises(TypeError):
        hash(Graph())


def test_neighborhood_invariants_random():
    rng = random.Random(7)
    for seed in range(25):
        g = gnp(10, 0.3, seed)
        s = {v for v in g.vertices() if rng.random() < 0.4}
        if not s:
            continue
        open_n = g.neighborhood(s)
        closed_n = g.neighborhood(s, closed=True)
        assert closed_n == open_n | s
        assert not (open_n & s)


def test_surplus_modularity():
    # two independent sets with disjoint closed neighborhoods: surplus adds
    g = Graph(edges=[(0, 1), (0, 2), (5, 6), (5, 7), (6, 8)])
    i1, i2 = {1, 2}, {6, 7}
    assert not (g.neighborhood(i1, closed=True) & g.neighborhood(i2, closed=True))
    assert g.surplus(i1 | i2) == g.surplus(i1) + g.surplus(i2)


def test_delete_then_readd_isomorphic():
    for seed in range(10):
        g = gnp(9, 0.35, seed)
        v = 4
        nbrs = set(g.neighbors(v))
        g2, y = g.delete_vertices([v]).add_vertex_with_edges(nbrs)
        # rename y back to v and compare edge sets
        edges = {tuple(sorted((v if a == y else a, v if b == y else b)))
                 for a, b in g2.edges()}
        assert edges == set(g.edges())


def test_serialize_round_trip_random():
    for seed in range(20):
        g = gnp(11, 0.3, seed)
        again = parse_graph(render_graph(g))
        assert again.edges() == g.edges()
        dim = parse_graph(render_graph(g, fmt="dimacs"), fmt="dimacs")
        assert dim.edges() == g.edges()


def test_no_self_loops_or_reused_ids():
    g = Graph(edges=[(0, 1)])
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    with pytest.raises(ValueError, match="non-negative"):
        g.add_vertex(-1)
    g2, y1 = g.add_vertex_with_edges([0])
    g3 = g2.delete_vertices([y1])
    _, y2 = g3.add_vertex_with_edges([0])
    assert y2 > y1  # ids are never reused after deletion
