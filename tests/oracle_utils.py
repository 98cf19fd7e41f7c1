"""Independent test oracles and corpus builders.

Everything here is deliberately naive: exhaustive enumeration over subsets
or over {0, 1/2, 1}^n assignments, independent of the solver's code paths.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from vcbranch.graph import Graph
from vcbranch.reduce import ReductionStep, ReductionTrace
from vcbranch.cli import NAMED_GRAPHS, gnp


def is_cover(g: Graph, cover: Iterable[int]) -> bool:
    cover = set(cover)
    return all(u in cover or v in cover for u, v in g.edges())


def exhaustive_vc(g: Graph) -> int:
    """Minimum cover size by subset enumeration in increasing size."""
    verts = g.vertices()
    edges = g.edges()
    if not edges:
        return 0
    for size in range(len(verts) + 1):
        for subset in itertools.combinations(verts, size):
            s = set(subset)
            if all(u in s or v in s for u, v in edges):
                return size
    raise AssertionError("unreachable")


def exhaustive_lp_weight2(g: Graph) -> int:
    """2 * optimum of the LP over all {0, 1/2, 1} assignments."""
    verts = g.vertices()
    edges = [(verts.index(u), verts.index(v)) for u, v in g.edges()]
    best = None
    for theta in itertools.product((0, 1, 2), repeat=len(verts)):
        if all(theta[u] + theta[v] >= 2 for u, v in edges):
            w = sum(theta)
            if best is None or w < best:
                best = w
    return 0 if best is None else best


def exhaustive_minsurp(g: Graph) -> int:
    """Minimum of |N(I)| - |I| over all non-empty independent sets."""
    verts = g.vertices()
    best = None
    for size in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, size):
            s = set(subset)
            if any(g.neighbors(u) & s for u in s):
                continue
            surp = len(g.neighborhood(s)) - len(s)
            if best is None or surp < best:
                best = surp
    if best is None:
        raise ValueError("empty graph")
    return best


def replay_steps(g: Graph, trace: ReductionTrace, final: Graph
                 ) -> list[tuple[Graph, ReductionStep, Graph]]:
    """(graph before, step, graph after) for each step of a simplify trace
    of g, the graphs rebuilt from g and the step records alone: P1 deletes;
    P2 deletes, then adds the created vertex next to N(N(I)) - I of the
    graph before; P3 deletes, then joins side_u to side_x.  The last graph
    must equal final, the graph the run returned."""
    out = []
    for step in trace.steps:
        after = g.delete_vertices(step.removed)
        if step.kind == "P2":
            outer = g.neighborhood(step.nbrs) - set(step.indset)
            after, y = after.add_vertex_with_edges(outer)
            assert y == step.created
        elif step.kind == "P3":
            after = after.add_biclique(step.side_u, step.side_x)
        out.append((g, step, after))
        g = after
    assert g == final
    return out


def shuffled_ids(g: Graph, seed: int) -> Graph:
    """g with its vertex ids permuted (and spread out) by a seeded shuffle,
    so that id order says nothing about the graph's structure."""
    verts = g.vertices()
    ids = [3 * i + 1 for i in range(len(verts))]
    random.Random(seed).shuffle(ids)
    new = dict(zip(verts, ids))
    return Graph(vertices=ids, edges=[(new[u], new[v]) for u, v in g.edges()])


def shuffled_union(parts: list[Graph], seed: int) -> tuple[Graph, list[set[int]]]:
    """The disjoint union of parts with shuffled ids, and each part's ids."""
    ids = list(range(sum(p.n for p in parts)))
    random.Random(seed).shuffle(ids)
    g, owners, start = Graph(vertices=ids), [], 0
    for part in parts:
        new = dict(zip(part.vertices(), ids[start:start + part.n]))
        start += part.n
        for u, v in part.edges():
            g.add_edge(new[u], new[v])
        owners.append(set(new.values()))
    return g, owners


P_CHOICES = (0.1, 0.2, 0.3, 0.4, 0.5)


def random_corpus(count: int, n_max: int = 14, n_min: int = 6) -> list[tuple[int, Graph]]:
    """Deterministic seeded G(n, p) corpus used across the test suite."""
    out = []
    span = n_max - n_min + 1
    for seed in range(count):
        n = n_min + seed % span
        p = P_CHOICES[seed % len(P_CHOICES)]
        out.append((seed, gnp(n, p, seed)))
    return out


NAMED_EXPECTED = {
    "c5": 3, "c6": 3, "c7": 4, "c8": 4, "c9": 5,
    "petersen": 6, "q4": 8, "c9_12": 6, "k4": 3, "k13": 1,
}

NAMED_CORPUS = sorted(set(NAMED_EXPECTED) | {
    "grid2x4", "grid3x3", "grid3x4", "c11_123", "c13_123", "k5", "k3",
})


def named_corpus() -> list[tuple[str, Graph]]:
    return [(name, NAMED_GRAPHS[name]()) for name in NAMED_CORPUS]
