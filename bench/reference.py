"""Exact minimum vertex cover size, written independently of vcbranch.

A plain branch and bound: degree-0/1/2 reductions (degree-2 vertices with
non-adjacent neighbours are folded), a split into connected components,
and a two-way branch on a maximum-degree vertex (take it, or take all its
neighbours), pruned with the bound ceil(edges / max degree).  Only the
size is computed, which is all the benchmark checks covers against.
build_pool.py stores it per graph in pool.json.
"""

from __future__ import annotations

import itertools
from typing import Iterable

Adj = dict[int, set[int]]


def _remove(adj: Adj, v: int) -> None:
    for w in adj.pop(v):
        adj[w].discard(v)


class _Search:
    def __init__(self, first_free_id: int):
        self.ids = itertools.count(first_free_id)

    def reduce(self, adj: Adj) -> int:
        """Apply the degree <= 2 rules to a fixpoint, in place; return the
        number of cover vertices they account for."""
        taken = 0
        queue = [v for v in adj if len(adj[v]) <= 2]
        while queue:
            v = queue.pop()
            if v not in adj or len(adj[v]) > 2:
                continue
            nbrs = list(adj[v])
            touched: set[int] = set()
            if not nbrs:
                del adj[v]
                continue
            if len(nbrs) == 1:
                (u,) = nbrs
                touched = set(adj[u])
                _remove(adj, u)
                _remove(adj, v)
                taken += 1
            else:
                a, b = nbrs
                if b in adj[a]:  # triangle: both neighbours are in some optimum
                    touched = (adj[a] | adj[b]) - {a, b, v}
                    _remove(adj, a)
                    _remove(adj, b)
                    _remove(adj, v)
                    taken += 2
                else:  # fold v, a, b into one new vertex
                    merged = (adj[a] | adj[b]) - {v}
                    for x in (a, b, v):
                        _remove(adj, x)
                    w = next(self.ids)
                    adj[w] = set(merged)
                    for x in merged:
                        adj[x].add(w)
                    touched = merged | {w}
                    taken += 1
            queue.extend(x for x in touched if x in adj and len(adj[x]) <= 2)
        return taken

    def solve(self, adj: Adj, budget: float = float("inf")) -> float:
        """Minimum cover size of adj (consumed), or a value >= budget when
        the minimum is at least budget."""
        taken = self.reduce(adj)
        if not adj:
            return taken
        comps = _components(adj)
        if len(comps) > 1:
            total = taken
            for comp in comps:
                total += self.solve({v: set(adj[v]) for v in comp}, budget - total)
                if total >= budget:
                    return total
            return total
        return taken + self._branch(adj, budget - taken)

    def _branch(self, adj: Adj, budget: float) -> float:
        edges = sum(len(nb) for nb in adj.values()) // 2
        maxdeg = max(len(nb) for nb in adj.values())
        if -(-edges // maxdeg) >= budget:
            return budget
        v = min(u for u in adj if len(adj[u]) == maxdeg)
        take_v = {u: set(nb) for u, nb in adj.items()}
        _remove(take_v, v)
        best = 1 + self.solve(take_v, budget - 1)
        budget = min(budget, best)
        take_nbrs = {u: set(nb) for u, nb in adj.items()}
        for u in adj[v]:
            _remove(take_nbrs, u)
        del take_nbrs[v]
        return min(best, maxdeg + self.solve(take_nbrs, budget - maxdeg))


def _components(adj: Adj) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        comp, stack = [start], [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def min_cover_size(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Size of a minimum vertex cover of the graph on vertices 0..n-1."""
    adj: Adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return int(_Search(n).solve(adj))


def is_cover(edges: Iterable[tuple[int, int]], cover: Iterable[int]) -> bool:
    cover = set(cover)
    return all(u in cover or v in cover for u, v in edges)
