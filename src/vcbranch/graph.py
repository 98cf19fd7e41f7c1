"""Simple undirected graph with stable integer vertex ids.

Vertices keep their ids across deletions; ids of newly created vertices
(degree-2 folds, funnel folds) are fresh and never reused, so a reduction
trace can refer to vertices unambiguously.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional


class PreconditionError(ValueError):
    """A mathematical precondition of an operation does not hold."""


class PatternMatch(NamedTuple):
    kind: str
    u: int
    out: int


class Graph:
    """Mutable container, but all public operations return fresh graphs.

    Callers that branch hold one copy per subproblem; nothing is shared,
    the LP engine included: a derived graph builds its own from its own
    rows when first asked.

    The private edits _delete, _add_adjacent and _join change a graph in
    place, and its LP engine with it when that is built: each calls one
    engine edit (delete, add_vertex, add_edges) and reads no engine field,
    and _delete drops the engine when its delete declines.  Past construction,
    every edit of a graph is a derivation (copy, delete_vertices) or one of
    these three; add_vertex_with_edges and add_biclique are a copy plus
    _add_adjacent or _join.  Only a reduction run edits in place, and only
    a graph that no caller reads until the run returns it: the one its
    first step derived, or one handed over with _own (a branch child's
    G - D, derived when the child is first read).
    """

    __slots__ = ("_adj", "_next_id", "_lp")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        self._adj: dict[int, set[int]] = {}
        self._next_id = 0
        self._lp = None  # LP engine (vcbranch.lp); built on demand, dropped by add_vertex and _delete
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction ------------------------------------------------------

    def add_vertex(self, v: Optional[int] = None) -> int:
        if v is None:
            v = self._next_id
        v = int(v)
        if v < 0:
            raise ValueError(f"vertex ids must be non-negative, got {v}")
        self._adj.setdefault(v, set())
        self._lp = None
        self._next_id = max(self._next_id, v + 1)
        return v

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u].add(v)
        self._adj[v].add(u)

    def copy(self) -> "Graph":
        return self._derive({v: set(nbrs) for v, nbrs in self._adj.items()})

    def _derive(self, adj: dict[int, set[int]]) -> "Graph":
        g = Graph()
        g._adj = adj
        g._next_id = self._next_id
        return g

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        if v not in self._adj:
            raise ValueError(f"unknown vertex {v}")
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        return max((len(nb) for nb in self._adj.values()), default=0)

    def top_vertex(self) -> int:
        """The lowest vertex of maximum degree of a non-empty graph."""
        adj = self._adj
        return max(adj, key=lambda v: (len(adj[v]), -v))

    def min_degree(self) -> int:
        return min((len(nb) for nb in self._adj.values()), default=0)

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in self._adj for v in self._adj[u] if u < v)

    def _check_vertices(self, s: Iterable[int]) -> set[int]:
        s = set(s)
        adj = self._adj
        for v in s:
            if v not in adj:
                raise ValueError(f"unknown vertices {sorted(v for v in s if v not in adj)}")
        return s

    def neighborhood(self, s: Iterable[int], closed: bool = False) -> frozenset[int]:
        """Open or closed neighborhood of a vertex set."""
        s = self._check_vertices(s)
        out: set[int] = set()
        for v in s:
            out |= self._adj[v]
        if closed:
            out |= s
        else:
            out -= s
        return frozenset(out)

    def is_independent(self, s: Iterable[int]) -> bool:
        s = self._check_vertices(s)
        return all(not (self._adj[v] & s) for v in s)

    def surplus(self, indset: Iterable[int]) -> int:
        """|N(I)| - |I| for a non-empty independent set I."""
        s = self._check_vertices(indset)
        if not s:
            raise PreconditionError("surplus of an empty set is undefined")
        if not self.is_independent(s):
            raise PreconditionError(f"set {sorted(s)} is not independent")
        return len(self.neighborhood(s)) - len(s)

    # -- mutations (value semantics: return new graphs) ---------------------

    def delete_vertices(self, s: Iterable[int]) -> "Graph":
        s = self._check_vertices(s)
        return self._derive({v: self._adj[v] - s for v in self._adj if v not in s})

    def add_vertex_with_edges(self, nbrs: Iterable[int]) -> tuple["Graph", int]:
        g = self.copy()
        return g, g._add_adjacent(nbrs)

    def add_biclique(self, a: Iterable[int], b: Iterable[int]) -> "Graph":
        a = self._check_vertices(a)
        b = self._check_vertices(b)
        if a & b:
            raise ValueError(f"biclique sides overlap: {sorted(a & b)}")
        g = self.copy()
        g._join(a, b)
        return g

    # -- in-place edits (a reduction run's own graph) -----------------------

    def _delete(self, s: Iterable[int]) -> None:
        """Delete a vertex set in place.  The engine is dropped when its
        delete declines (it decides when to compact): the next LP query
        builds a compact one."""
        s = self._check_vertices(s)
        adj = self._adj
        for v in s:
            for w in adj.pop(v):
                if w not in s:
                    adj[w].discard(v)
        if self._lp is not None and not self._lp.delete(s):
            self._lp = None

    def _add_adjacent(self, nbrs: Iterable[int]) -> int:
        """Add a fresh vertex adjacent to nbrs in place, and return it."""
        nbrs = self._check_vertices(nbrs)
        y = self._next_id
        self._next_id = y + 1
        adj = self._adj
        adj[y] = nbrs
        for v in nbrs:
            adj[v].add(y)
        lp = self._lp
        if lp is not None:
            lp.add_vertex(y, nbrs)
        return y

    def _join(self, a: Iterable[int], b: Iterable[int]) -> None:
        """Add every edge between the disjoint vertex sets a and b in place."""
        b = self._check_vertices(b)
        adj = self._adj
        new = [(u, v) for u in self._check_vertices(a) for v in b - adj[u]]
        for u, v in new:
            adj[u].add(v)
            adj[v].add(u)
        lp = self._lp
        if lp is not None and new:
            lp.add_edges(new)

    # -- structure ----------------------------------------------------------

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        comps = []
        for start in self.vertices():
            if start in seen:
                continue
            comp = {start}
            queue = [start]
            while queue:
                v = queue.pop()
                for w in self._adj[v]:
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            comps.append(sorted(comp))
        return comps

    def find_pattern(self, _among: Optional[Iterable[int]] = None) -> Optional[PatternMatch]:
        """The lowest kite if there is one, otherwise the lowest funnel;
        "lowest" orders by (u, out-neighbor).

        funnel: vertex u with neighbor x such that N(u) - {x} is a clique.
              A degree-2 u needs adjacent neighbors: the other shape is the
              degree-2 fold's job, not the funnel rule's.
        kite: degree-3 u whose neighborhood holds a path x - y - z; the
              out-neighbor is the lowest funnel out.
        One pass: with inner[a] = |N(a) & N(u)| per neighbor a, N(u) - {x}
        is a clique iff every edge missing from N(u) touches x, i.e. iff
        d - 1 - inner[x] equals the number of missing edges.  Only x may
        have inner[x] < d - 2, so a second such neighbor ends the check;
        that rejection does not depend on the order, so the neighbors are
        counted unsorted, and the lowest x is picked only for a u that
        survives it.
        With _among, only those vertices are tried as u: the caller vouches
        that no pattern has its u elsewhere (see vcbranch.reduce).
        """
        adj = self._adj
        funnel = None
        for u in sorted(adj if _among is None else _among):
            nbrs = adj[u]
            d = len(nbrs)
            if d < 2 or (funnel is not None and d != 3):
                continue
            inner = []
            short = 0
            for a in nbrs:
                count = len(adj[a] & nbrs)
                if count < d - 2:
                    short += 1
                    if short == 2:
                        break
                inner.append((a, count))
            else:
                edges = sum(c for _, c in inner) // 2
                if d == 2 and not edges:
                    continue
                missing = d * (d - 1) // 2 - edges
                x = min((x for x, c in inner if d - 1 - c == missing), default=None)
                if x is None:
                    continue
                if d == 3 and edges >= 2:
                    return PatternMatch("kite", u, x)
                if funnel is None:
                    funnel = PatternMatch("funnel", u, x)
        return funnel

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj


def cycle(n: int) -> Graph:
    g = Graph(vertices=range(n))
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def path(n: int) -> Graph:
    g = Graph(vertices=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def complete(n: int) -> Graph:
    g = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def star(leaves: int) -> Graph:
    """K_{1,leaves} with center 0."""
    g = Graph(vertices=range(leaves + 1))
    for i in range(1, leaves + 1):
        g.add_edge(0, i)
    return g
