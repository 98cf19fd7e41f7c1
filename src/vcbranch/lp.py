"""Everything derived from the vertex cover LP relaxation.

The LP is solved combinatorially: a maximum matching of the bipartite
double cover (left copy Lu, right copy Rv, one edge per direction of each
original edge) has size 2*lambda(G), and the Koenig cover extracted from it
yields an optimal half-integral solution.  The zero-set of that solution is
an independent set realizing min{0, minsurp(G)}, which drives the minsurp
recursion minsurp(G) = min_x (minsurp^-(G - N[x]) + deg(x) - 1).

All half-integral quantities are carried as doubled integers; nothing in
this module touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import Graph

INFINITE_SURPLUS = math.inf

_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True)
class HalfIntegralSolution:
    """Optimal half-integral LP solution; theta stored as doubled values."""

    theta2: dict[int, int]  # vertex -> 0, 1 or 2
    weight2: int            # sum of theta2 = 2*lambda

    @property
    def weight(self) -> float:
        return self.weight2 / 2

    def zero_set(self) -> frozenset[int]:
        return frozenset(v for v, t in self.theta2.items() if t == 0)


@dataclass(frozen=True)
class SurplusCert:
    """An independent set together with its surplus |N(I)| - |I|."""

    indset: frozenset[int]
    surplus: int

    def verify(self, g: Graph) -> bool:
        return g.surplus(self.indset) == self.surplus


# ---------------------------------------------------------------------------
# LP core: Hopcroft-Karp on the bipartite double cover + Koenig extraction.
# All routines take an `excluded` mask so callers can work on G - X without
# materializing subgraphs.  One engine per graph holds a maximum matching of
# the full double cover; a masked solve drops the matched pairs that touch
# the mask and re-augments from there.  The Koenig zero-set (left vertices
# that some maximum matching leaves exposed, minus their right neighbours)
# and the matching size do not depend on which maximum matching is found,
# so warm-started and memoized answers equal from-scratch ones.
# ---------------------------------------------------------------------------

class _LPEngine:
    """Double cover of one graph, its maximum matching and a mask memo.

    Read-only after construction except for memo inserts; each solve works
    on its own copy of the matching.  A masked right vertex is matched to
    the marker index n; dist[n] == -2 and seen_l[n] keep every search from
    entering it.
    """

    __slots__ = ("verts", "index", "adj", "match_l", "match_r", "exposed", "memo")

    def __init__(self, adj_map: dict[int, set[int]]):
        self.verts = verts = sorted(adj_map)
        self.index = index = {v: i for i, v in enumerate(verts)}
        self.adj = [sorted(index[w] for w in adj_map[v]) for v in verts]
        n = len(verts)
        match_l = [-1] * n
        match_r = [-1] * n
        self.exposed = self._augment(match_l, match_r, list(range(n)))
        self.match_l = match_l
        self.match_r = match_r
        self.memo: dict[frozenset[int], tuple[int, frozenset[int], int]] = {}

    def _augment(self, match_l: list[int], match_r: list[int], cand: list[int]) -> list[int]:
        """Hopcroft-Karp phases until no augmenting path is left.

        match_l[u] is -1 for an exposed left vertex, -2 for a masked one;
        cand holds every exposed left vertex (and maybe others).  Returns
        the exposed left vertices of the final maximum matching.
        """
        adj = self.adj
        n = len(adj)
        inf = n + 1
        while True:
            roots = [u for u in cand if match_l[u] == -1]
            dist = [inf] * n
            dist.append(-2)
            for u in roots:
                dist[u] = 0
            queue = roots[:]
            found = inf
            for u in queue:
                du = dist[u]
                if du >= found:
                    break
                for w in adj[u]:
                    nxt = match_r[w]
                    if nxt < 0:
                        found = du + 1
                    elif dist[nxt] == inf:
                        dist[nxt] = du + 1
                        queue.append(nxt)
            if found == inf:
                return roots
            # Vertex-disjoint shortest augmenting paths by an iterative DFS
            # along the BFS layers; each vertex's edge iterator is its cursor
            # for the whole phase.  Only the last layer looks for a free
            # right vertex; free (-1) and masked (n) right vertices both
            # read dist[n] == -2, which matches no layer.
            cursors = list(map(iter, adj))
            for root in roots:
                stack = [root]
                path: list[int] = []  # path[i]: the edge stack[i] leaves by
                while stack:
                    u = stack[-1]
                    step = dist[u] + 1
                    for w in cursors[u]:
                        nxt = match_r[w]
                        if step == found:
                            if nxt < 0:
                                path.append(w)
                                for s, w in zip(stack, path):
                                    match_r[w] = s
                                    match_l[s] = w
                                stack.clear()
                                break
                        elif dist[nxt] == step:
                            path.append(w)
                            stack.append(nxt)
                            break
                    else:
                        dist[u] = inf
                        stack.pop()
                        if path:
                            path.pop()

    def solve(self, excluded: frozenset[int]) -> tuple[int, frozenset[int], int]:
        """Return (weight2, zero_set, n_active) for LPVC(G - excluded)."""
        hit = self.memo.get(excluded)
        if hit is not None:
            return hit
        index = self.index
        n = len(self.verts)
        match_l = self.match_l[:]
        match_r = self.match_r[:]
        cand = self.exposed[:]
        masked = 0
        for v in excluded:
            i = index.get(v)
            if i is None:
                continue
            masked += 1
            j = match_l[i]
            if j >= 0:
                match_r[j] = -1
            match_l[i] = -2
            j = match_r[i]
            if j >= 0:
                match_l[j] = -1
                cand.append(j)
            match_r[i] = n
        if masked == n:
            result = (0, _EMPTY, 0)
        else:
            exposed = self._augment(match_l, match_r, cand)
            result = (n - masked - len(exposed), self._zero_set(match_r, exposed), n - masked)
        self.memo[excluded] = result
        return result

    def _zero_set(self, match_r: list[int], exposed: list[int]) -> frozenset[int]:
        """Koenig: alternating reachability from the exposed left vertices.

        cover = (L not reachable) + (R reachable); theta2(v) = Lv + Rv in
        cover, so v has value 0 iff Lv is reachable and Rv is not.
        """
        adj = self.adj
        n = len(adj)
        seen_l = bytearray(n + 1)
        seen_l[n] = 1
        seen_r = bytearray(n)
        queue = exposed[:]
        for u in queue:
            seen_l[u] = 1
        for u in queue:
            for w in adj[u]:
                if not seen_r[w]:
                    seen_r[w] = 1
                    nxt = match_r[w]
                    if nxt >= 0 and not seen_l[nxt]:
                        seen_l[nxt] = 1
                        queue.append(nxt)
        verts = self.verts
        return frozenset(verts[u] for u in queue if not seen_r[u])


def _lp_core(g: Graph, excluded: frozenset[int]) -> tuple[int, frozenset[int], int]:
    """Return (weight2, zero_set, n_active) for LPVC(G - excluded)."""
    engine = g._lp
    if engine is None:
        engine = g._lp = _LPEngine(g._adj)
    return engine.solve(frozenset(excluded))


def _theta2_from_cover(g: Graph, excluded: frozenset[int]) -> HalfIntegralSolution:
    adj_map = g._adj
    verts = sorted(v for v in adj_map if v not in excluded)
    n = len(verts)
    weight2, zero, _ = _lp_core(g, excluded)
    theta2: dict[int, int] = {}
    for v in verts:
        theta2[v] = 1
    for v in zero:
        theta2[v] = 0
    ones = set()
    for v in zero:
        for w in adj_map[v]:
            if w not in excluded:
                ones.add(w)
    for v in ones:
        theta2[v] = 2
    # remaining half vertices already at 1; weight must come out to 2*lambda
    assert sum(theta2.values()) == weight2 or n == 0
    return HalfIntegralSolution(theta2=theta2, weight2=weight2)


def lp_basic_solution(g: Graph, excluded: Iterable[int] = ()) -> HalfIntegralSolution:
    """Optimal half-integral solution to LPVC(g - excluded).

    The zero-set Z is independent, N(Z) is the one-set, and
    surp(Z) = 2*weight - n = min{0, minsurp}.
    """
    return _theta2_from_cover(g, frozenset(excluded))


def lp_weight2(g: Graph, excluded: frozenset[int] = _EMPTY) -> int:
    """2*lambda(g - excluded)."""
    return _lp_core(g, excluded)[0]


def _msm_zeroset(g: Graph, excluded: frozenset[int]) -> tuple[int, frozenset[int]]:
    """min{0, minsurp} of g - excluded, with a zero-set certificate.

    The certificate is non-empty exactly when the value is negative.
    """
    weight2, zero, n = _lp_core(g, excluded)
    return weight2 - n, zero


def _masked_closed_nbhd(g: Graph, x: int, excluded: frozenset[int]) -> frozenset[int]:
    return frozenset(w for w in g._adj[x] if w not in excluded) | {x}


def minsurp_full(
    g: Graph, excluded: frozenset[int] = _EMPTY, *, need_table: bool = False
) -> tuple[int, frozenset[int], Optional[dict[int, tuple[int, frozenset[int]]]]]:
    """(minsurp, certificate indset, per-vertex table or None).

    Fast path: one LP call decides minsurp < 0 and certifies it via the
    zero-set.  Otherwise the per-vertex recursion runs; the table maps x to
    (minsurp^-(G - N[x]) + deg(x) - 1, canonical min-set through x).  With
    need_table=False the sweep stops at the first vertex witnessing
    minsurp = 0 (the floor once the fast path fails).
    """
    adj_map = g._adj
    verts = sorted(v for v in adj_map if v not in excluded)
    if not verts:
        raise ValueError("minsurp of an empty graph is undefined")
    msm, zero = _msm_zeroset(g, excluded)
    if msm < 0 and not need_table:
        return msm, zero, None
    best_v = None
    best_cert = None
    table: dict[int, tuple[int, frozenset[int]]] = {}
    for x in verts:
        nbrs = [w for w in adj_map[x] if w not in excluded]
        sub_excluded = excluded | set(nbrs) | {x}
        msm_x, zero_x = _msm_zeroset(g, sub_excluded)
        v_x = len(nbrs) - 1 + msm_x
        cert_x = zero_x | {x}
        table[x] = (v_x, cert_x)
        if best_v is None or v_x < best_v:
            best_v, best_cert = v_x, cert_x
            if not need_table and msm == 0 and v_x == 0:
                break  # 0 is the floor here; x is the lowest witness
    return best_v, best_cert, (table if need_table else None)


def minsurp(g: Graph, excluded: Iterable[int] = ()) -> SurplusCert:
    """Minimum surplus over non-empty independent sets, with certificate."""
    value, cert, _ = minsurp_full(g, frozenset(excluded))
    return SurplusCert(indset=frozenset(cert), surplus=value)


def shadow(g: Graph, x: Iterable[int]):
    """minsurp(g - x); +infinity when g - x is empty."""
    xs = g._check_vertices(x)
    if len(xs) >= g.n:
        return INFINITE_SURPLUS
    value, _, _ = minsurp_full(g, frozenset(xs))
    return value


def shadow_minus(g: Graph, x: Iterable[int]):
    """min{0, shadow(x)} via a single LP; +infinity sentinel when empty."""
    xs = frozenset(x)
    if len(xs) >= g.n:
        return INFINITE_SURPLUS
    return _msm_zeroset(g, xs)[0]


def find_nonsingleton_minset(
    g: Graph, table: dict[int, tuple[int, frozenset[int]]], target: int
) -> Optional[frozenset[int]]:
    """A min-set of size >= 2 with surplus == target, if one exists.

    First pass reads the canonical certificates off the minsurp table; the
    gap case (zero-set empty because minsurp(G - N[x]) == 0 exactly) runs
    one nested minsurp per remaining candidate.
    """
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
        if len(closed) >= g.n:
            continue
        value, cert, _ = minsurp_full(g, frozenset(closed))
        if value == 0:
            return frozenset(cert) | {x}
    return None


def is_blocker(g: Graph, u: int, x: int) -> Optional[SurplusCert]:
    """Certificate that x lies in a min-set of G - N[u] and u is blocked."""
    closed = frozenset(g.neighborhood([u], closed=True))
    if x in closed or len(closed) >= g.n:
        return None
    value, _, _ = minsurp_full(g, closed)
    if value > 0:
        return None
    sub_excluded = closed | _masked_closed_nbhd(g, x, closed)
    msm_x, zero_x = _msm_zeroset(g, sub_excluded)
    deg_x = sum(1 for w in g._adj[x] if w not in closed)
    if msm_x + deg_x - 1 != value:
        return None
    return SurplusCert(indset=zero_x | {x}, surplus=value)


def find_blocker(g: Graph, u: int) -> Optional[tuple[int, SurplusCert]]:
    """Lowest-id blocker of u within the smallest canonical min-set.

    Returns None when u is not blocked (shadow(N[u]) > 0) or G - N[u] is
    empty.  Candidates are ranked by (certificate size, vertex id).
    """
    closed = frozenset(g.neighborhood([u], closed=True))
    if len(closed) >= g.n:
        return None
    value, cert, table = minsurp_full(g, closed, need_table=True)
    if value > 0:
        return None
    best = None
    for x, (v_x, cert_x) in sorted(table.items()):
        if v_x != value:
            continue
        key = (len(cert_x), x)
        if best is None or key < best[0]:
            best = (key, x, cert_x)
    if best is None:  # pragma: no cover - table always witnesses the min
        return None
    _, x, cert_x = best
    return x, SurplusCert(indset=cert_x, surplus=value)


# ---------------------------------------------------------------------------


class Instance:
    """A decision instance <G, k> with cached LP value.

    lambda and mu = k - lambda are half-integers, stored doubled.
    """

    __slots__ = ("graph", "k", "lambda2")

    def __init__(self, graph: Graph, k: int, lambda2: Optional[int] = None):
        self.graph = graph
        self.k = k
        self.lambda2 = lp_weight2(graph) if lambda2 is None else lambda2

    @property
    def mu2(self) -> int:
        return 2 * self.k - self.lambda2

    @property
    def lam(self) -> float:
        return self.lambda2 / 2

    @property
    def mu(self) -> float:
        return self.mu2 / 2

    def lp_infeasible(self) -> bool:
        """mu < 0 certifies that no cover of size <= k exists."""
        return self.mu2 < 0

    def __repr__(self) -> str:
        return f"Instance(n={self.graph.n}, k={self.k}, lambda={self.lam}, mu={self.mu})"
