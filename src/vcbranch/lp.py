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
from bisect import insort
from typing import Collection, Iterable, NamedTuple, Optional

from .graph import Graph

_EMPTY: frozenset[int] = frozenset()

_Log = list[tuple[int, int, int, int]]  # (u, old match_l[u], w, old match_r[w]) per flip

_DELETED = 1 << 62  # the stamp of a deleted engine slot: above every query mark


class HalfIntegralSolution(NamedTuple):
    """Optimal half-integral LP solution; theta stored as doubled values."""

    theta2: dict[int, int]  # vertex -> 0, 1 or 2
    weight2: int            # sum of theta2 = 2*lambda

    @property
    def weight(self) -> float:
        return self.weight2 / 2

    def zero_set(self) -> frozenset[int]:
        return frozenset(v for v, t in self.theta2.items() if t == 0)


class SurplusCert(NamedTuple):
    """An independent set together with its surplus |N(I)| - |I|."""

    indset: frozenset[int]
    surplus: int


# ---------------------------------------------------------------------------
# LP core: augmenting paths on the bipartite double cover + Koenig extraction.
# All routines take an `excluded` mask so callers can work on G - X without
# materializing subgraphs.  One engine per graph holds a maximum matching of
# the full double cover, and every query follows one pattern on it: stamp
# the excluded vertices, augment (Kuhn, 1955) in the view the stamps leave,
# read the answer off the live arrays, and undo the augmenting-path flips
# from a log.  A reduction run's in-place edits repair its graph's engine
# the same way.  The Koenig zero-set (left vertices that some maximum
# matching leaves exposed, minus their right neighbours) and the matching
# size do not depend on which maximum matching is found, so edited answers
# equal from-scratch ones.
# ---------------------------------------------------------------------------

class _LPEngine:
    """Double cover of one graph and a maximum matching of it.

    Between queries match_l and match_r hold a maximum matching of the
    whole double cover (-1 for an exposed vertex).  A query stamps its
    masked indices with a fresh mark in _stamp; a vertex is masked, on both
    sides, iff its stamp is >= _mark.  The masked view's matching is the
    stored one without the pairs that touch a masked vertex: searches skip
    stamped right vertices and treat a right vertex whose partner is
    stamped as free.  Augmenting-path flips write only unmasked entries, so
    the unmasked entries always form a matching of the view; masked entries
    go stale and are never read.  Each query undoes its flips before it
    returns; only the cached certify_minsurp_two verdict, the memo of the
    last masked solve, the stamps and the search's scratch arrays change.

    The graph that owns the engine edits both in place through delete,
    add_vertex and add_edges, and reads nothing else of it.  A deleted
    vertex keeps its slot, stamped _DELETED, which is above every mark, so
    every query masks it; it leaves index, its neighbours' rows and the
    matching.  Slots stay in ascending id order: a new vertex has an id
    above every slot's.  So index holds exactly the live slots, and its
    values run in ascending slot order; the engine keeps no other count of
    them.  delete decides when the deleted slots are too many (see there).
    """

    __slots__ = ("verts", "index", "adj", "match_l", "match_r", "exposed",
                 "certified", "_memo", "_seen", "_prev", "_epoch", "_stamp", "_mark")

    def __init__(self, adj_map: dict[int, set[int]]):
        """Build the engine of the graph adj_map: its rows, then one
        augmenting pass from the empty matching."""
        self.verts = verts = sorted(adj_map)
        n = len(verts)
        self.index = index = dict(zip(verts, range(n)))
        self.adj = [sorted(map(index.__getitem__, adj_map[v])) for v in verts]
        self.match_l = [-1] * n
        self.match_r = [-1] * n
        self.certified: Optional[bool] = None
        # (mask, answer) of the last solve; the answer depends only on the
        # graph and the mask, so only the in-place edits clear it (_settle)
        self._memo: Optional[tuple[frozenset[int], tuple[int, frozenset[int], int]]] = None
        self._seen = [0] * n
        self._prev = [0] * n
        self._epoch = 0
        self._stamp = [-1] * n  # below the build's mark 0
        self._mark = 0
        self.exposed = self._augment(list(range(n)), None)

    # -- in-place edits, mirrored from the owning graph's ----------------

    def delete(self, vertices: Collection[int]) -> bool:
        """Delete these live vertices: stamp their slots _DELETED, drop them
        from their neighbours' rows and unmatch their pairs, then augment
        from every left vertex left exposed (the freed ones and the old
        exposed ones, which may now reach a freed right vertex).

        Return False, and change nothing, when the deleted slots would then
        outnumber the live ones: the owner drops the engine, and its next
        LP query builds a compact one."""
        index, adj, stamp = self.index, self.adj, self._stamp
        if 2 * (len(index) - len(vertices)) < len(adj):
            return False
        match_l, match_r = self.match_l, self.match_r
        gone = [index.pop(v) for v in vertices]
        for i in gone:
            stamp[i] = _DELETED
        freed = []
        for i in gone:
            for w in adj[i]:
                if stamp[w] != _DELETED:
                    adj[w].remove(i)
            adj[i] = []
            w, u = match_l[i], match_r[i]
            if w >= 0:
                match_r[w] = -1
            if u >= 0:
                match_l[u] = -1
                if stamp[u] != _DELETED:
                    freed.append(u)
            match_l[i] = match_r[i] = -1
        self._settle([u for u in self.exposed if stamp[u] != _DELETED] + freed)
        return True

    def add_vertex(self, y: int, nbrs: Iterable[int]) -> None:
        """Add vertex y, with an id above every slot's, adjacent to nbrs;
        its right copy is free, so every exposed left vertex is retried."""
        index, adj = self.index, self.adj
        j = len(adj)
        row = sorted(index[v] for v in nbrs)
        for w in row:
            adj[w].append(j)  # j is the highest slot: rows stay sorted
        adj.append(row)
        self.verts.append(y)
        index[y] = j
        for arr, value in ((self.match_l, -1), (self.match_r, -1), (self._seen, 0),
                           (self._prev, 0), (self._stamp, -1)):
            arr.append(value)
        self._settle(self.exposed + [j])

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        """Add these edges, new to the graph, and retry the exposed left
        vertices."""
        index, adj = self.index, self.adj
        for a, b in edges:
            i, j = index[a], index[b]
            insort(adj[i], j)
            insort(adj[j], i)
        self._settle(self.exposed)

    def _settle(self, roots: list[int]) -> None:
        """Finish an in-place edit: clear the cached certify_minsurp_two
        verdict and the solve memo, which answered for the graph before it,
        then augment from roots, all the exposed left vertices, with no
        mask and keep the flips: a fresh mark leaves only deleted slots
        masked."""
        self.certified = None
        self._memo = None
        if roots:
            self._mark += 1
            roots = self._augment(roots, None)
        self.exposed = roots

    def _roots(self, closed: list[int]) -> list[int]:
        """Stamp the engine indices closed as this query's mask and return
        the left vertices the masked view leaves exposed: the stored
        matching's exposed ones and the partners of masked right vertices,
        minus the masked ones.  These are the augmenting search's roots."""
        self._mark = mark = self._mark + 1
        stamp = self._stamp
        for v in closed:
            stamp[v] = mark
        roots = [u for u in self.exposed if stamp[u] < mark]
        match_r = self.match_r
        for v in closed:
            u = match_r[v]
            if u >= 0 and stamp[u] < mark:
                roots.append(u)
        return roots

    def _augment(self, roots: list[int], log: Optional[_Log], wins: int = 0,
                 fails: int = 0) -> list[int]:
        """One breadth-first augmenting search per root, in order, in the
        current masked view, and the roots it left exposed.

        Kuhn: a root with no augmenting path gets none after later
        augmentations either, so one pass yields a maximum matching.  The
        search stamps right vertices with an epoch instead of clearing a
        seen array; after a failed search the epoch is kept, since what it
        reached cannot lie on a later augmenting path.  The pass ends early
        after wins augmentations or after fails exposed roots, each counted
        down only when it happens; zero means no limit (a count that passes
        zero never reaches it again).  The roots not yet searched are then
        left out of the result.  log is None only for the build and the
        in-place edits, whose flips are kept.
        """
        adj = self.adj
        match_l, match_r = self.match_l, self.match_r
        seen, prev = self._seen, self._prev
        stamp, mark = self._stamp, self._mark
        exposed: list[int] = []
        epoch = self._epoch + 1
        for root in roots:
            queue = [root]
            free = -1
            for u in queue:
                for w in adj[u]:
                    if seen[w] != epoch:
                        seen[w] = epoch
                        if stamp[w] >= mark:
                            continue
                        prev[w] = u
                        nxt = match_r[w]
                        if nxt < 0 or stamp[nxt] >= mark:
                            free = w
                            break
                        queue.append(nxt)
                if free >= 0:
                    break
            if free < 0:
                exposed.append(root)
                fails -= 1
                if not fails:
                    break
                continue
            epoch += 1
            w = free
            while True:
                u = prev[w]
                nw = match_l[u]
                if log is not None:
                    log.append((u, nw, w, match_r[w]))
                match_l[u] = w
                match_r[w] = u
                if u == root:
                    break
                w = nw
            wins -= 1
            if not wins:
                break
        self._epoch = epoch
        return exposed

    def _undo(self, log: _Log) -> None:
        match_l, match_r = self.match_l, self.match_r
        for u, nw, w, old in reversed(log):
            match_l[u] = nw
            match_r[w] = old

    def solve(self, excluded: frozenset[int]) -> tuple[int, frozenset[int], int]:
        """Return (weight2, zero_set, n_active) for LPVC(G - excluded).  A
        repeat of the last solve's mask is answered from the memo: the
        selector's shadow_minus(G, N[u]) and the split child's lambda2_pre
        ask the same engine for the same mask one after the other."""
        memo = self._memo
        if memo is not None and memo[0] == excluded:
            return memo[1]
        index = self.index
        closed = [index[v] for v in excluded if v in index]
        n_active = len(index) - len(closed)
        roots = self._roots(closed)
        if not closed:  # the stored matching is maximum: nothing to search
            result = (n_active - len(roots), self._zero_set(roots), n_active)
        else:
            log: _Log = []
            exposed = self._augment(roots, log)
            result = (n_active - len(exposed), self._zero_set(exposed), n_active)
            self._undo(log)
        self._memo = (excluded, result)
        return result

    def deficiency_exceeds(self, x: int, stop: int) -> bool:
        """Whether a maximum matching of the double cover of G - N[x] leaves
        more than stop left vertices exposed.  A negative stop is exceeded
        and one at least the number of roots is not, with no search;
        otherwise the search ends at stop + 1 exposed roots (exceeded) or
        len(roots) - stop augmentations (not exceeded)."""
        if stop < 0:
            return True
        i = self.index[x]
        roots = self._roots([i, *self.adj[i]])
        if len(roots) <= stop:
            return False
        log: _Log = []
        exceeds = len(self._augment(roots, log, len(roots) - stop, stop + 1)) > stop
        self._undo(log)
        return exceeds

    def tight(self, excluded: frozenset[int]) -> Optional[list[int]]:
        """The vertices that are 0 in some optimal LP solution of G - excluded,
        ascending; None unless the double cover has a perfect matching.

        With a perfect matching M every minimum cover of the double cover
        takes one end of each matched pair, and the set S of left vertices
        whose right end is taken must be closed under the residual arcs
        u -> match_r[w] (w adjacent to u).  x is 0 in the LP solution of such
        a cover iff x is in S and match_r[x] is not, which some closed S
        allows iff match_r[x] is not reachable from x.

        Most views have no such x: when the residual digraph is strongly
        connected, every x reaches every vertex, match_r[x] included (the
        "elementary graph" case of Lovasz and Plummer, Matching Theory,
        1986).  So _strongly_connected's two searches come first, and if
        they reach every live vertex the answer is empty.  Otherwise one
        Tarjan pass with a reach bitset per strongly connected component
        answers for every x at once.
        """
        index = self.index
        closed = [index[v] for v in excluded if v in index]
        log: _Log = []
        if self._augment(self._roots(closed), log):
            self._undo(log)
            return None
        if self._strongly_connected(len(index) - len(closed)):
            self._undo(log)
            return []
        adj = self.adj
        n = len(adj)
        match_r = self.match_r
        stamp, mark = self._stamp, self._mark
        order = [-1] * n   # DFS discovery number
        low = [0] * n
        comp = [-1] * n    # component id; -1 while the vertex is on `stack`
        reach: list[int] = []  # per component: bitset of reachable components
        stack: list[int] = []
        count = 0
        for root in range(n):
            if order[root] >= 0 or stamp[root] >= mark:
                continue
            order[root] = low[root] = count
            count += 1
            stack.append(root)
            work = [(root, iter(adj[root]))]
            while work:
                u, arcs = work[-1]
                for w in arcs:
                    if stamp[w] >= mark:
                        continue
                    v = match_r[w]
                    if order[v] < 0:
                        order[v] = low[v] = count
                        count += 1
                        stack.append(v)
                        work.append((v, iter(adj[v])))
                        break
                    if comp[v] < 0 and order[v] < low[u]:
                        low[u] = order[v]
                else:
                    work.pop()
                    if work:
                        p = work[-1][0]
                        if low[u] < low[p]:
                            low[p] = low[u]
                    if low[u] == order[u]:
                        # components are completed sinks first, so every
                        # arc out of this one ends in a finished component
                        c = len(reach)
                        members = []
                        while True:
                            v = stack.pop()
                            comp[v] = c
                            members.append(v)
                            if v == u:
                                break
                        bits = 1 << c
                        for v in members:
                            for w in adj[v]:
                                if stamp[w] < mark:
                                    d = comp[match_r[w]]
                                    if d != c:
                                        bits |= reach[d]
                        reach.append(bits)
        verts = self.verts
        tight = [verts[x] for x in range(n)
                 if stamp[x] < mark and not (reach[comp[x]] >> comp[match_r[x]] & 1)]
        self._undo(log)
        return tight

    def _strongly_connected(self, n_active: int) -> bool:
        """Whether the residual digraph of the masked view's perfect
        matching, on its n_active live vertices, is strongly connected: a
        forward and a backward search from the lowest live vertex both reach
        all of them.  Arcs go u -> match_r[w] for unmasked w in N(u), so the
        predecessors of u are the unmasked vertices of N(match_l[u])."""
        adj = self.adj
        match_l, match_r = self.match_l, self.match_r
        stamp, mark = self._stamp, self._mark
        n = len(adj)
        root = next((u for u in range(n) if stamp[u] < mark), -1)
        if root < 0:
            return True
        reached = bytearray(n)
        reached[root] = 1
        queue = [root]
        for u in queue:
            for w in adj[u]:
                if stamp[w] < mark:
                    v = match_r[w]
                    if not reached[v]:
                        reached[v] = 1
                        queue.append(v)
        if len(queue) < n_active:
            return False
        reached = bytearray(n)
        reached[root] = 1
        queue = [root]
        for u in queue:
            for v in adj[match_l[u]]:
                if not reached[v] and stamp[v] < mark:
                    reached[v] = 1
                    queue.append(v)
        return len(queue) == n_active

    def _zero_set(self, exposed: list[int]) -> frozenset[int]:
        """Koenig: alternating reachability from the exposed left vertices
        of a maximum matching of the current masked view.

        cover = (L not reachable) + (R reachable); theta2(v) = Lv + Rv in
        cover, so v has value 0 iff Lv is reachable and Rv is not.  An
        unmasked right vertex reached here is matched in the view, or the
        matching would not be maximum.
        """
        adj = self.adj
        match_r = self.match_r
        stamp, mark = self._stamp, self._mark
        n = len(adj)
        seen_l = bytearray(n)
        seen_r = bytearray(n)
        queue = exposed[:]
        for u in queue:
            seen_l[u] = 1
        for u in queue:
            for w in adj[u]:
                if not seen_r[w] and stamp[w] < mark:
                    seen_r[w] = 1
                    nxt = match_r[w]
                    if not seen_l[nxt]:
                        seen_l[nxt] = 1
                        queue.append(nxt)
        verts = self.verts
        return frozenset(verts[u] for u in queue if not seen_r[u])


def _engine(g: Graph) -> _LPEngine:
    engine = g._lp
    if engine is None:
        engine = g._lp = _LPEngine(g._adj)
    return engine


def _lp_core(g: Graph, excluded: frozenset[int]) -> tuple[int, frozenset[int], int]:
    """Return (weight2, zero_set, n_active) for LPVC(G - excluded)."""
    return _engine(g).solve(frozenset(excluded))


def lp_basic_solution(g: Graph, excluded: Iterable[int] = ()) -> HalfIntegralSolution:
    """Optimal half-integral solution to LPVC(g - excluded).

    The zero-set Z is independent, N(Z) is the one-set, and
    surp(Z) = 2*weight - n = min{0, minsurp}.
    """
    excluded = frozenset(excluded)
    adj_map = g._adj
    weight2, zero, _ = _lp_core(g, excluded)
    theta2 = {v: 1 for v in sorted(adj_map) if v not in excluded}
    for v in zero:
        theta2[v] = 0
    for v in zero:
        for w in adj_map[v]:
            if w not in excluded:
                theta2[w] = 2
    # remaining half vertices already at 1; weight must come out to 2*lambda
    assert sum(theta2.values()) == weight2 or not theta2
    return HalfIntegralSolution(theta2=theta2, weight2=weight2)


def lp_weight2(g: Graph, excluded: frozenset[int] = _EMPTY) -> int:
    """2*lambda(g - excluded)."""
    return _lp_core(g, excluded)[0]


def _msm_zeroset(g: Graph, excluded: frozenset[int]) -> tuple[int, frozenset[int]]:
    """min{0, minsurp} of g - excluded, with a zero-set certificate.

    The certificate is non-empty exactly when the value is negative.
    """
    weight2, zero, n = _lp_core(g, excluded)
    return weight2 - n, zero


def _vertex_entry(g: Graph, x: int, excluded: frozenset[int]) -> tuple[int, frozenset[int]]:
    """(minsurp^-(G - N[x]) + deg(x) - 1, canonical min-set through x) in G - excluded."""
    closed = frozenset(w for w in g._adj[x] if w not in excluded) | {x}
    msm_x, zero_x = _msm_zeroset(g, excluded | closed)
    return len(closed) - 2 + msm_x, zero_x | {x}


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
    verts = sorted(v for v in g._adj if v not in excluded)
    if not verts:
        raise ValueError("minsurp of an empty graph is undefined")
    msm, zero = _msm_zeroset(g, excluded)
    if msm < 0 and not need_table:
        return msm, zero, None
    best_v = None
    best_cert = None
    table: dict[int, tuple[int, frozenset[int]]] = {}
    for x in verts:
        v_x, cert_x = table[x] = _vertex_entry(g, x, excluded)
        if best_v is None or v_x < best_v:
            best_v, best_cert = v_x, cert_x
            if not need_table and msm == 0 and v_x == 0:
                break  # 0 is the floor here; x is the lowest witness
    return best_v, best_cert, (table if need_table else None)


def tight_vertices(g: Graph, excluded: frozenset[int] = _EMPTY) -> Optional[list[int]]:
    """The x whose minsurp_full table value in G - excluded is 0, ascending.

    None when min{0, minsurp(G - excluded)} < 0.  Otherwise a table value
    v_x = 2*(lambda(G - excluded - N[x]) + deg(x) - lambda(G - excluded))
    is 0 iff x is 0 in some optimal LP solution, which one pass over the
    residual graph of a perfect matching decides for every x (see
    _LPEngine.tight); no per-vertex LP runs.
    """
    return _engine(g).tight(frozenset(excluded))


def certify_minsurp_two(g: Graph) -> bool:
    """True only if minsurp(G) >= 2; False means "not certified".

    With a perfect matching of the double cover, the table value v_x equals
    the number of internally disjoint paths from x to sigma(x) = match_r[x]
    in the residual digraph D (arcs u -> match_r[w], w a neighbour of u,
    self-loops dropped), and x -> sigma(x) is never an arc.  So if D is
    strongly connected and no single vertex separates it (no strong
    articulation point), Menger gives every v_x >= 2.  Acceptance needs
    minimum degree 3: x has deg(x) - 1 out-arcs.  After Italiano, Laura
    and Santaroni (TCS 2012): for a root r, a vertex other than r is a
    strong articulation point iff it is a non-trivial dominator of D or of
    its reverse from r, and r is one iff D - r is not strongly connected.
    Reads the engine's stored matching in place; the verdict is cached on
    the engine, so simplify and the selector decide it once per graph.  A
    cached True may instead come from recertify_minsurp_two's local check.
    """
    engine = _engine(g)
    if engine.certified is None:
        engine.certified = _residual_two_connected(engine)
    return engine.certified


def recertify_minsurp_two(g: Graph, near: Iterable[int]) -> bool:
    """True only if minsurp(G) >= 2, given that near meets every set of
    surplus <= 1 in G; False means "not certified".

    Such a set I holds an x in near with v_x <= surp(I) <= 1 (v_x is the
    least surplus of an independent set through x), so minsurp(G) >= 2 iff
    every x in near has v_x = deg(x) - 1 - d_x >= 2, which one capped check
    d_x <= deg(x) - 3 on the stored matching decides (a negative stop fails
    at once).  vcbranch.reduce proves the precondition for two near sets:
    N(S) - S after a funnel step deleted S from a graph of minsurp >= 2,
    and N(u) & T for G - u, with G simplified and T its x with v_x <= 2.
    The caller vouches for it.  A decline needs none: it finds an x with
    v_x <= 1, so minsurp(G) <= 1 and certify_minsurp_two would decline
    too.  Either verdict is cached as certify_minsurp_two's.
    """
    engine = _engine(g)
    adj = g._adj
    engine.certified = not any(engine.deficiency_exceeds(x, len(adj[x]) - 3) for x in near)
    return engine.certified


def _residual_two_connected(engine: _LPEngine) -> bool:
    """certify_minsurp_two's test on the engine's stored matching."""
    adj = engine.adj
    slots = list(engine.index.values())
    if engine.exposed or not slots:
        return False
    match_l, match_r = engine.match_l, engine.match_r
    pos = [-1] * len(adj)  # the digraph numbers the live slots 0, 1, ...
    for p, u in enumerate(slots):
        pos[u] = p
    succ = [[pos[match_r[w]] for w in adj[u] if w != match_l[u]] for u in slots]
    pred = [[pos[v] for v in adj[match_l[u]] if v != u] for u in slots]
    return _strongly_two_connected(succ, pred)


def _strongly_two_connected(succ: list[list[int]], pred: list[list[int]]) -> bool:
    """Whether the digraph with these successor and predecessor lists (at
    least 2 vertices) is strongly connected and has no strong articulation
    point: vertex 0 is the only dominator of every vertex, from 0 in it and
    in its reverse, and it stays strongly connected without vertex 0."""
    n = len(succ)
    if not (_dominated_by_root_only(succ, pred) and _dominated_by_root_only(pred, succ)):
        return False
    # D - r strongly connected, r = 0: both searches from 1 reach n - 1 vertices
    for arcs in (succ, pred):
        seen = bytearray(n)
        seen[0] = seen[1] = 1
        stack = [1]
        reached = 1
        while stack:
            for v in arcs[stack.pop()]:
                if not seen[v]:
                    seen[v] = 1
                    reached += 1
                    stack.append(v)
        if reached < n - 1:
            return False
    return True


def _dominated_by_root_only(succ: list[list[int]], pred: list[list[int]]) -> bool:
    """Whether every vertex is reachable from vertex 0 and has 0 as its
    immediate dominator.  Cooper, Harvey and Kennedy ("A simple, fast
    dominance algorithm", 2001) on breadth-first ranks: each pass sets
    idom[v] to the meet of those predecessors of v that have an idom,
    walking the higher-ranked finger up.  The breadth-first parent is one
    of them, and a meet ranks no higher than its inputs, so every idom
    ranks below its vertex and the walk stops at the nearest common
    dominator; a meet that reaches 0 is final.  The passes only shrink
    dominator sets, never below {v, 0}, so the test accepts once every
    idom is 0 and declines on a pass that changes nothing."""
    n = len(succ)
    rank = [-1] * n  # breadth-first position
    rank[0] = 0
    order = [0]
    for u in order:
        for v in succ[u]:
            if rank[v] < 0:
                rank[v] = len(order)
                order.append(v)
    if len(order) < n:
        return False
    del order[0]  # the root
    idom = [-1] * n
    idom[0] = 0
    while True:
        changed = False
        for v in order:
            new = -1
            for p in pred[v]:
                if idom[p] < 0:
                    continue
                if new < 0:
                    new = p
                else:
                    while p != new:
                        while rank[p] > rank[new]:
                            p = idom[p]
                        while rank[new] > rank[p]:
                            new = idom[new]
                if new == 0:
                    break
            if idom[v] != new:
                idom[v] = new
                changed = True
        if not any(idom):
            return True
        if not changed:
            return False


def low_entries(g: Graph, bound: int) -> dict[int, tuple[int, frozenset[int]]]:
    """minsurp_full's table restricted to the x with v_x <= bound, for a
    graph with minsurp >= bound.

    v_x = deg(x) - 1 - d_x, where d_x is the deficiency of the double cover
    of G - N[x].  A vertex with deg(x) - 1 == bound has v_x == bound, so
    d_x == 0 and its entry is (bound, {x}) without an LP; any other x is
    in the table iff d_x > deg(x) - 2 - bound, which
    _LPEngine.deficiency_exceeds decides on the stored matching.  Only the
    x that pass get the masked solve that builds their certificate.
    """
    engine = _engine(g)
    adj = engine.adj
    table: dict[int, tuple[int, frozenset[int]]] = {}
    for x, i in engine.index.items():
        stop = len(adj[i]) - 2 - bound
        if stop == -1:
            table[x] = (bound, frozenset((x,)))
        elif engine.deficiency_exceeds(x, stop):
            table[x] = _vertex_entry(g, x, _EMPTY)
    return table


def zero_surplus_cert(g: Graph, excluded: frozenset[int] = _EMPTY) -> Optional[frozenset[int]]:
    """minsurp_full's certificate when minsurp(G - excluded) == 0, else None.

    That is the min-set through the lowest tight vertex: one masked LP.
    """
    tight = tight_vertices(g, excluded)
    if not tight:
        return None
    return _vertex_entry(g, tight[0], excluded)[1]


def minsurp(g: Graph, excluded: Iterable[int] = ()) -> SurplusCert:
    """Minimum surplus over non-empty independent sets, with certificate."""
    value, cert, _ = minsurp_full(g, frozenset(excluded))
    return SurplusCert(indset=frozenset(cert), surplus=value)


def shadow(g: Graph, x: Iterable[int]):
    """minsurp(g - x); +infinity when g - x is empty."""
    xs = g._check_vertices(x)
    if len(xs) >= g.n:
        return math.inf
    value, _, _ = minsurp_full(g, frozenset(xs))
    return value


def shadow_minus(g: Graph, x: Iterable[int]):
    """min{0, shadow(x)} via a single LP; +infinity sentinel when empty."""
    xs = frozenset(g._check_vertices(x))
    if len(xs) >= g.n:
        return math.inf
    return _msm_zeroset(g, xs)[0]


def find_nonsingleton_minset(
    g: Graph, table: dict[int, tuple[int, frozenset[int]]]
) -> Optional[frozenset[int]]:
    """A min-set of size >= 2 with surplus 2, if one exists, for a G with
    minsurp >= 2 and table = low_entries(G, 2): every entry has v_x = 2.

    The first pass reads the canonical certificates off the table.  The
    gap case is the list P of the x with certificate {x}: for these
    minsurp(G - N[x]) >= 0, and the pass asks zero_surplus_cert of
    G - N[x] for each x in P, ascending.

    P is first peeled to the largest subset in which every x has at least
    2 neighbours w with a neighbour in P outside N[x]; only the survivors
    are asked.  Let x in P and J a surplus-0 set of G - N[x].
      1. I = J + {x} is independent with surp(I) = deg(x) - 1 = 2 (x's
         certificate is {x}, so v_x = deg(x) - 1), and |I| >= 2.
      2. Each y in I has v_y <= surp(I) = 2, so v_y = 2, and its
         certificate is {y}, or the first pass would have returned.  So
         I is inside P.
      3. For each y in I, with deg(y) = 3 as for x in step 1, minsurp >= 2
         and I - y non-empty:
         |N(y) & N(I - y)| = deg(y) + |N(I - y)| - |N(I)|
                           >= 3 + (|I| - 1 + 2) - (|I| + 2) = 2,
         and each w in N(y) & N(I - y) has a neighbour in I - y, which is
         outside N[y].
      4. So by induction the peel never removes a member of I: a dropped
         x has no surplus-0 set in G - N[x], zero_surplus_cert would
         answer None, and the returned set is unchanged.
    P holds the vertices of degree 3 and the peel looks at distance 2
    only, so on graphs of maximum degree 3 P is nearly everything and
    little is peeled; the cubic case needs a stronger local argument (an
    N_2 locality lemma) that is still open.
    """
    second_pass = []
    for x in sorted(table):
        cert_x = table[x][1]
        if len(cert_x) >= 2:
            return cert_x
        second_pass.append(x)
    for x in _peel(g, second_pass):
        cert = zero_surplus_cert(g, frozenset(g.neighborhood([x], closed=True)))
        if cert is not None:
            return cert | {x}
    return None


def _peel(g: Graph, cands: list[int]) -> list[int]:
    """The largest sublist of cands in which every x has at least 2
    neighbours w with a neighbour in the sublist outside N[x] (see
    find_nonsingleton_minset).  Dropping x can only unsupport the
    candidates within distance 2 of it, so only those are checked again."""
    adj = g._adj
    alive = set(cands)

    def supported(x: int) -> bool:
        nx = adj[x]
        need = 2
        for w in nx:
            if any(z in alive and z != x and z not in nx for z in adj[w]):
                need -= 1
                if not need:
                    return True
        return False

    work = cands[:]
    while work:
        x = work.pop()
        if x in alive and not supported(x):
            alive.discard(x)
            work.extend(z for w in adj[x] for z in adj[w] if z in alive)
    return [x for x in cands if x in alive]


def is_blocker(g: Graph, u: int, x: int) -> Optional[SurplusCert]:
    """Certificate that x lies in a min-set of G - N[u] and u is blocked:
    x's entry in blockers(g, u), or None."""
    return dict(blockers(g, u)).get(x)


def blockers(g: Graph, u: int) -> list[tuple[int, SurplusCert]]:
    """Every x whose minsurp_full table entry in G - N[u] attains the
    minimum, ascending, with its canonical min-set; empty when u is not
    blocked (shadow(N[u]) > 0) or G - N[u] is empty."""
    closed = frozenset(g.neighborhood([u], closed=True))
    if len(closed) >= g.n:
        return []
    value, _, table = minsurp_full(g, closed, need_table=True)
    if value > 0:
        return []
    return [(x, SurplusCert(cert, value)) for x, (v, cert) in sorted(table.items())
            if v == value]


def find_blocker(g: Graph, u: int) -> Optional[tuple[int, SurplusCert]]:
    """The blocker of u with the smallest canonical min-set, lowest id on
    ties; None when u has none."""
    return min(blockers(g, u), key=lambda b: (len(b[1].indset), b[0]), default=None)


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

    def __repr__(self) -> str:
        return f"Instance(n={self.graph.n}, k={self.k}, lambda={self.lam}, mu={self.mu})"
