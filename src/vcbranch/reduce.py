"""Preprocessing rules P1/P2/P3, fixpoint simplification, cover lifting.

A simplified graph has minimum degree 3, minsurp >= 2 and no funnels.  The
deterministic rule policy is:

    while the graph is non-empty:
        if minsurp <= 0: apply P1 to the canonical global min-set
        elif minsurp == 1: apply P2 to a smallest canonical min-set,
                           preferring degree-2 singletons by lowest id
        elif there is a funnel: apply P3, kites first, lowest (u, out) id
        else: stop

k may go negative during simplification; callers treat mu < 0 or k < 0 as
infeasible.  Every step is logged so covers of the reduced instance can be
lifted back.

A run's first step derives a new graph (delete_vertices, which builds
its own LP engine when first asked); every later step edits that graph in
place (Graph._delete, _add_adjacent, _join), and its engine with it once
that is built, so a step costs about what it touches.  The graph a run
receives never changes, unless the caller hands it over (_own): a branch
child and reduction_gain derive G - D for the run, which edits it from its
first step.
The answers simplify reads do not depend on which maximum matching the
edited engine holds (the Koenig zero-set, the weight and the tight set
are canonical); a certificate verdict only chooses the path to the same
step.

simplify decides minsurp <= 0 from one LP solve and the list of tight
vertices (those 0 in some optimal LP solution), and two steps decide the
next graph's list without either:

* after a P2 step (minsurp >= 1 before) no vertex is tight and
  min{0, minsurp} == 0: each independent set I' of the folded graph, with
  y the new vertex, maps to an independent set of the old graph with the
  same surplus (I' itself, I' + I if I' meets N(y) but avoids y, and
  I' - y + N(I) if it holds y), so minsurp cannot drop below 1;
* after a P1 step on a surplus-0 min-set I the tight vertices are the old
  ones minus N[I], and min{0, minsurp} stays 0: Hall gives a perfect
  matching between I and N(I), so optimal LP solutions of G restrict to
  optimal ones of G - N[I], which extend back with 0 on I and 1 on N(I).

A chain of degree-2 folds therefore runs no LP and builds no LP engine;
the next LP query builds one from the graph's rows.

A third fact decides the list without the tight pass: when the LP solve
shows min{0, minsurp} == 0 on a graph of minimum degree >= 3,
certify_minsurp_two runs first, and its acceptance proves minsurp >= 2.
Then the list is empty, no vertex has degree 2 and no surplus-1 set
exists, so the step is P3 on the lowest pattern, or the fixpoint.  The
verdict stays cached on the graph's engine for the steps below.

A fourth fact carries minsurp >= 2 across a P3 step taken where it held
before (the certificate accepted, or no entry v_x <= 1 exists).  Let G
have minsurp >= 2, and let G' be G - S plus some edges between surviving
vertices.  An independent set I' of G' is independent in G, and its
G'-neighbourhood contains N_G(I') - S.  If I' avoids N_G(S) - S, no
vertex of I' has a neighbour in S, so surp_G'(I') >= surp_G(I') >= 2.
Hence every set of surplus <= 1 in G' holds a vertex of N_G(S) - S, and
minsurp(G') >= 2 exactly when every x there has v'_x >= 2, that is
deg'(x) >= 3 and d'_x <= deg'(x) - 3 (v_x = deg(x) - 1 - d_x, with d_x
the deficiency of the double cover of G - N[x]).  recertify_minsurp_two
makes one capped check per such x on the next graph's engine.  On
acceptance its list is empty and its certificate verdict is True, with
no LP solve, tight pass or residual digraph.  A decline shows some
v'_x <= 1, so the certificate would decline too: its verdict is False
without the residual digraph, and the LP solve and tight pass run as
before.

A fifth fact serves a branch child: the run receives G - D, where G is
simplified and the child deleted D, and near = N(D) - D in G.  A
vertex w outside N(D) keeps N(w) and every edge inside N(w), so it keeps
degree >= 3 and is the u of no kite or funnel, as in G.  Until the first
step, therefore, every vertex of degree <= 2 and every pattern of G - D
has its u in near, and the degree-2 scan and find_pattern look only
there.  For D = {u}, let T hold the x with v_x <= 2 in G (the selector's
low_entries(G, 2)).  An independent set I of G - u has surp(I) in G - u
equal to its surplus in G minus 1 if I meets N(u), and equal to it
otherwise.  So a set of surplus <= 1 in G - u meets N(u) and has surplus
<= 2 in G; v_y is the least surplus of an independent set through y, so
each y of it in N(u) is in T.  Hence minsurp(G - u) >= 2 iff every y in
N(u) & T has v_y >= 2 in G - u, and the run starts with
recertify_minsurp_two(G - u, N(u) & T).  Either way minsurp(G - u) >= 1,
so the tight list starts empty, with no LP solve; the cached verdict
spares the residual digraph.  In fact no y in N(u) & T passes (a set
through y of surplus <= 2 in G loses u from its neighbourhood), so the
check accepts exactly when the list is empty, and a decline costs one
capped check.

A sixth fact bounds what a run can leave: no step raises k or mu.  Each
step maps <G, k> to <G', k - dk> with dk >= 0 and lambda(G) <=
lambda(G') + dk: from an optimal half-integral solution x' of G' it
builds a fractional cover of G of weight lambda(G') + dk, keeping x' on
the vertices G and G' share (every edge of G between them is in G'):

* P1 and forced P1 (dk = |N(I)|): put N(I) at 1 and I at 0;
* P2 (dk = |I|, |N(I)| = |I| + 1): with t = x'(y), put N(I) at t and I
  at 1 - t; each outer neighbour w of N(I) is adjacent to y in G', so
  x'(w) + t >= 1, and the cost is |I| + t in place of y's t;
* P3 (dk = 1 + |A|): put A at 1; with alpha = min x'(B_u), put u at
  1 - alpha and x at alpha (B_x is joined to all of B_u in G', so every
  vertex of B_x has x' >= 1 - alpha); if B_u is empty, put u at 0 and x
  at 1;
* ComponentSolve (dk = |C|, C an optimal cover of the component):
  |C| >= lambda(comp), and lambda adds up over components.

So k' = k - dk <= k and mu' = k - dk - lambda(G') <= k - lambda(G) = mu.
This makes a branch search's early rejection exact: a child <G - D,
k - |include|> whose k - |include| is negative, or whose
2(k - |include|) is below 2*lambda(G - D), leaves simplify and the
component fold with k < 0 or mu < 0, so the solver would answer it False
before booking a node, and it may do so without simplifying it.

The result graph has minsurp >= 2, so its LP optimum is all-half
(2*lambda - n = min{0, minsurp} = 0) and simplify returns lambda2 = n
without a solve.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .graph import Graph
from .lp import (
    Instance, certify_minsurp_two, low_entries, recertify_minsurp_two,
    tight_vertices, _msm_zeroset, _vertex_entry,
)


class ReductionStep(NamedTuple):
    kind: str                      # "P1" | "P2" | "P3" | "ComponentSolve"
    removed: tuple[int, ...]
    dk: int
    created: Optional[int] = None          # P2: the fresh vertex y
    indset: tuple[int, ...] = ()           # P1/P2: I
    nbrs: tuple[int, ...] = ()             # P1/P2: N(I)
    funnel: tuple[int, int] | None = None  # P3: (u, x)
    shared: tuple[int, ...] = ()           # P3: A = N(u) & N(x)
    side_u: tuple[int, ...] = ()           # P3: B_u = N(u) - N[x]
    side_x: tuple[int, ...] = ()           # P3: B_x = N(x) - N[u]
    comp_cover: tuple[int, ...] = ()       # ComponentSolve: optimal cover

    def serialize(self) -> str:
        removed = ",".join(map(str, self.removed)) or "-"
        created = "-" if self.created is None else str(self.created)
        return f"{self.kind} removed={removed} created={created} dk={self.dk}"


class ReductionTrace:
    """The steps of one reduction run, in order; lift_cover replays them.
    A trace holds no graph, and vcbranch.solver checks the covers it
    lifts."""

    __slots__ = ("steps",)

    def __init__(self, steps: Optional[list[ReductionStep]] = None):
        self.steps: list[ReductionStep] = [] if steps is None else steps

    @property
    def total_dk(self) -> int:
        return sum(s.dk for s in self.steps)


# ---------------------------------------------------------------------------
# single rules
# ---------------------------------------------------------------------------

def _without(g: Graph, s: frozenset[int], own: bool) -> Graph:
    """g - s: g itself, edited in place, when the run owns it; otherwise a
    derived graph, so the graph a run receives never changes."""
    if own:
        g._delete(s)
        return g
    return g.delete_vertices(s)


def _p1_step(g: Graph, indset: frozenset[int], own: bool = False) -> tuple[Graph, ReductionStep]:
    nbrs = g.neighborhood(indset)
    removed = indset | nbrs
    step = ReductionStep(
        kind="P1", removed=tuple(sorted(removed)), dk=len(nbrs),
        indset=tuple(sorted(indset)), nbrs=tuple(sorted(nbrs)),
    )
    return _without(g, removed, own), step


def _p2_step(g: Graph, indset: frozenset[int], own: bool = False) -> tuple[Graph, ReductionStep]:
    """Fold a surplus-one set I.  N(I) must be independent: with an edge
    inside N(I) every cover contains N(I), and the fold would lose a unit
    of k (a triangle is funnel territory)."""
    nbrs = g.neighborhood(indset)
    outer = g.neighborhood(nbrs) - indset
    removed = indset | nbrs
    g2 = _without(g, removed, own)
    y = g2._add_adjacent(outer)
    step = ReductionStep(
        kind="P2", removed=tuple(sorted(removed)), dk=len(indset), created=y,
        indset=tuple(sorted(indset)), nbrs=tuple(sorted(nbrs)),
    )
    return g2, step


def _p3_step(g: Graph, u: int, x: int, own: bool = False) -> tuple[Graph, ReductionStep]:
    nu, nx = g.neighbors(u), g.neighbors(x)
    shared = nu & nx
    side_u = nu - nx - {x}
    side_x = nx - nu - {u}
    step = ReductionStep(
        kind="P3", removed=tuple(sorted(shared | {u, x})), dk=1 + len(shared), funnel=(u, x),
        shared=tuple(sorted(shared)), side_u=tuple(sorted(side_u)),
        side_x=tuple(sorted(side_x)),
    )
    g2 = _without(g, shared | {u, x}, own)
    g2._join(side_u, side_x)
    return g2, step


# ---------------------------------------------------------------------------
# fixpoint simplification
# ---------------------------------------------------------------------------

def _degree_two(g: Graph, among: Optional[Iterable[int]] = None
                ) -> tuple[Optional[int], Optional[int]]:
    """(the lowest degree-2 vertex with non-adjacent neighbors, the lowest
    degree-2 vertex), None where there is none; with among, only those
    vertices are looked at."""
    fold = first2 = None
    adj = g._adj
    for x, nbrs in adj.items() if among is None else ((x, adj[x]) for x in among):
        if len(nbrs) == 2:
            if first2 is None or x < first2:
                first2 = x
            if (fold is None or x < fold) and not g.has_edge(*nbrs):
                fold = x
    return fold, first2


def simplify(inst: Instance, *, _own: bool = False,
             _near: Optional[frozenset[int]] = None,
             _recheck: Optional[Iterable[int]] = None) -> tuple[Instance, ReductionTrace]:
    """Run the rule policy to its fixpoint.

    The result graph (if non-empty) has min degree >= 3, minsurp >= 2 and
    no funnels.  The first step derives a new graph; every later step edits
    that graph, and its LP engine, in place, so inst.graph never changes.

    The private arguments serve vcbranch.branching's branch children, which
    vouch for them; reduction_gain passes _own.  _own: no caller holds
    inst.graph, so the first step edits it in place too.  _near: inst.graph
    is G - D for a simplified G, and _near is N(D) - D in G.  _recheck: the
    vertices y in N(u) with v_y <= 2 in G, when D = {u}.  See the module
    docstring's fifth fact.
    """
    g = inst.graph
    k = inst.k
    own = _own  # whether g is this run's own graph, which steps edit in place
    scope = _near  # the vertices the scans look at before the first step; None: all
    trace = ReductionTrace()

    def emit(g2: Graph, step: ReductionStep) -> None:
        nonlocal g, k, own, scope
        trace.steps.append(step)
        g, k, own, scope = g2, k - step.dk, True, None

    # the current graph's tight list once min{0, minsurp} == 0 is known, and
    # None while unknown; see the module docstring for the steps that carry it
    tight: Optional[list[int]] = None
    if _recheck is not None and g.n:
        # minsurp >= 1, so nothing is tight; the verdict says whether it is 2
        recertify_minsurp_two(g, _recheck)
        tight = []
    while g.n:
        if tight is None:
            msm, zero = _msm_zeroset(g, frozenset())
            if msm < 0:
                emit(*_p1_step(g, zero, own))
                continue
            if g.min_degree() >= 3 and certify_minsurp_two(g):
                tight = []  # minsurp >= 2: nothing is tight, folds or forces
            else:
                tight = tight_vertices(g)
        if tight:
            cert = _vertex_entry(g, tight[0], frozenset())[1]
            emit(*_p1_step(g, cert, own))
            tight = [x for x in tight if x in g]  # minus step.removed
            continue
        # minsurp >= 1 now, and a degree-2 vertex makes it exactly 1
        fold, first2 = _degree_two(g, scope)
        if fold is not None:
            emit(*_p2_step(g, frozenset({fold}), own))  # tight stays []
            continue
        tight = None  # P3 and forced P1 steps below decide nothing
        if first2 is not None:  # neighbors adjacent: a triangle, so a funnel
            emit(*_p3_step(g, first2, min(g.neighbors(first2)), own))
            continue
        # minimum degree 3 and minsurp >= 1 now; the entries with v_x == 1
        # are needed only where the certificate cannot rule out minsurp 1
        table = {} if certify_minsurp_two(g) else low_entries(g, 1)
        candidates = [(len(c), x, c) for x, (_, c) in sorted(table.items())]
        indep = [t for t in candidates if g.is_independent(g.neighborhood(t[2]))]
        if indep:
            emit(*_p2_step(g, min(indep)[2], own))
            tight = []
        elif (match := g.find_pattern(_among=scope)) is not None:
            u, x = match.u, match.out
            # no candidate: minsurp >= 2 here, so the vertices next to the
            # step, N(S) - S for S = N[u] & N[x], can prove it for the
            # next graph (module docstring)
            near = None if candidates else g.neighborhood(
                g.neighborhood([u], closed=True) & g.neighborhood([x], closed=True))
            emit(*_p3_step(g, u, x, own))
            if near is not None and recertify_minsurp_two(g, near):
                tight = []
        elif candidates:
            # every certificate has an edge inside N(I): every cover
            # contains N(I), so force it; deletion shape and lift
            # coincide with a P1 step
            emit(*_p1_step(g, min(candidates)[2], own))
        else:
            break

    # minsurp >= 2 (or no vertex left): the all-half solution is optimal
    return Instance(g, k, lambda2=g.n), trace


def reduction_gain(g: Graph, removed: Iterable[int]) -> int:
    """R(X) = S(G - X): the k-decrease the policy extracts from G - X."""
    sub = g.delete_vertices(removed)  # no caller holds it: the run edits it in place
    _, trace = simplify(Instance(sub, 0, lambda2=0), _own=True)
    return trace.total_dk


# ---------------------------------------------------------------------------
# cover lifting
# ---------------------------------------------------------------------------

def lift_cover(trace: ReductionTrace, cover_reduced: Iterable[int]) -> frozenset[int]:
    """Replay a trace backwards, turning a cover of the reduced graph into
    one of the original graph.  Sizes satisfy |lifted| = |input| + total_dk.
    The replay reads no graph and checks nothing: given a set that is not a
    cover of the reduced graph, it returns one that is not a cover either.
    """
    cover = set(cover_reduced)
    for step in reversed(trace.steps):
        if step.kind == "P1":
            cover.update(step.nbrs)
        elif step.kind == "P2":
            if step.created in cover:
                cover.discard(step.created)
                cover.update(step.nbrs)
            else:
                cover.update(step.indset)
        elif step.kind == "P3":
            u, x = step.funnel
            cover.update(step.shared)
            if set(step.side_u) <= cover:
                cover.add(x)
            else:
                cover.add(u)
        elif step.kind == "ComponentSolve":
            cover.update(step.comp_cover)
        else:
            raise ValueError(f"unknown step kind {step.kind!r}")
    return frozenset(cover)
