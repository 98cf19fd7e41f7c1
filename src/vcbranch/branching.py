"""Branch-seq algebra, primitive branching rules, and the branch selector.

A branch-seq is a list of (dmu, dk) drop pairs; its value at measure
constants (a, b) is sum_i exp(-a*dmu_i - b*dk_i) and must stay <= 1 for the
measure argument to go through.  The selector mirrors the availability
case analysis: surplus-two indsets first, then splitting / blocker rules
keyed on the shadow of the chosen max-degree vertex; on a simplified graph
every path ends in one of the paper's rules, and fallback/branch55-ruleB is
the one case not yet shown unreachable.  Where a case needs a
"further simplification worth >= c" guarantee, the selector checks the
deterministic reduction policy directly (reduction_gain) instead of
re-verifying the combinatorial argument.  Children are emitted as recipes
and derived and simplified when first read (BranchChild), so a search that
rejects a child from its LP bound never pays for its graph or its
reduction run.  A decision holds the drops its rule claims, as the rule
states them; the audit compares the realized drops with them.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Container, Iterable, NamedTuple, Optional

from .graph import Graph, PreconditionError
from .lp import (
    Instance,
    SurplusCert,
    _msm_zeroset,
    blockers,
    certify_minsurp_two,
    find_nonsingleton_minset,
    is_blocker,
    low_entries,
    lp_weight2,
    minsurp_full,
    shadow_minus,
    tight_vertices,
    zero_surplus_cert,
)
from .reduce import ReductionTrace, reduction_gain, simplify

BranchSeq = tuple[tuple[float, int], ...]


class MeasureParams:
    """The measure's constants: a child's weight is e^{-a*dmu - b*dk}."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        if a < 0 or b < 0:
            raise ValueError("measure constants must be non-negative")
        self.a = a
        self.b = b


#: measure constants of the degree-stratified simple solvers; level 7 tracks
#: k only, with e^{-b} + e^{-7b} < 1 at b = ln(1.2575).
SIMPLE_LEVEL_PARAMS: dict[int, MeasureParams] = {
    4: MeasureParams(0.71808, 0.019442),
    5: MeasureParams(0.44849, 0.085297),
    6: MeasureParams(0.20199, 0.160637),
    7: MeasureParams(0.0, math.log(1.2575)),
}


def val(params: MeasureParams, seq: Iterable[tuple[float, int]]) -> float:
    return sum(math.exp(-params.a * dmu - params.b * dk) for dmu, dk in seq)


class BranchChild:
    """A branch child <G - D, k - |include|>, derived on first use.

    The child keeps a recipe (the parent, D and the selector's table) and
    lambda2_pre = 2*lambda(G - D), which make_child reads.  The first read
    of inst, trace, dk or dmu2 derives G - D and runs simplify on it; the
    result is kept, so every later read sees the same Graph object, and
    the recipe is dropped.  The parent's graph must not change before that
    read; node graphs are never edited once made.  No reduction step
    raises k or mu (vcbranch.reduce, sixth fact), so a visit with budget k
    that finds k - |include| < 0 or 2(k - |include|) < lambda2_pre knows,
    unforced and underived, that the child fails k < 0 or mu < 0.
    """

    __slots__ = ("include", "lambda2_pre", "_recipe", "_done")

    def __init__(self, include: frozenset[int], lambda2_pre: int, parent: Instance,
                 delete: frozenset[int], low: Optional[Container[int]]):
        self.include = include      # forced into the cover
        self.lambda2_pre = lambda2_pre  # 2*lambda(G - D), before simplification
        self._recipe = (parent, delete, low)  # until forced
        self._done: Optional[tuple[Instance, ReductionTrace, int, int]] = None

    def _force(self) -> tuple[Instance, ReductionTrace, int, int]:
        """Derive G - D once and simplify it in place.  With low, G is
        simplified, so simplify's first scans look only at near = N(D) - D,
        and for D = {u} it decides minsurp(G - u) >= 2 from N(u) & low with
        no LP solve (vcbranch.reduce, fifth fact)."""
        done = self._done
        if done is None:
            parent, delete, low = self._recipe
            g = parent.graph
            near = recheck = None
            if low is not None:
                near = g.neighborhood(delete)
                if len(delete) == 1:
                    recheck = [y for y in sorted(near) if y in low]
            pre = Instance(g.delete_vertices(delete), parent.k - len(self.include),
                           lambda2=self.lambda2_pre)
            inst, trace = simplify(pre, _own=True, _near=near, _recheck=recheck)
            done = self._done = (inst, trace, parent.k - inst.k, parent.mu2 - inst.mu2)
            self._recipe = None
        return done

    @property
    def inst(self) -> Instance:
        """The simplified subproblem."""
        return self._force()[0]

    @property
    def trace(self) -> ReductionTrace:
        """The simplification applied after the deletion."""
        return self._force()[1]

    @property
    def dk(self) -> int:
        """Realized k drop vs the parent."""
        return self._force()[2]

    @property
    def dmu2(self) -> int:
        """Realized mu drop vs the parent, doubled."""
        return self._force()[3]


class BranchDecision(NamedTuple):
    rule: str
    children: list[BranchChild]
    claimed: BranchSeq  # as the rule states it
    case: Optional[str] = None

    def realized(self) -> BranchSeq:
        return tuple((c.dmu2 / 2, c.dk) for c in self.children)


def make_child(parent: Instance, include: Iterable[int], delete: Iterable[int],
               _low: Optional[Container[int]] = None) -> BranchChild:
    """Delete a vertex set and charge the included part to the cover; the
    child is derived and simplified when first read (BranchChild), and the
    parent's graph must not change before then.

    lambda2_pre is one masked solve on the parent's engine; for D = N[u]
    after the selector's shadow_minus(G, N[u]) the engine answers it from
    the memo of that solve, with no search.  _low, the x with v_x <= 2 in
    the parent's graph G (the selector's low_entries(G, 2)), vouches that G
    is simplified; then minsurp(G - u) >= 1, so 2*lambda(G - u) = n - 1
    with no solve.  The child's graph is derived from G, and simplify edits
    it in place from its first step, so G and its engine never change.
    """
    include = frozenset(include)
    delete = frozenset(delete)
    g = parent.graph
    for v in delete - include:
        if not g.neighbors(v) <= include:
            raise PreconditionError(
                f"excluded vertex {v} has neighbors outside the included set"
            )
    lambda2 = g.n - 1 if _low is not None and len(delete) == 1 else lp_weight2(g, delete)
    return BranchChild(include, lambda2, parent, delete, _low)


def _decision(parent: Instance, rule: str, parts: list[tuple[set, set]],
              claimed: Optional[BranchSeq], case: Optional[str],
              low: Optional[Container[int]]) -> BranchDecision:
    children = [make_child(parent, inc, dele, low) for inc, dele in parts]
    if claimed is None:
        claimed = tuple((0.0, max(1, len(inc))) for inc, _ in parts)
    if len(claimed) != len(children):
        raise ValueError("claimed branch-seq length does not match children")
    return BranchDecision(rule, children, claimed, case)


# ---------------------------------------------------------------------------
# primitive rules
# ---------------------------------------------------------------------------

def split_vertex(inst: Instance, u: int, claimed: Optional[BranchSeq] = None,
                 case: Optional[str] = None,
                 _low: Optional[Container[int]] = None) -> BranchDecision:
    """Children <G - u, k - 1> and <G - N[u], k - deg(u)>.  Here and in
    split_indset and rule_b, _low is make_child's; in the latter two it also
    vouches for the rule's precondition, which the selector has shown."""
    g = inst.graph
    nbrs = set(g.neighbors(u))
    if not nbrs:
        raise PreconditionError(f"cannot split on isolated vertex {u}")
    parts = [({u}, {u}), (nbrs, nbrs | {u})]
    return _decision(inst, "split-vertex", parts, claimed, case, _low)


def split_indset(inst: Instance, cert: SurplusCert, claimed: Optional[BranchSeq] = None,
                 case: Optional[str] = None,
                 _low: Optional[Container[int]] = None) -> BranchDecision:
    """Children <G - I, k - |I|> and <G - N[I], k - |N(I)|> for a critical I."""
    g = inst.graph
    indset = cert.indset
    if g.surplus(indset) != cert.surplus:
        raise PreconditionError("certificate surplus does not match the graph")
    if len(indset) > 1 and _low is None:
        value, _, _ = minsurp_full(g)
        if value != cert.surplus:
            raise PreconditionError("indset is neither a singleton nor a min-set")
    nbrs = set(g.neighborhood(indset))
    if not nbrs:
        raise PreconditionError("indset with empty neighborhood: P1 applies instead")
    parts = [(set(indset), set(indset)), (nbrs, nbrs | indset)]
    return _decision(inst, "split-indset", parts, claimed, case, _low)


def rule_b(inst: Instance, x: int, us: Iterable[int], claimed: Optional[BranchSeq] = None,
           case: Optional[str] = None,
           _low: Optional[Container[int]] = None) -> BranchDecision:
    """Blocker rule: <G - (us + x), k - |us| - 1> and <G - N[x], k - deg(x)>."""
    g = inst.graph
    us = sorted(set(us))
    if x in us:
        raise PreconditionError("blocker coincides with a blocked vertex")
    for u in us:
        if g.has_edge(u, x):
            raise PreconditionError(f"blocker {x} is adjacent to {u}")
        if _low is None and is_blocker(g, u, x) is None:
            raise PreconditionError(f"{x} is not a blocker of {u}")
    both = set(us) | {x}
    nbrs = set(g.neighbors(x))
    parts = [(both, both), (nbrs, nbrs | {x})]
    return _decision(inst, "rule-B", parts, claimed, case, _low)


# ---------------------------------------------------------------------------
# the branch selector
# ---------------------------------------------------------------------------

class SelectorStats:
    __slots__ = ("cases",)

    def __init__(self):
        self.cases: dict[str, int] = {}

    def note(self, case: Optional[str]) -> None:
        if case:
            self.cases[case] = self.cases.get(case, 0) + 1

    @property
    def fallbacks(self) -> int:
        return sum(count for case, count in self.cases.items() if case.startswith("fallback"))


def _closed(g: Graph, u: int) -> frozenset[int]:
    return frozenset(g.neighbors(u)) | {u}


def _blocked_minset(g: Graph, u: int) -> frozenset[int]:
    """A min-set of G - N[u] for a blocked u (minsurp(G - N[u]) <= 0): the
    LP zero-set when shad(N[u]) < 0, the min-set through the lowest tight
    vertex when it is 0.  Every call is on a blocked u with N[u] != V: a
    shadow_minus(G, N[u]) < 0 (+infinity when N[u] = V) precedes all but
    blocked_high's blocked_low(za), and there a zb outside N[za] has
    surplus <= 0 in G - N[za], so it is tight at 0 (see blocked_high).
    """
    closed = _closed(g, u)
    msm, zero = _msm_zeroset(g, closed)
    if msm < 0:
        return zero
    return zero_surplus_cert(g, closed)


class _Selector:
    """The case analysis of select_branch on one graph G.

    select_branch calls it only when G has minimum degree >= 3, no funnel
    and minsurp(G) >= 2; the proofs below that a branch cannot be reached
    assume exactly these.  Their common step:

    Lemma.  Let I be a non-empty independent set of G - N[u] with surplus
    s there.  No vertex of I is adjacent to u, so N_G(I) is N_{G-N[u]}(I)
    plus N(I) & N(u), and |N(I) & N(u)| = surp_G(I) - s >= 2 - s.  For
    s <= 0 that is at least 2, so some vertex of I has a neighbour in N(u).
    """

    def __init__(self, inst: Instance, low: Optional[Container[int]] = None):
        self.g = inst.graph
        # the rules on G; low, the x with v_x <= 2 if vouched for, is make_child's _low
        self.split_vertex = partial(split_vertex, inst, _low=low)
        self.split_indset = partial(split_indset, inst, _low=low)
        self.rule_b = partial(rule_b, inst, _low=low)

    # -- surplus-two indsets (smallest cases get dedicated rules) ----------

    def surplus_two(self, indset: frozenset[int]) -> BranchDecision:
        """A rule for a surplus-two indset of at least two vertices.

        No caller passes a singleton: find_nonsingleton_minset returns sets
        of size >= 2, deg4_blocker passes J + {x} with J non-empty and
        outside N[x], and blocked_high passes {x, x2} with x2 != x.

        Every caller passes an independent set of surplus exactly 2, since
        minsurp(G) >= 2 and:
          find_nonsingleton_minset(g, table, 2) returns the certificate of
            an entry with v_x = 2, which has surplus v_x, or J + {x} for an
            entry {x} with v_x = deg(x) - 1 = 2 and J of surplus 0 in
            G - N[x], which has surplus deg(x) - 1;
          deg4_blocker's J is the zero-set of G - N[x] with surplus smx,
            so surp(J + x) = deg(x) - 1 + smx <= 2;
          blocked_high's x and x2 lie in iset, whose vertices all have
            degree 3 by then, and share c >= 2 neighbours, so
            surp({x, x2}) = 4 - c <= 2.
        """
        if len(indset) >= 3:
            return self._s2_large(indset)
        return self._s2_pair(indset)

    def _s2_large(self, indset: frozenset[int]) -> BranchDecision:
        g = self.g
        cert = SurplusCert(indset, 2)
        if len(indset) >= 4:
            size = len(indset)
            return self.split_indset(cert, ((1, size), (1, size + 2)), "surplus2/size4-split")
        zs = [z for z in sorted(g.neighborhood(indset))
              if len(g.neighbors(z) & indset) == 2]
        if not zs:
            return self.split_indset(cert, ((1, 3), (1, 5)), "surplus2/size3-split-plain")
        z = zs[0]
        x1, x2 = sorted(g.neighbors(z) & indset)
        (y,) = indset - {x1, x2}
        if g.degree(z) <= 4:
            return self.split_indset(cert, ((1, 4), (1, 5)), "surplus2/size3-split")
        if shadow_minus(g, _closed(g, z)) >= 5 - g.degree(z):
            return self.split_vertex(z, ((0.5, 4), (2, 5)), "surplus2/size3-splitz")
        ts = [t for t, _ in blockers(g, z) if t != y]
        if ts:
            return self.rule_b(ts[0], [z], ((1, 4), (1, 4)), "surplus2/size3-ruleB")
        if all(is_blocker(g, w, y) is not None for w in (x1, x2, z)):
            return self.rule_b(y, [x1, x2, z], ((1, 4), (1, 5)), "surplus2/size3-ruleB-y")
        return self.split_indset(cert, ((1, 3), (1, 5)), "surplus2/size3-split-plain")

    def _s2_pair(self, indset: frozenset[int]) -> BranchDecision:
        """I = {a, b} with surplus 2, so |N(I)| = 4 and deg(a), deg(b) are
        3 or 4.  With no funnel, N(a) is independent if deg(a) = 3 and
        triangle-free if 4, so pairs is not empty.

        high is not empty past pair-split, or reduction_gain(G, I) >= 2.
        In G' = G - I, let D be the vertices of degree <= 2, all in N(I):
        in case (3, 3) D holds N(a) & N(b), with no neighbour in N(I); in
        case (3, 4) the independent N(a); in case (4, 4) the three or four
        vertices in pairs (N(I) is triangle-free).  No set has surplus
        below 0 in G' (surp'(T) >= surp(T) - 2), so simplify's first step
        on G' is a P1 on a surplus-0 set T (dk = |T|), or a P3 (dk >= 2)
        or a fold at a vertex of D.  A P1 on {t} with N'(t) = {w}, or a
        fold of x with N'(x) = {y1, y2}, spares some v in D (in case
        (4, 4) with y1, y2 in N(I), the fourth vertex, in a pair with x)
        whose degree stays 1 or 2: v ~ w with deg'(v) = 1 gives
        surp'({t, v}) = -1, and v ~ y1, y2 gives surp'({x, v}) = 0, below
        minsurp(G').  Steps of dk 0 delete only isolated vertices, and
        simplify stops at minimum degree 3, so a second step has dk >= 1.

        pair-ruleB finds a blocker outside I.  shad(N[z]) < 0, so z has
        blockers, and the canonical min-set J of one holds only blockers
        (each vertex attains m = minsurp(G - N[z]) < 0).  Were all in I,
        J = {y} for the y in I - N(z), N(y) would lie in N(z), so
        N(I) = N(y) + z, and the other y' in I would be adjacent to z.  Then
        y' is a funnel (deg(y') = 3: z is adjacent to its two other
        neighbours; deg(y') = 4: an edge in N(y) makes a triangle with z),
        or z is adjacent to all of N(I) - z and in no pair.
        """
        g = self.g
        a_side = sorted(g.neighborhood(indset))
        pairs = [(z1, z2) for i, z1 in enumerate(a_side) for z2 in a_side[i + 1:]
                 if not g.has_edge(z1, z2)]
        z1, z2 = pairs[0]
        if g.degree(z1) <= 4 and g.degree(z2) <= 4 and reduction_gain(g, indset) >= 2:
            return self.split_indset(SurplusCert(indset, 2), ((1, 4), (1, 4)),
                                     "surplus2/pair-split")
        z = min(z for p in pairs for z in p if g.degree(z) >= 5)
        if shadow_minus(g, _closed(g, z)) >= 0:
            return self.split_vertex(z, ((0.5, 3), (2, 5)), "surplus2/pair-splitz")
        t = next(t for t, _ in blockers(g, z) if t not in indset)
        return self.rule_b(t, [z], ((1, 4), (1, 4)), "surplus2/pair-ruleB")

    # -- blocker machinery ---------------------------------------------------

    def deg4_blocker(self, u: int, x: int) -> BranchDecision:
        """Blocker x of u with deg(x) >= 4.  x lies in G - N[u], so u is
        outside N[x] and G - N[x] is not empty.  smx <= 3 - deg(x) < 0
        makes the zero-set jzero non-empty."""
        g = self.g
        smx, jzero = _msm_zeroset(g, _closed(g, x))
        if smx <= 3 - g.degree(x):
            return self.surplus_two(jzero | {x})
        return self.rule_b(x, [u], ((1, 2), (1.5, 5)), "branch4-3prep/ruleB")

    def deg5_with_3nbr(self, w0: int) -> BranchDecision:
        """w0 has degree >= 5 and a neighbour of degree 3, so it is in
        universe.  The callers reach here only past their deg(x) >= 4 exit,
        so their x has degree 3 (minimum degree 3); blocked_low and
        blocked_high pass a neighbour of x of degree >= 5, and blocked_high
        also passes u itself (degree >= 6) when some z in N(u) has degree 3.
        """
        g = self.g
        universe = [w for w in g.vertices() if g.degree(w) >= 5
                    and any(g.degree(t) == 3 for t in g.neighbors(w))]
        blocked: dict[int, frozenset[int]] = {}
        for w in universe:
            sm = shadow_minus(g, _closed(g, w))
            if sm >= 5 - g.degree(w):
                return self.split_vertex(w, ((0.5, 2), (2, 5)), "branch55/split")
            blocked[w] = _blocked_minset(g, w)
        for w in universe:
            for x in sorted(blocked[w]):
                if g.degree(x) >= 4:
                    return self.deg4_blocker(w, x)
        for w in universe:
            for x in sorted(blocked[w]):
                if reduction_gain(g, {w, x}) >= 2:
                    return self.rule_b(x, [w], ((1, 4), (1, 4)), "branch55/ruleB-R2")
        for w in universe:
            if len(blocked[w]) >= 2:
                x = min(blocked[w])
                return self.rule_b(x, [w], ((1, 3), (1, 5)), "branch55/ruleB-nonsingleton")
        # every blocked w in universe is blocked by singleton 3-vertices;
        # look for one linked to two of them
        links: dict[int, list[int]] = {}
        for w in universe:
            for x in blocked[w]:
                links.setdefault(x, []).append(w)
        for x in sorted(links):
            if len(links[x]) >= 2:
                u1, u2 = sorted(links[x])[:2]
                return self.rule_b(x, [u1, u2], ((1, 4), (1, 5)), "branch55/ruleB-pigeonhole")
        x = min(blocked[w0])
        return self.rule_b(x, [w0], ((1, 3), (1, 4)), "fallback/branch55-ruleB")

    def blocked_low(self, u: int) -> BranchDecision:
        """deg(u) in {4, 5} and u blocked (shad(N[u]) < 0 in select_branch;
        see blocked_high for its call).  iset has surplus <= 0 in G - N[u],
        so by the lemma some x in it has a neighbour in N(u), and every path
        ends in a rule."""
        g = self.g
        iset = _blocked_minset(g, u)
        x = next(x for x in sorted(iset) if g.neighbors(x) & g.neighbors(u))
        shared = sorted(g.neighbors(x) & g.neighbors(u))
        if g.degree(x) >= 4:
            return self.deg4_blocker(u, x)
        high = [t for t in shared if g.degree(t) >= 5]
        if high:
            return self.deg5_with_3nbr(high[0])
        if len(iset) >= 2:
            return self.rule_b(x, [u], ((1, 3), (1, 5)), "branch4-3/ruleB-nonsingleton")
        return self.rule_b(x, [u], ((1, 4), (1, 4)), "branch4-3/ruleB-singleton")

    def blocked_high(self, u: int) -> BranchDecision:
        """deg(u) >= 6 and shad(N[u]) <= 5 - deg(u).

        select_branch calls it only with shad(N[u]) < 6 - deg(u) <= 0, so
        N[u] != V (shadow_minus would be +infinity) and iset is the LP
        zero-set of G - N[u], non-empty with negative surplus.  By the lemma
        some x in it has a neighbour in N(u), and every path ends in a rule.

        Its blocked_low(za) decides: past the exits above, iset has degree 3
        and z_side degree 4; za ~ zb would make x a funnel, and zb has x, u
        and a third vertex in N(za), so {zb} has surplus <= 0 in G - N[za].
        """
        g = self.g
        closed = _closed(g, u)
        iset = _blocked_minset(g, u)
        for x in sorted(iset):
            if g.degree(x) >= 4:
                return self.deg4_blocker(u, x)
        x = next(x for x in sorted(iset) if g.neighbors(x) & g.neighbors(u))
        z_side = sorted(g.neighbors(x) & g.neighbors(u))
        y_side = sorted(g.neighbors(x) - closed)
        for z in z_side:
            if g.degree(z) >= 5:
                return self.deg5_with_3nbr(z)
        for z in z_side:
            if g.degree(z) == 3:
                return self.deg5_with_3nbr(u)
        for x2 in sorted(iset):
            if x2 != x and len(g.neighbors(x) & g.neighbors(x2)) >= 2:
                return self.surplus_two(frozenset({x, x2}))
        for i, za in enumerate(z_side):
            for zb in z_side[i + 1:]:
                if len(g.neighbors(za) & g.neighbors(zb)) >= 3:
                    return self.blocked_low(za)
        if len(iset) == 1:
            claim = ((1, 2 + len(z_side)), (1, 3))
        else:
            claim = ((1, 2 + len(z_side)), (1, 3 + len(y_side)))
        return self.rule_b(x, [u], claim, "branch6-1/ruleB")


def select_branch(inst: Instance) -> BranchDecision:
    """Pick an available branching rule on a simplified graph of maxdeg >= 4.

    Dispatch: non-singleton surplus-two min-sets first, then the max-degree
    vertex u of degree r: split when shad(N[u]) clears the degree threshold,
    otherwise the blocked-vertex rules.  Ties break to lowest vertex id.
    Every call decides: surplus_two always does (see _Selector._s2_pair),
    blocked_low runs here only with shad(N[u]) < 0, so u is blocked, and
    blocked_high calls it on a za that zb blocks (see _Selector.blocked_high).
    """
    g = inst.graph
    if g.n == 0:
        raise PreconditionError("empty instance")
    u = g.top_vertex()
    r = g.degree(u)
    if r <= 3:
        raise PreconditionError("maximum degree <= 3: use a base solver")
    if g.min_degree() < 3 or g.find_pattern() is not None:
        raise PreconditionError("graph is not simplified")
    # no tight vertex gives minsurp >= 1, and no entry v_x <= 1 then gives 2
    if not (certify_minsurp_two(g)
            or (tight_vertices(g) == [] and not low_entries(g, 1))):
        raise PreconditionError("graph is not simplified (minsurp < 2)")
    # only the entries with v_x == 2 are read: minsurp is 2 iff one exists
    table = low_entries(g, 2)

    sel = _Selector(inst, table)
    indset = find_nonsingleton_minset(g, table, 2)
    if indset is not None:
        return sel.surplus_two(indset)

    sm = shadow_minus(g, _closed(g, u))
    if r == 4 or r == 5:
        if sm >= 0:
            seq: BranchSeq = ((0.5, 1), (1.5, 4)) if r == 4 else ((0.5, 1), (2, 5))
            return sel.split_vertex(u, seq, f"thm5.1/r{r}-split")
        return sel.blocked_low(u)
    if sm >= 6 - r:
        return sel.split_vertex(u, ((0.5, 1), (2.5, r)), "thm5.1/r6-split")
    return sel.blocked_high(u)
