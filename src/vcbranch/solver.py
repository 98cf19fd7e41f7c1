"""Degree-stratified decision solvers, base-solver stand-ins, dovetailing.

Levels 3-7 run in one generator.  Level L simplifies, folds small side
components (each solved exactly by one branch-and-bound pass over the
MaxIS stand-in's search tree), and branches on a vertex of degree >= L via
the selector (levels 4-6) or a plain split on the lowest max-degree vertex
(level 7, which also absorbs the degree >= 8 top rule).  When the max
degree falls below L >= 4 it delegates: it dovetails level L - 1 against
the bounded-degree MaxIS stand-in.  Level 3 never delegates: it is the
stand-in for the above-guarantee solver, the same plain split with mu
pruning, booked as its own rule and never audited.

Every search runs as a stack of generators, one per tree node, stepped by
one loop (_step): a node yields once after it books itself and yields its
children's searches instead of calling them, so no search nests a Python
frame per tree level and no depth is too deep.  The level search, the
MaxIS stand-in (_maxis_gen, which also solves the small components) and the
dovetail share this protocol; dovetailing is deterministic node-quantum
alternation of two stacks, and a global node budget applies uniformly.

A node that branched checks the cover its successful child gives it, once,
against its own graph (_checked), before it lifts that cover through its
own trace; a leaf or a delegated answer is not checked again, and _run
checks the final cover against the input.

Simplification, component folding and branch selection do not depend on
k: k only shifts by each step's dk.  The ascending optimum search revisits
every node of the previous k's tree, so one solve_optimum call keeps a
tree of _Record, one per search node, keyed by path: a node reaches its
child's record by child index and its delegated level's by -1.  A node
visited again for another k replays its preprocessing and its branching
decision from its record instead of recomputing them.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Generator, NamedTuple, Optional

from .graph import Graph
from .lp import Instance
from .reduce import (
    ReductionStep,
    ReductionTrace,
    _p1_step,
    _p2_step,
    _p3_step,
    lift_cover,
    simplify,
)
from .branching import SIMPLE_LEVEL_PARAMS, SelectorStats, select_branch, split_vertex
from .verify import AGVC_RATE, MAXIS_RATES, AuditRecord, make_audit_record

#: side components of at most this many vertices are solved exactly and folded
COMPONENT_THRESHOLD = 24
#: branch nodes each solver runs per turn when two solvers are dovetailed
DOVETAIL_QUANTUM = 256


class SolverConfig(NamedTuple):
    level: int = 7
    node_budget: Optional[int] = None
    audit: bool = False


class SolveStats:
    __slots__ = ("nodes", "rule_counts", "max_depth", "audit_records", "selector",
                 "wall_time", "component_nodes")

    def __init__(self):
        self.nodes = 0
        self.rule_counts: Counter = Counter()
        self.max_depth = 0
        self.audit_records: list[AuditRecord] = []
        self.selector = SelectorStats()
        self.wall_time = 0.0
        #: branch nodes of the component folds, once per preprocessed graph;
        #: outside nodes and the budget
        self.component_nodes = 0

    @property
    def audit_violations(self) -> int:
        return sum(record.violation for record in self.audit_records)


class SolveResult(NamedTuple):
    feasible: bool
    cover: Optional[frozenset[int]]
    stats: SolveStats


class BudgetExhausted(RuntimeError):
    """Node budget ran out; carries the partial statistics."""

    def __init__(self, stats: SolveStats):
        super().__init__(f"node budget exhausted after {stats.nodes} nodes")
        self.stats = stats


#: one node of a search: it yields None after it books a node, or yields a
#: subsearch's generator and is sent that subsearch's answer (see _step)
SolveGen = Generator[Optional[Generator], object, tuple[bool, Optional[frozenset[int]]]]


def _account(stats: SolveStats, cfg: SolverConfig, depth: int) -> None:
    stats.nodes += 1
    if depth > stats.max_depth:
        stats.max_depth = depth
    if cfg.node_budget is not None and stats.nodes > cfg.node_budget:
        raise BudgetExhausted(stats)


def _step(stack: list[SolveGen]):
    """Run the search on stack to its next branch node and return None, or
    to its answer and return that.  A yielded subsearch is pushed, and a
    returning one is popped and its answer sent to the generator below, so
    a search of any depth runs in this one frame."""
    value = None
    while True:
        try:
            out = stack[-1].send(value)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                return stop.value
            value = stop.value
            continue
        if out is None:
            return None
        stack.append(out)
        value = None


def _drive(gen: SolveGen):
    """Step the search of gen to its answer."""
    stack = [gen]
    while True:
        answer = _step(stack)
        if answer is not None:
            return answer


class _Record:
    """The k-independent work at one search node of a solve call: pre is
    _preprocess's result and decision the branching decision.  below(i) is
    the record of child i, or of the delegated level for i = -1."""

    __slots__ = ("pre", "decision", "_below")

    def __init__(self) -> None:
        self.pre = self.decision = None
        self._below: dict[int, _Record] = {}

    def below(self, i: int) -> "_Record":
        rec = self._below.get(i)
        if rec is None:
            rec = self._below[i] = _Record()
        return rec


class _NoReuse(_Record):
    """The record of a single decision run.  Within one k each node is
    visited once, so below keeps nothing: a kept record tree would hold
    every explored graph until the run ends."""

    __slots__ = ()

    def below(self, i: int) -> "_Record":
        return _NoReuse()


# ---------------------------------------------------------------------------
# node preprocessing: simplify + fold small side components
# ---------------------------------------------------------------------------

def _preprocess(inst: Instance, depth: int, rec: _Record,
                stats: SolveStats) -> tuple[Instance, ReductionTrace]:
    """Simplify and fold inst once per node, kept on its record; later
    visits shift k by dk."""
    hit = rec.pre
    if hit is None:
        out, trace = _simplify_and_fold(inst, depth, stats)
        hit = rec.pre = (out.graph, trace, inst.k - out.k, out.lambda2)
        if out.graph is not inst.graph:
            inst.graph._lp = None  # spent: later visits replay the result
    g, trace, dk, lambda2 = hit
    return Instance(g, inst.k - dk, lambda2=lambda2), trace


def _simplify_and_fold(inst: Instance, depth: int,
                       stats: SolveStats) -> tuple[Instance, ReductionTrace]:
    """Only a run's root (depth 0) is simplified here: every deeper graph is
    a branch child, simplified when the visit read it, or a graph that a
    higher level preprocessed before it delegated."""
    inst, trace = (inst, ReductionTrace()) if depth else simplify(inst)
    g, k = inst.graph, inst.k
    comps = g.components()
    if len(comps) > 1:
        folded = []
        for comp in comps:
            if len(comp) <= COMPONENT_THRESHOLD:
                # a component is closed under adjacency: its rows are its graph
                cover = _component_cover(g._derive({v: set(g._adj[v]) for v in comp}), stats)
                k -= len(cover)
                trace.steps.append(ReductionStep(
                    kind="ComponentSolve", removed=tuple(comp), dk=len(cover),
                    comp_cover=tuple(sorted(cover))))
                folded += comp
        if folded:
            # the components left are simplified: all-half is LP-optimal
            g = g.delete_vertices(folded)
            inst = Instance(g, k, lambda2=g.n)
    return inst, trace


# ---------------------------------------------------------------------------
# base solvers (correctness-only stand-ins behind the base-solver interface)
# ---------------------------------------------------------------------------

def _fold_subquadratic(g: Graph, k: int, own: bool = False
                       ) -> tuple[Graph, int, ReductionTrace]:
    """Fold vertices of degree <= 2 via singleton P1/P2 until none remain.
    As in simplify, the first step derives a new graph and later steps edit
    it in place, so the graph passed in never changes; with own, no caller
    holds g, and the first step edits it too."""
    trace = ReductionTrace()
    while True:
        v = min((v for v, nbrs in g._adj.items() if len(nbrs) <= 2), default=None)
        if v is None:
            break
        deg = g.degree(v)
        if deg <= 1:
            g, step = _p1_step(g, frozenset({v}), own)
        elif g.has_edge(*sorted(g.neighbors(v))):
            g, step = _p3_step(g, v, min(g.neighbors(v)), own)  # triangle: a funnel
        else:
            g, step = _p2_step(g, frozenset({v}), own)
        trace.steps.append(step)
        k -= step.dk
        own = True
    return g, k, trace


def _maxis_gen(g: Graph, limit: list[int], stats: SolveStats,
               cfg: Optional[SolverConfig] = None, depth: int = 0, size: int = 0,
               own: bool = False) -> SolveGen:
    """The MaxIS stand-in's search tree below g, depth first.  A node folds
    its graph (_fold_subquadratic), then branches on its lowest vertex u of
    maximum degree, {u} first, then N(u).  It returns (True, a cover of g
    from its subtree, lifted through its own fold) or (False, None).  size
    is the cover size taken above g, and g is never edited unless own.

    limit[0] is the largest cover size wanted, shared by the whole tree.  A
    node whose fold leaves k < 0 under it is pruned, and so is a child whose
    branch alone passes it: a fold step never raises k, so that child's fold
    would leave k < 0 too (and N(u), the larger branch, goes second).  Each
    child graph is derived once and folded in place from its first step.

    With cfg this is the decision for k = limit[0]: each branch node is
    booked (at depth plus its tree depth) before its yield, where a dovetail
    may drop the search, and the first leaf answers.  Fold and branch do not
    depend on k, and the pruning cuts exactly the subtrees that hold no leaf
    of size at most k.

    Without cfg this is the component fold: nodes are booked on
    stats.component_nodes, outside nodes and the budget, each leaf lowers
    the limit to one less than its cover size, and the search goes on; the
    last cover found is returned.  It equals the cover of the restart loop
    that decides k = n, then k = |C| - 1 for each cover C found, and
    returns the last C:

    * every leaf before cover C_i is larger than the limit that found C_i,
      so it is larger than |C_i| - 1 too, and the next cover lies after C_i;
    * so one search that goes on after each leaf with the lowered limit
      meets the same covers in the same order and ends on the same last
      cover.  Its nodes are a subset of the loop's: the loop walks each
      prefix again, and its last, infeasible run walks the whole tree.
    """
    g, k, trace = _fold_subquadratic(g, limit[0] - size, own)
    if k < 0:
        return False, None
    if g.n == 0:
        if cfg is None:
            limit[0] -= k + 1  # the leaf's cover size is limit[0] - k
        return True, lift_cover(trace, ())
    size = limit[0] - k  # the cover size of this node, its fold's included
    if cfg is None:
        stats.component_nodes += 1
    else:
        _account(stats, cfg, depth)
        stats.rule_counts["base-maxis-split"] += 1
    yield
    u = g.top_vertex()
    nbrs = frozenset(g.neighbors(u))
    best = None
    for include, delete in ((frozenset({u}), {u}), (nbrs, nbrs | {u})):
        if size + len(include) > limit[0]:
            break
        ok, sub = yield _maxis_gen(g.delete_vertices(delete), limit, stats, cfg, depth + 1,
                                   size + len(include), True)
        if ok:
            best = lift_cover(trace, _checked(g, include | sub))
            if cfg is not None:
                break
    return best is not None, best


def _component_cover(g: Graph, stats: Optional[SolveStats] = None) -> frozenset[int]:
    """A minimum cover of a small graph: the MaxIS stand-in's component fold
    (see _maxis_gen).  Its branch nodes are booked on stats.component_nodes."""
    return _drive(_maxis_gen(g, [g.n], stats or SolveStats()))[1]


def _dovetail_gen(first: SolveGen, second: SolveGen, quantum: int) -> SolveGen:
    """Deterministic fair interleaving of two searches, each on its own
    stack, quantum nodes per turn; the first answer wins and the other
    search is dropped."""
    stacks = [[first], [second]]
    turn = 0
    while True:
        for _ in range(quantum):
            answer = _step(stacks[turn])
            if answer is not None:
                return answer
            yield
        turn = 1 - turn


# ---------------------------------------------------------------------------
# the level solvers
# ---------------------------------------------------------------------------

def _predicted_exponents(inst: Instance, level: int) -> tuple[float, float]:
    """(cost of the parameterized solver, cost of the MaxIS stand-in),
    as exponents predicted from the published rates; heuristic only."""
    n = inst.graph.n
    if level == 4:
        own = max(inst.mu, 0.0) * math.log(AGVC_RATE)
    else:
        p = SIMPLE_LEVEL_PARAMS[level - 1]
        own = p.a * max(inst.mu, 0.0) + p.b * max(inst.k, 0)
    maxis = n * math.log(MAXIS_RATES[level - 1])
    return own, maxis


def _solve_level_gen(inst: Instance, level: int, cfg: SolverConfig, stats: SolveStats,
                     depth: int, rec: _Record) -> SolveGen:
    inst, trace = _preprocess(inst, depth, rec, stats)
    if inst.k < 0 or inst.mu2 < 0:
        return False, None
    g = inst.graph
    if g.n == 0:
        return True, lift_cover(trace, ())

    if level > 3 and g.max_degree() < level:
        own_cost, maxis_cost = _predicted_exponents(inst, level)
        own = _solve_level_gen(inst, level - 1, cfg, stats, depth + 1, rec.below(-1))
        other = _maxis_gen(g, [inst.k], stats, cfg, depth + 1)
        first, second = (own, other) if own_cost <= maxis_cost else (other, own)
        feasible, cover = yield _dovetail_gen(first, second, DOVETAIL_QUANTUM)
        if not feasible:
            return False, None
        return True, lift_cover(trace, cover)

    _account(stats, cfg, depth)
    if level == 3:
        # booked before the yield: a dovetail may drop the search there
        stats.rule_counts["base-agvc-split"] += 1
    yield
    decision = rec.decision
    if decision is None:
        if 3 < level <= 6:
            decision = select_branch(inst)
        else:
            u = g.top_vertex()
            maxdeg = g.degree(u)
            # level 3 books neither the claim nor the case
            decision = split_vertex(inst, u, claimed=((0.0, 1), (0.0, min(maxdeg, 7))),
                                    case="branch7/top-split")
        rec.decision = decision
        g._lp = None  # spent: later visits replay the decision
    if 3 < level <= 6:
        stats.selector.note(decision.case)
    if level > 3:
        stats.rule_counts[decision.rule] += 1
        if cfg.audit:
            stats.audit_records.append(make_audit_record(
                SIMPLE_LEVEL_PARAMS[level], stats.nodes, decision.case or decision.rule,
                decision.claimed, decision.realized()))

    for i, child in enumerate(decision.children):
        # unforced rejection: simplification and the component fold never
        # raise k or mu (vcbranch.reduce, sixth fact), so this child would
        # fail the k < 0 or mu < 0 check before booking a node
        k_pre = inst.k - len(child.include)
        if k_pre < 0 or 2 * k_pre < child.lambda2_pre:
            continue
        sub_inst = Instance(child.inst.graph, inst.k - child.dk, lambda2=child.inst.lambda2)
        ok, sub = yield _solve_level_gen(sub_inst, level, cfg, stats, depth + 1, rec.below(i))
        if ok:
            return True, lift_cover(trace, _checked(g, child.include | lift_cover(child.trace, sub)))
    return False, None


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _checked(g: Graph, cover: frozenset[int]) -> frozenset[int]:
    """cover, after checking that it is a vertex cover of g made of g's
    vertices; a solver bug raises AssertionError here.  Only the edges
    with no end in cover are collected, and only they are sorted."""
    adj = g._adj
    uncovered = [(u, v) for u, nbrs in adj.items() if u not in cover
                 for v in nbrs if u < v and v not in cover]
    unknown = [v for v in cover if v not in adj]
    if uncovered or unknown:
        raise AssertionError(f"solver produced an invalid cover (uncovered={sorted(uncovered)[:3]}, "
                             f"not in the graph={sorted(unknown)[:3]})")
    return cover


def _run(inst: Instance, gen: SolveGen, stats: SolveStats, started: float) -> SolveResult:
    """Drive one decision run to its answer; the wall time since started is
    booked on stats whether it answers or runs out of budget.  A cover is
    checked against the input and against k: each node checked the cover
    of the graph it branched on, and this checks the lifts above them."""
    try:
        feasible, cover = _drive(gen)
    finally:
        stats.wall_time = time.perf_counter() - started
    if feasible:
        cover = _checked(inst.graph, frozenset(cover))
        if len(cover) > inst.k:
            raise AssertionError(f"solver produced a cover of size {len(cover)} > k = {inst.k}")
        return SolveResult(True, cover, stats)
    return SolveResult(False, None, stats)


def _level_config(cfg: Optional[SolverConfig]) -> SolverConfig:
    """cfg, or the default one, after checking that its level is 4..7."""
    cfg = cfg or SolverConfig()
    if cfg.level not in (4, 5, 6, 7):
        raise ValueError(f"level must be 4..7, got {cfg.level}")
    return cfg


def solve_decision(inst: Instance, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Decide whether inst.graph has a vertex cover of size <= inst.k."""
    cfg = _level_config(cfg)
    stats = SolveStats()
    return _run(inst, _solve_level_gen(inst, cfg.level, cfg, stats, 0, _NoReuse()),
                stats, time.perf_counter())


def base_maxis(inst: Instance, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Exact decision via max-degree branching with degree <= 2 folding."""
    stats = SolveStats()
    return _run(inst, _maxis_gen(inst.graph, [inst.k], stats, cfg or SolverConfig()),
                stats, time.perf_counter())


def base_agvc(inst: Instance, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Exact decision by the above-guarantee stand-in (level 3): max-degree
    splits on simplified graphs; mu < 0 rejects immediately."""
    stats = SolveStats()
    return _run(inst, _solve_level_gen(inst, 3, cfg or SolverConfig(), stats, 0, _NoReuse()),
                stats, time.perf_counter())


def solve_optimum(g: Graph, cfg: Optional[SolverConfig] = None
                  ) -> tuple[int, frozenset[int], SolveStats]:
    """Smallest k admitting a cover, by ascending search from ceil(lambda).

    All decision runs share one record tree, so each k re-expands only the
    nodes the previous k did not reach; the tree ends with the call.
    """
    cfg = _level_config(cfg)
    stats = SolveStats()
    started = time.perf_counter()
    root = _Record()
    base = Instance(g, 0)
    k = (base.lambda2 + 1) // 2
    while True:
        inst = Instance(g, k, lambda2=base.lambda2)
        result = _run(inst, _solve_level_gen(inst, cfg.level, cfg, stats, 0, root),
                      stats, started)
        if result.feasible:
            return len(result.cover), result.cover, result.stats
        k += 1
        if k > g.n:
            raise AssertionError("optimum search exceeded n; solver is buggy")
