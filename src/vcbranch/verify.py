"""The rates the solvers measure by, drop audits, and the brute-force oracle.

AGVC_RATE and MAXIS_RATES are the published base rates of the above-guarantee
solver and the MaxIS stand-ins.  make_audit_record compares a branch node's
realized measure drops with its rule's claim, and audit_trace sums the records
per rule.  brute_force_vc is the exact oracle for graphs of at most 26
vertices.  The certifier of the measure analysis's inequalities is
vcbranch.constraints, which no solve imports.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graph import Graph
from .branching import BranchSeq, MeasureParams, val

# -- published rates ----------------------------------------------------------

AGVC_RATE = 2.3146                    # above-guarantee solver, base e^{mu ln r}
MAXIS_RATES = {3: 1.083506, 4: 1.137595, 5: 1.17366, 6: 1.18922, 7: 1.19698}


# -- drop audit ---------------------------------------------------------------

class AuditRecord(NamedTuple):
    node_id: int
    rule: str
    claimed: BranchSeq
    realized: BranchSeq
    val_claimed: float
    val_realized: float
    violation: bool
    shortfalls: int  # children whose realized dmu or dk is below the claimed one


def make_audit_record(params: MeasureParams, node_id: int, rule: str,
                      claimed: BranchSeq, realized: BranchSeq) -> AuditRecord:
    """The node's realized drops against its rule's claim: a violation is
    val(realized) > 1; a shortfall, a child that drops less than claimed."""
    vc = val(params, claimed)
    vr = val(params, realized)
    shortfalls = sum(rmu < cmu or rk < ck
                     for (cmu, ck), (rmu, rk) in zip(claimed, realized))
    return AuditRecord(node_id, rule, tuple(claimed), tuple(realized), vc, vr,
                       violation=vr > 1 + 1e-9, shortfalls=shortfalls)


class AuditSummary(NamedTuple):
    total: int
    violations: int
    shortfalls: int
    per_rule: dict[str, tuple[int, int, int]]  # rule -> (records, violations, shortfalls)

    @property
    def clean(self) -> bool:
        return self.violations == 0

    def render(self) -> str:
        lines = [f"audit: {self.total} records, {self.violations} violations, "
                 f"{self.shortfalls} shortfalls"]
        for rule in sorted(self.per_rule):
            cnt, bad, short = self.per_rule[rule]
            lines.append(f"  {rule:<34} records={cnt:<6} violations={bad:<6} "
                         f"shortfalls={short}")
        return "\n".join(lines)


def audit_trace(records: Iterable[AuditRecord]) -> AuditSummary:
    per_rule: dict[str, tuple[int, int, int]] = {}
    for rec in records:
        cnt, bad, short = per_rule.get(rec.rule, (0, 0, 0))
        per_rule[rec.rule] = (cnt + 1, bad + rec.violation, short + rec.shortfalls)
    return AuditSummary(sum(c for c, _, _ in per_rule.values()),
                        sum(b for _, b, _ in per_rule.values()),
                        sum(s for _, _, s in per_rule.values()), per_rule)


# -- brute-force oracle --------------------------------------------------------

_ORACLE_LIMIT = 26


def _vc_opt(adj: dict[int, set[int]]) -> int:
    """Exact minimum vertex cover size; destructive on adj (with undo)."""
    removed: list[tuple[int, set[int]]] = []

    def delete(v: int) -> None:
        nbrs = adj.pop(v)
        for w in nbrs:
            adj[w].discard(v)
        removed.append((v, nbrs))

    def restore(mark: int) -> None:
        while len(removed) > mark:
            v, nbrs = removed.pop()
            adj[v] = nbrs
            for w in nbrs:
                adj[w].add(v)

    def solve() -> int:
        # fold isolated and pendant vertices
        mark = len(removed)
        count = 0
        while True:
            low = [v for v in adj if len(adj[v]) <= 1]
            if not low:
                break
            v = min(low)
            if adj[v]:
                w = next(iter(adj[v]))
                delete(w)
                count += 1
            delete(v)
        if not adj:
            restore(mark)
            return count
        maxdeg = max(len(nb) for nb in adj.values())
        if maxdeg <= 2:  # disjoint cycles
            total = count
            seen: set[int] = set()
            for v in adj:
                if v in seen:
                    continue
                comp = {v}
                stack = [v]
                while stack:
                    u = stack.pop()
                    for w in adj[u]:
                        if w not in comp:
                            comp.add(w)
                            stack.append(w)
                seen |= comp
                total += (len(comp) + 1) // 2
            restore(mark)
            return total
        u = min(v for v in adj if len(adj[v]) == maxdeg)
        nbrs = sorted(adj[u])
        inner = len(removed)
        delete(u)
        take_u = 1 + solve()
        restore(inner)
        for w in nbrs:
            delete(w)
        delete(u)
        take_nbrs = len(nbrs) + solve()
        restore(inner)
        restore(mark)
        return count + min(take_u, take_nbrs)

    return solve()


def brute_force_vc(g: Graph) -> tuple[int, frozenset[int]]:
    """Exact minimum vertex cover with the lexicographically least optimum."""
    if g.n > _ORACLE_LIMIT:
        raise ValueError(f"oracle guard: n={g.n} exceeds {_ORACLE_LIMIT}")
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    opt = _vc_opt({v: set(nb) for v, nb in adj.items()})
    cover: list[int] = []
    budget = opt
    while any(adj[v] for v in adj):
        v = min(v for v in adj if adj[v])
        without = {w: nb - {v} for w, nb in adj.items() if w != v}
        if _vc_opt(without) <= budget - 1:
            cover.append(v)
            budget -= 1
            adj = without
        else:
            nbrs = sorted(adj[v])
            cover.extend(nbrs)
            budget -= len(nbrs)
            drop = set(nbrs) | {v}
            adj = {w: nb - drop for w, nb in adj.items() if w not in drop}
    return opt, frozenset(cover)
