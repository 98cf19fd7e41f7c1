"""Golden outputs: solve_optimum on a small fixed corpus, pinned by digest.

The corpus reaches levels 3-7, the dovetail at a one-node quantum (so the
MaxIS stand-in decides nodes of its own), and side-component folds.  Every
output the solver is deterministic in goes into the digest: the optimum,
the cover, node and rule counts, selector cases and fallbacks, audit
records, max_depth and component_nodes.  A change that claims to leave
outputs unchanged must leave these digests as they are.
"""

import hashlib
import json

from vcbranch import solver
from vcbranch.graph import Graph
from vcbranch.solver import DOVETAIL_QUANTUM, SolverConfig, solve_optimum
from vcbranch.cli import gnp, random_regular

from oracle_utils import shuffled_union


#: name -> (graph, level, dovetail quantum or None for the default)
CASES = {
    f"reg{n}-{d}-{seed}-l{level}": (random_regular(n, d, seed), level, None)
    for n, d, seed, level in [(24, 4, 1, 4), (40, 3, 1, 4), (20, 5, 2, 5), (22, 5, 1, 6),
                              (18, 6, 2, 7), (22, 7, 2, 7), (28, 6, 3, 7), (30, 5, 1, 7),
                              (32, 4, 2, 7)]
}
CASES["gnp120-0-l7"] = (gnp(120, 4 / 120, 0), 7, None)
# the MaxIS stand-in takes turns with the level below node by node
CASES.update({
    f"reg{n}-{d}-{seed}-l{level}-q1": (random_regular(n, d, seed), level, 1)
    for level in (4, 5) for d in (3, 4) for n, seed in [(16, 2), (20, 1), (22, 0), (26, 1)]
})
# 4-regular side components of at most COMPONENT_THRESHOLD vertices fold
CASES.update({
    f"union-{name}-l7": (shuffled_union([random_regular(n, 4, s) for n, s in parts], seed)[0],
                         7, None)
    for name, parts, seed in [
        ("10-12-26", [(10, 0), (12, 1), (26, 2)], 5),
        ("12-to-24", [(n, n) for n in (12, 14, 16, 18, 20, 24)], 1),
        ("12-to-28", [(n, n) for n in (12, 16, 20, 28)], 2),
    ]
})

GOLDEN = {
    "reg24-4-1-l4": "a427197dde6bfb88",
    "reg40-3-1-l4": "73cda5cc9b7ef34d",
    "reg20-5-2-l5": "80741c130ef8281f",
    "reg22-5-1-l6": "84c72a010870ac51",
    "reg18-6-2-l7": "b0bb71d2f5a6f8a7",
    "reg22-7-2-l7": "3e782e56052a8dc7",
    "reg28-6-3-l7": "e4fc324419eeeac7",
    "reg30-5-1-l7": "af125834544c9953",
    "reg32-4-2-l7": "b2c951770ad2b878",
    "gnp120-0-l7": "fd1c58e250034d90",
    "reg16-3-2-l4-q1": "a66189abef8591d7",
    "reg20-3-1-l4-q1": "3d5a7f7781fe32d5",
    "reg22-3-0-l4-q1": "16ab709c9c7571cc",
    "reg26-3-1-l4-q1": "10f19d56c444354c",
    "reg16-4-2-l4-q1": "85e5244a3bde2e9d",
    "reg20-4-1-l4-q1": "16baec9947d88344",
    "reg22-4-0-l4-q1": "69ff7a258cd7f96f",
    "reg26-4-1-l4-q1": "b461a7426f54df92",
    "reg16-3-2-l5-q1": "18c668a87b604e95",
    "reg20-3-1-l5-q1": "ae8f8899c38de530",
    "reg22-3-0-l5-q1": "16ab709c9c7571cc",
    "reg26-3-1-l5-q1": "a2c5fb72929c3ff0",
    "reg16-4-2-l5-q1": "a59f0603755d003b",
    "reg20-4-1-l5-q1": "089b9353db1e9658",
    "reg22-4-0-l5-q1": "dd7c369545cc4529",
    "reg26-4-1-l5-q1": "74eb8b00cde53f97",
    "union-10-12-26-l7": "71056e23eeffeb39",
    "union-12-to-24-l7": "6522b256025ae019",
    "union-12-to-28-l7": "2c631c108b88a1fa",
}


def _outputs(g: Graph, level: int) -> dict:
    opt, cover, stats = solve_optimum(g, SolverConfig(level=level, audit=True))
    return {
        "optimum": opt,
        "cover": sorted(cover),
        "nodes": stats.nodes,
        "rule_counts": sorted(stats.rule_counts.items()),
        "selector_cases": sorted(stats.selector.cases.items()),
        "selector_fallbacks": stats.selector.fallbacks,
        # val_claimed and val_realized are functions of claimed and realized
        "audit": [(r.node_id, r.rule, r.claimed, r.realized, r.violation)
                  for r in stats.audit_records],
        "audit_violations": stats.audit_violations,
        "max_depth": stats.max_depth,
        "component_nodes": stats.component_nodes,
    }


def _digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()[:16]


def test_golden_outputs(monkeypatch):
    digests = {}
    for name, (g, level, quantum) in CASES.items():
        monkeypatch.setattr(solver, "DOVETAIL_QUANTUM", quantum or DOVETAIL_QUANTUM)
        digests[name] = _digest(_outputs(g, level))
    assert digests == GOLDEN


def test_no_solve_sorts_the_edge_list(monkeypatch):
    """The cover checks read adjacency rows: no solve calls Graph.edges."""
    from vcbranch.lp import Instance

    def refused(self):
        raise AssertionError("Graph.edges called during a solve")

    monkeypatch.setattr(Graph, "edges", refused)
    for name, (g, level, quantum) in CASES.items():
        monkeypatch.setattr(solver, "DOVETAIL_QUANTUM", quantum or DOVETAIL_QUANTUM)
        solve_optimum(g, SolverConfig(level=level, audit=True))
    g = random_regular(30, 5, 1)
    assert solver.solve_decision(Instance(g, g.n), SolverConfig(level=5)).feasible
    assert solver.base_maxis(Instance(g, g.n)).feasible
