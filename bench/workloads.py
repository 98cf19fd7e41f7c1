"""The benchmark's workloads: fixed instance pools and the seeded corpus.

Each workload is a list of slots.  A slot is one kind of instance (a graph
family, its size, the solver level and whether the audit is on), and the
pool holds a few generated members per slot whose solve cost at the time
the pool was built lies close to the slot's median (see build_pool.py).
The corpus for a seed takes one member from every slot, so different seeds
solve different graphs while a corpus pass costs about the same.

pool.json stores each member's generator spec with the node count and
seconds measured when the pool was built, and, keyed by graph digest, the
optimum computed by the independent reference solver.  The members of a
slot share one node count, so ``nodes`` is the same for every seed.
Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import graphs
import reference

POOL_FILE = Path(__file__).resolve().parent / "pool.json"

#: Slot definitions; ``n`` lists the sizes candidates are drawn from,
#: ``needs`` names a rule that every pool member must have used, and
#: ``candidates`` overrides how many seeds build_pool.py tries at least per
#: size (the G(n, p) solve times are heavy-tailed and unions are cheap, so
#: those slots try more).
SLOTS: dict[str, list[dict]] = {
    "tree-l7": [
        {"kind": "regular", "d": 6, "n": [36], "level": 7},
        {"kind": "regular", "d": 6, "n": [40], "level": 7},
        {"kind": "regular", "d": 6, "n": [44], "level": 7},
    ],
    "tree-audit": [
        {"kind": "regular", "d": 4, "n": [40], "level": 4, "audit": True},
        {"kind": "regular", "d": 4, "n": [44], "level": 4, "audit": True},
        {"kind": "regular", "d": 5, "n": [40], "level": 5, "audit": True},
        {"kind": "regular", "d": 3, "n": [60, 62, 64], "level": 4, "audit": True,
         "needs": "base-agvc-split"},
    ],
    "sparse-kernel": [
        {"kind": "gnp", "c": 3.0, "n": [150], "level": 7, "candidates": 32},
        {"kind": "gnp", "c": 3.0, "n": [175], "level": 7, "candidates": 32},
        {"kind": "gnp", "c": 3.0, "n": [200], "level": 7, "candidates": 32},
        # every part has at most 24 vertices, so ComponentSolve folds them all
        {"kind": "union", "parts": [12, 14, 16, 18, 20, 24], "level": 7, "candidates": 32},
        # one 28-vertex part is above the folding threshold and is branched on
        {"kind": "union", "parts": [12, 16, 20, 28], "level": 7, "candidates": 32},
    ],
}


@dataclass(frozen=True)
class Item:
    """One corpus instance as the benchmark sees it."""

    id: str
    spec: dict
    n: int
    edges: list
    digest: str
    optimum: int
    level: int
    audit: bool

    def text(self) -> str:
        return graphs.pace_text(self.n, self.edges)


def generate(spec: dict) -> tuple[int, graphs.Edges]:
    """Build the graph a member spec describes (n is a single size here)."""
    rng = random.Random(spec["seed"])
    if spec["kind"] == "regular":
        return spec["n"], graphs.regular(spec["n"], spec["d"], rng)
    if spec["kind"] == "gnp":
        return spec["n"], graphs.gnp(spec["n"], spec["c"] / spec["n"], rng)
    if spec["kind"] == "union":
        return graphs.disjoint_union([(m, graphs.regular(m, 4, rng)) for m in spec["parts"]])
    raise ValueError(f"unknown graph kind {spec['kind']!r}")


def load_pool(path: Path = POOL_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def select(pool: dict, workload: str, seed: int) -> list[dict]:
    """One member spec per slot, chosen by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.choice(members)["spec"] for members in pool["workloads"][workload]]


def build_items(pool: dict, specs: list[dict]) -> list[Item]:
    """Generate the graphs and attach the reference optimum of each.

    An optimum missing from the pool is computed by the reference solver.
    """
    items = []
    for i, spec in enumerate(specs):
        n, edges = generate(spec)
        key = graphs.digest(n, edges)
        optimum = pool["optima"].get(key)
        if optimum is None:
            optimum = reference.min_cover_size(n, edges)
        items.append(Item(f"{i}:{key}", spec, n, edges, key, optimum,
                          spec["level"], spec.get("audit", False)))
    return items
