"""Rebuild pool.json: measure candidate instances, keep typical ones per slot.

For every slot of every workload (workloads.SLOTS) this generates graphs
from seeds 0, 1, 2, ... of each listed size and solves each once with
vcbranch, skipping any that take longer than CAP_SECONDS or lack the slot's
required rule (a wrong answer stops the build).  It keeps MEMBERS graphs
that all give the same branch node count, so that every seed's corpus has
the same ``nodes``: the count closest to the slot's median among those that
MEMBERS candidates share, and of those the candidates closest to the slot's
median wall time.  It draws CANDIDATES seeds per size (or the slot's own
``candidates``), and more, up to four times as many, until such a count
lies within NODE_WINDOW of the median.  It then stores the reference
optimum of every kept graph.

    python3 bench/build_pool.py            # writes bench/pool.json

Rebuilding changes the corpus, so it starts a new baseline.
"""

from __future__ import annotations

import json
import platform
import signal
import statistics
from collections import defaultdict

import graphs
import reference
import run
import workloads

CANDIDATES = 24
MEMBERS = 3
CAP_SECONDS = 8
NODE_WINDOW = 0.1  # largest distance of the kept node count from the median


class _Timeout(BaseException):
    """Raised by the alarm; not an Exception, so run.solve lets it through."""


def _alarm(signum, frame):
    raise _Timeout


def measure(vcbranch, spec: dict, clock: run.Clock):
    """(wall seconds, nodes, rule counts) of one solve, or None past the cap."""
    (item,) = workloads.build_items({"optima": {}}, [spec])
    graph = vcbranch.cli.parse_graph(item.text())
    signal.alarm(CAP_SECONDS)
    try:
        out = run.solve(vcbranch, item, graph, clock)
    except _Timeout:
        return None
    finally:
        signal.alarm(0)
    if not out.ok:
        raise SystemExit(f"candidate {spec} failed: {out.error}")
    return out.wall, out.nodes, out.rules


def pick(measured: list[dict]) -> list[dict]:
    """MEMBERS candidates sharing the node count nearest the median, or []."""
    mid_nodes = statistics.median(m["nodes"] for m in measured)
    mid_secs = statistics.median(m["seconds"] for m in measured)
    by_nodes = defaultdict(list)
    for m in measured:
        by_nodes[m["nodes"]].append(m)
    shared = [n for n, ms in by_nodes.items() if len(ms) >= MEMBERS
              and abs(n - mid_nodes) <= NODE_WINDOW * max(mid_nodes, 1)]
    if not shared:
        return []
    nodes = min(shared, key=lambda n: (abs(n - mid_nodes), n))
    return sorted(by_nodes[nodes], key=lambda m: abs(m["seconds"] / mid_secs - 1))[:MEMBERS]


def build_slot(vcbranch, slot: dict, clock: run.Clock) -> list[dict]:
    fixed = {k: v for k, v in slot.items() if k not in ("n", "needs", "candidates")}
    per_size = slot.get("candidates", CANDIDATES)
    measured = []
    for seed in range(4 * per_size):
        for n in slot.get("n", [None]):
            spec = dict(fixed, seed=seed) if n is None else dict(fixed, n=n, seed=seed)
            result = measure(vcbranch, spec, clock)
            if result is None:
                continue
            seconds, nodes, rules = result
            if slot.get("needs") and not rules.get(slot["needs"]):
                continue
            measured.append({"spec": spec, "nodes": nodes, "seconds": round(seconds, 3)})
        if seed + 1 >= per_size and (kept := pick(measured)):
            return kept
    raise SystemExit(f"slot {slot}: no {MEMBERS} usable candidates share a node count")


def main() -> None:
    vcbranch = run.import_program()
    clock = run.Clock()
    signal.signal(signal.SIGALRM, _alarm)
    pool = {"workloads": {}, "optima": {}}
    for workload, slots in workloads.SLOTS.items():
        pool["workloads"][workload] = []
        for slot in slots:
            kept = build_slot(vcbranch, slot, clock)
            print(workload, json.dumps([(m["spec"].get("n"), m["spec"]["seed"], m["nodes"],
                                         m["seconds"]) for m in kept]), flush=True)
            pool["workloads"][workload].append(kept)
            for member in kept:
                n, edges = workloads.generate(member["spec"])
                pool["optima"][graphs.digest(n, edges)] = reference.min_cover_size(n, edges)
    pool["built_on"] = {"python": platform.python_version(), "machine": platform.machine()}
    with open(workloads.POOL_FILE, "w") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
