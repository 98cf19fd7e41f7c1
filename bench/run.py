#!/usr/bin/env python3
"""vcbranch benchmark: solve a seeded corpus and check every answer.

    python3 bench/run.py --workload tree-l7 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory.  One caller solves the corpus instances one after
another (closed loop, one process, no threads) with ``solve_optimum``.

--trace 0  sets up the corpus several times (import, generate, parse) and
           then repeats untraced corpus passes while another one fits in
           --seconds; it reports the end-to-end metrics.
--trace 1  runs untraced passes for --seconds, then one pass with spans
           around the calls into every layer; it reports the per-layer
           metrics, including the tracing overhead, and writes the spans
           to .bench_out/spans-<workload>-<seed>.jsonl.gz.

Every solve is checked: the cover must be a valid cover of the generated
graph and its size must equal the optimum of the independent reference
solver.  An exception, an audit violation, or an answer that differs from
the first pass counts as a failed solve and does not stop the run.

The last line of standard output is the result object; the line before it
holds per-instance details (optimum, nodes, cover digest) and the
environment.  The workload names and the metric units come from
BENCHMARK.json at the root of the checkout.  Exit status 2 means the
program could not be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import graphs as graphs_mod
import layers
import reference
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SPANS_DIR = ROOT / ".bench_out"
SETUP_REPS = 5

#: Timings are reported in calibrated seconds.  A shared machine's speed
#: drifts by tens of percent within seconds to minutes, so every timing is
#: scaled by CAL_SECONDS / (mean time of a fixed calibration task run just
#: before and just after it).  The task is the benchmark's own reference
#: solver on one graph, so no change to vcbranch can change it.  CAL_SECONDS
#: is about what the task takes on a shared 2-core x86-64 VM with CPython 3.11,
#: where calibrated and wall seconds roughly agree; wall times are in the
#: detail line.
CAL_SECONDS = 0.3


class ProgramMissing(RuntimeError):
    pass


class Clock:
    """Turns wall times into calibrated seconds."""

    def __init__(self):
        self.edges = graphs_mod.regular(60, 5, random.Random(1))
        self.last = self.measure()

    def measure(self) -> float:
        start = time.perf_counter()
        for _ in range(8):  # long enough to see the speed a solve sees
            reference.min_cover_size(60, self.edges)
        return time.perf_counter() - start

    def scale(self, wall: float) -> float:
        """Calibrate a timing that has just ended."""
        before, self.last = self.last, self.measure()
        return wall * CAL_SECONDS * 2 / (before + self.last)


def import_program():
    """Import vcbranch afresh from the checkout's src directory."""
    src = (ROOT / "src").resolve()
    if not (src / "vcbranch" / "__init__.py").is_file():
        raise ProgramMissing("no vcbranch package under src/ of this checkout")
    for name in [n for n in sys.modules if n == "vcbranch" or n.startswith("vcbranch.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    vcbranch = importlib.import_module("vcbranch")
    importlib.import_module("vcbranch.cli")
    if Path(vcbranch.__file__).resolve().parent != src / "vcbranch":
        raise ProgramMissing("vcbranch was imported from outside this checkout")
    return vcbranch


@dataclass
class Outcome:
    item: workloads.Item
    seconds: float                     # calibrated time of the solve
    wall: float
    error: Optional[str] = None
    optimum: Optional[int] = None
    cover: Optional[str] = None        # digest of the sorted cover
    nodes: Optional[int] = None
    rules: dict = field(default_factory=dict)
    stats: Any = None                  # SolveStats, kept in the traced pass only

    @property
    def ok(self) -> bool:
        return self.error is None

    def answer(self) -> tuple:
        return self.optimum, self.cover, self.nodes, self.rules


def cover_digest(cover) -> str:
    return hashlib.sha256(",".join(map(str, sorted(cover))).encode()).hexdigest()[:16]


def check(item: workloads.Item, opt: int, cover, stats) -> Optional[str]:
    if len(cover) != opt:
        return f"reported optimum {opt} but cover has {len(cover)} vertices"
    if not set(cover) <= set(range(item.n)):
        return "cover names vertices that are not in the graph"
    if not reference.is_cover(item.edges, cover):
        return "cover leaves an edge uncovered"
    if opt != item.optimum:
        return f"optimum {opt} differs from the reference optimum {item.optimum}"
    if stats.audit_violations:
        return f"{stats.audit_violations} audit violations"
    return None


def solve(vcbranch, item: workloads.Item, graph, clock: Clock,
          keep_stats: bool = False) -> Outcome:
    cfg = vcbranch.SolverConfig(level=item.level, audit=item.audit)
    start = time.perf_counter()
    try:
        opt, cover, stats = vcbranch.solve_optimum(graph, cfg)
    except Exception as exc:  # every failure is counted; the run goes on
        wall = time.perf_counter() - start
        return Outcome(item, clock.scale(wall), wall, f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    return Outcome(item, clock.scale(wall), wall, check(item, opt, cover, stats), opt,
                   cover_digest(cover), stats.nodes, dict(sorted(stats.rule_counts.items())),
                   stats if keep_stats else None)


def run_pass(vcbranch, items, graphs, clock: Clock, first: Optional[list[Outcome]] = None,
             tracer: Optional[tracing.Tracer] = None) -> list[Outcome]:
    """Solve every instance once; answers must match the first pass's."""
    outcomes = []
    for i, (item, graph) in enumerate(zip(items, graphs)):
        if tracer is not None:
            tracer.scratch.clear()
            tracer.instance = item.id
        out = solve(vcbranch, item, graph, clock, keep_stats=tracer is not None)
        if out.ok and first is not None and first[i].ok and out.answer() != first[i].answer():
            out.error = "answer differs from the first pass"
        outcomes.append(out)
    if tracer is not None:
        tracer.scratch.clear()
    return outcomes


def setup(pool: dict, workload: str, seed: int, clock: Clock):
    """Import, generate and parse SETUP_REPS times; keep the last result.

    Returns the calibrated time of every repetition with the result."""
    specs = workloads.select(pool, workload, seed)
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        vcbranch = import_program()
        items = workloads.build_items(pool, specs)
        graphs = [vcbranch.cli.parse_graph(item.text()) for item in items]
        times.append(clock.scale(time.perf_counter() - start))
    return vcbranch, items, graphs, times


def timed_passes(vcbranch, items, graphs, clock: Clock,
                 seconds: float) -> list[list[Outcome]]:
    """Repeat passes while the next one, if it takes as long as the last,
    still ends within ``seconds``; at least one pass runs."""
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(vcbranch, items, graphs, clock, passes[0] if passes else None))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def pass_seconds(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


def corpus_seconds(passes: list[list[Outcome]]) -> float:
    """Median time of a whole pass."""
    return statistics.median(pass_seconds(p) for p in passes)


def instance_seconds(passes: list[list[Outcome]]) -> list[float]:
    """Median time of each instance over the passes."""
    return [statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0]))]


def end_to_end(setup_times: list[float], passes: list[list[Outcome]]) -> dict[str, float]:
    solves = [o for p in passes for o in p]
    return {
        "setup_s": statistics.median(setup_times),
        "corpus_s": corpus_seconds(passes),
        "solve_s_p50": statistics.median(instance_seconds(passes)),
        "nodes": sum(o.nodes or 0 for o in passes[0]),
        "correct_rate": sum(o.ok for o in solves) / len(solves),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(vcbranch, items, passes, clock: Clock):
    """One traced pass (with a traced parse) after the untraced ones."""
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(layers.TARGETS)
        graphs = []
        for item in items:
            tracer.instance = item.id
            graphs.append(vcbranch.cli.parse_graph(item.text()))
        outcomes = run_pass(vcbranch, items, graphs, clock, passes[0], tracer)
    leftover = tracing.bound_wrappers()
    if leftover:
        raise RuntimeError(f"tracer left wrappers bound: {leftover}")
    names = [m["name"] for m in SPEC["per_layer"]]
    scale = pass_seconds(outcomes) / sum(o.wall for o in outcomes)
    values = layers.per_layer(tracer, [o.stats for o in outcomes if o.ok], names,
                              pass_seconds(outcomes), corpus_seconds(passes), scale)
    return outcomes, values, tracer


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def instance_records(outcomes: list[Outcome]) -> list[dict]:
    return [{"id": o.item.id, "spec": o.item.spec, "optimum": o.optimum,
             "reference": o.item.optimum, "nodes": o.nodes, "cover": o.cover,
             "rules": o.rules, "seconds": round(o.seconds, 6), "wall": round(o.wall, 6),
             "error": o.error}
            for o in outcomes]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="vcbranch benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pool = workloads.load_pool()
        clock = Clock()
        vcbranch, items, graphs, setup_times = setup(pool, args.workload, args.seed, clock)
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    passes = timed_passes(vcbranch, items, graphs, clock, args.seconds)
    solves = [o for p in passes for o in p]
    detail = {"workload": args.workload, "seed": args.seed, "env": environment(),
              "passes": len(passes), "solve_samples": sum(len(p) for p in passes),
              "pass_seconds": [round(pass_seconds(p), 6) for p in passes],
              "pass_wall_seconds": [round(sum(o.wall for o in p), 6) for p in passes]}
    if args.trace:
        outcomes, values, tracer = traced(vcbranch, items, passes, clock)
        declared = SPEC["per_layer"]
        solves += outcomes
        detail["absent_targets"] = tracer.absent
        detail["instances"] = instance_records(outcomes)
        spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.dump(spans)
        detail["spans_file"] = str(spans.relative_to(ROOT))
    else:
        values = end_to_end(setup_times, passes)
        declared = SPEC["end_to_end"]
        detail["setup_seconds"] = [round(t, 6) for t in setup_times]
        detail["instances"] = instance_records(passes[0])
    failures = [{"id": o.item.id, "error": o.error} for o in solves if not o.ok]
    detail["failures"] = failures[:20]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(solves),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
