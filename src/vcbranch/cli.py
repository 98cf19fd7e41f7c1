"""Batch front-end: file ingestion, generators, solve/verify/audit commands.

Graph files use the PACE-style header "p td <n> <m>" with 1-indexed edge
lines; 'c' lines are comments.  A --format flag admits DIMACS "p edge"
files with "e u v" edge lines.  Covers are printed in the input file's
1-based vertex numbers.  Exit codes: 0 success, 1 the decision was
answered infeasible, 2 usage or input error (bad arguments, unparsable
input, an input too large for the oracle), 3 node budget exhausted, 4
internal error, 5 the audit found violations.  Every fault of the input
itself is an input error (exit 2) naming its line: bytes that are not
UTF-8 (one leading byte-order mark is skipped), a malformed header or
edge line, a header or edge field that is not an ASCII decimal integer
("1 +2" and Arabic-Indic digits are rejected), a header n above
MAX_VERTICES (1,000,000), an endpoint out of range, a self-loop, or a
wrong edge count.  The limit is checked from the header alone, before any
per-vertex memory is allocated: each vertex costs under 1 kB (optimize on
"p td 200000 0" peaks at 161 MB RSS).  gen refuses an --n above the same
limit before it generates anything.
"""

from __future__ import annotations

import argparse
import codecs
import hashlib
import json
import random
import sys
from typing import Iterable, Optional

from .graph import Graph, complete, cycle, star
from .lp import Instance
from .reduce import simplify
from .solver import (
    BudgetExhausted,
    SolveStats,
    SolverConfig,
    solve_decision,
    solve_optimum,
)
from .verify import audit_trace, brute_force_vc


#: the largest vertex count a graph file's header may declare
MAX_VERTICES = 1_000_000


class UsageError(ValueError):
    """An argument or input error: exit 2.  Any other error, a ValueError
    raised while solving included, is internal: exit 4."""


class ParseError(UsageError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _decimal(field: str) -> int:
    """An ASCII decimal integer field; int() alone also takes "+2", "1_0"
    and non-ASCII digits."""
    digits = field[1:] if field[:1] == "-" else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(field)
    return int(field)


def _decode_input(data: bytes) -> str:
    """Graph file bytes as text: UTF-8 after one leading byte-order mark, if
    any, with universal newlines (as text mode reads them); bytes that are
    not UTF-8 are an input error at the line that holds the first of them."""
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("input is not UTF-8 text", data.count(b"\n", 0, exc.start) + 1) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_graph(text: str, fmt: str = "pace") -> Graph:
    """Parse "p td n m" (pace) or "p edge n m" (dimacs) graph text.

    Lines end only at "\n" and fields are separated only by ASCII spaces
    and tabs, so any other control or non-ASCII character in a header or
    edge line is an error at that line."""
    if fmt not in ("pace", "dimacs"):
        raise ValueError(f"unknown format {fmt!r}")
    n = m = None
    adj: dict[int, set[int]] = {}
    edges = 0  # edge lines
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the text's final newline ends its last line
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip(" \t")
        if not line or line.startswith("c"):
            continue
        parts = [f for f in line.replace("\t", " ").split(" ") if f]
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            want = "td" if fmt == "pace" else "edge"
            if len(parts) != 4 or parts[1] != want:
                raise ParseError(f"malformed header (expected 'p {want} <n> <m>')", lineno)
            try:
                n, m = _decimal(parts[2]), _decimal(parts[3])
            except ValueError:
                raise ParseError("non-integer header fields", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("negative header fields", lineno)
            if n > MAX_VERTICES:
                raise ParseError(f"header declares {n} vertices; the maximum is {MAX_VERTICES}",
                                 lineno)
            adj = {v: set() for v in range(n)}
            continue
        if n is None:
            raise ParseError("edge line before problem line", lineno)
        if fmt == "dimacs":
            if parts[0] != "e" or len(parts) != 3:
                raise ParseError("malformed edge line (expected 'e u v')", lineno)
            parts = parts[1:]
        elif len(parts) != 2:
            raise ParseError("malformed edge line (expected 'u v')", lineno)
        try:
            u, v = _decimal(parts[0]), _decimal(parts[1])
        except ValueError:
            raise ParseError("non-integer edge endpoints", lineno) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"endpoint out of range 1..{n}", lineno)
        if u == v:
            raise ParseError("self-loop", lineno)
        adj[u - 1].add(v - 1)  # duplicates tolerated; the sets dedupe
        adj[v - 1].add(u - 1)
        edges += 1
    if n is None:
        raise ParseError("missing problem line", len(lines) or 1)
    if edges != m:
        raise ParseError(f"expected {m} edge lines, found {edges}", len(lines) or 1)
    g = Graph()
    g._adj = adj
    g._next_id = n
    return g


def render_graph(g: Graph, fmt: str = "pace") -> str:
    verts = g.vertices()
    index = {v: i + 1 for i, v in enumerate(verts)}
    edges = g.edges()
    head = "p td" if fmt == "pace" else "p edge"
    prefix = "" if fmt == "pace" else "e "
    lines = [f"{head} {len(verts)} {len(edges)}"]
    lines.extend(f"{prefix}{index[u]} {index[v]}" for u, v in edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _grid(rows: int, cols: int) -> Graph:
    g = Graph(vertices=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def circulant(n: int, offsets: Iterable[int]) -> Graph:
    if n < 1:
        raise ValueError(f"circulant needs n >= 1, got {n}")
    g = Graph(vertices=range(n))
    for offset in offsets:
        d = offset % n
        if d == 0:
            raise ValueError(f"offset {offset} would create self-loops for n = {n}")
        for i in range(n):
            g.add_edge(i, (i + d) % n)
    return g


def petersen() -> Graph:
    g = Graph(vertices=range(10))
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)        # outer cycle
        g.add_edge(5 + i, 5 + (i + 2) % 5)  # inner pentagram
        g.add_edge(i, 5 + i)              # spokes
    return g


def hypercube(dim: int) -> Graph:
    g = Graph(vertices=range(1 << dim))
    for v in range(1 << dim):
        for bit in range(dim):
            w = v ^ (1 << bit)
            if v < w:
                g.add_edge(v, w)
    return g


NAMED_GRAPHS = {
    "petersen": petersen,
    "q4": lambda: hypercube(4),
    "c4": lambda: cycle(4), "c5": lambda: cycle(5), "c6": lambda: cycle(6),
    "c7": lambda: cycle(7), "c8": lambda: cycle(8), "c9": lambda: cycle(9),
    "k2": lambda: complete(2), "k3": lambda: complete(3),
    "k4": lambda: complete(4), "k5": lambda: complete(5),
    "k13": lambda: star(3),
    "c9_12": lambda: circulant(9, (1, 2)),
    "c11_123": lambda: circulant(11, (1, 2, 3)),
    "c13_123": lambda: circulant(13, (1, 2, 3)),
    "grid2x4": lambda: _grid(2, 4),
    "grid3x3": lambda: _grid(3, 3),
    "grid3x4": lambda: _grid(3, 4),
}


def gnp(n: int, p: float, seed: int) -> Graph:
    if n < 0:
        raise ValueError(f"gnp needs n >= 0, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"gnp needs 0 <= p <= 1, got {p}")
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Pairing-model d-regular graph (sequential matching, restart on dead end)."""
    if n * d % 2 != 0 or d >= max(n, 1) or d < 0:
        raise ValueError(f"no {d}-regular graph on {n} vertices")
    rng = random.Random(seed)
    for _ in range(1000):
        stubs = [v for v in range(n) for _ in range(d)]
        edges: set[tuple[int, int]] = set()
        stuck = False
        while stubs and not stuck:
            for _ in range(500):
                i, j = rng.randrange(len(stubs)), rng.randrange(len(stubs))
                u, v = stubs[i], stubs[j]
                if i != j and u != v and (min(u, v), max(u, v)) not in edges:
                    break
            else:
                stuck = True
                continue
            for idx in sorted((i, j), reverse=True):
                stubs.pop(idx)
            edges.add((min(u, v), max(u, v)))
        if not stuck:
            g = Graph(vertices=range(n))
            for u, v in sorted(edges):
                g.add_edge(u, v)
            return g
    raise RuntimeError("regular graph sampling failed to produce a simple graph")


def generate(kind: str, params: dict, seed: int = 0) -> Graph:
    if kind == "gnp":
        return gnp(int(params["n"]), float(params["p"]), seed)
    if kind == "regular":
        return random_regular(int(params["n"]), int(params["d"]), seed)
    if kind == "circulant":
        return circulant(int(params["n"]), params["offsets"])
    if kind == "named":
        name = params["name"]
        if name not in NAMED_GRAPHS:
            raise ValueError(f"unknown named graph {name!r}; "
                             f"choose from {sorted(NAMED_GRAPHS)}")
        return NAMED_GRAPHS[name]()
    raise ValueError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# command driver
# ---------------------------------------------------------------------------

def _stats_record(stats: SolveStats) -> dict:
    return {
        "nodes": stats.nodes,
        "max_depth": stats.max_depth,
        "rule_counts": dict(sorted(stats.rule_counts.items())),
        "audit_records": len(stats.audit_records),
        "audit_violations": stats.audit_violations,
        "selector_cases": dict(sorted(stats.selector.cases.items())),
        "selector_fallbacks": stats.selector.fallbacks,
        "component_nodes": stats.component_nodes,
        "wall_ms": round(stats.wall_time * 1000, 3),
    }


class _Output:
    def __init__(self, as_json: bool, stream):
        self.as_json = as_json
        self.stream = stream

    def emit(self, rec: str, text: str, **payload) -> None:
        if self.as_json:
            record = {"record": rec}
            record.update(payload)
            self.stream.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            self.stream.write(text + "\n")


def _load_graph(args, out: _Output) -> Graph:
    if args.input == "-":
        text = _decode_input(sys.stdin.buffer.read())
        name = "<stdin>"
    else:
        with open(args.input, "rb") as fh:
            text = _decode_input(fh.read())
        name = args.input
    g = parse_graph(text, args.format)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    out.emit("input", f"c input {name} n={g.n} m={g.m} digest={digest}",
             name=name, n=g.n, m=g.m, digest=digest)
    return g


def _config(args, out: _Output) -> SolverConfig:
    level = int(args.algorithm.removeprefix("level"))
    budget = args.budget
    if budget is not None and budget < 0:
        raise UsageError(f"--budget must be a non-negative integer, got '{budget}'")
    out.emit("config",
             f"c config command={args.command} algorithm={args.algorithm} budget={budget}",
             command=args.command, algorithm=args.algorithm, budget=budget)
    return SolverConfig(level=level, node_budget=budget,
                        audit=getattr(args, "audit_on", False))


def _file_numbers(cover: Iterable[int]) -> list[int]:
    """A cover in the input file's 1-based numbers (parse_graph maps u to u - 1)."""
    return sorted(v + 1 for v in cover)


def _emit_solve(out: _Output, result, k: int) -> int:
    cover = _file_numbers(result.cover) if result.cover is not None else None
    if result.feasible:
        out.emit("result", f"feasible k={k} cover={','.join(map(str, cover))}",
                 feasible=True, k=k, cover=cover, stats=_stats_record(result.stats))
        return 0
    out.emit("result", f"infeasible k={k}", feasible=False, k=k, cover=None,
             stats=_stats_record(result.stats))
    return 1


def run_command(argv: Optional[list[str]] = None, stdout=None) -> int:
    """Run one CLI command; returns the exit code."""
    stdout = stdout or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = _Output(args.json, stdout)
    try:
        return args.handler(args, out)
    except BudgetExhausted as exc:
        out.emit("error", f"budget exhausted after {exc.stats.nodes} nodes",
                 error="budget", nodes=exc.stats.nodes)
        return 3
    except (UsageError, OSError) as exc:
        out.emit("error", f"error: {exc}", error=str(exc))
        return 2
    except Exception as exc:
        kind = type(exc).__name__
        out.emit("error", f"internal error: {kind}: {exc}",
                 error="internal", exception=kind, message=str(exc))
        return 4


def _cmd_solve(args, out: _Output) -> int:
    g = _load_graph(args, out)
    cfg = _config(args, out)
    result = solve_decision(Instance(g, args.k), cfg=cfg)
    return _emit_solve(out, result, args.k)


def _cmd_optimize(args, out: _Output) -> int:
    g = _load_graph(args, out)
    cfg = _config(args, out)
    opt, cover, stats = solve_optimum(g, cfg)
    cover = _file_numbers(cover)
    out.emit("result", f"optimum {opt} cover={','.join(map(str, cover))}",
             optimum=opt, cover=cover, stats=_stats_record(stats))
    return 0


def _cmd_verify_constants(args, out: _Output) -> int:
    from .constraints import evaluate_constraints  # no solve needs the certifier

    profiles = (["simple", "advanced-4", "advanced-5", "advanced-6", "advanced-7"]
                if args.profile == "all" else [args.profile])
    ok = True
    for profile in profiles:
        report = evaluate_constraints(profile)
        ok &= report.passed
        if args.json:
            for row in report.rows:
                out.emit("constraint", "", profile=profile, **row.record())
            out.emit("profile", "", profile=profile, passed=report.passed)
        else:
            out.emit("report", report.render())
    return 0 if ok else 1


def _cmd_audit(args, out: _Output) -> int:
    g = _load_graph(args, out)
    args.audit_on = True
    cfg = _config(args, out)
    result = solve_decision(Instance(g, args.k), cfg=cfg)
    for rec in result.stats.audit_records:
        out.emit("audit",
                 f"node={rec.node_id} rule={rec.rule} claimed={list(rec.claimed)} "
                 f"realized={list(rec.realized)} val={rec.val_realized:.6f} "
                 f"violation={rec.violation} shortfalls={rec.shortfalls}",
                 node=rec.node_id, rule=rec.rule,
                 claimed=[list(p) for p in rec.claimed],
                 realized=[list(p) for p in rec.realized],
                 val_claimed=rec.val_claimed, val_realized=rec.val_realized,
                 violation=rec.violation, shortfalls=rec.shortfalls)
    summary = audit_trace(result.stats.audit_records)
    out.emit("summary", summary.render(), total=summary.total,
             violations=summary.violations, shortfalls=summary.shortfalls,
             per_rule={k: list(v) for k, v in sorted(summary.per_rule.items())})
    code = _emit_solve(out, result, args.k)
    return code if summary.clean else 5


def _cmd_oracle(args, out: _Output) -> int:
    g = _load_graph(args, out)
    try:
        opt, cover = brute_force_vc(g)
    except ValueError as exc:  # the oracle's size guard
        raise UsageError(str(exc)) from None
    cover = _file_numbers(cover)
    out.emit("result", f"optimum {opt} cover={','.join(map(str, cover))}",
             optimum=opt, cover=cover)
    return 0


def _cmd_reduce(args, out: _Output) -> int:
    g = _load_graph(args, out)
    k = args.k if args.k is not None else 0
    inst, trace = simplify(Instance(g, k))
    rendered = render_graph(inst.graph, args.format)
    out.emit("reduced",
             rendered.rstrip("\n") + f"\nc reduced k={inst.k} dk={trace.total_dk}",
             n=inst.graph.n, m=inst.graph.m, k=inst.k, dk=trace.total_dk,
             graph=rendered)
    if args.emit_trace:
        for step in trace.steps:
            # file numbers, as for covers; a created vertex y prints as y + 1 > n
            line = step._replace(removed=tuple(v + 1 for v in step.removed),
                                 created=None if step.created is None else step.created + 1
                                 ).serialize()
            out.emit("trace", line, step=line)
    return 0


_GEN_FLAGS = {"gnp": ("n", "p"), "regular": ("n", "d"),
              "circulant": ("n", "offsets"), "named": ("name",)}


def _cmd_gen(args, out: _Output) -> int:
    flags = _GEN_FLAGS[args.kind]
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise UsageError(f"gen {args.kind} needs {' and '.join(missing)}")
    if "n" in flags and args.n > MAX_VERTICES:
        raise UsageError(f"gen needs --n <= {MAX_VERTICES}, got {args.n}")
    params = {flag: getattr(args, flag) for flag in flags}
    if args.kind == "circulant":
        try:
            params["offsets"] = [int(x) for x in args.offsets.split(",")]
        except ValueError:
            raise UsageError("--offsets must be comma-separated integers, "
                             f"got {args.offsets!r}") from None
    try:
        g = generate(args.kind, params, args.seed)
    except ValueError as exc:  # parameters no graph of the kind has
        raise UsageError(str(exc)) from None
    out.emit("graph", render_graph(g, args.format).rstrip("\n"),
             n=g.n, m=g.m, graph=render_graph(g, args.format))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcbranch",
        description="branch-and-reduce vertex cover solver and measure auditor")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="graph file, or - for stdin")
            p.add_argument("--format", choices=("pace", "dimacs"), default="pace")
        p.add_argument("--json", action="store_true",
                       help="line-delimited machine-readable records")

    def solver_flags(p):
        p.add_argument("--algorithm", default="level7",
                       choices=("level4", "level5", "level6", "level7"))
        p.add_argument("--budget", type=int, default=None,
                       help="branch-node budget, a non-negative integer (default: none)")

    p = sub.add_parser("solve", help="decide a cover of size <= k")
    common(p)
    solver_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("optimize", help="find the minimum cover size")
    common(p)
    solver_flags(p)
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("verify-constants", help="certify the measure inequalities")
    common(p, needs_input=False)
    p.add_argument("--profile", default="all",
                   choices=("all", "simple", "advanced-4", "advanced-5",
                            "advanced-6", "advanced-7"))
    p.set_defaults(handler=_cmd_verify_constants)

    p = sub.add_parser("audit", help="solve with drop instrumentation")
    common(p)
    solver_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("oracle", help="brute-force optimum (small graphs)")
    common(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("reduce", help="apply the preprocessing rules only")
    common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--emit-trace", action="store_true")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("gen", help="generate a graph")
    p.add_argument("kind", choices=("gnp", "regular", "circulant", "named"))
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--offsets", help="comma-separated circulant offsets")
    p.add_argument("--name", help="named graph (e.g. petersen, q4, c9_12)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("pace", "dimacs"), default="pace")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_gen)

    return parser


def main() -> None:
    sys.exit(run_command())
