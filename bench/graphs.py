"""Seeded graph generators owned by the benchmark.

They do not import vcbranch, so a change to the program cannot change the
corpus.  A graph is a vertex count and a sorted list of 0-based edges; PACE
text is what the benchmark hands to the program.
"""

from __future__ import annotations

import hashlib
import random

Edges = list[tuple[int, int]]


def regular(n: int, d: int, rng: random.Random) -> Edges:
    """Simple d-regular graph by sequential pairing of stubs.

    Two random stubs are paired when they form a new non-loop edge; a
    pairing that gets stuck starts over.
    """
    if n * d % 2 or not 0 <= d < n:
        raise ValueError(f"no {d}-regular graph on {n} vertices")
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        edges: set[tuple[int, int]] = set()
        while stubs:
            for _ in range(100):
                i, j = rng.randrange(len(stubs)), rng.randrange(len(stubs))
                u, v = min(stubs[i], stubs[j]), max(stubs[i], stubs[j])
                if u != v and (u, v) not in edges:
                    break
            else:
                break
            edges.add((u, v))
            for idx in (max(i, j), min(i, j)):
                stubs[idx] = stubs[-1]
                stubs.pop()
        if not stubs:
            return sorted(edges)


def gnp(n: int, p: float, rng: random.Random) -> Edges:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def disjoint_union(parts: list[tuple[int, Edges]]) -> tuple[int, Edges]:
    """Union of (n, edges) parts, relabelled into consecutive id blocks."""
    offset, edges = 0, []
    for n, part in parts:
        edges.extend((u + offset, v + offset) for u, v in part)
        offset += n
    return offset, sorted(edges)


def pace_text(n: int, edges: Edges) -> str:
    lines = [f"p td {n} {len(edges)}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def digest(n: int, edges: Edges) -> str:
    """Content key of a graph, independent of edge order."""
    return hashlib.sha256(pace_text(n, sorted(edges)).encode()).hexdigest()[:16]
