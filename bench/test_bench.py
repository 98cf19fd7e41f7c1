"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import itertools
import random

import pytest

import graphs
import layers
import reference
import run
import tracer as tracing
import workloads

def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _complete(n):
    return list(itertools.combinations(range(n), 2))


def _petersen():
    outer = _cycle(5)
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def _hypercube(dim):
    return [(v, v ^ (1 << b)) for v in range(1 << dim) for b in range(dim) if v < v ^ (1 << b)]


@pytest.mark.parametrize("n, edges, opt", [
    (10, _petersen(), 6), (9, _cycle(9), 5), (5, _complete(5), 4), (16, _hypercube(4), 8),
])
def test_reference_known_optima(n, edges, opt):
    assert reference.min_cover_size(n, edges) == opt


def _exhaustive(n, edges):
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            if reference.is_cover(edges, subset):
                return size


def test_reference_matches_exhaustive_search():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randrange(1, 13)
        edges = graphs.gnp(n, rng.random(), rng)
        assert reference.min_cover_size(n, edges) == _exhaustive(n, edges)


def test_generators_are_seeded_and_simple():
    for n, d in ((44, 6), (40, 5), (62, 3)):
        edges = graphs.regular(n, d, random.Random(3))
        assert edges == graphs.regular(n, d, random.Random(3))
        degree = [0] * n
        for u, v in edges:
            assert u < v
            degree[u] += 1
            degree[v] += 1
        assert set(degree) == {d} and len(set(edges)) == len(edges)
    n, edges = graphs.disjoint_union([(3, [(0, 1), (1, 2)]), (2, [(0, 1)])])
    assert (n, edges) == (5, [(0, 1), (1, 2), (3, 4)])


def test_corpus_is_fixed_by_seed():
    pool = workloads.load_pool()
    for workload in (w["name"] for w in run.SPEC["workloads"]):
        specs = workloads.select(pool, workload, 11)
        assert specs == workloads.select(pool, workload, 11)
        assert len(specs) == len(workloads.SLOTS[workload])


def test_slot_members_share_a_node_count():
    pool = workloads.load_pool()
    for slots in pool["workloads"].values():
        for members in slots:
            assert len({m["nodes"] for m in members}) == 1, members


def test_pool_optima_match_reference():
    pool = workloads.load_pool()
    members = [m["spec"] for slots in pool["workloads"].values() for ms in slots for m in ms]
    assert members
    for spec in members:
        n, edges = workloads.generate(spec)
        assert pool["optima"][graphs.digest(n, edges)] == reference.min_cover_size(n, edges)


def _small_items():
    specs = [
        {"kind": "regular", "d": 4, "n": 22, "seed": 1, "level": 4, "audit": True},
        {"kind": "regular", "d": 6, "n": 24, "seed": 2, "level": 7},
        {"kind": "gnp", "c": 3.0, "n": 60, "seed": 4, "level": 7},
        {"kind": "union", "parts": [10, 12], "seed": 5, "level": 7},
    ]
    return workloads.build_items({"optima": {}}, specs)


def test_traced_pass_gives_the_same_answers():
    vcbranch = run.import_program()
    items = _small_items()
    clock = run.Clock()
    graphs_p = [vcbranch.cli.parse_graph(i.text()) for i in items]
    plain = run.run_pass(vcbranch, items, graphs_p, clock)
    assert all(o.ok for o in plain), [o.error for o in plain]
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(layers.TARGETS)
        assert vcbranch.solver.simplify is vcbranch.reduce.simplify  # both rebound
        assert getattr(vcbranch.solver.simplify, "__wrapped_by_tracer__", False)
        graphs_t = [vcbranch.cli.parse_graph(i.text()) for i in items]
        traced = run.run_pass(vcbranch, items, graphs_t, clock, plain, tracer)
    assert all(o.ok for o in traced), [o.error for o in traced]
    assert [o.answer() for o in traced] == [o.answer() for o in plain]
    spans = tracer.summary()
    assert spans["lp.core"].calls > 0 and spans["solver.solve"].calls == len(items)
    assert tracer.absent == []
    # the ascending search starts at ceil(lambda / 2) and stops at the optimum
    starts = [(vcbranch.Instance(g, 0).lambda2 + 1) // 2 for g in graphs_t]
    assert tracer.counters["solver.k_steps"] == sum(o.optimum - k + 1
                                                    for o, k in zip(traced, starts))
    names = [m["name"] for m in run.SPEC["per_layer"]]
    values = layers.per_layer(tracer, [o.stats for o in traced], names, 1.0, 0.5, 1.0)
    assert set(names) <= set(values)
    assert values["solver.k_steps"] > 0 and values["trace.overhead_s"] == 0.5


def test_tracer_leaves_no_wrapper_bound():
    vcbranch = run.import_program()
    before = {name: getattr(vcbranch.solver, name) for name in ("simplify", "lift_cover")}
    method = vcbranch.graph.Graph.__dict__["find_pattern"]
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(layers.TARGETS)
        assert tracing.bound_wrappers()
    assert tracing.bound_wrappers() == []
    assert {name: getattr(vcbranch.solver, name) for name in before} == before
    assert vcbranch.graph.Graph.__dict__["find_pattern"] is method


def test_absent_target_is_reported():
    run.import_program()
    tracer = tracing.Tracer()
    with tracer:
        tracer.install([tracing.Target("lp.gone", "vcbranch.lp", "_no_such_function"),
                        tracing.Target("graph.gone", "vcbranch.graph", "Graph.no_such_method")])
    assert tracer.absent == ["vcbranch.lp._no_such_function", "vcbranch.graph.Graph.no_such_method"]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [("outer", 0.0, 10.0, -1, "i"), ("inner", 1.0, 4.0, 0, "i"),
                    ("inner", 5.0, 6.0, 0, "i"), ("leaf", 2.0, 3.0, 1, "i")]
    spans = tracer.summary()
    assert spans["outer"].self_s == 6.0
    assert spans["inner"].calls == 2 and spans["inner"].self_s == 3.0
    assert spans["leaf"].self_s == 1.0


def test_end_to_end_gives_every_declared_metric():
    outcome = run.Outcome(_small_items()[0], 0.5, 0.6, nodes=3)
    values = run.end_to_end([0.1, 0.2, 0.3], [[outcome], [outcome]])
    assert {m["name"] for m in run.SPEC["end_to_end"]} == set(values)
    assert values["setup_s"] == 0.2 and values["corpus_s"] == 0.5 and values["nodes"] == 3


def test_run_without_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "tree-l7", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
