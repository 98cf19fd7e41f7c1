"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import math

import pytest

from vcbranch.lp import Instance, lp_basic_solution, minsurp
from vcbranch.reduce import simplify
from vcbranch.branching import SIMPLE_LEVEL_PARAMS, val
from vcbranch.solver import SolverConfig, solve_decision, solve_optimum
from vcbranch.verify import MAXIS_RATES, brute_force_vc
from vcbranch.constraints import combine_rate, evaluate_constraints
from vcbranch.cli import gnp, random_regular

from oracle_utils import (
    NAMED_EXPECTED,
    exhaustive_lp_weight2,
    exhaustive_minsurp,
    is_cover,
    named_corpus,
    random_corpus,
    replay_steps,
)

CORPUS = random_corpus(500)


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_oracle_equivalence():
    checked = 0
    for seed, g in CORPUS:
        opt, _ = brute_force_vc(g)
        got, cover, _ = solve_optimum(g)
        assert got == opt, f"seed {seed}: solver {got} != oracle {opt}"
        assert is_cover(g, cover) and len(cover) == opt
        checked += 1
    assert checked >= 500
    for name, g in named_corpus():
        opt, _ = brute_force_vc(g)
        if name in NAMED_EXPECTED:
            assert opt == NAMED_EXPECTED[name], name
        got, cover, _ = solve_optimum(g)
        assert got == opt and is_cover(g, cover) and len(cover) == opt
    _report(1, f"solve_optimum == brute force on {checked} random + "
               f"{len(named_corpus())} named graphs, covers valid")


def test_criterion_2_lp_correctness():
    checked = 0
    for seed in range(200):
        n = 4 + seed % 7  # sizes 4..10
        g = gnp(n, (0.15, 0.3, 0.45, 0.6)[seed % 4], 1000 + seed)
        sol = lp_basic_solution(g)
        assert sol.weight2 == exhaustive_lp_weight2(g), seed
        zero = sol.zero_set()
        surp = g.surplus(zero) if zero else 0
        assert surp == sol.weight2 - g.n, seed  # surp(zero-set) = 2*lambda - n
        checked += 1
    assert checked == 200
    _report(2, "LP weight matches exhaustive {0,1/2,1}^n minimum on 200 graphs; "
               "zero-set surplus = 2*lambda - n")


def test_criterion_3_minsurp_correctness():
    checked = 0
    for seed in range(200):
        n = 5 + seed % 8  # sizes 5..12
        g = gnp(n, (0.2, 0.35, 0.5)[seed % 3], 2000 + seed)
        cert = minsurp(g)
        assert cert.surplus == exhaustive_minsurp(g), seed
        assert g.surplus(cert.indset) == cert.surplus, seed
        checked += 1
    assert checked == 200
    _report(3, "minsurp matches brute force over all non-empty indsets "
               "on 200 graphs (n <= 12), certificates recompute")


def _vc(g):
    return brute_force_vc(g)[0] if g.n else 0


def test_criterion_4_reduction_safety():
    steps_checked = 0
    kites = 0
    corpus = [g for _, g in CORPUS[:250]] + [g for _, g in named_corpus()]
    for g in corpus:
        inst, trace = simplify(Instance(g, g.n))
        out = inst.graph
        if out.n:
            assert out.min_degree() >= 3
            assert out.find_pattern() is None
            assert minsurp(out).surplus >= 2
        for gb, step, ga in replay_steps(g, trace, inst.graph):
            # feasibility equivalence, exactly: VC(G) = VC(G') + dk
            assert _vc(gb) == _vc(ga) + step.dk
            # mu' <= mu in exact half-integers: 2*dk >= lambda2 - lambda2'
            dl2 = Instance(gb, 0).lambda2 - Instance(ga, 0).lambda2
            assert 2 * step.dk - dl2 >= 0
            if step.kind == "P3":
                u, x = step.funnel
                is_kite = (gb.degree(u) == 3 and any(
                    len(gb.neighbors(y) & gb.neighbors(u)) == 2
                    for y in gb.neighbors(u)))
                if is_kite and minsurp(gb).surplus >= 1:
                    kites += 1
                    assert step.dk >= 2
                    assert 2 * step.dk - dl2 >= 1  # dmu >= 1/2
                    if len(step.shared) == 1:
                        assert step.dk == 2
            steps_checked += 1
    assert steps_checked >= 200
    _report(4, f"{steps_checked} rule applications: exact feasibility "
               f"equivalence, mu monotone, postconditions hold; "
               f"{kites} kite folds show dk >= 2 and dmu >= 1/2")


def test_criterion_5_drop_audit():
    total_records = 0
    for seed, g in CORPUS:
        opt, _ = brute_force_vc(g)
        for level in (4, 5, 6, 7):
            params = SIMPLE_LEVEL_PARAMS[level]
            for k in (opt, max(opt - 1, 0)):
                cfg = SolverConfig(level=level, audit=True)
                r = solve_decision(Instance(g, k), cfg=cfg)
                for rec in r.stats.audit_records:
                    assert not rec.violation, (seed, level, rec)
                    assert val(params, rec.realized) <= 1 + 1e-9, (seed, level, rec)
                total_records += len(r.stats.audit_records)
                assert r.stats.selector.fallbacks == 0
    assert total_records >= 50
    _report(5, f"zero violations across {total_records} audited branch nodes, "
               f"all four levels; every node has sum e^(-a*dmu-b*dk) <= 1")


def test_criterion_6_constraint_certification():
    labels = 0
    for profile in ("simple", "advanced-4", "advanced-5", "advanced-6",
                    "advanced-7"):
        report = evaluate_constraints(profile)
        assert report.passed, report.render()
        for row in report.rows:
            if row.slack is not None:
                assert row.slack >= -1e-9, row
                labels += 1
    tight = {r.label: r for r in evaluate_constraints("advanced-7").rows}["7-2"]
    assert abs(tight.value - 1.0) <= 1e-4
    _report(6, f"{labels} inequalities certified at the published constants, "
               f"slack >= -1e-9; (7-2) = {tight.value:.7f} within 1e-4 of tight")


def test_criterion_7_combiner_reproduction():
    deg3 = math.exp(combine_rate(math.log(2.3146), 0.0, math.log(MAXIS_RATES[3])))
    assert abs(deg3 - 1.14416) <= 1e-4
    deg7 = math.exp(combine_rate(0.20199, 0.160637, math.log(MAXIS_RATES[6])))
    assert abs(deg7 - 1.2575) <= 1e-4
    final = math.exp(combine_rate(0.01266, 0.221723, math.log(MAXIS_RATES[7])))
    gap = final - 1.25284
    assert 5e-4 < gap < 3e-3  # the documented ~1e-3 discrepancy, not asserted away
    rows = {r.label: r for r in evaluate_constraints("advanced-7").rows}
    assert "1.25284" in rows["combine/final-recomputed"].note
    _report(7, f"combiner gives {deg3:.5f} (1.14416) and {deg7:.5f} (1.2575); "
               f"final recomputes to {final:.5f}, gap {gap:+.5f} vs printed "
               f"1.25284 documented, not asserted")


def test_criterion_8_scaling_smoke():
    bound = math.log(1.2575) + 0.15
    worst = 0.0
    runs = []
    for n, seed in ((36, 1), (36, 2), (44, 5)):
        g = random_regular(n, 6, seed)
        cfg = SolverConfig(level=7, audit=True)
        opt, cover, stats = solve_optimum(g, cfg)
        assert is_cover(g, cover) and len(cover) == opt
        assert stats.audit_violations == 0
        rate = math.log(max(stats.nodes, 1)) / opt
        worst = max(worst, rate)
        runs.append((n, seed, opt, stats.nodes, rate))
        assert rate <= bound, runs[-1]
    _report(8, "level-7 on seeded 6-regular graphs: " + "; ".join(
        f"n={n} seed={s} k*={o} nodes={nd} log-rate={r:.3f}"
        for n, s, o, nd, r in runs) + f" (bound {bound:.3f})")
