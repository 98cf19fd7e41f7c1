import math

import pytest

from vcbranch.graph import Graph, complete, cycle
from vcbranch.lp import Instance
from vcbranch.branching import SIMPLE_LEVEL_PARAMS
from vcbranch.solver import SolverConfig, solve_decision
from vcbranch.verify import (
    AGVC_RATE,
    MAXIS_RATES,
    audit_trace,
    brute_force_vc,
    make_audit_record,
)
from vcbranch.constraints import combine_rate, evaluate_constraints, triple_point_residual
from vcbranch.cli import NAMED_GRAPHS, PROFILES, gnp

from oracle_utils import exhaustive_vc, is_cover

@pytest.mark.parametrize("profile", PROFILES)
def test_profiles_pass(profile):
    report = evaluate_constraints(profile)
    assert report.passed, report.render()
    for row in report.rows:
        if row.slack is not None:
            assert row.slack >= -1e-9


def test_example_rows():
    simple = {r.label: r for r in evaluate_constraints("simple").rows}
    # e^{-a-3b} + e^{-a-5b} at the level-4 constants has visible slack
    assert abs(simple["level4/seq-13-15"].value - 0.90257) < 2e-4
    adv7 = {r.label: r for r in evaluate_constraints("advanced-7").rows}
    assert abs(adv7["7-2"].value - 1.0) <= 1e-4  # the deliberately tight row
    adv5 = {r.label: r for r in evaluate_constraints("advanced-5").rows}
    assert adv5["maxis5/w3"].value == 0.5093
    assert adv5["maxis5/w4"].value == 0.8243


def test_perturbation_breaks_certification():
    report = evaluate_constraints("simple", overrides={"a4": 0.71808 + 0.05})
    assert not report.passed
    with pytest.raises(ValueError):
        evaluate_constraints("simple", overrides={"bogus": 1.0})
    with pytest.raises(ValueError):
        evaluate_constraints("no-such-profile")


def test_combine_rate_examples():
    d = combine_rate(math.log(AGVC_RATE), 0.0, math.log(MAXIS_RATES[3]))
    assert abs(math.exp(d) - 1.14416) <= 1e-4
    d = combine_rate(0.20199, 0.160637, math.log(MAXIS_RATES[6]))
    assert abs(math.exp(d) - 1.2575) <= 1e-4
    assert combine_rate(0.0, 0.3, 0.2) == pytest.approx(0.3)  # d = 2cb/2c = b
    with pytest.raises(ValueError):
        combine_rate(0.0, 0.1, 0.0)


def test_final_constant_gap_documented():
    recomputed = math.exp(combine_rate(0.01266, 0.221723, math.log(MAXIS_RATES[7])))
    assert abs(recomputed - 1.2541) < 1e-3        # what the formula yields
    assert 5e-4 < recomputed - 1.25284 < 3e-3     # the published value differs
    rows = {r.label: r for r in evaluate_constraints("advanced-7").rows}
    row = rows["combine/final-recomputed"]
    assert row.kind == "value" and "1.25284" in row.note


def test_combine_rate_monotone():
    import random
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = rng.uniform(0.01, 1), rng.uniform(0, 1), rng.uniform(0.01, 1)
        assert combine_rate(a, b, c + 0.05) >= combine_rate(a, b, c)
        assert combine_rate(a, b + 0.05, c) >= combine_rate(a, b, c)


def test_triple_point():
    assert triple_point_residual() <= 1e-3


def test_audit_records():
    p = SIMPLE_LEVEL_PARAMS[4]
    good = make_audit_record(p, 1, "split", ((0.5, 1), (1.5, 4)),
                             ((1.0, 2), (2.0, 5)))
    assert not good.violation and good.shortfalls == 0
    bad = make_audit_record(p, 2, "split", ((0.5, 1), (1.5, 4)),
                            ((0.0, 1), (1.5, 4)))
    assert bad.violation and bad.shortfalls == 1
    # the second child drops less mu than claimed, yet val(realized) <= 1:
    # a shortfall is counted, and only val(realized) > 1 is a violation
    short = make_audit_record(p, 3, "split", ((0.5, 1), (1.5, 4)),
                              ((1.0, 2), (1.0, 4)))
    assert not short.violation and short.shortfalls == 1
    summary = audit_trace([good, bad, good, short])
    assert (summary.total, summary.violations, summary.shortfalls) == (4, 1, 2)
    assert summary.per_rule["split"] == (4, 1, 2)
    assert audit_trace([]).total == 0
    assert "violations" in summary.render() and "shortfalls" in summary.render()


def test_audit_clean_petersen_run():
    g = NAMED_GRAPHS["petersen"]()
    r = solve_decision(Instance(g, 6), cfg=SolverConfig(audit=True))
    summary = audit_trace(r.stats.audit_records)
    assert summary.clean


def test_brute_force_examples():
    assert brute_force_vc(NAMED_GRAPHS["petersen"]())[0] == 6  # n - alpha = 10 - 4
    opt, cover = brute_force_vc(cycle(5))
    assert opt == 3 and is_cover(cycle(5), cover)
    assert brute_force_vc(complete(2)) == (1, frozenset({0}))


def test_brute_force_matches_exhaustive_and_lex():
    for seed in range(30):
        g = gnp(9, (0.25, 0.4)[seed % 2], seed)
        opt, cover = brute_force_vc(g)
        assert opt == exhaustive_vc(g)
        assert is_cover(g, cover) and len(cover) == opt
        # lexicographically least optimal cover, by direct enumeration
        import itertools
        best = min(sorted(s) for s in itertools.combinations(g.vertices(), opt)
                   if is_cover(g, s))
        assert sorted(cover) == best


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_vc(Graph(vertices=range(27)))
