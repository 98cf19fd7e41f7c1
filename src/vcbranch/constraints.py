"""Numeric certification of the measure analysis.

Profiles bundle every displayed inequality of the measure analysis with its
published constants.  Exponential-sum constraints are evaluated directly;
the piecewise-linear dovetail bounds min{...} <= a*mu + b*k are certified
over the whole cone mu in [0, k] by checking the finitely many breakpoint
rays (the min of linear pieces is concave, so the worst ray is an endpoint
or a pairwise crossing).  Slack tolerance is 1e-9 throughout; the few
deliberately tight rows sit within +1e-5 of their bound at the published
5-6 digit constants, on the feasible side.

Two published displays are corrected here (both noted per row):
the degree-4 dovetail uses the MaxIS-3 rate 1.083506 (the display prints
1.085306, which is infeasible by 7e-4 and contradicts the rate quoted
everywhere else), and one 6-vertex constraint has a sign typo in its last
term (as printed its value would be 1.32).

No solve runs this certifier, so ``import vcbranch`` does not load this
module; ``vcbranch verify-constants`` imports it when it runs.  The rates
the solvers measure by (AGVC_RATE, MAXIS_RATES) live in vcbranch.verify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from .branching import SIMPLE_LEVEL_PARAMS, MeasureParams, val
from .verify import AGVC_RATE, MAXIS_RATES

E = math.exp

# -- published constants -----------------------------------------------------

MAXIS_WEIGHTS = {
    5: {"w3": 0.5093, "w4": 0.8243},
    6: {"w3": 0.49969, "w4": 0.76163, "w5": 0.92401},
    7: {"w3": 0.65077, "w4": 0.78229, "w5": 0.89060, "w6": 0.96384},
}

#: the constants the simple solvers measure by (branching.SIMPLE_LEVEL_PARAMS)
SIMPLE_CONSTANTS = {
    **{f"{name}{level}": getattr(SIMPLE_LEVEL_PARAMS[level], name)
       for level in (4, 5, 6) for name in "ab"},
    "rate7": math.exp(SIMPLE_LEVEL_PARAMS[7].b),
}

ADVANCED_CONSTANTS = {
    "a4": 0.59394, "b4": 0.039361, "alpha": 0.03894, "beta": 0.05478,
    "a51": 0.496708, "b51": 0.064301,
    "a52": 0.437086, "b52": 0.080751,
    "a53": 0.379406, "b53": 0.097471,
    "a61": 0.254135, "b61": 0.137360,
    "a62": 0.202348, "b62": 0.154382,
    "a63": 0.166944, "b63": 0.166214,
    "a7": 0.01266, "b7": 0.221723,
    "rate8": 1.25284,
}

SLACK_TOL = 1e-9


def combine_rate(a: float, b: float, c: float) -> float:
    """Exponent d = 2c(a+b)/(a+2c) of the dovetailed k-only runtime."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("rates must be non-negative")
    if a + 2 * c <= 0:
        raise ValueError("degenerate combination: a + 2c must be positive")
    return 2 * c * (a + b) / (a + 2 * c)


# -- constraint report --------------------------------------------------------

@dataclass(frozen=True)
class ConstraintRow:
    label: str
    kind: str              # "exp" | "piecewise" | "value"
    value: float
    bound: Optional[float]
    slack: Optional[float]
    passed: bool
    note: str = ""

    def record(self) -> dict:
        return {
            "label": self.label, "kind": self.kind, "value": self.value,
            "bound": self.bound, "slack": self.slack, "pass": self.passed,
            "note": self.note,
        }


@dataclass
class ConstraintReport:
    profile: str
    rows: list[ConstraintRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def render(self) -> str:
        lines = [f"constraint report: profile={self.profile}"]
        for r in self.rows:
            if r.kind == "value":
                lines.append(f"  {r.label:<26} value={r.value:.6f}  (recorded)"
                             + (f"  [{r.note}]" if r.note else ""))
            else:
                status = "pass" if r.passed else "FAIL"
                lines.append(
                    f"  {r.label:<26} value={r.value:.9f} bound={r.bound:.9f} "
                    f"slack={r.slack:+.3e} {status}"
                    + (f"  [{r.note}]" if r.note else ""))
        lines.append(f"  => {'all pass' if self.passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)


class _Rows:
    def __init__(self):
        self.rows: list[ConstraintRow] = []

    def exp(self, label: str, value: float, bound: float = 1.0, note: str = "") -> None:
        slack = bound - value
        self.rows.append(ConstraintRow(label, "exp", value, bound, slack,
                                       slack >= -SLACK_TOL, note))

    def piecewise(self, label: str, pieces: list[tuple[float, float]],
                  rhs: tuple[float, float], note: str = "") -> None:
        """min_i (alpha_i*mu + beta_i) <= a*mu + b over the ray cone, k = 1."""
        a, b = rhs
        points = {0.0, 1.0}
        for (a1, b1), (a2, b2) in itertools.combinations(pieces, 2):
            if a1 != a2:
                m = (b2 - b1) / (a1 - a2)
                if 0.0 < m < 1.0:
                    points.add(m)
        worst = min((a * m + b) - min(al * m + be for al, be in pieces)
                    for m in sorted(points))
        # report as value/bound with the worst ray folded into the slack
        self.rows.append(ConstraintRow(label, "piecewise", -worst, 0.0, worst,
                                       worst >= -SLACK_TOL, note))

    def value(self, label: str, value: float, note: str = "") -> None:
        self.rows.append(ConstraintRow(label, "value", value, None, None, True, note))


def _psi_gamma(a: float, b: float) -> dict[str, float]:
    return {
        "psi5": max(E(-2 * b), E(-a - 4 * b) + E(-a - 6 * b),
                    E(-0.5 * a - 2 * b) + E(-2 * a - 6 * b)),
        "psi6": max(E(-2 * b), E(-a - 4 * b) + E(-a - 6 * b),
                    E(-0.5 * a - 3 * b) + E(-2 * a - 6 * b),
                    E(-0.5 * a - 2 * b) + E(-2.5 * a - 7 * b)),
        "psi7": max(E(-2 * b), E(-a - 4 * b) + E(-a - 6 * b),
                    E(-0.5 * a - 3 * b) + E(-2 * a - 6 * b),
                    E(-0.5 * a - 2 * b) + E(-2.5 * a - 8 * b)),
        "gamma2": max(E(-b), 2 * E(-a - 4 * b),
                      E(-0.5 * a - 3 * b) + E(-2 * a - 5 * b)),
        "gamma3": max(E(-b), E(-a - 4 * b) + E(-a - 5 * b),
                      E(-0.5 * a - 4 * b) + E(-2 * a - 5 * b)),
        "gamma4": max(E(-b), E(-a - 4 * b) + E(-a - 6 * b)),
    }


def _gamma_star(a: float, b: float, alpha: float, r: int) -> float:
    return max(E(-b - alpha), E(-a - r * b - alpha) + E(-a - (r + 2) * b - alpha))


def _simple_profile(c: dict) -> _Rows:
    rows = _Rows()
    ln = math.log
    for lvl, seqs in (
        (4, [("seq-13-15", ((1, 3), (1, 5))), ("seq-051-154", ((0.5, 1), (1.5, 4)))]),
        (5, [("seq-13-15", ((1, 3), (1, 5))), ("seq-051-25", ((0.5, 1), (2, 5)))]),
        (6, [("seq-13-15", ((1, 3), (1, 5))), ("seq-052-25", ((0.5, 2), (2, 5))),
             ("seq-051-256", ((0.5, 1), (2.5, 6)))]),
    ):
        p = MeasureParams(c[f"a{lvl}"], c[f"b{lvl}"])
        for name, seq in seqs:
            rows.exp(f"level{lvl}/{name}", val(p, seq))
    rows.piecewise("level4/dovetail",
                   [(ln(AGVC_RATE), 0.0),
                    (-2 * ln(MAXIS_RATES[3]), 2 * ln(MAXIS_RATES[3]))],
                   (c["a4"], c["b4"]), note="triple point; tight by design")
    rows.piecewise("level5/dovetail",
                   [(c["a4"], c["b4"]),
                    (-2 * ln(MAXIS_RATES[4]), 2 * ln(MAXIS_RATES[4]))],
                   (c["a5"], c["b5"]), note="tight by design")
    rows.piecewise("level6/dovetail",
                   [(c["a5"], c["b5"]),
                    (-2 * ln(MAXIS_RATES[5]), 2 * ln(MAXIS_RATES[5]))],
                   (c["a6"], c["b6"]), note="tight by design")
    r7 = c["rate7"]
    rows.exp("level7/split", r7 ** -1 + r7 ** -7)
    rows.value("combine/deg3", E(combine_rate(ln(AGVC_RATE), 0.0, ln(MAXIS_RATES[3]))),
               note="printed 1.14416")
    rows.value("combine/deg7", E(combine_rate(c["a6"], c["b6"], ln(MAXIS_RATES[6]))),
               note="printed 1.2575")
    rows.value("combine/deg4-simple", E(combine_rate(c["a4"], c["b4"], ln(MAXIS_RATES[4]))),
               note="printed 1.2152")
    rows.value("combine/deg5-simple", E(combine_rate(c["a5"], c["b5"], ln(MAXIS_RATES[5]))),
               note="printed 1.2491")
    return rows


def _advanced4_profile(c: dict) -> _Rows:
    rows = _Rows()
    a, b, al, be = c["a4"], c["b4"], c["alpha"], c["beta"]
    ln = math.log
    pg = _psi_gamma(a, b)
    g3s = _gamma_star(a, b, al, 3)
    rows.value("psi5", pg["psi5"])
    rows.value("gamma3*", g3s)
    rows.value("alpha", al)
    rows.value("beta", be)
    rows.exp("4-1", max(E(-b), E(-0.5 * a - b) + E(-2 * a - 5 * b),
                        2 * E(-a - 3 * b - al), E(-a - 3 * b) + E(-a - 5 * b)))
    rows.exp("4-2", max(E(-2 * b), E(-0.5 * a - 2 * b) + E(-2 * a - 5 * b),
                        2 * E(-a - 3 * b - al), E(-a - 3 * b) + E(-a - 5 * b)), E(-be))
    rows.exp("4-3", max(E(-b), E(-0.5 * a - b - al) + E(-2 * a - 5 * b),
                        2 * E(-a - 3 * b - al), E(-a - 3 * b) + E(-a - 5 * b)), E(-al))
    rows.piecewise("4-4",
                   [(ln(AGVC_RATE), 0.0),
                    (-2 * ln(MAXIS_RATES[3]), 2 * ln(MAXIS_RATES[3]))],
                   (a, b),
                   note="MaxIS-3 rate 1.083506; display prints 1.085306 (typo, infeasible)")
    rows.exp("4-5", E(-1.5 * a - 4 * b - al) + E(-0.5 * a - b) * pg["psi5"])
    rows.exp("4-6", E(-1.5 * a - 6 * b - al) + E(-0.5 * a - 3 * b - al), E(-be),
             note="tight by design")
    rows.exp("4-7", E(-1.5 * a - 4 * b) * g3s + E(-a - 4 * b - al)
             + E(-2.5 * a - 7 * b - al), E(-be))
    rows.exp("4-8", E(-1.5 * a - 4 * b - al) + E(-a - 4 * b - al)
             + E(-3 * a - 8 * b - al), E(-be))
    rows.exp("4-9", E(-1.5 * a - 7 * b - al) + E(-0.5 * a - 2 * b - al), E(-al))
    rows.exp("4-10", E(-1.5 * a - 4 * b) * g3s + E(-a - 3 * b - al)
             + E(-2.5 * a - 7 * b - al), E(-al))
    rows.exp("4-11", E(-1.5 * a - 4 * b - al) + E(-a - 3 * b - al)
             + E(-3 * a - 8 * b - al), E(-al))
    rows.exp("4-12", E(-1.5 * a - 6 * b - al) + E(-0.5 * a - 2 * b - be), E(-al),
             note="tight by design")
    rows.exp("4-13", E(-0.5 * a - b - al) + E(-1.5 * a - 6 * b - al))
    rows.exp("4-14", E(-0.5 * a - b - al) + E(-2.5 * a - 8 * b - al)
             + E(-2.5 * a - 10 * b - al))
    rows.exp("4-15", 2 * E(-1.5 * a - 4 * b - al) + E(-2 * a - 5 * b - al)
             + E(-3.5 * a - 9 * b - al))
    rows.exp("4-16", 2 * E(-1.5 * a - 4 * b - al) + E(-2 * a - 7 * b - al)
             + E(-3 * a - 12 * b - al))
    rows.exp("4-17", E(-1.5 * a - 4 * b - be) + E(-1.5 * a - 4 * b - al)
             + E(-2 * a - 7 * b - al) + E(-3 * a - 11 * b - al))
    rows.exp("4-18", 2 * E(-1.5 * a - 4 * b - be) + E(-2 * a - 7 * b - al)
             + E(-3 * a - 10 * b - al))
    rows.exp("4-19", E(-1.5 * a - 4 * b - be) + E(-1.5 * a - 4 * b - al)
             + E(-2 * a - 5 * b) * g3s + E(-3 * a - 13 * b - al))
    rows.exp("4-20", 2 * E(-1.5 * a - 4 * b - al) + E(-2 * a - 5 * b) * g3s
             + E(-3 * a - 14 * b - al))
    rows.value("combine/deg4-headline", E(combine_rate(a, b, ln(MAXIS_RATES[4]))),
               note="not printed in the source; reported only")
    return rows


def _advanced5_profile(c: dict) -> _Rows:
    rows = _Rows()
    ln = math.log
    w4 = MAXIS_WEIGHTS[5]["w4"]
    rows.value("maxis5/w3", MAXIS_WEIGHTS[5]["w3"])
    rows.value("maxis5/w4", w4)

    a, b = c["a51"], c["b51"]
    rows.exp("5-1", max(E(-a - 3 * b) + E(-a - 5 * b),
                        E(-0.5 * a - b) + E(-2 * a - 5 * b)), note="tight by design")
    rows.piecewise("5-2", [(c["a4"], c["b4"]),
                           (-2 * ln(MAXIS_RATES[4]), 2 * ln(MAXIS_RATES[4]))],
                   (a, b), note="tight by design")

    def shared(tag: str, a: float, b: float) -> None:
        pg = _psi_gamma(a, b)
        branch55_g0 = max(E(-b), E(-a - 3 * b) + E(-a - 5 * b),
                          E(-0.5 * a - 2 * b) + E(-2 * a - 5 * b))
        two_vul_mix = max(E(-2 * a - 5 * b) * pg["gamma3"] + E(-2.5 * a - 6 * b),
                          E(-2 * a - 5 * b) + E(-2.5 * a - 6 * b) * pg["gamma3"])
        rows.exp(f"5-3{tag}", max(E(-a - 3 * b) + E(-a - 4 * b),
                                  E(-a - 2 * b) + E(-a - 5 * b),
                                  E(-0.5 * a - 2 * b) + E(-2 * a - 5 * b),
                                  E(-0.5 * a - b) + E(-2.5 * a - 6 * b)))
        rows.exp(f"5-4{tag}", E(-2 * a - 5 * b) + E(-2.5 * a - 7 * b) + E(-a - 3 * b))
        rows.exp(f"5-5{tag}", 2 * E(-2 * a - 5 * b) + E(-1.5 * a - 4 * b))
        rows.exp(f"5-6{tag}", E(-2 * a - 5 * b) + E(-2.5 * a - 6 * b)
                 + E(-a - 2 * b) * pg["psi6"])
        rows.exp(f"5-12{tag}", E(-0.5 * a - b) + E(-2 * a - 7 * b))
        rows.exp(f"5-13{tag}", E(-2 * a - 5 * b) + E(-2.5 * a - 6 * b)
                 + E(-3 * a - 10 * b) + E(-1.5 * a - 3 * b) * pg["psi7"])
        rows.exp(f"5-14{tag}", E(-2 * a - 5 * b) + two_vul_mix
                 + E(-3 * a - 7 * b) * pg["gamma2"] + E(-4 * a - 11 * b))
        rows.exp(f"5-15{tag}", E(-2 * a - 5 * b) + two_vul_mix
                 + E(-3 * a - 7 * b) + E(-4.5 * a - 11 * b))
        rows.exp(f"5-16{tag}", E(-2 * a - 5 * b) * branch55_g0 + E(-2 * a - 5 * b)
                 + E(-2.5 * a - 6 * b) + E(-3 * a - 7 * b) * pg["gamma4"]
                 + E(-4 * a - 12 * b))
        rows.exp(f"5-17{tag}", 2 * E(-2 * a - 5 * b) + E(-2.5 * a - 6 * b)
                 + E(-3 * a - 7 * b) * pg["gamma4"]
                 + max(E(-4 * a - 13 * b), E(-4.5 * a - 11 * b)))
        rows.exp(f"5-18{tag}", 2 * E(-2 * a - 5 * b) + E(-2.5 * a - 6 * b)
                 + E(-3 * a - 7 * b)
                 + max(E(-4.5 * a - 14 * b), E(-5 * a - 12 * b)))

    shared("@52", c["a52"], c["b52"])
    shared("@53", c["a53"], c["b53"])

    a, b = c["a52"], c["b52"]
    pg = _psi_gamma(a, b)
    branch55_g0 = max(E(-b), E(-a - 3 * b) + E(-a - 5 * b),
                      E(-0.5 * a - 2 * b) + E(-2 * a - 5 * b))
    rows.exp("5-7", E(-2 * a - 5 * b) * pg["gamma3"] + E(-0.5 * a - b))
    rows.exp("5-8", E(-2 * a - 5 * b) + E(-2.5 * a - 6 * b) + E(-a - 3 * b))
    rows.exp("5-9", E(-1.5 * a - 4 * b) + E(-3.5 * a - 9 * b) + E(-a - 3 * b))
    rows.piecewise("5-11", [(c["a51"], c["b51"]),
                            (-2 * (w4 * 0.75 + 0.25) * ln(MAXIS_RATES[5]),
                             2 * (w4 * 0.75 + 0.25) * ln(MAXIS_RATES[5]))],
                   (a, b), note="tight by design")
    rows.exp("5-19", E(-2 * a - 5 * b) + E(-2.5 * a - 6 * b) + E(-3 * a - 7 * b)
             + E(-1.5 * a - 3 * b) * pg["psi6"])
    rows.exp("5-20", 2 * E(-2 * a - 5 * b) + E(-4 * a - 10 * b)
             + E(-1.5 * a - 3 * b) * pg["psi6"])
    rows.exp("5-21", E(-2 * a - 5 * b) + E(-2 * a - 5 * b) * branch55_g0
             + max(E(-3.5 * a - 11 * b), E(-4 * a - 10 * b))
             + E(-1.5 * a - 3 * b) * pg["psi6"])
    rows.exp("5-22", E(-0.5 * a - b) + E(-3 * a - 8 * b) + E(-3.5 * a - 9 * b))
    rows.exp("5-23", E(-2 * a - 5 * b) + E(-2.5 * a - 8 * b) + E(-3 * a - 9 * b)
             + E(-1.5 * a - 3 * b))

    a, b = c["a53"], c["b53"]
    rows.piecewise("5-10", [(c["a52"], c["b52"]),
                            (-2 * (w4 * 0.5 + 0.5) * ln(MAXIS_RATES[5]),
                             2 * (w4 * 0.5 + 0.5) * ln(MAXIS_RATES[5]))],
                   (a, b), note="tight by design")
    rows.value("combine/deg5-advanced", E(combine_rate(a, b, ln(MAXIS_RATES[5]))),
               note="printed 1.24394")
    return rows


def _advanced6_profile(c: dict) -> _Rows:
    rows = _Rows()
    ln = math.log
    w5 = MAXIS_WEIGHTS[6]["w5"]
    for name, value in MAXIS_WEIGHTS[6].items():
        rows.value(f"maxis6/{name}", value)

    a, b = c["a61"], c["b61"]
    rows.exp("6-1", max(E(-a - 3 * b) + E(-a - 5 * b),
                        E(-0.5 * a - 2 * b) + E(-2 * a - 5 * b),
                        E(-0.5 * a - b) + E(-2.5 * a - 6 * b)), note="tight by design")
    rows.piecewise("6-2", [(c["a53"], c["b53"]),
                           (-2 * ln(MAXIS_RATES[5]), 2 * ln(MAXIS_RATES[5]))],
                   (a, b), note="tight by design")

    def shared(tag: str, a: float, b: float) -> None:
        pg = _psi_gamma(a, b)
        rows.exp(f"6-3{tag}", max(E(-a - 3 * b) + E(-a - 4 * b),
                                  E(-a - 2 * b) + E(-a - 5 * b),
                                  E(-0.5 * a - 2 * b) + E(-2 * a - 5 * b)))
        rows.exp(f"6-4{tag}", E(-0.5 * a - b) + E(-2.5 * a - 6 * b) * pg["gamma2"])
        rows.exp(f"6-5{tag}", E(-2.5 * a - 6 * b) + E(-0.5 * a - b)
                 * max(E(-b), E(-a - 3 * b) + E(-a - 4 * b),
                       E(-0.5 * a - 2 * b) + E(-2 * a - 5 * b)),
                 note="tight by design at a63/b63")
        rows.exp(f"6-6{tag}", E(-2.5 * a - 6 * b) + E(-3 * a - 7 * b)
                 + E(-3.5 * a - 8 * b) + E(-1.5 * a - 4 * b))
        rows.exp(f"6-10{tag}", E(-2.5 * a - 6 * b) + E(-3 * a - 7 * b)
                 + E(-3.5 * a - 8 * b) * pg["gamma3"] + E(-3.5 * a - 9 * b)
                 + E(-2 * a - 5 * b))
        rows.exp(f"6-11{tag}", 2 * E(-2.5 * a - 6 * b) + E(-3 * a - 7 * b)
                 + E(-3.5 * a - 8 * b) + E(-4 * a - 9 * b) + E(-5 * a - 13 * b))
        rows.exp(f"6-12{tag}", E(-2.5 * a - 6 * b) + E(-3 * a - 7 * b) * pg["gamma3"]
                 + E(-3 * a - 7 * b) + E(-1.5 * a - 4 * b))
        rows.exp(f"6-13{tag}", E(-2.5 * a - 6 * b) + 2 * E(-3 * a - 7 * b)
                 + E(-2 * a - 5 * b) + E(-4.5 * a - 12 * b))
        rows.exp(f"6-14{tag}", 2 * E(-2.5 * a - 6 * b) + E(-3 * a - 7 * b)
                 + E(-2 * a - 5 * b))

    shared("@62", c["a62"], c["b62"])
    shared("@63", c["a63"], c["b63"])

    a, b = c["a62"], c["b62"]
    pg = _psi_gamma(a, b)
    rows.exp("6-7", E(-2.5 * a - 6 * b) + E(-3 * a - 8 * b) + E(-a - 2 * b))
    rows.piecewise("6-8", [(c["a61"], c["b61"]),
                           (-2 * (w5 * 2 / 3 + 1 / 3) * ln(MAXIS_RATES[6]),
                            2 * (w5 * 2 / 3 + 1 / 3) * ln(MAXIS_RATES[6]))],
                   (a, b), note="tight by design")
    rows.exp("6-15", E(-2.5 * a - 6 * b) + 2 * E(-3 * a - 7 * b)
             + E(-1.5 * a - 3 * b) * pg["psi7"],
             note="last term sign-corrected; display prints e^{+1.5a-3b} (infeasible)")
    rows.exp("6-16", E(-2 * a - 5 * b) + E(-2.5 * a - 7 * b) + E(-4 * a - 11 * b)
             + E(-1.5 * a - 3 * b) * pg["psi7"])
    rows.exp("6-17", E(-2 * a - 5 * b) + E(-2.5 * a - 6 * b)
             + max(E(-4 * a - 13 * b), E(-4.5 * a - 12 * b))
             + E(-1.5 * a - 3 * b) * pg["psi7"], note="tight by design")

    a, b = c["a63"], c["b63"]
    rows.piecewise("6-9", [(c["a62"], c["b62"]),
                           (-2 * (w5 * 0.5 + 0.5) * ln(MAXIS_RATES[6]),
                            2 * (w5 * 0.5 + 0.5) * ln(MAXIS_RATES[6]))],
                   (a, b), note="tight by design")
    rows.value("combine/deg6-advanced", E(combine_rate(a, b, ln(MAXIS_RATES[6]))),
               note="printed 1.25214")
    return rows


def _advanced7_profile(c: dict) -> _Rows:
    rows = _Rows()
    ln = math.log
    w6 = MAXIS_WEIGHTS[7]["w6"]
    for name, value in MAXIS_WEIGHTS[7].items():
        rows.value(f"maxis7/{name}", value)
    a, b = c["a7"], c["b7"]
    rows.exp("7-1", max(E(-a - 3 * b) + E(-a - 4 * b),
                        E(-0.5 * a - 2 * b) + E(-2 * a - 5 * b),
                        E(-0.5 * a - b) + E(-2.5 * a - 8 * b)))
    rows.exp("7-2", E(-0.5 * a - b) + E(-3 * a - 7 * b), note="tight by design")
    rows.exp("7-3", E(-a - 2 * b) + E(-a - 5 * b))
    rows.piecewise("7-4", [(c["a63"], c["b63"]),
                           (-2 * w6 * ln(MAXIS_RATES[7]), 2 * w6 * ln(MAXIS_RATES[7]))],
                   (a, b))
    r8 = c["rate8"]
    rows.exp("branch8/split", r8 ** -1 + r8 ** -8)
    recomputed = E(combine_rate(a, b, ln(MAXIS_RATES[7])))
    rows.value("combine/final-recomputed", recomputed,
               note=f"printed 1.25284; recomputation differs by "
                    f"{recomputed - 1.25284:+.5f} (~1e-3), gap left unresolved")
    return rows


_PROFILES = {
    "simple": (_simple_profile, SIMPLE_CONSTANTS),
    "advanced-4": (_advanced4_profile, ADVANCED_CONSTANTS),
    "advanced-5": (_advanced5_profile, ADVANCED_CONSTANTS),
    "advanced-6": (_advanced6_profile, ADVANCED_CONSTANTS),
    "advanced-7": (_advanced7_profile, ADVANCED_CONSTANTS),
}


def evaluate_constraints(profile: str, overrides: Optional[dict] = None) -> ConstraintReport:
    """Evaluate every inequality of a profile at its published constants.

    overrides remaps named constants (e.g. {"a4": ...}), used to check that
    the certification is not vacuous.
    """
    try:
        builder, constants = _PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choose from {sorted(_PROFILES)}") from None
    c = dict(constants)
    if overrides:
        unknown = set(overrides) - set(c)
        if unknown:
            raise ValueError(f"unknown constants {sorted(unknown)}")
        c.update(overrides)
    return ConstraintReport(profile, builder(c).rows)


def triple_point_residual() -> float:
    """Relative spread of the three cost lines at the designed triple point.

    The level-4 dovetail constants make mu*ln(2.3146), 2(k-mu)*ln(1.083506)
    and a*mu + b*k meet along one ray; returns max pairwise gap / value.
    """
    c1 = math.log(AGVC_RATE)
    c2 = math.log(MAXIS_RATES[3])
    a, b = SIMPLE_CONSTANTS["a4"], SIMPLE_CONSTANTS["b4"]
    mu = 2 * c2 / (c1 + 2 * c2)  # crossing ray at k = 1
    values = (mu * c1, 2 * (1 - mu) * c2, a * mu + b)
    return (max(values) - min(values)) / max(values)

