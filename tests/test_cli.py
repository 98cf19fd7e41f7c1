import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vcbranch
from vcbranch.cli import (
    MAX_VERTICES,
    NAMED_GRAPHS,
    ParseError,
    _decode_input,
    circulant,
    generate,
    gnp,
    main,
    parse_graph,
    render_graph,
    run_command,
)
from vcbranch.graph import Graph
from vcbranch.lp import Instance
from vcbranch.reduce import lift_cover, simplify
from vcbranch.verify import audit_trace, brute_force_vc

from oracle_utils import is_cover, named_corpus


def run(argv, env=None, monkeypatch=None):
    buf = io.StringIO()
    code = run_command(argv, stdout=buf)
    return code, buf.getvalue()


def test_parse_graph():
    assert parse_graph("p td 2 1\n1 2\n").edges() == [(0, 1)]
    c5 = parse_graph("c hi\np td 5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
    assert c5.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    with pytest.raises(ParseError, match="line"):
        parse_graph("p td 3 5\n1 2\n2 3\n")
    with pytest.raises(ParseError):
        parse_graph("p td 2 1\n1 5\n")  # endpoint out of range
    with pytest.raises(ParseError):
        parse_graph("p edge 2 1\ne 1 2\n")  # wrong header for pace format
    assert parse_graph("p edge 2 1\ne 1 2\n", fmt="dimacs").edges() == [(0, 1)]
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        parse_graph("p td 2 1\n1 2\n", fmt="xml")
    # duplicate edges tolerated and deduplicated
    assert parse_graph("p td 2 2\n1 2\n2 1\n").m == 1


def test_parse_graph_equals_add_edge():
    """The parsed graph equals one built edge by edge, with isolated
    vertices kept and duplicate edges merged, and its next fresh id is n."""
    lines = [(1, 4), (4, 2), (2, 1), (4, 1), (6, 7), (7, 6), (6, 7), (2, 9)]
    text = f"p td 10 {len(lines)}\n" + "".join(f"{u} {v}\n" for u, v in lines)
    built = Graph(vertices=range(10))
    for u, v in lines:
        built.add_edge(u - 1, v - 1)
    g = parse_graph(text)
    assert g == built and g.vertices() == list(range(10)) and g.m == 5
    assert [v for v in g.vertices() if not g.neighbors(v)] == [2, 4, 7, 9]
    assert g.add_vertex() == built.add_vertex() == 10


def test_generate():
    g = generate("named", {"name": "petersen"})
    assert g.n == 10 and g.m == 15
    c = generate("circulant", {"n": 9, "offsets": [1, 2]})
    assert c.edges() == circulant(9, (1, 2)).edges()
    a = generate("gnp", {"n": 12, "p": 0.3}, seed=7)
    b = generate("gnp", {"n": 12, "p": 0.3}, seed=7)
    assert a.edges() == b.edges()
    r = generate("regular", {"n": 12, "d": 4}, seed=1)
    assert all(r.degree(v) == 4 for v in r.vertices())
    assert generate("regular", {"n": 0, "d": 0}, seed=0).n == 0  # the empty graph is 0-regular
    with pytest.raises(ValueError):
        generate("regular", {"n": 7, "d": 3}, seed=0)  # odd n*d
    for n, d in [(1, 1), (0, 2)]:
        with pytest.raises(ValueError, match=f"no {d}-regular graph on {n} vertices"):
            generate("regular", {"n": n, "d": d}, seed=0)
    with pytest.raises(ValueError):
        generate("named", {"name": "nonesuch"})
    with pytest.raises(ValueError, match="unknown generator kind 'bogus'"):
        generate("bogus", {})


def test_random_regular_gives_up_after_1000_dead_ends(monkeypatch):
    """A sampler whose every pairing attempt dead-ends raises RuntimeError
    after its 1000 restarts instead of looping forever."""
    class DeadEnd(random.Random):
        def randrange(self, *args):
            return 0  # i == j: the same stub twice, never a pair

    monkeypatch.setattr(random, "Random", DeadEnd)
    with pytest.raises(RuntimeError, match="regular graph sampling failed"):
        generate("regular", {"n": 4, "d": 2}, seed=0)


def test_console_script_exits_with_the_command_code(tmp_path, monkeypatch, capsys):
    """main, the vcbranch console script, exits with run_command's code."""
    path = tmp_path / "pet.gr"
    path.write_text(render_graph(NAMED_GRAPHS["petersen"]()))
    for k, want in (("6", 0), ("5", 1)):
        monkeypatch.setattr(sys, "argv", ["vcbranch", "solve", str(path), "--k", k])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == want
    assert "infeasible k=5" in capsys.readouterr().out


def test_solve_exit_codes(tmp_path):
    path = tmp_path / "pet.gr"
    path.write_text(render_graph(NAMED_GRAPHS["petersen"]()))
    code, out = run(["solve", str(path), "--k", "6"])
    assert code == 0 and "feasible" in out
    code, out = run(["solve", str(path), "--k", "5"])
    assert code == 1 and "infeasible" in out
    code, out = run(["solve", str(path)])
    assert code == 2  # --k required
    code, out = run(["solve", str(path), "--k", "6", "--budget", "0"])
    assert code == 3


@pytest.mark.parametrize("data, line, message", [
    (b"p td 3 2\n1 2\n2 \xff3\n", 3, "input is not UTF-8 text"),
    (b"c caf\xe9\np td 2 1\n1 2\n", 1, "input is not UTF-8 text"),
    ("p td 2 1\n1 ٢\n".encode(), 2, "non-integer edge endpoints"),
    (b"p td 2 1\n1 +2\n", 2, "non-integer edge endpoints"),
    (b"p td 2 1\n1 2_0\n", 2, "non-integer edge endpoints"),
    ("p td ٢ 1\n1 2\n".encode(), 1, "non-integer header fields"),
    (b"p td +2 1\n1 2\n", 1, "non-integer header fields"),
    # a header above the vertex limit is rejected before any vertex is built
    (f"c big\np td {MAX_VERTICES + 1} 0\n".encode(), 2,
     f"header declares {MAX_VERTICES + 1} vertices; the maximum is {MAX_VERTICES}"),
    (b"p td 99999999999 1\n1 2\n", 1,
     f"header declares 99999999999 vertices; the maximum is {MAX_VERTICES}"),
    (b"p td 2 1\np td 2 1\n1 2\n", 2, "duplicate problem line"),
    (b"p td -1 0\n", 1, "negative header fields"),
    (b"1 2\np td 2 1\n", 1, "edge line before problem line"),
    (b"p td 3 1\n1 2 3\n", 2, "malformed edge line (expected 'u v')"),
    (b"p td 2 1\n1 1\n", 2, "self-loop"),
    # lines end only at "\n", and fields split only at spaces and tabs
    (b"c a\x0bb\np td 2 1\n1 1\n", 3, "self-loop"),
    (b"p td 2 1\n1\x1c2\n", 2, "malformed edge line (expected 'u v')"),
    ("p td 2 1\n1\u00852\n".encode(), 2, "malformed edge line (expected 'u v')"),
    (b"c only\n", 1, "missing problem line"),
    # a "p edge" header is read with --format dimacs
    (b"p edge 2 1\n1 2\n", 2, "malformed edge line (expected 'e u v')"),
])
def test_input_errors_exit_2_with_the_line(tmp_path, monkeypatch, data, line, message):
    """Bytes that are not UTF-8, header or edge fields that are not ASCII
    decimal integers, and lines out of the format's shape or order are
    input errors: exit 2, naming the line, from a file and from standard
    input."""
    path = tmp_path / "bad.gr"
    path.write_bytes(data)
    fmt = ["--format", "dimacs"] if data.startswith(b"p edge") else []
    for argv in (["solve", str(path), "--k", "2", *fmt], ["optimize", str(path), "--json", *fmt],
                 ["solve", "-", "--k", "2", *fmt]):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out = run(argv)
        assert code == 2, (argv, out)
        assert f"line {line}: {message}" in out, out


# characters that str.splitlines or str.split would take as line breaks or
# field separators, UTF-8 encoded
_SEPARATORS = [c.encode() for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"]


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One byte-level mutation: a deletion, a duplication, a byte flip (a
    quarter of them to one of _SEPARATORS), a truncation or the header's n
    and m swapped."""
    kind = rng.randrange(5)
    at = rng.randrange(len(data))
    if kind == 0:
        return data[:at] + data[at + rng.randint(1, 3):]
    if kind == 1:
        return data[:at] + data[at:at + rng.randint(1, 8)] + data[at:]
    if kind == 2:
        byte = rng.choice(_SEPARATORS) if rng.random() < 0.25 else bytes([rng.randrange(256)])
        return data[:at] + byte + data[at + 1:]
    if kind == 3:
        return data[:at + 1]
    return re.sub(rb"^p (\S+) (\S+) (\S+)", rb"p \1 \3 \2", data, count=1)


def test_mutated_inputs_solve_or_exit_2(tmp_path):
    """Seeded byte-level mutations of the named graphs' PACE and DIMACS
    files: optimize exits 0 or 2 and never reports an internal error, and
    every cover it prints is a minimum cover of the mutated input."""
    rng = random.Random(1)
    sources = [(render_graph(make(), fmt).encode(), fmt)
               for make in NAMED_GRAPHS.values() for fmt in ("pace", "dimacs")]
    path = tmp_path / "fuzz.gr"
    codes = []
    for _ in range(600):
        data, fmt = rng.choice(sources)
        for _ in range(rng.randint(1, 2)):
            data = _mutate(data, rng)
        path.write_bytes(data)
        code, out = run(["optimize", str(path), "--json", "--format", fmt])
        codes.append(code)
        assert code in (0, 2) and "Traceback" not in out, (data, out)
        if code == 0:
            g = parse_graph(_decode_input(data), fmt)
            cover = json.loads(out.splitlines()[-1])["cover"]
            assert all(u + 1 in cover or v + 1 in cover for u, v in g.edges()), data
            # isolated vertices never enter a minimum cover
            assert len(cover) == brute_force_vc(Graph(edges=g.edges()))[0], data
    assert codes.count(0) >= 10 and codes.count(2) >= 300


def test_crlf_input_parses_as_before(tmp_path):
    """Input is read as bytes and decoded as UTF-8 with universal newlines,
    after one leading byte-order mark, so CRLF files and files with a BOM
    solve, and their cover and digest are those of the LF text."""
    crlf, bom, lf = tmp_path / "crlf.gr", tmp_path / "bom.gr", tmp_path / "lf.gr"
    text = render_graph(NAMED_GRAPHS["petersen"]())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    lf.write_bytes(text.encode())
    outs = [run(["solve", str(p), "--k", "6"]) for p in (crlf, bom, lf)]
    assert [code for code, _ in outs] == [0, 0, 0]
    for path, (_, out) in zip((crlf, bom), outs):
        assert out.replace(str(path), str(lf)) == outs[2][1]
    # only one mark is skipped: a second one is a character of the header
    bom.write_bytes(b"\xef\xbb\xbf" * 2 + text.encode())
    assert run(["solve", str(bom), "--k", "6"])[0] == 2


def test_internal_error_exit_code(tmp_path, monkeypatch):
    import vcbranch.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    path = tmp_path / "pet.gr"
    path.write_text(render_graph(NAMED_GRAPHS["petersen"]()))
    monkeypatch.setattr(cli, "solve_decision", broken)
    code, out = run(["solve", str(path), "--k", "6", "--json"])
    assert code == 4  # never 1, which would claim "infeasible"
    err = [json.loads(line) for line in out.splitlines()][-1]
    assert err == {"record": "error", "error": "internal",
                   "exception": "RuntimeError", "message": "boom"}
    code, out = run(["solve", str(path), "--k", "6"])
    assert code == 4 and "internal error: RuntimeError: boom" in out


def test_precondition_error_while_solving_is_internal(tmp_path, monkeypatch):
    """A ValueError raised after the input is loaded, here the selector's
    PreconditionError, exits 4 with the internal record, not 2."""
    from vcbranch import solver
    from vcbranch.graph import PreconditionError

    def broken(*args):
        raise PreconditionError("graph is not simplified")

    path = tmp_path / "c13.gr"
    path.write_text(render_graph(circulant(13, (1, 2, 3))))
    monkeypatch.setattr(solver, "select_branch", broken)
    code, out = run(["solve", str(path), "--k", "9", "--algorithm", "level6", "--json"])
    assert code == 4
    assert json.loads(out.splitlines()[-1]) == {
        "record": "error", "error": "internal", "exception": "PreconditionError",
        "message": "graph is not simplified"}
    path.write_text(render_graph(circulant(30, (1,))))
    assert run(["oracle", str(path)])[0] == 2  # the oracle's size guard: an input error


_IMPORT_CHECK = """
import sys
import vcbranch, vcbranch.cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "vcbranch")
assert "vcbranch.constraints" not in loaded, loaded
records = [f"{name}.{attr}" for name in loaded
           for attr, value in vars(sys.modules[name]).items()
           if isinstance(value, type) and hasattr(value, "__dataclass_fields__")]
assert not records, records
from vcbranch.constraints import evaluate_constraints
assert evaluate_constraints("simple").passed
"""


def test_import_path_holds_what_a_solve_runs():
    """A fresh import of vcbranch and its CLI leaves out the certifier
    (vcbranch.constraints) and builds no dataclass; the certifier still
    imports on demand."""
    src = str(Path(vcbranch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHECK], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_audit_violation_exit_code(tmp_path, monkeypatch):
    import vcbranch.cli as cli

    def dirty(records):
        return audit_trace(records)._replace(violations=1)

    path = tmp_path / "c912.gr"
    path.write_text(render_graph(circulant(9, (1, 2))))
    argv = ["audit", str(path), "--k", "6", "--algorithm", "level4"]
    assert run(argv)[0] == 0
    monkeypatch.setattr(cli, "audit_trace", dirty)
    assert run(argv)[0] == 5  # distinct from usage error 2
    assert run(["audit", str(path)])[0] == 2  # --k required


def test_audit_fires_on_a_live_shortfall(tmp_path, monkeypatch):
    """A selector that splits on a lowest-degree vertex while it claims the
    thm5.1/r6-split drops: live level-6 solves record shortfalls and
    violations, and vcbranch audit exits 5 on them."""
    from vcbranch import solver
    from vcbranch.branching import split_vertex
    from vcbranch.solver import SolverConfig, solve_optimum

    def lying(inst):
        g = inst.graph
        u = min(g.vertices(), key=lambda v: (g.degree(v), v))
        return split_vertex(inst, u, claimed=((0.5, 1), (2.5, g.max_degree())),
                            case="thm5.1/r6-split")

    monkeypatch.setattr(solver, "select_branch", lying)
    violations, opts = 0, []
    for seed in range(1, 8):
        opt, _, stats = solve_optimum(gnp(30, 0.25, seed), SolverConfig(level=6, audit=True))
        assert sum(rec.shortfalls for rec in stats.audit_records) > 0, seed
        assert all(rec.val_realized > 1 for rec in stats.audit_records if rec.violation)
        violations += stats.audit_violations
        opts.append(opt)
    assert violations > 0
    path = tmp_path / "g.gr"
    path.write_text(render_graph(gnp(30, 0.25, 1)))
    # the decision run at seed 1's optimum records violations
    code, out = run(["audit", str(path), "--k", str(opts[0]), "--algorithm", "level6",
                     "--json"])
    assert code == 5
    summary = [json.loads(line) for line in out.splitlines()
               if json.loads(line)["record"] == "summary"][0]
    assert summary["violations"] > 0 and summary["shortfalls"] > 0
    assert summary["per_rule"]["thm5.1/r6-split"][2] == summary["shortfalls"]


def test_budget_flag(tmp_path, monkeypatch):
    """--budget is the only way to set the node budget; the environment
    is not read."""
    path = tmp_path / "c13.gr"
    path.write_text(render_graph(circulant(13, (1, 2, 3))))
    assert run(["solve", str(path), "--k", "8", "--budget", "1"])[0] == 3
    monkeypatch.setenv("VC_BRANCH_BUDGET", "1")
    assert run(["solve", str(path), "--k", "8"])[0] == 1  # answered: no budget


@pytest.mark.parametrize("argv, env, source, raw", [
    (["--budget", "-3"], None, "--budget", "-3"),
    (["--budget", "-1"], "5", "--budget", "-1"),
])
def test_bad_budget_is_usage_error(tmp_path, monkeypatch, argv, env, source, raw):
    """env, when set, is a VC_BRANCH_BUDGET value that does not mend a bad --budget."""
    path = tmp_path / "pet.gr"
    path.write_text(render_graph(NAMED_GRAPHS["petersen"]()))
    if env is None:
        monkeypatch.delenv("VC_BRANCH_BUDGET", raising=False)
    else:
        monkeypatch.setenv("VC_BRANCH_BUDGET", env)
    code, out = run(["solve", str(path), "--k", "6"] + argv)
    assert code == 2  # before: exit 3, "budget exhausted after 1 nodes"
    assert f"error: {source} must be a non-negative integer, got '{raw}'" in out


def test_optimize_and_oracle_agree(tmp_path):
    path = tmp_path / "g.gr"
    path.write_text(render_graph(gnp(11, 0.35, 5)))
    code, out = run(["optimize", str(path), "--json"])
    assert code == 0
    opt = [json.loads(line) for line in out.splitlines()
           if json.loads(line)["record"] == "result"][0]["optimum"]
    code, out = run(["oracle", str(path), "--json"])
    oracle = [json.loads(line) for line in out.splitlines()
              if json.loads(line)["record"] == "result"][0]["optimum"]
    assert opt == oracle


@pytest.mark.parametrize("text", [
    "p td 4 3\n1 2\n1 3\n1 4\n",  # a star: the only minimum cover is the center, 1
    render_graph(NAMED_GRAPHS["petersen"]()),
    render_graph(gnp(11, 0.35, 5)),
], ids=["star", "petersen", "gnp"])
def test_printed_covers_use_the_file_numbers(tmp_path, text):
    """Every command that prints a cover names the input file's 1-based
    vertices, as text and with --json: the cover covers each edge line."""
    path = tmp_path / "g.gr"
    path.write_text(text)
    header, *lines = text.splitlines()
    n = int(header.split()[2])
    edges = [tuple(map(int, line.split())) for line in lines]
    opt = brute_force_vc(parse_graph(text))[0]
    for argv in (["solve", "--k", str(opt)], ["optimize"], ["audit", "--k", str(opt)], ["oracle"]):
        covers = []
        code, out = run([argv[0], str(path), *argv[1:]])
        assert code == 0, argv
        covers.append([int(v) for v in out.splitlines()[-1].split("cover=")[1].split(",")])
        code, out = run([argv[0], str(path), *argv[1:], "--json"])
        assert code == 0, argv
        covers.append(json.loads(out.splitlines()[-1])["cover"])
        for cover in covers:
            assert len(cover) == opt and set(cover) <= set(range(1, n + 1)), (argv, cover)
            assert all(u in cover or v in cover for u, v in edges), (argv, cover)


def test_verify_constants_command():
    code, out = run(["verify-constants", "--profile", "simple"])
    assert code == 0 and "all pass" in out
    code, out = run(["verify-constants"])
    assert code == 0
    code, out = run(["verify-constants", "--profile", "advanced-7", "--json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert any(r["record"] == "constraint" and r["label"] == "7-2" for r in rows)
    assert all(r["pass"] for r in rows if r["record"] == "constraint")


def test_audit_command(tmp_path):
    path = tmp_path / "c912.gr"
    path.write_text(render_graph(circulant(9, (1, 2))))
    code, out = run(["audit", str(path), "--k", "6", "--algorithm", "level4", "--json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    summaries = [r for r in rows if r["record"] == "summary"]
    assert summaries and summaries[0]["violations"] == summaries[0]["shortfalls"] == 0
    audits = [r for r in rows if r["record"] == "audit"]
    assert audits and all(not r["violation"] and r["shortfalls"] == 0 for r in audits)


def test_reduce_command(tmp_path):
    path = tmp_path / "c4.gr"
    path.write_text(render_graph(NAMED_GRAPHS["c4"]()))
    code, out = run(["reduce", str(path), "--k", "2", "--emit-trace", "--json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    red = [r for r in rows if r["record"] == "reduced"][0]
    assert red["n"] == 0 and red["k"] == 0 and red["dk"] == 2
    assert [r for r in rows if r["record"] == "trace"]


def test_reduce_trace_prints_file_numbers(tmp_path):
    """Trace steps name the file's 1-based vertices; a vertex a P2 fold
    creates gets the next number after n."""
    p5 = tmp_path / "p5.gr"
    p5.write_text("p td 5 4\n1 2\n2 3\n3 4\n4 5\n")
    code, out = run(["reduce", str(p5), "--emit-trace"])
    assert code == 0
    assert out.splitlines()[-1] == "P1 removed=1,2,3,4,5 created=- dk=2"
    c7 = tmp_path / "c7.gr"
    c7.write_text("p td 7 7\n" + "".join(f"{v} {v % 7 + 1}\n" for v in range(1, 8)))
    code, out = run(["reduce", str(c7), "--emit-trace", "--json"])
    assert code == 0
    steps = [json.loads(line)["step"] for line in out.splitlines()
             if json.loads(line)["record"] == "trace"]
    assert steps[0] == "P2 removed=1,2,7 created=8 dk=1"
    assert steps[1].startswith("P2 removed=3,4,8 created=9 ")


def test_reduce_then_oracle_then_lift_matches():
    for name, g in named_corpus():
        if g.n > 20:
            continue
        inst, trace = simplify(Instance(g, g.n))
        opt_red, cover_red = (0, frozenset()) if inst.graph.n == 0 \
            else brute_force_vc(inst.graph)
        lifted = lift_cover(trace, cover_red)
        assert is_cover(g, lifted)
        assert len(lifted) == brute_force_vc(g)[0]


def test_gen_command_round_trip():
    code, out = run(["gen", "named", "--name", "c9_12"])
    assert code == 0
    g = parse_graph(out)
    assert g.edges() == circulant(9, (1, 2)).edges()
    code1, out1 = run(["gen", "gnp", "--n", "12", "--p", "0.3", "--seed", "7"])
    code2, out2 = run(["gen", "gnp", "--n", "12", "--p", "0.3", "--seed", "7"])
    assert out1 == out2


@pytest.mark.parametrize("argv,flag", [
    (["gen", "gnp"], "--n and --p"),
    (["gen", "gnp", "--n", "12"], "--p"),
    (["gen", "regular", "--n", "12"], "--d"),
    (["gen", "circulant", "--n", "9"], "--offsets"),
])
def test_gen_missing_flag_is_usage_error(argv, flag):
    code, out = run(argv + ["--json"])
    assert code == 2
    record = json.loads(out)
    assert record["record"] == "error" and record["error"].endswith("needs " + flag)


@pytest.mark.parametrize("argv,message", [
    (["gen", "circulant", "--n", "0", "--offsets", "1"], "n >= 1"),
    (["gen", "circulant", "--n", "-4", "--offsets", "1"], "n >= 1"),
    (["gen", "gnp", "--n", "-3", "--p", "0.5"], "n >= 0"),
    (["gen", "gnp", "--n", "5", "--p", "1.5"], "0 <= p <= 1"),
    (["gen", "gnp", "--n", "5", "--p", "-0.5"], "0 <= p <= 1"),
    (["gen", "gnp", "--n", "5", "--p", "nan"], "0 <= p <= 1"),
    (["gen", "circulant", "--n", "5", "--offsets", "1,x"],
     "--offsets must be comma-separated integers, got '1,x'"),
    (["gen", "circulant", "--n", "5", "--offsets", ""],
     "--offsets must be comma-separated integers, got ''"),
    (["gen", "circulant", "--n", "5", "--offsets", "5"],
     "offset 5 would create self-loops for n = 5"),
    # above the vertex limit of graph files, refused before any generating
    (["gen", "regular", "--n", str(MAX_VERTICES + 1), "--d", "0"],
     f"gen needs --n <= {MAX_VERTICES}, got {MAX_VERTICES + 1}"),
    (["gen", "gnp", "--n", str(10 ** 12), "--p", "0.5"], f"gen needs --n <= {MAX_VERTICES}"),
])
def test_gen_invalid_size_is_usage_error(argv, message):
    code, out = run(argv)
    assert code == 2
    assert out.count("\n") == 1 and out.startswith("error: ") and message in out
    code, out = run(argv + ["--json"])
    assert code == 2 and json.loads(out)["record"] == "error"


GOLDEN_SOLVE_KEYS = {
    "record": str, "feasible": bool, "k": int, "cover": list, "stats": dict,
}
GOLDEN_STATS_KEYS = {
    "nodes": int, "max_depth": int, "rule_counts": dict, "audit_records": int,
    "audit_violations": int, "selector_cases": dict, "selector_fallbacks": int,
    "component_nodes": int, "wall_ms": float,
}


def test_json_schema_golden(tmp_path):
    path = tmp_path / "pet.gr"
    path.write_text(render_graph(NAMED_GRAPHS["petersen"]()))
    code, out = run(["solve", str(path), "--k", "6", "--json"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    result = [r for r in records if r["record"] == "result"][0]
    assert set(result) == set(GOLDEN_SOLVE_KEYS)
    for key, typ in GOLDEN_SOLVE_KEYS.items():
        assert isinstance(result[key], typ), key
    stats = result["stats"]
    assert set(stats) == set(GOLDEN_STATS_KEYS)
    for key, typ in GOLDEN_STATS_KEYS.items():
        assert isinstance(stats[key], (int, float) if typ is float else typ), key
    inp = [r for r in records if r["record"] == "input"][0]
    assert set(inp) == {"record", "name", "n", "m", "digest"}
    cfg = [r for r in records if r["record"] == "config"][0]
    assert set(cfg) == {"record", "command", "algorithm", "budget"}


def test_json_stats_report_selector_cases(tmp_path):
    path = tmp_path / "c13.gr"
    path.write_text(render_graph(circulant(13, (1, 2, 3))))
    code, out = run(["optimize", str(path), "--algorithm", "level6", "--json"])
    assert code == 0
    stats = [json.loads(line) for line in out.splitlines()][-1]["stats"]
    assert stats["selector_fallbacks"] == 0
    assert sum(stats["selector_cases"].values()) == stats["nodes"] > 0


@pytest.mark.parametrize("flag", ["--threads", "--seed"])
def test_removed_solver_flags_are_usage_errors(tmp_path, flag):
    path = tmp_path / "pet.gr"
    path.write_text(render_graph(NAMED_GRAPHS["petersen"]()))
    assert run(["solve", str(path), "--k", "6", flag, "2"])[0] == 2
