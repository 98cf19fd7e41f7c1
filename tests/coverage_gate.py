"""Run tier-1 under a line tracer and compare the src/vcbranch statement
lines it never runs with tests/coverage_allow.txt.

    PYTHONPATH=src python tests/coverage_gate.py [pytest args...]

The tracer is stdlib sys.settrace, limited to the files of src/vcbranch
(__main__.py left out), and tier-1 runs in this process so that imports
are traced too; tests that start a subprocess are not.  An allowlist entry
is one line

    <file>::<function>::<source text>  # <reason>

keyed by the enclosing function's qualified name (<module> at top level)
and the statement's first source line, stripped and without its comment,
never by line number.  A statement that appears n times in one function
and never runs needs n entries.  The gate fails on an unrun statement that
is not listed and on a stale entry (its statement now runs or is gone), so
the list can only shrink.  Exit codes: 0 pass, 1 gate failure, 2 when
tier-1 itself fails.
"""

from __future__ import annotations

import ast
import io
import sys
import threading
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vcbranch"
ALLOW = ROOT / "tests" / "coverage_allow.txt"


def _source_text(lines: list[str], lineno: int) -> str:
    """Line lineno (1-based), stripped, with any trailing comment removed."""
    line = lines[lineno - 1]
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(line).readline))
    except (tokenize.TokenError, SyntaxError):  # a line inside a bracket or string
        return line.strip()
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            return line[:tok.start[1]].strip()
    return line.strip()


def statements(path: Path) -> dict[int, tuple[str, str]]:
    """lineno -> (qualname, source text) for each statement of a file that
    compiles to code: docstrings and global/nonlocal declarations have none."""
    src = path.read_text()
    lines = src.splitlines()
    out: dict[int, tuple[str, str]] = {}

    def visit(body: list[ast.stmt], qualname: str) -> None:
        for i, node in enumerate(body):
            if (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            out.setdefault(node.lineno, (qualname, _source_text(lines, node.lineno)))
            inner = qualname
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if qualname == "<module>" else f"{qualname}.{node.name}"
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)
            for case in getattr(node, "cases", []):
                visit(case.body, inner)

    visit(ast.parse(src).body, "<module>")
    return out


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in this process with the tracer on; its exit code and the
    lines run per traced file."""
    import pytest

    files = {str(p): p.name for p in PACKAGE.glob("*.py") if p.name != "__main__.py"}
    hits: dict[str, set[int]] = {name: set() for name in files.values()}

    def local_for(seen: set[int]):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = files.get(frame.f_code.co_filename)
        return None if name is None else local_for(hits[name])

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def read_allow() -> tuple[Counter, list[str]]:
    """The allowlist as a multiset of (file, qualname, text), and the
    malformed lines."""
    allowed: Counter = Counter()
    bad = []
    for n, line in enumerate(ALLOW.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        key, sep, reason = line.rpartition("  # ")
        parts = key.split("::", 2)
        if not sep or not reason.strip() or len(parts) != 3:
            bad.append(f"{ALLOW.name}:{n}: want <file>::<function>::<source text>  # <reason>")
            continue
        allowed[tuple(parts)] += 1
    return allowed, bad


def main(argv: list[str]) -> int:
    code, hits = run_traced(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    if code != 0:
        print(f"coverage gate: tier-1 failed (pytest exit {code})")
        return 2
    unrun: Counter = Counter()
    where: dict[tuple[str, str, str], list[int]] = {}
    for name, seen in sorted(hits.items()):
        for lineno, (qualname, text) in sorted(statements(PACKAGE / name).items()):
            if lineno not in seen:
                key = (name, qualname, text)
                unrun[key] += 1
                where.setdefault(key, []).append(lineno)
    allowed, errors = read_allow()
    unlisted = sorted((key[0], lineno, key) for key in unrun - allowed
                      for lineno in where[key][-(unrun[key] - allowed[key]):])
    for name, lineno, key in unlisted:
        errors.append(f"src/vcbranch/{name}:{lineno} never runs and is not listed: "
                      f"{'::'.join(key)}")
    for key in sorted(allowed - unrun):
        errors.append(f"stale entry (runs now, or is gone): {'::'.join(key)}")
    print(f"coverage gate: {sum(unrun.values())} statement lines never run; "
          f"{sum(allowed.values())} allowlist entries")
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
