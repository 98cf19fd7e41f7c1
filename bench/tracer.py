"""Span tracer that wraps calls into vcbranch from outside the program.

Each target is a module-level function or a class method of a vcbranch
module.  Functions are also bound by ``from .x import f`` in other
modules, so installing a wrapper rebinds every ``vcbranch.*`` module
global that holds the target function object, not only the defining
module's.  ``uninstall`` restores every binding.  A target that the
program no longer defines is reported as absent.

A span is (name, start, end, parent span index, instance id).  Spans stay
in memory until the run ends; ``summary`` turns them into per-name call
counts and self times (duration minus the time covered by child spans) and
``dump`` writes them out.  Time spent in the tracer's own hooks is recorded
as ``trace.hook`` spans so that it is not charged to the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

HOOK = "trace.hook"

Before = Callable[["Tracer", tuple, dict], None]
After = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    span: str             # span name, "<layer>.<what>"
    module: str           # defining module, e.g. "vcbranch.lp"
    attr: str             # "func" or "Class.method"
    before: Optional[Before] = None  # counter hook run before the call
    after: Optional[After] = None    # counter hook run on the result


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    instance: Optional[str] = None
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _bindings: list[tuple[Any, str, Any]] = field(default_factory=list)
    # per-solve scratch state for the hooks (graph keys, seen inputs)
    scratch: dict = field(default_factory=dict)

    # -- binding -------------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "vcbranch" or name.startswith("vcbranch."))]
        for target in targets:
            owner = sys.modules.get(target.module)
            cls_name, _, meth = target.attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, meth, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, original)
            if cls_name:
                self._rebind(owner, meth, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, original, wrapper)

    def _rebind(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        self._bindings.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._bindings:
            owner, name, original = self._bindings.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ---------------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.instance)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        clock = time.perf_counter
        name, before, after = target.span, target.before, target.after
        tracer = self

        def timed(span: str, call: Callable, *call_args):
            idx = tracer._open()
            start = clock()
            try:
                return call(*call_args)
            finally:
                tracer._close(idx, span, start, clock())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                timed(HOOK, before, tracer, args, kwargs)
            result = timed(name, lambda: fn(*args, **kwargs))
            if after is not None:
                timed(HOOK, after, tracer, args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def dump(self, path) -> None:
        """Write every span as a JSON list per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict[str, LayerStats]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, LayerStats] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            stats = out.setdefault(name, LayerStats())
            stats.calls += 1
            stats.total_s += end - start
            stats.self_s += end - start - covered[i]
        return out


def bound_wrappers() -> list[str]:
    """Names in vcbranch modules and classes still bound to a tracer wrapper."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "vcbranch" or name.startswith("vcbranch.")):
            continue
        for attr, value in vars(module).items():
            if getattr(value, "__wrapped_by_tracer__", False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    if getattr(fn, "__wrapped_by_tracer__", False):
                        found.append(f"{name}.{attr}.{meth}")
    return found
