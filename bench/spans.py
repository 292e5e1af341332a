"""Outside-in spans and counters around the public functions of ``tie``.

A probe replaces one public function or method of the package with a wrapper
and restores the original when the probe set is closed; nothing under
``src/`` changes. Modules import each other's functions by name
(``from .codec import decode``), so a function's wrapper is bound into every
loaded ``tie`` module that holds the same function object, and calls made
through any of those names are seen.

A probe whose target no longer exists (renamed or removed) is recorded as
absent instead of failing, so the metrics derived from it can be reported as
absent by name while everything else keeps working.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "tie"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None   # index of the enclosing span in Tracer.spans
    records: int = 0            # tape records made while the span was open


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0        # inclusive wall time
    self_s: float = 0.0         # wall time not covered by child spans
    records: int = 0            # inclusive tape records


class Tracer:
    """In-memory span recorder; spans nest in call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.records = 0        # running count, advanced by the record probe
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent, records=self.records))
        self._open.append(idx)
        return idx

    def close(self, idx: int):
        span = self.spans[idx]
        span.end = self.clock()
        span.records = self.records - span.records
        if self._open.pop() != idx:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span called ``name``; ``on_result`` sees each
        return value."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counting(self, fn):
        """``fn`` advancing the tape-record counter by one per call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.records += 1
            return fn(*args, **kwargs)
        return wrapper


def summarize(spans, keep=None) -> dict:
    """Per-name call count, inclusive time, self time and records.

    Self time is a span's duration minus the durations of its direct
    children; a name's totals sum over all its spans, or over those whose
    ``keep`` flag is set.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    out: dict[str, Totals] = {}
    for i, s in enumerate(spans):
        if keep is not None and not keep[i]:
            continue
        t = out.setdefault(s.name, Totals())
        duration = s.end - s.start
        t.calls += 1
        t.total_s += duration
        t.self_s += duration - child_s[i]
        t.records += s.records
    return out


def _resolve(target: str):
    """'model.Parameters.grads' -> (owner object, attribute name, original)."""
    module_name, *path = target.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = inspect.getattr_static(owner, path[-1], None)
    if not inspect.isfunction(original):
        return None
    return owner, path[-1], original


class Probes:
    """A set of installed wrappers; use as a context manager."""

    def __init__(self):
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    def install(self, target: str, make_wrapper) -> bool:
        """Wrap ``target`` ('module.func' or 'module.Class.method') with
        ``make_wrapper(original)``. Returns False, and records the target as
        absent, when it does not exist."""
        found = _resolve(target)
        if found is None:
            self.absent.append(target)
            return False
        owner, attr, original = found
        wrapper = make_wrapper(original)
        if inspect.isclass(owner):
            self._bind(owner, attr, wrapper)
            return True
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._bind(module, key, wrapper)
        return True

    def _bind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, wrapper)

    def close(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc):
        self.close()
        return False
