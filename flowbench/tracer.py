"""Spans around calls into flowcbr's public functions, from outside src/.

A probe names one public function or method. Installing it wraps the target
at every place its name is bound: ``cli``, ``harness`` and ``forest`` import
``classify``, ``extract_matrix`` and others by name, so patching only the
defining module would miss their calls. Methods are wrapped on their class.
A probe whose target no longer exists is reported as missing and skipped.
Install only after every module that binds a target has been imported.

Each call records a span (name, start, end, parent, run id, flow ordinal)
in memory. Calls of per-flow probes number the flows of a run; spans below
them carry that ordinal. Observers attached to a probe read counts from the
call's arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    ordinal: int | None = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` that have no ancestor of the same name.

    Summing these gives busy time without counting recursion twice.
    """
    by_id = {s.id: s for s in spans}
    found = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_id[p].name != name:
            p = by_id[p].parent
        if p is None:
            found.append(s)
    return found


class Tracer:
    """Span recorder; one per process, installed around flowcbr calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.missing: list[str] = []
        self.run = ""
        self._stack: list[Span] = []
        self._next_ordinal = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def start_run(self, run: str) -> None:
        self.run = run
        self._next_ordinal = 0

    def count(self, key: str, n: float = 1) -> None:
        counters = self.counters.setdefault(self.run, {})
        counters[key] = counters.get(key, 0) + n

    def set(self, key: str, value: float) -> None:
        self.counters.setdefault(self.run, {})[key] = value

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(self.run, {}).setdefault(key, []).append(value)

    def totals(self, runs: set[str]) -> dict[str, float]:
        """Counters summed over the given run ids."""
        out: dict[str, float] = {}
        for run in runs:
            for key, value in self.counters.get(run, {}).items():
                out[key] = out.get(key, 0) + value
        return out

    def samples_of(self, runs: set[str], key: str) -> list[float]:
        return [v for run in sorted(runs) for v in self.samples.get(run, {}).get(key, ())]

    @contextlib.contextmanager
    def span(self, name: str, per_flow: bool = False):
        """Record the ``with`` block as one span."""
        s = self._open(name, per_flow)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name: str, per_flow: bool) -> Span:
        parent = self._stack[-1] if self._stack else None
        ordinal = parent.ordinal if parent is not None else None
        if per_flow and ordinal is None:
            ordinal = self._next_ordinal
            self._next_ordinal += 1
        s = Span(len(self.spans), name, time.perf_counter(), 0.0,
                 parent.id if parent is not None else None, self.run, ordinal)
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    # -- installation ----------------------------------------------------

    def install(self, probes) -> None:
        for probe in probes:
            note = f"{probe.name} ({probe.target})"
            if not self._install_one(probe) and note not in self.missing:
                self.missing.append(note)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install_one(self, probe) -> bool:
        module_name, _, qualname = probe.target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner = module
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        attr = parts[-1]
        if inspect.isclass(owner):
            try:
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, probe))
            elif callable(raw):
                wrapped = self._wrap(raw, probe)
            else:
                return False
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return True
        target = getattr(owner, attr, None)
        if not callable(target):
            return False
        wrapped = self._wrap(target, probe)
        package = module_name.split(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is target:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapped)
        return True

    def _wrap(self, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer._open(probe.name, probe.per_flow)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if probe.observe is not None:
                try:
                    probe.observe(tracer, s, args, result)
                except (AttributeError, TypeError, IndexError, OSError) as exc:
                    prefix = f"{probe.name} observer"
                    if not any(m.startswith(prefix) for m in tracer.missing):
                        tracer.missing.append(f"{prefix}: {type(exc).__name__}: {exc}")
            return result

        return wrapper

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

