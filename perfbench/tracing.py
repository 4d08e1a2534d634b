"""Spans around the calls into each aoisched layer, recorded from outside the package.

The CLI binds its callees with ``from ... import``, and ``solver.py`` and
``oracle.py`` bind ``CostTable`` the same way, so a function is wrapped at
every module attribute the program actually calls it through (``BINDINGS``).
``LossSurface.eval`` runs millions of times per command and is not wrapped;
its call count is computed from the configuration instead (``cycles.lookups``).

Spans are kept in memory and only recorded while a command root span is open,
so the benchmark's own checks, which call the same functions, leave no spans.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name); a name may be bound in several modules
BINDINGS = (
    ("aoisched.cli", "generate_surface", "surface.generate"),
    ("aoisched.cli", "load_surface", "surface.load"),
    ("aoisched.cli", "save_surface", "surface.save"),
    ("aoisched.cli", "CostTable", "cycles.cost_table"),
    ("aoisched.solver", "CostTable", "cycles.cost_table"),
    ("aoisched.oracle", "CostTable", "cycles.cost_table"),
    ("aoisched.cli", "build_index_table", "solver.index_table"),
    ("aoisched.solver", "build_index_table", "solver.index_table"),
    ("aoisched.cli", "solve_threshold", "solver.solve_threshold"),
    # compare_policies imports solve_threshold from .solver at call time
    ("aoisched.solver", "solve_threshold", "solver.solve_threshold"),
    ("aoisched.cli", "g_value", "solver.g_value"),
    ("aoisched.cli", "tau_opt", "solver.tau_opt"),
    # _g and solve_threshold call tau_opt through solver's own globals
    ("aoisched.solver", "tau_opt", "solver.tau_opt"),
    ("aoisched.cli", "brute_force_optimal", "oracle.brute_force"),
    ("aoisched.cli", "verify_bellman", "oracle.bellman"),
    ("aoisched.cli", "run", "sim.run"),
    ("aoisched.sim", "run", "sim.run"),
    ("aoisched.cli", "compare_policies", "sim.compare"),
    ("aoisched.cli", "write_trace_csv", "sim.write_trace"),
    ("aoisched.cli", "write_transmissions_csv", "sim.write_tx"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: int
    children_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "command": self.command, "self_s": self.self_s,
                "counts": self.counts}


def _lookups(config) -> int:
    # surface.eval calls of one CostTable: every slot of every half-cycle,
    # sum over tau = 0..tau_max of cycle_duration for both modalities
    n = config.tau_max + 1
    return (config.t1 + config.t2) * (n + n * (n - 1) // 2)


def _count(name: str, args, result) -> dict:
    """Exact work counts for one call, from its arguments and its result."""
    if name == "cycles.cost_table":
        return {"lookups": _lookups(args[1])}
    if name == "solver.solve_threshold":
        return {"iterations": result.iterations}
    if name == "oracle.brute_force":
        return {"pairs": (args[1].tau_max + 1) ** 2}
    if name == "sim.run":
        return {"slots": result.slots, "clamps": result.summary.clamp_count,
                "transmissions": len(result.transmissions)}
    if name == "surface.load":
        return {"bytes": os.path.getsize(args[0])}
    if name in ("surface.save", "sim.write_trace", "sim.write_tx"):
        return {"bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._command = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    None if parent is None else parent.id, self._command)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].children_s += span.duration

    @contextmanager
    def command(self, kind: str):
        """Root span of one CLI command; spans are recorded only inside one."""
        self._command += 1
        span = self._open(f"cli.{kind}")
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.counts = _count(name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every binding in BINDINGS for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def summarize(spans: list[Span]) -> dict:
    """Totals per span name: calls, seconds, self seconds and summed counts."""
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                "counts": Counter()})
    for span in spans:
        entry = out[span.name]
        entry["calls"] += 1
        entry["s"] += span.duration
        entry["self_s"] += span.self_s
        entry["counts"].update(span.counts)
    return dict(out)
