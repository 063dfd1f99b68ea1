"""Span tracing around the public functions of each convact layer.

`Tracer.install()` replaces each traced function with a wrapper in every
convact module namespace that holds it (`convact.identities.sample` as well
as `convact.grid.sample`), because a module calls what its own globals hold.
`Trajectory.to_csv` is wrapped on the class. The per-node profile callbacks
handed to `grid.sample` are not traced. Spans are kept in memory.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute) pairs; the span name is "<module>.<attribute>"
TRACED = (
    ("grid", "sample"),
    ("grid", "convolve"),
    ("fracops", "frac_deriv"),
    ("fracops", "frac_integral"),
    ("identities", "run_identity_sweep"),
    ("identities", "ibp_residual"),
    ("models", "analytic_sdof"),
    ("models", "mdof_oracle"),
    ("models", "Trajectory.to_csv"),
    ("actions", "action_value"),
    ("actions", "action_variation"),
    ("actions", "el_residuals"),
    ("stationarity", "assemble"),
    ("stationarity", "solve_stationary"),
    ("stationarity", "convergence_study"),
    ("cli", "main"),
)

# spans whose traced children make self time differ from duration
CONTAINERS = {"cli.main", "stationarity.convergence_study", "identities.run_identity_sweep"}

# the root span the benchmark opens around each traced task
TASK = "task"

# returned objects kept per task, so that counts are read after timing
KEEP_RESULT = {"stationarity.assemble", "stationarity.solve_stationary"}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: int


class Tracer:
    """Records spans of the wrapped functions. Single-threaded: the open
    spans form one stack."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.task = -1
        self.results: dict[str, list] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self.stack
        keep = name in KEEP_RESULT

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = Span(name, start, end, parent, self.task)
            if keep:
                self.results[name].append(result)
            return result

        return wrapper

    def install(self):
        """Wrap every traced function wherever a convact module holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "convact" or n.startswith("convact.")]
        for mod_name, attr in TRACED:
            module = importlib.import_module(f"convact.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as the task root."""
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[span_id] = Span(name, start, end, parent, self.task)

    def take_results(self) -> dict[str, list]:
        out, self.results = self.results, defaultdict(list)
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_times(spans: list[Span], tasks: list[int]) -> dict[str, float]:
    """Median over `tasks` of each span name's summed self time per task;
    a name a task never reached counts 0 for that task."""
    per_task: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, self_times(spans)):
        per_task[s.name][s.task] += t
    return {
        name: statistics.median(by_task.get(task, 0.0) for task in tasks)
        for name, by_task in per_task.items()
    }


def span_counts(spans: list[Span], name: str, tasks: list[int]) -> float:
    """Median over `tasks` of how many `name` spans each task opened."""
    counts: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.name == name:
            counts[s.task] += 1
    return statistics.median(counts.get(task, 0) for task in tasks)
