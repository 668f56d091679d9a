"""In-memory spans and counters for traced passes, and the per-layer metrics
derived from them.

A span records one call into a layer: name, start, end, parent span and
pass id.  Spans are opened by the benchmark's own code around the calls it
makes, and by wrappers it installs on the names ``netspread.experiments``
looks up at call time; nothing inside ``src/`` is changed.  A layer's self
time is its spans' durations minus the part covered by their child spans.
"""
from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# Every per-layer metric, in report order, with its unit.  ``<layer>.<op>_s``
# metrics are self times of the span of that name unless noted otherwise.
PER_LAYER = (
    ("graphs.generate_s", "s"),
    ("graphs.csr_s", "s"),
    ("graphs.edges", "count"),
    ("graphs.save_s", "s"),
    ("meanfield.links_s", "s"),
    ("meanfield.links_directed_s", "s"),
    ("meanfield.run_s", "s"),
    ("meanfield.steps", "count"),
    ("meanfield.ns_per_node_step", "ns"),
    ("meanfield.failed_runs", "count"),
    ("meanfield.violations", "count"),
    ("spectral.score_s", "s"),
    ("spectral.score_directed_s", "s"),
    ("spectral.scores", "count"),
    ("montecarlo.ensemble_s", "s"),
    ("montecarlo.ns_per_node_step", "ns"),
    ("montecarlo.write_s", "s"),
    ("isolation.greedy_s", "s"),
    ("isolation.ms_per_edge", "ms"),
    ("isolation.eigensolves", "count"),
    ("ode.integrate_s", "s"),
    ("ode.us_per_step", "us"),
    ("experiments.sweep_s", "s"),
    ("experiments.self_s", "s"),
    ("experiments.write_s", "s"),
    ("experiments.points", "count"),
    ("experiments.point_errors", "count"),
    ("experiments.bytes_written", "bytes"),
    ("experiments.identical_files", "count"),
    ("bench.inputs_s", "s"),  # building and freeing inputs inside a pass
    ("proc.cpu_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)

# Span names whose self time is reported directly as ``<name>_s``.
_SELF_TIMED = (
    "graphs.generate", "graphs.csr", "graphs.save",
    "meanfield.links", "meanfield.links_directed", "meanfield.run",
    "spectral.score", "spectral.score_directed",
    "montecarlo.ensemble", "montecarlo.write",
    "isolation.greedy", "ode.integrate", "experiments.write", "bench.inputs",
)

# Counters reported as they are.
_COUNTED = (
    "graphs.edges", "meanfield.steps", "meanfield.failed_runs",
    "meanfield.violations", "spectral.scores", "isolation.eigensolves",
    "experiments.points", "experiments.point_errors",
    "experiments.bytes_written", "experiments.identical_files",
)


class Span:
    __slots__ = ("id", "name", "parent", "pass_id", "start", "end")

    def __init__(self, span_id: int, name: str, parent: int | None, pass_id: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "pass": self.pass_id, "start": self.start, "end": self.end,
        }


class Tracer:
    """Records spans and counters for the passes of one run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.pass_id = -1
        self._stack: list[Span] = []

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts[pass_id] = defaultdict(float)

    @property
    def innermost(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.pass_id)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counts[self.pass_id][counter] += value


class NullTracer:
    """Stand-in for untraced passes: spans and counters cost one call."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def add(self, counter: str, value: float) -> None:
        pass


NULL = NullTracer()


def pass_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the ``proc``/``trace.overhead`` ones)."""
    spans = [sp for sp in tracer.spans if sp.pass_id == pass_id]
    child_time: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.duration
    self_time: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for sp in spans:
        self_time[sp.name] += sp.duration - child_time[sp.id]
        inclusive[sp.name] += sp.duration
    counts = tracer.counts[pass_id]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {f"{name}_s": self_time[name] for name in _SELF_TIMED}
    m.update({name: counts[name] for name in _COUNTED})
    m["meanfield.ns_per_node_step"] = ratio(
        counts["meanfield.ok_s"] * 1e9, counts["meanfield.node_steps"]
    )
    m["montecarlo.ns_per_node_step"] = ratio(
        inclusive["montecarlo.ensemble"] * 1e9, counts["montecarlo.node_steps"]
    )
    m["isolation.ms_per_edge"] = ratio(
        inclusive["isolation.greedy"] * 1e3, counts["isolation.edges_removed"]
    )
    m["ode.us_per_step"] = ratio(inclusive["ode.integrate"] * 1e6, counts["ode.steps"])
    m["experiments.sweep_s"] = inclusive["experiments.sweep"]
    m["experiments.self_s"] = (
        self_time["experiments.sweep"] + self_time["experiments.figures"]
    )
    m["trace.unaccounted_s"] = self_time["pass"]
    return m
