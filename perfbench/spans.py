"""In-process tracing for the per-layer metrics.

The package has no tracing of its own, so the traced run rebinds names in
the package's modules to wrappers that record a span (name, start, end,
parent) or bump a counter, runs the CLI's ``main`` in process, and puts the
original functions back.  A wrapper is installed where the caller looks the
name up, e.g. ``report.triple_counts`` for the call inside
``analysis_report``, so spans nest the way the calls do and a span's self
time is its duration minus its children's.  Names missing from a module are
skipped, so the benchmark still runs after the package is refactored.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

from circledepth import checks, cli, constructions, depth, report

# (module, attribute, span name).  Each call through that binding records one
# span.  The same function is listed once per module that calls it.
SPANS = [
    (cli, "parse_point_file", "pointfile.parse"),
    (cli, "validate_general_position", "geom.certify"),
    (constructions, "validate_general_position", "geom.certify"),
    (cli, "analysis_report", "report.analysis"),
    (cli, "render_json", "report.render_json"),
    (cli, "run_checks", "checks.run"),
    (cli, "two_colored_convex", "constructions.two_colored_convex"),
    (constructions, "claim_failures", "constructions.claims"),
    (report, "all_profiles", "depth.sweep"),
    (checks, "all_profiles", "depth.sweep"),
    (depth, "all_profiles", "depth.sweep"),
    (report, "triple_counts", "depth.triple_counts"),
    (checks, "triple_counts", "depth.triple_counts"),
    (report, "j_edge_counts", "depth.j_edges"),
    (checks, "j_edge_counts", "depth.j_edges"),
    (depth, "j_edge_counts", "depth.j_edges"),
    (report, "segment_weight_census", "depth.census"),
    (checks, "segment_weight_census", "depth.census"),
    (report, "maximin_pair", "depth.extremal"),
    (report, "minimax_pair", "depth.extremal"),
    (checks, "minimax_pair", "depth.extremal"),
    (report, "bichromatic_maximin", "depth.bichromatic"),
    (checks, "bichromatic_weight_census", "depth.bichromatic"),
    (checks, "bichromatic_triple_counts", "depth.bichromatic"),
    (checks, "bichromatic_directed_j", "depth.bichromatic"),
]

# (module, attribute, counter name): calls counted without a span, because
# these sit in inner loops where a span would cost more than the call.
COUNTERS = [
    (depth, "weight_sequence", "weight_sequence"),
    (depth, "_incircle_det_int", "incircle"),
    (checks, "oracle_weights", "oracle_weights"),
]


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    stack: list[int] = field(default_factory=list)

    def span_wrapper(self, fn, name: str):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(name, perf_counter(), self.stack[-1] if self.stack else None))
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index].end = perf_counter()
            self._observe(name, result)
            return result

        return traced

    def count_wrapper(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe(self, name: str, result) -> None:
        if name == "depth.sweep":
            self.counts["events"] += sum(len(profile.events) for profile in result)
            self.counts["sweeps"] += 1
        elif name == "geom.certify" and self.stack and (
            self.spans[self.stack[-1]].name == "constructions.two_colored_convex"
        ):
            self.counts["layouts_tried"] += 1
            if not result:
                self.counts["layouts_certified"] += 1

    @contextmanager
    def installed(self):
        """Rebind every listed name to its wrapper; restore them on exit."""
        restore = []
        try:
            for table, wrap in ((SPANS, self.span_wrapper), (COUNTERS, self.count_wrapper)):
                for module, attr, name in table:
                    if hasattr(module, attr):
                        original = getattr(module, attr)
                        restore.append(partial(setattr, module, attr, original))
                        setattr(module, attr, wrap(original, name))
            for check, fn in list(checks.CHECKS.items()):
                restore.append(partial(checks.CHECKS.__setitem__, check, fn))
                checks.CHECKS[check] = self.span_wrapper(fn, f"checks.{check}")
            yield self
        finally:
            for undo in reversed(restore):
                undo()

    def busy(self, name: str) -> float:
        """Summed duration of ``name`` spans not nested in another ``name`` span."""
        return sum(
            span.duration
            for span in self.spans
            if span.name == name
            and not any(self.spans[a].name == name for a in self._ancestors(span))
        )

    def calls_within(self, name: str, outer: str) -> int:
        """Number of ``name`` spans nested in some ``outer`` span."""
        return sum(
            1
            for span in self.spans
            if span.name == name and any(self.spans[a].name == outer for a in self._ancestors(span))
        )

    def children_time(self, index: int) -> float:
        return sum(s.duration for s in self.spans if s.parent == index)

    def indices(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def _ancestors(self, span: Span):
        parent = span.parent
        while parent is not None:
            yield parent
            parent = self.spans[parent].parent
