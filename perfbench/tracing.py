"""Layer tracing from outside the program.

The tracer never edits nmfrigid: it replaces public functions under the
names each module imported them (``rigidity.rank``, ``cli.certify``,
``cone.lp_feasible`` ...) with wrappers, and puts the originals back when
it is uninstalled.  While an operation runs, each wrapped call records a
span (name, start, end, parent, operation id) kept in memory.  Hot leaves
(exact elimination and the simplex) get no span of their own: their count,
time and matrix size are added to the enclosing span, so the 30,000 subset
rank tests of a Kruskal search cost one dict update each.

Self time of a span is its duration minus the time covered by its child
spans and leaves; since everything runs in one thread, children never
overlap, so that is a plain subtraction.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from nmfrigid import cli, cone, cpr, formats, patterns, realize, rigidity

_clock = time.perf_counter

# (module, attribute, span name).  One span name may sit behind several
# import sites: the same function imported into two modules.
SPANS = (
    (cli, "certify", "rigidity.certify"),
    (realize, "certify", "rigidity.certify"),
    (cli, "certify_cp", "cpr.certify"),
    (cli, "realize_pattern", "realize.search"),
    (cli, "lift_partially_rigid", "realize.lift"),
    (cli, "enumerate_patterns", "patterns.enumerate"),
    (cli, "check_wpoint", "patterns.filters"),
    (realize, "check_wpoint", "patterns.filters"),
    (patterns, "forces_product_zero", "patterns.filters"),
    (patterns, "check_zero_rectangles", "patterns.filters"),
    (formats, "load_factorization", "formats.parse"),
    (formats, "load_symmetric_factor", "formats.parse"),
    (formats, "load_pattern", "formats.parse"),
    (formats, "certificate_to_document", "formats.document"),
    (formats, "dump_json", "formats.document"),
    (formats, "dump_factorization", "formats.document"),
    (rigidity, "_certify_generators", "rigidity.certify_generators"),
    (cpr, "_certify_generators", "rigidity.certify_generators"),
    (realize, "is_infinitesimally_rigid", "rigidity.accept_test"),
    (rigidity, "build_dual_generators", "rigidity.generators"),
    (realize, "build_dual_generators", "rigidity.generators"),
    (cpr, "build_skew_generators", "cpr.generators"),
    (rigidity, "zero_in_relative_interior", "rigidity.relint"),
    (rigidity, "lineality_dimension", "rigidity.lineality"),
    (rigidity, "_zero_diagonal_slice_basis", "rigidity.vslice"),
    (rigidity, "_squares_to_zero", "rigidity.vslice"),
    (rigidity, "kruskal_rank_of_columns", "rigidity.kruskal"),
)


def _matrix_cells(m, *_):
    return m.rows * m.cols


def _tableau_cells(equalities, *_):
    return equalities.rows * (equalities.cols + equalities.rows + 1)


# (module, attribute, leaf name, size of the work from the arguments).
LEAVES = (
    (rigidity, "rank", "exactlin.rank", _matrix_cells),
    (realize, "rank", "exactlin.rank", _matrix_cells),
    (cone, "rank", "exactlin.rank", _matrix_cells),
    (cpr, "rank", "exactlin.rank", _matrix_cells),
    (rigidity, "nullspace_basis", "exactlin.nullspace", _matrix_cells),
    (cone, "lp_feasible", "cone.lp", _tableau_cells),
    (realize, "lp_feasible", "cone.lp", _tableau_cells),
)


@dataclass
class Span:
    id: int
    op: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    tag: str | None = None
    # leaf name -> [calls, seconds, cells, calls that returned None]
    leaves: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Install with `install()`, wrap each operation in `operation()`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- instrumentation -------------------------------------------------

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, self._span_wrapper(name, getattr(module, attr)))
        for module, attr, name, size in LEAVES:
            self._patch(module, attr, self._leaf_wrapper(name, getattr(module, attr), size))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), self._op, parent, name, _clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            if name == "patterns.enumerate":
                span.tag = f"{args[0]}x{args[1]}"
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if name == "patterns.enumerate":
                span.leaves["reps"] = [len(result), 0.0, 0, 0]
            return result

        return wrapper

    def _leaf_wrapper(self, name: str, fn, size):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            t0 = _clock()
            result = fn(*args, **kwargs)
            dt = _clock() - t0
            parent = stack[-1]
            parent.child_s += dt
            acc = parent.leaves.get(name)
            if acc is None:
                acc = parent.leaves[name] = [0, 0.0, 0, 0]
            acc[0] += 1
            acc[1] += dt
            acc[2] += size(*args)
            if result is None:
                acc[3] += 1
            return result

        return wrapper

    # -- operations ------------------------------------------------------

    def operation(self, call):
        """Run `call()` as one operation under a root span named cli.main."""
        self._op += 1
        span = self._open("cli.main")
        try:
            return call()
        finally:
            self._close(span)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "id": s.id,
                "op": s.op,
                "parent": s.parent,
                "name": s.name,
                "tag": s.tag,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                "error": s.error,
                "leaves": s.leaves,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

LAYERS = ("exactlin", "cone", "rigidity", "cpr", "realize", "patterns", "formats", "cli")
SHAPES = ("5x5", "6x5", "6x6", "7x5", "7x6", "8x5", "9x5")

# name -> (unit, better).  Times are seconds of the traced pass; a layer a
# workload never reaches reads 0 s.  The cone layer's self time is all
# simplex time, so it is reported once, as cone.lp.self_s.
PER_LAYER = {
    "exactlin.self_s": ("s", "lower"),
    "exactlin.rank.calls": ("count", "lower"),
    "exactlin.rank.self_s": ("s", "lower"),
    "exactlin.elim_cells": ("count", "lower"),
    "cone.lp.calls": ("count", "lower"),
    "cone.lp.self_s": ("s", "lower"),
    "cone.lp.infeasible_ratio": ("ratio", "lower"),
    "cone.lp.tableau_cells": ("count", "lower"),
    "rigidity.self_s": ("s", "lower"),
    "rigidity.generators_s": ("s", "lower"),
    "rigidity.span_rank_s": ("s", "lower"),
    "rigidity.relint_s": ("s", "lower"),
    "rigidity.lineality_s": ("s", "lower"),
    "rigidity.vslice_s": ("s", "lower"),
    "rigidity.kruskal_s": ("s", "lower"),
    "rigidity.kruskal.subsets": ("count", "lower"),
    "cpr.self_s": ("s", "lower"),
    "cpr.generators_s": ("s", "lower"),
    "realize.self_s": ("s", "lower"),
    "realize.samples": ("count", "lower"),
    "realize.accept_ratio": ("ratio", "higher"),
    "realize.rank_calls_per_sample": ("count", "lower"),
    "realize.lift_s": ("s", "lower"),
    "realize.lift_failures": ("count", "lower"),
    "patterns.self_s": ("s", "lower"),
    **{f"patterns.enumerate_s.{s}": ("s", "lower") for s in SHAPES},
    "patterns.filters_s": ("s", "lower"),
    "patterns.reps": ("count", "higher"),
    "formats.self_s": ("s", "lower"),
    "formats.parse_s": ("s", "lower"),
    "formats.document_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.certify_calls": ("count", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ancestors(spans: list[Span], span: Span):
    while span.parent is not None:
        span = spans[span.parent]
        yield span


def layer_metrics(
    tracer: Tracer, samples: int, accepted: int, traced_s: float, untraced_s: float
) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of one traced pass.

    `samples` and `accepted` are the realization draws and successful
    searches, counted by the benchmark's own replay of each search.
    """
    spans = tracer.spans

    def stage(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    leaf = defaultdict(lambda: [0, 0.0, 0, 0])
    layer_self = defaultdict(float)
    span_rank_s = 0.0
    subsets = 0
    search_ranks = 0
    for s in spans:
        layer_self[s.name.split(".")[0]] += s.self_s
        for name, (calls, secs, cells, nones) in s.leaves.items():
            acc = leaf[name]
            acc[0] += calls
            acc[1] += secs
            acc[2] += cells
            acc[3] += nones
            if name != "reps":
                layer_self[name.split(".")[0]] += secs
        ranks = s.leaves.get("exactlin.rank", (0, 0.0))
        if s.name in ("rigidity.certify_generators", "rigidity.accept_test"):
            span_rank_s += ranks[1]
        if s.name == "rigidity.kruskal" and ranks[0]:
            subsets += ranks[0] - 1  # the first call ranks the whole matrix
        if ranks[0] and (
            s.name == "realize.search"
            or any(a.name == "realize.search" for a in _ancestors(spans, s))
        ):
            search_ranks += ranks[0]

    rank, lp = leaf["exactlin.rank"], leaf["cone.lp"]
    out = {
        "exactlin.rank.calls": rank[0],
        "exactlin.rank.self_s": rank[1],
        "exactlin.elim_cells": rank[2] + leaf["exactlin.nullspace"][2],
        "cone.lp.calls": lp[0],
        "cone.lp.self_s": lp[1],
        "cone.lp.infeasible_ratio": lp[3] / lp[0] if lp[0] else 0.0,
        "cone.lp.tableau_cells": lp[2],
        "rigidity.generators_s": stage("rigidity.generators"),
        "rigidity.span_rank_s": span_rank_s,
        "rigidity.relint_s": stage("rigidity.relint"),
        "rigidity.lineality_s": stage("rigidity.lineality"),
        "rigidity.vslice_s": stage("rigidity.vslice"),
        "rigidity.kruskal_s": stage("rigidity.kruskal"),
        "rigidity.kruskal.subsets": subsets,
        "cpr.generators_s": stage("cpr.generators"),
        "realize.samples": samples,
        "realize.accept_ratio": accepted / samples if samples else 0.0,
        "realize.rank_calls_per_sample": search_ranks / samples if samples else 0.0,
        "realize.lift_s": stage("realize.lift"),
        "realize.lift_failures": sum(
            1 for s in spans if s.name == "realize.lift" and s.error == "LiftInfeasibleError"
        ),
        "patterns.filters_s": stage("patterns.filters"),
        "patterns.reps": leaf["reps"][0],
        "formats.parse_s": stage("formats.parse"),
        "formats.document_s": stage("formats.document"),
        "cli.certify_calls": sum(1 for s in spans if s.name == "rigidity.certify"),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    for shape in SHAPES:
        out[f"patterns.enumerate_s.{shape}"] = sum(
            s.duration for s in spans if s.name == "patterns.enumerate" and s.tag == shape
        )
    for layer in LAYERS:
        out.setdefault(f"{layer}.self_s", layer_self[layer])
    return {name: out[name] for name in PER_LAYER}


def hot_spots(tracer: Tracer, limit: int = 6) -> list[tuple[str, float]]:
    """Largest self times as (span or leaf@parent, seconds), largest first."""
    acc = defaultdict(float)
    for s in tracer.spans:
        acc[s.name] += s.self_s
        for name, (_, secs, _, _) in s.leaves.items():
            if name != "reps":
                acc[f"{name}@{s.name}"] += secs
    return sorted(acc.items(), key=lambda kv: -kv[1])[:limit]
