"""In-memory spans around rankfair's public functions, installed from outside.

The tracer never edits rankfair's source. It replaces a function in the
namespace of the module that calls it (``rankfair.metrics.cumulative_exposure``
is what ``awrf`` looks up), so only calls made through that name are traced.
A site whose attribute no longer exists is skipped and reported as missing;
its metrics then read zero.

Each span is a tuple ``(id, parent, name, thread, start, end, cpu, error,
extra)``. ``parent`` is the id of the innermost open span on the same thread,
``cpu`` is the thread CPU time spent inside the span, and ``extra`` is a
work count computed from the call's arguments (ranked positions weighted).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from time import perf_counter, thread_time

#: (module whose namespace holds the name, attribute, span name).
SITES = (
    ("rankfair.cli", "parse_run", "ingest.parse_run"),
    ("rankfair.cli", "parse_annotations", "ingest.parse_annotations"),
    ("rankfair.cli", "parse_qrels", "ingest.parse_qrels"),
    ("rankfair.cli", "write_run", "ingest.write"),
    ("rankfair.cli", "write_annotations", "ingest.write"),
    ("rankfair.cli", "write_qrels", "ingest.write"),
    ("rankfair.cli", "generate_testbed", "simulate.generate_testbed"),
    ("rankfair.cli", "evaluate_runset", "metrics.evaluate_runset"),
    ("rankfair.cli", "correlation_report", "stats.correlation_report"),
    ("rankfair.cli", "reports_to_csv", "metrics.serialize"),
    ("rankfair.cli", "aggregates_to_csv", "metrics.serialize"),
    ("rankfair.cli", "reports_to_json", "metrics.serialize"),
    ("rankfair.cli", "correlation_to_csv", "metrics.serialize"),
    ("rankfair.cli", "correlation_to_json", "metrics.serialize"),
    ("rankfair.simulate", "generate_testbed", "simulate.generate_testbed"),
    ("rankfair.simulate", "apply_confusion", "simulate.apply_confusion"),
    ("rankfair.simulate", "evaluate_runset", "metrics.evaluate_runset"),
    ("rankfair.simulate", "pearson", "stats.pearson"),
    ("rankfair.simulate", "spearman", "stats.spearman"),
    ("rankfair.stats", "pearson", "stats.pearson"),
    ("rankfair.stats", "spearman", "stats.spearman"),
    ("rankfair.metrics", "evaluate_runset", "metrics.evaluate_runset"),
    ("rankfair.metrics", "intersect_tables", "core.intersect_tables"),
    ("rankfair.metrics", "target_from_qrels", "exposure.target"),
    ("rankfair.metrics", "awrf", "metrics.awrf"),
    ("rankfair.metrics", "cumulative_exposure", "exposure.cumulative"),
    ("rankfair.metrics", "kl_divergence", "metrics.divergence"),
    ("rankfair.metrics", "js_divergence", "metrics.divergence"),
    ("rankfair.metrics", "ee_metrics", "metrics.ee_metrics"),
    ("rankfair.exposure", "expected_group_exposure", "exposure.ee"),
    ("rankfair.exposure", "target_group_exposure", "exposure.target"),
)


def _positions(args, kwargs) -> int:
    """Ranked positions ``cumulative_exposure`` weights: length capped by cutoff."""
    ranking = kwargs.get("ranking", args[0] if args else None)
    model = kwargs.get("model", args[3] if len(args) > 3 else None)
    n = len(ranking)
    cutoff = getattr(model, "cutoff", None)
    return n if cutoff is None else min(n, cutoff)


_EXTRA = {"exposure.cumulative": _positions}


class Tracer:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, extra=None):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        error = None
        c0 = thread_time()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = perf_counter()
            c1 = thread_time()
            stack.pop()
            count = extra(args, kwargs) if extra is not None else None
            with self._lock:
                self.spans.append(
                    (span_id, parent, name, threading.get_ident(), t0, t1, c1 - c0, error, count)
                )

    def wrap(self, name, fn):
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)

        return wrapper

    def install(self) -> None:
        """Replace every site in ``SITES`` and the first-call matrix pack."""
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn))
        core = importlib.import_module("rankfair.core")
        table_cls = getattr(core, "GroupMembershipTable", None)
        matrix = getattr(table_cls, "matrix", None)
        if matrix is None:
            self.missing.append("rankfair.core.GroupMembershipTable.matrix")
            return
        tracer = self

        @functools.wraps(matrix)
        def first_call_matrix(table, scheme_name):
            packed = table.__dict__.setdefault("_perfbench_packed", set())
            if scheme_name in packed:
                return matrix(table, scheme_name)
            packed.add(scheme_name)
            return tracer.call("core.matrix_pack", matrix, (table, scheme_name), {})

        table_cls.matrix = first_call_matrix


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans, windows, workers: int = 1) -> dict:
    """Per-name self time, inclusive time, calls, errors and work counts.

    ``windows`` are the (start, end) intervals of the traced operations on
    the spans' clock. Self time is a span's duration minus its direct
    children's, which run on the same thread. ``covered_s`` is the part of
    the windows that top-level spans on any thread cover; ``busy_cpu_s`` is
    the thread CPU time inside top-level spans, summed over threads.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        parent = span[1]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + span[5] - span[4]
    names: dict[str, dict] = {}
    roots = []
    busy_cpu = 0.0
    for span_id, parent, name, _, t0, t1, cpu, error, extra in spans:
        entry = names.setdefault(
            name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "errors": 0, "extra": 0}
        )
        entry["self_s"] += (t1 - t0) - child_time.get(span_id, 0.0)
        entry["total_s"] += t1 - t0
        entry["calls"] += 1
        entry["errors"] += error is not None
        entry["extra"] += extra or 0
        if parent is None:
            roots.append((t0, t1))
            busy_cpu += cpu
    covered = 0.0
    for w0, w1 in windows:
        clipped = [(max(a, w0), min(b, w1)) for a, b in roots if b > w0 and a < w1]
        covered += _union_length(clipped)
    wall = sum(w1 - w0 for w0, w1 in windows)
    return {
        "names": names,
        "covered_s": covered,
        "busy_cpu_s": busy_cpu,
        "wall_s": wall,
        "workers": workers,
    }
