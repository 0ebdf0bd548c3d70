"""Pearson and Spearman correlation with significance tests, and correlation
reports comparing metric scores under two annotation sources.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ConstantInput,
    LengthMismatch,
    QuerySetMismatch,
    SystemSetMismatch,
    TooFewSamples,
)
from .metrics import MetricReport, csv_text, json_text

#: Significance threshold used when flagging correlations.
ALPHA = 0.05


@dataclass(frozen=True)
class CorrelationResult:
    """A correlation coefficient with its two-sided p-value and sample count."""

    coefficient: float
    p_value: float
    n: int

    def __post_init__(self):
        if abs(self.coefficient) > 1.0 + 1e-12:
            raise ValueError("coefficient out of [-1, 1]")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value out of [0, 1]")


def _validated_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be flat vectors")
    if x.shape[0] != y.shape[0]:
        raise LengthMismatch(f"length {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 3:
        raise TooFewSamples(f"need at least 3 samples, got {x.shape[0]}")
    if np.all(x == x[0]):
        raise ConstantInput("first input is constant")
    if np.all(y == y[0]):
        raise ConstantInput("second input is constant")
    return x, y


def _pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    sxy = float(np.dot(dx, dy))
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    # sqrt of the product keeps r == 1.0 exact for bitwise-identical inputs
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def _t_p_value(r: float, n: int) -> float:
    """Two-sided p-value for r under the t approximation with n-2 df."""
    from scipy.special import stdtr  # imported here: it costs most of the CLI's start-up

    if abs(r) >= 1.0:
        return 0.0
    df = n - 2
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    return float(min(1.0, max(0.0, 2.0 * stdtr(df, -t))))


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Sample Pearson correlation with a Student-t two-sided p-value."""
    x, y = _validated_pair(x, y)
    r = _pearson_r(x, y)
    return CorrelationResult(r, _t_p_value(r, x.shape[0]), x.shape[0])


def average_ranks(v: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank positions."""
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[0]
    order = np.argsort(v, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(
    x: Sequence[float], y: Sequence[float], method: str = "t"
) -> CorrelationResult:
    """Spearman rank correlation: Pearson on average ranks.

    ``method="t"`` uses the t approximation for the p-value; ``"exact"``
    enumerates all permutations (only allowed for n < 10).
    """
    x, y = _validated_pair(x, y)
    n = x.shape[0]
    rx = average_ranks(x)
    ry = average_ranks(y)
    rho = _pearson_r(rx, ry)
    if method == "t":
        p = _t_p_value(rho, n)
    elif method == "exact":
        if n >= 10:
            raise ValueError("exact permutation p-value is limited to n < 10")
        p = _exact_permutation_p(rx, ry, rho)
    else:
        raise ValueError(f"unknown method {method!r}")
    return CorrelationResult(rho, p, n)


def _exact_permutation_p(rx: np.ndarray, ry: np.ndarray, rho_obs: float) -> float:
    """Fraction of y-permutations whose |rho| reaches the observed one."""
    n = rx.shape[0]
    hits = 0
    total = 0
    threshold = abs(rho_obs) - 1e-12
    for perm in itertools.permutations(range(n)):
        rho = _pearson_r(rx, ry[list(perm)])
        hits += abs(rho) >= threshold
        total += 1
    return hits / total


# --- correlation reports ---------------------------------------------------------


@dataclass(frozen=True)
class CorrelationRow:
    level: str  # "system" or "query:<qid>"
    metric: str
    pearson: CorrelationResult
    spearman: CorrelationResult
    significant: bool


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation tables between two sets of metric reports.

    ``skipped`` records (level, metric) pairs dropped because one side was
    constant, so degenerate evaluations stay visible.
    """

    alpha: float
    rows: tuple[CorrelationRow, ...]
    skipped: tuple[tuple[str, str], ...] = ()

    def system_rows(self) -> tuple[CorrelationRow, ...]:
        return tuple(r for r in self.rows if r.level == "system")

    def query_rows(self) -> tuple[CorrelationRow, ...]:
        return tuple(r for r in self.rows if r.level != "system")


def _check_aligned(
    reports_a: Mapping[str, MetricReport], reports_b: Mapping[str, MetricReport]
) -> tuple[list[str], list[str], list[str]]:
    systems_a = set(reports_a)
    systems_b = set(reports_b)
    if systems_a != systems_b:
        raise SystemSetMismatch(
            f"only in first: {sorted(systems_a - systems_b)}; "
            f"only in second: {sorted(systems_b - systems_a)}"
        )
    systems = sorted(systems_a)
    queries = reports_a[systems[0]].queries
    for reports in (reports_a, reports_b):
        for system_tag in systems:
            if reports[system_tag].queries != queries:
                raise QuerySetMismatch(
                    f"system {system_tag!r} covers a different query set"
                )
    metrics = reports_a[systems[0]].metrics
    for reports in (reports_a, reports_b):
        for system_tag in systems:
            if reports[system_tag].metrics != metrics:
                raise ConfigError(f"system {system_tag!r} reports different metrics")
    return systems, list(queries), list(metrics)


def correlation_report(
    reports_a: Mapping[str, MetricReport],
    reports_b: Mapping[str, MetricReport],
    level: str = "both",
    alpha: float = ALPHA,
    spearman_method: str = "t",
    exclude_missing: bool = False,
) -> CorrelationReport:
    """Correlate metric scores computed under two annotation sources.

    System level pairs the per-system means (one point per system); query
    level pairs per-system scores within each query (one row per query and
    metric). ``exclude_missing`` drops queries any system failed to return,
    on either side, from the query-level rows.
    """
    if level not in ("system", "query", "both"):
        raise ValueError(f"unknown level {level!r}")
    systems, queries, metrics = _check_aligned(reports_a, reports_b)
    if len(systems) < 3:
        raise TooFewSamples(f"need at least 3 systems, got {len(systems)}")
    rows: list[CorrelationRow] = []
    skipped: list[tuple[str, str]] = []

    def correlate(tag: str, metric: str, xs, ys):
        try:
            pr = pearson(xs, ys)
            sr = spearman(xs, ys, method=spearman_method)
        except ConstantInput:
            skipped.append((tag, metric))
            return
        rows.append(
            CorrelationRow(
                tag, metric, pr, sr, pr.p_value < alpha and sr.p_value < alpha
            )
        )

    if level in ("system", "both"):
        for metric in metrics:
            xs = [reports_a[s].aggregates[metric] for s in systems]
            ys = [reports_b[s].aggregates[metric] for s in systems]
            correlate("system", metric, xs, ys)
    if level in ("query", "both"):
        kept_queries = queries
        if exclude_missing:
            dropped = set()
            for reports in (reports_a, reports_b):
                for system_tag in systems:
                    dropped.update(reports[system_tag].missing_queries)
            kept_queries = [q for q in queries if q not in dropped]
        for metric in metrics:
            for query_id in kept_queries:
                xs = [reports_a[s].per_query[query_id][metric] for s in systems]
                ys = [reports_b[s].per_query[query_id][metric] for s in systems]
                correlate(f"query:{query_id}", metric, xs, ys)
    return CorrelationReport(alpha, tuple(rows), tuple(skipped))


def _record(row: CorrelationRow) -> dict:
    return {
        "level": row.level,
        "metric": row.metric,
        "pearson_r": row.pearson.coefficient,
        "pearson_p": row.pearson.p_value,
        "spearman_rho": row.spearman.coefficient,
        "spearman_p": row.spearman.p_value,
        "n": row.pearson.n,
        "significant": row.significant,
    }


def correlation_to_csv(report: CorrelationReport) -> str:
    columns = ("level", "metric", "pearson_r", "pearson_p", "spearman_rho", "spearman_p",
               "significant")
    return csv_text(columns, map(_record, report.rows))


def correlation_to_json(report: CorrelationReport) -> str:
    rows = [_record(row) for row in report.rows]
    return json_text({"alpha": report.alpha, "rows": rows, "skipped": [list(p) for p in report.skipped]})
