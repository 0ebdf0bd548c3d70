"""Pearson and Spearman correlation with significance tests, and correlation
reports comparing metric scores under two annotation sources.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    ConstantInput,
    LengthMismatch,
    NonFiniteInput,
    QuerySetMismatch,
    SystemSetMismatch,
    TooFewSamples,
)
from .metrics import ScoreTable, csv_text, json_text

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
    for side, v in (("first", x), ("second", y)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise NonFiniteInput(f"{side} input holds {float(v[bad[0]])} at index {bad[0]}")
    if np.all(x == x[0]):
        raise ConstantInput("first input is constant")
    if np.all(y == y[0]):
        raise ConstantInput("second input is constant")
    return x, y


def _pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    # np.mean of a float64 vector is np.add.reduce over it divided by its
    # length; the same two steps give the same bits without mean's overhead.
    # An overflow here is caught below, so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - np.add.reduce(x) / x.shape[0]
        dy = y - np.add.reduce(y) / y.shape[0]
        sxy = float(np.dot(dx, dy))
        sxx = float(np.dot(dx, dx))
        syy = float(np.dot(dy, dy))
    product = sxx * syy
    if not sys.float_info.min <= product < math.inf:  # underflowed or overflowed
        dx, dy = _unit_deviations(x), _unit_deviations(y)
        sxy = float(np.dot(dx, dy))
        product = float(np.dot(dx, dx)) * float(np.dot(dy, dy))
    # sqrt of the product keeps r == 1.0 exact for bitwise-identical inputs
    r = sxy / math.sqrt(product)
    return max(-1.0, min(1.0, r))


def _unit_deviations(v: np.ndarray) -> np.ndarray:
    """Deviations from the mean of ``v`` after ``v`` is scaled exactly, by a
    power of two, to a largest magnitude in [0.5, 1), so that neither its
    sum nor its sums of squares leave the normal range of float64."""
    v = np.ldexp(v, -math.frexp(np.max(np.abs(v)))[1])
    return v - np.add.reduce(v) / v.shape[0]


#: ln of sqrt(pi), which is ln Gamma(1/2)
_LN_SQRT_PI = 0.5 * math.log(math.pi)
#: B_2k / (2k (2k - 1)) for k = 1..7, the terms of Stirling's series for ln Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _ln_half_gamma_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a). From a = 10 on it comes from
    Stirling's series, whose error there is below 1e-16: the difference of
    two large lgammas would lose up to 1e-11 at a = 25,000."""
    if a < 10:
        return math.lgamma(a + 0.5) - math.lgamma(a)

    def tail(z):
        return sum(c / z ** (2 * k + 1) for k, c in enumerate(_STIRLING))

    return a * math.log1p(0.5 / a) + 0.5 * math.log(a) - 0.5 + tail(a + 0.5) - tail(a)


def _tail_depth(a: float) -> int:
    """Terms of the continued fraction for I_x(a, 1/2) below its split
    point: up to x just below it, the value stops changing within 2 ulp
    after 20 terms at a = 1/2, 57 at a = 14 and at most 129 up to
    a = 25,000."""
    return min(192, math.ceil(24 + 12 * math.sqrt(a)))


#: Terms of the continued fraction for I_y(1/2, a) above the split point
#: (y = r² below 1.5/(a + 2.5)), where it settles within 20 at any a
_BODY_DEPTH = 32


@lru_cache(maxsize=32)
def _cf_terms(a: float, b: float, depth: int) -> np.ndarray:
    """The partial numerators d_1..d_depth, over x, of the continued fraction
    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) / (1 + d_1/(1 + d_2/(1 + ...))),
    last first."""
    m = np.arange(depth + 1, dtype=np.float64)
    odd = -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))  # d_{2m+1}
    even = m[1:] * (b - m[1:]) / ((a + 2 * m[1:] - 1) * (a + 2 * m[1:]))  # d_{2m}
    terms = np.empty(depth)
    terms[0::2], terms[1::2] = odd[: (depth + 1) // 2], even[: depth // 2]
    return terms[::-1].copy()


def _continued_fraction(terms: np.ndarray, x: np.ndarray) -> np.ndarray:
    """1 / (1 + d_1 x/(1 + d_2 x/(1 + ...))) to a fixed depth, evaluated from
    the last term up, so each value depends on its own x alone."""
    t = np.ones_like(x)
    for d in np.multiply.outer(terms, x):
        np.divide(d, t, out=t)
        t += 1.0
    return 1.0 / t


def _t_p_values(r, n: int) -> np.ndarray:
    """Two-sided p-values of correlations ``r`` of ``n`` pairs under the t
    approximation with df = n - 2: P(|T| >= t) with t = |r| sqrt(df / (1-r²)),
    which is I_x(df/2, 1/2) at x = df / (df + t²) = 1 - r².

    Below the continued fraction's split point x < (a+1)/(a+b+2) the tail is
    the continued fraction itself, so a tiny p keeps its relative accuracy;
    above it p = 1 - I_{r²}(1/2, df/2), and p is at least 0.08 there. The
    depth of each continued fraction is fixed by df alone, so that a value's
    p does not depend on the others it is computed with.
    """
    r = np.abs(np.asarray(r, dtype=np.float64))
    a = (n - 2) / 2.0
    y = r * r
    x = np.maximum((1.0 - r) * (1.0 + r), 0.0)  # 1 - r², without its cancellation
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 or |r| >= 1
        ln_x = np.where(y < 0.5, np.log1p(-y), np.log(x))
        # x^a (1-x)^(1/2) / B(a, 1/2)
        power = np.exp(a * ln_x + np.log(r) + (_ln_half_gamma_ratio(a) - _LN_SQRT_PI))
    p = np.empty_like(r)
    tail = x < (a + 1.0) / (a + 2.5)
    if tail.any():
        terms = _cf_terms(a, 0.5, _tail_depth(a))
        p[tail] = power[tail] / a * _continued_fraction(terms, x[tail])
    body = ~tail
    if body.any():
        terms = _cf_terms(0.5, a, _BODY_DEPTH)
        p[body] = 1.0 - 2.0 * power[body] * _continued_fraction(terms, y[body])
    return np.clip(p, 0.0, 1.0)


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Sample Pearson correlation with a Student-t two-sided p-value."""
    x, y = _validated_pair(x, y)
    r = _pearson_r(x, y)
    return CorrelationResult(r, float(_t_p_values(r, x.shape[0])), x.shape[0])


def average_ranks(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """1-based ranks of a vector, or of each column of a 2-D array; tied
    values share the mean of their rank positions."""
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[0]
    order = np.argsort(v, axis=0, kind="stable")
    ordered = np.take_along_axis(v, order, axis=0)
    at = np.arange(n).reshape((n,) + (1,) * (v.ndim - 1))
    # a run of ties spans the sorted positions from its first to its last member
    starts = np.ones(v.shape, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    first = np.maximum.accumulate(np.where(starts, at, 0), axis=0)
    last = np.minimum.accumulate(np.where(np.roll(starts, -1, axis=0), at, n)[::-1], axis=0)[::-1]
    ranks = np.empty(v.shape, dtype=np.float64)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=0)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation: Pearson on average ranks, with a
    Student-t two-sided p-value."""
    x, y = _validated_pair(x, y)
    rho = _pearson_r(average_ranks(x), average_ranks(y))
    return CorrelationResult(rho, float(_t_p_values(rho, x.shape[0])), x.shape[0])


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
    """Correlation tables between two sets of scores of the same systems.

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


def agreement(
    a: ScoreTable, b: ScoreTable, alpha: float = ALPHA, exclude_missing: bool = False
) -> CorrelationReport:
    """Correlate two score tables of the same systems, queries and metrics.

    Per metric, the system row pairs the per-system means, and each query
    row the systems' scores on that query; the system rows of every metric
    come first. A pair with a constant side is listed in ``skipped``; a
    table holding NaN or an infinity raises ``NonFiniteInput``.
    ``exclude_missing`` drops the queries any system is absent from in
    either table. Tables without queries give no rows.
    """
    for error, name in ((SystemSetMismatch, "systems"), (QuerySetMismatch, "queries"),
                        (ConfigError, "metrics")):
        first, second = getattr(a, name), getattr(b, name)
        if first != second:
            raise error(f"{name} differ: only in first: {sorted(set(first) - set(second))}; "
                        f"only in second: {sorted(set(second) - set(first))}")
    n = len(a.systems)
    if n < 3:
        raise TooFewSamples(f"need at least 3 systems, got {n}")
    for side, t in (("first", a), ("second", b)):
        bad = np.argwhere(~np.isfinite(t.values))
        if bad.size:
            m, s, q = bad[0]
            raise NonFiniteInput(f"('query:{t.queries[q]}', {t.metrics[m]!r}): the {side} table "
                                 f"holds {float(t.values[m, s, q])} for system {t.systems[s]!r}")
    if not a.queries:
        return CorrelationReport(alpha, ())
    keep = ~(a.absent | b.absent).any(axis=0) if exclude_missing else np.ones(len(a.queries), bool)
    pairs = [("system", m) for m in a.metrics]
    pairs += [(f"query:{q}", m) for m in a.metrics for q in itertools.compress(a.queries, keep)]
    # one contiguous row of system scores per pair, in the order of ``pairs``
    x, y = (
        np.concatenate([t.means(), t.values[:, :, keep].transpose(0, 2, 1).reshape(-1, n)])
        for t in (a, b)
    )
    constant = np.all(x == x[:, :1], axis=1) | np.all(y == y[:, :1], axis=1)
    rx, ry = (np.ascontiguousarray(average_ranks(v.T).T) for v in (x, y))
    live = np.flatnonzero(~constant).tolist()
    r = [_pearson_r(x[i], y[i]) for i in live]
    rho = [_pearson_r(rx[i], ry[i]) for i in live]
    p = _t_p_values(r + rho, n).tolist()
    rows = [
        CorrelationRow(*pairs[i], CorrelationResult(ri, pr, n), CorrelationResult(rhoi, sr, n),
                       pr < alpha and sr < alpha)
        for i, ri, rhoi, pr, sr in zip(live, r, rho, p, p[len(live):])
    ]
    return CorrelationReport(alpha, tuple(rows), tuple(itertools.compress(pairs, constant)))


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
