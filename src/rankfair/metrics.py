"""Divergence functions, attention-weighted rank fairness, expected-exposure
metrics, and query-to-system aggregation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    SUM_TOL,
    GroupMembershipTable,
    GroupScheme,
    MissingPolicy,
    Qrels,
    Ranking,
    RunSet,
    intersect_tables,
)
from .errors import ConfigError, LengthMismatch, MissingDocument, NonFiniteInput, NotADistribution
from .exposure import (
    DEFAULT_ATTENTION,
    AttentionModel,
    CompiledRuns,
    ExposureVector,
    QrelsTargets,
    attention_weights,
    compile_codes,
    cumulative_exposure,
    member_rows,
    normalized_masses,
    target_uniform,
    weighted_rows,
)

LN2 = math.log(2.0)

#: Smoothing applied to both inputs of the KL divergence by default.
KL_EPSILON = 1e-10


def _as_distribution(p, name: str, flat: bool = False) -> np.ndarray:
    """Distributions along the last axis: non-negative, each summing to one."""
    if isinstance(p, ExposureVector):
        p = p.masses
    arr = np.asarray(p, dtype=np.float64)
    if flat and arr.ndim != 1:
        raise NotADistribution(f"{name} must be a flat vector")
    if np.any(arr < 0):
        raise NotADistribution(f"{name} has negative entries")
    if np.any(np.abs(arr.sum(axis=-1) - 1.0) > SUM_TOL):
        raise NotADistribution(f"{name} does not sum to one")
    return arr


def _distributions(p, q, flat: bool = False) -> tuple[np.ndarray, np.ndarray]:
    p = _as_distribution(p, "p", flat)
    q = _as_distribution(q, "q", flat)
    if p.shape[-1] != q.shape[-1]:
        raise LengthMismatch(f"length {p.shape[-1]} vs {q.shape[-1]}")
    return p, q


def _kl(p: np.ndarray, q: np.ndarray, epsilon: float) -> np.ndarray:
    """KL divergence along the last axis of validated distributions."""
    ps = p + epsilon
    qs = q + epsilon
    return _kl_terms(ps / ps.sum(axis=-1, keepdims=True), qs / qs.sum(axis=-1, keepdims=True))


def _js(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """JS divergence along the last axis of validated distributions."""
    m = (p + q) / 2.0
    return 0.5 * _kl_terms(p, m) + 0.5 * _kl_terms(q, m)


def _kl_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * log(a / b) along the last axis; terms with a == 0 count zero."""
    ratio = np.ones_like(a)
    with np.errstate(divide="ignore"):
        np.divide(a, b, out=ratio, where=a > 0)
    return np.sum(a * np.log(ratio), axis=-1)


def kl_divergence(p, q, epsilon: float = KL_EPSILON) -> float:
    """Kullback-Leibler divergence KL(p || q) in nats.

    Both inputs are smoothed by ``epsilon`` and renormalized before the sum,
    which keeps the value finite when ``q`` has zero entries. Identical
    inputs give exactly zero. ``epsilon`` must be at least 0; with 0, the
    divergence is infinite where ``p`` has mass that ``q`` lacks.
    """
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be at least 0, got {epsilon}")
    return float(_kl(*_distributions(p, q, flat=True), epsilon))


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence in nats; symmetric, bounded by ln 2.

    Needs no smoothing: where the mixture is zero both inputs are zero and
    the contribution vanishes.
    """
    return float(_js(*_distributions(p, q, flat=True)))


#: Divergences along the last axis, as ``fn(p, q, epsilon)``; JS needs no smoothing.
_DIVERGENCES = {"kl": _kl, "js": lambda p, q, epsilon: _js(p, q)}


def divergence_fn(name: str):
    try:
        return _DIVERGENCES[name]
    except KeyError:
        raise ConfigError(f"unknown divergence {name!r}; expected one of {sorted(_DIVERGENCES)}") from None


def worst_case_divergence(name: str, k: int, epsilon: float = KL_EPSILON) -> float:
    """Divergence of two maximally different rankings' exposures.

    Used as the score of a query a system failed to return: the divergence
    between two disjoint one-hot vectors, ln 2 for JS.
    """
    return float(divergence_fn(name)(*np.eye(k)[:2], epsilon))


def awrf_scores(
    runs: CompiledRuns,
    members: np.ndarray,
    targets: np.ndarray,
    scheme: GroupScheme,
    model: AttentionModel,
    divergence: str,
    epsilon: float = KL_EPSILON,
) -> np.ndarray:
    """AWRF of every compiled ranking, shape (systems, queries).

    ``members`` is a membership matrix with its sentinel rows
    (:func:`member_rows`); ``targets`` holds one target distribution per
    query, or one for all. An absent or empty ranking scores the worst-case
    divergence.
    """
    fn = divergence_fn(divergence)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape[-1] != scheme.k:
        raise LengthMismatch(f"length {scheme.k} vs {targets.shape[-1]}")
    raw = weighted_rows(runs, members, attention_weights(model, runs.rows.shape[-1]))
    present = runs.lengths > 0
    scores = np.full(present.shape, worst_case_divergence(divergence, scheme.k, epsilon))
    if present.any():
        observed = normalized_masses(raw[present], scheme)
        expected = np.broadcast_to(targets, raw.shape)[present]
        scores[present] = fn(*_distributions(observed, expected), epsilon)
    return scores


def awrf(
    ranking: Ranking,
    table: GroupMembershipTable,
    scheme: GroupScheme | str,
    target: ExposureVector,
    model: AttentionModel = DEFAULT_ATTENTION,
    divergence: str = "js",
    epsilon: float = KL_EPSILON,
    fallback: MissingPolicy = MissingPolicy.REJECT,
) -> float:
    """Attention-weighted rank fairness: divergence between a ranking's
    normalized cumulative exposure and the target distribution.

    Lower is fairer; zero means the ranking's exposure matches the target.
    """
    scheme = table.scheme(scheme) if isinstance(scheme, str) else scheme
    if not target.normalized and abs(target.total - 1.0) > SUM_TOL:
        raise NotADistribution("target exposure must be normalized")
    observed = cumulative_exposure(ranking, table, scheme, model, fallback).normalize()
    return float(divergence_fn(divergence)(*_distributions(observed, target, flat=True), epsilon))


class EEMetrics(NamedTuple):
    """Expected-exposure triple: loss, disparity, relevance agreement."""

    ee_l: float
    ee_d: float
    ee_r: float


def ee_metrics(gamma: ExposureVector, gamma_star: ExposureVector) -> EEMetrics:
    """Expected-exposure metrics over raw (unnormalized) exposure masses.

    EE-L is the squared L2 distance between delivered and target exposure,
    EE-D the squared norm of the delivered exposure, and EE-R twice their
    inner product, so that EE-L = EE-D + ||target||^2 - EE-R exactly.
    """
    if gamma.scheme.k != gamma_star.scheme.k:
        raise LengthMismatch(
            f"length {gamma.scheme.k} vs {gamma_star.scheme.k}"
        )
    g = gamma.as_array()
    t = gamma_star.as_array()
    diff = g - t
    return EEMetrics(
        ee_l=float(np.dot(diff, diff)),
        ee_d=float(np.dot(g, g)),
        ee_r=float(2.0 * np.dot(g, t)),
    )


# --- run-set evaluation -----------------------------------------------------------


@dataclass(frozen=True)
class MetricConfig:
    """Settings shared by every per-query AWRF computation.

    ``target`` selects the target exposure source: ``qrels-binary`` or
    ``qrels-graded`` average relevant documents' membership, ``uniform``
    spreads mass equally, ``file`` uses explicitly provided targets (keyed
    by scheme then query id, with ``"*"`` as a wildcard query).
    """

    attention: AttentionModel = DEFAULT_ATTENTION
    divergence: str = "js"
    epsilon: float = KL_EPSILON
    target: str = "qrels-binary"
    explicit_targets: Mapping[str, Mapping[str, ExposureVector]] | None = None
    fallback: MissingPolicy = MissingPolicy.UNIFORM
    include_overall: bool = True
    complement: bool = False
    exclude_unknown: bool = False

    def __post_init__(self):
        if self.divergence not in _DIVERGENCES:
            raise ConfigError(f"unknown divergence {self.divergence!r}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be a finite number of at least 0, got {self.epsilon}")
        if self.target not in ("qrels-binary", "qrels-graded", "uniform", "file"):
            raise ConfigError(f"unknown target mode {self.target!r}")
        if self.target == "file" and self.explicit_targets is None:
            raise ConfigError("target mode 'file' needs explicit_targets")
        if self.complement and self.divergence != "js":
            raise ConfigError("complement scores are only defined for the js divergence")


@dataclass(frozen=True)
class ScoreTable:
    """Per-query scores: read-only ``values`` of shape (metrics, systems,
    queries), and ``absent`` (systems, queries) marking where a system
    returned no ranking. Readers keep table order; :func:`score_runset`
    sorts every axis."""

    systems: tuple[str, ...]
    queries: tuple[str, ...]
    metrics: tuple[str, ...]
    values: np.ndarray
    absent: np.ndarray

    def __post_init__(self):
        for name in ("systems", "queries", "metrics"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        shape = (len(self.metrics), len(self.systems), len(self.queries))
        for name, dtype, want in (("values", np.float64, shape), ("absent", bool, shape[1:])):
            arr = np.array(getattr(self, name), dtype=dtype)
            if arr.shape != want:
                raise LengthMismatch(f"{name} has shape {arr.shape}, expected {want}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def means(self) -> np.ndarray:
        """Per-system means, shape (metrics, systems): the exact sum over the
        queries, rounded once, divided by their count. ``math.fsum`` gives
        that sum unless one of its partial sums overflows; then it is summed
        as fractions. A table without queries has none; a sum beyond the
        float64 range raises ``NonFiniteInput``."""
        q = len(self.queries)

        def mean(metric: str, system: str, row: list[float]) -> float:
            try:
                return math.fsum(row) / q
            except OverflowError:  # a partial sum overflows; the exact sum may not
                from fractions import Fraction  # imported here: only this case needs it

                try:
                    return float(sum(map(Fraction, row))) / q
                except OverflowError:
                    raise NonFiniteInput(
                        f"('system', {metric!r}): the scores of system {system!r} "
                        "overflow float64 when summed"
                    ) from None

        means = [[mean(m, s, row) for s, row in zip(self.systems, rows)]
                 for m, rows in zip(self.metrics, self.values.tolist())] if q else []
        return np.array(means, dtype=np.float64).reshape(len(means), len(self.systems))


@dataclass(frozen=True)
class MetricReport:
    """Per-query metric values and their per-system means.

    ``missing_queries`` lists evaluation queries the system returned no
    ranking for; those score the worst-case divergence.
    """

    system_tag: str
    per_query: Mapping[str, Mapping[str, float]]
    aggregates: Mapping[str, float]
    missing_queries: tuple[str, ...] = ()

    @property
    def queries(self) -> tuple[str, ...]:
        return tuple(sorted(self.per_query))

    @property
    def metrics(self) -> tuple[str, ...]:
        return tuple(sorted(self.aggregates))


def _fixed_target(scheme: GroupScheme, query_id: str, config: MetricConfig) -> ExposureVector:
    if config.target == "uniform":
        return target_uniform(scheme, exclude_unknown=config.exclude_unknown)
    per_scheme = (config.explicit_targets or {}).get(scheme.name, {})
    target = per_scheme.get(query_id, per_scheme.get("*"))
    if target is None:
        raise ConfigError(f"no explicit target for scheme {scheme.name!r}, query {query_id!r}")
    if target.scheme.k != scheme.k:
        raise LengthMismatch(f"length {scheme.k} vs {target.scheme.k}")
    return target


class CompiledEvaluation:
    """Per-query AWRF of one scheme over a run set, compiled once against
    the scheme's doc index.

    Every system's ranking of every evaluation query, and each query's
    relevant documents, are held as rows of the scheme's membership matrix,
    so :meth:`scores` costs one gather and contraction for any membership
    matrix over the same doc index, such as a corrupted copy of it. The
    rankings are compiled from the run set's doc codes: its vocabulary is
    mapped to rows once, not every ranked position.
    """

    def __init__(
        self,
        runset: RunSet,
        qrels: Qrels | None,
        table: GroupMembershipTable,
        scheme: GroupScheme,
        config: MetricConfig,
    ):
        self.scheme = scheme
        self.config = config
        self.systems = runset.systems
        index, _ = table.matrix(scheme.name)
        self.relevant: QrelsTargets | None = None
        self.targets: np.ndarray | None = None
        if config.target in ("qrels-binary", "qrels-graded"):
            if qrels is None:
                raise ConfigError("qrels-based targets need qrels")
            # the queries with at least one relevant document, each read once
            relevant = {q: r for q in qrels.queries if (r := qrels.relevant(q))}
            self.queries = tuple(relevant)
            pairs = [sorted(r.items()) for r in relevant.values()]
            self.relevant = QrelsTargets(pairs, index, graded=config.target == "qrels-graded")
        else:
            self.queries = runset.all_queries
            fixed = [_fixed_target(scheme, q, config).masses for q in self.queries]
            self.targets = np.array(fixed, dtype=np.float64).reshape(len(fixed), scheme.k)
        starts, lengths = runset.slices(self.systems, self.queries)
        self.runs = compile_codes(
            runset.vocabulary, runset.codes, starts, lengths, index, config.attention.cutoff
        )

    @property
    def compiled(self) -> tuple[CompiledRuns, ...]:
        """The compiled lists, in the order missing documents are resolved."""
        return (self.runs,) if self.relevant is None else (self.relevant.docs, self.runs)

    def scores(self, matrix: np.ndarray) -> np.ndarray:
        """Per-query scores of every system, shape (systems, queries), for a
        membership matrix over the compiled doc index."""
        config = self.config
        members = member_rows(matrix, self.scheme, config.fallback, *self.compiled)
        if self.relevant is None:
            targets = self.targets
        else:
            targets = self.relevant.masses(members, self.scheme)
        values = awrf_scores(
            self.runs, members, targets, self.scheme, config.attention,
            config.divergence, config.epsilon,
        )
        return 1.0 - values / LN2 if config.complement else values


def _reject_first_missing(evaluations: Sequence[CompiledEvaluation]) -> None:
    """Raise for the missing document a query-by-query pass meets first:
    relevant documents metric by metric, then ranked documents by system,
    query and metric."""
    found = []
    for i, evaluation in enumerate(evaluations):
        if evaluation.relevant is not None and evaluation.relevant.docs.missing:
            found.append(((0, i), evaluation.relevant.docs.missing[2], evaluation.scheme))
        elif evaluation.runs.missing:
            a, b, doc = evaluation.runs.missing
            found.append(((1, a, b, i), doc, evaluation.scheme))
    if found:
        _, doc, scheme = min(found, key=lambda item: item[0])
        raise MissingDocument(f"doc {doc!r} has no membership for scheme {scheme.name!r}")


def score_runset(
    runset: RunSet,
    qrels: Qrels | None,
    table: GroupMembershipTable,
    schemes: Sequence[str],
    config: MetricConfig = MetricConfig(),
) -> ScoreTable:
    """Per-query AWRF for every scheme (plus their intersection) and system.

    The evaluation query set is the qrels' queries with at least one
    relevant document for qrels-based targets, and the union of the runs'
    queries otherwise. A system missing an evaluation query scores the
    worst-case divergence there; run queries outside the evaluation set are
    ignored. Metric keys, sorted, are ``awrf:<scheme>`` and ``awrf:overall``.
    """
    if not schemes:
        raise ConfigError("at least one scheme is required")
    if len(set(schemes)) < len(schemes):
        raise ConfigError(f"schemes {list(schemes)} name a scheme more than once")
    work: list[tuple[str, GroupMembershipTable, GroupScheme]] = []
    for name in schemes:
        work.append((f"awrf:{name}", table, table.scheme(name)))
    if len(schemes) >= 2 and config.include_overall:
        # under reject, the per-scheme evaluations check every document that
        # any evaluation reads, and one that lacks a document sorts before
        # the intersection, so the intersection's fallback rows go unread
        reject = config.fallback is MissingPolicy.REJECT
        overall = intersect_tables(
            table, list(schemes), fallback=MissingPolicy.UNIFORM if reject else config.fallback
        )
        work.append(("awrf:overall", overall, overall.scheme("overall")))
    evaluations = [CompiledEvaluation(runset, qrels, tbl, scheme, config) for _, tbl, scheme in work]
    if config.fallback is MissingPolicy.REJECT:
        _reject_first_missing(evaluations)
    columns = {
        metric: evaluation.scores(tbl.matrix(scheme.name)[1])
        for (metric, tbl, scheme), evaluation in zip(work, evaluations)
    }
    metrics = tuple(sorted(columns))
    return ScoreTable(runset.systems, evaluations[0].queries, metrics,
                      np.stack([columns[m] for m in metrics]), evaluations[0].runs.lengths == 0)


def evaluate_runset(
    runset: RunSet,
    qrels: Qrels | None,
    table: GroupMembershipTable,
    schemes: Sequence[str],
    config: MetricConfig = MetricConfig(),
) -> dict[str, MetricReport]:
    """:func:`score_runset` as one :class:`MetricReport` per system."""
    scores = score_runset(runset, qrels, table, schemes, config)
    return {system[0]: MetricReport(*system) for system in _per_system(scores)}


def _per_system(scores: ScoreTable) -> Iterator[tuple]:
    """Per system: its tag, ``{query: {metric: value}}``, ``{metric: mean}``
    and the queries it is absent from."""
    queries, metrics = scores.queries, scores.metrics
    values, means = scores.values.transpose(1, 2, 0).tolist(), scores.means().T.tolist()
    for system, rows, mean, absent in zip(scores.systems, values, means, scores.absent):
        yield (system, {q: dict(zip(metrics, row)) for q, row in zip(queries, rows)},
               dict(zip(metrics, mean)), tuple(q for q, gone in zip(queries, absent) if gone))


# --- serialization -----------------------------------------------------------------


def csv_text(columns: Sequence[str], records: Iterable[Mapping]) -> str:
    """One header line, then one line per record of its ``columns``; a cell
    is ``str(value)``, and booleans are ``true`` or ``false``."""
    lines = [columns] + [[_cell(record[c]) for c in columns] for record in records]
    return "".join(",".join(line) + "\n" for line in lines)


def _cell(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reports_to_csv(scores: ScoreTable) -> str:
    """Per-query rows as ``system,query,metric,value``."""
    values = scores.values.transpose(1, 2, 0).tolist()
    records = (
        {"system": system_tag, "query": q, "metric": metric, "value": value}
        for system_tag, rows in zip(scores.systems, values)
        for q, row in zip(scores.queries, rows)
        for metric, value in zip(scores.metrics, row)
    )
    return csv_text(("system", "query", "metric", "value"), records)


def aggregates_to_csv(scores: ScoreTable) -> str:
    """System-level rows as ``system,metric,value`` (mean over queries)."""
    means = scores.means().T.tolist()
    records = (
        {"system": system_tag, "metric": metric, "value": value}
        for system_tag, row in zip(scores.systems, means)
        for metric, value in zip(scores.metrics, row)
    )
    return csv_text(("system", "metric", "value"), records)


def reports_to_json(scores: ScoreTable) -> str:
    payload = {
        system: {"per_query": per_query, "aggregates": aggregates, "missing_queries": list(absent)}
        for system, per_query, aggregates, absent in _per_system(scores)
    }
    return json_text({"systems": payload})
