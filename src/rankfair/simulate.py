"""Synthetic annotators with controlled accuracy, synthetic evaluation
testbeds, and accuracy-vs-correlation sweeps.

Annotation accuracy is controlled directly through row-stochastic confusion
matrices instead of training classifiers, which isolates the relationship
between annotation quality and metric agreement. All randomness is either
seeded or derived from per-document hashes, so every result is a pure
function of its inputs and independent of iteration order or scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    SUM_TOL,
    GroupMembershipTable,
    GroupScheme,
    Qrels,
    RunSet,
)
from .errors import AccuracyOutOfRange, ConfigError, ConstantInput
from .metrics import CompiledEvaluation, MetricConfig, ScoreTable, csv_text, json_text
from .stats import ALPHA, CorrelationResult, agreement


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic relabeling model: entry (i, j) is the probability that
    a document truly in group i is annotated as group j."""

    scheme: GroupScheme
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(float(x) for x in r) for r in self.rows))
        k = self.scheme.k
        if len(self.rows) != k or any(len(r) != k for r in self.rows):
            raise ValueError(f"confusion matrix must be {k}x{k}")
        for r in self.rows:
            if not all(math.isfinite(x) and x >= 0 for x in r):
                raise ValueError("confusion entries must be finite and non-negative")
            if abs(math.fsum(r) - 1.0) > SUM_TOL:
                raise ValueError("confusion rows must sum to one")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=np.float64)


def confusion_for_accuracy(
    scheme: GroupScheme,
    accuracy: float,
    style: str = "uniform",
    bias_target: int | None = None,
) -> ConfusionMatrix:
    """Confusion matrix whose expected accuracy under balanced groups is
    ``accuracy``.

    ``uniform`` spreads each group's error mass evenly over the other
    groups. ``biased`` concentrates it on a single target group (default:
    the unknown group if the scheme has one, else the last group), mimicking
    annotators that collapse hard cases into one label.
    """
    k = scheme.k
    lo = 1.0 / k
    if not lo - 1e-12 <= accuracy <= 1.0 + 1e-12:
        raise AccuracyOutOfRange(f"accuracy {accuracy} outside [{lo}, 1]")
    accuracy = min(max(accuracy, lo), 1.0)
    rows = np.full((k, k), (1.0 - accuracy) / (k - 1))
    if style == "biased":
        target = bias_target
        if target is None:
            target = scheme.unknown_index if scheme.unknown_index is not None else k - 1
        if not 0 <= target < k:
            raise ValueError(f"bias target {target} out of range")
        others = np.arange(k) != target
        rows[others] = 0.0
        rows[others, target] = 1.0 - accuracy
    elif style != "uniform":
        raise ValueError(f"unknown confusion style {style!r}")
    np.fill_diagonal(rows, accuracy)
    return ConfusionMatrix(scheme, rows)


def _doc_keys(doc_ids: Sequence[str]) -> np.ndarray:
    """The 8-byte blake2b digest of each document id, read as a
    little-endian ``uint64``: the per-document half of the draw stream.
    Each id updates a copy of one fresh hasher, which gives the bytes of
    ``blake2b(doc_id, digest_size=8)`` without setting one up per id."""
    copy = hashlib.blake2b(digest_size=8).copy
    digests = bytearray()
    for doc_id in doc_ids:
        hasher = copy()
        hasher.update(doc_id.encode("utf-8"))
        digests += hasher.digest()
    return np.frombuffer(digests, dtype="<u8")


def _mixed_uniforms(seed: int, keys: np.ndarray) -> np.ndarray:
    """One draw in [0, 1) per key: the key xor ``seed``, mixed by SplitMix64
    (Steele, Lea & Flood, OOPSLA 2014), top 53 bits scaled; every step
    wraps modulo 2**64."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"draw seed {seed} outside [0, 2**64)")
    z = (keys ^ np.uint64(seed)) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


def _doc_uniforms(seed: int, doc_ids: Sequence[str]) -> np.ndarray:
    """Uniform draws in [0, 1), one per document, from a per-document
    stream: the blake2b key of the doc id mixed with ``seed``. A draw
    depends on neither iteration order nor the other documents; a seed
    outside [0, 2**64) raises ``ValueError``."""
    return _mixed_uniforms(seed, _doc_keys(doc_ids))


def _corrupted_rows(
    stored: np.ndarray, doc_ids: Sequence[str], matrix: ConfusionMatrix, seed: int, mode: str
) -> np.ndarray:
    """Membership rows of ``doc_ids`` (rows of ``stored``) after corruption
    through ``matrix``; see :func:`apply_confusion`."""
    if mode == "soft":
        return stored @ matrix.as_array()
    return _relabeled(np.argmax(stored, axis=1), _doc_uniforms(seed, doc_ids), matrix)


def _relabeled(truth: np.ndarray, draws: np.ndarray, matrix: ConfusionMatrix) -> np.ndarray:
    """One-hot rows: each document's true group ``truth`` (the argmax of its
    stored row, ties to the lowest index) relabeled through ``matrix`` by
    the document's draw."""
    k = matrix.scheme.k
    # each cumulative row is non-decreasing, so counting the entries at or
    # below a draw is searchsorted(side="right") on that row; the last entry
    # is left out, so a draw at or beyond it (a row may sum to just below
    # one) takes the last group
    cum = np.cumsum(matrix.as_array(), axis=1)
    labels = np.zeros(len(draws), dtype=np.intp)
    for column in cum[:, :-1].T:  # one gather per column: no (docs, k) temporary
        labels += np.take(column, truth) <= draws
    return np.take(np.eye(k), labels, axis=0)


def apply_confusion(
    table: GroupMembershipTable,
    matrix: ConfusionMatrix,
    seed: int = 0,
    mode: str = "hard",
) -> GroupMembershipTable:
    """Corrupt one scheme's annotations through a confusion matrix.

    ``hard`` relabels each document's argmax group i to a one-hot label j
    drawn with probability rows[i][j]; the draw comes from a hash of the
    doc id mixed with ``seed`` (an integer in [0, 2**64), else
    ``ValueError``), so it does not depend on iteration order. ``soft``
    replaces each vector v by v @ rows deterministically. Other schemes in
    the table are passed through unchanged; the result is tagged synthetic.
    """
    if mode not in ("hard", "soft"):
        raise ValueError(f"unknown corruption mode {mode!r}")
    columns = {name: table.columns(name) for name in table.scheme_names}
    ids, stored = table.columns(matrix.scheme.name)
    columns[matrix.scheme.name] = (ids, _corrupted_rows(stored, ids, matrix, seed, mode))
    schemes = map(table.scheme, table.scheme_names)
    return GroupMembershipTable.from_columns(schemes, columns, provenance="synthetic")


# --- synthetic testbeds ---------------------------------------------------------------


@dataclass(frozen=True)
class TestbedConfig:
    """Shape of a synthetic evaluation testbed.

    ``spread`` controls how far the least fair system is pushed toward a
    maximally skewed ranking; system s mixes the group-balanced and skewed
    orders with weight ``spread * s / (n_systems - 1)``.
    """

    n_queries: int = 50
    docs_per_query: int = 1000
    n_groups: int = 4
    n_systems: int = 30
    spread: float = 1.0
    grade_probs: tuple[float, ...] = (0.7, 0.2, 0.1)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grade_probs", tuple(float(p) for p in self.grade_probs))
        if min(self.n_queries, self.docs_per_query, self.n_systems) < 1:
            raise ValueError("testbed counts must be at least 1")
        if self.n_groups < 2:
            raise ValueError("testbed needs at least 2 groups")
        if not 0.0 <= self.spread <= 1.0:
            raise ValueError("spread must lie in [0, 1]")
        if not self.grade_probs or not all(math.isfinite(p) and p >= 0 for p in self.grade_probs):
            raise ValueError("grade probabilities must be finite and non-negative")
        if abs(math.fsum(self.grade_probs) - 1.0) > SUM_TOL:
            raise ValueError("grade probabilities must sum to one")


class Testbed(NamedTuple):
    table: GroupMembershipTable
    qrels: Qrels
    runset: RunSet

    @property
    def scheme_name(self) -> str:
        return self.table.scheme_names[0]


def generate_testbed(config: TestbedConfig) -> Testbed:
    """Deterministically generate ground-truth annotations, judgments, and a
    run set whose systems span a controlled range of fairness quality.

    Each query gets its own documents with uniformly random one-hot group
    memberships and grades drawn from ``grade_probs``. System s ranks by a
    mix of a rotating round-robin (group-balanced) order and a group-sorted
    (maximally skewed) order; ties break by document id.
    """
    k = config.n_groups
    scheme = GroupScheme("group", tuple(f"g{i}" for i in range(k)))
    rng = np.random.default_rng(config.seed)
    if config.n_systems > 1:
        lambdas = [
            config.spread * s / (config.n_systems - 1) for s in range(config.n_systems)
        ]
    else:
        lambdas = [0.0]
    labels: list[np.ndarray] = []
    judgments: dict[str, dict[str, int]] = {}
    vocabulary: list[str] = []
    spans: list[tuple[str, str, int, int]] = []
    n = config.docs_per_query
    codes = np.empty(config.n_queries * len(lambdas) * n, dtype=np.intp)
    for qi in range(config.n_queries):
        qid = f"q{qi:03d}"
        doc_ids = [f"{qid}_d{di:04d}" for di in range(n)]
        groups = rng.integers(0, k, size=n)
        grades = rng.choice(len(config.grade_probs), size=n, p=config.grade_probs)
        labels.append(groups)
        judgments[qid] = {doc_id: int(g) for doc_id, g in zip(doc_ids, grades)}

        perm = rng.permutation(n)
        g = groups[perm]
        # skewed: grouped by group, in permutation order within a group
        skewed = np.argsort(g, kind="stable")
        within = np.empty(n, dtype=np.intp)
        within[skewed] = np.arange(n) - np.searchsorted(g[skewed], g[skewed])
        # balanced: round-robin; cycle `within` takes each group's next
        # document, leading with group (qi + cycle) % k, so no group
        # systematically owns rank 1 (the keys are distinct)
        balanced = np.argsort(within * k + (g - qi - within) % k)
        pos_balanced = np.empty(n, dtype=np.float64)
        pos_balanced[perm[balanced]] = np.arange(n)
        pos_skewed = np.empty(n, dtype=np.float64)
        pos_skewed[perm[skewed]] = np.arange(n)
        for s, lam in enumerate(lambdas):
            keys = (1.0 - lam) * pos_balanced + lam * pos_skewed
            order = np.argsort(keys, kind="stable")
            start = len(spans) * n
            np.add(order, len(vocabulary), out=codes[start : start + n])
            spans.append((f"sys{s:02d}", qid, start, start + n))
        vocabulary.extend(doc_ids)
    scores = np.tile(np.arange(n, 0, -1, dtype=np.float64), len(spans))
    runset = RunSet.from_columns(vocabulary, codes, scores, spans)
    columns = {scheme.name: (vocabulary, np.eye(k)[np.concatenate(labels)])}
    table = GroupMembershipTable.from_columns([scheme], columns, provenance="synthetic")
    return Testbed(table, Qrels(judgments), runset)


# --- accuracy sweeps ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepTrial:
    """System-level and per-query agreement for one corrupted evaluation."""

    accuracy: float
    trial: int
    pearson: CorrelationResult
    spearman: CorrelationResult
    query_r_mean: float
    query_r_min: float
    query_r_max: float
    query_frac_significant: float
    query_count: int
    query_skipped: int


@dataclass(frozen=True)
class SweepLevel:
    """Trial means at one accuracy level."""

    accuracy: float
    pearson_r: float
    spearman_rho: float
    query_r_mean: float
    query_frac_significant: float


@dataclass(frozen=True)
class SweepResult:
    levels: tuple[float, ...]
    trials: tuple[SweepTrial, ...]
    summary: tuple[SweepLevel, ...]


def _trial_seed(seed: int, level_index: int, trial: int) -> int:
    digest = hashlib.blake2b(
        f"sweep:{seed}:{level_index}:{trial}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def accuracy_sweep(
    testbed: Testbed,
    levels: Sequence[float],
    trials: int,
    metric_config: MetricConfig | None = None,
    seed: int = 0,
    workers: int = 1,
    style: str = "uniform",
    alpha: float = ALPHA,
    scheme_name: str | None = None,
) -> SweepResult:
    """Corrupt annotations at each accuracy level and correlate the degraded
    system scores against the ground-truth ones.

    Each (level, trial) cell corrupts the table hard-label style with its own
    derived seed, re-evaluates every system, and summarises the
    :func:`~rankfair.stats.agreement` of the degraded and true scores; a
    cell with constant system means raises ``ConstantInput``. The run set
    is compiled once; every cell then scores only a new membership matrix.
    Cells run in this process, in cell order: ``workers`` is accepted for
    compatibility, must be at least 1, and changes nothing.

    Each document id is hashed, and its true group (the argmax of its
    stored row, ties to the lowest index) found, once per sweep (see
    :func:`_doc_uniforms`); a cell's draws then mix those keys with the
    cell's seed, and relabel those groups, in a few array operations, with
    no further hashing.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if trials < 1:
        raise ValueError("need at least one trial per level")
    level_list = sorted({float(a) for a in levels})
    if not level_list:
        raise ValueError("need at least one accuracy level")
    table, qrels, runset = testbed.table, testbed.qrels, testbed.runset
    scheme_name = scheme_name or testbed.scheme_name
    scheme = table.scheme(scheme_name)
    # one matrix per level, built (and so validated) before any work
    matrices = [confusion_for_accuracy(scheme, a, style) for a in level_list]
    config = metric_config or MetricConfig()
    ids, stored = table.columns(scheme_name)
    evaluation = CompiledEvaluation(runset, qrels, table, scheme, config)
    if not evaluation.queries:
        raise ConfigError("the sweep has no evaluation queries")
    truth = ScoreTable(evaluation.systems, evaluation.queries, (f"awrf:{scheme_name}",),
                       evaluation.scores(stored)[None], evaluation.runs.lengths == 0)
    keys, true_groups = _doc_keys(ids), np.argmax(stored, axis=1)

    def run_cell(level_index: int, trial: int) -> SweepTrial:
        accuracy = level_list[level_index]
        draws = _mixed_uniforms(_trial_seed(seed, level_index, trial), keys)
        rows = _relabeled(true_groups, draws, matrices[level_index])
        degraded = replace(truth, values=evaluation.scores(rows)[None])
        report = agreement(degraded, truth, alpha)
        if not report.system_rows():
            sides = [side for side, t in (("degraded", degraded), ("true", truth))
                     if len(set(t.means()[0].tolist())) == 1]
            raise ConstantInput(f"accuracy {accuracy}, trial {trial}: "
                                f"the {' and '.join(sides)} system means are constant")
        (system,) = report.system_rows()
        queries = [row.pearson for row in report.query_rows()]
        rs = [c.coefficient for c in queries]
        count = len(rs)
        significant = sum(c.p_value < alpha for c in queries)
        return SweepTrial(
            accuracy=accuracy,
            trial=trial,
            pearson=system.pearson,
            spearman=system.spearman,
            query_r_mean=math.fsum(rs) / count if count else math.nan,
            query_r_min=min(rs, default=math.nan),
            query_r_max=max(rs, default=math.nan),
            query_frac_significant=significant / count if count else math.nan,
            query_count=count,
            query_skipped=len(report.skipped),
        )

    results = [run_cell(li, ti) for li in range(len(level_list)) for ti in range(trials)]

    summary = []
    for li, accuracy in enumerate(level_list):
        rows = results[li * trials : (li + 1) * trials]
        summary.append(
            SweepLevel(
                accuracy=accuracy,
                pearson_r=math.fsum(r.pearson.coefficient for r in rows) / trials,
                spearman_rho=math.fsum(r.spearman.coefficient for r in rows) / trials,
                query_r_mean=math.fsum(r.query_r_mean for r in rows) / trials,
                query_frac_significant=math.fsum(r.query_frac_significant for r in rows)
                / trials,
            )
        )
    return SweepResult(tuple(level_list), tuple(results), tuple(summary))


def _trial_record(t: SweepTrial) -> dict:
    return {
        "accuracy": t.accuracy,
        "trial": t.trial,
        "pearson_r": t.pearson.coefficient,
        "pearson_p": t.pearson.p_value,
        "spearman_rho": t.spearman.coefficient,
        "spearman_p": t.spearman.p_value,
        "n_systems": t.pearson.n,
        "query_r_mean": t.query_r_mean,
        "query_r_min": t.query_r_min,
        "query_r_max": t.query_r_max,
        "query_frac_significant": t.query_frac_significant,
        "query_count": t.query_count,
        "query_skipped": t.query_skipped,
    }


def sweep_trials_to_csv(result: SweepResult) -> str:
    columns = ("accuracy", "trial", "pearson_r", "pearson_p", "spearman_rho", "spearman_p")
    return csv_text(columns, map(_trial_record, result.trials))


def sweep_summary_to_csv(result: SweepResult) -> str:
    """Trial means per accuracy level; plot-ready (x=accuracy, y=mean r)."""
    return csv_text([f.name for f in fields(SweepLevel)], map(asdict, result.summary))


def sweep_to_json(result: SweepResult) -> str:
    return json_text({
        "levels": list(result.levels),
        "trials": [_trial_record(t) for t in result.trials],
        "summary": [asdict(s) for s in result.summary],
    })


# --- annotation cost --------------------------------------------------------------------


def annotation_cost(
    n_docs: float,
    tokens_per_doc: float,
    rate_per_million_tokens: float,
    fixed_cost: float = 0.0,
) -> float:
    """Price of annotating a corpus with a per-token-priced model."""
    inputs = (n_docs, tokens_per_doc, rate_per_million_tokens, fixed_cost)
    if not all(math.isfinite(x) and x >= 0 for x in inputs):
        raise ValueError("cost inputs must be finite and non-negative")
    return n_docs * tokens_per_doc * rate_per_million_tokens / 1e6 + fixed_cost


def default_cost_rates() -> dict:
    """Bundled pricing defaults (see data/cost_rates.json)."""
    from importlib import resources

    with resources.files("rankfair").joinpath("data/cost_rates.json").open("rb") as fh:
        return json.load(fh)
