"""Synthetic annotators with controlled accuracy, synthetic evaluation
testbeds, and accuracy-vs-correlation sweeps.

Annotation accuracy is controlled directly through row-stochastic confusion
matrices instead of training classifiers, which isolates the relationship
between annotation quality and metric agreement. All randomness is either
seeded or derived from per-document hashes, so every result is a pure
function of its inputs and independent of iteration order or scheduling.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import mmap
import os
import select
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import _fork
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


def _doc_digests(seed: int, doc_ids: Sequence[str]) -> bytearray:
    """The 8-byte blake2b digest of ``f"{seed}:{doc_id}"`` of each document,
    concatenated: the stream that :func:`_doc_uniforms` reads."""
    prefix = hashlib.blake2b(f"{seed}:".encode("utf-8"), digest_size=8)
    digests = bytearray()
    for doc_id in doc_ids:
        h = prefix.copy()
        h.update(doc_id.encode("utf-8"))
        digests += h.digest()
    return digests


def _uniforms(digests: bytes | bytearray) -> np.ndarray:
    """Digests read as little-endian 64-bit integers, scaled to [0, 1)."""
    return np.frombuffer(digests, dtype="<u8") / 2.0**64


def _doc_uniforms(seed: int, doc_ids: Sequence[str]) -> np.ndarray:
    """Uniform draws in [0, 1), one per document, from a per-document hash
    stream: the blake2b digest of ``f"{seed}:{doc_id}"``. A draw depends on
    neither iteration order nor the other documents."""
    return _uniforms(_doc_digests(seed, doc_ids))


def _corrupted_rows(
    stored: np.ndarray, doc_ids: Sequence[str], matrix: ConfusionMatrix, seed: int, mode: str
) -> np.ndarray:
    """Membership rows of ``doc_ids`` (rows of ``stored``) after corruption
    through ``matrix``; see :func:`apply_confusion`."""
    if mode == "soft":
        return stored @ matrix.as_array()
    return _relabeled(stored, _doc_uniforms(seed, doc_ids), matrix)


def _relabeled(stored: np.ndarray, draws: np.ndarray, matrix: ConfusionMatrix) -> np.ndarray:
    """One-hot rows: each row's argmax group relabeled through ``matrix`` by
    the row's draw."""
    k = matrix.scheme.k
    truth = np.argmax(stored, axis=1)  # ties resolve to the lowest index
    # each cumulative row is non-decreasing, so counting the entries at or
    # below a draw is searchsorted(side="right") on that row
    cum = np.cumsum(matrix.as_array(), axis=1)
    labels = np.count_nonzero(cum[truth] <= draws[:, None], axis=1)
    return np.eye(k)[np.minimum(labels, k - 1)]


def apply_confusion(
    table: GroupMembershipTable,
    matrix: ConfusionMatrix,
    seed: int = 0,
    mode: str = "hard",
) -> GroupMembershipTable:
    """Corrupt one scheme's annotations through a confusion matrix.

    ``hard`` relabels each document's argmax group i to a one-hot label j
    drawn with probability rows[i][j]; the draw comes from a hash of
    (seed, doc id), so it does not depend on iteration order. ``soft``
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
    codes: list[np.ndarray] = []
    spans: list[tuple[str, str, int, int]] = []
    n = config.docs_per_query
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
            start = len(codes) * n
            codes.append(len(vocabulary) + order)
            spans.append((f"sys{s:02d}", qid, start, start + n))
        vocabulary.extend(doc_ids)
    scores = np.tile(np.arange(n, 0, -1, dtype=np.float64), len(codes))
    runset = RunSet.from_columns(vocabulary, np.concatenate(codes), scores, spans)
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


#: Draws in a sweep (cells times documents), at least, for a forked
#: producer to hash them ahead; a smaller sweep hashes its own draws. Near
#: this size, forking and hashing here take about as long on two CPUs.
MIN_DRAWS = 1 << 15

#: Cells a forked producer may hash ahead of the cells read from it: the
#: slots of its ring, each holding one cell's digests.
RING_SLOTS = 4


def _produce(ring: mmap.mmap, doc_ids: Sequence[str], seeds: Sequence[int], full: int,
             free: int) -> None:
    """In the forked producer: write each cell's digests into slot ``cell %
    slots`` of ``ring``, then the cell's number down ``full``; a slot is
    written again only after a byte has come up ``free``."""
    size = 8 * len(doc_ids)
    slots = len(ring) // size
    for cell, seed in enumerate(seeds):
        if cell >= slots and not os.read(free, 1):
            return  # the sweep has gone
        ring[cell % slots * size : (cell % slots + 1) * size] = _doc_digests(seed, doc_ids)
        os.write(full, cell.to_bytes(8, "little"))


class _CellDraws:
    """Each sweep cell's draws, ``_doc_uniforms(seed, doc_ids)`` for each
    of ``seeds``, as ``(cell, draws)`` pairs, with a forked producer hashing
    from the first cell on when :func:`accuracy_sweep` says so. Leaving the
    ``with`` block kills and reaps the producer."""

    def __init__(self, doc_ids: Sequence[str], seeds: Sequence[int]):
        self.doc_ids, self.seeds = doc_ids, seeds
        self.size = 8 * len(doc_ids)
        self.producer: _fork.Child | None = None
        self.cleanup = contextlib.ExitStack()

    def __enter__(self) -> Iterator[tuple[int, np.ndarray]]:
        draws = len(self.seeds) * len(self.doc_ids)
        if draws >= MIN_DRAWS and _fork.cpus() > 1 and _fork.may_fork():
            try:
                self._start()
            except OSError:  # no memory for the ring or no descriptor left: work serially
                self._stop()
        return self._cells()

    def _start(self) -> None:
        """Map the ring and fork the producer; OSError if the ring or a pipe
        cannot be made."""
        self.slots = min(RING_SLOTS, len(self.seeds))
        self.ring = self.cleanup.enter_context(mmap.mmap(-1, self.slots * self.size))
        taken, self.free = os.pipe()
        self.cleanup.callback(os.close, self.free)

        def produce(full: int) -> None:
            os.close(self.free)  # so that the producer sees the sweep end
            _produce(self.ring, self.doc_ids, self.seeds, full, taken)

        try:
            self.producer = _fork.start(produce)
        finally:
            os.close(taken)
        if self.producer is not None:
            self.cleanup.callback(_fork.reap, [self.producer])

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        self.producer = None
        self.cleanup.close()

    def _cells(self) -> Iterator[tuple[int, np.ndarray]]:
        """Every cell once. From the front, the cells come in order; while
        the producer is still hashing the front cell, this process hashes
        the back cell, so that neither waits for the other until they meet."""
        front, back = 0, len(self.seeds)
        while front < back:
            if self.producer is not None and front + 1 < back and not self._delivered():
                back -= 1
                yield back, _doc_uniforms(self.seeds[back], self.doc_ids)
            else:
                yield front, self._draws(front, back)
                front += 1
        self._stop()  # the producer would only hash the cells taken from the back

    def _delivered(self) -> bool:
        """Whether the producer has reported a cell (or ended) since the
        last cell read from it."""
        return bool(select.select([self.producer.pipe], [], [], 0)[0])

    def _draws(self, cell: int, back: int) -> np.ndarray:
        """The draws of ``cell``, the front cell, from the producer if it
        delivers them; the producer's cells before ``back`` are still to be
        read."""
        if self.producer is not None:
            at = cell % self.slots * self.size
            # the pipe's tokens are read unbuffered, so that _delivered sees them
            if os.read(self.producer.pipe.fileno(), 8) == cell.to_bytes(8, "little"):
                draws = _uniforms(self.ring[at : at + self.size])
                if cell + self.slots < back:
                    # the producer may fill the slot again; a dead one has
                    # left only whole slots behind, which later reads take
                    with contextlib.suppress(BrokenPipeError):
                        os.write(self.free, b"\0")
                return draws
            self._stop()  # the producer has died: the cells left are hashed here
        return _doc_uniforms(self.seeds[cell], self.doc_ids)


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
    Cells are scored in this process: ``workers`` is accepted for
    compatibility, must be at least 1, and changes nothing.

    A sweep of at least ``MIN_DRAWS`` draws (cells times documents) forks
    one producer before the compile, if this process may run on two or
    more CPUs and runs no other Python thread. The producer hashes each
    cell's draw stream, in cell order, into a shared ring of ``RING_SLOTS``
    slots of ``8 * n_docs`` bytes each (1.6 MB for 50,000 documents), so it
    runs at most that many cells ahead of the cells read from it; this
    process reads a slot only after the producer has reported it full.
    While the producer is still on the next cell, this process hashes and
    scores a cell from the back of the sweep itself, and the producer is
    killed once the two meet. From the first cell the producer fails to
    deliver, this process hashes every draw left. Each draw comes from the
    same function whichever process hashed it, and a failing cell raises
    as it would in cell order, so the output does not depend on which path
    ran. The producer is killed and reaped before the sweep returns or
    raises.
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
    cells = [(li, ti) for li in range(len(level_list)) for ti in range(trials)]

    def run_cell(level_index: int, trial: int, draws: np.ndarray) -> SweepTrial:
        accuracy = level_list[level_index]
        rows = _relabeled(stored, draws, matrices[level_index])
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

    # the producer, if any, hashes the first cells while the run set compiles
    with _CellDraws(ids, [_trial_seed(seed, li, ti) for li, ti in cells]) as draws:
        evaluation = CompiledEvaluation(runset, qrels, table, scheme, config)
        if not evaluation.queries:
            raise ConfigError("the sweep has no evaluation queries")
        truth = ScoreTable(evaluation.systems, evaluation.queries, (f"awrf:{scheme_name}",),
                           evaluation.scores(stored)[None], evaluation.runs.lengths == 0)
        results: list = [None] * len(cells)
        deferred = None  # the failure of the lowest cell taken from the back
        for cell, cell_draws in draws:
            try:
                results[cell] = run_cell(*cells[cell], cell_draws)
            except ConstantInput as error:
                if None not in results[:cell]:
                    raise  # no cell before it is left: the first failure in cell order
                deferred = error  # cells from the back come last first
    if deferred is not None:
        raise deferred

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
