"""Attention models and group exposure.

Cumulative exposure of a ranking is the attention-weighted sum of the ranked
documents' membership vectors. Targets come from relevance judgments (mean
membership of relevant documents), from a uniform assumption, or, for
ranking sequences, from the equal-exposure-within-grade rule.

Every exposure and qrels target is computed by one kernel: lists of
documents are compiled once into rows of a scheme's membership matrix
(:func:`compile_entries`), and any membership matrix over the same doc
index is then scored by a gather and a contraction (:func:`weighted_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    SUM_TOL,
    GroupMembershipTable,
    GroupScheme,
    MissingPolicy,
    Qrels,
    Ranking,
    RankingSequence,
    fallback_vector,
)
from .errors import (
    InvalidPatience,
    LengthMismatch,
    MissingDocument,
    NoJudgedDocuments,
    NoRelevantDocuments,
    NoUnknownGroup,
    ZeroMass,
)


@dataclass(frozen=True)
class AttentionModel:
    """Per-rank attention weights.

    * ``geometric``: weight ``p * (1-p)**(rank-1)`` with patience ``p``
    * ``log``: weight ``1 / log2(rank + 1)``
    * ``uniform``: weight 1 at every retained rank (requires a cutoff)

    ``cutoff`` truncates attention: ranks beyond it receive no weight.
    """

    kind: str
    patience: float = 0.5
    cutoff: int | None = None

    def __post_init__(self):
        if self.kind not in ("geometric", "log", "uniform"):
            raise ValueError(f"unknown attention model {self.kind!r}")
        if self.kind == "geometric" and not 0.0 < self.patience < 1.0:
            raise InvalidPatience(f"patience must be in (0, 1), got {self.patience}")
        if self.cutoff is not None and not (self.cutoff >= 1 and float(self.cutoff).is_integer()):
            raise ValueError(f"cutoff must be a whole number of at least 1, got {self.cutoff}")
        if self.kind == "uniform" and self.cutoff is None:
            raise ValueError("uniform attention requires a cutoff")

    @classmethod
    def geometric(cls, patience: float = 0.5, cutoff: int | None = None) -> "AttentionModel":
        return cls("geometric", patience=patience, cutoff=cutoff)

    @classmethod
    def log_discount(cls, cutoff: int | None = None) -> "AttentionModel":
        return cls("log", cutoff=cutoff)

    @classmethod
    def uniform(cls, top: int) -> "AttentionModel":
        return cls("uniform", cutoff=top)


#: Attention model used when a caller does not pick one.
DEFAULT_ATTENTION = AttentionModel.geometric(0.5)


def attention_weights(model: AttentionModel, n: int) -> np.ndarray:
    """Positive weights for ranks 1..min(n, cutoff)."""
    if n < 1:
        raise ValueError("ranking length must be at least 1")
    m = n if model.cutoff is None else min(n, model.cutoff)
    if model.kind == "geometric":
        return model.patience * (1.0 - model.patience) ** np.arange(m, dtype=np.float64)
    if model.kind == "log":
        return 1.0 / np.log2(np.arange(1, m + 1, dtype=np.float64) + 1.0)
    return np.ones(m, dtype=np.float64)


@dataclass(frozen=True)
class ExposureVector:
    """Per-group exposure mass, raw or normalized to a distribution."""

    scheme: GroupScheme
    masses: tuple[float, ...]
    normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        if len(self.masses) != self.scheme.k:
            raise LengthMismatch(
                f"expected {self.scheme.k} masses for scheme {self.scheme.name!r}, "
                f"got {len(self.masses)}"
            )
        if any(m < 0 for m in self.masses):
            raise ValueError("exposure masses must be non-negative")
        if self.normalized and abs(math.fsum(self.masses) - 1.0) > SUM_TOL:
            raise ValueError("normalized exposure must sum to one")

    @property
    def total(self) -> float:
        return math.fsum(self.masses)

    def normalize(self) -> "ExposureVector":
        """Scale masses to sum to one; zero total is an error.

        Masses already summing to one are kept bit-for-bit unchanged.
        """
        masses = normalized_masses(self.as_array(), self.scheme)
        return ExposureVector(self.scheme, tuple(masses.tolist()), normalized=True)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.masses, dtype=np.float64)


def normalized_masses(raw: np.ndarray, scheme: GroupScheme) -> np.ndarray:
    """Scale each row (last axis) of raw masses to sum to one.

    Rows already summing to one within ``SUM_TOL`` are kept bit-for-bit
    unchanged; a row with zero total is an error.
    """
    total = raw.sum(axis=-1, keepdims=True)
    if np.any(total == 0.0):
        raise ZeroMass(f"zero exposure mass for scheme {scheme.name!r}")
    return np.where(np.abs(total - 1.0) <= SUM_TOL, raw, raw / total)


# --- the exposure kernel ------------------------------------------------------------


class CompiledRuns(NamedTuple):
    """A grid of document lists as rows of one doc index's membership matrix.

    With ``n`` docs in the index, ``rows[a, b, i]`` is the row of the i-th
    document of list (a, b): a stored row, ``n`` (the fallback row) for a
    document the index lacks, or ``n + 1`` (the all-zero row) past the end
    of the list. ``lengths[a, b]`` counts the list's compiled positions,
    zero for an absent or empty list. ``missing`` is ``(a, b, doc id)`` of
    the first document the index lacks, in (a, b, position) order, or None.
    """

    rows: np.ndarray
    lengths: np.ndarray
    missing: tuple[int, int, str] | None


def compile_entries(
    grid: Sequence[Sequence[Sequence[tuple] | None]],
    index: dict[str, int],
    depth: int | None = None,
) -> CompiledRuns:
    """Compile a grid of entry lists against a doc index.

    Entries are ``(doc id, value)`` pairs, such as a ranking's entries or
    qrels ``(doc id, grade)`` pairs; ``None`` marks an absent list. Only the
    first ``depth`` positions of each list are kept when ``depth`` is set.
    The lists are encoded as codes into their own doc vocabulary and
    compiled by :func:`compile_codes`.
    """
    vocabulary: dict[str, int] = {}
    codes: list[int] = []
    shape = (len(grid), len(grid[0]) if grid else 0)
    starts = np.zeros(shape, dtype=np.intp)
    lengths = np.zeros(shape, dtype=np.intp)
    for a, row in enumerate(grid):
        for b, entries in enumerate(row):
            if entries is not None:
                starts[a, b] = len(codes)
                lengths[a, b] = len(entries)
                codes.extend([vocabulary.setdefault(d, len(vocabulary)) for d, _ in entries])
    return compile_codes(
        list(vocabulary), np.array(codes, dtype=np.intp), starts, lengths, index, depth
    )


def compile_codes(
    vocabulary: Sequence[str],
    codes: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    index: dict[str, int],
    depth: int | None = None,
) -> CompiledRuns:
    """Compile a grid of lists held as doc codes against a doc index.

    List (a, b) is ``codes[starts[a, b] : starts[a, b] + lengths[a, b]]``,
    each code an index into ``vocabulary``. The vocabulary is mapped to
    membership rows once, and the lists' rows are gathered from that map
    one grid row at a time, so the gather's temporaries are (B, positions)
    arrays, not (A, B, positions) ones.
    """
    n = len(index)
    rows_of = np.fromiter(map(index.get, vocabulary, repeat(n)), np.intp, len(vocabulary))
    if depth is not None:
        lengths = np.minimum(lengths, depth)
    offsets = np.arange(max(1, int(lengths.max(initial=0))))
    rows = np.full(lengths.shape + offsets.shape, n + 1, dtype=np.intp)
    for a, row in enumerate(rows):
        filled = offsets < lengths[a, :, None]
        row[filled] = np.take(rows_of, np.take(codes, (starts[a, :, None] + offsets)[filled]))
    missing = None
    hits = np.flatnonzero(rows == n)
    if hits.size:
        a, b, pos = (int(i) for i in np.unravel_index(hits[0], rows.shape))
        missing = (a, b, vocabulary[codes[starts[a, b] + pos]])
    return CompiledRuns(rows, lengths, missing)


def member_rows(
    matrix: np.ndarray, scheme: GroupScheme, policy: MissingPolicy, *compiled: CompiledRuns
) -> np.ndarray:
    """The membership matrix with its two sentinel rows appended: the
    fallback row, which the compiled lists' missing documents resolve to,
    and the all-zero padding row.

    Under ``REJECT`` a missing document raises ``MissingDocument``, lists
    checked in argument order. When no document is missing the fallback
    row is NaN, so that a read of it could not pass unnoticed.
    """
    missing = next((c.missing for c in compiled if c.missing is not None), None)
    fill = np.full(scheme.k, np.nan)
    if missing is not None:
        if policy is MissingPolicy.REJECT:
            raise MissingDocument(
                f"doc {missing[2]!r} has no membership for scheme {scheme.name!r}"
            )
        fill = fallback_vector(scheme, policy).as_array()
    return np.vstack([matrix, fill, np.zeros(scheme.k)])


def weighted_rows(runs: CompiledRuns, members: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum of each compiled list's membership rows, shape (A, B, k).

    ``weights`` holds one weight per position, or one row of weights per
    list column b. The gather runs one grid row at a time, so no
    temporary larger than (B, positions, k) exists. It is an ``np.take``,
    which copies whole rows where fancy indexing copies element by element:
    the same operands, so the matmul returns the same bits.
    """
    w = np.broadcast_to(weights, runs.rows.shape[1:])[:, None, :]
    out = np.empty(runs.rows.shape[:2] + (members.shape[1],))
    for a, rows in enumerate(runs.rows):
        out[a] = np.matmul(w, np.take(members, rows, axis=0))[:, 0, :]
    return out


def compile_table(
    grid: Sequence[Sequence[Sequence[tuple] | None]],
    table: GroupMembershipTable,
    scheme: GroupScheme,
    fallback: MissingPolicy,
    depth: int | None = None,
) -> tuple[CompiledRuns, np.ndarray]:
    """Compile a grid of entry lists against one scheme of a table: the
    compiled rows, and the scheme's membership matrix with its sentinel rows."""
    index, matrix = table.matrix(scheme.name)
    runs = compile_entries(grid, index, depth)
    return runs, member_rows(matrix, scheme, fallback, runs)


class QrelsTargets:
    """Qrels targets of several queries, compiled against one doc index.

    Each query's target is the mean membership of its relevant documents,
    weighted by grade when ``graded``. ``pair_lists`` holds each query's
    ``(doc id, grade)`` pairs of relevant documents.
    """

    def __init__(
        self, pair_lists: Sequence[Sequence[tuple[str, int]]], index: dict[str, int], graded: bool
    ):
        self.docs = compile_entries([pair_lists], index)
        self.coeffs = np.zeros(self.docs.rows.shape[1:])
        for q, pairs in enumerate(pair_lists):
            self.coeffs[q, : len(pairs)] = [float(g) if graded else 1.0 for _, g in pairs]
        self.denoms = self.coeffs.sum(axis=1, keepdims=True)

    def masses(self, members: np.ndarray, scheme: GroupScheme) -> np.ndarray:
        """Normalized targets, one row per query, for one membership matrix."""
        raw = weighted_rows(self.docs, members, self.coeffs)[0] / self.denoms
        return normalized_masses(raw, scheme)


# --- one-ranking and one-query forms --------------------------------------------------


def _raw_exposures(
    rankings: Sequence[Ranking], table: GroupMembershipTable, scheme: GroupScheme,
    model: AttentionModel, fallback: MissingPolicy,
) -> np.ndarray:
    """Raw exposure of each ranking, shape (rankings, k), from one compile."""
    if any(len(r) == 0 for r in rankings):
        raise ValueError("cannot compute exposure of an empty ranking")
    grid = [[r.entries] for r in rankings]
    runs, members = compile_table(grid, table, scheme, fallback, model.cutoff)
    return weighted_rows(runs, members, attention_weights(model, runs.rows.shape[-1]))[:, 0]


def cumulative_exposure(
    ranking: Ranking,
    table: GroupMembershipTable,
    scheme: GroupScheme | str,
    model: AttentionModel = DEFAULT_ATTENTION,
    fallback: MissingPolicy = MissingPolicy.REJECT,
) -> ExposureVector:
    """Raw cumulative group exposure of a ranking.

    Call ``.normalize()`` on the result for the distribution form used by
    divergence-based metrics.
    """
    scheme = table.scheme(scheme) if isinstance(scheme, str) else scheme
    raw = _raw_exposures([ranking], table, scheme, model, fallback)[0]
    return ExposureVector(scheme, tuple(raw.tolist()), normalized=False)


def target_from_qrels(
    qrels: Qrels,
    query_id: str,
    table: GroupMembershipTable,
    scheme: GroupScheme | str,
    mode: str = "binary",
    fallback: MissingPolicy = MissingPolicy.REJECT,
) -> ExposureVector:
    """Target exposure as the mean membership of relevant documents.

    ``binary`` weighs every relevant document equally; ``graded`` weighs by
    relevance grade.
    """
    if mode not in ("binary", "graded"):
        raise ValueError(f"unknown target mode {mode!r}")
    scheme = table.scheme(scheme) if isinstance(scheme, str) else scheme
    pairs = sorted(qrels.relevant(query_id).items())
    if not pairs:
        raise NoRelevantDocuments(f"no relevant documents for query {query_id!r}")
    index, matrix = table.matrix(scheme.name)
    targets = QrelsTargets([pairs], index, graded=mode == "graded")
    members = member_rows(matrix, scheme, fallback, targets.docs)
    return ExposureVector(scheme, tuple(targets.masses(members, scheme)[0].tolist()), normalized=True)


def target_uniform(scheme: GroupScheme, exclude_unknown: bool = False) -> ExposureVector:
    """Uniform target over the scheme's groups.

    With ``exclude_unknown`` the unknown group gets zero mass and the rest
    share the distribution equally.
    """
    if exclude_unknown:
        if scheme.unknown_index is None:
            raise NoUnknownGroup(f"scheme {scheme.name!r} has no unknown group")
        share = 1.0 / (scheme.k - 1)
        masses = tuple(
            0.0 if i == scheme.unknown_index else share for i in range(scheme.k)
        )
    else:
        masses = tuple(1.0 / scheme.k for _ in range(scheme.k))
    return ExposureVector(scheme, masses, normalized=True)


def expected_group_exposure(
    sequence: RankingSequence,
    table: GroupMembershipTable,
    scheme: GroupScheme | str,
    model: AttentionModel = DEFAULT_ATTENTION,
    fallback: MissingPolicy = MissingPolicy.REJECT,
) -> ExposureVector:
    """Mean raw exposure a ranking sequence delivers to each group.

    Uses exact summation per group, so the result is independent of the
    order rankings appear in the sequence.
    """
    scheme = table.scheme(scheme) if isinstance(scheme, str) else scheme
    raw = _raw_exposures(sequence.rankings, table, scheme, model, fallback)
    return ExposureVector(scheme, tuple(math.fsum(col) / len(sequence) for col in raw.T.tolist()))


def target_group_exposure(
    qrels: Qrels,
    query_id: str,
    table: GroupMembershipTable,
    scheme: GroupScheme | str,
    model: AttentionModel = DEFAULT_ATTENTION,
    fallback: MissingPolicy = MissingPolicy.REJECT,
) -> ExposureVector:
    """Target group exposure under equal exposure within a relevance grade.

    Relevant documents are ranked by grade descending; all documents sharing
    a grade receive the mean attention weight of the positions their band
    occupies (the average over every grade-respecting permutation). Documents
    with grade zero receive no target exposure; a query with judgments but no
    relevant documents yields the all-zero vector.
    """
    scheme = table.scheme(scheme) if isinstance(scheme, str) else scheme
    if query_id not in qrels or not qrels.grades(query_id):
        raise NoJudgedDocuments(f"query {query_id!r} has no judgments")
    relevant = sorted(qrels.relevant(query_id).items(), key=lambda t: (-t[1], t[0]))
    if not relevant:
        return ExposureVector(scheme, (0.0,) * scheme.k, normalized=False)
    weights = attention_weights(model, len(relevant))
    padded = np.pad(weights, (0, len(relevant) - len(weights)))
    bands = np.split(padded, np.flatnonzero(np.diff([g for _, g in relevant])) + 1)
    per_doc = np.repeat([math.fsum(band) / len(band) for band in bands], list(map(len, bands)))
    runs, members = compile_table([[relevant]], table, scheme, fallback)
    gamma = weighted_rows(runs, members, per_doc)[0, 0]
    return ExposureVector(scheme, tuple(gamma.tolist()), normalized=False)
