"""Core domain types: group schemes, membership distributions, rankings, judgments.

All types are immutable once constructed and every operation is pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    LengthMismatch,
    MissingDocument,
    NoUnknownGroup,
    UnknownLabel,
    UnknownScheme,
    ZeroMass,
)

#: Tolerance on "sums to one" checks for membership and exposure vectors.
SUM_TOL = 1e-9

#: Allowed provenance tags for annotation tables.
PROVENANCE_TAGS = ("human", "model", "synthetic")


@dataclass(frozen=True)
class GroupScheme:
    """A named fairness category with an ordered list of group labels.

    ``unknown_index`` marks the label that stands for "membership unknown or
    not applicable", when the scheme has one. It behaves like any other group
    in all computations; it only matters to fallback policies and to targets
    that choose to exclude it.
    """

    name: str
    groups: tuple[str, ...]
    unknown_index: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.name:
            raise ValueError("scheme name must be non-empty")
        if len(self.groups) < 2:
            raise ValueError("a scheme needs at least two groups")
        if any(not g for g in self.groups):
            raise ValueError("group labels must be non-empty")
        if len(set(self.groups)) != len(self.groups):
            raise ValueError("group labels must be unique")
        if self.unknown_index is not None and not 0 <= self.unknown_index < len(self.groups):
            raise ValueError("unknown_index out of range")

    @property
    def k(self) -> int:
        return len(self.groups)

    def index_of(self, label: str) -> int:
        try:
            return self.groups.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} not in scheme {self.name!r}") from None


@dataclass(frozen=True)
class MembershipVector:
    """Distribution over one scheme's groups for a single document.

    Weights are non-negative and sum to one within ``SUM_TOL``. One-hot
    vectors are the common case; soft distributions are equally valid.
    """

    scheme: GroupScheme
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != self.scheme.k:
            raise LengthMismatch(
                f"expected {self.scheme.k} weights for scheme {self.scheme.name!r}, "
                f"got {len(self.weights)}"
            )
        if not all(map(math.isfinite, self.weights)):
            raise ValueError("membership weights must be finite")
        if any(w < 0 for w in self.weights):
            raise ValueError("membership weights must be non-negative")
        if abs(math.fsum(self.weights) - 1.0) > SUM_TOL:
            raise ValueError("membership weights must sum to one")

    def argmax(self) -> int:
        """Index of the heaviest group; ties go to the lowest index."""
        best = 0
        for i in range(1, len(self.weights)):
            if self.weights[i] > self.weights[best]:
                best = i
        return best

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)


class MissingPolicy(enum.Enum):
    """What to do when a document has no stored membership vector."""

    ALL_UNKNOWN = "all-unknown"  # put all mass on the scheme's unknown group
    UNIFORM = "uniform"          # spread mass equally over all groups
    REJECT = "reject"            # raise MissingDocument


def normalize(weights: Sequence[float], scheme: GroupScheme) -> MembershipVector:
    """Scale a raw non-negative weight list into a MembershipVector.

    A vector already summing to one within ``SUM_TOL`` is kept bit-for-bit
    unchanged, which makes normalization idempotent and serialization
    round-trips exact.
    """
    weights = [float(w) for w in weights]
    if len(weights) != scheme.k:
        raise LengthMismatch(
            f"expected {scheme.k} weights for scheme {scheme.name!r}, got {len(weights)}"
        )
    if not all(map(math.isfinite, weights)):
        raise ValueError("weights must be finite")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    try:
        total = math.fsum(weights)
    except OverflowError:  # finite weights whose exact sum is past the float range
        raise ValueError("weight total is not finite") from None
    if total == 0.0:
        raise ZeroMass(f"all-zero weights for scheme {scheme.name!r}")
    if abs(total - 1.0) > SUM_TOL:
        weights = [w / total for w in weights]
    return MembershipVector(scheme, tuple(weights))


def one_hot(scheme: GroupScheme, index: int) -> MembershipVector:
    """Membership vector with all mass on a single group."""
    if not 0 <= index < scheme.k:
        raise ValueError(f"group index {index} out of range for scheme {scheme.name!r}")
    return MembershipVector(scheme, tuple(1.0 if i == index else 0.0 for i in range(scheme.k)))


def fallback_vector(scheme: GroupScheme, policy: MissingPolicy) -> MembershipVector:
    """The vector a missing document resolves to under a non-reject policy."""
    if policy is MissingPolicy.UNIFORM:
        return MembershipVector(scheme, tuple(1.0 / scheme.k for _ in range(scheme.k)))
    if policy is MissingPolicy.ALL_UNKNOWN:
        if scheme.unknown_index is None:
            raise NoUnknownGroup(f"scheme {scheme.name!r} has no unknown group")
        return one_hot(scheme, scheme.unknown_index)
    raise ValueError(f"no fallback vector under policy {policy}")


class GroupMembershipTable:
    """Per scheme, sorted doc ids and a read-only float64 matrix of their
    membership rows. :meth:`docs` and :meth:`get` build vectors on demand.
    ``provenance`` records where the annotations came from (human, model,
    or synthetic) and is metadata only; equality compares the membership
    data.
    """

    def __init__(
        self,
        schemes: Iterable[GroupScheme],
        vectors: Mapping[str, Mapping[str, MembershipVector]] | None = None,
        provenance: str = "human",
    ):
        if provenance not in PROVENANCE_TAGS:
            raise ValueError(f"provenance must be one of {PROVENANCE_TAGS}")
        self.provenance = provenance
        self._schemes: dict[str, GroupScheme] = {}
        for scheme in schemes:
            if scheme.name in self._schemes:
                raise ValueError(f"duplicate scheme {scheme.name!r}")
            self._schemes[scheme.name] = scheme
        self._columns = {name: _sorted_rows(s, (), ()) for name, s in self._schemes.items()}
        self._indexes: dict[str, dict[str, int]] = {}
        self._docs: dict[str, dict[str, MembershipVector]] = {}
        for scheme_name, docs in (vectors or {}).items():
            scheme = self.scheme(scheme_name)
            for doc_id, vector in docs.items():
                if vector.scheme.name != scheme.name:
                    raise ValueError(
                        f"vector for doc {doc_id!r} belongs to scheme "
                        f"{vector.scheme.name!r}, not {scheme_name!r}"
                    )
            rows = [v.weights for v in docs.values()]
            self._columns[scheme_name] = _sorted_rows(scheme, docs, rows)

    @classmethod
    def from_columns(
        cls,
        schemes: Iterable[GroupScheme],
        columns: Mapping[str, tuple[Sequence[str], np.ndarray]],
        provenance: str = "human",
    ) -> "GroupMembershipTable":
        """A table over ``{scheme name: (doc ids, rows)}``, ids in any order;
        a scheme left out is empty, and row arrays kept are made read-only."""
        table = cls(schemes, provenance=provenance)
        for name, (ids, rows) in columns.items():
            table._columns[name] = _sorted_rows(table.scheme(name), ids, rows)
        return table

    @property
    def scheme_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._schemes))

    def scheme(self, name: str) -> GroupScheme:
        try:
            return self._schemes[name]
        except KeyError:
            raise UnknownScheme(f"scheme {name!r} is not registered") from None

    def columns(self, scheme_name: str) -> tuple[tuple[str, ...], np.ndarray]:
        """The scheme's sorted doc ids and its read-only row matrix."""
        return self._columns[self.scheme(scheme_name).name]

    def docs(self, scheme_name: str) -> Mapping[str, MembershipVector]:
        """Doc id -> vector in sorted doc id order; rows with equal bits
        (so ``-0.0`` is not ``0.0``) share one vector."""
        if scheme_name not in self._docs:
            ids, m = self.columns(scheme_name)
            bits, inverse = np.unique(m.view(np.uint64), axis=0, return_inverse=True)
            scheme, rows = self._schemes[scheme_name], bits.view(np.float64).tolist()
            vectors = [MembershipVector(scheme, w) for w in rows]
            self._docs[scheme_name] = dict(zip(ids, map(vectors.__getitem__, inverse.ravel())))
        return self._docs[scheme_name]

    def get(self, scheme_name: str, doc_id: str) -> MembershipVector | None:
        return self.docs(scheme_name)[doc_id] if doc_id in self.matrix(scheme_name)[0] else None

    def matrix(self, scheme_name: str) -> tuple[dict[str, int], np.ndarray]:
        """The scheme's (doc id -> row index, row matrix); the index is built
        on the first call. Callers must not modify either."""
        ids, m = self.columns(scheme_name)
        if scheme_name not in self._indexes:
            self._indexes[scheme_name] = {d: i for i, d in enumerate(ids)}
        return self._indexes[scheme_name], m

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupMembershipTable):
            return NotImplemented
        return self._schemes == other._schemes and all(
            ids == other._columns[n][0] and np.array_equal(m, other._columns[n][1])
            for n, (ids, m) in self._columns.items()
        )

    def __repr__(self) -> str:
        sizes = {name: len(ids) for name, (ids, _) in self._columns.items()}
        return f"GroupMembershipTable(provenance={self.provenance!r}, docs={sizes})"


def _sorted_rows(scheme: GroupScheme, ids, rows) -> tuple[tuple[str, ...], np.ndarray]:
    """One scheme's checked ``(ids, rows)``, in sorted doc id order."""
    ids, m = list(ids), np.asarray(rows, dtype=np.float64)
    m = m if ids else m.reshape(0, scheme.k)
    if m.shape != (len(ids), scheme.k):
        raise LengthMismatch(f"need {len(ids)} rows of {scheme.k} weights for {scheme.name!r}")
    if ids != sorted(ids):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids, m = [ids[i] for i in order], m[order]
    bad = ~np.isfinite(m).all(axis=1) | (m < 0).any(axis=1) | (abs(m.sum(axis=1) - 1) > SUM_TOL)
    if len(set(ids)) < len(ids) or bad.any():
        raise ValueError(f"scheme {scheme.name!r} needs distinct doc ids and rows of finite, "
                         "non-negative weights that sum to one")
    m.setflags(write=False)
    return tuple(ids), m


def membership_of(
    table: GroupMembershipTable,
    doc_id: str,
    scheme: GroupScheme | str,
    fallback: MissingPolicy = MissingPolicy.REJECT,
) -> MembershipVector:
    """Look up a document's membership vector, resolving misses per policy."""
    name = scheme if isinstance(scheme, str) else scheme.name
    resolved = table.scheme(name)
    stored = table.get(name, doc_id)
    if stored is not None:
        return stored
    if fallback is MissingPolicy.REJECT:
        raise MissingDocument(f"doc {doc_id!r} has no membership for scheme {name!r}")
    return fallback_vector(resolved, fallback)


def product_scheme(s1: GroupScheme, s2: GroupScheme, name: str | None = None) -> GroupScheme:
    """Scheme over the cartesian product of two schemes' groups.

    Product labels are ``"<l1>|<l2>"`` laid out row-major by the first
    scheme's index. The product has an unknown group only when both parents
    do (the cell pairing the two unknown labels).
    """
    labels = tuple(f"{a}|{b}" for a in s1.groups for b in s2.groups)
    unknown = None
    if s1.unknown_index is not None and s2.unknown_index is not None:
        unknown = s1.unknown_index * s2.k + s2.unknown_index
    return GroupScheme(name or f"{s1.name}x{s2.name}", labels, unknown)


def intersect_tables(
    table: GroupMembershipTable,
    scheme_names: Sequence[str],
    fallback: MissingPolicy = MissingPolicy.REJECT,
    name: str = "overall",
) -> GroupMembershipTable:
    """Table over the product of several schemes, one row per document.

    Covers the union of the schemes' document sets; a document missing from
    one side is resolved with ``fallback`` before intersecting. Each row is
    the product of the document's rows, assuming independence: for two
    schemes, entry ``i * k2 + j`` is ``w1[i] * w2[j]``, in the group order of
    :func:`product_scheme`.
    """
    if len(scheme_names) < 2:
        raise ValueError("intersection needs at least two schemes")
    schemes = [table.scheme(n) for n in scheme_names]
    ids = list(dict.fromkeys(sorted(chain.from_iterable(table.columns(n)[0] for n in scheme_names))))
    parts = []  # (a scheme's matrix with its fallback row last, each doc's row in it)
    for scheme in schemes:
        index, m = table.matrix(scheme.name)
        rows = np.fromiter(map(index.get, ids, repeat(len(m))), np.intp, len(ids))
        parts.append((np.vstack([m, np.full(scheme.k, np.nan)]), rows))
    # resolve misses in the order a document-by-document pass meets them
    for at, i in sorted((int(np.argmax(rows)), i) for i, (_, rows) in enumerate(parts) if ids):
        members, rows = parts[i]
        if rows[at] == len(members) - 1:
            members[-1] = membership_of(table, ids[at], schemes[i], fallback).weights
    joint, product = schemes[0], np.take(*parts[0], axis=0)
    for scheme, (members, rows) in zip(schemes[1:], parts[1:]):
        joint = product_scheme(joint, scheme)
        part = np.take(members, rows, axis=0)
        product = (product[:, :, None] * part[:, None, :]).reshape(len(ids), joint.k)
        # np.sum is within 1e-15 of the exact sum that normalize() tests
        for i in np.flatnonzero(abs(product.sum(axis=1) - 1.0) > SUM_TOL / 2).tolist():
            product[i] = normalize(product[i].tolist(), joint).weights
    renamed = GroupScheme(name, joint.groups, joint.unknown_index)
    return GroupMembershipTable.from_columns([renamed], {name: (ids, product)}, table.provenance)


@dataclass(frozen=True)
class Ranking:
    """One system's ordered result list for one query.

    Rank is implicit: position 0 holds rank 1. The stored order is
    authoritative; scores are carried along but never re-sorted.
    """

    query_id: str
    entries: tuple[tuple[str, float], ...]
    system_tag: str

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((str(d), float(s)) for d, s in self.entries)
        )
        seen = set()
        for doc_id, _ in self.entries:
            if doc_id in seen:
                raise ValueError(
                    f"doc {doc_id!r} appears twice in ranking "
                    f"({self.system_tag!r}, {self.query_id!r})"
                )
            seen.add(doc_id)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self.entries)


def _trusted_ranking(
    query_id: str, entries: tuple[tuple[str, float], ...], system_tag: str
) -> Ranking:
    """A Ranking of entries already known to be (str, float) pairs with
    unique documents, built without the per-entry checks."""
    ranking = object.__new__(Ranking)
    object.__setattr__(ranking, "query_id", query_id)
    object.__setattr__(ranking, "entries", entries)
    object.__setattr__(ranking, "system_tag", system_tag)
    return ranking


class RunSet:
    """All rankings of an experiment: system tag -> query id -> Ranking.

    Held as columns: ``vocabulary`` lists each document id once, and every
    (system, query) ranking owns a slice of ``codes`` (indices into the
    vocabulary) and of ``scores``, in rank order. The columns are the only
    form kept: :meth:`get` and :meth:`rankings` build an equal Ranking from
    them on each call and keep none.
    """

    def __init__(self, rankings: Iterable[Ranking]):
        vocabulary: dict[str, int] = {}
        codes: list[int] = []
        scores: list[float] = []
        spans = []
        for ranking in rankings:
            start = len(codes)
            codes.extend([vocabulary.setdefault(d, len(vocabulary)) for d, _ in ranking.entries])
            scores.extend([s for _, s in ranking.entries])
            spans.append((ranking.system_tag, ranking.query_id, start, len(codes)))
        self._set_columns(list(vocabulary), np.array(codes), np.array(scores), spans)

    @classmethod
    def from_columns(
        cls,
        vocabulary: Sequence[str],
        codes: np.ndarray,
        scores: np.ndarray,
        spans: Iterable[tuple[str, str, int, int]],
    ) -> "RunSet":
        """A run set over columns already in rank order; ``spans`` holds
        ``(system, query, start, stop)`` per ranking, and the docs of one
        ranking must be distinct."""
        runset = cls.__new__(cls)
        runset._set_columns(vocabulary, codes, scores, spans)
        return runset

    @classmethod
    def concat(cls, parts: Sequence["RunSet"]) -> "RunSet":
        """One run set holding the rankings of several; a (system, query)
        pair present in more than one part raises ``ValueError``."""
        vocabulary: dict[str, int] = {}
        codes, scores, spans = [], [], []
        offset = 0
        for part in parts:
            remap = [vocabulary.setdefault(d, len(vocabulary)) for d in part.vocabulary]
            codes.append(np.array(remap, dtype=np.intp)[part.codes])
            scores.append(part.scores)
            for system_tag in part.systems:
                for query_id, (start, stop) in sorted(part._spans[system_tag].items()):
                    spans.append((system_tag, query_id, offset + start, offset + stop))
            offset += len(part.codes)
        return cls.from_columns(
            list(vocabulary), np.concatenate(codes), np.concatenate(scores), spans
        )

    def _set_columns(self, vocabulary, codes, scores, spans) -> None:
        self.vocabulary: tuple[str, ...] = tuple(vocabulary)
        self.codes = np.asarray(codes, dtype=np.intp)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.codes.setflags(write=False)
        self.scores.setflags(write=False)
        self._spans: dict[str, dict[str, tuple[int, int]]] = {}
        for system_tag, query_id, start, stop in spans:
            per_system = self._spans.setdefault(system_tag, {})
            if query_id in per_system:
                raise ValueError(f"duplicate ranking for ({system_tag!r}, {query_id!r})")
            per_system[query_id] = (int(start), int(stop))

    @property
    def systems(self) -> tuple[str, ...]:
        return tuple(sorted(self._spans))

    def queries(self, system_tag: str) -> tuple[str, ...]:
        return tuple(sorted(self._spans[system_tag]))

    @property
    def all_queries(self) -> tuple[str, ...]:
        seen = set()
        for per_system in self._spans.values():
            seen.update(per_system)
        return tuple(sorted(seen))

    def span(self, system_tag: str, query_id: str) -> tuple[int, int] | None:
        """``(start, stop)`` of a ranking in ``codes`` and ``scores``, or None."""
        return self._spans.get(system_tag, {}).get(query_id)

    def slices(
        self, systems: Sequence[str], queries: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Start and length in ``codes`` of every (system, query) ranking,
        as two (systems, queries) arrays; an absent ranking has length zero."""
        starts = np.zeros((len(systems), len(queries)), dtype=np.intp)
        lengths = np.zeros_like(starts)
        for a, system_tag in enumerate(systems):
            per_system = self._spans.get(system_tag, {})
            for b, query_id in enumerate(queries):
                start, stop = per_system.get(query_id, (0, 0))
                starts[a, b] = start
                lengths[a, b] = stop - start
        return starts, lengths

    def doc_list(self, start: int, stop: int) -> list[str]:
        """Document ids of ``codes[start:stop]``."""
        return list(map(self.vocabulary.__getitem__, self.codes[start:stop].tolist()))

    def get(self, system_tag: str, query_id: str) -> Ranking | None:
        span = self.span(system_tag, query_id)
        if span is None:
            return None
        entries = tuple(zip(self.doc_list(*span), self.scores[span[0] : span[1]].tolist()))
        return _trusted_ranking(query_id, entries, system_tag)

    def rankings(self) -> Iterable[Ranking]:
        for system_tag in self.systems:
            for query_id in self.queries(system_tag):
                yield self.get(system_tag, query_id)

    def __len__(self) -> int:
        return sum(len(per_system) for per_system in self._spans.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunSet):
            return NotImplemented
        if {s: q.keys() for s, q in self._spans.items()} != {
            s: q.keys() for s, q in other._spans.items()
        }:
            return False
        for system_tag, per_system in self._spans.items():
            for query_id, (start, stop) in per_system.items():
                o_start, o_stop = other._spans[system_tag][query_id]
                if not np.array_equal(self.scores[start:stop], other.scores[o_start:o_stop]):
                    return False
                if self.doc_list(start, stop) != other.doc_list(o_start, o_stop):
                    return False
        return True

    def __repr__(self) -> str:
        return f"RunSet(systems={len(self._spans)}, rankings={len(self)})"


@dataclass(frozen=True)
class RankingSequence:
    """Ordered rankings delivered for one query, e.g. by a stochastic policy."""

    query_id: str
    rankings: tuple[Ranking, ...]
    policy: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rankings", tuple(self.rankings))
        if not self.rankings:
            raise ValueError("a ranking sequence must not be empty")
        for ranking in self.rankings:
            if ranking.query_id != self.query_id:
                raise ValueError(
                    f"ranking for query {ranking.query_id!r} in sequence for {self.query_id!r}"
                )

    def __len__(self) -> int:
        return len(self.rankings)


class Qrels:
    """Graded relevance judgments: query id -> doc id -> grade (int >= 0)."""

    def __init__(self, judgments: Mapping[str, Mapping[str, int]]):
        self._judgments: dict[str, dict[str, int]] = {}
        for query_id, docs in judgments.items():
            per_query: dict[str, int] = {}
            for doc_id, grade in docs.items():
                grade = int(grade)
                if grade < 0:
                    raise ValueError(f"negative grade for ({query_id!r}, {doc_id!r})")
                per_query[str(doc_id)] = grade
            self._judgments[str(query_id)] = per_query

    @property
    def queries(self) -> tuple[str, ...]:
        return tuple(sorted(self._judgments))

    def grades(self, query_id: str) -> Mapping[str, int]:
        return self._judgments.get(query_id, {})

    def relevant(self, query_id: str) -> dict[str, int]:
        """Docs with positive grade for the query."""
        return {d: g for d, g in self.grades(query_id).items() if g > 0}

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._judgments

    def __len__(self) -> int:
        return len(self._judgments)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Qrels):
            return NotImplemented
        return self._judgments == other._judgments

    def __repr__(self) -> str:
        return f"Qrels(queries={len(self._judgments)})"
