"""Readers and writers for run files, qrels, and annotation tables, plus
stratified sampling of annotated documents.

All parsers are single-pass and stateless; all writers emit deterministic,
sorted output so that byte-level comparisons are meaningful. Every parser
round-trips with its writer: ``parse(write(x)) == x``.
"""

from __future__ import annotations

import codecs
import json
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import IO, Iterator, Sequence

import numpy as np

from .core import (
    GroupMembershipTable,
    GroupScheme,
    MembershipVector,
    Qrels,
    RunSet,
    normalize,
)
from .errors import (
    DuplicateDocument,
    DuplicateJudgment,
    InsufficientDocuments,
    MalformedLine,
    NegativeGrade,
    NonNumericRank,
    NonNumericScore,
    RankfairError,
    UnknownLabel,
    UnknownScheme,
    ZeroMass,
)


#: Characters read from a source at a time.
_BLOCK = 1 << 20


def _chunks(source: str | bytes | IO) -> Iterator[str | bytes]:
    if isinstance(source, (str, bytes)):
        for start in range(0, len(source), _BLOCK):
            yield source[start : start + _BLOCK]
    else:
        while chunk := source.read(_BLOCK):
            yield chunk


def _line_blocks(source: str | bytes | IO) -> Iterator[list[str]]:
    r"""Lines of a string, bytes (UTF-8) or file object, a block at a time.

    Lines are those of ``text.splitlines()`` on the whole text: a block is
    cut only after a ``\n``, or after a ``\r`` that is not its last
    character, so no line break is split across two blocks.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    carry = ""
    for chunk in _chunks(source):
        text = carry + (decoder.decode(chunk) if isinstance(chunk, bytes) else chunk)
        cut = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1
        carry = text[cut:]
        if cut:
            yield text[:cut].splitlines()
    carry += decoder.decode(b"", final=True)
    if carry:
        yield carry.splitlines()


def _lines(source: str | bytes | IO) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, text) from a string, bytes, or file object."""
    return enumerate(chain.from_iterable(_line_blocks(source)), start=1)


# --- run files ----------------------------------------------------------------


def parse_run(source: str | bytes | IO) -> RunSet:
    """Parse a TREC-style run: ``<qid> Q0 <docid> <rank> <score> <tag>``.

    Fields are separated by runs of spaces or tabs. The second field is
    carried for compatibility and its content is ignored. Entries are
    ordered by the rank field ascending (ties keep input order), regardless
    of the order lines appear in. The source is read in blocks; doc ids and
    (tag, qid) keys become integer codes as lines arrive, and duplicates and
    the rank order are found with array operations at the end. An error
    names the first faulty line of the file.
    """
    docs: dict[str, int] = {}
    keys: dict[tuple[str, str], int] = {}
    doc_codes, key_codes, scores = array("q"), array("q"), array("d")
    ranks: array | list[int] = array("q")
    add_doc, add_key, add_score, add_rank = (
        doc_codes.append, key_codes.append, scores.append, ranks.append
    )
    blanks: list[int] = []  # entries read before each blank line
    last_tag = last_qid = None
    key = -1
    number = 0
    try:
        for lines in _line_blocks(source):
            for line in lines:
                number += 1
                fields = line.split()
                if len(fields) != 6:
                    if not fields:
                        blanks.append(len(scores))
                        continue
                    raise MalformedLine(f"expected 6 fields, got {len(fields)}", line=number)
                qid, _, doc_id, rank_s, score_s, tag = fields
                try:
                    rank = int(rank_s)
                except ValueError:
                    raise NonNumericRank(f"rank {rank_s!r}", line=number) from None
                try:
                    score = float(score_s)
                except ValueError:
                    raise NonNumericScore(f"score {score_s!r}", line=number) from None
                if qid != last_qid or tag != last_tag:
                    key = keys.setdefault((tag, qid), len(keys))
                    last_tag, last_qid = tag, qid
                code = docs.get(doc_id)
                if code is None:
                    code = docs[doc_id] = len(docs)
                try:
                    add_rank(rank)
                except OverflowError:  # beyond int64: keep Python ints from here on
                    ranks = list(ranks)
                    add_rank = ranks.append
                    add_rank(rank)
                add_doc(code)
                add_key(key)
                add_score(score)
    except RankfairError:
        _raise_first_duplicate(doc_codes, key_codes, docs, keys, blanks)
        raise
    _raise_first_duplicate(doc_codes, key_codes, docs, keys, blanks)
    key_codes = np.frombuffer(key_codes, dtype=np.int64)
    if isinstance(ranks, list):  # order-preserving small stand-ins for huge ranks
        dense = {rank: i for i, rank in enumerate(sorted(set(ranks)))}
        ranks = array("q", map(dense.__getitem__, ranks))
    order = np.lexsort((np.frombuffer(ranks, dtype=np.int64), key_codes))
    counts = np.bincount(key_codes, minlength=len(keys)).tolist()
    spans = [
        (tag, qid, stop - count, stop)
        for (tag, qid), count, stop in zip(keys, counts, accumulate(counts))
    ]
    return RunSet.from_columns(
        list(docs),
        np.frombuffer(doc_codes, dtype=np.int64)[order],
        np.frombuffer(scores, dtype=np.float64)[order],
        spans,
    )


def _raise_first_duplicate(
    doc_codes: array, key_codes: array, docs: dict, keys: dict, blanks: list[int]
) -> None:
    """Raise ``DuplicateDocument`` for the first entry, in file order, that
    repeats an earlier entry's (tag, qid, doc)."""
    pairs = np.frombuffer(key_codes, dtype=np.int64) * max(1, len(docs))
    pairs += np.frombuffer(doc_codes, dtype=np.int64)
    _, first = np.unique(pairs, return_index=True)
    if len(first) == len(pairs):
        return
    repeat = np.ones(len(pairs), dtype=bool)
    repeat[first] = False
    entry = int(np.argmax(repeat))
    doc_id = list(docs)[doc_codes[entry]]
    tag, qid = list(keys)[key_codes[entry]]
    raise DuplicateDocument(
        f"doc {doc_id!r} repeated for ({tag!r}, {qid!r})",
        line=entry + 1 + bisect_right(blanks, entry),
    )


def write_run(runset: RunSet) -> str:
    """Serialize a RunSet; systems and queries sorted, ranks renumbered 1..n."""
    out = []
    for system_tag in runset.systems:
        for query_id in runset.queries(system_tag):
            start, stop = runset.span(system_tag, query_id)
            entries = zip(runset.doc_list(start, stop), runset.scores[start:stop].tolist())
            lines = [
                f"{query_id} Q0 {doc_id} {position} {score!r} {system_tag}\n"
                for position, (doc_id, score) in enumerate(entries, start=1)
            ]
            out.append("".join(lines))
    return "".join(out)


# --- qrels ----------------------------------------------------------------------


def parse_qrels(source: str | bytes | IO) -> Qrels:
    """Parse qrels lines ``<qid> <iter> <docid> <grade>``; iteration is ignored."""
    judgments: dict[str, dict[str, int]] = {}
    for number, line in _lines(source):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 4:
            raise MalformedLine(f"expected 4 fields, got {len(fields)}", line=number)
        qid, _, doc_id, grade_s = fields
        try:
            grade = int(grade_s)
        except ValueError:
            raise MalformedLine(f"grade {grade_s!r} is not an integer", line=number) from None
        if grade < 0:
            raise NegativeGrade(f"grade {grade} for ({qid!r}, {doc_id!r})", line=number)
        per_query = judgments.setdefault(qid, {})
        if doc_id in per_query:
            raise DuplicateJudgment(f"({qid!r}, {doc_id!r}) judged twice", line=number)
        per_query[doc_id] = grade
    return Qrels(judgments)


def write_qrels(qrels: Qrels) -> str:
    out = []
    for qid in qrels.queries:
        grades = qrels.grades(qid)
        for doc_id in sorted(grades):
            out.append(f"{qid} 0 {doc_id} {grades[doc_id]}\n")
    return "".join(out)


# --- annotation tables ----------------------------------------------------------


@dataclass(frozen=True)
class AnnotationRecord:
    """One parsed annotation row: a document's weights for one scheme."""

    doc_id: str
    scheme: str
    weights: tuple[tuple[str, float], ...]  # (label, raw weight), labels unique


def _record_to_vector(
    record: AnnotationRecord, schemes: dict[str, GroupScheme], line: int
) -> MembershipVector:
    if record.scheme not in schemes:
        raise UnknownScheme(f"scheme {record.scheme!r} not declared", line=line)
    scheme = schemes[record.scheme]
    raw = [0.0] * scheme.k
    for label, weight in record.weights:
        if label not in scheme.groups:
            raise UnknownLabel(
                f"label {label!r} not in scheme {record.scheme!r}", line=line
            )
        if not math.isfinite(weight):
            raise MalformedLine(f"weight {weight!r} for label {label!r} is not finite", line=line)
        if weight < 0:
            raise MalformedLine(f"negative weight for label {label!r}", line=line)
        raw[scheme.groups.index(label)] = weight
    try:
        return normalize(raw, scheme)
    except ZeroMass:
        raise ZeroMass(f"all-zero weights for doc {record.doc_id!r}", line=line) from None
    except ValueError as exc:
        raise MalformedLine(f"{exc} for doc {record.doc_id!r}", line=line) from None


def _parse_weight_spec(weight_spec: str, number: int) -> tuple[tuple[str, float], ...]:
    weights = []
    for part in weight_spec.split(","):
        label, sep, weight_s = part.rpartition(":")
        if not sep or not label:
            raise MalformedLine(f"bad label:weight pair {part!r}", line=number)
        try:
            weight = float(weight_s)
        except ValueError:
            raise MalformedLine(f"weight {weight_s!r} is not a number", line=number) from None
        weights.append((label, weight))
    return tuple(weights)


def _parse_jsonl_record(line: str, number: int) -> AnnotationRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLine(f"invalid JSON ({exc.msg})", line=number) from None
    if not isinstance(obj, dict) or not {"doc", "scheme", "weights"} <= set(obj):
        raise MalformedLine("object needs keys doc, scheme, weights", line=number)
    weights = obj["weights"]
    if not isinstance(weights, dict):
        raise MalformedLine("weights must be an object", line=number)
    pairs = []
    for label, weight in weights.items():
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise MalformedLine(f"weight for label {label!r} is not a number", line=number)
        pairs.append((str(label), float(weight)))
    return AnnotationRecord(str(obj["doc"]), str(obj["scheme"]), tuple(pairs))


def parse_annotations(
    source: str | bytes | IO,
    schemes: Sequence[GroupScheme],
    format: str = "tsv",
    provenance: str = "human",
) -> GroupMembershipTable:
    """Parse an annotation table in TSV or JSONL form.

    TSV rows are ``<docid>\\t<scheme>\\t<label>:<weight>[,<label>:<weight>...]``;
    JSONL rows are ``{"doc": ..., "scheme": ..., "weights": {label: weight}}``.
    Weights must be finite; they are normalized per document, and labels not
    listed get weight zero. A TSV weight text is parsed and checked once per
    scheme, the first time it is seen; a text is remembered only once it has
    passed its checks.
    """
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown annotation format {format!r}")
    by_name = {s.name: s for s in schemes}
    rows: dict[str, dict[str, tuple[float, ...]]] = {n: {} for n in by_name}
    seen: dict[tuple[str, str], tuple[float, ...]] = {}
    for number, line in _lines(source):
        if not line.strip():
            continue
        if format == "tsv":
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedLine(
                    f"expected 3 tab-separated fields, got {len(fields)}", line=number
                )
            doc_id, scheme, weight_spec = fields
            weights = seen.get((scheme, weight_spec))
            if weights is None:
                record = AnnotationRecord(doc_id, scheme, _parse_weight_spec(weight_spec, number))
                vector = _record_to_vector(record, by_name, number)
                weights = seen[scheme, weight_spec] = vector.weights
        else:
            record = _parse_jsonl_record(line, number)
            doc_id, scheme = record.doc_id, record.scheme
            weights = _record_to_vector(record, by_name, number).weights
        per_scheme = rows[scheme]
        if doc_id in per_scheme:
            raise DuplicateDocument(
                f"doc {doc_id!r} repeated for scheme {scheme!r}", line=number
            )
        per_scheme[doc_id] = weights
    columns = {name: (list(docs), list(docs.values())) for name, docs in rows.items()}
    return GroupMembershipTable.from_columns(schemes, columns, provenance=provenance)


def write_annotations(table: GroupMembershipTable, format: str = "tsv") -> str:
    """Serialize a table; rows grouped by scheme name, then document id.

    Only labels with non-zero weight are written, in scheme order.
    """
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown annotation format {format!r}")
    out = []
    for scheme_name in table.scheme_names:
        groups = table.scheme(scheme_name).groups
        ids, m = table.columns(scheme_name)
        for doc_id, weights in zip(ids, m.tolist()):
            pairs = [(label, weight) for label, weight in zip(groups, weights) if weight != 0.0]
            if format == "tsv":
                spec = ",".join(f"{label}:{weight!r}" for label, weight in pairs)
                out.append(f"{doc_id}\t{scheme_name}\t{spec}\n")
            else:
                obj = {"doc": doc_id, "scheme": scheme_name, "weights": dict(pairs)}
                out.append(json.dumps(obj) + "\n")
    return "".join(out)


# --- stratified sampling ----------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Per-group train/test counts for one scheme, with a fixed seed."""

    scheme: str
    train_per_group: int
    test_per_group: int
    seed: int = 0

    def __post_init__(self):
        if self.train_per_group < 0 or self.test_per_group < 0:
            raise ValueError("sample counts must be non-negative")


def stratified_sample(
    table: GroupMembershipTable, plan: SamplePlan
) -> tuple[set[str], set[str]]:
    """Draw disjoint train/test document id sets, equally sized per group.

    A document counts toward its argmax group (ties: lowest group index).
    The draw is a pure function of the plan's seed.
    """
    scheme = table.scheme(plan.scheme)
    ids, m = table.columns(plan.scheme)
    labels = np.argmax(m, axis=1)  # ties go to the lowest index
    by_group = [[ids[i] for i in np.flatnonzero(labels == g).tolist()] for g in range(scheme.k)]
    need = plan.train_per_group + plan.test_per_group
    rng = np.random.default_rng(plan.seed)
    train: set[str] = set()
    test: set[str] = set()
    for index, group in enumerate(scheme.groups):
        candidates = by_group[index]
        if len(candidates) < need:
            raise InsufficientDocuments(group, len(candidates), need)
        order = rng.permutation(len(candidates))
        picked = [candidates[i] for i in order[:need]]
        train.update(picked[: plan.train_per_group])
        test.update(picked[plan.train_per_group :])
    return train, test
