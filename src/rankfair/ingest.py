"""Readers and writers for run files, qrels, and annotation tables, plus
stratified sampling of annotated documents.

All parsers are single-pass and stateless; all writers emit deterministic,
sorted output so that byte-level comparisons are meaningful. Every parser
round-trips with its writer: ``parse(write(x)) == x``.
"""

from __future__ import annotations

import codecs
import io
import json
import math
import os
import pickle
import stat
import warnings
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import _fork
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

#: Bytes of a run file per process, at least: a file of ``2 * MIN_PART``
#: bytes or more is cut into byte ranges scanned in parallel.
MIN_PART = 8 << 20


def _chunks(source: str | bytes | IO) -> Iterator[str | bytes]:
    if isinstance(source, (str, bytes)):
        for start in range(0, len(source), _BLOCK):
            yield source[start : start + _BLOCK]
    else:
        while chunk := source.read(_BLOCK):
            yield chunk


def _range_chunks(fd: int, start: int, stop: int) -> Iterator[bytes]:
    """Bytes ``start:stop`` of an open file, a block at a time."""
    while start < stop and (chunk := os.pread(fd, min(_BLOCK, stop - start), start)):
        start += len(chunk)
        yield chunk


def _text_blocks(chunks: Iterable[str | bytes], at_start: bool = True) -> Iterator[str]:
    r"""Text or UTF-8 bytes chunks as blocks of whole lines.

    Lines are those of ``text.splitlines()`` on the whole text: a block is
    cut only after a ``\n``, or after a ``\r`` that is not its last
    character, so no line break is split across two blocks. When the
    chunks start a file (``at_start``), one leading byte-order mark
    (U+FEFF) is dropped.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    carry = ""
    for chunk in chunks:
        text = carry + (decoder.decode(chunk) if isinstance(chunk, bytes) else chunk)
        if at_start and text:
            text, at_start = text.removeprefix("\ufeff"), False
        cut = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1
        carry = text[cut:]
        if cut:
            yield text[:cut]
    carry += decoder.decode(b"", final=True)
    if carry:
        yield carry


def _lines(source: str | bytes | IO) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, text) from a string, bytes, or file object."""
    blocks = _text_blocks(_chunks(source))
    return enumerate(chain.from_iterable(map(str.splitlines, blocks)), start=1)


# --- run files ----------------------------------------------------------------


def parse_run(source: str | bytes | IO) -> RunSet:
    r"""Parse a TREC-style run: ``<qid> Q0 <docid> <rank> <score> <tag>``.

    Fields are separated by runs of spaces or tabs. The second field is
    carried for compatibility and its content is ignored. Entries are
    ordered by the rank field ascending (ties keep input order), regardless
    of the order lines appear in; input already in that order (each
    ranking's lines together, ranks never decreasing) is not re-sorted.
    The source is read in blocks; doc ids and
    (tag, qid) keys become integer codes as lines arrive, and duplicates and
    the rank order are found with array operations at the end. An error
    names the first faulty line of the file.

    A block is tokenized by numpy's C text reader when it is ASCII, holds
    none of NUL, ``\x0b``, ``\x0c``, ``\x1c``, ``\x1d`` and ``\x1e``, and
    the reader returns one row per line (as ``str.splitlines`` counts them)
    with no error and no warning; its ids must also be shorter than 256
    bytes and their hashes must not collide. The first block that fails
    any of these (a blank or faulty line, a rank beyond int64, a number
    numpy does not read) and every block after it in the same part of the
    file (see below) are tokenized by the per-line loop, which gives the
    same columns and every error; so a part costs at most one block's
    failed reads more than the loop alone.

    A regular file of at least ``2 * MIN_PART`` bytes, opened at its start
    in binary or strict UTF-8 text mode, is cut after ``\n`` bytes into up
    to one byte range per available CPU; forked workers scan all ranges
    but the first, and the parts are merged in file order into the same
    RunSet. If any part fails, the whole file is scanned again serially,
    so errors are those of a serial parse.
    """
    docs, keys, blanks, (doc_codes, key_codes, ranks, scores) = (
        _scan_file(source) or _scan_run(_chunks(source))
    )
    doc_codes, key_codes, scores = map(np.asarray, (doc_codes, key_codes, scores))
    _raise_first_duplicate(doc_codes, key_codes, docs, keys, blanks)
    widened = isinstance(ranks, list)
    if widened:  # order-preserving small stand-ins for huge ranks
        dense = {rank: i for i, rank in enumerate(sorted(set(ranks)))}
        ranks = array("q", map(dense.__getitem__, ranks))
    ranks = np.asarray(ranks)
    in_order = not widened and _in_rank_order(key_codes, ranks)
    order = None if in_order else np.lexsort((ranks, key_codes))
    counts = np.bincount(key_codes, minlength=len(keys)).tolist()
    del ranks, key_codes  # freed before the gathers below, to lower the peak
    spans = [
        (tag, qid, stop - count, stop)
        for (tag, qid), count, stop in zip(keys, counts, accumulate(counts))
    ]
    if order is not None:
        doc_codes, scores = doc_codes[order], scores[order]
    return RunSet.from_columns(list(docs), doc_codes, scores, spans)


def _in_rank_order(key_codes: np.ndarray, ranks: np.ndarray) -> bool:
    """Whether entries are already in the order a stable sort by key code,
    then rank, gives: key codes never decrease, and ranks never decrease
    within a key."""
    later, earlier = key_codes[1:], key_codes[:-1]
    if np.any(later < earlier):
        return False
    return bool(np.all((later > earlier) | (ranks[1:] >= ranks[:-1])))


def _scan_run(chunks: Iterable[str | bytes], at_start: bool = True) -> tuple:
    """Scan run lines into ``(docs, keys, blanks, columns)``.

    ``docs`` and ``keys`` map doc ids and (tag, qid) pairs to codes in order
    of first appearance; ``blanks`` holds the number of entries read before
    each blank line; ``columns`` are the doc code, key code, rank and score
    of each entry, as arrays (ranks as a list once one is beyond int64).
    Line numbers in errors count from the first line of ``chunks``.

    Blocks of lines are read by ``_read_block`` and coded by ``_code_docs``
    until one of them refuses a block; that block and the rest are read
    line by line. Both give the same codes and columns.
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
    width = _WIDTH  # of the block reader's id fields; 0 once a block went to the loop
    seen = [np.empty(0, np.uint64), np.empty(0, np.int64), np.empty(0, f"S{_WIDTH}")]
    try:
        for text in _text_blocks(chunks, at_start):
            rows = _read_block(text, width) if width else None
            codes = None if rows is None else _code_docs(rows["doc"], docs, seen)
            if codes is not None:
                width = rows.dtype["doc"].itemsize
                qids, tags = rows["qid"], rows["tag"]
                changed = (qids[1:] != qids[:-1]) | (tags[1:] != tags[:-1])
                starts = [0, *(np.flatnonzero(changed) + 1).tolist()]
                run_keys = []
                for qid, tag in zip(qids[starts].tolist(), tags[starts].tolist()):
                    qid, tag = qid.decode(), tag.decode()
                    if qid != last_qid or tag != last_tag:
                        key = keys.setdefault((tag, qid), len(keys))
                        last_tag, last_qid = tag, qid
                    run_keys.append(key)
                lengths = np.diff([*starts, len(rows)])
                key_codes.frombytes(np.repeat(np.array(run_keys, np.int64), lengths).tobytes())
                doc_codes.frombytes(codes.tobytes())
                if isinstance(ranks, list):
                    ranks += rows["rank"].tolist()
                else:
                    ranks.frombytes(rows["rank"].tobytes())
                scores.frombytes(rows["score"].tobytes())
                number += len(rows)
                continue
            width = 0  # the rest of the scan goes to the line loop
            for line in text.splitlines():
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
        _raise_first_duplicate(np.asarray(doc_codes), np.asarray(key_codes), docs, keys, blanks)
        raise
    return docs, keys, blanks, (doc_codes, key_codes, ranks, scores)


# --- block reader ---------------------------------------------------------------

#: Bytes held for a qid, doc id or tag by the block reader at first; doubled
#: while a field fills its width (and may have been cut), up to ``_MAX_WIDTH``.
_WIDTH = 16
_MAX_WIDTH = 256

#: ASCII characters that ``str.splitlines`` breaks a line at but numpy's
#: reader reads as blanks within one, and NUL, which an id field would
#: hold as its padding.
_NOT_PLAIN = "\x00\x0b\x0c\x1c\x1d\x1e"

#: An odd multiplier for each 8-byte word of a doc id, for its hash.
_MIX = (2 * np.arange(_MAX_WIDTH // 8, dtype=np.uint64) + 1) * np.uint64(0x9E3779B97F4A7C15)


def _read_block(text: str, width: int) -> np.ndarray | None:
    r"""The entries of a block of lines, read by numpy's C text reader with
    id fields of ``width`` bytes or wider; None unless every line is an
    entry that the line loop would read the same way.

    The block must be ASCII and hold none of ``_NOT_PLAIN``, and the reader
    must return one row per line as ``str.splitlines`` counts them (it
    skips blank lines), with no error and no warning: ``int`` and ``float``
    then read each rank and score as the reader does.
    """
    if not text.isascii() or any(c in text for c in _NOT_PLAIN):
        return None
    lines = text.count("\n") + (text[-1] not in "\r\n")
    if "\r" in text:  # a lone "\r" ends a line too
        lines += text.count("\r") - text.count("\r\n")
    while width <= _MAX_WIDTH:
        entry = _entry_type(width)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rows = np.loadtxt(io.BytesIO(text.encode()), entry, comments=None, ndmin=1)
            except (ValueError, OverflowError):
                return None
        if caught or len(rows) != lines:
            return None
        ends = [entry.fields[name][1] + width - 1 for name in ("qid", "doc", "tag")]
        if not rows.view(np.uint8).reshape(lines, -1)[:, ends].any():
            return rows
        width *= 2  # a field fills its width: read again, wider
    return None


def _entry_type(width: int) -> np.dtype:
    """One run line as ``np.loadtxt`` reads it: all six fields, so that a
    line with another number of fields is an error; ``Q0`` is read only
    to be counted."""
    text = f"S{width}"
    return np.dtype([
        ("qid", text), ("q0", "S1"), ("doc", text),
        ("rank", np.int64), ("score", np.float64), ("tag", text),
    ])


def _code_docs(column: np.ndarray, docs: dict[str, int], seen: list) -> np.ndarray | None:
    """The doc code of each id in a block's doc column, with new ids added
    to ``docs`` and ``seen`` in order of first appearance; None, with
    nothing added, if two ids' hashes collide.

    ``seen`` holds the sorted hashes of the ids that earlier blocks coded,
    their codes, and those ids by code. The line loop adds to ``docs`` only
    once the reader has stopped, so ``seen`` holds every id in ``docs``.
    An id's hash is the sum of its 8-byte words, each times its ``_MIX``
    multiplier; NUL padding adds nothing, so it does not depend on width.
    """
    hashes, hash_codes, ids = seen
    words = np.ascontiguousarray(column).view(np.uint64).reshape(len(column), -1)
    unique, inverse = np.unique(words @ _MIX[: words.shape[1]], return_inverse=True)
    at = np.searchsorted(hashes, unique)
    known = at < len(hashes)
    known[known] = hashes[at[known]] == unique[known]
    unique_codes = np.empty(len(unique), np.int64)
    unique_codes[known] = hash_codes[at[known]]
    fresh = np.flatnonzero(~known[inverse])  # entries of ids no earlier block coded
    new, first = np.unique(inverse[fresh], return_index=True)
    order = np.argsort(first)  # first appearance
    unique_codes[new[order]] = np.arange(len(docs), len(docs) + len(new))
    codes = unique_codes[inverse]
    if len(new):
        ids = np.concatenate((ids, column[fresh[first[order]]]))
    if not np.array_equal(ids[codes], column):
        return None
    if len(new):  # the table is copied only when a block adds an id
        docs.update(zip(map(bytes.decode, ids[len(docs):].tolist()), range(len(docs), len(ids))))
        added = ~known
        seen[:] = (
            np.insert(hashes, at[added], unique[added]),
            np.insert(hash_codes, at[added], unique_codes[added]),
            ids,
        )
    return codes


def _raise_first_duplicate(
    doc_codes: np.ndarray, key_codes: np.ndarray, docs: dict, keys: dict, blanks: list[int]
) -> None:
    """Raise ``DuplicateDocument`` for the first entry, in file order, that
    repeats an earlier entry's (tag, qid, doc)."""

    def pairs() -> np.ndarray:
        out = key_codes * max(1, len(docs))
        out += doc_codes
        return out

    ordered = pairs()
    ordered.sort()
    if not np.any(ordered[1:] == ordered[:-1]):
        return
    del ordered
    _, first = np.unique(pairs(), return_index=True)
    repeat = np.ones(len(doc_codes), dtype=bool)
    repeat[first] = False
    entry = int(np.argmax(repeat))
    doc_id = list(docs)[doc_codes[entry]]
    tag, qid = list(keys)[key_codes[entry]]
    raise DuplicateDocument(
        f"doc {doc_id!r} repeated for ({tag!r}, {qid!r})",
        line=entry + 1 + bisect_right(blanks, entry),
    )


# --- parallel run scan ------------------------------------------------------------


def _scan_file(source: str | bytes | IO) -> tuple | None:
    """``_scan_run`` of a whole run file, its byte ranges scanned in
    parallel; None when the source is one part or a part fails."""
    fd = _run_file(source)
    if fd is None:
        return None
    size = os.fstat(fd).st_size
    cuts = _cuts(fd, size, min(_fork.cpus(), size // MIN_PART))
    if len(cuts) < 3:
        return None
    workers: list[_fork.Child] = []
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            worker = _fork.start(lambda write: _scan_worker(fd, start, stop, write))
            if worker is None:
                return None
            workers.append(worker)
        merged = _scan_parts(fd, cuts[1], [pipe for _, pipe in workers])
    finally:
        _fork.reap(workers)  # a worker still running is not needed
    if merged is not None:
        source.seek(0, os.SEEK_END)  # consumed, as by a serial scan
    return merged


def _run_file(source: str | bytes | IO) -> int | None:
    """The descriptor of a regular file that ``source`` reads from its start,
    unbuffered, buffered or as strict UTF-8 text, if this process may fork;
    else None."""
    text = isinstance(source, io.TextIOWrapper)
    raw = source.buffer if text else source
    raw = getattr(raw, "raw", raw)
    if not isinstance(raw, io.FileIO) or not _fork.may_fork():
        return None
    if text and (codecs.lookup(source.encoding).name != "utf-8" or source.errors != "strict"):
        return None
    try:
        regular = stat.S_ISREG(os.fstat(raw.fileno()).st_mode)
        if not regular or not raw.readable() or source.tell() != 0:
            return None
    except (OSError, ValueError):  # closed, or not seekable
        return None
    return raw.fileno()


def _cuts(fd: int, size: int, parts: int) -> list[int]:
    """``[0, ..., size]``: up to ``parts`` byte ranges of about equal size,
    each inner cut just after a ``\n`` byte, so that no line, UTF-8
    sequence or ``\r\n`` is split."""
    cuts = [0]
    for i in range(1, parts):
        at = max(size * i // parts, cuts[-1])
        while at < size and (window := os.pread(fd, 1 << 16, at)):
            newline = window.find(b"\n")
            if newline >= 0:
                at += newline + 1
                break
            at += len(window)
        if cuts[-1] < at < size:
            cuts.append(at)
    return cuts + [size]


def _scan_worker(fd: int, start: int, stop: int, write: int) -> None:
    """In a forked child: scan bytes ``start:stop`` and send the part down a
    pipe as a pickled header (None if the part is faulty), then its doc
    codes, key codes, ranks (pickled if beyond int64) and scores."""
    with open(write, "wb") as out:
        try:
            docs, keys, blanks, columns = _scan_run(_range_chunks(fd, start, stop), False)
        except (RankfairError, UnicodeDecodeError):
            pickle.dump(None, out)
        else:
            wide = isinstance(columns[2], list)
            pickle.dump((list(docs), list(keys), blanks, len(columns[3]), wide), out)
            for column in columns:
                if isinstance(column, list):
                    pickle.dump(column, out)
                else:
                    out.write(column)


def _scan_parts(fd: int, first_stop: int, pipes: list[IO[bytes]]) -> tuple | None:
    """Scan bytes ``0:first_stop`` here, then merge the workers' parts from
    their pipes into one ``_scan_run`` result in file order, with codes
    numbered by first appearance in the whole file; None if a part fails."""
    try:
        docs, keys, blanks, first = _scan_run(_range_chunks(fd, 0, first_stop))
        headers = [pickle.load(pipe) for pipe in pipes]
        if None in headers:
            return None
        sizes = [len(first[3])] + [header[3] for header in headers]
        total = sum(sizes)
        doc_codes, key_codes = np.empty(total, np.int64), np.empty(total, np.int64)
        scores = np.empty(total, np.float64)
        wide = isinstance(first[2], list) or any(header[4] for header in headers)
        ranks: np.ndarray | list[int] = list(first[2]) if wide else np.empty(total, np.int64)
        for column, part in zip((doc_codes, key_codes, scores), (first[0], first[1], first[3])):
            column[: sizes[0]] = np.asarray(part)
        if not wide:
            ranks[: sizes[0]] = np.asarray(first[2])
        del first
        for (part_docs, part_keys, part_blanks, size, part_wide), pipe, start in zip(
            headers, pipes, accumulate(sizes)
        ):
            part = slice(start, start + size)
            blanks += [start + blank for blank in part_blanks]
            raw = np.empty(size, np.int64)
            for column, vocabulary, codes in (
                (doc_codes, part_docs, docs), (key_codes, part_keys, keys)
            ):
                renumber = np.fromiter(
                    (codes.setdefault(item, len(codes)) for item in vocabulary),
                    np.int64, len(vocabulary),
                )
                np.take(renumber, _fork.read_into(pipe, raw), out=column[part])
            if part_wide:
                ranks += pickle.load(pipe)
            elif wide:
                ranks += _fork.read_into(pipe, raw).tolist()
            else:
                _fork.read_into(pipe, ranks[part])
            _fork.read_into(pipe, scores[part])
    except (RankfairError, UnicodeDecodeError, EOFError, pickle.UnpicklingError):
        return None
    return docs, keys, blanks, (doc_codes, key_codes, ranks, scores)


def write_run(runset: RunSet) -> str:
    """Serialize a RunSet; systems and queries sorted, ranks renumbered 1..n.

    Each distinct value is formatted once per system and lines are put
    together by one join per ranking. Scores are made unique by their bit
    pattern, not by value: ``-0.0 == 0.0`` but their reprs differ, so
    only bitwise-equal scores may share a text.
    """
    out = []
    vocabulary = np.array(runset.vocabulary, dtype=object)
    ranks: list[str] = []  # " {i} " for i = 1, 2, ...; grown to the longest ranking
    for system_tag in runset.systems:
        queries = runset.queries(system_tag)
        spans = [runset.span(system_tag, query_id) for query_id in queries]
        codes = np.concatenate([runset.codes[start:stop] for start, stop in spans])
        scores = np.concatenate([runset.scores[start:stop] for start, stop in spans])
        bits, inverse = np.unique(scores.view(np.int64), return_inverse=True)
        texts = np.array([repr(score) for score in bits.view(np.float64).tolist()], dtype=object)
        docs, score_texts = vocabulary[codes].tolist(), texts[inverse].tolist()
        tail = f" {system_tag}\n"
        at = 0
        for query_id, (start, stop) in zip(queries, spans):
            n = stop - start
            ranks += [f" {i} " for i in range(len(ranks) + 1, n + 1)]
            parts = [f"{query_id} Q0 ", "", "", "", tail] * n
            parts[1::5] = docs[at : at + n]
            parts[2::5] = ranks[:n]
            parts[3::5] = score_texts[at : at + n]
            out.append("".join(parts))
            at += n
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


def _record_to_vector(
    doc_id: str, scheme_name: str, pairs: Sequence[tuple[str, float]],
    schemes: dict[str, GroupScheme], line: int,
) -> MembershipVector:
    """A document's (label, raw weight) pairs for one scheme, normalized."""
    if scheme_name not in schemes:
        raise UnknownScheme(f"scheme {scheme_name!r} not declared", line=line)
    scheme = schemes[scheme_name]
    raw = [0.0] * scheme.k
    for label, weight in pairs:
        if label not in scheme.groups:
            raise UnknownLabel(f"label {label!r} not in scheme {scheme_name!r}", line=line)
        if not math.isfinite(weight):
            raise MalformedLine(f"weight {weight!r} for label {label!r} is not finite", line=line)
        if weight < 0:
            raise MalformedLine(f"negative weight for label {label!r}", line=line)
        raw[scheme.groups.index(label)] = weight
    try:
        return normalize(raw, scheme)
    except ZeroMass:
        raise ZeroMass(f"all-zero weights for doc {doc_id!r}", line=line) from None
    except ValueError as exc:
        raise MalformedLine(f"{exc} for doc {doc_id!r}", line=line) from None


def _parse_weight_spec(weight_spec: str, number: int) -> list[tuple[str, float]]:
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
    return weights


def _parse_jsonl_record(line: str, number: int) -> tuple[str, str, list[tuple[str, float]]]:
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
    return str(obj["doc"]), str(obj["scheme"]), pairs


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
                pairs = _parse_weight_spec(weight_spec, number)
                vector = _record_to_vector(doc_id, scheme, pairs, by_name, number)
                weights = seen[scheme, weight_spec] = vector.weights
        else:
            doc_id, scheme, pairs = _parse_jsonl_record(line, number)
            weights = _record_to_vector(doc_id, scheme, pairs, by_name, number).weights
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

    Only labels with non-zero weight are written, in scheme order. A TSV
    weight text is formatted once per distinct row; rows are made unique
    by their bit pattern, not by value, so that every row sharing a text
    holds exactly the floats whose reprs it shows.
    """
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown annotation format {format!r}")
    out = []
    for scheme_name in table.scheme_names:
        groups = table.scheme(scheme_name).groups
        ids, m = table.columns(scheme_name)
        if format == "tsv":
            # each row's bytes as one opaque item: sorted by memcmp, far faster
            # than np.unique(axis=0), which compares field by field
            row_bytes = np.dtype((np.void, m.itemsize * len(groups)))
            bits, inverse = np.unique(
                np.ascontiguousarray(m).view(row_bytes).reshape(-1), return_inverse=True
            )
            rows = bits.view(np.float64).reshape(-1, len(groups)).tolist()
            specs = np.array([
                ",".join(f"{label}:{w!r}" for label, w in zip(groups, row) if w != 0.0)
                for row in rows
            ], dtype=object)
            parts = ["", f"\t{scheme_name}\t", "", "\n"] * len(ids)
            parts[0::4] = ids
            parts[2::4] = specs[inverse].tolist()
            out.append("".join(parts))
        else:
            for doc_id, weights in zip(ids, m.tolist()):
                pairs = {label: weight for label, weight in zip(groups, weights) if weight != 0.0}
                obj = {"doc": doc_id, "scheme": scheme_name, "weights": pairs}
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
