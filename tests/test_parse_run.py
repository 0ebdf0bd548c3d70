"""Contract tests for the block-reading ``parse_run``.

The oracle is the line-by-line parser it replaced: the whole text is read,
one leading byte-order mark is dropped and the rest split into lines, every
line is checked in turn against a set of the (tag, qid, doc) triples seen
so far, and rankings are sorted as tuples. The new parser must return an
equal RunSet, or raise the same error class for the same line, on any
input. A file cut into byte ranges that are scanned in parallel must give
the same columns, bit for bit, and the same errors as a one-part parse.
"""

import contextlib
import errno
import gzip
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfair import _fork, ingest
from rankfair.core import Ranking, RunSet
from rankfair.errors import (
    DuplicateDocument,
    MalformedLine,
    NonNumericRank,
    NonNumericScore,
    RankfairError,
)
from rankfair.ingest import parse_run, write_run

# --- oracle ---------------------------------------------------------------------------


def oracle_lines(source):
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    text = text.removeprefix("\ufeff")
    for number, line in enumerate(text.splitlines(), start=1):
        yield number, line


def oracle_parse_run(source):
    staged = {}
    seen = set()
    for number, line in oracle_lines(source):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 6:
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
        key = (tag, qid, doc_id)
        if key in seen:
            raise DuplicateDocument(
                f"doc {doc_id!r} repeated for ({tag!r}, {qid!r})", line=number
            )
        seen.add(key)
        staged.setdefault((tag, qid), []).append((rank, number, doc_id, score))
    rankings = []
    for (tag, qid), rows in staged.items():
        rows.sort(key=lambda r: (r[0], r[1]))
        rankings.append(Ranking(qid, tuple((d, s) for _, _, d, s in rows), tag))
    return RunSet(rankings)


def outcome(parse, source):
    try:
        return parse(source), None
    except RankfairError as exc:
        return None, (type(exc), exc.line, str(exc))


def assert_same(text, kind="str", block=None):
    def source():
        if kind == "str":
            return text
        if kind == "bytes":
            return text.encode("utf-8")
        if kind == "binary file":
            return io.BytesIO(text.encode("utf-8"))
        if kind == "text file":
            return io.StringIO(text)
        return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")

    want, want_error = outcome(oracle_parse_run, source())
    if block is None:
        got, got_error = outcome(parse_run, source())
    else:
        with mock.patch.object(ingest, "_BLOCK", block):
            got, got_error = outcome(parse_run, source())
    assert got_error == want_error
    if want is not None:
        assert got == want
        assert list(got.rankings()) == list(want.rankings())
    return got, got_error


# --- table cases ----------------------------------------------------------------------

GOOD = "q1 Q0 d1 1 3.0 sA\nq1 Q0 d2 2 2.0 sA\nq2 Q0 d1 1 1.5 sB\n"


class TestSources:
    @pytest.mark.parametrize(
        "kind", ["str", "bytes", "binary file", "text file", "universal-newline file"]
    )
    def test_every_source_kind(self, kind):
        got, _ = assert_same(GOOD, kind)
        assert got.get("sA", "q1").entries == (("d1", 3.0), ("d2", 2.0))

    def test_files_on_disk(self, tmp_path):
        path = tmp_path / "runs.txt"
        path.write_text(GOOD, encoding="utf-8")
        with open(path, encoding="utf-8") as text, open(path, "rb") as binary:
            assert parse_run(text) == parse_run(binary) == oracle_parse_run(GOOD)

    def test_multibyte_characters_across_blocks(self):
        text = "q1 Q0 dé日本 1 1.0 sÅ\nq1 Q0 d€ 2 0.5 sÅ\n"
        for block in (1, 2, 3, 5):
            got, _ = assert_same(text, "bytes", block)
            assert got.get("sÅ", "q1").doc_ids == ("dé日本", "d€")


    def test_truncated_utf8_raises_as_before(self):
        data = "q1 Q0 d1 1 1 s\n".encode("utf-8") + "é".encode("utf-8")[:1]
        with pytest.raises(UnicodeDecodeError):
            oracle_parse_run(data)
        for block in (1, 1 << 20):
            with mock.patch.object(ingest, "_BLOCK", block), pytest.raises(UnicodeDecodeError):
                parse_run(data)


class TestLineBreaks:
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_numbers_count_blank_lines(self, newline):
        lines = ["q1 Q0 d1 1 1.0 s", "", "   \t", "q1 Q0 d2 x 1.0 s"]
        text = newline.join(lines) + newline
        _, error = assert_same(text)
        assert error[:2] == (NonNumericRank, 4)

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\x0b", "\x85", "\u2028"])
    def test_every_splitlines_break_across_blocks(self, newline):
        text = newline.join(f"q1 Q0 d{i} {i} 1.0 s" for i in range(12)) + newline
        for block in (1, 2, 7, 1 << 20):
            got, _ = assert_same(text, block=block)
            assert len(got.get("s", "q1")) == 12

    def test_tabs_and_runs_of_blanks(self):
        got, _ = assert_same("q1\tQ0\t d1 \t1\t\t2.5  sA  \n")
        assert got.get("sA", "q1").entries == (("d1", 2.5),)


class TestOrder:
    def test_out_of_order_ranks_with_ties_keep_input_order(self):
        text = "q1 Q0 dC 2 0 s\nq1 Q0 dA 1 0 s\nq1 Q0 dB 2 0 s\nq1 Q0 dD 1 0 s\n"
        got, _ = assert_same(text)
        assert got.get("s", "q1").doc_ids == ("dA", "dD", "dC", "dB")

    def test_ranks_beyond_int64(self):
        text = (
            "q1 Q0 dA 99999999999999999999 1 s\n"
            "q1 Q0 dB -99999999999999999999 1 s\n"
            "q1 Q0 dC 5 1 s\n"
            "q1 Q0 dD 99999999999999999999 1 s\n"
            "q2 Q0 dA 3 1 s\n"
        )
        got, _ = assert_same(text)
        assert got.get("s", "q1").doc_ids == ("dB", "dC", "dA", "dD")

    def test_same_doc_under_two_systems_and_queries(self):
        text = "q1 Q0 d1 1 1 sA\nq1 Q0 d1 1 1 sB\nq2 Q0 d1 1 1 sA\n"
        got, _ = assert_same(text)
        assert len(got) == 3
        assert len(got.vocabulary) == 1


class TestFirstFaultyLineWins:
    def test_duplicate_before_malformed(self):
        lines = [f"q1 Q0 d{i} {i} 1.0 s" for i in range(1, 5)]
        lines.append("q1 Q0 d2 9 1.0 s")  # line 5 repeats d2
        lines += [f"q1 Q0 e{i} {i} 1.0 s" for i in range(4)]
        lines.append("q1 Q0 broken")  # line 10
        _, error = assert_same("\n".join(lines) + "\n")
        assert error[:2] == (DuplicateDocument, 5)

    def test_malformed_before_duplicate(self):
        text = "q1 Q0 d1 1 1 s\nq1 Q0 d1 1\nq1 Q0 d1 2 1 s\n"
        _, error = assert_same(text)
        assert error[:2] == (MalformedLine, 2)

    def test_first_of_several_duplicates(self):
        text = "q1 Q0 a 1 1 s\nq1 Q0 b 2 1 s\n\nq1 Q0 b 3 1 s\nq1 Q0 a 4 1 s\n"
        _, error = assert_same(text)
        assert error[:2] == (DuplicateDocument, 4)

    def test_bad_score_is_reported(self):
        _, error = assert_same("q1 Q0 d1 1 high s\n")
        assert error[:2] == (NonNumericScore, 1)


class TestRunSetColumns:
    def test_get_is_memoised(self):
        rs = parse_run(GOOD)
        assert rs.get("sA", "q1") is rs.get("sA", "q1")
        assert rs.get("sA", "q9") is None and rs.get("sX", "q1") is None

    def test_concat_merges_without_rankings(self):
        a = parse_run("q1 Q0 d1 1 1 sA\nq1 Q0 d2 2 0.5 sA\n")
        b = parse_run("q1 Q0 d2 1 1 sB\nq2 Q0 d3 1 1 sA\n")
        merged = RunSet.concat([a, b])
        assert merged == parse_run(write_run(a) + write_run(b))
        assert merged.vocabulary == ("d1", "d2", "d3")

    def test_concat_rejects_a_repeated_ranking(self):
        a = parse_run("q1 Q0 d1 1 1 sA\n")
        with pytest.raises(ValueError, match="duplicate ranking"):
            RunSet.concat([a, parse_run("q1 Q0 d9 1 1 sA\n")])

    def test_equality_ignores_storage_order(self):
        text = "q1 Q0 d1 1 1 sA\nq2 Q0 d2 1 1 sB\n"
        shuffled = "q2 Q0 d2 1 1 sB\nq1 Q0 d1 1 1 sA\n"
        assert parse_run(text) == parse_run(shuffled)
        assert parse_run(text) != parse_run(text.replace("1 1 sB", "1 2 sB"))
        assert parse_run(text) != parse_run(text.replace("d2", "d3"))


# --- property -------------------------------------------------------------------------

NAMES = st.sampled_from(["q1", "q2", "d1", "d2", "dé", "日本", "s1", "sA", "\ufeffq1"])
RANKS = st.one_of(
    st.integers(-3, 6),
    st.integers(2**63 - 2, 2**64 + 2),
    st.integers(-(2**64), -(2**63) + 1),
).map(str) | st.sampled_from(["x", "1.5", "+2", "1_0"])
SCORES = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["inf", "-0.0", "1e3", "high", "1_0.5"]),
)
BLANK = st.sampled_from([" ", "\t", "  ", " \t", "\xa0"])
NEWLINES = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028"])


@st.composite
def run_lines(draw):
    kind = draw(st.sampled_from(["entry"] * 8 + ["blank", "short", "long"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t \t"]))
    fields = [draw(NAMES), "Q0", draw(NAMES), draw(RANKS), draw(SCORES), draw(NAMES)]
    if kind == "short":
        fields = fields[: draw(st.integers(1, 5))]
    elif kind == "long":
        fields.append(draw(NAMES))
    text = fields[0]
    for field in fields[1:]:
        text += draw(BLANK) + field
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", "\t"]))


@st.composite
def run_texts(draw):
    lines = draw(st.lists(run_lines(), max_size=25))
    text = "".join(line + draw(NEWLINES) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\n")
    return text


@settings(max_examples=400, deadline=None)
@given(
    run_texts(),
    st.sampled_from(["str", "bytes", "binary file", "text file", "universal-newline file"]),
    st.sampled_from([1, 2, 3, 8, 64, None]),
)
def test_matches_line_by_line_oracle(text, kind, block):
    assert_same(text, kind, block)


# --- parallel scan of byte ranges -------------------------------------------------------


def stored(runset):
    """Everything a RunSet stores, in storage order, with scores as bits."""
    spans = {(s, q): runset.span(s, q) for s in runset.systems for q in runset.queries(s)}
    return runset.vocabulary, runset.codes.tolist(), runset.scores.tobytes(), spans


@contextlib.contextmanager
def cpus(parts):
    """As on a machine with ``parts`` CPUs, where a file of two bytes is
    worth cutting; yields a spy on ``os.fork``."""
    with (
        mock.patch.object(ingest, "MIN_PART", 1),
        mock.patch.object(_fork, "cpus", lambda: parts),
        mock.patch.object(os, "fork", wraps=os.fork) as fork,
    ):
        yield fork


def parse_in_parts(path, parts, mode="text"):
    """``parse_run`` of a file cut into up to ``parts`` byte ranges, as on a
    machine with ``parts`` CPUs; returns the outcome and the cuts. Checks
    that one worker was forked per range after the first and that none is
    left once ``parse_run`` returns or raises."""
    with open(path, "rb") as fh:
        cuts = ingest._cuts(fh.fileno(), path.stat().st_size, parts)
    with (
        cpus(parts) as fork,
        open(path, encoding="utf-8") if mode == "text" else open(path, "rb") as fh,
    ):
        got = outcome(parse_run, fh)
        if got[1] is None:
            assert not fh.read()  # consumed, as by a serial scan
    assert fork.call_count == len(cuts) - 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return got, cuts


def assert_parts_same(path, parts, mode="text"):
    """The parallel parse of ``path`` equals the one-part parse and the
    oracle: the same stored columns, or the same (type, line, message)."""
    data = path.read_bytes()
    want, want_error = outcome(parse_run, data)
    assert (want, want_error) == outcome(oracle_parse_run, data)
    (got, got_error), cuts = parse_in_parts(path, parts, mode)
    assert all(data[cut - 1 : cut] == b"\n" for cut in cuts[1:-1])
    assert got_error == want_error
    if want is not None:
        assert stored(got) == stored(want)
    return got, got_error, cuts


def part_starts(data, cuts):
    """0-based index of the first line of each byte range."""
    return [data[:cut].count(b"\n") for cut in cuts[:-1]]


def fixed_lines(n, queries=2, systems=2):
    """``n`` run lines of equal byte length: rankings of several (system,
    query) keys interleaved, ranks descending and 22 digits wide, as 2**70."""
    return [
        f"q{i % queries} Q0 d{i:03d} {n - i:022d} {i % 7}.5 s{i // queries % systems}\n"
        for i in range(n)
    ]


@pytest.fixture
def run_path(tmp_path):
    return tmp_path / "runs.txt"


class TestParallelScan:
    @pytest.mark.parametrize("mode", ["text", "binary"])
    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_equal_to_one_part_parse(self, run_path, parts, mode):
        breaks = ["\n", "\r\n", "\n\n", "\r", "\u2028", "\x85", "\n \t\n"]
        text = "".join(
            line.rstrip("\n") + breaks[i % len(breaks)] for i, line in enumerate(fixed_lines(60))
        )
        run_path.write_text(text, encoding="utf-8")
        got, _, cuts = assert_parts_same(run_path, parts, mode)
        assert len(cuts) == parts + 1
        assert len(got) == 4

    def test_cut_right_before_a_blank_line(self, run_path):
        lines = fixed_lines(11)
        run_path.write_text("".join(lines[:6]) + "\n" + "".join(lines[6:]), encoding="utf-8")
        _, _, cuts = assert_parts_same(run_path, 2)
        assert cuts[1] == len("".join(lines[:6]))

    def test_one_ranking_split_across_every_part(self, run_path):
        run_path.write_text("".join(fixed_lines(40, queries=1, systems=1)), encoding="utf-8")
        got, _, cuts = assert_parts_same(run_path, 4)
        assert len(cuts) == 5 and len(got) == 1
        assert got.get("s0", "q0").doc_ids[0] == "d039"

    @pytest.mark.parametrize("part", [0, 1, 2, 3])
    def test_ranks_beyond_int64_in_one_part(self, run_path, part):
        lines = fixed_lines(40)
        run_path.write_text("".join(lines), encoding="utf-8")
        data = run_path.read_bytes()
        with open(run_path, "rb") as fh:
            line = part_starts(data, ingest._cuts(fh.fileno(), len(data), 4))[part] + 1
        lines[line] = lines[line].replace(f" {40 - line:022d} ", f" {2**70} ")  # as wide
        run_path.write_text("".join(lines), encoding="utf-8")
        got, _, _ = assert_parts_same(run_path, 4)
        assert len(got) == 4

    def test_byte_order_mark_only_at_the_start_of_the_file(self, run_path):
        run_path.write_text("".join("\ufeff" + line for line in fixed_lines(40)), encoding="utf-8")
        got, _, cuts = assert_parts_same(run_path, 4)
        assert all(run_path.read_bytes()[cut:].startswith("\ufeff".encode()) for cut in cuts[1:-1])
        assert sorted(got.all_queries) == ["q0", "\ufeffq0", "\ufeffq1"]


    @pytest.mark.parametrize(
        "failure",
        [
            (os, "fork", mock.Mock(side_effect=BlockingIOError(11, "refused"))),
            (os, "pipe", mock.Mock(side_effect=OSError(errno.EMFILE, "no descriptor"))),
            (ingest, "_scan_worker", lambda *args: os._exit(1)),  # dies without a word
        ],
        ids=["refused fork", "no pipe", "dead worker"],
    )
    def test_failed_worker_scans_serially(self, run_path, failure):
        run_path.write_text("".join(fixed_lines(40)), encoding="utf-8")
        with (
            cpus(4),
            mock.patch.object(*failure),
            mock.patch.object(ingest, "_scan_run", wraps=ingest._scan_run) as scan,
            open(run_path, encoding="utf-8") as fh,
        ):
            got = parse_run(fh)
        assert scan.call_args.args[0].__name__ == "_chunks"  # the last scan read the source
        assert stored(got) == stored(parse_run(run_path.read_bytes()))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    @pytest.mark.parametrize(
        "opener",
        [
            lambda path: gzip.open(path.with_suffix(".gz"), "rt", encoding="utf-8"),
            lambda path: gzip.open(path.with_suffix(".gz"), "rb"),
            lambda path: open(path, encoding="latin-1"),
            lambda path: open(path, encoding="utf-8", errors="replace"),
        ],
        ids=["gzip text", "gzip binary", "latin-1 text", "lenient text"],
    )
    def test_other_file_objects_stay_one_part(self, run_path, opener):
        text = "".join(fixed_lines(40))
        run_path.write_text(text, encoding="utf-8")
        # stored, not compressed: the .gz file holds the text's line breaks
        with gzip.open(run_path.with_suffix(".gz"), "wt", 0, encoding="utf-8") as out:
            out.write(text)
        with cpus(4) as fork, opener(run_path) as fh:
            got = parse_run(fh)
        assert not fork.called
        assert stored(got) == stored(parse_run(text))

    def test_file_read_from_the_middle_stays_one_part(self, run_path):
        lines = fixed_lines(40)
        run_path.write_text("".join(lines), encoding="utf-8")
        with cpus(4) as fork, open(run_path, encoding="utf-8") as fh:
            fh.readline()
            got = parse_run(fh)
        assert not fork.called
        assert stored(got) == stored(parse_run("".join(lines[1:])))


class TestParallelScanFaults:
    FAULTS = {
        "malformed": (" s", "_s"),
        "rank": (" 0", " x"),
        "score": (".5 ", ".x "),
    }

    def faulty(self, run_path, faults):
        """A 40-line file cut into 4 ranges, with ``faults`` as
        ``{part: fault name}`` in the second line of those parts."""
        lines = fixed_lines(40)
        data = "".join(lines).encode("utf-8")
        run_path.write_bytes(data)
        with open(run_path, "rb") as fh:
            starts = part_starts(data, ingest._cuts(fh.fileno(), len(data), 4))
        for part, fault in faults.items():
            line = starts[part] + 1
            lines[line] = lines[line].replace(*self.FAULTS[fault], 1)
        run_path.write_text("".join(lines), encoding="utf-8")
        return starts

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("part", [0, 1, 2, 3])
    def test_fault_in_each_part(self, run_path, part, fault):
        starts = self.faulty(run_path, {part: fault})
        _, error, _ = assert_parts_same(run_path, 4)
        assert error[1] == starts[part] + 2

    def test_first_of_faults_in_several_parts(self, run_path):
        starts = self.faulty(run_path, {3: "malformed", 1: "score", 2: "rank"})
        _, error, _ = assert_parts_same(run_path, 4)
        assert error[:2] == (NonNumericScore, starts[1] + 2)

    @pytest.mark.parametrize("later", [1, 2, 3])
    def test_duplicate_with_copies_in_two_parts(self, run_path, later):
        lines = []
        for i, line in enumerate(fixed_lines(40)):
            lines += [line, "\n"] if i % 3 == 2 else [line]  # blank lines in every part
        data = "".join(lines).encode("utf-8")
        run_path.write_bytes(data)
        with open(run_path, "rb") as fh:
            line = part_starts(data, ingest._cuts(fh.fileno(), len(data), 4))[later]
        line += lines[line] == "\n"
        qid, _, doc, *_, tag = lines[line].split()
        first = next(l.split()[2] for l in lines if l.split()[::5] == [qid, tag])
        lines[line] = lines[line].replace(doc, first)  # the same width
        run_path.write_text("".join(lines), encoding="utf-8")
        _, error, _ = assert_parts_same(run_path, 4)
        assert error[:2] == (DuplicateDocument, line + 1)

    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_invalid_utf8_in_a_later_part(self, run_path, mode):
        data = "".join(fixed_lines(40)).encode("utf-8")
        run_path.write_bytes(data)
        with open(run_path, "rb") as fh:
            cut = ingest._cuts(fh.fileno(), len(data), 4)[3]
        run_path.write_bytes(data[: cut + 4] + b"\xff" + data[cut + 5 :])
        with open(run_path, encoding="utf-8") if mode == "text" else open(run_path, "rb") as fh:
            with pytest.raises(UnicodeDecodeError) as want:
                parse_run(fh)
        with pytest.raises(UnicodeDecodeError) as got:
            parse_in_parts(run_path, 4, mode)
        assert str(got.value) == str(want.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@settings(max_examples=150, deadline=None)
@given(run_texts(), st.sampled_from([2, 3, 4]), st.sampled_from(["text", "binary"]))
def test_parts_match_one_part_parse(tmp_path_factory, text, parts, mode):
    path = tmp_path_factory.getbasetemp() / "parts.txt"
    path.write_text(text, encoding="utf-8")
    assert_parts_same(path, parts, mode)
