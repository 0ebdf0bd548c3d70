"""Contract tests for the block-reading ``parse_run``.

The oracle is the line-by-line parser it replaced: the whole text is read,
one leading byte-order mark is dropped and the rest split into lines, every
line is checked in turn against a set of the (tag, qid, doc) triples seen
so far, and rankings are sorted as tuples. The new parser must return an
equal RunSet, or raise the same error class for the same line, on any
input. A file cut into byte ranges that are scanned in parallel must give
the same columns, bit for bit, and the same errors as a one-part parse.
Blocks of plain ASCII lines are read by numpy's text reader and every other
block line by line; both must give the same columns, bit for bit.
"""

import contextlib
import errno
import gzip
import io
import os
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfair import _fork, ingest, simulate
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


def layout(runset):
    """Each ranking's doc ids and score bits, by (system, query)."""
    spans = {(s, q): runset.span(s, q) for s in runset.systems for q in runset.queries(s)}
    return {
        key: (runset.doc_list(start, stop), runset.scores[start:stop].tobytes())
        for key, (start, stop) in spans.items()
    }


@contextlib.contextmanager
def block_reads():
    """Yields a list that gets, for each block the block reader is tried
    on, True if it took the block and False if the block went to the line
    loop (as does the rest of its scan, which the list does not count)."""
    taken = []
    read, code = ingest._read_block, ingest._code_docs

    def read_spy(text, width):
        rows = read(text, width)
        if rows is None:
            taken.append(False)
        return rows

    def code_spy(column, docs, seen):
        codes = code(column, docs, seen)
        taken.append(codes is not None)
        return codes

    with (
        mock.patch.object(ingest, "_read_block", read_spy),
        mock.patch.object(ingest, "_code_docs", code_spy),
    ):
        yield taken


@contextlib.contextmanager
def rank_order_checks():
    """Yields a list that gets, for each parse that checks whether its
    entries are already in rank order, the answer; a parse that sorts
    without checking adds nothing."""
    answers = []
    check = ingest._in_rank_order

    def check_spy(key_codes, ranks):
        answers.append(check(key_codes, ranks))
        return answers[-1]

    with mock.patch.object(ingest, "_in_rank_order", check_spy):
        yield answers


def assert_same(text, kind="str", block=None, fast=False):
    """``parse_run`` equals the oracle: the same rankings, score bits
    included, or the same error; with ``fast``, every block was taken by
    the block reader."""

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
    with block_reads() as taken, mock.patch.object(ingest, "_BLOCK", block or ingest._BLOCK):
        got, got_error = outcome(parse_run, source())
    assert got_error == want_error
    if want is not None:
        assert layout(got) == layout(want)
    if fast:
        assert all(taken) and (taken or not text)
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

    def test_shuffled_lines_give_the_same_run_set(self):
        """A testbed's run file is already in order and is not sorted; its
        lines shuffled are, and give the same rankings."""
        bed = simulate.generate_testbed(simulate.TestbedConfig(
            n_queries=4, docs_per_query=30, n_groups=3, n_systems=5, seed=1))
        text = write_run(bed.runset)
        lines = text.splitlines(keepends=True)
        shuffled = "".join(lines[i] for i in np.random.default_rng(0).permutation(len(lines)))
        with rank_order_checks() as checks:
            in_order, _ = assert_same(text)
            out_of_order, _ = assert_same(shuffled)
        assert checks == [True, False]
        assert in_order == out_of_order == bed.runset
        assert layout(in_order) == layout(out_of_order) == layout(bed.runset)

    def test_ties_in_order_keep_input_order(self):
        text = "q1 Q0 dC 1 0 s\nq1 Q0 dA 1 0 s\nq1 Q0 dD 2 0 s\nq1 Q0 dB 2 0 s\n"
        with rank_order_checks() as checks:
            got, _ = assert_same(text)
        assert checks == [True]
        assert got.get("s", "q1").doc_ids == ("dC", "dA", "dD", "dB")

    def test_key_reappearing_after_another_key_is_sorted(self):
        """Key codes count first appearance, so a ranking whose lines come
        back after another ranking's is out of order, even with its ranks
        in order."""
        text = "q1 Q0 dA 1 0 s\nq2 Q0 dA 1 0 s\nq1 Q0 dB 2 0 s\nq2 Q0 dB 2 0 s\n"
        with rank_order_checks() as checks:
            got, _ = assert_same(text)
        assert checks == [False]
        assert got.get("s", "q1").doc_ids == got.get("s", "q2").doc_ids == ("dA", "dB")

    def test_ranks_beyond_int64_in_order_are_sorted(self):
        """Ranks widened to Python integers always take the sort."""
        text = (
            "q1 Q0 dB -99999999999999999999 1 s\n"
            "q1 Q0 dC 5 1 s\n"
            "q1 Q0 dA 99999999999999999999 1 s\n"
            "q1 Q0 dD 99999999999999999999 1 s\n"
        )
        with rank_order_checks() as checks:
            got, _ = assert_same(text)
        assert checks == []
        assert got.get("s", "q1").doc_ids == ("dB", "dC", "dA", "dD")


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
    def test_get_builds_equal_rankings_and_keeps_none(self):
        rs = parse_run(GOOD)
        assert rs.get("sA", "q1") == rs.get("sA", "q1") == Ranking(
            "q1", (("d1", 3.0), ("d2", 2.0)), "sA"
        )
        assert rs.get("sA", "q9") is None and rs.get("sX", "q1") is None

    def test_keeps_no_ranking_alive(self):
        given = Ranking("q1", (("d1", 3.0),), "sA")
        built = RunSet([given])
        parsed = parse_run(GOOD)
        walked = next(iter(parsed.rankings()))
        refs = [weakref.ref(given), weakref.ref(walked)]
        del given, walked
        assert [ref() for ref in refs] == [None, None]
        assert built.get("sA", "q1") == Ranking("q1", (("d1", 3.0),), "sA")
        assert parsed.get("sA", "q1") == Ranking("q1", (("d1", 3.0), ("d2", 2.0)), "sA")

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


class TestBlockReader:
    def test_testbed_run_file_takes_no_fallback(self):
        """``gen-testbed --small``'s run file: one reader call per block, each
        block taken, and the columns of the line loop, bit for bit."""
        bed = simulate.generate_testbed(
            simulate.TestbedConfig(n_queries=5, docs_per_query=100, n_groups=3, n_systems=30)
        )
        text = write_run(bed.runset)
        with mock.patch.object(ingest, "_BLOCK", 1 << 16):
            blocks = sum(1 for _ in ingest._text_blocks(ingest._chunks(text)))
            with (
                block_reads() as taken,
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as reader,
            ):
                got = parse_run(text)
            with mock.patch.object(ingest, "_read_block", lambda text, width: None):
                want = parse_run(text)
        assert blocks > 1 and reader.call_count == blocks
        assert taken == [True] * blocks
        assert stored(got) == stored(want)
        assert layout(got) == layout(bed.runset)

    @pytest.mark.parametrize("char", ["\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    @pytest.mark.parametrize("where", ["doc", "blank", "end"])
    def test_characters_left_to_the_line_loop(self, char, where):
        line = {
            "doc": f"q1 Q0 d{char}x 2 1 s",
            "blank": f"q1 Q0 dx 2 1{char}s",
            "end": f"q1 Q0 dx 2 1 s{char}",
        }[where]
        with block_reads() as taken:
            assert_same(f"q1 Q0 d1 1 1 s\n{line}\n")
        assert taken == [False]

    def test_unit_separator_is_a_blank_to_both(self):
        with block_reads() as taken:
            _, error = assert_same("q1 Q0 d\x1fx 1 1 s\n")
        assert error[:2] == (MalformedLine, 1) and taken == [False]
        got, _ = assert_same("q1\x1fQ0 d1 1 1\x1fs\n", fast=True)
        assert got.get("s", "q1").doc_ids == ("d1",)

    def test_form_feed_inside_a_line(self):
        """One row of six fields to numpy's reader, two lines to the loop."""
        _, error = assert_same("q Q0 d 1 1\x0ct\n")
        assert error[:2] == (MalformedLine, 1)

    @pytest.mark.parametrize("size", [15, 16, 17, 40, 256, 257, 1000])
    @pytest.mark.parametrize("field", [0, 2, 5])
    def test_ids_wider_than_the_first_width(self, size, field):
        long = "x" * size
        lines = []
        for rank, doc in enumerate(["d0", "d1", "d2"]):
            fields = ["q1", "Q0", doc, str(rank), "1.0", "s"]
            if rank:
                fields[field] = long[:-1] + str(rank)
            lines.append(" ".join(fields) + "\n")
        got, _ = assert_same("".join(lines), fast=size < ingest._MAX_WIDTH)
        names = {0: got.all_queries, 2: got.vocabulary, 5: got.systems}[field]
        assert long[:-1] + "2" in names

    @pytest.mark.parametrize(
        "score, bits",
        [
            ("nan", float("nan")), ("-nan", -float("nan")), ("1e-400", 0.0),
            ("+5", 5.0), ("-0.0", -0.0), ("-inf", -float("inf")), ("1e400", float("inf")),
        ],
    )
    def test_score_bits(self, score, bits):
        got, _ = assert_same(f"q1 Q0 d1 +5 {score} s\nq1 Q0 d2 -0 1 s\n", fast=True)
        start, stop = got.span("s", "q1")
        assert got.doc_list(start, stop) == ["d2", "d1"]
        assert got.scores[stop - 1 : stop].tobytes() == np.float64(bits).tobytes()

    @pytest.mark.parametrize("text", ["1.5", "1_0", "99999999999999999999", "١"])
    def test_ranks_the_reader_refuses(self, text):
        with block_reads() as taken:
            assert_same(f"q1 Q0 d1 {text} 1 s\n")
        assert taken == [False]

    @pytest.mark.parametrize("blank", ["", " ", "\t", " \t ", "\r", "\r ", "\r\r"])
    def test_whitespace_only_lines(self, blank):
        with block_reads() as taken:
            got, _ = assert_same(f"q1 Q0 d1 1 1 s\n{blank}\nq1 Q0 d2 2 1 s\n")
        assert taken == [False] and len(got.get("s", "q1")) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "q1 Q0 d1 1 1 s\r\r\nq1 Q0 d1 2 1 s\n",  # the blank line counts: line 3
            "q1 Q0 d1 1 1 s\r \nq1 Q0 d1 2 1 s\n",
            "q1 Q0 d1 1 1 s\rq1 Q0 d1 2 1 s\r\r",
        ],
    )
    def test_blank_line_after_a_lone_carriage_return(self, text):
        """A lone "\r" ends a line, and the blank line after it must be
        counted: the block goes to the line loop."""
        with block_reads() as taken:
            assert_same(text)
        assert taken == [False]

    @pytest.mark.parametrize(
        "text", ["q1 Q0 d1 1 1 s\r", "q1 Q0 d1 1 1 s\rq1 Q0 d2 2 1 s\r\nq1 Q0 d3 3 1 s\r"]
    )
    def test_lone_carriage_returns(self, text):
        assert_same(text)

    def test_rest_of_the_scan_goes_to_the_line_loop(self):
        """Blocks of one line each: the reader codes "d" and "e", the loop
        finds them again, and no block after the loop's first is tried."""
        text = "q1 Q0 d 1 1 s\nq1 Q0 e 2 1 s\nq1 Q0 dé 3 1 s\nq1 Q0 e 1 1 t\nq1 Q0 d 2 1 t\n"
        with (
            mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as reader,
            block_reads() as taken,
        ):
            got, _ = assert_same(text, block=1)
        assert taken == [True, True, False] and reader.call_count == 2
        assert got.vocabulary == ("d", "e", "dé")

    def test_ids_wider_than_the_last_width_stop_the_reader(self):
        """After a block whose id is too wide for any width, the reader is
        not called again."""
        text = "q1 Q0 " + "d" * 300 + " 1 1 s\nq1 Q0 d2 2 1 s\nq1 Q0 d3 3 1 s\n"
        with (
            mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as reader,
            block_reads() as taken,
        ):
            assert_same(text, block=1)
        assert taken == [False] and reader.call_count == 5  # widths 16 to 256

    @pytest.mark.parametrize("split", [False, True])
    def test_hash_collision_goes_to_the_line_loop(self, split):
        """With every hash 0, a second id is found as the first one's code:
        the block goes to the loop before ``docs`` changes."""
        zero = np.zeros_like(ingest._MIX)
        text = "q1 Q0 d1 1 1 s\nq1 Q0 d1 1 1 t\n"
        with mock.patch.object(ingest, "_MIX", zero), block_reads() as taken:
            assert_same(text, fast=True)  # one id: no collision
            got, _ = assert_same(text + "q1 Q0 d2 2 1 t\n", block=1 if split else None)
        assert taken == [True] + [True, True, False] * split + [False] * (not split)
        assert got.vocabulary == ("d1", "d2")

    def test_a_block_of_known_ids_leaves_the_table_as_it_is(self):
        """A block that adds no id is coded without copying the hash table;
        one that adds an id extends it."""
        width = f"S{ingest._WIDTH}"
        docs, seen = {}, [np.empty(0, np.uint64), np.empty(0, np.int64), np.empty(0, width)]
        code = lambda ids: ingest._code_docs(np.array(ids, width), docs, seen).tolist()
        assert code([b"d1", b"d2", b"d1"]) == [0, 1, 0]
        table = list(seen)
        assert code([b"d2", b"d1", b"d2"]) == [1, 0, 1]
        assert all(now is then for now, then in zip(seen, table))
        assert code([b"d3", b"d1"]) == [2, 0] and docs == {"d1": 0, "d2": 1, "d3": 2}
        assert seen[2].tolist() == [b"d1", b"d2", b"d3"]

    def test_reader_warning_goes_to_the_line_loop(self):
        """As when an older numpy only warns that it read an integer
        through a float: the block is read again by the loop, and the
        warning never reaches the caller."""
        loadtxt = np.loadtxt

        def warn_then_read(*args, **kwargs):
            warnings.warn("parsing an integer via a float", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        with (
            mock.patch.object(np, "loadtxt", warn_then_read),
            warnings.catch_warnings(),
            block_reads() as taken,
        ):
            warnings.simplefilter("error")
            assert_same(GOOD)
        assert taken == [False]

    @pytest.mark.parametrize("text", ["", "\n", "\n\n", " \t\n  ", GOOD, GOOD + "\n"])
    def test_no_warning_reaches_the_caller(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same(text)


# --- property -------------------------------------------------------------------------

# Plain ASCII lines, which the block reader takes: ids shorter than, as wide
# as and wider than its first field width, every number form that ``int``
# and ``float`` read as numpy's reader does, "\x1f" as a blank.
ASCII_NAMES = st.sampled_from(["q1", "q2", "d1", "d2", "s1", "sA", "d" * 16, "s" * 17, "q" * 40])
ASCII_RANKS = st.one_of(
    st.integers(-3, 6), st.integers(-(2**63), 2**63 - 1)
).map(str) | st.sampled_from(["+2", "-0", "007"])
ASCII_SCORES = st.one_of(
    st.floats().map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["inf", "-0.0", "1e3", "nan", "-nan", "1e-400", "+5", "1E+05", "-Infinity"]),
)
ASCII_BLANK = st.sampled_from([" ", "\t", "  ", " \t", "\x1f"])
ASCII_NEWLINES = st.sampled_from(["\n", "\r\n"])

# Anything else: the line loop's inputs, and characters the block reader
# must leave to it.
NAMES = ASCII_NAMES | st.sampled_from(["dé", "日本", "\ufeffq1", "d\x00", "\x00"])
RANKS = st.one_of(
    st.integers(-3, 6),
    st.integers(2**63 - 2, 2**64 + 2),
    st.integers(-(2**64), -(2**63) + 1),
).map(str) | st.sampled_from(["x", "1.5", "+2", "1_0", "1\x00"])
SCORES = ASCII_SCORES | st.sampled_from(["high", "1_0.5", "1.5j", "0x10", "nan(1)"])
BLANK = ASCII_BLANK | st.sampled_from(["\xa0", "\x0b", "\x1d", "\x1e", "\x00 "])
NEWLINES = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028"])


@st.composite
def run_lines(draw, clean):
    names, ranks, scores, blank = (
        (ASCII_NAMES, ASCII_RANKS, ASCII_SCORES, ASCII_BLANK) if clean
        else (NAMES, RANKS, SCORES, BLANK)
    )
    kind = "entry" if clean else draw(
        st.sampled_from(["entry"] * 8 + ["blank", "short", "long", "form feed"])
    )
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t \t", "\x1f", " \x1e "]))
    if kind == "form feed":  # one row to numpy's reader, two lines to splitlines
        return "q1 Q0 d1 1 1\x0cs1"
    fields = [draw(names), "Q0", draw(names), draw(ranks), draw(scores), draw(names)]
    if kind == "short":
        fields = fields[: draw(st.integers(1, 5))]
    elif kind == "long":
        fields.append(draw(names))
    text = fields[0]
    for field in fields[1:]:
        text += draw(blank) + field
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", "\t"]))


@st.composite
def run_texts(draw, clean):
    """A run text, and whether all its lines are plain ASCII entries (as
    the strategy ``clean`` draws)."""
    clean = draw(clean)
    lines = draw(st.lists(run_lines(clean), max_size=25))
    newlines = ASCII_NEWLINES if clean else NEWLINES
    text = "".join(line + draw(newlines) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\n")
    return text, clean


@settings(max_examples=400, deadline=None)
@given(
    run_texts(clean=st.sampled_from([True, True, True, False])),
    st.sampled_from(["str", "bytes", "binary file", "text file", "universal-newline file"]),
    st.sampled_from([1, 2, 3, 8, 64, None]),
)
def test_matches_line_by_line_oracle(run, kind, block):
    text, clean = run
    assert_same(text, kind, block, fast=clean)


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
    oracle, oracle_error = outcome(oracle_parse_run, data)
    assert want_error == oracle_error
    if want is not None:
        assert layout(want) == layout(oracle)
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

    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_fallback_blocks_in_every_part(self, run_path, mode):
        """Blocks of about two lines, the seventh line of every ten
        non-ASCII: every part starts with the block reader and ends with the
        line loop, which finds again the docs the reader coded."""
        lines = [
            f"q{i % 2} Q{'é' if i % 10 == 6 else '0'} d{i % 5} {i:02} {i % 7}.5 s{i // 10}\n"
            for i in range(40)
        ]
        run_path.write_text("".join(lines), encoding="utf-8")
        with mock.patch.object(ingest, "_BLOCK", 48):
            got, _, cuts = assert_parts_same(run_path, 4, mode)
        assert len(cuts) == 5
        assert len(got) == 8 and got.vocabulary == ("d0", "d1", "d2", "d3", "d4")
        with open(run_path, "rb") as fh, mock.patch.object(ingest, "_BLOCK", 48):
            for start, stop in zip(cuts, cuts[1:]):  # each part, as its process scans it
                with block_reads() as taken:
                    ingest._scan_run(ingest._range_chunks(fh.fileno(), start, stop), start == 0)
                assert taken[0] and not taken[-1]

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
@given(
    run_texts(clean=st.just(False)), st.sampled_from([2, 3, 4]), st.sampled_from(["text", "binary"])
)
def test_parts_match_one_part_parse(tmp_path_factory, run, parts, mode):
    text, _ = run
    path = tmp_path_factory.getbasetemp() / "parts.txt"
    path.write_text(text, encoding="utf-8")
    assert_parts_same(path, parts, mode)
