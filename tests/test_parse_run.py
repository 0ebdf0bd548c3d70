"""Contract tests for the block-reading ``parse_run``.

The oracle is the line-by-line parser it replaced: the whole text is read
and split into lines, every line is checked in turn against a set of the
(tag, qid, doc) triples seen so far, and rankings are sorted as tuples. The
new parser must return an equal RunSet, or raise the same error class for
the same line, on any input.
"""

import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfair import ingest
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

NAMES = st.sampled_from(["q1", "q2", "d1", "d2", "dé", "日本", "s1", "sA"])
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
NEWLINES = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x1c", " "])


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
