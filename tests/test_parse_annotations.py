"""Contract tests for ``parse_annotations``.

The oracle is the row-by-row parser that builds and validates a fresh
membership vector for every row; ``parse_annotations`` reuses one vector
for TSV rows with the same scheme and weight text. The oracle also rejects
non-finite weights and totals, as the parser does. On any input both must return
equal tables, with every weight equal bit for bit (``-0.0`` and ``0.0``
told apart), or raise the same error class for the same line with the
same message.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfair.core import GroupMembershipTable, GroupScheme, normalize
from rankfair.errors import (
    DuplicateDocument,
    MalformedLine,
    RankfairError,
    UnknownLabel,
    UnknownScheme,
    ZeroMass,
)
from rankfair.ingest import parse_annotations

# --- oracle ---------------------------------------------------------------------------


def oracle_lines(source):
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    return enumerate(text.splitlines(), start=1)


def oracle_record_to_vector(doc_id, scheme_name, pairs, schemes, line):
    if scheme_name not in schemes:
        raise UnknownScheme(f"scheme {scheme_name!r} not declared", line=line)
    scheme = schemes[scheme_name]
    raw = [0.0] * scheme.k
    for label, weight in pairs:
        if label not in scheme.groups:
            raise UnknownLabel(f"label {label!r} not in scheme {scheme_name!r}", line=line)
        if weight != weight or weight in (float("inf"), float("-inf")):
            raise MalformedLine(f"weight {weight!r} for label {label!r} is not finite", line=line)
        if weight < 0:
            raise MalformedLine(f"negative weight for label {label!r}", line=line)
        raw[scheme.groups.index(label)] = weight
    try:
        return normalize(raw, scheme)
    except ZeroMass:
        raise ZeroMass(f"all-zero weights for doc {doc_id!r}", line=line) from None
    except ValueError as exc:  # finite weights whose total overflows
        raise MalformedLine(f"{exc} for doc {doc_id!r}", line=line) from None


def oracle_tsv_record(line, number):
    fields = line.split("\t")
    if len(fields) != 3:
        raise MalformedLine(f"expected 3 tab-separated fields, got {len(fields)}", line=number)
    doc_id, scheme, weight_spec = fields
    pairs = []
    for part in weight_spec.split(","):
        label, sep, weight_s = part.rpartition(":")
        if not sep or not label:
            raise MalformedLine(f"bad label:weight pair {part!r}", line=number)
        try:
            weight = float(weight_s)
        except ValueError:
            raise MalformedLine(f"weight {weight_s!r} is not a number", line=number) from None
        pairs.append((label, weight))
    return doc_id, scheme, pairs


def oracle_jsonl_record(line, number):
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


def oracle_parse_annotations(source, schemes, format="tsv", provenance="human"):
    by_name = {s.name: s for s in schemes}
    parse_record = oracle_tsv_record if format == "tsv" else oracle_jsonl_record
    vectors = {n: {} for n in by_name}
    for number, line in oracle_lines(source):
        if not line.strip():
            continue
        doc_id, scheme, pairs = parse_record(line, number)
        vector = oracle_record_to_vector(doc_id, scheme, pairs, by_name, number)
        if doc_id in vectors[scheme]:
            raise DuplicateDocument(
                f"doc {doc_id!r} repeated for scheme {scheme!r}", line=number
            )
        vectors[scheme][doc_id] = vector
    return GroupMembershipTable(schemes, vectors, provenance=provenance)


# --- comparison -----------------------------------------------------------------------


def bits(table):
    """Every stored vector as (scheme, weights as float.hex), per scheme and doc."""
    return {
        name: {
            doc_id: (vector.scheme, tuple(w.hex() for w in vector.weights))
            for doc_id, vector in table.docs(name).items()
        }
        for name in table.scheme_names
    }


def outcome(parse, source, schemes, format):
    try:
        return bits(parse(source, schemes, format)), None
    except RankfairError as exc:
        return None, (type(exc), exc.line, str(exc))


SOURCE_KINDS = ["str", "bytes", "text file", "binary file"]


def as_source(text, kind):
    if kind == "str":
        return text
    if kind == "bytes":
        return text.encode("utf-8")
    if kind == "text file":
        return io.StringIO(text)
    return io.BytesIO(text.encode("utf-8"))


def assert_same(text, schemes, format="tsv", kind="str"):
    want = outcome(oracle_parse_annotations, as_source(text, kind), schemes, format)
    got = outcome(parse_annotations, as_source(text, kind), schemes, format)
    assert got == want
    return got


# --- table cases ----------------------------------------------------------------------

ABC = GroupScheme("abc", ("a", "b", "c"))
XY = GroupScheme("xy", ("x", "y"), unknown_index=1)
SCHEMES = [ABC, XY]


class TestTable:
    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_spec_repeated_across_docs_and_schemes(self, kind):
        text = "d1\tabc\ta:1\nd2\tabc\ta:1\nd1\txy\tx:1\nd2\txy\tx:1\nd3\tabc\ta:1\n"
        table, error = assert_same(text, SCHEMES, kind=kind)
        assert error is None and len(table["abc"]) == 3 and len(table["xy"]) == 2

    def test_label_text_shared_by_two_schemes(self):
        both = [GroupScheme("p", ("a", "b")), GroupScheme("q", ("b", "a"))]
        table, _ = assert_same("d1\tp\ta:1\nd1\tq\ta:1\n", both)
        assert table["p"]["d1"][1] != table["q"]["d1"][1]

    def test_negative_zero_and_zero_kept_apart(self):
        text = "d1\tabc\ta:-0.0,b:1\nd2\tabc\ta:0.0,b:1\nd3\tabc\ta:-0.0,b:1\n"
        table, _ = assert_same(text, SCHEMES)
        assert table["abc"]["d1"][1][0] == (-0.0).hex()
        assert table["abc"]["d2"][1][0] == (0.0).hex()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_blank_lines_and_line_endings(self, newline, kind):
        rows = ["d1\tabc\tb:1", "", "  ", "d2\tabc\tb:1", "\t", "d3\tabc\tb:2,c:2", "d4\tabc\tq:1"]
        _, error = assert_same(newline.join(rows) + newline, SCHEMES, kind=kind)
        assert error[:2] == (UnknownLabel, 7)

    def test_duplicate_doc_after_memo_hit(self):
        _, error = assert_same("d1\tabc\ta:1\nd2\tabc\ta:1\nd1\tabc\ta:1\n", SCHEMES)
        assert error[:2] == (DuplicateDocument, 3)

    @pytest.mark.parametrize(
        "last,error",
        [
            ("d9\tnope\ta:1", UnknownScheme),
            ("d9\tabc\ta:1,q:1", UnknownLabel),
            ("d9\txy\ta:1", UnknownLabel),
            ("d9\tabc\ta:0,b:0.0", ZeroMass),
            ("d9\tabc\ta:1,b", MalformedLine),
            ("d9\tabc\t:1", MalformedLine),
            ("d9\tabc\ta:x", MalformedLine),
            ("d9\tabc\ta:-1", MalformedLine),
            ("d9\tabc\ta:nan", MalformedLine),
            ("d9\tabc\ta:1e999", MalformedLine),
            ("d9\tabc\ta:1e308,b:1e308", MalformedLine),
            ("d9\tabc", MalformedLine),
            ("d9\tabc\ta:1\textra", MalformedLine),
        ],
    )
    def test_error_first_seen_late(self, last, error):
        text = "d1\tabc\ta:1\nd2\txy\ty:1\nd3\tabc\ta:1\n" + last + "\n"
        _, got = assert_same(text, SCHEMES)
        assert got[:2] == (error, 4)

    def test_jsonl_cases(self):
        rows = [
            {"doc": "d1", "scheme": "abc", "weights": {"a": 1}},
            {"doc": "d2", "scheme": "abc", "weights": {"a": -0.0, "b": 1}},
            {"doc": "d1", "scheme": "xy", "weights": {"x": 0.25, "y": 0.5}},
        ]
        text = "".join(json.dumps(row) + "\n" for row in rows)
        table, _ = assert_same(text, SCHEMES, "jsonl")
        assert table["abc"]["d2"][1][0] == (-0.0).hex()
        _, error = assert_same(text + '{"doc": "d3", "scheme": "abc", "weights": {"a": NaN}}\n',
                               SCHEMES, "jsonl")
        assert error[:2] == (MalformedLine, 4)


# --- property -------------------------------------------------------------------------

# "a" and "b" are labels of both schemes, at different positions, so one weight
# text means a different vector in each scheme; "c" belongs to one, "q" to none
PROPERTY_SCHEMES = [ABC, GroupScheme("ba", ("b", "a"), unknown_index=0)]
DOCS = ["d0", "d1", "d2", "d é", "d,1:2"]
GOOD_WEIGHTS = [
    "1", "0.5", "1.0", "0", "2", "1", "0.3", "-0.0", "1e-320", "1", "0.0", "7e300", "1.0",
    "1.5e308",  # twice this overflows the total
]
BAD_WEIGHTS = ["-1", "nan", "inf", "-inf", "1e999", "x", ""]
BAD_PAIRS = ["a", ":1", "a:", "a:1:2", ""]
BLANKS = ["", " ", "\t", "  \t "]


def rare(draw, good, bad, one_in):
    """Mostly ``good``; about once in ``one_in`` draws, ``bad``. Hypothesis
    favours the ends of a range, so the rare case is its middle value."""
    return draw(bad if draw(st.integers(0, one_in - 1)) == one_in // 2 else good)


def row_kind(draw):
    return rare(draw, st.just("row"), st.sampled_from(["blank", "blank", "fields", "nope"]), 20)


@st.composite
def weight_specs(draw):
    labels = draw(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2, unique=True))
    # now and then a label of one scheme only, of none, or a repeated one
    labels += rare(draw, st.just([]), st.sampled_from([["c"], ["q"], ["a"]]), 8)
    pairs = []
    for label in labels:
        weight = rare(draw, st.sampled_from(GOOD_WEIGHTS), st.sampled_from(BAD_WEIGHTS), 40)
        pairs.append(rare(draw, st.just(f"{label}:{weight}"), st.sampled_from(BAD_PAIRS), 60))
    return ",".join(pairs)


@st.composite
def tsv_texts(draw):
    # a few weight texts per file, so most rows repeat one seen before
    specs = draw(st.lists(weight_specs(), min_size=1, max_size=4))
    # the same numbers in other words: equal floats, but -0.0 and 0 differ in bits
    specs += [spec.replace("-0.0", "0") for spec in specs]
    rows = []
    for _ in range(draw(st.integers(1, 16))):
        kind = row_kind(draw)
        if kind == "blank":
            rows.append(draw(st.sampled_from(BLANKS)))
        elif kind == "fields":
            rows.append(draw(st.sampled_from(["d1\tabc", "d1\tabc\ta:1\tz", "d1"])))
        else:
            doc = rare(draw, st.just(f"d{len(rows)}"), st.sampled_from(DOCS), 10)
            scheme = "nope" if kind == "nope" else draw(st.sampled_from(["abc", "ba"]))
            rows.append(f"{doc}\t{scheme}\t{draw(st.sampled_from(specs))}")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(rows) + draw(st.sampled_from([newline, ""]))


GOOD_JSON = [1, 0.5, 1.0, 0, 2, 1, 0.3, -0.0, 1, 0.0, 1.0]
BAD_JSON = [-1, float("nan"), float("inf"), float("-inf"), "x", True, None]
BAD_ROWS = ["{not json}", "[1]", '{"doc": "d1"}', '{"doc": "d1", "scheme": "abc", "weights": 3}']


@st.composite
def jsonl_texts(draw):
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = row_kind(draw)
        if kind == "blank":
            rows.append(draw(st.sampled_from(BLANKS)))
        elif kind == "fields":
            rows.append(draw(st.sampled_from(BAD_ROWS)))
        else:
            labels = draw(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2))
            labels += rare(draw, st.just([]), st.sampled_from([["c"], ["q"]]), 8)
            weights = {
                label: rare(draw, st.sampled_from(GOOD_JSON), st.sampled_from(BAD_JSON), 30)
                for label in labels
            }
            scheme = "nope" if kind == "nope" else draw(st.sampled_from(["abc", "ba"]))
            doc = rare(draw, st.just(f"d{len(rows)}"), st.sampled_from(DOCS), 10)
            row = {"doc": doc, "scheme": scheme, "weights": weights}
            rows.append(json.dumps(row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(rows) + newline


@settings(max_examples=300, deadline=None)
@given(text=tsv_texts(), kind=st.sampled_from(SOURCE_KINDS))
def test_tsv_matches_oracle(text, kind):
    assert_same(text, PROPERTY_SCHEMES, "tsv", kind)


@settings(max_examples=100, deadline=None)
@given(text=jsonl_texts(), kind=st.sampled_from(SOURCE_KINDS))
def test_jsonl_matches_oracle(text, kind):
    assert_same(text, PROPERTY_SCHEMES, "jsonl", kind)
