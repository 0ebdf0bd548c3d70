import numpy as np
import pytest

from rankfair.core import GroupMembershipTable, GroupScheme, Qrels, one_hot
from rankfair.errors import (
    DuplicateDocument,
    DuplicateJudgment,
    InsufficientDocuments,
    MalformedLine,
    NegativeGrade,
    NonNumericRank,
    NonNumericScore,
    UnknownLabel,
    UnknownScheme,
    ZeroMass,
)
from rankfair.ingest import (
    SamplePlan,
    parse_annotations,
    parse_qrels,
    parse_run,
    stratified_sample,
    write_annotations,
    write_qrels,
    write_run,
)

GENDER = GroupScheme("gender", ("male", "female", "nonbinary", "unknown"), unknown_index=3)
GEO = GroupScheme("geo", ("eu", "us"))


def random_runset(rng):
    rankings = []
    for s in range(rng.integers(1, 4)):
        tag = f"sys{s}"
        for q in range(rng.integers(1, 4)):
            n = int(rng.integers(1, 8))
            docs = rng.permutation(n)
            entries = tuple(
                (f"d{j}", float(np.round(rng.normal() * 10, 4))) for j in docs
            )
            rankings.append((f"q{q}", entries, tag))
    from rankfair.core import Ranking, RunSet

    return RunSet([Ranking(q, e, t) for q, e, t in rankings])


class TestParseRun:
    def test_single_line(self):
        rs = parse_run("q1 Q0 d7 1 14.2 sysA\n")
        ranking = rs.get("sysA", "q1")
        assert ranking.entries == (("d7", 14.2),)

    def test_rank_field_orders_entries(self):
        text = "q1 Q0 dC 3 1.0 s\nq1 Q0 dA 1 0.5 s\nq1 Q0 dB 2 2.0 s\n"
        shuffled = "q1 Q0 dB 2 2.0 s\nq1 Q0 dC 3 1.0 s\nq1 Q0 dA 1 0.5 s\n"
        assert parse_run(text) == parse_run(shuffled)
        assert parse_run(text).get("s", "q1").doc_ids == ("dA", "dB", "dC")

    def test_five_fields_malformed(self):
        with pytest.raises(MalformedLine) as err:
            parse_run("q1 Q0 d7 1 14.2 sysA\nq1 Q0 d8 2 3.0\n")
        assert err.value.line == 2

    def test_non_numeric_rank(self):
        with pytest.raises(NonNumericRank) as err:
            parse_run("q1 Q0 d7 first 14.2 sysA\n")
        assert err.value.line == 1

    def test_non_numeric_score(self):
        with pytest.raises(NonNumericScore) as err:
            parse_run("q1 Q0 d7 1 high sysA\n")
        assert err.value.line == 1

    def test_duplicate_document(self):
        with pytest.raises(DuplicateDocument) as err:
            parse_run("q1 Q0 d7 1 2.0 sysA\nq1 Q0 d7 2 1.0 sysA\n")
        assert err.value.line == 2

    def test_accepts_tabs_and_bytes(self):
        rs = parse_run(b"q1\tQ0\td7\t1\t14.2\tsysA\n")
        assert rs.get("sysA", "q1").entries == (("d7", 14.2),)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rs = random_runset(rng)
            assert parse_run(write_run(rs)) == rs


class TestParseQrels:
    def test_basic(self):
        q = parse_qrels("q1 0 d7 2\n")
        assert q.grades("q1")["d7"] == 2

    def test_empty_stream(self):
        assert parse_qrels("") == Qrels({})

    def test_negative_grade(self):
        with pytest.raises(NegativeGrade) as err:
            parse_qrels("q1 0 d7 -1\n")
        assert err.value.line == 1

    def test_malformed(self):
        with pytest.raises(MalformedLine) as err:
            parse_qrels("q1 0 d7\n")
        assert err.value.line == 1

    def test_non_integer_grade(self):
        with pytest.raises(MalformedLine):
            parse_qrels("q1 0 d7 high\n")

    def test_duplicate_judgment(self):
        with pytest.raises(DuplicateJudgment) as err:
            parse_qrels("q1 0 d7 1\nq1 0 d7 2\n")
        assert err.value.line == 2

    def test_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            data = {
                f"q{i}": {
                    f"d{j}": int(rng.integers(0, 4)) for j in range(rng.integers(1, 6))
                }
                for i in range(rng.integers(1, 5))
            }
            q = Qrels(data)
            assert parse_qrels(write_qrels(q)) == q


class TestParseAnnotations:
    def test_one_hot(self):
        table = parse_annotations("d1\tgender\tmale:1\n", [GENDER])
        assert table.get("gender", "d1").weights == (1.0, 0.0, 0.0, 0.0)

    def test_normalizes(self):
        table = parse_annotations("d2\tgender\tmale:1,female:1\n", [GENDER])
        assert table.get("gender", "d2").weights == (0.5, 0.5, 0.0, 0.0)

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel) as err:
            parse_annotations("d3\tgender\talien:1\n", [GENDER])
        assert err.value.line == 1

    def test_unknown_scheme(self):
        with pytest.raises(UnknownScheme) as err:
            parse_annotations("d3\tage\tyoung:1\n", [GENDER])
        assert err.value.line == 1

    def test_zero_mass(self):
        with pytest.raises(ZeroMass) as err:
            parse_annotations("d3\tgender\tmale:0\n", [GENDER])
        assert err.value.line == 1

    def test_bad_weight(self):
        with pytest.raises(MalformedLine):
            parse_annotations("d3\tgender\tmale:lots\n", [GENDER])

    @pytest.mark.parametrize("weight", ["inf", "nan", "-inf", "Infinity", "1e999"])
    def test_non_finite_tsv_weight(self, weight):
        text = f"d1\tgender\tmale:1\nd2\tgender\tfemale:{weight}\n"
        with pytest.raises(MalformedLine, match="'female' is not finite") as err:
            parse_annotations(text, [GENDER])
        assert err.value.line == 2

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_jsonl_weight(self, weight):
        line = f'{{"doc": "d1", "scheme": "gender", "weights": {{"male": {weight}}}}}\n'
        with pytest.raises(MalformedLine, match="'male' is not finite") as err:
            parse_annotations(line, [GENDER], format="jsonl")
        assert err.value.line == 1

    def test_same_weight_text_shares_one_vector(self):
        text = "d1\tgender\tmale:1\nd2\tgender\tmale:1\nd3\tgender\tmale:1.0\n"
        table = parse_annotations(text, [GENDER])
        assert table.get("gender", "d1") is table.get("gender", "d2")
        assert table.get("gender", "d3") == table.get("gender", "d1")

    def test_duplicate_row(self):
        text = "d1\tgender\tmale:1\nd1\tgender\tfemale:1\n"
        with pytest.raises(DuplicateDocument) as err:
            parse_annotations(text, [GENDER])
        assert err.value.line == 2

    def test_jsonl(self):
        line = '{"doc": "d1", "scheme": "gender", "weights": {"female": 2}}\n'
        table = parse_annotations(line, [GENDER], format="jsonl")
        assert table.get("gender", "d1").weights == (0.0, 1.0, 0.0, 0.0)

    def test_jsonl_malformed(self):
        with pytest.raises(MalformedLine) as err:
            parse_annotations("{not json}\n", [GENDER], format="jsonl")
        assert err.value.line == 1

    def test_write_groups_by_scheme_then_doc(self):
        table = GroupMembershipTable(
            [GENDER, GEO],
            {
                "gender": {"d2": one_hot(GENDER, 0), "d1": one_hot(GENDER, 1)},
                "geo": {"d1": one_hot(GEO, 0)},
            },
        )
        lines = write_annotations(table).splitlines()
        assert [line.split("\t")[:2] for line in lines] == [
            ["d1", "gender"],
            ["d2", "gender"],
            ["d1", "geo"],
        ]

    def test_empty_table_empty_stream(self):
        table = GroupMembershipTable([GENDER])
        assert write_annotations(table) == ""

    @pytest.mark.parametrize("format", ["tsv", "jsonl"])
    def test_round_trip(self, format):
        rng = np.random.default_rng(43)
        schemes = [GENDER, GEO]
        for _ in range(50):
            vectors = {s.name: {} for s in schemes}
            for s in schemes:
                for j in range(rng.integers(0, 6)):
                    from rankfair.core import normalize

                    raw = rng.uniform(0, 1, size=s.k)
                    raw[rng.integers(0, s.k)] += 0.5
                    vectors[s.name][f"d{j}"] = normalize(raw, s)
            table = GroupMembershipTable(schemes, vectors)
            text = write_annotations(table, format)
            assert parse_annotations(text, schemes, format) == table


class TestStratifiedSample:
    def _table(self, per_group=20):
        vectors = {}
        for g in range(GENDER.k):
            for j in range(per_group):
                vectors[f"g{g}_d{j:03d}"] = one_hot(GENDER, g)
        return GroupMembershipTable([GENDER], {"gender": vectors})

    def test_counts(self):
        train, test = stratified_sample(self._table(), SamplePlan("gender", 10, 5, seed=1))
        assert len(train) == 40 and len(test) == 20
        assert not train & test

    def test_protocol_scale_counts(self):
        # 500 train + 100 test per group over 4 groups
        train, test = stratified_sample(
            self._table(per_group=650), SamplePlan("gender", 500, 100, seed=0)
        )
        assert len(train) == 2000 and len(test) == 400

    def test_zero_counts(self):
        train, test = stratified_sample(self._table(), SamplePlan("gender", 0, 0, seed=1))
        assert train == set() and test == set()

    def test_insufficient(self):
        with pytest.raises(InsufficientDocuments) as err:
            stratified_sample(self._table(5), SamplePlan("gender", 10, 0, seed=1))
        assert err.value.have == 5 and err.value.need == 10

    def test_deterministic_per_seed(self):
        table = self._table()
        plan = SamplePlan("gender", 8, 4, seed=99)
        assert stratified_sample(table, plan) == stratified_sample(table, plan)

    def test_seed_changes_membership(self):
        table = self._table()
        a, _ = stratified_sample(table, SamplePlan("gender", 8, 4, seed=1))
        b, _ = stratified_sample(table, SamplePlan("gender", 8, 4, seed=2))
        assert a != b
        assert len(a) == len(b)

    def test_disjoint_many_seeds(self):
        table = self._table()
        for seed in range(100):
            train, test = stratified_sample(table, SamplePlan("gender", 10, 10, seed=seed))
            assert not train & test

    def test_argmax_tie_breaks_to_lowest(self):
        from rankfair.core import MembershipVector

        tied = MembershipVector(GEO, (0.5, 0.5))
        table = GroupMembershipTable([GEO], {"geo": {"t1": tied, "t2": one_hot(GEO, 1)}})
        train, test = stratified_sample(table, SamplePlan("geo", 1, 0, seed=0))
        # t1 counts toward group 0, t2 toward group 1
        assert train == {"t1", "t2"}
