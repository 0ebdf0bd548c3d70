import itertools
import math

import numpy as np
import pytest

from rankfair.core import (
    GroupMembershipTable,
    GroupScheme,
    MissingPolicy,
    Qrels,
    Ranking,
    RankingSequence,
    normalize,
    one_hot,
)
from rankfair.errors import (
    InvalidPatience,
    MissingDocument,
    NoJudgedDocuments,
    NoRelevantDocuments,
    NoUnknownGroup,
    ZeroMass,
)
from rankfair.exposure import (
    AttentionModel,
    ExposureVector,
    attention_weights,
    cumulative_exposure,
    expected_group_exposure,
    target_from_qrels,
    target_group_exposure,
    target_uniform,
)

G2 = GroupScheme("pair", ("g0", "g1"))
G4 = GroupScheme("quad", ("g0", "g1", "g2", "g3"), unknown_index=3)


def make_table(scheme, assignment):
    """assignment: doc id -> group index or weight list."""
    vectors = {}
    for doc, spec in assignment.items():
        if isinstance(spec, int):
            vectors[doc] = one_hot(scheme, spec)
        else:
            vectors[doc] = normalize(spec, scheme)
    return GroupMembershipTable([scheme], {scheme.name: vectors})


# --- independent oracles ------------------------------------------------------------


def exposure_oracle(ranking, table, scheme, model, fallback=MissingPolicy.UNIFORM):
    """Term-by-term weighted sum over stored membership tuples."""
    from rankfair.core import membership_of

    weights = attention_weights(model, len(ranking))
    totals = [[] for _ in range(scheme.k)]
    for pos, (doc, _) in enumerate(ranking.entries[: len(weights)]):
        vec = membership_of(table, doc, scheme, fallback)
        for g in range(scheme.k):
            totals[g].append(weights[pos] * vec.weights[g])
    return [math.fsum(t) for t in totals]


def target_exposure_oracle(qrels, query_id, table, scheme, model):
    """Brute force: average per-doc exposure over every grade-respecting
    permutation of the relevant documents."""
    from rankfair.core import membership_of

    relevant = sorted(qrels.relevant(query_id).items())
    if not relevant:
        return [0.0] * scheme.k
    docs = [d for d, _ in relevant]
    grades = {d: g for d, g in relevant}
    n = len(docs)
    weights = attention_weights(model, n)
    padded = list(weights) + [0.0] * (n - len(weights))
    per_doc = {d: [] for d in docs}
    count = 0
    for perm in itertools.permutations(docs):
        if any(grades[perm[i]] < grades[perm[i + 1]] for i in range(n - 1)):
            continue
        count += 1
        for pos, doc in enumerate(perm):
            per_doc[doc].append(padded[pos])
    mean_exposure = {d: math.fsum(v) / count for d, v in per_doc.items()}
    totals = [
        math.fsum(
            mean_exposure[d] * membership_of(table, d, scheme).weights[g] for d in docs
        )
        for g in range(scheme.k)
    ]
    return totals


# --- attention models ---------------------------------------------------------------


class TestAttentionWeights:
    def test_geometric(self):
        w = attention_weights(AttentionModel.geometric(0.5), 3)
        np.testing.assert_allclose(w, [0.5, 0.25, 0.125], atol=0, rtol=0)

    def test_log_discount(self):
        w = attention_weights(AttentionModel.log_discount(), 2)
        assert w[0] == 1.0
        assert w[1] == 1.0 / math.log2(3.0)

    def test_uniform_top2(self):
        w = attention_weights(AttentionModel.uniform(2), 5)
        np.testing.assert_array_equal(w, [1.0, 1.0])

    def test_cutoff_truncates(self):
        w = attention_weights(AttentionModel.geometric(0.5, cutoff=2), 10)
        assert len(w) == 2

    def test_invalid_patience(self):
        with pytest.raises(InvalidPatience):
            AttentionModel.geometric(1.0)
        with pytest.raises(InvalidPatience):
            AttentionModel.geometric(0.0)

    def test_uniform_needs_cutoff(self):
        with pytest.raises(ValueError):
            AttentionModel("uniform")

    def test_geometric_strictly_decreasing(self):
        w = attention_weights(AttentionModel.geometric(0.3), 20)
        assert np.all(np.diff(w) < 0)
        assert np.all(w > 0)


class TestExposureVector:
    def test_normalize_splits_mass(self):
        v = ExposureVector(G2, (0.625, 0.25)).normalize()
        assert v.normalized
        np.testing.assert_allclose(v.masses, [5 / 7, 2 / 7], atol=1e-15, rtol=0)

    def test_normalize_zero_raises(self):
        with pytest.raises(ZeroMass):
            ExposureVector(G2, (0.0, 0.0)).normalize()

    def test_normalize_idempotent_bitwise(self):
        v = ExposureVector(G2, (0.3, 0.9)).normalize()
        assert v.normalize().masses == v.masses

    def test_validation(self):
        with pytest.raises(ValueError):
            ExposureVector(G2, (-0.1, 1.1))
        with pytest.raises(ValueError):
            ExposureVector(G2, (0.7, 0.7), normalized=True)


class TestCumulativeExposure:
    def test_three_doc_hand_case(self):
        table = make_table(G2, {"d1": 0, "d2": 1, "d3": 0})
        ranking = Ranking("q", (("d1", 3.0), ("d2", 2.0), ("d3", 1.0)), "s")
        raw = cumulative_exposure(ranking, table, G2, AttentionModel.geometric(0.5))
        np.testing.assert_allclose(raw.masses, [0.625, 0.25], atol=0, rtol=0)
        norm = raw.normalize()
        np.testing.assert_allclose(norm.masses, [5 / 7, 2 / 7], atol=1e-15, rtol=0)

    def test_single_group(self):
        table = make_table(G2, {"d1": 0, "d2": 0})
        ranking = Ranking("q", (("d1", 2.0), ("d2", 1.0)), "s")
        norm = cumulative_exposure(ranking, table, G2).normalize()
        assert norm.masses == (1.0, 0.0)

    def test_single_document(self):
        table = make_table(G2, {"d1": [0.7, 0.3]})
        ranking = Ranking("q", (("d1", 1.0),), "s")
        norm = cumulative_exposure(ranking, table, G2).normalize()
        assert norm.masses == table.get("pair", "d1").weights

    def test_empty_ranking_rejected(self):
        table = make_table(G2, {"d1": 0})
        with pytest.raises(ValueError):
            cumulative_exposure(Ranking("q", (), "s"), table, G2)

    def test_missing_doc_reject(self):
        table = make_table(G2, {"d1": 0})
        ranking = Ranking("q", (("d1", 2.0), ("dx", 1.0)), "s")
        with pytest.raises(MissingDocument):
            cumulative_exposure(ranking, table, G2, fallback=MissingPolicy.REJECT)

    def test_missing_doc_fallbacks(self):
        table = make_table(G4, {"d1": 0})
        ranking = Ranking("q", (("d1", 2.0), ("dx", 1.0)), "s")
        uni = cumulative_exposure(
            ranking, table, G4, AttentionModel.uniform(2), MissingPolicy.UNIFORM
        )
        np.testing.assert_allclose(uni.masses, [1.25, 0.25, 0.25, 0.25], atol=0, rtol=0)
        unk = cumulative_exposure(
            ranking, table, G4, AttentionModel.uniform(2), MissingPolicy.ALL_UNKNOWN
        )
        np.testing.assert_allclose(unk.masses, [1.0, 0.0, 0.0, 1.0], atol=0, rtol=0)

    @pytest.mark.parametrize("model", [
        AttentionModel.geometric(0.5),
        AttentionModel.geometric(0.8, cutoff=3),
        AttentionModel.log_discount(),
        AttentionModel.uniform(4),
    ])
    def test_matches_term_by_term_oracle(self, model):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            assignment = {
                f"d{j}": list(rng.uniform(0.01, 1.0, size=4)) for j in range(n)
            }
            table = make_table(G4, assignment)
            entries = tuple((f"d{j}", float(n - j)) for j in range(n))
            ranking = Ranking("q", entries, "s")
            got = cumulative_exposure(ranking, table, G4, model)
            want = exposure_oracle(ranking, table, G4, model)
            np.testing.assert_allclose(got.masses, want, atol=1e-12, rtol=0)


class TestTargetFromQrels:
    def test_binary_mean(self):
        table = make_table(G2, {"d1": 0, "d2": 1})
        qrels = Qrels({"q": {"d1": 1, "d2": 2}})
        t = target_from_qrels(qrels, "q", table, G2, "binary")
        assert t.masses == (0.5, 0.5)
        assert t.normalized

    def test_graded_mean(self):
        table = make_table(G2, {"d1": 0, "d2": 1})
        qrels = Qrels({"q": {"d1": 3, "d2": 1}})
        t = target_from_qrels(qrels, "q", table, G2, "graded")
        np.testing.assert_allclose(t.masses, [0.75, 0.25], atol=0, rtol=0)

    def test_no_relevant(self):
        table = make_table(G2, {"d1": 0})
        qrels = Qrels({"q": {"d1": 0}})
        with pytest.raises(NoRelevantDocuments):
            target_from_qrels(qrels, "q", table, G2)


class TestTargetUniform:
    def test_include_all(self):
        assert target_uniform(G4).masses == (0.25, 0.25, 0.25, 0.25)

    def test_exclude_unknown(self):
        t = target_uniform(G4, exclude_unknown=True)
        np.testing.assert_allclose(t.masses, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=0, rtol=0)

    def test_exclude_needs_unknown(self):
        with pytest.raises(NoUnknownGroup):
            target_uniform(G2, exclude_unknown=True)

    def test_two_groups(self):
        assert target_uniform(G2).masses == (0.5, 0.5)


class TestExpectedGroupExposure:
    def _table_and_rankings(self):
        table = make_table(G2, {"d1": 0, "d2": 1})
        r1 = Ranking("q", (("d1", 2.0), ("d2", 1.0)), "s")
        r2 = Ranking("q", (("d2", 2.0), ("d1", 1.0)), "s")
        return table, r1, r2

    def test_mean_of_one(self):
        table, r1, _ = self._table_and_rankings()
        seq = RankingSequence("q", (r1,))
        gamma = expected_group_exposure(seq, table, G2, AttentionModel.uniform(1))
        single = cumulative_exposure(r1, table, G2, AttentionModel.uniform(1))
        assert gamma.masses == single.masses

    def test_mean_of_two(self):
        table, r1, r2 = self._table_and_rankings()
        seq = RankingSequence("q", (r1, r2))
        gamma = expected_group_exposure(seq, table, G2, AttentionModel.uniform(1))
        assert gamma.masses == (0.5, 0.5)

    def test_repetition_idempotent(self):
        table, r1, _ = self._table_and_rankings()
        once = expected_group_exposure(RankingSequence("q", (r1,)), table, G2)
        five = expected_group_exposure(RankingSequence("q", (r1,) * 5), table, G2)
        assert once.masses == five.masses

    def test_permutation_invariant_bitwise(self):
        table = make_table(G2, {f"d{j}": [j + 1, 5 - j] for j in range(4)})
        rankings = [
            Ranking("q", tuple((f"d{j}", float(4 - j)) for j in order), "s")
            for order in itertools.permutations(range(4), 4)
        ]
        rankings = rankings[:6]
        seq_a = RankingSequence("q", tuple(rankings))
        seq_b = RankingSequence("q", tuple(reversed(rankings)))
        a = expected_group_exposure(seq_a, table, G2)
        b = expected_group_exposure(seq_b, table, G2)
        assert a.masses == b.masses


class TestTargetGroupExposure:
    def test_two_docs_same_grade(self):
        table = make_table(G2, {"d1": 0, "d2": 1})
        qrels = Qrels({"q": {"d1": 1, "d2": 1}})
        t = target_group_exposure(qrels, "q", table, G2, AttentionModel.geometric(0.5))
        np.testing.assert_allclose(t.masses, [0.375, 0.375], atol=0, rtol=0)

    def test_two_bands_by_hand(self):
        # grade 3: d1 (g0) and d2 (g1) share ranks 1-2, (0.5 + 0.25) / 2 = 0.375
        # each; grade 1: d3 and d4 (both g0) share ranks 3-4, (0.125 + 0.0625)
        # / 2 = 0.09375 each; g0 = 0.375 + 2 * 0.09375, g1 = 0.375
        table = make_table(G2, {"d1": 0, "d2": 1, "d3": 0, "d4": 0})
        qrels = Qrels({"q": {"d1": 3, "d2": 3, "d3": 1, "d4": 1}})
        t = target_group_exposure(qrels, "q", table, G2, AttentionModel.geometric(0.5))
        assert t.masses == (0.5625, 0.375) and not t.normalized

    def test_distinct_grades_single_permutation(self):
        table = make_table(G2, {"d1": 0, "d2": 1, "d3": 0})
        qrels = Qrels({"q": {"d1": 3, "d2": 2, "d3": 1}})
        model = AttentionModel.geometric(0.5)
        t = target_group_exposure(qrels, "q", table, G2, model)
        ideal = Ranking("q", (("d1", 3.0), ("d2", 2.0), ("d3", 1.0)), "s")
        want = cumulative_exposure(ideal, table, G2, model)
        np.testing.assert_allclose(t.masses, want.masses, atol=1e-15, rtol=0)

    def test_all_grade_zero(self):
        table = make_table(G2, {"d1": 0})
        qrels = Qrels({"q": {"d1": 0}})
        t = target_group_exposure(qrels, "q", table, G2)
        assert t.masses == (0.0, 0.0)

    def test_unjudged_query(self):
        table = make_table(G2, {"d1": 0})
        qrels = Qrels({"q": {"d1": 1}})
        with pytest.raises(NoJudgedDocuments):
            target_group_exposure(qrels, "missing", table, G2)

    @pytest.mark.parametrize("model", [
        AttentionModel.geometric(0.5),
        AttentionModel.geometric(0.7, cutoff=3),
        AttentionModel.log_discount(),
        AttentionModel.uniform(2),
    ])
    def test_matches_brute_force(self, model):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            assignment = {
                f"d{j}": list(rng.uniform(0.01, 1.0, size=4)) for j in range(n)
            }
            table = make_table(G4, assignment)
            qrels = Qrels({"q": {f"d{j}": int(rng.integers(0, 3)) for j in range(n)}})
            if not qrels.relevant("q"):
                continue
            got = target_group_exposure(qrels, "q", table, G4, model)
            want = target_exposure_oracle(qrels, "q", table, G4, model)
            np.testing.assert_allclose(got.masses, want, atol=1e-9, rtol=0)
