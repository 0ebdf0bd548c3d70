import math
import sys

import numpy as np
import pytest

from rankfair.core import (
    GroupMembershipTable,
    GroupScheme,
    MembershipVector,
    MissingPolicy,
    Qrels,
    Ranking,
    RankingSequence,
    RunSet,
    intersect_tables,
    membership_of,
    normalize,
    one_hot,
    product_scheme,
)
from rankfair.errors import (
    LengthMismatch,
    MissingDocument,
    NoUnknownGroup,
    UnknownScheme,
    ZeroMass,
)

GENDER = GroupScheme("gender", ("male", "female", "nonbinary", "unknown"), unknown_index=3)
GEO = GroupScheme("geo", ("eu", "us"))


class TestGroupScheme:
    def test_basic_properties(self):
        assert GENDER.k == 4
        assert GENDER.index_of("female") == 1

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            GroupScheme("tiny", ("only",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            GroupScheme("dup", ("a", "a"))

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            GroupScheme("bad", ("a", ""))

    def test_unknown_index_bounds(self):
        with pytest.raises(ValueError):
            GroupScheme("bad", ("a", "b"), unknown_index=2)


class TestNormalize:
    def test_proportional_scaling(self):
        v = normalize([2, 2], GEO)
        assert v.weights == (0.5, 0.5)

    def test_one_hot_passthrough(self):
        scheme = GroupScheme("g3", ("male", "female", "nonbinary"))
        v = normalize([1, 0, 0], scheme)
        assert v.weights == (1.0, 0.0, 0.0)

    def test_zero_mass(self):
        with pytest.raises(ZeroMass):
            normalize([0, 0], GEO)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            normalize([1, 2, 3], GEO)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize([1, -1], GEO)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            normalize([bad, 1.0], GEO)
        with pytest.raises(ValueError, match="finite"):
            MembershipVector(GEO, (bad, 0.0))

    def test_overflowing_total_rejected(self):
        with pytest.raises(ValueError, match="total is not finite"):
            normalize([1e308, 1e308], GEO)
        with pytest.raises(ValueError, match="total is not finite"):
            normalize([sys.float_info.max, sys.float_info.max], GEO)

    def test_large_finite_total_still_scaled(self):
        # the largest weights whose total fits keep the division they had
        big = sys.float_info.max / 2
        assert normalize([big, big], GEO).weights == (big / (big + big), big / (big + big))
        assert normalize([1e308, 7e307], GEO).weights == (1e308 / 1.7e308, 7e307 / 1.7e308)

    def test_idempotent_bitwise(self):
        # re-normalizing an already normalized vector must not move any bits,
        # otherwise serializer round-trips would drift
        rng = np.random.default_rng(7)
        for _ in range(200):
            raw = rng.uniform(0, 10, size=4)
            first = normalize(raw, GENDER)
            second = normalize(first.weights, GENDER)
            assert second.weights == first.weights

    def test_outputs_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            raw = rng.uniform(0, 5, size=4)
            if raw.sum() == 0:
                continue
            v = normalize(raw, GENDER)
            assert abs(math.fsum(v.weights) - 1.0) <= 1e-9
            assert all(w >= 0 for w in v.weights)


class TestMembershipOf:
    def _table(self):
        return GroupMembershipTable(
            [GENDER],
            {"gender": {"d1": one_hot(GENDER, 1)}},
        )

    def test_present_identity(self):
        v = membership_of(self._table(), "d1", GENDER, MissingPolicy.REJECT)
        assert v.weights == (0.0, 1.0, 0.0, 0.0)

    def test_uniform_fallback(self):
        v = membership_of(self._table(), "absent", GENDER, MissingPolicy.UNIFORM)
        assert v.weights == (0.25, 0.25, 0.25, 0.25)

    def test_all_unknown_fallback(self):
        v = membership_of(self._table(), "absent", GENDER, MissingPolicy.ALL_UNKNOWN)
        assert v.weights == (0.0, 0.0, 0.0, 1.0)

    def test_reject_raises(self):
        with pytest.raises(MissingDocument):
            membership_of(self._table(), "absent", GENDER, MissingPolicy.REJECT)

    def test_all_unknown_needs_unknown_group(self):
        table = GroupMembershipTable([GEO], {"geo": {}})
        with pytest.raises(NoUnknownGroup):
            membership_of(table, "absent", GEO, MissingPolicy.ALL_UNKNOWN)

    def test_unregistered_scheme(self):
        with pytest.raises(UnknownScheme):
            membership_of(self._table(), "d1", GEO, MissingPolicy.REJECT)

    def test_deterministic(self):
        table = self._table()
        for policy in MissingPolicy:
            if policy is MissingPolicy.REJECT:
                continue
            a = membership_of(table, "absent", GENDER, policy)
            b = membership_of(table, "absent", GENDER, policy)
            assert a == b


def intersect_one(v1: MembershipVector, v2: MembershipVector) -> MembershipVector:
    """The joint row intersect_tables gives a document whose rows are v1 and v2."""
    table = GroupMembershipTable(
        [v1.scheme, v2.scheme], {v1.scheme.name: {"d": v1}, v2.scheme.name: {"d": v2}}
    )
    return intersect_tables(table, [v1.scheme.name, v2.scheme.name]).get("overall", "d")


class TestIntersect:
    def test_one_hot_kronecker(self):
        scheme3 = GroupScheme("g3", ("a", "b", "c"))
        v = intersect_one(one_hot(scheme3, 0), one_hot(GEO, 1))
        assert v.weights == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)

    def test_product_measure(self):
        tone = GroupScheme("tone", ("x", "y"))
        v = intersect_one(MembershipVector(GEO, (0.5, 0.5)), MembershipVector(tone, (0.5, 0.5)))
        assert v.weights == (0.25, 0.25, 0.25, 0.25)

    def test_dimension_of_product(self):
        geo21 = GroupScheme("geo21", tuple(f"c{i}" for i in range(21)))
        v = intersect_one(one_hot(GENDER, 0), one_hot(geo21, 5))
        assert len(v.weights) == 84

    def test_marginals_recover_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            v1 = normalize(rng.uniform(0, 1, size=4) + 1e-6, GENDER)
            v2 = normalize(rng.uniform(0, 1, size=2) + 1e-6, GEO)
            joint = np.asarray(intersect_one(v1, v2).weights).reshape(4, 2)
            np.testing.assert_allclose(joint.sum(axis=1), v1.weights, atol=1e-12, rtol=0)
            np.testing.assert_allclose(joint.sum(axis=0), v2.weights, atol=1e-12, rtol=0)

    def test_product_scheme_unknown_cell(self):
        geo_u = GroupScheme("geo3", ("eu", "us", "unk"), unknown_index=2)
        joint = product_scheme(GENDER, geo_u)
        assert joint.k == 12
        assert joint.unknown_index == 3 * 3 + 2
        assert product_scheme(GENDER, GEO).unknown_index is None

    def test_intersect_tables(self):
        table = GroupMembershipTable(
            [GENDER, GEO],
            {
                "gender": {"d1": one_hot(GENDER, 0)},
                "geo": {"d1": one_hot(GEO, 1), "d2": one_hot(GEO, 0)},
            },
        )
        joint = intersect_tables(table, ["gender", "geo"], MissingPolicy.UNIFORM)
        assert joint.scheme_names == ("overall",)
        v1 = joint.get("overall", "d1")
        assert v1.weights == (0.0, 1.0) + (0.0,) * 6
        # d2 misses gender: uniform over gender x one-hot geo
        v2 = joint.get("overall", "d2")
        assert v2.weights == (0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0)


class TestRankingTypes:
    def test_ranking_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Ranking("q1", (("d1", 2.0), ("d1", 1.0)), "sysA")

    def test_runset_rejects_duplicate_pair(self):
        r = Ranking("q1", (("d1", 1.0),), "sysA")
        with pytest.raises(ValueError):
            RunSet([r, r])

    def test_runset_lookup(self):
        r1 = Ranking("q1", (("d1", 1.0),), "sysA")
        r2 = Ranking("q2", (("d2", 1.0),), "sysA")
        rs = RunSet([r1, r2])
        assert rs.systems == ("sysA",)
        assert rs.queries("sysA") == ("q1", "q2")
        assert rs.get("sysA", "q1") == r1
        assert rs.get("sysB", "q1") is None

    def test_sequence_query_check(self):
        r1 = Ranking("q1", (("d1", 1.0),), "sysA")
        r2 = Ranking("q2", (("d2", 1.0),), "sysA")
        with pytest.raises(ValueError):
            RankingSequence("q1", (r1, r2))
        with pytest.raises(ValueError):
            RankingSequence("q1", ())

    def test_qrels_validation(self):
        with pytest.raises(ValueError):
            Qrels({"q1": {"d1": -1}})
        q = Qrels({"q1": {"d1": 2, "d2": 0}})
        assert q.relevant("q1") == {"d1": 2}
        assert "q1" in q and "q2" not in q


class TestTableEquality:
    def test_provenance_is_metadata(self):
        vectors = {"gender": {"d1": one_hot(GENDER, 0)}}
        a = GroupMembershipTable([GENDER], vectors, provenance="human")
        b = GroupMembershipTable([GENDER], vectors, provenance="synthetic")
        assert a == b

    def test_data_differences_detected(self):
        a = GroupMembershipTable([GENDER], {"gender": {"d1": one_hot(GENDER, 0)}})
        b = GroupMembershipTable([GENDER], {"gender": {"d1": one_hot(GENDER, 1)}})
        assert a != b

    def test_matrix_rows_sorted_by_doc(self):
        table = GroupMembershipTable(
            [GEO],
            {"geo": {"d2": one_hot(GEO, 1), "d1": one_hot(GEO, 0)}},
        )
        index, m = table.matrix("geo")
        assert index == {"d1": 0, "d2": 1}
        np.testing.assert_array_equal(m, [[1.0, 0.0], [0.0, 1.0]])

    def test_matrix_of_empty_scheme(self):
        index, m = GroupMembershipTable([GENDER]).matrix("gender")
        assert index == {} and m.shape == (0, 4) and m.dtype == np.float64
        assert not m.flags.writeable

    def test_matrix_rows_bit_identical_to_vectors(self):
        soft = normalize([0.3, 0.7], GEO)
        signed = MembershipVector(GEO, (-0.0, 1.0))
        table = GroupMembershipTable([GEO], {"geo": {"b": soft, "a": signed, "c": soft}})
        index, m = table.matrix("geo")
        for doc_id, row in index.items():
            want = table.get("geo", doc_id).weights
            assert [w.hex() for w in m[row].tolist()] == [w.hex() for w in want]
