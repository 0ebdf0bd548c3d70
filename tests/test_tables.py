"""Columnar membership tables against the per-document forms they replaced.

A table holds, per scheme, sorted doc ids and a read-only row matrix. The
references here build the same values one document at a time, from
``MembershipVector`` objects: ``membership_of`` and ``intersect_schemes``
for intersections, a per-document draw for hard corruption, and a
document-by-document dict for the testbed. Weights are compared bit for bit
(``float.hex``) unless a reference sums in another order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfair import simulate
from rankfair.core import (
    GroupMembershipTable,
    GroupScheme,
    MembershipVector,
    MissingPolicy,
    intersect_tables,
    membership_of,
    normalize,
    one_hot,
    product_scheme,
)
from rankfair.errors import LengthMismatch
from rankfair.simulate import _doc_uniforms, apply_confusion, confusion_for_accuracy

GEO = GroupScheme("geo", ("north", "south"))
TONE = GroupScheme("tone", ("x", "y", "unknown"), unknown_index=2)
PAIR = GroupScheme("pair", ("a", "b"), unknown_index=1)
QUAD = GroupScheme("quad", ("g0", "g1", "g2", "g3"))
SCHEMES = (GEO, TONE, PAIR, QUAD)
DOCS = ("d0", "d1", "d10", "d2", "d9", "e")


def hexes(weights):
    return [float(w).hex() for w in weights]


def intersect_schemes(v1: MembershipVector, v2: MembershipVector) -> MembershipVector:
    """Joint membership over the product scheme, assuming independence.

    Entry (i, j) of the result is ``v1[i] * v2[j]``; marginalizing the
    output over either scheme recovers the other input.
    """
    scheme = product_scheme(v1.scheme, v2.scheme)
    weights = tuple(a * b for a in v1.weights for b in v2.weights)
    return normalize(weights, scheme)


def fold_reference(table, names, fallback):
    """The per-document walk ``intersect_tables`` replaced: doc id -> weights."""
    schemes = [table.scheme(n) for n in names]
    docs = set()
    for n in names:
        docs.update(table.docs(n))
    out = {}
    for doc in sorted(docs):
        vector = membership_of(table, doc, schemes[0], fallback)
        for scheme in schemes[1:]:
            vector = intersect_schemes(vector, membership_of(table, doc, scheme, fallback))
        out[doc] = vector.weights
    return out


@st.composite
def rows(draw, scheme):
    """One-hot, soft, signed-zero, or off-sum (by up to 0.9 SUM_TOL) weights."""
    kind = draw(st.sampled_from(["hot", "soft", "signed", "off"]))
    at = draw(st.integers(0, scheme.k - 1))
    if kind == "hot":
        return one_hot(scheme, at)
    if kind == "signed":
        return MembershipVector(scheme, tuple(1.0 if i == at else -0.0 for i in range(scheme.k)))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=scheme.k, max_size=scheme.k))
    raw[at] += 0.5
    vector = normalize(raw, scheme)
    if kind == "soft":
        return vector
    weights = list(vector.weights)
    weights[at] += draw(st.sampled_from([-9e-10, -4e-10, 4e-10, 9e-10]))
    if weights[at] < 0 or abs(math.fsum(weights) - 1.0) > 1e-9:
        return vector
    return MembershipVector(scheme, tuple(weights))


@st.composite
def intersections(draw):
    schemes = draw(st.lists(st.sampled_from(SCHEMES), min_size=2, max_size=3, unique=True))
    vectors = {}
    for scheme in schemes:
        present = draw(st.lists(st.sampled_from(DOCS), unique=True))
        vectors[scheme.name] = {doc: draw(rows(scheme)) for doc in present}
    policy = draw(st.sampled_from(list(MissingPolicy)))
    return GroupMembershipTable(schemes, vectors), [s.name for s in schemes], policy


@settings(max_examples=300, deadline=None)
@given(intersections())
def test_intersect_tables_matches_the_per_document_fold(case):
    table, names, policy = case
    try:
        want = fold_reference(table, names, policy)
    except Exception as exc:  # the same (doc, scheme) must raise the same error
        with pytest.raises(type(exc)) as err:
            intersect_tables(table, names, policy)
        assert str(err.value) == str(exc)
        return
    got = intersect_tables(table, names, policy)
    ids, m = got.columns("overall")
    assert list(ids) == list(want)
    for doc, row in zip(ids, m.tolist()):
        assert hexes(row) == hexes(want[doc]), doc
    assert not m.flags.writeable


def test_all_unknown_without_an_unknown_group_needs_no_fallback():
    """Nothing is missing, so no scheme's fallback row is built."""
    table = GroupMembershipTable(
        [GEO, QUAD],
        {"geo": {"d1": one_hot(GEO, 0)}, "quad": {"d1": one_hot(QUAD, 2)}},
    )
    got = intersect_tables(table, ["geo", "quad"], MissingPolicy.ALL_UNKNOWN)
    assert got.get("overall", "d1").weights == one_hot(got.scheme("overall"), 2).weights


def test_empty_intersection():
    table = GroupMembershipTable([GEO, TONE])
    ids, m = intersect_tables(table, ["geo", "tone"]).columns("overall")
    assert ids == () and m.shape == (0, 6)


# --- from_columns ----------------------------------------------------------------------


def test_from_columns_equals_the_vector_built_table():
    soft = normalize([0.3, 0.7], GEO)
    vectors = {"e": one_hot(GEO, 1), "a": soft, "c": MembershipVector(GEO, (-0.0, 1.0))}
    built = GroupMembershipTable([GEO, TONE], {"geo": vectors}, provenance="model")
    rows = [v.weights for v in vectors.values()]
    table = GroupMembershipTable.from_columns([GEO, TONE], {"geo": (list(vectors), rows)}, "model")
    assert table == built and table.provenance == "model"
    ids, m = table.columns("geo")
    assert ids == ("a", "c", "e")
    assert [hexes(r) for r in m.tolist()] == [hexes(vectors[d].weights) for d in ids]
    assert list(table.docs("geo")) == ["a", "c", "e"]
    assert table.docs("tone") == {}


@pytest.mark.parametrize(
    "ids,rows,error",
    [
        (["a"], [[math.nan, 1.0]], ValueError),
        (["a"], [[-0.5, 1.5]], ValueError),
        (["a", "b"], [[1.0, 0.0], [0.5, 0.6]], ValueError),
        (["a"], [[1.0, 0.0, 0.0]], LengthMismatch),
        (["a", "b"], [[1.0, 0.0]], LengthMismatch),
        (["b", "a", "b"], [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], ValueError),
    ],
    ids=["nan", "negative", "off-sum", "wrong-width", "too-few-rows", "duplicate-id"],
)
def test_from_columns_rejects_bad_rows(ids, rows, error):
    with pytest.raises(error):
        GroupMembershipTable.from_columns([GEO], {"geo": (ids, np.array(rows))})


def test_rows_with_equal_bits_share_one_vector():
    table = GroupMembershipTable.from_columns(
        [GEO], {"geo": (["a", "b", "c"], [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])}
    )
    assert table.get("geo", "a") is table.get("geo", "c")
    assert table.get("geo", "b") is not table.get("geo", "a")
    assert table.get("geo", "b").weights[0].hex() == "-0x0.0p+0"


# --- builders ------------------------------------------------------------------------


def test_generate_testbed_table_equals_the_per_document_build():
    """With 1001 queries the ids are not generated in sorted order
    (``q1000_...`` sorts before ``q100_...``)."""
    config = simulate.TestbedConfig(
        n_queries=1001, docs_per_query=3, n_groups=3, n_systems=1, seed=5
    )
    bed = simulate.generate_testbed(config)
    scheme = bed.table.scheme("group")
    rng = np.random.default_rng(config.seed)  # generate_testbed's draws, in its order
    vectors = {}
    for qi in range(config.n_queries):
        groups = rng.integers(0, 3, size=3)
        rng.choice(len(config.grade_probs), size=3, p=config.grade_probs)
        rng.permutation(3)
        for di, g in enumerate(groups.tolist()):
            vectors[f"q{qi:03d}_d{di:04d}"] = one_hot(scheme, g)
    assert list(vectors) != sorted(vectors)
    assert bed.table == GroupMembershipTable([scheme], {"group": vectors})
    assert list(bed.table.docs("group")) == sorted(vectors)


def confusion_table():
    vectors = {
        "geo": {"d2": normalize([0.3, 0.7], GEO), "d1": one_hot(GEO, 0)},
        "quad": {
            f"d{i}": one_hot(QUAD, i % 4) if i % 3 else normalize([1.0, 2.0, 3.0, 4.0], QUAD)
            for i in (7, 3, 11, 0, 5, 12, 9, 1, 4)
        },
    }
    return GroupMembershipTable([GEO, QUAD], vectors, provenance="human")


def test_apply_confusion_hard_equals_a_per_document_draw():
    table = confusion_table()
    cm = confusion_for_accuracy(QUAD, 0.55)
    out = apply_confusion(table, cm, seed=13)
    cum = np.cumsum(cm.as_array(), axis=1)
    for doc, vector in table.docs("quad").items():
        draw = _doc_uniforms(13, [doc])[0]
        label = min(int(np.searchsorted(cum[vector.argmax()], draw, side="right")), 3)
        assert out.get("quad", doc) == one_hot(QUAD, label), doc
    assert out.docs("geo") == table.docs("geo")
    assert out.provenance == "synthetic"


def test_apply_confusion_soft_equals_a_per_document_product():
    table = confusion_table()
    cm = confusion_for_accuracy(QUAD, 0.7, style="biased")
    out = apply_confusion(table, cm, mode="soft")
    for doc, vector in table.docs("quad").items():
        want = [math.fsum(w * row[j] for w, row in zip(vector.weights, cm.rows)) for j in range(4)]
        assert out.get("quad", doc).weights == pytest.approx(want, abs=1e-15), doc
    assert out.docs("geo") == table.docs("geo")
