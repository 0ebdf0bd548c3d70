"""Property tests: the compiled exposure kernel against a per-document oracle.

The oracle is the per-document evaluation the kernel replaced: each ranked
document is looked up on its own, missing ones resolved by policy, and every
sum is exact (``math.fsum``). It shares no array code with the kernel.

A second reference holds the kernel's bits: the fancy-indexing gathers the
kernel was first written with. Gathering the same rows another way must
hand the same operands to the same matmul, so results are compared bit for
bit. The one-ranking functions, now compositions of the kernel's parts,
and the KL and worst-case divergences, now on one summation path, are held
to their former formulations the same way. Both sides run in one
process on one BLAS, so the comparison holds on any CPU; no literal output
digest is pinned.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfair import exposure, metrics, simulate
from rankfair.core import (
    GroupMembershipTable,
    GroupScheme,
    MissingPolicy,
    Qrels,
    Ranking,
    RankingSequence,
    RunSet,
    intersect_tables,
    normalize,
    one_hot,
    product_scheme,
)
from rankfair.errors import MissingDocument
from rankfair.exposure import (
    AttentionModel,
    ExposureVector,
    attention_weights,
    compile_codes,
    compile_entries,
    compile_table,
    cumulative_exposure,
    expected_group_exposure,
    member_rows,
    target_from_qrels,
    target_group_exposure,
    weighted_rows,
)
from rankfair.metrics import KL_EPSILON, LN2, MetricConfig, awrf, evaluate_runset

TOL = 1e-12


# --- oracle ---------------------------------------------------------------------------


def oracle_weights(model, n):
    m = n if model.cutoff is None else min(n, model.cutoff)
    if model.kind == "geometric":
        return [model.patience * (1.0 - model.patience) ** i for i in range(m)]
    if model.kind == "log":
        return [1.0 / math.log2(i + 2.0) for i in range(m)]
    return [1.0] * m


def oracle_member(table, scheme, doc, policy):
    vector = table.get(scheme.name, doc)
    if vector is not None:
        return vector.weights
    if policy is MissingPolicy.REJECT:
        raise MissingDocument(f"doc {doc!r} has no membership for scheme {scheme.name!r}")
    if policy is MissingPolicy.UNIFORM:
        return (1.0 / scheme.k,) * scheme.k
    return one_hot(scheme, scheme.unknown_index).weights


def oracle_exposure(ranking, table, scheme, model, policy):
    weights = oracle_weights(model, len(ranking))
    rows = [oracle_member(table, scheme, doc, policy) for doc, _ in ranking.entries[: len(weights)]]
    return [math.fsum(w * row[g] for w, row in zip(weights, rows)) for g in range(scheme.k)]


def oracle_sequence_exposure(sequence, table, scheme, model, policy):
    raws = [oracle_exposure(r, table, scheme, model, policy) for r in sequence.rankings]
    return [math.fsum(col) / len(raws) for col in zip(*raws)]


def oracle_normalize(masses):
    total = math.fsum(masses)
    return list(masses) if abs(total - 1.0) <= 1e-9 else [m / total for m in masses]


def oracle_qrels_target(pairs, table, scheme, graded, policy):
    coeffs = [float(g) if graded else 1.0 for _, g in pairs]
    rows = [oracle_member(table, scheme, doc, policy) for doc, _ in pairs]
    denom = math.fsum(coeffs)
    masses = [math.fsum(c * row[g] for c, row in zip(coeffs, rows)) / denom for g in range(scheme.k)]
    return oracle_normalize(masses)


def oracle_kl(p, q, epsilon=KL_EPSILON):
    ps = [x + epsilon for x in p]
    qs = [x + epsilon for x in q]
    zp, zq = math.fsum(ps), math.fsum(qs)
    return math.fsum((a / zp) * math.log((a / zp) / (b / zq)) for a, b in zip(ps, qs))


def oracle_js(p, q):
    m = [(a + b) / 2 for a, b in zip(p, q)]
    left = math.fsum(a * math.log(a / c) for a, c in zip(p, m) if a > 0)
    right = math.fsum(b * math.log(b / c) for b, c in zip(q, m) if b > 0)
    return 0.5 * left + 0.5 * right


def oracle_divergence(name, p, q):
    return oracle_js(p, q) if name == "js" else oracle_kl(p, q)


def oracle_worst(name, k):
    return LN2 if name == "js" else oracle_kl([1.0] + [0.0] * (k - 1), [0.0, 1.0] + [0.0] * (k - 2))


def oracle_evaluate(runset, qrels, table, schemes, config):
    """Per-query scores in the order the per-document evaluation met them:
    every target first, then system by system, query by query."""
    work = [(f"awrf:{n}", table, table.scheme(n)) for n in schemes]
    if len(schemes) >= 2 and config.include_overall:
        source = table
        if config.fallback is MissingPolicy.REJECT:
            # a document that a scheme lacks is missing from the intersection
            shared = set.intersection(*(set(table.docs(n)) for n in schemes))
            source = GroupMembershipTable(
                [table.scheme(n) for n in schemes],
                {n: {d: v for d, v in table.docs(n).items() if d in shared} for n in schemes},
            )
        overall = intersect_tables(source, list(schemes), fallback=config.fallback)
        work.append(("awrf:overall", overall, overall.scheme("overall")))
    if config.target.startswith("qrels"):
        queries = [q for q in qrels.queries if qrels.relevant(q)]
    else:
        queries = sorted({r.query_id for r in runset.rankings()})
    targets = {}
    for metric, tbl, scheme in work:
        for q in queries:
            if config.target == "uniform":
                targets[metric, q] = [1.0 / scheme.k] * scheme.k
            elif config.target == "file":
                per_scheme = config.explicit_targets[scheme.name]
                targets[metric, q] = list(per_scheme.get(q, per_scheme["*"]).masses)
            else:
                pairs = sorted(qrels.relevant(q).items())
                graded = config.target == "qrels-graded"
                targets[metric, q] = oracle_qrels_target(pairs, tbl, scheme, graded, config.fallback)
    scores = {}
    for system in runset.systems:
        for q in queries:
            ranking = runset.get(system, q)
            for metric, tbl, scheme in work:
                if ranking is None or len(ranking) == 0:
                    value = oracle_worst(config.divergence, scheme.k)
                else:
                    raw = oracle_exposure(ranking, tbl, scheme, config.attention, config.fallback)
                    value = oracle_divergence(
                        config.divergence, oracle_normalize(raw), targets[metric, q]
                    )
                if config.complement:
                    value = 1.0 - value / LN2
                scores[system, q, metric] = value
    return queries, scores


# --- strategies -----------------------------------------------------------------------


POLICIES = [MissingPolicy.UNIFORM, MissingPolicy.ALL_UNKNOWN, MissingPolicy.REJECT]

#: Raw membership weights on a 1/1000 grid: exact zeros are common, while
#: subnormal weights, whose halves underflow, are not drawn.
WEIGHTS = st.integers(0, 1000).map(lambda i: i / 1000)


@st.composite
def attention_models(draw):
    kind = draw(st.sampled_from(["geometric", "log", "uniform"]))
    cutoff = draw(st.none() | st.integers(1, 6))
    if kind == "uniform" and cutoff is None:
        cutoff = draw(st.integers(1, 6))
    patience = draw(st.floats(0.05, 0.95))
    return AttentionModel(kind, patience=patience, cutoff=cutoff)


@st.composite
def tables(draw, schemes, docs):
    """Soft or one-hot vectors for a random subset of ``docs`` per scheme."""
    vectors = {}
    for scheme in schemes:
        per_scheme = {}
        for doc in docs:
            if not draw(st.booleans()) and draw(st.booleans()):
                continue  # a quarter of the documents have no vector
            if draw(st.booleans()):
                per_scheme[doc] = one_hot(scheme, draw(st.integers(0, scheme.k - 1)))
            else:
                raw = draw(st.lists(WEIGHTS, min_size=scheme.k, max_size=scheme.k))
                raw[draw(st.integers(0, scheme.k - 1))] += 0.25
                per_scheme[doc] = normalize(raw, scheme)
        vectors[scheme.name] = per_scheme
    return GroupMembershipTable(schemes, vectors)


def scheme_of(name, k):
    return GroupScheme(name, tuple(f"{name}{i}" for i in range(k)), unknown_index=k - 1)


@st.composite
def rankings(draw, docs, query_id="q0", system="s0"):
    ranked = draw(st.lists(st.sampled_from(docs), unique=True, max_size=len(docs)))
    return Ranking(query_id, tuple((d, float(len(ranked) - i)) for i, d in enumerate(ranked)), system)


@st.composite
def experiments(draw):
    docs = [f"d{i}" for i in range(draw(st.integers(1, 7)))]
    schemes = [scheme_of("a", draw(st.integers(2, 4)))]
    if draw(st.booleans()):
        schemes.append(scheme_of("b", draw(st.integers(2, 3))))
    table = draw(tables(schemes, docs))
    queries = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    runs = []
    for s in range(draw(st.integers(1, 3))):
        for q in queries:
            if draw(st.integers(0, 4)):  # one ranking in five is absent
                runs.append(draw(rankings(docs, q, f"s{s}")))
    judgments = {
        q: {d: draw(st.integers(0, 3)) for d in draw(st.lists(st.sampled_from(docs), unique=True))}
        for q in queries
    }
    target = draw(st.sampled_from(["qrels-binary", "qrels-graded", "uniform", "file"]))
    explicit = None
    if target == "file":
        explicit = {}
        for scheme in schemes:
            raw = draw(st.lists(WEIGHTS, min_size=scheme.k, max_size=scheme.k))
            default = ExposureVector(scheme, normalize([w + 0.01 for w in raw], scheme).weights, normalized=True)
            explicit[scheme.name] = {"*": default, queries[0]: target_vector(scheme, 0)}
        if len(schemes) >= 2:  # the intersection scheme needs a target too
            overall = product_scheme(*schemes, name="overall")
            explicit["overall"] = {"*": target_vector(overall, 0)}
    divergence = draw(st.sampled_from(["js", "kl"]))
    config = MetricConfig(
        attention=draw(attention_models()),
        divergence=divergence,
        target=target,
        explicit_targets=explicit,
        fallback=draw(st.sampled_from(POLICIES)),
        include_overall=draw(st.booleans()),
        complement=divergence == "js" and draw(st.booleans()),
    )
    return RunSet(runs), Qrels(judgments), table, [s.name for s in schemes], config


def target_vector(scheme, group):
    return ExposureVector(scheme, one_hot(scheme, group).weights, normalized=True)


def outcome(fn, *args):
    """The function's result, or the message of the MissingDocument it raised."""
    try:
        return fn(*args)
    except MissingDocument as exc:
        return f"MissingDocument: {exc}"


# --- properties -----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(experiments())
def test_evaluate_runset_matches_oracle(experiment):
    runset, qrels, table, schemes, config = experiment
    want = outcome(oracle_evaluate, runset, qrels, table, schemes, config)
    got = outcome(evaluate_runset, runset, qrels, table, schemes, config)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    queries, scores = want
    assert sorted(got) == list(runset.systems)
    for system, report in got.items():
        assert report.queries == tuple(queries)
        for (s, q, metric), value in scores.items():
            if s == system:
                assert abs(report.per_query[q][metric] - value) <= TOL
        absent = tuple(
            q for q in queries if runset.get(system, q) is None or len(runset.get(system, q)) == 0
        )
        assert report.missing_queries == absent


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_ranking_exposure_and_awrf_match_oracle(data):
    docs = [f"d{i}" for i in range(data.draw(st.integers(1, 7)))]
    scheme = scheme_of("a", data.draw(st.integers(2, 4)))
    table = data.draw(tables([scheme], docs))
    ranking = data.draw(rankings(docs))
    model = data.draw(attention_models())
    policy = data.draw(st.sampled_from(POLICIES))
    divergence = data.draw(st.sampled_from(["js", "kl"]))
    target = target_vector(scheme, data.draw(st.integers(0, scheme.k - 1)))
    if len(ranking) == 0:
        with pytest.raises(ValueError):
            cumulative_exposure(ranking, table, scheme, model, policy)
        return
    want = outcome(oracle_exposure, ranking, table, scheme, model, policy)
    got = outcome(cumulative_exposure, ranking, table, scheme, model, policy)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert max(abs(a - b) for a, b in zip(got.masses, want)) <= TOL
    expected = oracle_divergence(divergence, oracle_normalize(want), target.masses)
    value = awrf(ranking, table, scheme, target, model, divergence, fallback=policy)
    assert abs(value - expected) <= TOL


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sequence_exposure_and_qrels_target_match_oracle(data):
    docs = [f"d{i}" for i in range(data.draw(st.integers(1, 7)))]
    scheme = scheme_of("a", data.draw(st.integers(2, 4)))
    table = data.draw(tables([scheme], docs))
    policy = data.draw(st.sampled_from(POLICIES))
    model = data.draw(attention_models())
    sequence = RankingSequence(
        "q0", tuple(data.draw(st.lists(rankings(docs).filter(len), min_size=1, max_size=4)))
    )
    want = outcome(oracle_sequence_exposure, sequence, table, scheme, model, policy)
    got = outcome(expected_group_exposure, sequence, table, scheme, model, policy)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert max(abs(a - b) for a, b in zip(got.masses, want)) <= TOL

    grades = {d: data.draw(st.integers(1, 3)) for d in data.draw(
        st.lists(st.sampled_from(docs), unique=True, min_size=1))}
    qrels = Qrels({"q0": grades})
    for mode in ("binary", "graded"):
        pairs = sorted(grades.items())
        want = outcome(oracle_qrels_target, pairs, table, scheme, mode == "graded", policy)
        got = outcome(target_from_qrels, qrels, "q0", table, scheme, mode, policy)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            assert max(abs(a - b) for a, b in zip(got.masses, want)) <= TOL


def test_reject_names_the_doc_a_query_by_query_pass_meets_first():
    # 'a' lacks a ranked doc and 'b' a relevant one: every target is resolved
    # before any ranking, so the error names b's relevant doc.
    a, b = scheme_of("a", 2), scheme_of("b", 2)
    table = GroupMembershipTable([a, b], {"a": {"d0": one_hot(a, 0)}, "b": {"d1": one_hot(b, 1)}})
    runset = RunSet([Ranking("q0", (("d0", 2.0), ("d1", 1.0)), "s0")])
    qrels = Qrels({"q0": {"d0": 1}})
    config = MetricConfig(fallback=MissingPolicy.REJECT, include_overall=False)
    want = outcome(oracle_evaluate, runset, qrels, table, ["a", "b"], config)
    assert want == "MissingDocument: doc 'd0' has no membership for scheme 'b'"
    assert outcome(evaluate_runset, runset, qrels, table, ["a", "b"], config) == want


def reject_with_intersection(ranked, include_overall, fallback=MissingPolicy.REJECT):
    """Scores of two schemes where 'b' lacks d0 and d1, which nothing reads
    unless ``ranked`` does, or the MissingDocument message."""
    a, b = scheme_of("a", 2), scheme_of("b", 2)
    table = GroupMembershipTable(
        [a, b],
        {"a": {d: one_hot(a, i % 2) for i, d in enumerate(["d0", "d1", "d2", "d3"])},
         "b": {"d2": one_hot(b, 0), "d3": one_hot(b, 1)}},
    )
    runset = RunSet([Ranking("q0", tuple((d, 9.0 - i) for i, d in enumerate(ranked)), "s0"),
                     Ranking("q0", (("d3", 2.0), ("d2", 1.0)), "s1")])
    qrels = Qrels({"q0": {"d2": 1, "d3": 1}})
    config = MetricConfig(fallback=fallback, include_overall=include_overall)
    return outcome(metrics.score_runset, runset, qrels, table, ["a", "b"], config)


def test_reject_ignores_a_document_that_nothing_reads():
    got = reject_with_intersection(["d2", "d3"], include_overall=True)
    want = reject_with_intersection(["d2", "d3"], True, fallback=MissingPolicy.UNIFORM)
    assert got.metrics == want.metrics == ("awrf:a", "awrf:b", "awrf:overall")
    assert got.values.tobytes() == want.values.tobytes()


def test_reject_with_the_intersection_names_what_it_names_without():
    want = "MissingDocument: doc 'd1' has no membership for scheme 'b'"
    for ranked in (["d2", "d1", "d3"], ["d1"]):
        assert reject_with_intersection(ranked, include_overall=False) == want
        assert reject_with_intersection(ranked, include_overall=True) == want


def test_parsed_run_set_scores_as_the_built_one():
    # the same rankings, built as Ranking objects and parsed from text (a
    # different doc vocabulary order), under a cutoff with missing docs
    from rankfair.ingest import parse_run, write_run

    g = scheme_of("g", 3)
    def entries(s, q, n):
        return tuple((f"d{(i * 7 + s + int(q[1])) % 13}", float(-i)) for i in range(n))

    rankings = [
        Ranking(q, entries(s, q, n), f"s{s}")
        for s in range(3)
        for q, n in (("q0", 9), ("q1", 4), ("q2", 12))
        if (s, q) != (1, "q1")
    ]
    built = RunSet(rankings)
    parsed = parse_run("".join(reversed(write_run(built).splitlines(keepends=True))))
    assert parsed == built and parsed.vocabulary != built.vocabulary
    table = GroupMembershipTable([g], {"g": {f"d{i}": one_hot(g, i % 3) for i in range(0, 13, 2)}})
    qrels = Qrels({"q0": {"d0": 1, "d3": 2}, "q1": {"d2": 1}, "q2": {"d4": 1}})
    config = MetricConfig(attention=AttentionModel.geometric(0.3, cutoff=5))
    queries, want = oracle_evaluate(built, qrels, table, ["g"], config)
    assert queries == ["q0", "q1", "q2"]
    for runset in (built, parsed):
        got = evaluate_runset(runset, qrels, table, ["g"], config)
        assert got["s1"].missing_queries == ("q1",)
        for (system, q, metric), value in want.items():
            assert abs(got[system].per_query[q][metric] - value) <= TOL


# --- bitwise reference ----------------------------------------------------------------


def fancy_weighted_rows(runs, members, weights):
    """``weighted_rows`` with its gather written as fancy indexing."""
    w = np.broadcast_to(weights, runs.rows.shape[1:])[:, None, :]
    out = np.empty(runs.rows.shape[:2] + (members.shape[1],))
    for a, rows in enumerate(runs.rows):
        out[a] = np.matmul(w, members[rows])[:, 0, :]
    return out


def mask_compile(vocabulary, codes, starts, lengths, index, depth):
    """``compile_codes``'s rows and lengths by the boolean-mask formula."""
    n = len(index)
    rows_of = np.array([index.get(d, n) for d in vocabulary], dtype=np.intp)
    if depth is not None:
        lengths = np.minimum(lengths, depth)
    offsets = np.arange(max(1, int(lengths.max(initial=0))))
    filled = offsets < lengths[..., None]
    rows = np.full(filled.shape, n + 1, dtype=np.intp)
    rows[filled] = rows_of[codes[(starts[..., None] + offsets)[filled]]]
    return rows, lengths


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def code_grids(draw, docs):
    """A grid of doc lists, ``None`` for an absent one, and the same grid as
    codes into a shuffled vocabulary, with unused codes between the lists."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    grid = [
        [
            draw(st.none() | st.just([]) | st.lists(st.sampled_from(docs), min_size=1, max_size=40))
            for _ in range(shape[1])
        ]
        for _ in range(shape[0])
    ]
    vocabulary = draw(st.permutations(docs))
    code_of = {d: i for i, d in enumerate(vocabulary)}
    codes, starts, lengths = [], np.zeros(shape, np.intp), np.zeros(shape, np.intp)
    for a, row in enumerate(grid):
        for b, docs_ab in enumerate(row):
            codes.extend(draw(st.lists(st.integers(0, len(docs) - 1), max_size=2)))
            if docs_ab is not None:
                starts[a, b], lengths[a, b] = len(codes), len(docs_ab)
                codes.extend(code_of[d] for d in docs_ab)
    return grid, vocabulary, np.array(codes, dtype=np.intp), starts, lengths


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_gathers_match_fancy_indexing_bit_for_bit(data):
    docs = [f"d{i}" for i in range(data.draw(st.integers(1, 50)))]
    scheme = scheme_of("a", data.draw(st.integers(2, 5)))
    table = data.draw(tables([scheme], docs))  # one-hot and soft rows, a quarter missing
    index, matrix = table.matrix(scheme.name)
    grid, vocabulary, codes, starts, lengths = data.draw(code_grids(docs))
    depth = data.draw(st.none() | st.integers(1, 45))

    runs = compile_codes(vocabulary, codes, starts, lengths, index, depth)
    rows, clipped = mask_compile(vocabulary, codes, starts, lengths, index, depth)
    assert runs.rows.dtype == np.intp and np.array_equal(runs.rows, rows)
    assert np.array_equal(runs.lengths, clipped)
    entries = [[None if d is None else [(doc, 0.0) for doc in d] for d in row] for row in grid]
    built = compile_entries(entries, index, depth)
    assert np.array_equal(built.rows, runs.rows) and np.array_equal(built.lengths, runs.lengths)
    assert built.missing == runs.missing

    policy = data.draw(st.sampled_from(POLICIES))
    if policy is MissingPolicy.REJECT and runs.missing is not None:
        with pytest.raises(MissingDocument):
            member_rows(matrix, scheme, policy, runs)
        return
    members = member_rows(matrix, scheme, policy, runs)
    width = runs.rows.shape[-1]
    if data.draw(st.booleans()):  # attention: one weight per position
        weights = attention_weights(data.draw(attention_models()), width)
        weights = np.pad(weights, (0, width - len(weights)))
    else:  # qrels coefficients: one row of weights per list column
        seed = data.draw(st.integers(0, 2**32 - 1))
        weights = np.random.default_rng(seed).uniform(0.0, 3.0, runs.rows.shape[1:])
    got = weighted_rows(runs, members, weights)
    assert same_bits(got, fancy_weighted_rows(runs, members, weights))


def former_raw_exposures(rankings, table, scheme, model, policy):
    """Raw exposure of each ranking as ``raw_exposure_array`` (one ranking)
    and ``expected_group_exposure`` (a sequence) computed it: a grid of the
    rankings compiled and contracted with the attention weights."""
    runs, members = compile_table([[r.entries] for r in rankings], table, scheme, policy, model.cutoff)
    return weighted_rows(runs, members, attention_weights(model, runs.rows.shape[-1]))[:, 0]


def former_awrf(ranking, table, scheme, target, model, divergence, policy):
    """``awrf`` as the run-set kernel on a one-ranking grid."""
    runs, members = compile_table([[ranking.entries]], table, scheme, policy, model.cutoff)
    scores = metrics.awrf_scores(runs, members, target.as_array(), scheme, model, divergence)
    return np.array([scores[0, 0]])


def former_band_weights(relevant, model):
    """Per-document target attention by the loop over grade bands that
    ``target_group_exposure`` had: each band's mean weight, summed exactly."""
    n = len(relevant)
    weights = attention_weights(model, n)
    padded = np.zeros(n, dtype=np.float64)
    padded[: len(weights)] = weights
    per_doc = np.empty(n, dtype=np.float64)
    start = 0
    while start < n:
        end = start
        while end + 1 < n and relevant[end + 1][1] == relevant[start][1]:
            end += 1
        band = padded[start : end + 1]
        per_doc[start : end + 1] = math.fsum(band) / len(band)
        start = end + 1
    return per_doc


def former_target(qrels, table, scheme, model, policy):
    relevant = sorted(qrels.relevant("q0").items(), key=lambda t: (-t[1], t[0]))
    if not relevant:
        return np.zeros(scheme.k)
    runs, members = compile_table([[relevant]], table, scheme, policy)
    return weighted_rows(runs, members, former_band_weights(relevant, model))[0, 0]


def masses_of(fn, *args):
    """The masses of the exposure vector ``fn`` returns, as an array."""
    return np.array(fn(*args).masses)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_ranking_functions_match_their_former_formulations_bit_for_bit(data):
    docs = [f"d{i}" for i in range(data.draw(st.integers(1, 30)))]
    scheme = scheme_of("a", data.draw(st.integers(2, 5)))
    table = data.draw(tables([scheme], docs))  # one-hot and soft rows, a quarter missing
    model = data.draw(attention_models())
    policy = data.draw(st.sampled_from(POLICIES))
    sequence = data.draw(st.lists(rankings(docs).filter(len), min_size=1, max_size=4))
    ranking = sequence[0]

    def check(got, want):
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
        else:
            assert same_bits(got, want)

    check(outcome(masses_of, cumulative_exposure, ranking, table, scheme, model, policy),
          outcome(lambda: former_raw_exposures([ranking], table, scheme, model, policy)[0]))
    got = outcome(masses_of, expected_group_exposure, RankingSequence("q0", tuple(sequence)),
                  table, scheme, model, policy)
    raws = outcome(former_raw_exposures, sequence, table, scheme, model, policy)
    check(got, raws if isinstance(raws, str) else
          np.array([math.fsum(col) / len(sequence) for col in raws.T.tolist()]))

    raw = data.draw(st.lists(WEIGHTS, min_size=scheme.k, max_size=scheme.k))
    target = ExposureVector(scheme, normalize([w + 0.01 for w in raw], scheme).weights, normalized=True)
    divergence = data.draw(st.sampled_from(["js", "kl"]))
    check(outcome(lambda: np.array([awrf(ranking, table, scheme, target, model, divergence,
                                         fallback=policy)])),
          outcome(former_awrf, ranking, table, scheme, target, model, divergence, policy))

    grades = {d: data.draw(st.integers(0, 3)) for d in data.draw(
        st.lists(st.sampled_from(docs), unique=True, min_size=1))}
    qrels = Qrels({"q0": grades})
    check(outcome(masses_of, target_group_exposure, qrels, "q0", table, scheme, model, policy),
          outcome(former_target, qrels, table, scheme, model, policy))


def former_kl(p, q, epsilon):
    """``_kl`` as it was: the smoothed sum by its own formula for a positive
    ``epsilon``, and through ``_kl_terms`` only for zero."""
    ps = p + epsilon
    qs = q + epsilon
    ps = ps / ps.sum(axis=-1, keepdims=True)
    qs = qs / qs.sum(axis=-1, keepdims=True)
    if epsilon == 0.0:
        return metrics._kl_terms(ps, qs)
    return np.sum(ps * np.log(ps / qs), axis=-1)


def former_worst_case(name, k, epsilon):
    """``worst_case_divergence`` as it was: ln 2 for JS, and for KL the
    divergence of two one-hot vectors built by hand."""
    if name == "js":
        return LN2
    a = np.zeros(k)
    b = np.zeros(k)
    a[0] = 1.0
    b[1] = 1.0
    return metrics.kl_divergence(a, b, epsilon)


@st.composite
def distribution_rows(draw, n, k):
    """``n`` distributions over ``k`` entries, exact zeros common."""
    rows = []
    for _ in range(n):
        raw = draw(st.lists(WEIGHTS | st.floats(0.0, 1.0), min_size=k, max_size=k))
        raw[draw(st.integers(0, k - 1))] += 0.5  # not all zero
        rows.append(raw)
    rows = np.array(rows)
    return rows / rows.sum(axis=-1, keepdims=True)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kl_matches_its_former_formula_bit_for_bit(data):
    k, n = data.draw(st.integers(2, 16)), data.draw(st.integers(1, 4))
    p, q = data.draw(distribution_rows(n, k)), data.draw(distribution_rows(n, k))
    epsilon = data.draw(st.sampled_from([1e-10, 0.5, 5e-324]))
    with np.errstate(over="ignore"):  # a ratio to 5e-324 can overflow to inf
        assert same_bits(metrics._kl(p, q, epsilon), former_kl(p, q, epsilon))
        got = metrics.kl_divergence(p[0], q[0], epsilon)
        assert same_bits(np.array([got]), np.array([former_kl(p[0], q[0], epsilon)]))


@pytest.mark.parametrize("name", ["js", "kl"])
@pytest.mark.parametrize("epsilon", [1e-10, 0.5, 5e-324, 0.0])
def test_worst_case_matches_its_former_formula_bit_for_bit(name, epsilon):
    for k in range(2, 17):
        with np.errstate(over="ignore"):  # a ratio to 5e-324 can overflow to inf
            got = metrics.worst_case_divergence(name, k, epsilon)
            want = former_worst_case(name, k, epsilon)
        assert same_bits(np.array([got]), np.array([want]))


def test_compile_peak_memory_stays_near_its_rows():
    """A full 20 x 20 x 500 grid over a shared 1,000-doc vocabulary: the
    compile's traced peak is at most 1.5 times its ``rows``. Gathering the
    whole grid at once peaks at about 3 times."""
    rng = np.random.default_rng(7)
    vocabulary = [f"d{i}" for i in range(1000)]
    index = {d: i for i, d in enumerate(vocabulary[:900])}
    codes = np.concatenate([rng.permutation(1000)[:500] for _ in range(400)])
    starts = np.arange(0, 400 * 500, 500, dtype=np.intp).reshape(20, 20)
    lengths = np.full((20, 20), 500, dtype=np.intp)
    tracemalloc.start()
    try:
        runs = compile_codes(vocabulary, codes, starts, lengths, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, _ = mask_compile(vocabulary, codes, starts, lengths, index, None)
    assert np.array_equal(runs.rows, rows) and runs.missing is not None
    assert peak <= 1.5 * runs.rows.nbytes, peak / runs.rows.nbytes


def test_sweep_matches_the_fancy_indexing_kernel(monkeypatch):
    bed = simulate.generate_testbed(
        simulate.TestbedConfig(n_queries=5, docs_per_query=100, n_groups=3, n_systems=30, seed=3)
    )
    for config in (MetricConfig(), MetricConfig(target="qrels-graded", divergence="kl")):
        got = simulate.sweep_to_json(
            simulate.accuracy_sweep(bed, [0.4, 0.7, 1.0], trials=2, metric_config=config)
        )
        with monkeypatch.context() as patch:
            patch.setattr(exposure, "weighted_rows", fancy_weighted_rows)
            patch.setattr(metrics, "weighted_rows", fancy_weighted_rows)
            want = simulate.sweep_to_json(
                simulate.accuracy_sweep(bed, [0.4, 0.7, 1.0], trials=2, metric_config=config)
            )
        assert got == want
