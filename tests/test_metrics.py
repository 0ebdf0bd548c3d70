import json
import math

import numpy as np
import pytest

from rankfair.core import (
    GroupMembershipTable,
    GroupScheme,
    Qrels,
    Ranking,
    RunSet,
    one_hot,
)
from rankfair.errors import ConfigError, LengthMismatch, NotADistribution
from rankfair.exposure import AttentionModel, ExposureVector, cumulative_exposure
from rankfair.metrics import (
    KL_EPSILON,
    LN2,
    MetricConfig,
    aggregates_to_csv,
    awrf,
    ee_metrics,
    evaluate_runset,
    js_divergence,
    kl_divergence,
    reports_to_csv,
    reports_to_json,
    score_runset,
    worst_case_divergence,
)

G2 = GroupScheme("pair", ("g0", "g1"))
G4 = GroupScheme("quad", ("g0", "g1", "g2", "g3"))


# --- oracles ---------------------------------------------------------------------


def kl_oracle(p, q, epsilon=KL_EPSILON):
    """Direct-definition KL with smoothing and renormalization via fsum."""
    ps = [x + epsilon for x in p]
    qs = [x + epsilon for x in q]
    zp, zq = math.fsum(ps), math.fsum(qs)
    ps = [x / zp for x in ps]
    qs = [x / zq for x in qs]
    return math.fsum(a * math.log(a / b) for a, b in zip(ps, qs) if a > 0)


def js_oracle(p, q):
    m = [(a + b) / 2 for a, b in zip(p, q)]
    left = math.fsum(a * math.log(a / mm) for a, mm in zip(p, m) if a > 0)
    right = math.fsum(b * math.log(b / mm) for b, mm in zip(q, m) if b > 0)
    return 0.5 * left + 0.5 * right


def random_distribution(rng, k, allow_zeros=True):
    raw = rng.uniform(0, 1, size=k)
    if allow_zeros and rng.uniform() < 0.3:
        raw[rng.integers(0, k)] = 0.0
    if raw.sum() == 0:
        raw[0] = 1.0
    return raw / raw.sum()


class TestKL:
    def test_identity_zero(self):
        p = (0.2, 0.3, 0.5)
        assert kl_divergence(p, p) == 0.0

    def test_one_hot_vs_uniform(self):
        value = kl_divergence((1.0, 0.0), (0.5, 0.5))
        assert abs(value - math.log(2)) < 1e-6  # epsilon -> 0 limit

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            p = random_distribution(rng, 8)
            q = random_distribution(rng, 8)
            assert abs(kl_divergence(p, q) - kl_oracle(p, q)) < 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            p = random_distribution(rng, 5)
            q = random_distribution(rng, 5)
            assert kl_divergence(p, q) >= -1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            kl_divergence((1.0, 0.0), (1.0, 0.0, 0.0))

    def test_not_a_distribution(self):
        with pytest.raises(NotADistribution):
            kl_divergence((0.9, 0.3), (0.5, 0.5))
        with pytest.raises(NotADistribution):
            kl_divergence((1.5, -0.5), (0.5, 0.5))


class TestJS:
    def test_identity_zero(self):
        p = (0.25, 0.25, 0.5)
        assert js_divergence(p, p) == 0.0

    def test_disjoint_one_hots(self):
        assert abs(js_divergence((1.0, 0.0), (0.0, 1.0)) - LN2) < 1e-15

    def test_symmetric_bitwise(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            p = random_distribution(rng, 6)
            q = random_distribution(rng, 6)
            assert js_divergence(p, q) == js_divergence(q, p)

    def test_bounded(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            p = random_distribution(rng, 4)
            q = random_distribution(rng, 4)
            v = js_divergence(p, q)
            assert -1e-12 <= v <= LN2 + 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            p = random_distribution(rng, 8)
            q = random_distribution(rng, 8)
            assert abs(js_divergence(p, q) - js_oracle(p, q)) < 1e-12


class TestAwrf:
    def _fixture(self):
        table = GroupMembershipTable(
            [G2],
            {"pair": {"d1": one_hot(G2, 0), "d2": one_hot(G2, 1), "d3": one_hot(G2, 0)}},
        )
        ranking = Ranking("q", (("d1", 3.0), ("d2", 2.0), ("d3", 1.0)), "s")
        return table, ranking

    def test_zero_when_exposure_matches_target(self):
        table, _ = self._fixture()
        ranking = Ranking("q", (("d1", 2.0), ("d2", 1.0)), "s")
        target = ExposureVector(G2, (0.5, 0.5), normalized=True)
        model = AttentionModel.uniform(2)
        assert awrf(ranking, table, G2, target, model, "js") == 0.0
        assert awrf(ranking, table, G2, target, model, "kl") == 0.0

    def test_three_doc_compose_oracle(self):
        table, ranking = self._fixture()
        model = AttentionModel.geometric(0.5)
        target = ExposureVector(G2, (0.5, 0.5), normalized=True)
        got = awrf(ranking, table, G2, target, model, "js")
        exposure = cumulative_exposure(ranking, table, G2, model).normalize()
        want = js_oracle(exposure.masses, target.masses)
        assert abs(got - want) < 1e-12

    def test_all_one_group_vs_uniform(self):
        table = GroupMembershipTable(
            [G2], {"pair": {"d1": one_hot(G2, 0), "d2": one_hot(G2, 0)}}
        )
        ranking = Ranking("q", (("d1", 2.0), ("d2", 1.0)), "s")
        target = ExposureVector(G2, (0.5, 0.5), normalized=True)
        got = awrf(ranking, table, G2, target, divergence="js")
        # closed form: JS((1,0), (1/2,1/2)) with mixture (3/4, 1/4)
        want = 0.5 * math.log(1 / 0.75) + 0.5 * (
            0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        )
        assert abs(got - want) < 1e-12

    def test_scale_invariance(self):
        table, ranking = self._fixture()
        target = ExposureVector(G2, (0.5, 0.5), normalized=True)
        base = awrf(ranking, table, G2, target, AttentionModel.geometric(0.5))
        for scale in (0.1, 3.0, 250.0):
            model = AttentionModel.geometric(0.5)
            raw = cumulative_exposure(ranking, table, G2, model)
            scaled = ExposureVector(G2, tuple(m * scale for m in raw.masses)).normalize()
            value = js_divergence(scaled.masses, target.masses)
            assert abs(value - base) < 1e-12

    def test_unnormalized_target_rejected(self):
        table, ranking = self._fixture()
        target = ExposureVector(G2, (0.7, 0.7))
        with pytest.raises(NotADistribution):
            awrf(ranking, table, G2, target)


class TestEEMetrics:
    def test_identical_exposures(self):
        g = ExposureVector(G2, (0.4, 0.6))
        m = ee_metrics(g, g)
        assert m.ee_l == 0.0

    def test_forced_arithmetic(self):
        g = ExposureVector(G2, (1.0, 0.0))
        t = ExposureVector(G2, (0.5, 0.5))
        m = ee_metrics(g, t)
        assert m.ee_l == 0.5
        assert m.ee_d == 1.0
        assert m.ee_r == 1.0

    def test_identity_holds(self):
        rng = np.random.default_rng(53)
        for _ in range(2000):
            k = int(rng.integers(2, 9))
            g = ExposureVector(GroupScheme("s", tuple(f"g{i}" for i in range(k))),
                               tuple(rng.uniform(0, 3, size=k)))
            t = ExposureVector(g.scheme, tuple(rng.uniform(0, 3, size=k)))
            m = ee_metrics(g, t)
            t_norm_sq = float(np.dot(t.as_array(), t.as_array()))
            assert abs(m.ee_l - (m.ee_d + t_norm_sq - m.ee_r)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ee_metrics(ExposureVector(G2, (1.0, 0.0)), ExposureVector(G4, (1, 0, 0, 0)))


class TestWorstCase:
    def test_js_is_ln2(self):
        assert worst_case_divergence("js", 4) == LN2

    def test_kl_is_disjoint_one_hot_divergence(self):
        k = 4
        want = kl_divergence(
            (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), KL_EPSILON
        )
        assert worst_case_divergence("kl", k) == want
        assert worst_case_divergence("kl", k) > LN2


def small_experiment(n_queries=3, missing=()):
    """Two systems over one 2-group scheme; optionally drop (sys, query) pairs."""
    table_vectors = {}
    judgments = {}
    rankings = []
    for qi in range(n_queries):
        qid = f"q{qi}"
        docs = [f"{qid}_d{j}" for j in range(4)]
        for j, doc in enumerate(docs):
            table_vectors[doc] = one_hot(G2, j % 2)
        judgments[qid] = {doc: (1 if j < 3 else 0) for j, doc in enumerate(docs)}
        for tag, order in (("sysA", docs), ("sysB", list(reversed(docs)))):
            if (tag, qid) in missing:
                continue
            entries = tuple((d, float(len(order) - i)) for i, d in enumerate(order))
            rankings.append(Ranking(qid, entries, tag))
    table = GroupMembershipTable([G2], {"pair": table_vectors})
    return RunSet(rankings), Qrels(judgments), table


class TestEvaluateRunset:
    def test_deterministic_and_table_copy_invariant(self):
        runset, qrels, table = small_experiment()
        config = MetricConfig()
        first = score_runset(runset, qrels, table, ["pair"], config)
        copy = GroupMembershipTable(
            [G2], {"pair": dict(table.docs("pair"))}, provenance="model"
        )
        second = score_runset(runset, qrels, copy, ["pair"], config)
        assert reports_to_json(first) == reports_to_json(second)

    def test_a_repeated_scheme_is_a_config_error(self):
        runset, qrels, table = small_experiment()
        with pytest.raises(ConfigError, match=r"schemes \['pair', 'pair'\] name a scheme more than once"):
            score_runset(runset, qrels, table, ["pair", "pair"])

    def test_single_query_mean(self):
        runset, qrels, table = small_experiment(n_queries=1)
        reports = evaluate_runset(runset, qrels, table, ["pair"])
        report = reports["sysA"]
        assert report.aggregates["awrf:pair"] == report.per_query["q0"]["awrf:pair"]

    def test_fifty_queries_fifty_rows(self):
        runset, qrels, table = small_experiment(n_queries=50)
        reports = evaluate_runset(runset, qrels, table, ["pair"])
        assert len(reports["sysA"].per_query) == 50

    def test_aggregate_is_mean(self):
        runset, qrels, table = small_experiment(n_queries=7)
        reports = evaluate_runset(runset, qrels, table, ["pair"])
        for report in reports.values():
            for metric, value in report.aggregates.items():
                mean = math.fsum(
                    report.per_query[q][metric] for q in report.queries
                ) / len(report.queries)
                assert abs(value - mean) < 1e-12

    def test_query_order_never_changes_aggregates(self):
        runset, qrels, table = small_experiment(n_queries=5)
        from rankfair.ingest import parse_qrels, write_qrels

        text = write_qrels(qrels)
        reversed_qrels = parse_qrels("".join(reversed(text.splitlines(keepends=True))))
        a = score_runset(runset, qrels, table, ["pair"])
        b = score_runset(runset, reversed_qrels, table, ["pair"])
        assert reports_to_json(a) == reports_to_json(b)

    def test_missing_query_scores_worst_case(self):
        runset, qrels, table = small_experiment(missing={("sysB", "q1")})
        reports = evaluate_runset(runset, qrels, table, ["pair"])
        assert reports["sysB"].per_query["q1"]["awrf:pair"] == LN2
        assert reports["sysB"].missing_queries == ("q1",)

    def test_complement_flips_scale(self):
        runset, qrels, table = small_experiment(missing={("sysB", "q1")})
        config = MetricConfig(complement=True)
        reports = evaluate_runset(runset, qrels, table, ["pair"], config)
        assert reports["sysB"].per_query["q1"]["awrf:pair"] == 0.0
        for report in reports.values():
            for row in report.per_query.values():
                assert -1e-12 <= row["awrf:pair"] <= 1.0 + 1e-12

    def test_complement_requires_js(self):
        with pytest.raises(ConfigError):
            MetricConfig(divergence="kl", complement=True)

    def test_unknown_scheme_rejected(self):
        runset, qrels, table = small_experiment()
        from rankfair.errors import UnknownScheme

        with pytest.raises(UnknownScheme):
            evaluate_runset(runset, qrels, table, ["nope"])

    def test_overall_metric_for_two_schemes(self):
        runset, qrels, table = small_experiment()
        two = GroupMembershipTable(
            [G2, G4],
            {
                "pair": dict(table.docs("pair")),
                "quad": {d: one_hot(G4, 1) for d in table.docs("pair")},
            },
        )
        reports = evaluate_runset(runset, qrels, two, ["pair", "quad"])
        metrics = reports["sysA"].metrics
        assert metrics == ("awrf:overall", "awrf:pair", "awrf:quad")

    def test_uniform_target_mode(self):
        runset, qrels, table = small_experiment()
        config = MetricConfig(target="uniform")
        reports = evaluate_runset(runset, None, table, ["pair"], config)
        assert set(reports) == {"sysA", "sysB"}

    def test_explicit_target_mode(self):
        runset, qrels, table = small_experiment()
        targets = {"pair": {"*": ExposureVector(G2, (0.5, 0.5), normalized=True)}}
        config = MetricConfig(target="file", explicit_targets=targets)
        reports = evaluate_runset(runset, None, table, ["pair"], config)
        assert set(reports) == {"sysA", "sysB"}


class TestReportSerialization:
    def test_csv_shapes(self):
        runset, qrels, table = small_experiment(n_queries=2)
        scores = score_runset(runset, qrels, table, ["pair"])
        lines = reports_to_csv(scores).splitlines()
        assert lines[0] == "system,query,metric,value"
        assert len(lines) == 1 + 2 * 2  # two systems x two queries x one metric
        agg = aggregates_to_csv(scores).splitlines()
        assert agg[0] == "system,metric,value"
        assert len(agg) == 3

    def test_json_round_trip_values(self):
        runset, qrels, table = small_experiment(n_queries=2)
        reports = evaluate_runset(runset, qrels, table, ["pair"])
        payload = json.loads(reports_to_json(score_runset(runset, qrels, table, ["pair"])))
        assert payload["systems"]["sysA"]["aggregates"]["awrf:pair"] == pytest.approx(
            reports["sysA"].aggregates["awrf:pair"], abs=0
        )
