"""Acceptance suite.

Each test checks one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import quad

from rankfair.cli import main as cli_main
from rankfair.core import (
    GroupMembershipTable,
    GroupScheme,
    Qrels,
    Ranking,
    RunSet,
    normalize,
    one_hot,
)
from rankfair.exposure import (
    AttentionModel,
    ExposureVector,
    attention_weights,
    cumulative_exposure,
    target_group_exposure,
)
from rankfair.ingest import (
    parse_annotations,
    parse_qrels,
    parse_run,
    write_annotations,
    write_qrels,
    write_run,
)
from rankfair.metrics import (
    LN2,
    MetricConfig,
    ee_metrics,
    js_divergence,
    kl_divergence,
    score_runset,
)
from rankfair import simulate
from rankfair.simulate import (
    accuracy_sweep,
    annotation_cost,
    default_cost_rates,
    generate_testbed,
)
from rankfair.stats import agreement, pearson, spearman
from rankfair.errors import (
    DuplicateDocument,
    DuplicateJudgment,
    MalformedLine,
    NegativeGrade,
    NonNumericRank,
    NonNumericScore,
    UnknownLabel,
    UnknownScheme,
    ZeroMass,
)


def run_criterion(number, description, body, budget=None):
    t0 = time.perf_counter()
    error = None
    try:
        body()
    except Exception as exc:  # noqa: BLE001 - report, then re-raise
        error = exc
    elapsed = time.perf_counter() - t0
    if error is None and budget is not None and elapsed > budget:
        error = AssertionError(f"runtime {elapsed:.1f}s exceeds {budget}s budget")
    status = "PASS" if error is None else "FAIL"
    print(f"[acceptance {number:02d}] {status} ({elapsed:.1f}s) {description}")
    if error is not None:
        raise error


# --- shared oracles (independent of the implementation paths) ---------------------


def kl_oracle(p, q, epsilon=1e-10):
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


def pearson_r_oracle(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def ranks_oracle(v):
    return [
        sum(1 for b in v if b < a) + (sum(1 for b in v if b == a) + 1) / 2 for a in v
    ]


def t_p_oracle(r, n):
    if abs(r) >= 1.0:
        return 0.0
    df = n - 2
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    log_const = (
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )

    def density(x):
        return math.exp(log_const - (df + 1) / 2 * math.log1p(x * x / df))

    tail, _ = quad(density, t, np.inf, limit=200)
    return min(1.0, 2.0 * tail)


def random_distribution(rng, k):
    raw = rng.uniform(0, 1, size=k)
    if rng.uniform() < 0.3:
        raw[rng.integers(0, k)] = 0.0
    if raw.sum() == 0:
        raw[0] = 1.0
    return raw / raw.sum()


def test_criterion_01_divergence_suite():
    def body():
        rng = np.random.default_rng(101)
        for k in (2, 4, 8):
            p = tuple(random_distribution(rng, k))
            assert kl_divergence(p, p) == 0.0
            assert js_divergence(p, p) == 0.0
        for _ in range(10_000):
            k = int(rng.integers(2, 9))
            p = random_distribution(rng, k)
            q = random_distribution(rng, k)
            js = js_divergence(p, q)
            assert js == js_divergence(q, p)
            assert js <= LN2 + 1e-12
            assert abs(js - js_oracle(p, q)) < 1e-12
            assert abs(kl_divergence(p, q) - kl_oracle(p, q)) < 1e-12

    run_criterion(
        1, "divergence identities, symmetry, bound, and oracle agreement", body, budget=5.0
    )


def test_criterion_02_exposure_oracles():
    def body():
        scheme = GroupScheme("g", ("a", "b", "c"))
        rng = np.random.default_rng(202)
        models = [
            AttentionModel.geometric(0.5),
            AttentionModel.geometric(0.8, cutoff=3),
            AttentionModel.log_discount(),
            AttentionModel.uniform(2),
        ]
        for case in range(400):
            n = int(rng.integers(1, 6))
            model = models[case % len(models)]
            vectors = {
                f"d{j}": normalize(rng.uniform(0.01, 1.0, size=3), scheme)
                for j in range(n)
            }
            table = GroupMembershipTable([scheme], {"g": vectors})
            ranking = Ranking(
                "q", tuple((f"d{j}", float(n - j)) for j in range(n)), "s"
            )
            # cumulative exposure vs term-by-term summation
            weights = attention_weights(model, n)
            direct = [
                math.fsum(
                    weights[pos] * vectors[f"d{pos}"].weights[g]
                    for pos in range(len(weights))
                )
                for g in range(3)
            ]
            got = cumulative_exposure(ranking, table, scheme, model)
            assert max(abs(a - b) for a, b in zip(got.masses, direct)) < 1e-9

            # target exposure vs brute-force permutation averaging
            grades = {f"d{j}": int(rng.integers(0, 3)) for j in range(n)}
            qrels = Qrels({"q": grades})
            relevant = sorted(d for d, g in grades.items() if g > 0)
            if not relevant:
                continue
            m = len(relevant)
            w = attention_weights(model, m)
            padded = list(w) + [0.0] * (m - len(w))
            per_doc = {d: [] for d in relevant}
            count = 0
            for perm in itertools.permutations(relevant):
                if any(
                    grades[perm[i]] < grades[perm[i + 1]] for i in range(m - 1)
                ):
                    continue
                count += 1
                for pos, doc in enumerate(perm):
                    per_doc[doc].append(padded[pos])
            expected = [
                math.fsum(
                    (math.fsum(per_doc[d]) / count) * vectors[d].weights[g]
                    for d in relevant
                )
                for g in range(3)
            ]
            target = target_group_exposure(qrels, "q", table, scheme, model)
            assert max(abs(a - b) for a, b in zip(target.masses, expected)) < 1e-9

    run_criterion(
        2, "exposure and target-exposure match enumeration oracles", body, budget=30.0
    )


def test_criterion_03_awrf_zero_case():
    def body():
        from rankfair.metrics import awrf

        scheme = GroupScheme("g", ("a", "b"))
        table = GroupMembershipTable(
            [scheme], {"g": {"d1": one_hot(scheme, 0), "d2": one_hot(scheme, 1)}}
        )
        ranking = Ranking("q", (("d1", 2.0), ("d2", 1.0)), "s")
        model = AttentionModel.uniform(2)
        target = ExposureVector(scheme, (0.5, 0.5), normalized=True)
        assert abs(awrf(ranking, table, scheme, target, model, "js")) <= 1e-12
        assert abs(awrf(ranking, table, scheme, target, model, "kl")) <= 1e-12
        # soft membership variant: exposure again equals the target
        soft = GroupMembershipTable(
            [scheme],
            {"g": {"d1": normalize((0.3, 0.7), scheme), "d2": normalize((0.7, 0.3), scheme)}},
        )
        assert abs(awrf(ranking, soft, scheme, target, model, "js")) <= 1e-12
        assert abs(awrf(ranking, soft, scheme, target, model, "kl")) <= 1e-12

    run_criterion(3, "rankings matching the target score exactly zero", body)


def test_criterion_04_ee_identity():
    def body():
        rng = np.random.default_rng(404)
        for _ in range(10_000):
            k = int(rng.integers(2, 9))
            scheme = GroupScheme("s", tuple(f"g{i}" for i in range(k)))
            g = ExposureVector(scheme, tuple(rng.uniform(0, 3, size=k)))
            t = ExposureVector(scheme, tuple(rng.uniform(0, 3, size=k)))
            m = ee_metrics(g, t)
            t_sq = math.fsum(x * x for x in t.masses)
            assert abs(m.ee_l - (m.ee_d + t_sq - m.ee_r)) < 1e-12
        g = ExposureVector(GroupScheme("s", ("a", "b")), (0.8, 0.4))
        assert ee_metrics(g, g).ee_l == 0.0

    run_criterion(4, "EE-L = EE-D + ||target||^2 - EE-R and zero-loss fixpoint", body)


def test_criterion_05_correlation_oracles():
    def body():
        rng = np.random.default_rng(505)
        for case in range(1000):
            n = int(rng.integers(5, 101))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + rng.uniform(-1, 1) * x
            if case % 3 == 0:
                x = np.round(x)  # inject ties
                if np.all(x == x[0]):
                    continue
            pr = pearson(x, y)
            assert abs(pr.coefficient - pearson_r_oracle(x, y)) < 1e-12
            sr = spearman(x, y)
            want_rho = pearson_r_oracle(ranks_oracle(x), ranks_oracle(y))
            assert abs(sr.coefficient - want_rho) < 1e-12
            if case % 10 == 0:  # quadrature reference is slow; sample it
                assert abs(pr.p_value - t_p_oracle(pr.coefficient, n)) < 1e-9
                assert abs(sr.p_value - t_p_oracle(sr.coefficient, n)) < 1e-9

    run_criterion(
        5, "Pearson/Spearman match brute-force and quadrature references", body
    )


def test_criterion_06_perfect_annotator_fixpoint():
    def body():
        bed = generate_testbed(
            simulate.TestbedConfig(n_queries=6, docs_per_query=80, n_groups=4, n_systems=8, seed=6)
        )
        config = MetricConfig()
        scores_a = score_runset(bed.runset, bed.qrels, bed.table, ["group"], config)
        copy = GroupMembershipTable(
            [bed.table.scheme("group")],
            {"group": dict(bed.table.docs("group"))},
            provenance="model",
        )
        scores_b = score_runset(bed.runset, bed.qrels, copy, ["group"], config)
        report = agreement(scores_a, scores_b)
        assert report.rows, "no correlation rows produced"
        assert not report.skipped
        levels = {row.level for row in report.rows}
        assert "system" in levels and len(levels) == 7  # system + 6 queries
        for row in report.rows:
            assert row.pearson.coefficient == 1.0
            assert row.spearman.coefficient == 1.0
            assert row.significant

    run_criterion(
        6, "identical annotation sources give r = rho = 1 at both levels", body
    )


def test_criterion_07_accuracy_sweep_reproduction():
    def body():
        bed = generate_testbed(simulate.TestbedConfig(seed=0))  # 50 x 1000 x 4 x 30
        levels = [0.25, 0.4, 0.55, 0.7, 0.8, 0.9, 1.0]
        result = accuracy_sweep(bed, levels, trials=5, seed=0)
        means = {s.accuracy: s.pearson_r for s in result.summary}
        ordered = [means[a] for a in levels]
        for lo, hi in zip(ordered, ordered[1:]):
            assert hi >= lo - 0.02, f"mean r dropped: {lo:.4f} -> {hi:.4f}"
        for accuracy in (0.8, 0.9, 1.0):
            assert means[accuracy] >= 0.9, f"mean r at {accuracy} is {means[accuracy]:.4f}"
        perfect = [t for t in result.trials if t.accuracy == 1.0]
        assert perfect
        for trial in perfect:
            assert trial.pearson.coefficient == 1.0
            assert trial.spearman.coefficient == 1.0
        for trial in result.trials:
            assert trial.query_count + trial.query_skipped == 50

    run_criterion(
        7, "accuracy sweep: monotone trend, r>=0.9 above 0.8, exact 1 at 1.0",
        body, budget=60.0,
    )


def _random_runset(rng):
    rankings = []
    for s in range(int(rng.integers(1, 4))):
        for q in range(int(rng.integers(1, 4))):
            n = int(rng.integers(1, 7))
            perm = rng.permutation(n)
            entries = tuple(
                (f"d{int(j)}", float(np.round(rng.normal() * 7, 3))) for j in perm
            )
            rankings.append(Ranking(f"q{q}", entries, f"sys{s}"))
    return RunSet(rankings)


def _random_qrels(rng):
    return Qrels(
        {
            f"q{i}": {
                f"d{j}": int(rng.integers(0, 4)) for j in range(int(rng.integers(1, 6)))
            }
            for i in range(int(rng.integers(1, 5)))
        }
    )


def _random_table(rng, schemes):
    vectors = {}
    for scheme in schemes:
        per = {}
        for j in range(int(rng.integers(0, 7))):
            raw = rng.uniform(0, 1, size=scheme.k)
            raw[int(rng.integers(0, scheme.k))] += 0.4
            per[f"d{j}"] = normalize(raw, scheme)
        vectors[scheme.name] = per
    return GroupMembershipTable(schemes, vectors)


def test_criterion_08_parser_robustness():
    def body():
        rng = np.random.default_rng(808)
        gender = GroupScheme("gender", ("male", "female", "nonbinary", "unknown"), 3)
        geo = GroupScheme("geo", ("eu", "us", "asia"))
        n_files = 0
        for _ in range(334):
            runset = _random_runset(rng)
            assert parse_run(write_run(runset)) == runset
            n_files += 1
        for _ in range(333):
            qrels = _random_qrels(rng)
            assert parse_qrels(write_qrels(qrels)) == qrels
            n_files += 1
        for i in range(333):
            table = _random_table(rng, [gender, geo])
            fmt = "tsv" if i % 2 else "jsonl"
            assert parse_annotations(write_annotations(table, fmt), [gender, geo], fmt) == table
            n_files += 1
        assert n_files == 1000

        malformed = [
            (parse_run, "q1 Q0 d1 1 2.0 s\nq1 Q0 d2 2\n", MalformedLine, 2),
            (parse_run, "q1 Q0 d1 one 2.0 s\n", NonNumericRank, 1),
            (parse_run, "q1 Q0 d1 1 high s\n", NonNumericScore, 1),
            (parse_run, "q1 Q0 d1 1 2.0 s\nq1 Q0 d1 2 1.0 s\n", DuplicateDocument, 2),
            (parse_qrels, "q1 0 d1\n", MalformedLine, 1),
            (parse_qrels, "q1 0 d1 -2\n", NegativeGrade, 1),
            (parse_qrels, "q1 0 d1 1\nq1 0 d1 0\n", DuplicateJudgment, 2),
        ]
        for parser, text, error, line in malformed:
            with pytest.raises(error) as err:
                parser(text)
            assert err.value.line == line
        annotation_cases = [
            ("d1\tgender\n", MalformedLine, 1),
            ("d1\tnope\tmale:1\n", UnknownScheme, 1),
            ("d1\tgender\talien:1\n", UnknownLabel, 1),
            ("d1\tgender\tmale:0\n", ZeroMass, 1),
            ("d1\tgender\tmale:1\nd1\tgender\tmale:1\n", DuplicateDocument, 2),
        ]
        for text, error, line in annotation_cases:
            with pytest.raises(error) as err:
                parse_annotations(text, [gender])
            assert err.value.line == line

    run_criterion(
        8, "round-trip identity on 1000 random files; errors carry line numbers", body
    )


def test_criterion_09_determinism(tmp_path):
    def body():
        runner = CliRunner()
        # shared fixture files
        bed = generate_testbed(
            simulate.TestbedConfig(n_queries=4, docs_per_query=50, n_groups=4, n_systems=6, seed=9)
        )
        (tmp_path / "runs.txt").write_text(write_run(bed.runset))
        (tmp_path / "qrels.txt").write_text(write_qrels(bed.qrels))
        (tmp_path / "ann.tsv").write_text(write_annotations(bed.table))
        corrupted = write_annotations(bed.table).replace("g0:1.0", "g1:1.0", 20)
        (tmp_path / "ann_b.tsv").write_text(corrupted)
        config = {
            "schemes": [{"name": "group", "groups": ["g0", "g1", "g2", "g3"]}],
            "runs": str(tmp_path / "runs.txt"),
            "qrels": str(tmp_path / "qrels.txt"),
            "annotations": str(tmp_path / "ann.tsv"),
            "annotations_b": str(tmp_path / "ann_b.tsv"),
            "seed": 0,
            "out": str(tmp_path / "out"),
            "testbed": {"queries": 4, "docs_per_query": 50, "groups": 4,
                        "systems": 6, "spread": 1.0, "seed": 9},
            "sweep": {"levels": [0.5, 1.0], "trials": 2, "workers": 1},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))

        def outputs():
            out = {}
            for path in sorted((tmp_path / "out").iterdir()):
                out[path.name] = path.read_bytes()
            return out

        for command in ("evaluate", "compare"):
            first = runner.invoke(cli_main, [command, "--config", str(config_path)])
            assert first.exit_code == 0, first.output
            snapshot = outputs()
            second = runner.invoke(cli_main, [command, "--config", str(config_path)])
            assert second.exit_code == 0
            assert outputs() == snapshot, f"{command} reruns differ"

        # sweep: rerun identity plus serial vs parallel identity
        serial = runner.invoke(cli_main, ["sweep", "--config", str(config_path)])
        assert serial.exit_code == 0, serial.output
        snapshot = outputs()
        again = runner.invoke(cli_main, ["sweep", "--config", str(config_path)])
        assert again.exit_code == 0 and outputs() == snapshot
        config["sweep"]["workers"] = 4
        config_path.write_text(json.dumps(config))
        parallel = runner.invoke(cli_main, ["sweep", "--config", str(config_path)])
        assert parallel.exit_code == 0
        assert outputs() == snapshot, "parallel sweep differs from serial"

    run_criterion(
        9, "evaluate/compare/sweep byte-identical across reruns and schedules", body
    )


def test_criterion_10_cost_model():
    def body():
        rates = default_cost_rates()
        cheapest = rates["models"]["gpt-3.5-turbo"]
        total = annotation_cost(
            6e6,
            rates["tokens_per_doc"],
            cheapest["rate_per_million_tokens"],
            cheapest["fixed_cost"],
        )
        assert total > 2000.0
        assert annotation_cost(1000, 512, 0.5) == 0.256
        assert annotation_cost(0, 512, 0.5, fixed_cost=40.0) == 40.0

    run_criterion(10, "corpus-scale pricing exceeds $2000; arithmetic exact", body)
