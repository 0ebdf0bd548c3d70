import math

from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from rankfair.errors import (
    ConfigError,
    ConstantInput,
    LengthMismatch,
    NonFiniteInput,
    QuerySetMismatch,
    SystemSetMismatch,
    TooFewSamples,
)
from rankfair.metrics import MetricReport, ScoreTable
from rankfair.stats import (
    ALPHA,
    CorrelationReport,
    CorrelationRow,
    agreement,
    average_ranks,
    correlation_report,
    correlation_to_csv,
    correlation_to_json,
    pearson,
    spearman,
)


# --- oracles -----------------------------------------------------------------------


def pearson_r_oracle(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def ranks_oracle(v):
    """Average ranks by counting, not sorting."""
    out = []
    for a in v:
        less = sum(1 for b in v if b < a)
        equal = sum(1 for b in v if b == a)
        out.append(less + (equal + 1) / 2)
    return out


def t_p_value_oracle(r, n):
    """Two-sided p by numeric integration of the t density."""
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


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]).coefficient == 1.0

    def test_negated(self):
        x = [1.0, 2.0, 5.0, 7.0]
        assert pearson(x, [-v for v in x]).coefficient == -1.0

    def test_affine_exact(self):
        x = [1.0, 4.0, 2.0, 8.0, 5.0]
        y = [2 * v + 1 for v in x]
        assert pearson(x, y).coefficient == 1.0
        y = [-3 * v + 2 for v in x]
        assert pearson(x, y).coefficient == -1.0

    def test_identical_inputs_exactly_one(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            x = rng.normal(size=int(rng.integers(3, 40)))
            assert pearson(x, x.copy()).coefficient == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            n = int(rng.integers(3, 60))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + 0.3 * x
            got = pearson(x, y)
            assert abs(got.coefficient - pearson_r_oracle(x, y)) < 1e-12
            assert abs(got.p_value - t_p_value_oracle(got.coefficient, n)) < 1e-9

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert pearson(x, y).coefficient == pearson(y, x).coefficient

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2, 3], [1, 2])
        with pytest.raises(TooFewSamples):
            pearson([1, 2], [3, 4])
        with pytest.raises(ConstantInput):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ConstantInput):
            pearson([1, 2, 3], [5, 5, 5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_names_the_side_and_index(self, bad):
        # a NaN r used to be clamped to 1.0, reported with p = 0
        with pytest.raises(NonFiniteInput, match=f"first input holds {bad} at index 0"):
            pearson([bad, 1, 2], [1, 2, 3])
        with pytest.raises(NonFiniteInput, match=f"second input holds {bad} at index 2"):
            pearson([1, 2, 3], [1, 2, bad])
        with pytest.raises(NonFiniteInput, match=f"first input holds {bad} at index 1"):
            spearman([1, bad, 2], [1, 2, 3])

    # the plain sums underflow or overflow here, and r comes from the vectors
    # scaled to a largest magnitude near 1; numpy must not warn of either
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, y, want", [
        ([0.0, 1e-184, 1e-184], [1, 2, 3], math.sqrt(0.75)),
        ([0, 1e160, 2e160], [3, 2, 1], -1.0),
        ([0, 1e160, 2e160], [0, 1e160, 3e160], pearson_r_oracle([0, 1, 2], [0, 1, 3])),
        ([1e308, 1e308, -1e308], [1, 2, 3], -math.sqrt(0.75)),
        ([0, 5e-324, 1e-323], [1, 2, 4], pearson_r_oracle([0, 1, 2], [1, 2, 4])),
    ])
    def test_extreme_scales(self, x, y, want):
        assert pearson(x, y).coefficient == pytest.approx(want, abs=1e-15)
        assert pearson(y, x).coefficient == pytest.approx(want, abs=1e-15)

    def test_p_monotone_in_r(self):
        n = 20
        ps = [pearson_p(r, n) for r in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
        assert ps == sorted(ps, reverse=True)


def pearson_p(r, n):
    from rankfair.stats import _t_p_value

    return _t_p_value(r, n)


def test_pearson_r_bit_identical_to_np_mean_form():
    from rankfair.stats import _pearson_r

    def with_np_mean(x, y):
        dx = x - np.mean(x)
        dy = y - np.mean(y)
        r = float(np.dot(dx, dy)) / math.sqrt(float(np.dot(dx, dx)) * float(np.dot(dy, dy)))
        return max(-1.0, min(1.0, r))

    rng = np.random.default_rng(107)
    for case in range(3000):
        n = int(rng.integers(3, 300))
        x = rng.normal(size=(n, 2))[:, case % 2] * 10.0 ** int(rng.integers(-100, 100))
        y = rng.integers(0, 4, size=n) / 2.0 if case % 3 == 0 else rng.standard_cauchy(n)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert _pearson_r(x, y).hex() == with_np_mean(x, y).hex()


def test_t_p_value_bit_identical_to_scipy_stats():
    from scipy import stats as sp_stats

    from rankfair.stats import _t_p_value

    rng = np.random.default_rng(83)
    sizes = np.concatenate([np.arange(3, 60), rng.integers(60, 50000, size=200)])
    for n in sizes.tolist():
        for r in rng.uniform(-1.0, 1.0, size=20).tolist() + [0.0, 0.999999, -0.5]:
            df = n - 2
            t = abs(r) * math.sqrt(df / (1.0 - r * r))
            want = float(min(1.0, max(0.0, 2.0 * sp_stats.t.sf(t, df))))
            assert _t_p_value(r, n) == want, (r, n)


def test_cli_import_leaves_scipy_stats_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rankfair

    src = str(Path(rankfair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, rankfair.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    # neither scipy.stats nor scipy.special: only the p-value imports stdtr
    assert result.stdout.strip() == "[]"


class TestSpearman:
    def test_reversed_is_minus_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, list(reversed(x))).coefficient == -1.0

    def test_monotone_map_is_one(self):
        assert spearman([1, 2, 3], [1, 4, 9]).coefficient == 1.0

    def test_tie_handling(self):
        ranks = average_ranks([1.0, 1.0, 2.0])
        np.testing.assert_array_equal(ranks, [1.5, 1.5, 3.0])
        got = spearman([1, 1, 2], [3, 5, 9])
        rx = ranks_oracle([1, 1, 2])
        ry = ranks_oracle([3, 5, 9])
        assert got.coefficient == pearson_r_oracle(rx, ry)

    def test_ranks_match_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            v = rng.integers(0, 6, size=int(rng.integers(3, 30))).astype(float)
            np.testing.assert_array_equal(average_ranks(v), ranks_oracle(v))

    def test_ranks_of_columns_match_oracle_bytes(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            shape = (int(rng.integers(1, 30)), int(rng.integers(1, 6)))
            v = rng.choice([-0.0, 0.0, 1.0, 2.5, -3.0, 1e-300], size=shape)
            want = np.array([ranks_oracle(column.tolist()) for column in v.T]).T
            got = average_ranks(v)
            assert got.tobytes() == want.tobytes()
            for j, column in enumerate(v.T):
                assert average_ranks(column).tobytes() == got[:, j].tobytes()

    def test_matches_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            n = int(rng.integers(3, 50))
            x = rng.integers(0, 10, size=n).astype(float)
            y = rng.normal(size=n)
            try:
                got = spearman(x, y)
            except ConstantInput:
                continue
            want = pearson_r_oracle(ranks_oracle(x), ranks_oracle(y))
            assert abs(got.coefficient - want) < 1e-12
            assert abs(got.p_value - t_p_value_oracle(got.coefficient, n)) < 1e-9

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            x = rng.integers(0, 8, size=12).astype(float)
            y = rng.normal(size=12)
            assert spearman(x, y).coefficient == spearman(y, x).coefficient

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            base = spearman(x, y).coefficient
            assert spearman(np.exp(x), y).coefficient == base
            assert spearman(x, y**3).coefficient == base

    def test_exact_permutation_small_n(self):
        got = spearman([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], method="exact")
        assert got.coefficient == 1.0
        # 2 of 3! = 6 permutations reach |rho| = 1
        assert got.p_value == pytest.approx(2 / 6, abs=0)
        with pytest.raises(ValueError):
            spearman(list(range(10)), list(range(10)), method="exact")


def make_reports(scores):
    """scores: {system: {query: value}} -> {system: MetricReport} with one metric."""
    out = {}
    for system, per_query in scores.items():
        pq = {q: {"awrf:pair": v} for q, v in per_query.items()}
        agg = {"awrf:pair": math.fsum(per_query.values()) / len(per_query)}
        out[system] = MetricReport(system, pq, agg)
    return out


class TestCorrelationReport:
    def _scores(self, offset=0.0, n_sys=4, n_q=5):
        rng = np.random.default_rng(89)
        return {
            f"sys{i}": {f"q{j}": float(i + j * 0.1 + offset + rng.uniform(0, 0.01))
                        for j in range(n_q)}
            for i in range(n_sys)
        }

    def test_self_correlation_all_ones(self):
        reports = make_reports(self._scores())
        result = correlation_report(reports, reports, level="both")
        assert result.rows
        for row in result.rows:
            assert row.pearson.coefficient == 1.0
            assert row.spearman.coefficient == 1.0
            assert row.pearson.p_value == 0.0
            assert row.significant

    def test_system_level_n(self):
        scores = self._scores(n_sys=13)
        reports = make_reports(scores)
        result = correlation_report(reports, reports, level="system")
        assert result.rows[0].pearson.n == 13

    def test_query_rows_shape(self):
        reports = make_reports(self._scores(n_sys=5, n_q=7))
        result = correlation_report(reports, reports, level="query")
        assert len(result.rows) == 7
        assert all(r.level.startswith("query:") for r in result.rows)

    def test_system_set_mismatch(self):
        a = make_reports(self._scores())
        b = make_reports({("sysX" if s == "sys0" else s): v
                          for s, v in self._scores().items()})
        with pytest.raises(SystemSetMismatch):
            correlation_report(a, b)

    def test_query_set_mismatch(self):
        a = make_reports(self._scores())
        scores = self._scores()
        scores["sys1"] = {"qZ": 1.0}
        b = make_reports(scores)
        with pytest.raises(QuerySetMismatch):
            correlation_report(a, b)

    def test_too_few_systems(self):
        a = make_reports(self._scores(n_sys=2))
        with pytest.raises(TooFewSamples):
            correlation_report(a, a)

    def test_constant_side_is_skipped_not_silent(self):
        scores = self._scores()
        constant = {s: {q: 0.5 for q in v} for s, v in scores.items()}
        result = correlation_report(make_reports(scores), make_reports(constant))
        assert result.rows == ()
        assert ("system", "awrf:pair") in result.skipped

    def test_exclude_missing_drops_queries(self):
        scores = self._scores(n_sys=3, n_q=4)
        reports_a = {}
        for system, per_query in scores.items():
            pq = {q: {"awrf:pair": v} for q, v in per_query.items()}
            agg = {"awrf:pair": math.fsum(per_query.values()) / len(per_query)}
            missing = ("q1",) if system == "sys0" else ()
            reports_a[system] = MetricReport(system, pq, agg, missing)
        result = correlation_report(reports_a, reports_a, level="query",
                                    exclude_missing=True)
        assert len(result.rows) == 3
        assert all(r.level != "query:q1" for r in result.rows)

    def test_csv_and_json(self):
        reports = make_reports(self._scores())
        result = correlation_report(reports, reports)
        csv_text = correlation_to_csv(result)
        header = csv_text.splitlines()[0]
        assert header == "level,metric,pearson_r,pearson_p,spearman_rho,spearman_p,significant"
        import json

        payload = json.loads(correlation_to_json(result))
        assert payload["alpha"] == 0.05
        assert payload["rows"][0]["pearson_r"] == 1.0


# --- agreement against the per-report dict walk it replaced --------------------------


def _reference_check_aligned(
    reports_a: Mapping[str, MetricReport], reports_b: Mapping[str, MetricReport]
) -> tuple[list[str], list[str], list[str]]:
    systems_a = set(reports_a)
    systems_b = set(reports_b)
    if systems_a != systems_b:
        raise SystemSetMismatch(
            f"only in first: {sorted(systems_a - systems_b)}; "
            f"only in second: {sorted(systems_b - systems_a)}"
        )
    systems = sorted(systems_a)
    queries = reports_a[systems[0]].queries
    for reports in (reports_a, reports_b):
        for system_tag in systems:
            if reports[system_tag].queries != queries:
                raise QuerySetMismatch(
                    f"system {system_tag!r} covers a different query set"
                )
    metrics = reports_a[systems[0]].metrics
    for reports in (reports_a, reports_b):
        for system_tag in systems:
            if reports[system_tag].metrics != metrics:
                raise ConfigError(f"system {system_tag!r} reports different metrics")
    return systems, list(queries), list(metrics)


def reference_correlation_report(
    reports_a: Mapping[str, MetricReport],
    reports_b: Mapping[str, MetricReport],
    level: str = "both",
    alpha: float = ALPHA,
    spearman_method: str = "t",
    exclude_missing: bool = False,
) -> CorrelationReport:
    """Correlate metric scores computed under two annotation sources.

    System level pairs the per-system means (one point per system); query
    level pairs per-system scores within each query (one row per query and
    metric). ``exclude_missing`` drops queries any system failed to return,
    on either side, from the query-level rows.
    """
    if level not in ("system", "query", "both"):
        raise ValueError(f"unknown level {level!r}")
    systems, queries, metrics = _reference_check_aligned(reports_a, reports_b)
    if len(systems) < 3:
        raise TooFewSamples(f"need at least 3 systems, got {len(systems)}")
    rows: list[CorrelationRow] = []
    skipped: list[tuple[str, str]] = []

    def correlate(tag: str, metric: str, xs, ys):
        try:
            pr = pearson(xs, ys)
            sr = spearman(xs, ys, method=spearman_method)
        except ConstantInput:
            skipped.append((tag, metric))
            return
        rows.append(
            CorrelationRow(
                tag, metric, pr, sr, pr.p_value < alpha and sr.p_value < alpha
            )
        )

    if level in ("system", "both"):
        for metric in metrics:
            xs = [reports_a[s].aggregates[metric] for s in systems]
            ys = [reports_b[s].aggregates[metric] for s in systems]
            correlate("system", metric, xs, ys)
    if level in ("query", "both"):
        kept_queries = queries
        if exclude_missing:
            dropped = set()
            for reports in (reports_a, reports_b):
                for system_tag in systems:
                    dropped.update(reports[system_tag].missing_queries)
            kept_queries = [q for q in queries if q not in dropped]
        for metric in metrics:
            for query_id in kept_queries:
                xs = [reports_a[s].per_query[query_id][metric] for s in systems]
                ys = [reports_b[s].per_query[query_id][metric] for s in systems]
                correlate(f"query:{query_id}", metric, xs, ys)
    return CorrelationReport(alpha, tuple(rows), tuple(skipped))


def reports_of(table):
    """One MetricReport per system of a table; aggregates are fsum over queries / Q."""
    reports = {}
    for i, system in enumerate(table.systems):
        per_query = {
            q: {m: float(table.values[k, i, j]) for k, m in enumerate(table.metrics)}
            for j, q in enumerate(table.queries)
        }
        aggregates = {
            m: math.fsum(table.values[k, i].tolist()) / len(table.queries)
            for k, m in enumerate(table.metrics)
        }
        missing = tuple(q for j, q in enumerate(table.queries) if table.absent[i, j])
        reports[system] = MetricReport(system, per_query, aggregates, missing)
    return reports


def flat(report):
    """Every field of a report, floats as their hex form."""
    def result(c):
        return c.coefficient.hex(), c.p_value.hex(), c.n

    rows = [(r.level, r.metric, result(r.pearson), result(r.spearman), r.significant)
            for r in report.rows]
    return report.alpha, rows, list(report.skipped)


def rare(p):
    """Booleans that are True about once in ``p`` draws."""
    return st.integers(0, p - 1).map(lambda v: v == 0)


@st.composite
def table_pairs(draw):
    """Two tables of 3-12 systems, 1-8 queries and 1-3 metrics, with ties,
    signed zeros, constant query columns and constant metrics on either
    side, and absent masks."""
    n_systems, n_queries, n_metrics = (draw(st.integers(lo, hi)) for lo, hi in ((3, 12), (1, 8), (1, 3)))
    shape = (2, n_metrics, n_systems, n_queries)
    pool = st.sampled_from([0.0, -0.0, 0.25, 1.0]) | st.floats(0, 1, allow_subnormal=False)
    values = draw(arrays(np.float64, shape, elements=pool))
    flat_queries = draw(arrays(bool, (2, n_metrics, 1, n_queries), elements=rare(4)))
    values = np.where(flat_queries, values[:, :, :1, :], values)
    flat_metrics = draw(arrays(bool, (2, n_metrics, 1, 1), elements=rare(6)))
    values = np.where(flat_metrics, values[:, :, :1, :1], values)
    absent = draw(arrays(bool, (2, n_systems, n_queries), elements=rare(8)))
    names = (
        [f"sys{i:02d}" for i in range(n_systems)],
        [f"q{j}" for j in range(n_queries)],
        [f"awrf:m{k}" for k in range(n_metrics)],
    )
    return tuple(ScoreTable(*names, values[side], absent[side]) for side in range(2))


def outcome(fn, *args, **kwargs):
    """A report's fields, or the class of the exception it raised."""
    try:
        return flat(fn(*args, **kwargs))
    except Exception as exc:  # deviations that underflow make r divide by zero
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(table_pairs(), st.booleans())
def test_agreement_matches_the_report_walk(pair, exclude_missing):
    a, b = pair
    reports = reports_of(a), reports_of(b)
    want = outcome(reference_correlation_report, *reports, exclude_missing=exclude_missing)
    assert outcome(agreement, a, b, exclude_missing=exclude_missing) == want
    assert outcome(correlation_report, *reports, exclude_missing=exclude_missing) == want


class TestAgreement:
    def table(self, values, absent=None, systems=("s0", "s1", "s2"), metrics=("awrf:g",)):
        values = np.asarray(values, dtype=np.float64).reshape(len(metrics), len(systems), -1)
        queries = tuple(f"q{j}" for j in range(values.shape[2]))
        if absent is None:
            absent = np.zeros(values.shape[1:], dtype=bool)
        return ScoreTable(systems, queries, metrics, values, absent)

    def test_exclude_missing_reads_both_masks(self):
        values = [[0.1, 0.5, 0.2], [0.2, 0.4, 0.3], [0.3, 0.2, 0.5]]
        absent = np.zeros((3, 3), dtype=bool)
        absent[1, 2] = True
        a, b = self.table(values), self.table(values, absent)
        for first, second in ((a, b), (b, a)):
            report = agreement(first, second, exclude_missing=True)
            assert [row.level for row in report.rows] == ["system", "query:q0", "query:q1"]
        assert len(agreement(a, b).rows) == 4

    def test_too_few_systems_names_systems(self):
        two = self.table([[0.1, 0.2], [0.3, 0.4]], systems=("s0", "s1"))
        with pytest.raises(TooFewSamples, match="need at least 3 systems, got 2"):
            agreement(two, two)

    def test_mismatches(self):
        a = self.table(np.arange(6.0))
        with pytest.raises(SystemSetMismatch, match="only in first: \\['s2'\\]"):
            agreement(a, self.table(np.arange(6.0), systems=("s0", "s1", "s3")))
        with pytest.raises(QuerySetMismatch):
            agreement(a, self.table(np.arange(9.0)))
        with pytest.raises(ConfigError):
            agreement(a, self.table(np.arange(6.0), metrics=("awrf:h",)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_names_the_pair_and_side(self, bad):
        values = np.array([[0.1, 0.5, 0.2], [0.2, 0.4, 0.3], [0.3, 0.2, 0.5]])
        good = self.table(values)
        values[2, 1] = bad
        pair = f"\\('query:q1', 'awrf:g'\\)"
        with pytest.raises(NonFiniteInput, match=f"{pair}: the first table holds {bad} for system 's2'"):
            agreement(self.table(values), good)
        with pytest.raises(NonFiniteInput, match=f"{pair}: the second table holds {bad}"):
            agreement(good, self.table(values), exclude_missing=True)

    def test_no_queries_no_rows(self):
        empty = self.table(np.zeros((1, 3, 0)))
        assert agreement(empty, empty) == CorrelationReport(ALPHA, ())

    def test_table_is_read_only_and_checked(self):
        table = self.table(np.arange(6.0))
        assert not table.values.flags.writeable and not table.absent.flags.writeable
        with pytest.raises(LengthMismatch):
            ScoreTable(("s0",), ("q0",), ("m",), np.zeros((1, 2, 1)), np.zeros((1, 1), dtype=bool))
