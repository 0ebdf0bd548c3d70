import contextlib
import errno
import itertools
import math
import mmap
import os
import signal
import threading
from unittest import mock

import numpy as np
import pytest

from rankfair.core import (
    GroupMembershipTable,
    GroupScheme,
    MembershipVector,
    Qrels,
    normalize,
    one_hot,
)
from rankfair.errors import AccuracyOutOfRange, ConfigError, ConstantInput
from rankfair.metrics import MetricConfig, evaluate_runset
from rankfair.stats import pearson, spearman
from rankfair import _fork, simulate
from rankfair.simulate import (
    ConfusionMatrix,
    accuracy_sweep,
    annotation_cost,
    apply_confusion,
    confusion_for_accuracy,
    default_cost_rates,
    generate_testbed,
    sweep_summary_to_csv,
    sweep_to_json,
    sweep_trials_to_csv,
)

G4 = GroupScheme("quad", ("g0", "g1", "g2", "g3"), unknown_index=3)
G2 = GroupScheme("pair", ("g0", "g1"))

SMALL = simulate.TestbedConfig(
    n_queries=6, docs_per_query=60, n_groups=4, n_systems=8, spread=1.0, seed=5
)


class TestConfusionMatrix:
    def test_perfect_is_identity(self):
        m = confusion_for_accuracy(G4, 1.0)
        np.testing.assert_array_equal(m.as_array(), np.eye(4))

    def test_uniform_off_diagonal(self):
        m = confusion_for_accuracy(G4, 0.8).as_array()
        np.testing.assert_allclose(np.diag(m), 0.8, atol=0, rtol=0)
        off = m[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 0.2 / 3, atol=1e-15, rtol=0)

    def test_chance_level_is_uninformative(self):
        m = confusion_for_accuracy(G4, 0.25).as_array()
        np.testing.assert_allclose(m, 0.25, atol=1e-15, rtol=0)

    def test_out_of_range(self):
        with pytest.raises(AccuracyOutOfRange):
            confusion_for_accuracy(G4, 0.2)
        with pytest.raises(AccuracyOutOfRange):
            confusion_for_accuracy(G4, 1.1)

    def test_biased_style_rows_stochastic(self):
        m = confusion_for_accuracy(G4, 0.7, style="biased")
        arr = m.as_array()
        np.testing.assert_allclose(arr.sum(axis=1), 1.0, atol=1e-12, rtol=0)
        # errors of non-target rows all land on the unknown group
        assert arr[0, 3] == pytest.approx(0.3, abs=1e-15)
        assert arr[0, 1] == 0.0

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(G2, ((0.5, 0.4), (0.0, 1.0)))


def one_hot_table(scheme, groups_by_doc, provenance="human"):
    vectors = {d: one_hot(scheme, g) for d, g in groups_by_doc.items()}
    return GroupMembershipTable([scheme], {scheme.name: vectors}, provenance=provenance)


class TestApplyConfusion:
    def test_identity_unchanged_hard_and_soft(self):
        table = one_hot_table(G4, {f"d{i}": i % 4 for i in range(40)})
        identity = confusion_for_accuracy(G4, 1.0)
        for seed in (0, 1, 12345):
            assert apply_confusion(table, identity, seed, "hard") == table
        assert apply_confusion(table, identity, 0, "soft") == table

    def test_soft_row_selection(self):
        table = GroupMembershipTable(
            [G2], {"pair": {"d1": MembershipVector(G2, (1.0, 0.0))}}
        )
        matrix = ConfusionMatrix(G2, ((0.8, 0.2), (0.3, 0.7)))
        out = apply_confusion(table, matrix, 0, "soft")
        assert out.get("pair", "d1").weights == (0.8, 0.2)
        assert out.provenance == "synthetic"

    def test_soft_preserves_validity(self):
        rng = np.random.default_rng(7)
        vectors = {
            f"d{i}": normalize(rng.uniform(0.01, 1, size=4), G4) for i in range(50)
        }
        table = GroupMembershipTable([G4], {"quad": vectors})
        for _ in range(20):
            rows = rng.uniform(0, 1, size=(4, 4)) + 0.01
            rows /= rows.sum(axis=1, keepdims=True)
            matrix = ConfusionMatrix(G4, tuple(tuple(r) for r in rows))
            out = apply_confusion(table, matrix, 0, "soft")
            for doc in vectors:
                w = out.get("quad", doc).weights
                assert all(x >= 0 for x in w)
                assert abs(math.fsum(w) - 1.0) <= 1e-9

    def test_hard_empirical_accuracy(self):
        n = 10_000
        table = one_hot_table(G4, {f"d{i:05d}": i % 4 for i in range(n)})
        matrix = confusion_for_accuracy(G4, 0.8)
        out = apply_confusion(table, matrix, seed=42, mode="hard")
        kept = sum(
            out.get("quad", d) == table.get("quad", d) for d in table.docs("quad")
        )
        assert abs(kept / n - 0.8) < 0.02

    def test_hard_deterministic_and_order_independent(self):
        docs = {f"d{i}": i % 4 for i in range(30)}
        table_fwd = one_hot_table(G4, docs)
        table_rev = one_hot_table(G4, dict(reversed(list(docs.items()))))
        matrix = confusion_for_accuracy(G4, 0.5)
        a = apply_confusion(table_fwd, matrix, seed=3, mode="hard")
        b = apply_confusion(table_rev, matrix, seed=3, mode="hard")
        assert a == b
        c = apply_confusion(table_fwd, matrix, seed=4, mode="hard")
        assert a != c

    def test_draw_stream_pinned(self):
        draws = simulate._doc_uniforms
        assert draws(0, ["d0"]).tolist() == [0.2485205248491542]
        assert draws(42, ["q000_d0001"]).tolist() == [0.3128580503452809]
        assert draws(2**64 - 1, ["doc-\u00fc"]).tolist() == [0.7805801770679761]
        # a draw does not depend on the other documents or their order
        assert draws(42, ["d0", "q000_d0001"]).tolist()[1] == 0.3128580503452809

    def test_other_schemes_pass_through(self):
        table = GroupMembershipTable(
            [G4, G2],
            {
                "quad": {"d1": one_hot(G4, 0)},
                "pair": {"d1": one_hot(G2, 1)},
            },
        )
        out = apply_confusion(table, confusion_for_accuracy(G4, 0.25), 0, "hard")
        assert out.get("pair", "d1") == table.get("pair", "d1")


class TestGenerateTestbed:
    def test_deterministic(self):
        a = generate_testbed(SMALL)
        b = generate_testbed(SMALL)
        assert a.table == b.table
        assert a.qrels == b.qrels
        assert a.runset == b.runset

    def test_seed_changes_output(self):
        a = generate_testbed(SMALL)
        b = generate_testbed(simulate.TestbedConfig(**{**SMALL.__dict__, "seed": 6}))
        assert a.table != b.table

    def test_shapes(self):
        bed = generate_testbed(SMALL)
        assert len(bed.runset.systems) == 8
        assert len(bed.qrels) == 6
        assert len(bed.table.docs("group")) == 6 * 60
        for tag in bed.runset.systems:
            assert len(bed.runset.queries(tag)) == 6

    def test_spread_zero_identical_systems(self):
        config = simulate.TestbedConfig(
            n_queries=3, docs_per_query=40, n_groups=4, n_systems=5, spread=0.0, seed=9
        )
        bed = generate_testbed(config)
        reports = evaluate_runset(bed.runset, bed.qrels, bed.table, ["group"])
        scores = {r.aggregates["awrf:group"] for r in reports.values()}
        assert len(scores) == 1

    def test_spread_one_scores_span_positive_range(self):
        config = simulate.TestbedConfig(
            n_queries=5, docs_per_query=100, n_groups=4, n_systems=30, spread=1.0, seed=2
        )
        bed = generate_testbed(config)
        reports = evaluate_runset(bed.runset, bed.qrels, bed.table, ["group"])
        scores = [r.aggregates["awrf:group"] for r in reports.values()]
        assert max(scores) - min(scores) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate.TestbedConfig(spread=1.5)
        with pytest.raises(ValueError):
            simulate.TestbedConfig(n_groups=1)
        with pytest.raises(ValueError):
            simulate.TestbedConfig(grade_probs=(0.5, 0.4))


class TestAccuracySweep:
    def test_perfect_accuracy_exact_ones(self):
        bed = generate_testbed(SMALL)
        result = accuracy_sweep(bed, [1.0], trials=2, seed=11)
        for trial in result.trials:
            assert trial.pearson.coefficient == 1.0
            assert trial.spearman.coefficient == 1.0
            assert trial.query_r_mean == 1.0

    def test_serial_matches_parallel(self):
        bed = generate_testbed(SMALL)
        serial = accuracy_sweep(bed, [0.5, 1.0], trials=2, seed=7, workers=1)
        parallel = accuracy_sweep(bed, [0.5, 1.0], trials=2, seed=7, workers=4)
        assert sweep_to_json(serial) == sweep_to_json(parallel)

    def test_trend_roughly_monotone(self):
        bed = generate_testbed(SMALL)
        result = accuracy_sweep(bed, [0.4, 0.7, 1.0], trials=3, seed=13)
        means = [level.pearson_r for level in result.summary]
        assert means[0] <= means[1] + 0.1
        assert means[1] <= means[2] + 0.1
        assert means[2] == 1.0

    def test_levels_sorted_and_deduplicated(self):
        bed = generate_testbed(SMALL)
        result = accuracy_sweep(bed, [1.0, 0.5, 1.0], trials=1, seed=1)
        assert result.levels == (0.5, 1.0)
        assert [t.accuracy for t in result.trials] == [0.5, 1.0]

    def test_out_of_range_level_rejected(self):
        bed = generate_testbed(SMALL)
        with pytest.raises(AccuracyOutOfRange):
            accuracy_sweep(bed, [0.1], trials=1)

    def test_matches_cells_built_from_public_functions(self):
        bed = generate_testbed(SMALL)
        config = MetricConfig(divergence="kl", target="qrels-graded")
        levels = [0.25, 0.55, 0.9, 1.0]
        result = accuracy_sweep(bed, levels, trials=2, metric_config=config, seed=17)
        truth = evaluate_runset(bed.runset, bed.qrels, bed.table, ["group"], config)
        systems = sorted(truth)
        queries = truth[systems[0]].queries
        scheme = bed.table.scheme("group")
        for trial in result.trials:
            cell_seed = simulate._trial_seed(17, levels.index(trial.accuracy), trial.trial)
            cm = confusion_for_accuracy(scheme, trial.accuracy)
            table = apply_confusion(bed.table, cm, seed=cell_seed, mode="hard")
            degraded = evaluate_runset(bed.runset, bed.qrels, table, ["group"], config)
            system = [
                [reports[s].aggregates["awrf:group"] for s in systems]
                for reports in (degraded, truth)
            ]
            for got, want in ((trial.pearson, pearson(*system)), (trial.spearman, spearman(*system))):
                assert abs(got.coefficient - want.coefficient) <= 1e-12
                assert abs(got.p_value - want.p_value) <= 1e-12
            rs = []
            for q in queries:
                xs, ys = (
                    [reports[s].per_query[q]["awrf:group"] for s in systems]
                    for reports in (degraded, truth)
                )
                if len(set(xs)) > 1 and len(set(ys)) > 1:
                    rs.append(pearson(xs, ys))
            assert trial.query_count == len(rs)
            assert trial.query_skipped == len(queries) - len(rs)
            assert abs(trial.query_r_mean - math.fsum(c.coefficient for c in rs) / len(rs)) <= 1e-12
            assert abs(trial.query_r_min - min(c.coefficient for c in rs)) <= 1e-12
            assert abs(trial.query_r_max - max(c.coefficient for c in rs)) <= 1e-12
            significant = sum(c.p_value < 0.05 for c in rs) / len(rs)
            assert trial.query_frac_significant == significant

    def test_no_evaluation_queries_rejected(self):
        bed = generate_testbed(SMALL)
        with pytest.raises(ConfigError):
            accuracy_sweep(simulate.Testbed(bed.table, Qrels({}), bed.runset), [1.0], trials=1)

    def test_constant_system_means_name_the_cell_and_side(self):
        flat = simulate.TestbedConfig(n_queries=2, docs_per_query=20, n_groups=2, n_systems=3,
                                      spread=0.0, seed=1)  # every system ranks alike
        message = "accuracy 1.0, trial 0: the degraded and true system means are constant"
        with pytest.raises(ConstantInput, match=message):
            accuracy_sweep(generate_testbed(flat), [1.0], trials=1)

    def test_workers_below_one_rejected(self):
        bed = generate_testbed(SMALL)
        for workers in (0, -1):
            with pytest.raises(ConfigError):
                accuracy_sweep(bed, [1.0], trials=1, workers=workers)

    def test_csv_shapes(self):
        bed = generate_testbed(SMALL)
        result = accuracy_sweep(bed, [0.25, 0.5, 0.75, 1.0], trials=3, seed=3)
        trial_lines = sweep_trials_to_csv(result).splitlines()
        assert trial_lines[0] == "accuracy,trial,pearson_r,pearson_p,spearman_rho,spearman_p"
        assert len(trial_lines) == 1 + 12
        summary_lines = sweep_summary_to_csv(result).splitlines()
        assert len(summary_lines) == 1 + 4
        ones = [l for l in trial_lines[1:] if l.startswith("1.0,")]
        assert all(l.split(",")[2] == "1.0" for l in ones)


@contextlib.contextmanager
def forking(min_draws=1):
    """As on a machine with two CPUs, where a sweep of ``min_draws`` draws
    is worth a producer; yields the pids of the children forked, which must
    all be reaped once the sweep has returned or raised."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        pids.append(pid)
        return pid

    with (
        mock.patch.object(simulate, "MIN_DRAWS", min_draws),
        mock.patch.object(_fork, "cpus", lambda: 2),
        mock.patch.object(os, "fork", spy),
    ):
        yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def delivered(ready):
    """The producer's front cell seen as always (True) or never (False)
    delivered yet: the sweep reads every cell from the producer, or takes
    every cell it can from the back."""
    return mock.patch.object(simulate._CellDraws, "_delivered", lambda self: ready)


class TestDrawProducer:
    """A sweep whose draws a forked producer hashes ahead equals the sweep
    that hashes its own, however the producer fares."""

    LEVELS = [0.4, 0.55, 0.7, 0.9, 1.0]
    CELLS = 2 * len(LEVELS)

    def sweep(self, bed):
        return sweep_to_json(accuracy_sweep(bed, self.LEVELS, trials=2, seed=9))

    def serial(self, bed):
        with mock.patch.object(_fork, "cpus", lambda: 1):
            return self.sweep(bed)

    def test_ring_wraps(self):
        bed = generate_testbed(SMALL)
        assert self.CELLS > simulate.RING_SLOTS
        with (
            forking() as pids,
            delivered(True),
            mock.patch.object(simulate, "_doc_uniforms") as hashed_here,
        ):
            got = self.sweep(bed)
        assert len(pids) == 1 and not hashed_here.called
        assert got == self.serial(bed)

    def test_cells_from_the_back(self):
        bed = generate_testbed(SMALL)
        with (
            forking() as pids,
            delivered(False),
            mock.patch.object(simulate, "_doc_uniforms", wraps=simulate._doc_uniforms) as here,
        ):
            got = self.sweep(bed)
        assert len(pids) == 1
        assert [c.args[0] for c in here.call_args_list] == [
            simulate._trial_seed(9, cell // 2, cell % 2) for cell in range(self.CELLS - 1, 0, -1)
        ]  # every cell but the first, last first
        assert got == self.serial(bed)

    def test_as_it_comes(self):
        bed = generate_testbed(SMALL)
        with forking() as pids:
            got = self.sweep(bed)
        assert len(pids) == 1 and got == self.serial(bed)

    def test_small_sweep_stays_serial(self):
        bed = generate_testbed(SMALL)
        assert self.CELLS * len(bed.table.columns("group")[0]) < simulate.MIN_DRAWS
        with forking(simulate.MIN_DRAWS) as pids:
            got = self.sweep(bed)
        assert not pids and got == self.serial(bed)

    def test_refused_fork(self):
        bed = generate_testbed(SMALL)
        refused = mock.Mock(side_effect=BlockingIOError(11, "refused"))
        with forking(), mock.patch.object(os, "fork", refused):
            got = self.sweep(bed)
        assert refused.call_count == 1
        assert got == self.serial(bed)

    @pytest.mark.parametrize("call, error", [
        ("mmap", OSError(errno.ENOMEM, "no memory for the ring")),
        ("pipe", OSError(errno.EMFILE, "no descriptor for a pipe")),
    ])
    def test_no_ring_or_pipe(self, call, error):
        bed = generate_testbed(SMALL)
        module = mmap if call == "mmap" else os
        with forking() as pids, mock.patch.object(module, call, side_effect=error) as failing:
            got = self.sweep(bed)
        assert failing.call_count == 1
        assert not pids and got == self.serial(bed)

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_producer_killed_after_k_cells(self, k):
        bed = generate_testbed(SMALL)
        sweep_pid, hashed = os.getpid(), itertools.count()
        digests = simulate._doc_digests

        def dying(seed, doc_ids):
            if os.getpid() != sweep_pid and next(hashed) == k:
                os.kill(os.getpid(), signal.SIGKILL)
            return digests(seed, doc_ids)

        with (
            forking() as pids,
            delivered(True),
            mock.patch.object(simulate, "_doc_digests", dying),
            mock.patch.object(simulate, "_doc_uniforms", wraps=simulate._doc_uniforms) as here,
        ):
            got = self.sweep(bed)
        assert len(pids) == 1
        assert here.call_count == self.CELLS - k  # every cell from the k-th on
        assert got == self.serial(bed)

    def test_no_fork_while_another_thread_runs(self):
        bed = generate_testbed(SMALL)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            with forking() as pids:
                got = self.sweep(bed)
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        assert not pids and got == self.serial(bed)

    @pytest.mark.parametrize("ready", [True, False])
    def test_constant_input_names_the_first_such_cell_and_leaves_no_child(self, ready):
        """Cells at 0.55 and 0.9 raise; the error is the first such cell's
        in cell order, even when cells are taken from the back."""
        bed = generate_testbed(SMALL)
        relabeled, real_agreement = simulate._relabeled, simulate.agreement
        cell = {}

        def remember(stored, draws, matrix):
            cell.update(accuracy=matrix.rows[0][0], draw=draws[0])
            return relabeled(stored, draws, matrix)

        def constant_at_some_levels(*args):
            if cell["accuracy"] in (0.55, 0.9):
                raise ConstantInput(f"constant at {cell['accuracy']}, draw {cell['draw']!r}")
            return real_agreement(*args)

        patches = (
            mock.patch.object(simulate, "_relabeled", remember),
            mock.patch.object(simulate, "agreement", constant_at_some_levels),
        )
        with patches[0], patches[1], pytest.raises(ConstantInput) as serial:
            self.serial(bed)
        assert "constant at 0.55" in str(serial.value)
        with forking() as pids, delivered(ready), patches[0], patches[1]:
            with pytest.raises(ConstantInput) as forked:
                self.sweep(bed)
        assert len(pids) == 1
        assert str(forked.value) == str(serial.value)


def test_hard_trials_average_to_the_soft_exposure():
    """With one-hot truth, a ranking's expected raw exposure under hard
    corruption through C is its true exposure times C: the ``soft`` result.
    The mean of N hard trials must lie within Z standard errors of it for
    every ranking, group and matrix, the standard error following from
    independent per-document draws. Under the normal approximation each of
    the M comparisons fails by chance with probability 2 * Phi(-Z) = 3.8e-8,
    so a correct draw stream fails this test with probability at most
    M * 3.8e-8 < 2e-5 (M = 384). Draws scaled by 0.9 fail it."""
    n_trials, z = 200, 5.5
    bed = generate_testbed(SMALL)
    index, truth = bed.table.matrix("group")
    positions = np.array([[index[d] for d in r.doc_ids] for r in bed.runset.rankings()])
    weights = 0.1 * 0.9 ** np.arange(positions.shape[1])  # geometric, patience 0.1

    def raw(table):  # (rankings, groups)
        return np.einsum("p,rpk->rk", weights, table.matrix("group")[1][positions])

    scheme = bed.table.scheme("group")
    matrices = [confusion_for_accuracy(scheme, 0.55), confusion_for_accuracy(scheme, 0.7, "biased")]
    compared = 0
    for cm in matrices:
        soft = raw(apply_confusion(bed.table, cm, mode="soft"))
        hard = sum(raw(apply_confusion(bed.table, cm, seed=t)) for t in range(n_trials)) / n_trials
        p = truth[positions] @ cm.as_array()  # each position's label probabilities
        se = np.sqrt(np.einsum("p,rpk->rk", weights**2, p * (1 - p)) / n_trials)
        np.testing.assert_array_less(np.abs(hard - soft), z * se + 1e-12)
        compared += soft.size
    assert compared == 384


class TestAnnotationCost:
    def test_forced_arithmetic(self):
        assert annotation_cost(1000, 512, 0.5) == 0.256

    def test_zero_docs_fixed_only(self):
        assert annotation_cost(0, 512, 0.5, fixed_cost=25.0) == 25.0

    def test_default_rates_exceed_2000_at_corpus_scale(self):
        rates = default_cost_rates()
        cheapest = rates["models"]["gpt-3.5-turbo"]
        total = annotation_cost(
            6e6,
            rates["tokens_per_doc"],
            cheapest["rate_per_million_tokens"],
            cheapest["fixed_cost"],
        )
        assert total > 2000.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            annotation_cost(-1, 512, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_rejected(self, bad, position):
        inputs = [1000, 512, 0.5, 0.0]
        inputs[position] = bad
        with pytest.raises(ValueError, match="finite"):
            annotation_cost(*inputs)


# --- the closed forms against the loops they replaced ------------------------------------


def _testbed_by_loops(config):
    """generate_testbed with its orders built by per-group queues and a
    round-robin pointer loop, as the reference for the sort-key form."""
    k = config.n_groups
    scheme = GroupScheme("group", tuple(f"g{i}" for i in range(k)))
    rng = np.random.default_rng(config.seed)
    if config.n_systems > 1:
        lambdas = [config.spread * s / (config.n_systems - 1) for s in range(config.n_systems)]
    else:
        lambdas = [0.0]
    labels, judgments, vocabulary, codes, spans = [], {}, [], [], []
    n = config.docs_per_query
    for qi in range(config.n_queries):
        qid = f"q{qi:03d}"
        doc_ids = [f"{qid}_d{di:04d}" for di in range(n)]
        groups = rng.integers(0, k, size=n)
        grades = rng.choice(len(config.grade_probs), size=n, p=config.grade_probs)
        labels.append(groups)
        judgments[qid] = {doc_id: int(g) for doc_id, g in zip(doc_ids, grades)}
        perm = rng.permutation(n)
        queues = [[] for _ in range(k)]
        for j in perm:
            queues[groups[j]].append(int(j))
        pos_balanced = np.empty(n, dtype=np.float64)
        pointers = [0] * k
        position = 0
        cycle = 0
        while position < n:
            for offset in range(k):
                g = (qi + cycle + offset) % k
                if pointers[g] < len(queues[g]):
                    pos_balanced[queues[g][pointers[g]]] = position
                    pointers[g] += 1
                    position += 1
            cycle += 1
        pos_skewed = np.empty(n, dtype=np.float64)
        position = 0
        for g in range(k):
            for j in queues[g]:
                pos_skewed[j] = position
                position += 1
        for s, lam in enumerate(lambdas):
            keys = (1.0 - lam) * pos_balanced + lam * pos_skewed
            order = np.argsort(keys, kind="stable")
            start = len(codes) * n
            codes.append(len(vocabulary) + order)
            spans.append((f"sys{s:02d}", qid, start, start + n))
        vocabulary.extend(doc_ids)
    scores = np.tile(np.arange(n, 0, -1, dtype=np.float64), len(codes))
    runset = simulate.RunSet.from_columns(vocabulary, np.concatenate(codes), scores, spans)
    columns = {scheme.name: (vocabulary, np.eye(k)[np.concatenate(labels)])}
    table = GroupMembershipTable.from_columns([scheme], columns, provenance="synthetic")
    return simulate.Testbed(table, Qrels(judgments), runset)


@pytest.mark.parametrize(
    "shape",
    [
        # (queries, docs per query, groups, systems, spread)
        (9, 3, 5, 4, 1.0),  # fewer documents than groups
        (8, 1, 3, 3, 0.5),  # one document per query
        (15, 40, 7, 6, 0.5),  # more queries than groups: the rotation wraps
        (10, 23, 2, 5, 0.0),
        (6, 17, 4, 1, 1.0),  # one system
        (12, 60, 6, 9, 1.0),
    ],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_generate_testbed_equals_the_loop_orders(shape, seed):
    n_queries, docs, k, systems, spread = shape
    config = simulate.TestbedConfig(
        n_queries=n_queries, docs_per_query=docs, n_groups=k,
        n_systems=systems, spread=spread, seed=seed,
    )
    bed, reference = generate_testbed(config), _testbed_by_loops(config)
    assert bed.runset == reference.runset
    assert bed.qrels == reference.qrels
    assert bed.table == reference.table


def _rows_by_group_loop(stored, draws, matrix):
    """_corrupted_rows' hard mode as a searchsorted per true group and a
    one-hot scatter, the reference for the label-vector form."""
    k = matrix.scheme.k
    truth = np.argmax(stored, axis=1)
    cum = np.cumsum(matrix.as_array(), axis=1)
    labels = np.empty(len(draws), dtype=np.intp)
    for g in range(k):
        mask = truth == g
        if mask.any():
            labels[mask] = np.searchsorted(cum[g], draws[mask], side="right")
    np.clip(labels, 0, k - 1, out=labels)
    rows = np.zeros((len(draws), k), dtype=np.float64)
    rows[np.arange(len(draws)), labels] = 1.0
    return rows


def test_corrupted_rows_equal_the_per_group_searchsorted(monkeypatch):
    short = 0.4 - 5e-10  # the last row's cumulative sum ends just below one
    matrix = ConfusionMatrix(
        G4, ((0.25,) * 4, (0.1, 0.2, 0.3, short), (0.0, 0.5, 0.0, 0.5), (0.0, 0.0, 0.0, 1.0))
    )
    cum = np.cumsum(matrix.as_array(), axis=1)
    draws = np.concatenate([
        [0.0, 0.5, 1.0 - 2.0**-53, cum[1, 3], (cum[1, 3] + 1.0) / 2],
        cum.ravel(),  # every draw exactly on a cumulative boundary
        np.random.default_rng(1).random(200),
    ])
    monkeypatch.setattr(simulate, "_doc_uniforms", lambda seed, doc_ids: draws)
    ids = [f"d{i}" for i in range(len(draws))]
    mixed = np.random.default_rng(2).integers(0, 4, size=len(draws))
    for truth in [np.full(len(draws), g) for g in range(4)] + [mixed]:
        stored = np.eye(4)[truth]
        rows = simulate._corrupted_rows(stored, ids, matrix, 0, "hard")
        np.testing.assert_array_equal(rows, _rows_by_group_loop(stored, draws, matrix))
        assert rows.dtype == np.float64
    # a draw at or above the end of a row that sums to just below one takes
    # the last group
    rows = simulate._corrupted_rows(np.eye(4)[np.ones(len(draws), int)], ids, matrix, 0, "hard")
    assert rows[3].tolist() == rows[4].tolist() == [0.0, 0.0, 0.0, 1.0]
    monkeypatch.setattr(simulate, "_doc_uniforms", lambda seed, doc_ids: np.empty(0))
    empty = simulate._corrupted_rows(np.empty((0, 4)), [], matrix, 0, "hard")
    assert empty.shape == (0, 4) and empty.dtype == np.float64


def _confusion_by_tuples(scheme, accuracy, style, bias_target):
    """confusion_for_accuracy's rows as nested tuples, the reference for
    the array form; the range check is applied by the caller."""
    k = scheme.k
    accuracy = min(max(accuracy, 1.0 / k), 1.0)
    off = (1.0 - accuracy) / (k - 1)
    if style == "uniform":
        return tuple(tuple(accuracy if i == j else off for j in range(k)) for i in range(k))
    target = bias_target
    if target is None:
        target = scheme.unknown_index if scheme.unknown_index is not None else k - 1
    rows = []
    for i in range(k):
        if i == target:
            rows.append(tuple(accuracy if j == i else off for j in range(k)))
        else:
            rows.append(
                tuple(
                    accuracy if j == i else (1.0 - accuracy if j == target else 0.0)
                    for j in range(k)
                )
            )
    return tuple(rows)


def test_confusion_for_accuracy_equals_the_tuple_form_bit_for_bit():
    rng = np.random.default_rng(4)
    for k in range(2, 8):
        for unknown in (None, *range(k)):
            scheme = GroupScheme("s", tuple(f"g{i}" for i in range(k)), unknown_index=unknown)
            lo = 1.0 / k
            levels = [lo - 1e-13, lo, 0.5, 0.55, 0.8, 0.9, 0.999, 1.0, 1.0 + 1e-13]
            levels += rng.uniform(lo, 1.0, size=10).tolist()
            for accuracy in levels:
                if accuracy < lo - 1e-12:
                    continue
                for style, target in [("uniform", None), ("biased", None)] + [
                    ("biased", t) for t in range(k)
                ]:
                    got = confusion_for_accuracy(scheme, accuracy, style, target).rows
                    want = _confusion_by_tuples(scheme, accuracy, style, target)
                    assert [[x.hex() for x in r] for r in got] == [
                        [x.hex() for x in r] for r in want
                    ]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_accuracy_and_entries_rejected(bad):
    with pytest.raises(AccuracyOutOfRange):
        confusion_for_accuracy(G4, bad)
    with pytest.raises(ValueError, match="finite"):
        ConfusionMatrix(G2, ((bad, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="finite"):
        simulate.TestbedConfig(grade_probs=(bad, 0.5, 0.5))


def test_nan_level_rejected_before_any_cell():
    bed = generate_testbed(SMALL)
    with pytest.raises(AccuracyOutOfRange):
        accuracy_sweep(bed, [math.nan, 1.0], trials=1)
