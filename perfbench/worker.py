"""Child process of the benchmark; ``run.py`` starts it, a user need not.

``python3 perfbench/worker.py inproc SPEC_JSON`` runs one in-process
workload (``sweep-default`` or ``metrics-breadth``): it sets up the inputs,
repeats the operation for the time budget, checks every result against
``oracles`` and writes a JSON result to ``SPEC["out"]``. With
``SPEC["trace"]`` it runs the untraced operations first, then installs the
tracer and repeats set-up once and the operation for the rest of the budget.

``python3 perfbench/worker.py cli SUMMARY_OUT SPANS_OUT -- ARGS...`` runs
the rankfair CLI with ``ARGS`` under the tracer and writes the spans and
their summary when the command ends; its exit code is the CLI's.

Both modes import rankfair from the ``PYTHONPATH`` the parent set.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import random
import sys
from time import perf_counter

import oracles
from tracer import Tracer, summarize

EVERYWHERE = [(float("-inf"), float("inf"))]


def stamp() -> dict:
    """Versions, and the file ``import rankfair`` resolves to on this path."""
    import importlib.util

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rankfair_file": os.path.abspath(importlib.util.find_spec("rankfair").origin),
    }


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, name, thread, t0, t1, cpu, error, extra in spans:
            fh.write(
                json.dumps(
                    {"id": span_id, "parent": parent, "name": name, "thread": thread,
                     "start": t0, "end": t1, "cpu": cpu, "error": error, "extra": extra}
                )
                + "\n"
            )


def digest_inputs(table, qrels, runset, params: dict) -> str:
    """sha256 over the parameters and every input the operation reads."""
    h = hashlib.sha256(json.dumps(params, sort_keys=True).encode())
    for name in table.scheme_names:
        scheme = table.scheme(name)
        h.update(repr((name, scheme.groups, scheme.unknown_index)).encode())
        docs = table.docs(name)
        h.update("".join(f"{d}\t{docs[d].weights!r}\n" for d in sorted(docs)).encode())
    for qid in qrels.queries:
        grades = qrels.grades(qid)
        h.update("".join(f"{qid} {d} {grades[d]}\n" for d in sorted(grades)).encode())
    for r in runset.rankings():
        h.update(f"{r.system_tag} {r.query_id} {r.entries!r}\n".encode())
    return h.hexdigest()


def copy_table(table):
    """The same memberships in a new table object, so no per-table cache
    carries over from one operation to the next, as in a fresh user run."""
    from rankfair import core

    names = table.scheme_names
    return core.GroupMembershipTable(
        [table.scheme(n) for n in names], {n: table.docs(n) for n in names}, table.provenance
    )


def levels_above_floor(groups: int) -> list[float]:
    """The default sweep levels that are valid accuracies for ``groups``."""
    return [a for a in (0.25, 0.4, 0.55, 0.7, 0.8, 0.9, 1.0) if a >= 1.0 / groups - 1e-12]


class SweepDefault:
    """``accuracy_sweep`` with hard uniform corruption and a thread pool."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.levels = levels_above_floor(spec["groups"])
        self.workers = min(2, os.cpu_count() or 1)
        self.params = {
            "queries": spec["queries"], "docs": spec["docs"], "groups": spec["groups"],
            "systems": spec["systems"], "seed": spec["seed"], "levels": self.levels,
            "trials": spec["trials"], "workers": self.workers, "style": "uniform",
        }

    def setup(self) -> None:
        from rankfair import simulate

        s = self.spec
        self.bed = None  # each set-up starts with the previous inputs freed
        self.bed = simulate.generate_testbed(
            simulate.TestbedConfig(
                n_queries=s["queries"], docs_per_query=s["docs"], n_groups=s["groups"],
                n_systems=s["systems"], seed=s["seed"],
            )
        )

    def digest(self) -> str:
        return digest_inputs(self.bed.table, self.bed.qrels, self.bed.runset, self.params)

    def fresh(self) -> None:
        self.inputs = self.bed._replace(table=copy_table(self.bed.table))

    def op(self):
        from rankfair import simulate

        return simulate.accuracy_sweep(
            self.inputs, self.levels, self.spec["trials"], seed=self.spec["seed"],
            workers=self.workers, style="uniform",
        )

    def check(self, result) -> tuple[int, str | None]:
        """Returns (ranking evaluations done, error or None).

        At accuracy 1.0 the corrupted table equals the truth, so r and rho
        are exactly 1. Mean r may not drop by more than 0.02 from one level
        to the next among levels above chance (1/k): at chance the labels
        are independent of the truth and r has no expected order. The trend
        is statistical: it is checked on the full-size testbed only, since
        with one trial on a smoke-size testbed r is mostly noise.
        """
        n_queries = self.spec["queries"]
        for t in result.trials:
            if t.query_count + t.query_skipped != n_queries:
                return 0, f"trial at {t.accuracy} covers {t.query_count}+{t.query_skipped} queries"
            if t.accuracy == 1.0 and (t.pearson.coefficient != 1.0 or t.spearman.coefficient != 1.0):
                return 0, f"r={t.pearson.coefficient!r} rho={t.spearman.coefficient!r} at accuracy 1.0"
        if sorted(t.accuracy for t in result.trials) != sorted(
            a for a in self.levels for _ in range(self.spec["trials"])
        ):
            return 0, "trials do not cover every level"
        evaluations = (1 + len(result.trials)) * self.spec["systems"] * n_queries
        if not self.spec["trend_check"]:
            return evaluations, None
        chance = 1.0 / self.spec["groups"]
        above = [s for s in result.summary if s.accuracy > chance + 1e-12]
        for lo, hi in zip(above, above[1:]):
            if hi.pearson_r < lo.pearson_r - 0.02:
                return 0, f"mean r dropped {lo.pearson_r:.4f} -> {hi.pearson_r:.4f} at {hi.accuracy}"
        return evaluations, None


class MetricsBreadth:
    """Two schemes (one soft), their intersection, KL, graded targets, EE."""

    SAMPLES = 20
    TOL = 1e-12

    def __init__(self, spec: dict):
        self.spec = spec
        self.params = {
            "queries": spec["queries"], "docs": spec["docs"], "groups": spec["groups"],
            "systems": spec["systems"], "seed": spec["seed"], "region_alpha": [2.0, 1.0, 1.0, 0.5],
            "unannotated": 0.1, "attention": "log", "cutoff": 100, "divergence": "kl",
            "target": "qrels-graded", "fallback": "uniform",
        }

    def setup(self) -> None:
        import numpy as np

        from rankfair import core, simulate

        s = self.spec
        self.table = self.qrels = self.runset = None
        bed = simulate.generate_testbed(
            simulate.TestbedConfig(
                n_queries=s["queries"], docs_per_query=s["docs"], n_groups=s["groups"],
                n_systems=s["systems"], seed=s["seed"],
            )
        )
        group = bed.table.scheme(bed.scheme_name)
        region = core.GroupScheme("region", ("north", "south", "east", "unknown"), unknown_index=3)
        docs = bed.table.docs(group.name)
        ids = sorted(docs)
        rng = np.random.default_rng([s["seed"], 2])
        rows = rng.dirichlet(self.params["region_alpha"], size=len(ids)).tolist()
        keep_group = (rng.random(len(ids)) >= self.params["unannotated"]).tolist()
        keep_region = (rng.random(len(ids)) >= self.params["unannotated"]).tolist()
        group_docs = {d: docs[d] for d, keep in zip(ids, keep_group) if keep}
        region_docs = {
            d: core.MembershipVector(region, tuple(row))
            for d, row, keep in zip(ids, rows, keep_region)
            if keep
        }
        self.table = core.GroupMembershipTable(
            [group, region], {group.name: group_docs, "region": region_docs}, provenance="synthetic"
        )
        self.qrels, self.runset = bed.qrels, bed.runset
        self.schemes = [group.name, "region"]

    def digest(self) -> str:
        return digest_inputs(self.table, self.qrels, self.runset, self.params)

    def fresh(self) -> None:
        self.op_table = copy_table(self.table)

    def _config(self):
        from rankfair import core, exposure, metrics

        return metrics.MetricConfig(
            attention=exposure.AttentionModel.log_discount(cutoff=100),
            divergence="kl",
            target="qrels-graded",
            fallback=core.MissingPolicy.UNIFORM,
            include_overall=True,
        )

    def op(self):
        from rankfair import core, exposure, metrics

        config = self._config()
        table = self.op_table
        reports = metrics.evaluate_runset(self.runset, self.qrels, table, self.schemes, config)
        systems = self.runset.systems
        ee = {}
        for qid in self.qrels.queries:
            if not self.qrels.relevant(qid):
                continue
            sequence = core.RankingSequence(qid, tuple(self.runset.get(s, qid) for s in systems))
            for name in self.schemes:
                gamma = exposure.expected_group_exposure(
                    sequence, table, name, config.attention, config.fallback
                )
                target = exposure.target_group_exposure(
                    self.qrels, qid, table, name, config.attention, config.fallback
                )
                ee[(qid, name)] = (metrics.ee_metrics(gamma, target), target.masses)
        return reports, ee

    def _oracle_inputs(self):
        if hasattr(self, "_members"):
            return
        self._members = {
            name: {d: tuple(v.weights) for d, v in self.table.docs(name).items()}
            for name in self.schemes
        }
        systems = self.runset.systems
        queries = [q for q in self.qrels.queries if self.qrels.relevant(q)]
        metric_names = [f"awrf:{n}" for n in self.schemes] + ["awrf:overall"]
        rng = random.Random(self.spec["seed"])
        self._samples = [
            (rng.choice(systems), rng.choice(queries), rng.choice(metric_names))
            for _ in range(self.SAMPLES)
        ]
        self._expected = {key: self._oracle_awrf(*key) for key in self._samples}

    def _oracle_awrf(self, system: str, qid: str, metric: str) -> float:
        group, region = (self._members[n] for n in self.schemes)
        kg = self.table.scheme(self.schemes[0]).k
        kr = self.table.scheme("region").k
        if metric == f"awrf:{self.schemes[0]}":
            k, member = kg, lambda d: oracles.membership(group, d, kg)
        elif metric == "awrf:region":
            k, member = kr, lambda d: oracles.membership(region, d, kr)
        else:
            k = kg * kr
            member = lambda d: oracles.product(  # noqa: E731
                oracles.membership(group, d, kg), oracles.membership(region, d, kr)
            )
        ranked = [d for d, _ in self.runset.get(system, qid).entries]
        weights = oracles.attention("log", len(ranked), cutoff=100)
        observed = oracles.exposure_distribution(ranked, member, k, weights)
        relevant = sorted(self.qrels.relevant(qid).items())
        target = oracles.qrels_target(relevant, member, k, graded=True)
        return oracles.kl_smoothed(observed, target, 1e-10)

    def check(self, result) -> tuple[int, str | None]:
        """Sampled AWRF values against the fsum oracle, and the EE identity
        EE-L = EE-D + ||target||^2 - EE-R on every (query, scheme)."""
        self._oracle_inputs()
        reports, ee = result
        for system, qid, metric in self._samples:
            got = reports[system].per_query[qid][metric]
            want = self._expected[(system, qid, metric)]
            if abs(got - want) > self.TOL:
                return 0, f"{metric} for ({system}, {qid}) is {got!r}, oracle {want!r}"
        for (qid, name), (triple, target) in ee.items():
            norm = math.fsum(t * t for t in target)
            gap = triple.ee_l - (triple.ee_d + norm - triple.ee_r)
            if abs(gap) > self.TOL:
                return 0, f"EE identity off by {gap!r} for ({qid}, {name})"
        n_queries = sum(1 for q in self.qrels.queries if self.qrels.relevant(q))
        if len(ee) != n_queries * len(self.schemes):
            return 0, f"EE covers {len(ee)} (query, scheme) pairs"
        evaluations = sum(len(row) for r in reports.values() for row in r.per_query.values())
        return evaluations + len(ee) * len(self.runset.systems), None


WORKLOADS = {"sweep-default": SweepDefault, "metrics-breadth": MetricsBreadth}


def run_ops(workload, until: float, windows: list | None = None) -> list[dict]:
    """Repeat the operation until ``until`` (at least once), checking each.
    Every operation gets fresh input objects, set up outside the timing, and
    starts from an emptied garbage collector, so that no operation pays for
    the garbage of the one before it."""
    ops = []
    while not ops or perf_counter() < until:
        workload.fresh()
        gc.collect()
        t0 = perf_counter()
        try:
            out = workload.op()
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if out is not None:
            try:
                evaluations, error = workload.check(out)
            except Exception as exc:  # malformed output
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            evaluations = 0
        out = None
        if windows is not None:
            windows.append((t0, t1))
        ops.append({"wall_s": t1 - t0, "evaluations": evaluations, "error": error})
    return ops


def timed_setup(workload) -> float:
    gc.collect()
    t0 = perf_counter()
    workload.setup()
    return perf_counter() - t0


def inproc(spec: dict) -> None:
    workload = WORKLOADS[spec["workload"]](spec)
    setups = [timed_setup(workload) for _ in range(spec["setup_reps"])]
    result = {"stamp": stamp(), "params": workload.params, "digest": workload.digest(),
              "setup_s": setups}
    start = perf_counter()
    budget = spec["seconds"]
    if not spec["trace"]:
        result["ops"] = run_ops(workload, start + budget)
    else:
        result["ops"] = run_ops(workload, start + budget / 2)
        tracer = Tracer()
        tracer.install()
        traced_setup = timed_setup(workload)
        setup_spans, tracer.spans = tracer.spans, []
        windows: list = []
        traced = run_ops(workload, start + budget, windows)
        op_spans = tracer.spans
        write_spans(spec["spans_out"], setup_spans + op_spans)
        result.update(
            traced_setup_s=[traced_setup],
            traced_ops=traced,
            layers={
                "setup": summarize(setup_spans, EVERYWHERE),
                "ops": summarize(op_spans, windows, getattr(workload, "workers", 1)),
                "missing": tracer.missing,
            },
        )
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def traced_cli(summary_out: str, spans_out: str, args: list[str]) -> int:
    t0 = perf_counter()
    import rankfair.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        rankfair.cli.main(args=args, prog_name="rankfair", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    t1 = perf_counter()
    write_spans(spans_out, tracer.spans)
    dump_s = perf_counter() - t1
    with open(summary_out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": import_s,
                "dump_s": dump_s,
                "summary": summarize(tracer.spans, EVERYWHERE),
                "missing": tracer.missing,
            },
            fh,
        )
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["inproc"] and len(argv) == 2:
        inproc(json.loads(argv[1]))
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 4 and argv[3] == "--":
        return traced_cli(argv[1], argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
