"""rankfair benchmark: three batch workloads, measured from outside the package.

Run from the root of a rankfair checkout; the program under test is the
``src/rankfair`` of that checkout, imported through ``PYTHONPATH``::

    python3 perfbench/run.py --workload all --seed 0 --seconds 30
    python3 perfbench/run.py --workload compare-cli --seed 3 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

Workloads (default testbed: 50 queries x 1000 docs x 4 groups x 30 systems):

* ``sweep-default``: ``accuracy_sweep`` over the 7 default levels, one
  trial per level, hard uniform corruption, ``min(2, nproc)`` threads. The
  headline workload, and the only one that runs the thread pool.
* ``compare-cli``: ``python -m rankfair.cli compare`` on ``gen-testbed``
  files against a model annotation file written here (80% accurate hard
  labels, 5% of documents dropped). The real CLI path: start-up and ingest.
* ``metrics-breadth``: in-process ``evaluate_runset`` with a second, soft
  scheme (10% of documents unannotated in both), the intersection, KL,
  graded targets and log attention cut at 100, then EE per query.

``BENCHMARK.json`` gates only the first two. metrics-breadth runs one
thread for about 3.5 s an operation, and on a 2-vCPU VM whose core speed
drifts over minutes its per-run medians spread 17-19% between quartiles in
two sets of ten runs and up to 37% in others, too close to or past the 25%
bound to gate on; it stays here for the layers only it reaches
(``intersect_tables``, EE) and for ``--smoke``.

Every operation runs in a fresh child process and is checked against the
pure-Python oracles in ``oracles.py``; a raising, non-zero-exiting or wrong
operation counts as failed. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``rankings_per_s``,
``peak_rss_mb``, ``setup_s``); with ``--trace 1`` they are the per-layer
ones, from spans that ``tracer.py`` records around rankfair's functions
(the spans themselves go to ``.perfbench/trace/``). ``--record FILE``
also writes the full record: samples, input digest, parameters and the
environment; ``compare.py`` compares two sets of records.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import oracles

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-default", "compare-cli", "metrics-breadth")
FULL = {"queries": 50, "docs": 1000, "groups": 4, "systems": 30}
SMOKE = {"queries": 5, "docs": 100, "groups": 3, "systems": 30}
SETUP_REPS = 5
TRIALS_PER_LEVEL = 1
RUN_TIMEOUT_S = 170.0
COMPARE_SAMPLES = 5
COMPARE_TOL = 1e-9

#: (name, unit) of the per-layer metrics, in report order.
LAYER_METRICS = (
    ("ingest.parse_run_s", "s"),
    ("ingest.parse_annotations_s", "s"),
    ("ingest.parse_qrels_s", "s"),
    ("ingest.input_mb", "MB"),
    ("ingest.write_s", "s"),
    ("core.matrix_pack_s", "s"),
    ("core.matrix_packs", "count"),
    ("core.intersect_tables_s", "s"),
    ("exposure.cumulative_s", "s"),
    ("exposure.cumulative_calls", "count"),
    ("exposure.positions", "count"),
    ("exposure.target_s", "s"),
    ("exposure.target_calls", "count"),
    ("exposure.ee_s", "s"),
    ("metrics.evaluate_runset_s", "s"),
    ("metrics.awrf_self_s", "s"),
    ("metrics.divergence_s", "s"),
    ("metrics.divergence_calls", "count"),
    ("metrics.serialize_s", "s"),
    ("simulate.apply_confusion_s", "s"),
    ("simulate.apply_confusion_calls", "count"),
    ("simulate.generate_testbed_s", "s"),
    ("simulate.parallel_eff", "frac"),
    ("stats.pearson_s", "s"),
    ("stats.spearman_s", "s"),
    ("stats.correlation_report_s", "s"),
    ("stats.correlations", "count"),
    ("stats.skipped", "count"),
    ("cli.import_s", "s"),
    ("cli.unaccounted_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
)


#: Per-layer metrics measured during set-up rather than during the operations.
SETUP_LAYER = {"ingest.write_s", "simulate.generate_testbed_s"}


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


# --- child processes ---------------------------------------------------------------


class Child:
    """Outcome of one child process: exit code, wall time and peak RSS."""

    def __init__(self, argv: list[str], root: Path, log: Path, deadline: float):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with open(log, "wb") as out:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.log = log

    def tail(self) -> str:
        lines = self.log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else f"exit code {self.code}"


def python_child(root: Path, log: Path, deadline: float, *args: str) -> Child:
    return Child([sys.executable, *args], root, log, deadline)


def cli_child(root: Path, log: Path, deadline: float, args: list[str],
              trace_files: tuple[Path, Path] | None) -> Child:
    if trace_files is None:
        return python_child(root, log, deadline, "-m", "rankfair.cli", *args)
    summary, spans = trace_files
    return python_child(root, log, deadline, str(HERE / "worker.py"), "cli", str(summary),
                        str(spans), "--", *args)


def environment(root: Path, child_stamp: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    expected = (root / "src" / "rankfair" / "__init__.py").resolve()
    if Path(child_stamp["rankfair_file"]).resolve() != expected:
        raise BenchError(f"measured {child_stamp['rankfair_file']}, not {expected}")
    return {"nproc": os.cpu_count(), "git_sha": sha or "unknown", **child_stamp}


# --- compare-cli -------------------------------------------------------------------


def _sha256_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def write_model_annotations(human: Path, out: Path, groups: list[str], seed: int) -> dict:
    """Hard labels that are right 80% of the time, with 5% of documents left
    out; returns doc id -> label index for the oracle."""
    import numpy as np

    rows = []
    for line in human.read_text(encoding="utf-8").splitlines():
        doc, _, spec = line.split("\t")
        weights = {label: float(w) for label, w in (p.rsplit(":", 1) for p in spec.split(","))}
        rows.append((doc, groups.index(max(weights, key=weights.get))))
    rng = np.random.default_rng([seed, 1])
    n, k = len(rows), len(groups)
    keep = rng.random(n) >= 0.05
    right = rng.random(n) < 0.8
    shift = rng.integers(1, k, size=n)
    labels = {}
    for (doc, truth), kept, ok, step in zip(rows, keep.tolist(), right.tolist(), shift.tolist()):
        if kept:
            labels[doc] = truth if ok else (truth + step) % k
    out.write_text("".join(f"{d}\tgroup\t{groups[g]}:1.0\n" for d, g in labels.items()), encoding="utf-8")
    return labels


class CompareCli:
    """``gen-testbed`` inputs, then ``compare`` as a subprocess per operation."""

    def __init__(self, root: Path, work: Path, spans_dir: Path, sizes: dict, seed: int,
                 deadline: float):
        self.root, self.work, self.spans_dir = root, work, spans_dir
        self.sizes, self.seed, self.deadline = sizes, seed, deadline
        self.params = {**sizes, "seed": seed, "model_accuracy": 0.8, "model_dropped": 0.05,
                       "command": "compare", "fallback": "uniform"}
        self.count = 0
        self.inputs = self.expected = None

    def _next(self, stem: str) -> Path:
        self.count += 1
        return self.work / f"{stem}{self.count}"

    def setup(self, traced: bool) -> tuple[float, dict | None]:
        s = self.sizes
        out = self._next("inputs")
        trace_files = (self._next("gen-summary"), self._next("gen-spans")) if traced else None
        t0 = perf_counter()
        child = cli_child(
            self.root, self._next("gen-log"), self.deadline,
            ["gen-testbed", "--seed", str(self.seed), "--queries", str(s["queries"]),
             "--docs", str(s["docs"]), "--groups", str(s["groups"]),
             "--systems", str(s["systems"]), "--out", str(out)],
            trace_files,
        )
        if child.code != 0:
            raise BenchError(f"gen-testbed failed: {child.tail()}")
        scheme = json.loads((out / "scheme.json").read_text(encoding="utf-8"))
        (out / "config.json").write_text(json.dumps({"schemes": [scheme]}), encoding="utf-8")
        self.model = write_model_annotations(
            out / "annotations.tsv", out / "model.tsv", scheme["groups"], self.seed
        )
        elapsed = perf_counter() - t0
        if self.inputs is not None:
            shutil.rmtree(self.inputs)
        self.inputs, self.groups, self.metric = out, scheme["groups"], f"awrf:{scheme['name']}"
        summary = None
        if traced:
            summary = json.loads(trace_files[0].read_text(encoding="utf-8"))
            shutil.move(str(trace_files[1]), str(self.spans_dir / f"setup{self.count}.jsonl"))
        return elapsed, summary

    def input_files(self) -> list[Path]:
        return [self.inputs / n for n in ("runs.txt", "annotations.tsv", "model.tsv", "qrels.txt")]

    def digest(self) -> str:
        h = hashlib.sha256(json.dumps(self.params, sort_keys=True).encode())
        h.update(_sha256_files(self.input_files() + [self.inputs / "config.json"]).encode())
        return h.hexdigest()

    def op(self, traced: bool) -> tuple[Child, Path, dict | None]:
        out = self._next("out")
        runs, human, model, qrels = self.input_files()
        trace_files = (self._next("summary"), self._next("spans")) if traced else None
        child = cli_child(
            self.root, self._next("log"), self.deadline,
            ["compare", "--config", str(self.inputs / "config.json"), "--runs", str(runs),
             "--qrels", str(qrels), "--annotations", str(human),
             "--annotations-b", str(model), "--out", str(out)],
            trace_files,
        )
        summary = None
        if traced and trace_files[0].exists():
            summary = json.loads(trace_files[0].read_text(encoding="utf-8"))
            shutil.move(str(trace_files[1]), str(self.spans_dir / f"op{self.count}.jsonl"))
        return child, out, summary

    # The oracle: per-query Pearson r recomputed from the files in plain Python.

    def _oracle(self) -> dict:
        if self.expected is not None:
            return self.expected
        k = len(self.groups)
        qrels: dict[str, list[tuple[str, int]]] = {}
        for line in (self.inputs / "qrels.txt").read_text(encoding="utf-8").splitlines():
            qid, _, doc, grade = line.split()
            if int(grade) > 0:
                qrels.setdefault(qid, []).append((doc, int(grade)))
        self.n_queries = len(qrels)
        sample = random.Random(self.seed).sample(sorted(qrels), min(COMPARE_SAMPLES, len(qrels)))
        human = {}
        for line in (self.inputs / "annotations.tsv").read_text(encoding="utf-8").splitlines():
            doc, _, spec = line.split("\t")
            raw = [0.0] * k
            for part in spec.split(","):
                label, weight = part.rsplit(":", 1)
                raw[self.groups.index(label)] = float(weight)
            total = sum(raw)
            human[doc] = tuple(w / total for w in raw)
        model = {d: tuple(1.0 if i == g else 0.0 for i in range(k)) for d, g in self.model.items()}
        ranked: dict[tuple[str, str], list[tuple[int, str]]] = {}
        wanted = set(sample)
        with open(self.inputs / "runs.txt", encoding="utf-8") as fh:
            for line in fh:
                qid, _, doc, rank, _, tag = line.split()
                if qid in wanted:
                    ranked.setdefault((tag, qid), []).append((int(rank), doc))
        systems = sorted({tag for tag, _ in ranked})
        self.n_systems = len(systems)
        expected = {}
        for qid in sample:
            scores = []
            for docs in (human, model):
                member = lambda d, docs=docs: oracles.membership(docs, d, k)  # noqa: E731
                target = oracles.qrels_target(sorted(qrels[qid]), member, k, graded=False)
                row = []
                for tag in systems:
                    order = [d for _, d in sorted(ranked[(tag, qid)], key=lambda t: t[0])]
                    weights = oracles.attention("geometric", len(order), patience=0.5)
                    row.append(oracles.js(oracles.exposure_distribution(order, member, k, weights), target))
                scores.append(row)
            expected[qid] = oracles.pearson_r(*scores)
        self.expected = expected
        return expected

    def check(self, child: Child, out: Path) -> tuple[int, str | None]:
        """Exit 0, one system row, one row or skip per query, and sampled
        per-query r equal to the oracle's within ``COMPARE_TOL``."""
        if child.code != 0:
            return 0, f"compare exited {child.code}: {child.tail()}"
        expected, metric = self._oracle(), self.metric
        with open(out / "correlation_system.csv", encoding="utf-8", newline="") as fh:
            system_rows = list(csv.DictReader(fh))
        with open(out / "correlation_query.csv", encoding="utf-8", newline="") as fh:
            query_rows = {r["level"]: r for r in csv.DictReader(fh) if r["metric"] == metric}
        skipped = json.loads((out / "correlation.json").read_text(encoding="utf-8"))["skipped"]
        skipped_queries = {level for level, m in skipped if level.startswith("query:") and m == metric}
        if len(system_rows) != 1 or system_rows[0]["level"] != "system":
            return 0, f"{len(system_rows)} system rows"
        if len(query_rows) + len(skipped_queries) != self.n_queries:
            return 0, f"{len(query_rows)} query rows + {len(skipped_queries)} skipped"
        for qid, want in expected.items():
            level = f"query:{qid}"
            if want is None:
                if level not in skipped_queries:
                    return 0, f"{qid}: oracle is constant but the row was not skipped"
                continue
            if level not in query_rows:
                return 0, f"{qid}: no query row"
            got = float(query_rows[level]["pearson_r"])
            if abs(got - want) > COMPARE_TOL:
                return 0, f"{qid}: pearson_r {got!r}, oracle {want!r}"
        return 2 * self.n_systems * self.n_queries, None


def run_compare_cli(root: Path, work: Path, sizes: dict, seed: int, seconds: float,
                    trace: bool, spans_dir: Path, deadline: float) -> dict:
    bench = CompareCli(root, work, spans_dir, sizes, seed, deadline)
    setups, setup_summaries = [], []
    for _ in range(1 if trace else SETUP_REPS):
        elapsed, summary = bench.setup(traced=trace)
        setups.append(elapsed)
        setup_summaries.append(summary)
    stamp_child = python_child(root, work / "stamp.log", deadline, "-c",
                               f"import json, sys; sys.path.insert(0, {str(HERE)!r}); "
                               "import worker; print(json.dumps(worker.stamp()))")
    if stamp_child.code != 0:
        raise BenchError(f"cannot import rankfair: {stamp_child.tail()}")
    result = {"stamp": json.loads(stamp_child.tail()), "params": bench.params,
              "digest": bench.digest(), "setup_s": setups}
    start = perf_counter()

    def ops(until: float, traced: bool) -> tuple[list[dict], list[dict]]:
        done, summaries = [], []
        while not done or perf_counter() < until:
            child, out, summary = bench.op(traced)
            evaluations, error = bench.check(child, out)
            shutil.rmtree(out, ignore_errors=True)
            done.append({"wall_s": child.wall_s, "evaluations": evaluations, "error": error,
                         "rss_mb": child.rss_mb})
            summaries.append(summary)
        return done, summaries

    result["ops"], _ = ops(start + (seconds / 2 if trace else seconds), traced=False)
    result["rss_children"] = len(result["ops"])
    if trace:
        traced, summaries = ops(start + seconds, traced=True)
        result["traced_ops"] = traced
        usable = [s for s in summaries if s is not None]
        result["layers"] = {
            "setup": merge([s["summary"] for s in setup_summaries]),
            "ops": merge([s["summary"] for s in usable]),
            "missing": usable[0]["missing"] if usable else [],
            "cli": {
                "import_s": [s["import_s"] for s in usable],
                "unaccounted_s": [
                    op["wall_s"] - s["import_s"] - s["dump_s"] - s["summary"]["covered_s"]
                    for op, s in zip(traced, summaries) if s is not None
                ],
            },
            "input_mb": sum(p.stat().st_size for p in bench.input_files()) / 1e6,
        }
        result["layers"]["ops"]["wall_s"] = sum(op["wall_s"] for op in traced)
    return result


# --- in-process workloads ----------------------------------------------------------


def run_inproc(root: Path, work: Path, workload: str, sizes: dict, seed: int,
               seconds: float, trace: bool, spans_dir: Path, deadline: float) -> dict:
    spec = {"workload": workload, **sizes, "seed": seed, "seconds": seconds, "trace": trace,
            "trials": TRIALS_PER_LEVEL, "trend_check": sizes == FULL, "setup_reps": 1 if trace else SETUP_REPS,
            "out": str(work / "result.json"), "spans_out": str(spans_dir / "spans.jsonl")}
    child = python_child(root, work / "worker.log", deadline, str(HERE / "worker.py"), "inproc",
                         json.dumps(spec))
    if child.code != 0:
        raise BenchError(f"{workload} worker failed: {child.tail()}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    for op in result["ops"]:
        op["rss_mb"] = child.rss_mb
    result["rss_children"] = 1
    return result


# --- metrics -----------------------------------------------------------------------


def merge(summaries: list[dict]) -> dict:
    """Add up span summaries taken in different processes."""
    total = {"names": {}, "covered_s": 0.0, "busy_cpu_s": 0.0, "wall_s": 0.0, "workers": 1}
    for s in summaries:
        for name, entry in s["names"].items():
            into = total["names"].setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value
        for key in ("covered_s", "busy_cpu_s", "wall_s"):
            total[key] += s[key]
    return total


def end_to_end(result: dict) -> dict:
    ops = result["ops"]
    good = [op for op in ops if op["error"] is None] or ops
    return {
        "wall_s": (statistics.median(op["wall_s"] for op in good), "s", len(good), "ops"),
        "rankings_per_s": (
            statistics.median(op["evaluations"] / op["wall_s"] for op in good), "1/s", len(good), "ops"
        ),
        "peak_rss_mb": (statistics.median(op["rss_mb"] for op in good), "MB",
                        result["rss_children"], "children"),
        "setup_s": (statistics.median(result["setup_s"]), "s", len(result["setup_s"]), "set-ups"),
    }


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    ops, setup = layers["ops"], layers["setup"]
    n_ops = len(result["traced_ops"])
    n_setups = len(result.get("traced_setup_s", result["setup_s"]))

    def field(summary, names, key, per):
        return sum(summary["names"].get(n, {}).get(key, 0) for n in names) / per

    def self_s(*names):
        return field(ops, names, "self_s", n_ops)

    def calls(*names):
        return field(ops, names, "calls", n_ops)

    pearson = ops["names"].get("stats.pearson", {})
    untraced = statistics.median(op["wall_s"] for op in result["ops"])
    traced = statistics.median(op["wall_s"] for op in result["traced_ops"])
    cli = layers.get("cli", {})
    values = {
        "ingest.parse_run_s": self_s("ingest.parse_run"),
        "ingest.parse_annotations_s": self_s("ingest.parse_annotations"),
        "ingest.parse_qrels_s": self_s("ingest.parse_qrels"),
        "ingest.input_mb": layers.get("input_mb", 0.0),
        "ingest.write_s": field(setup, ["ingest.write"], "self_s", n_setups),
        "core.matrix_pack_s": self_s("core.matrix_pack"),
        "core.matrix_packs": calls("core.matrix_pack"),
        "core.intersect_tables_s": self_s("core.intersect_tables"),
        "exposure.cumulative_s": self_s("exposure.cumulative"),
        "exposure.cumulative_calls": calls("exposure.cumulative"),
        "exposure.positions": field(ops, ["exposure.cumulative"], "extra", n_ops),
        "exposure.target_s": self_s("exposure.target"),
        "exposure.target_calls": calls("exposure.target"),
        "exposure.ee_s": self_s("exposure.ee"),
        "metrics.evaluate_runset_s": field(ops, ["metrics.evaluate_runset"], "total_s", n_ops),
        "metrics.awrf_self_s": self_s("metrics.awrf"),
        "metrics.divergence_s": self_s("metrics.divergence"),
        "metrics.divergence_calls": calls("metrics.divergence"),
        "metrics.serialize_s": self_s("metrics.serialize"),
        "simulate.apply_confusion_s": self_s("simulate.apply_confusion"),
        "simulate.apply_confusion_calls": calls("simulate.apply_confusion"),
        "simulate.generate_testbed_s": field(setup, ["simulate.generate_testbed"], "self_s", n_setups),
        "simulate.parallel_eff": ops["busy_cpu_s"] / (ops["wall_s"] * ops["workers"]),
        "stats.pearson_s": self_s("stats.pearson"),
        "stats.spearman_s": self_s("stats.spearman"),
        "stats.correlation_report_s": self_s("stats.correlation_report"),
        "stats.correlations": (pearson.get("calls", 0) - pearson.get("errors", 0)) / n_ops,
        "stats.skipped": pearson.get("errors", 0) / n_ops,
        "cli.import_s": statistics.mean(cli["import_s"]) if cli.get("import_s") else 0.0,
        "cli.unaccounted_s": statistics.mean(cli["unaccounted_s"]) if cli.get("unaccounted_s") else 0.0,
        "trace.overhead_frac": traced / untraced - 1.0,
        "trace.coverage_frac": ops["covered_s"] / ops["wall_s"],
    }
    return {
        name: (values[name], unit, *((n_setups, "traced set-ups") if name in SETUP_LAYER else (n_ops, "traced ops")))
        for name, unit in LAYER_METRICS
    }


# --- running and reporting ---------------------------------------------------------


def run_workload(root: Path, workload: str, sizes: dict, seed: int, seconds: float, trace: bool) -> dict:
    state = root / ".perfbench"
    work = state / f"work-{workload}-{seed}-{os.getpid()}"
    spans_dir = state / "trace" / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    deadline = perf_counter() + RUN_TIMEOUT_S
    try:
        if workload == "compare-cli":
            result = run_compare_cli(root, work, sizes, seed, seconds, trace, spans_dir, deadline)
        else:
            result = run_inproc(root, work, workload, sizes, seed, seconds, trace, spans_dir, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["env"] = environment(root, result.pop("stamp"))
    attempted = result["ops"] + result.get("traced_ops", [])
    result.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  attempted=len(attempted), failed=sum(op["error"] is not None for op in attempted),
                  errors=sorted({op["error"] for op in attempted if op["error"]}))
    result["metrics"] = per_layer(result) if trace else end_to_end(result)
    return result


def report(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}")
    for name, (value, unit, n, what) in result["metrics"].items():
        print(f"  {name:30s} {value:14.6g} {unit:6s} n={n} {what}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  {'failed_frac':30s} {failed / attempted:14.6g} {'':6s} {failed}/{attempted} ops")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    if result.get("layers", {}).get("missing"):
        print(f"  untraced sites (not found): {', '.join(result['layers']['missing'])}")
    env = result["env"]
    print(f"  inputs sha256 {result['digest']}  params {json.dumps(result['params'], sort_keys=True)}")
    print(f"  env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} git={env['git_sha']} rankfair={env['rankfair_file']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for the operations of one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every workload untraced and traced, one op each")
    parser.add_argument("--record", help="write the full result records to this JSON file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rankfair" / "__init__.py").is_file():
        print(f"perfbench: no src/rankfair under {root}; run from a rankfair checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.smoke:
        plan = [(w, SMOKE, 0.0, t) for w in workloads for t in (False, True)]
    else:
        plan = [(w, FULL, args.seconds, bool(args.trace)) for w in workloads]
    results = []
    try:
        for workload, sizes, seconds, trace in plan:
            results.append(run_workload(root, workload, sizes, args.seed, seconds, trace))
            report(results[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record:
        Path(args.record).write_text(json.dumps(results, indent=1, sort_keys=True), encoding="utf-8")
    metrics = {}
    for r in results:
        prefix = "" if len(plan) == 1 else f"{r['workload']}{'.traced' if r['trace'] else ''}."
        for name, (value, unit, _, _) in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 1 if args.smoke and failed else 0


if __name__ == "__main__":
    sys.exit(main())
