"""Write a fixed set of rankfair inputs and outputs, to show that a change
leaves every output byte as it was.

    PYTHONPATH=src python3 tools/output_fixtures.py OUT_DIR [--small]

The rankfair on the path generates the inputs and runs every command on
them, each as ``python -m rankfair.cli`` inside OUT_DIR with relative
paths, so nothing written depends on where OUT_DIR is. Run it under two
trees into two directories, then compare them byte for byte (``diff -r``
runs ``cmp`` on every pair of files) and value by value:

    diff -r A B
    for d in A/reports/*; do
      [ "${d##*/}" = sample ] && continue   # .txt only; diff -r compares it
      python3 tools/diff_reports.py --tol 0 "$d" "B/reports/${d##*/}"
    done

Inputs: the default testbed from ``gen-testbed --seed 0`` with an
80%-accurate hard-label model file (5% of documents left out, the rule of
the benchmark's compare-cli workload), a copy of its run file without some
rankings (so some systems miss some queries), criterion 9's fixture, and a
two-scheme soft fixture as JSONL and TSV. Outputs, one directory each under
``reports/``: ``evaluate`` with three flag sets on the testbed and one each
on the other fixtures, ``compare`` with two flag sets, with
``--exclude-missing`` on the copy, with the copy as ``runs_b`` and on
criterion 9's fixture, ``sweep`` from files, from criterion 9's config with
1 and 4 workers and on a synthetic testbed, and ``sample``.
``--small`` uses a 5 x 100 x 3 x 30 testbed instead of the default one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import rankfair

SMALL = ["--queries", "5", "--docs", "100", "--groups", "3", "--systems", "30"]


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def write_model(human: Path, out: Path, groups: list[str], seed: int) -> None:
    """Hard labels right 80% of the time, with 5% of documents left out."""
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
    lines = [
        f"{doc}\tgroup\t{groups[truth if ok else (truth + step) % k]}:1.0\n"
        for (doc, truth), kept, ok, step in zip(rows, keep.tolist(), right.tolist(), shift.tolist())
        if kept
    ]
    out.write_text("".join(lines), encoding="utf-8")


def drop_rankings(runs: Path, out: Path) -> None:
    """The run file without every 97th of its (query, system) rankings,
    counted from the 8th, so that some systems miss some queries."""
    lines = runs.read_text(encoding="utf-8").splitlines(keepends=True)
    keys = [(fields[0], fields[5]) for fields in map(str.split, lines)]
    gone = set(list(dict.fromkeys(keys))[7::97])
    kept = [line for line, key in zip(lines, keys) if key not in gone]
    out.write_text("".join(kept), encoding="utf-8")


def soft_rows(docs: list[str]) -> list[tuple[str, str, dict[str, float]]]:
    """(doc, scheme, weights) of two soft schemes, some documents left out of
    each; ``tone`` has an unknown group."""
    rng = np.random.default_rng(7)
    rows = []
    for doc in docs:
        kind, p = int(rng.integers(0, 4)), round(float(rng.random()), 3)
        pair = [{"a": 0.7, "b": 0.3}, {"a": -0.0, "b": 2.5}, {"a": p, "b": 1 - p}, None][kind]
        if pair is not None:
            rows.append((doc, "pair", pair))
        kind = int(rng.integers(0, 4))
        tone = [{"x": 1.0}, {"unknown": 1.0}, {"x": 0.25, "y": 0.25, "unknown": 0.5}, None][kind]
        if tone is not None:
            rows.append((doc, "tone", tone))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--small", action="store_true", help="Use a 5 x 100 x 3 x 30 testbed.")
    args = parser.parse_args(argv)
    root = args.out_dir
    root.mkdir(parents=True, exist_ok=True)
    src = Path(rankfair.__file__).resolve().parent.parent
    path = [str(src), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    print(f"rankfair from {src}", file=sys.stderr)

    def cli(*cmd: str) -> None:
        subprocess.run([sys.executable, "-m", "rankfair.cli", *cmd], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL)

    def report(name: str, *cmd: str) -> None:
        cli(*cmd, "--out", f"reports/{name}")
        print(f"reports/{name}")

    # the default (or small) testbed and its model file
    cli("gen-testbed", "--seed", "0", *(SMALL if args.small else []), "--out", "testbed")
    scheme = json.loads((root / "testbed/scheme.json").read_text(encoding="utf-8"))
    write_json(root / "testbed/config.json", {"schemes": [scheme]})
    write_model(root / "testbed/annotations.tsv", root / "testbed/model.tsv", scheme["groups"], 0)
    drop_rankings(root / "testbed/runs.txt", root / "testbed/runs_missing.txt")
    write_json(root / "testbed/config_runs_b.json",
               {"schemes": [scheme], "runs_b": ["testbed/runs_missing.txt"]})
    inputs = ["--qrels", "testbed/qrels.txt", "--annotations", "testbed/annotations.tsv"]
    bed = ["--config", "testbed/config.json", "--runs", "testbed/runs.txt", *inputs]

    # criterion 9's fixture
    cli("gen-testbed", "--queries", "4", "--docs", "50", "--groups", "4", "--systems", "6",
        "--seed", "9", "--out", "crit9")
    human = (root / "crit9/annotations.tsv").read_text(encoding="utf-8")
    corrupted = human.replace("g0:1.0", "g1:1.0", 20)
    (root / "crit9/annotations_b.tsv").write_text(corrupted, encoding="utf-8")
    crit9 = {
        "schemes": [{"name": "group", "groups": ["g0", "g1", "g2", "g3"]}],
        "runs": "crit9/runs.txt",
        "qrels": "crit9/qrels.txt",
        "annotations": "crit9/annotations.tsv",
        "annotations_b": "crit9/annotations_b.tsv",
        "seed": 0,
        "testbed": {"queries": 4, "docs_per_query": 50, "groups": 4, "systems": 6,
                    "spread": 1.0, "seed": 9},
        "sweep": {"levels": [0.5, 1.0], "trials": 2, "workers": 1},
    }
    write_json(root / "crit9/config.json", crit9)
    write_json(root / "crit9/config4.json", {**crit9, "sweep": {**crit9["sweep"], "workers": 4}})
    synthetic = {k: crit9[k] for k in ("schemes", "seed", "testbed", "sweep")}
    write_json(root / "crit9/synthetic.json", synthetic)

    # a two-scheme soft fixture on criterion 9's documents
    (root / "soft").mkdir(exist_ok=True)
    rows = soft_rows(sorted({line.split("\t")[0] for line in human.splitlines()}))
    (root / "soft/annotations.jsonl").write_text(
        "".join(json.dumps({"doc": d, "scheme": s, "weights": w}) + "\n" for d, s, w in rows),
        encoding="utf-8",
    )
    (root / "soft/annotations.tsv").write_text(
        "".join(f"{d}\t{s}\t" + ",".join(f"{k}:{v!r}" for k, v in w.items()) + "\n"
                for d, s, w in rows),
        encoding="utf-8",
    )
    soft = {
        "schemes": [{"name": "pair", "groups": ["a", "b"]},
                    {"name": "tone", "groups": ["x", "y", "unknown"], "unknown": "unknown"}],
        "runs": "crit9/runs.txt",
        "qrels": "crit9/qrels.txt",
        "annotations": "soft/annotations.jsonl",
        "annotation_format": "jsonl",
    }
    write_json(root / "soft/config.json", soft)
    write_json(root / "soft/config_tsv.json",
               {**soft, "annotations": "soft/annotations.tsv", "annotation_format": "tsv"})

    report("evaluate-js", "evaluate", *bed)
    report("evaluate-kl-graded-cutoff20", "evaluate", *bed, "--divergence", "kl",
           "--target-mode", "graded", "--cutoff", "20")
    report("evaluate-uniform-p0.8-complement", "evaluate", *bed, "--target", "uniform",
           "--patience", "0.8", "--complement")
    report("compare", "compare", *bed, "--annotations-b", "testbed/model.tsv")
    report("compare-complement-cutoff50", "compare", *bed, "--annotations-b", "testbed/model.tsv",
           "--complement", "--cutoff", "50")
    report("compare-exclude-missing", "compare", "--config", "testbed/config.json",
           "--runs", "testbed/runs_missing.txt", *inputs, "--annotations-b", "testbed/model.tsv",
           "--exclude-missing")
    report("compare-runs-b", "compare", "--config", "testbed/config_runs_b.json",
           "--runs", "testbed/runs.txt", *inputs, "--annotations-b", "testbed/model.tsv")
    report("sweep-files", "sweep", *bed, "--levels", "0.4,0.55,0.7,0.8,0.9,1.0", "--trials", "2")
    report("sample", "sample", "--config", "testbed/config.json",
           "--annotations", "testbed/annotations.tsv", "--train", "50", "--test", "10")
    report("crit9-evaluate", "evaluate", "--config", "crit9/config.json")
    report("crit9-compare", "compare", "--config", "crit9/config.json")
    report("crit9-sweep", "sweep", "--config", "crit9/config.json")
    report("crit9-sweep-workers4", "sweep", "--config", "crit9/config4.json")
    report("sweep-synthetic-biased", "sweep", "--config", "crit9/synthetic.json",
           "--style", "biased")
    report("soft-evaluate-jsonl", "evaluate", "--config", "soft/config.json")
    report("soft-evaluate-tsv", "evaluate", "--config", "soft/config_tsv.json")
    report("soft-evaluate-all-unknown", "evaluate", "--config", "soft/config.json",
           "--scheme", "tone", "--fallback", "all-unknown", "--target", "uniform")
    return 0


if __name__ == "__main__":
    sys.exit(main())
