"""Summarize or compare sets of benchmark records written by ``run.py --record``.

    python3 perfbench/compare.py --summary RECORD...       # medians and quartiles
    python3 perfbench/compare.py --base RECORD... --new RECORD...

A record file holds one run's results. The summary groups runs by workload,
traced runs apart. For a comparison, untraced runs pair up by (workload, seed);
two sets are compared only when every pair read the same input digest and
parameters, so both sides provably measured the same bytes. For each
end-to-end metric the verdict follows the bound in ``BENCHMARK.json``:
``regression`` when the new median is worse by more than the bound,
``unresolved`` when the base runs themselves spread wider than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: list[str], traced: bool = False) -> dict[tuple[str, int], dict]:
    """Runs keyed by (workload, seed); traced ones keyed "<workload> traced"."""
    runs = {}
    for path in paths:
        for result in json.loads(Path(path).read_text(encoding="utf-8")):
            if result["trace"] and not traced:
                continue
            name = result["workload"] + (" traced" if result["trace"] else "")
            runs[(name, result["seed"])] = result
    return runs


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def summarize(runs: dict[tuple[str, int], dict]) -> dict:
    workloads: dict[str, dict] = {}
    for (workload, seed), result in sorted(runs.items()):
        entry = workloads.setdefault(workload, {"seeds": [], "digests": {}, "params": result["params"],
                                                "attempted": 0, "failed": 0, "values": {}})
        entry["seeds"].append(seed)
        entry["digests"][str(seed)] = result["digest"]
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        for name, (value, unit, _, _) in result["metrics"].items():
            entry["values"].setdefault(name, (unit, []))[1].append(value)
    for entry in workloads.values():
        entry["metrics"] = {
            name: {"unit": unit, **spread(values)} for name, (unit, values) in entry.pop("values").items()
        }
    env = next(iter(runs.values()))["env"] if runs else {}
    return {"env": env, "workloads": workloads}


def compare(base: dict, new: dict) -> int:
    pairs = sorted(set(base) & set(new))
    if not pairs:
        print("no (workload, seed) pair is in both sets", file=sys.stderr)
        return 2
    mismatched = [
        k for k in pairs if (base[k]["digest"], base[k]["params"]) != (new[k]["digest"], new[k]["params"])
    ]
    if mismatched:
        for workload, seed in mismatched:
            print(f"refused: {workload} seed {seed} read different inputs "
                  f"({base[(workload, seed)]['digest'][:12]} vs {new[(workload, seed)]['digest'][:12]})",
                  file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}
    a = summarize({k: base[k] for k in pairs})["workloads"]
    b = summarize({k: new[k] for k in pairs})["workloads"]
    worse = 0
    print(f"{'workload':16s} {'metric':15s} {'base':>12s} {'new':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in sorted(a):
        print(f"{workload:16s} failed ops: base {a[workload]['failed']}/{a[workload]['attempted']}, "
              f"new {b[workload]['failed']}/{b[workload]['attempted']}")
        for name, m in spec.items():
            old, cur = a[workload]["metrics"][name], b[workload]["metrics"][name]
            change = (cur["median"] - old["median"]) / old["median"]
            if (change if m["better"] == "lower" else -change) > m["bound"]:
                verdict = "regression"
                worse += 1
            elif old["spread"] > m["bound"] and name != "setup_s":
                verdict = "unresolved"
            else:
                verdict = "no regression"
            print(f"{workload:16s} {name:15s} {old['median']:12.6g} {cur['median']:12.6g} "
                  f"{change:+8.2%} {m['bound']:6.2f}  {verdict}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", nargs="+", metavar="RECORD")
    parser.add_argument("--base", nargs="+", metavar="RECORD")
    parser.add_argument("--new", nargs="+", metavar="RECORD")
    args = parser.parse_args(argv)
    if args.summary:
        print(json.dumps(summarize(load(args.summary, traced=True)), indent=1, sort_keys=True))
        return 0
    if args.base and args.new:
        return compare(load(args.base), load(args.new))
    parser.error("give --summary, or both --base and --new")
    return 2


if __name__ == "__main__":
    sys.exit(main())
