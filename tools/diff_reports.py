"""Compare two report directories value by value.

    python3 tools/diff_reports.py DIR_A DIR_B [--tol 1e-12]

Every ``.csv`` and ``.json`` file present in either directory must be in
both, with the same structure and text; numbers may differ by at most
``--tol`` (absolute). Prints the largest difference per file and exits 1
when a file is missing, differs in structure or text, or exceeds the
tolerance, and when neither directory holds a ``.csv`` or ``.json`` file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _leaves(value, path=""):
    """Yield (path, leaf) for every scalar of a JSON value."""
    if isinstance(value, dict):
        yield path + "{}", tuple(sorted(value))
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}/{key}")
    elif isinstance(value, list):
        yield path + "[]", len(value)
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}/{i}")
    else:
        yield path, value


def _cells(path: Path):
    if path.suffix == ".json":
        return list(_leaves(json.loads(path.read_text(encoding="utf-8"))))
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [(f"{r}:{c}", cell) for r, row in enumerate(rows) for c, cell in enumerate(row)] + [
        ("rows", len(rows))
    ]


def compare_file(a: Path, b: Path, tol: float) -> tuple[float, str | None]:
    """Largest absolute difference between numeric cells, and the first
    structural or text mismatch (None if there is none)."""
    cells_a, cells_b = _cells(a), _cells(b)
    if [k for k, _ in cells_a] != [k for k, _ in cells_b]:
        return math.inf, "different structure"
    worst = 0.0
    for (key, x), (_, y) in zip(cells_a, cells_b):
        if isinstance(x, bool) or isinstance(y, bool) or x is None or y is None:
            if x != y:
                return math.inf, f"{key}: {x!r} vs {y!r}"
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            if x != y:
                return math.inf, f"{key}: {x!r} vs {y!r}"
        elif math.isnan(fx) or math.isnan(fy):
            if not (math.isnan(fx) and math.isnan(fy)):
                return math.inf, f"{key}: {x!r} vs {y!r}"
        else:
            worst = max(worst, abs(fx - fy))
    return worst, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--tol", type=float, default=1e-12)
    args = parser.parse_args(argv)
    names = sorted(
        {p.name for d in (args.dir_a, args.dir_b) for p in d.iterdir() if p.suffix in (".csv", ".json")}
    )
    if not names:
        print(f"no .csv or .json file in {args.dir_a} or {args.dir_b}")
        return 1
    failed = False
    for name in names:
        a, b = args.dir_a / name, args.dir_b / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in one directory")
            failed = True
            continue
        worst, problem = compare_file(a, b, args.tol)
        identical = a.read_bytes() == b.read_bytes()
        status = "ok" if problem is None and worst <= args.tol else "FAIL"
        failed |= status == "FAIL"
        print(f"{name}: {status} max|diff|={worst:.3g} bytes {'identical' if identical else 'differ'}"
              + (f" ({problem})" if problem else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
