"""Compare two report directories value by value.

    python3 tools/diff_reports.py DIR_A DIR_B [--tol 1e-12] [--key-tol KEY=TOL ...]

Every ``.csv`` and ``.json`` file present in either directory must be in
both, with the same structure and text; numbers may differ by at most
``--tol`` (absolute). ``--key-tol KEY=TOL`` (repeatable) gives the cells of
CSV columns headed KEY and the JSON leaves whose key is KEY a tolerance of
their own, so that a declared change to some values can be checked while
every other cell keeps ``--tol``. Prints the largest difference per file
and exits 1 when a file is missing, differs in structure or text, or
exceeds a tolerance, and when neither directory holds a ``.csv`` or
``.json`` file.
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


def _leaves(value, path="", key=None):
    """Yield (path, key, leaf) for every scalar of a JSON value, ``key``
    being the name of the nearest dict entry that holds it."""
    if isinstance(value, dict):
        yield path + "{}", key, tuple(sorted(value))
        for name in sorted(value):
            yield from _leaves(value[name], f"{path}/{name}", name)
    elif isinstance(value, list):
        yield path + "[]", key, len(value)
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}/{i}", key)
    else:
        yield path, key, value


def _cells(path: Path):
    """(position, key, text or value) of every cell; a CSV cell's key is
    the header of its column."""
    if path.suffix == ".json":
        return list(_leaves(json.loads(path.read_text(encoding="utf-8"))))
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    cells = [(f"{r}:{c}", header[c] if r and c < len(header) else None, cell)
             for r, row in enumerate(rows) for c, cell in enumerate(row)]
    return cells + [("rows", None, len(rows))]


def compare_file(a: Path, b: Path, tol: float,
                 key_tol: dict[str, float] | None = None) -> tuple[float, str | None]:
    """Largest absolute difference between numeric cells, and the first
    structural or text mismatch or cell beyond its tolerance (None if there
    is none). A cell whose key is in ``key_tol`` has that tolerance, every
    other cell ``tol``."""
    key_tol = key_tol or {}
    cells_a, cells_b = _cells(a), _cells(b)
    if [k for k, _, _ in cells_a] != [k for k, _, _ in cells_b]:
        return math.inf, "different structure"
    worst, problem = 0.0, None
    for (where, key, x), (_, _, y) in zip(cells_a, cells_b):
        if isinstance(x, bool) or isinstance(y, bool) or x is None or y is None:
            if x != y:
                return math.inf, f"{where}: {x!r} vs {y!r}"
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            if x != y:
                return math.inf, f"{where}: {x!r} vs {y!r}"
        elif math.isnan(fx) or math.isnan(fy):
            if not (math.isnan(fx) and math.isnan(fy)):
                return math.inf, f"{where}: {x!r} vs {y!r}"
        else:
            diff = abs(fx - fy)
            worst = max(worst, diff)
            limit = key_tol.get(key, tol)
            if diff > limit and problem is None:
                problem = f"{where} ({key}): |diff| {diff:.3g} > {limit:g}"
    return worst, problem


def _key_tol(text: str) -> tuple[str, float]:
    key, sep, tol = text.partition("=")
    if not (key and sep and _number(tol) is not None):
        raise argparse.ArgumentTypeError(f"expected KEY=TOL, got {text!r}")
    return key, float(tol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--tol", type=float, default=1e-12)
    parser.add_argument("--key-tol", type=_key_tol, action="append", default=[],
                        metavar="KEY=TOL", help="tolerance of the cells named KEY (repeatable)")
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
        worst, problem = compare_file(a, b, args.tol, dict(args.key_tol))
        identical = a.read_bytes() == b.read_bytes()
        status = "ok" if problem is None else "FAIL"
        failed |= status == "FAIL"
        print(f"{name}: {status} max|diff|={worst:.3g} bytes {'identical' if identical else 'differ'}"
              + (f" ({problem})" if problem else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
