"""Reference computations that share no code with rankfair.

Everything here is plain Python over lists and exact ``math.fsum``
summation, so a check built on it does not inherit a defect of the code
under test. Memberships are dicts from document id to a tuple of weights;
a document missing from one gets the uniform vector.
"""

from __future__ import annotations

import math


def attention(kind: str, n: int, patience: float = 0.5, cutoff: int | None = None) -> list[float]:
    m = n if cutoff is None else min(n, cutoff)
    if kind == "geometric":
        return [patience * (1.0 - patience) ** i for i in range(m)]
    if kind == "log":
        return [1.0 / math.log2(i + 2.0) for i in range(m)]
    raise ValueError(f"no oracle for attention {kind!r}")


def membership(docs: dict, doc_id: str, k: int) -> tuple[float, ...]:
    vector = docs.get(doc_id)
    return vector if vector is not None else (1.0 / k,) * k


def product(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    """Joint membership of two independent schemes, row-major by ``a``."""
    return tuple(x * y for x in a for y in b)


def exposure_distribution(ranked: list[str], member, k: int, weights: list[float]) -> list[float]:
    """Normalized attention-weighted group exposure of a ranking."""
    rows = [member(doc) for doc in ranked[: len(weights)]]
    masses = [math.fsum(w * row[g] for w, row in zip(weights, rows)) for g in range(k)]
    total = math.fsum(masses)
    return [x / total for x in masses]


def qrels_target(relevant: list[tuple[str, int]], member, k: int, graded: bool) -> list[float]:
    """Mean membership of the relevant documents, weighted by grade if graded."""
    coeffs = [float(g) if graded else 1.0 for _, g in relevant]
    denom = math.fsum(coeffs)
    rows = [member(doc) for doc, _ in relevant]
    return [math.fsum(c * row[g] for c, row in zip(coeffs, rows)) / denom for g in range(k)]


def js(p: list[float], q: list[float]) -> float:
    m = [(a + b) / 2.0 for a, b in zip(p, q)]
    left = math.fsum(a * math.log(a / c) for a, c in zip(p, m) if a > 0)
    right = math.fsum(b * math.log(b / c) for b, c in zip(q, m) if b > 0)
    return 0.5 * left + 0.5 * right


def kl_smoothed(p: list[float], q: list[float], epsilon: float) -> float:
    ps = [a + epsilon for a in p]
    qs = [b + epsilon for b in q]
    sp = math.fsum(ps)
    sq = math.fsum(qs)
    ps = [a / sp for a in ps]
    qs = [b / sq for b in qs]
    return math.fsum(a * math.log(a / b) for a, b in zip(ps, qs))


def pearson_r(xs: list[float], ys: list[float]) -> float | None:
    """Sample Pearson r, or None when either side is constant."""
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        return None
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    sxx = math.fsum(a * a for a in dx)
    syy = math.fsum(b * b for b in dy)
    return sxy / math.sqrt(sxx * syy)
