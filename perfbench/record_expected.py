"""Records the correctness gate: expected digests for every benchmark item.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json with
- "levels": (class number, invariants) digest per level the level
  workloads can draw;
- "series": the q-expansion items (every basis element for N <= 50 whose
  leading exponent is below 40, as in acceptance criterion 8d, plus a
  fixed pool of products of two or three basis elements with exponents
  in +-1..+-3) with the digest of each truncated expansion.

Run it only on a commit whose results are trusted: the benchmark compares
every later run against this file.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from modunits import UnitProduct, analyze, basis, expand_product  # noqa: E402
from modunits.qexpansion import unit_lead_key  # noqa: E402

import workloads  # noqa: E402
from worker import level_digest, series_digest  # noqa: E402

PRODUCT_POOL_SIZE = 160
PRODUCT_MAX_LEVEL = 40
PRODUCT_MAX_DEPTH = 48  # q-powers expanded; keeps each product cheap


def trunc_for(n: int, exponents) -> tuple[int, int]:
    """(leading exponent, truncation) as criterion 8d chooses them."""
    lead = sum(e * unit_lead_key(n, h) for h, e in exponents)
    if lead % (12 * n):
        raise ValueError(f"non-integral leading exponent at N={n}")
    lead //= 12 * n
    return lead, max(8, lead + 2)


def series_entry(kind: str, n: int, exponents) -> dict:
    _, trunc = trunc_for(n, exponents)
    series = expand_product(UnitProduct(n, exponents), trunc)
    return {
        "kind": kind,
        "n": n,
        "exponents": sorted(exponents),
        "trunc": trunc,
        "digest": series_digest(series),
    }


def product_pool() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random("qexpand-product-pool")
    seen, pool = set(), []
    while len(pool) < PRODUCT_POOL_SIZE:
        n = rng.randrange(5, PRODUCT_MAX_LEVEL + 1)
        elements = basis(n)
        if len(elements) < 2:
            continue
        chosen = rng.sample(elements, min(len(elements), rng.choice((2, 3))))
        unit = None
        for el in chosen:
            power = el.unit ** rng.choice((-3, -2, -1, 1, 2, 3))
            unit = power if unit is None else unit * power
        exponents = sorted(unit.items())
        lead, trunc = trunc_for(n, exponents)
        key = workloads.unit_key(n, exponents)
        if lead < 40 and trunc - lead <= PRODUCT_MAX_DEPTH and key not in seen:
            seen.add(key)
            pool.append((n, exponents))
    return pool


def main() -> int:
    levels = set(workloads.SWEEP_LEVELS)
    for _, candidates, _ in workloads.LARGE_STRATA:
        levels.update(candidates)
    level_digests = {}
    for n in sorted(levels):
        report = analyze(n)
        level_digests[str(n)] = level_digest(report.class_number, report.structure.invariants)
        print(f"level {n}", file=sys.stderr)

    series = []
    for n in range(5, 51):
        for el in basis(n):
            exponents = sorted(el.unit.items())
            lead, _ = trunc_for(n, exponents)
            if lead < 40:
                series.append(series_entry("basis", n, exponents))
        print(f"basis series {n}", file=sys.stderr)
    for n, exponents in product_pool():
        series.append(series_entry("product", n, exponents))

    with open(workloads.EXPECTED_PATH, "w") as f:
        json.dump({"levels": level_digests, "series": series}, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
