"""Workload definitions: which items each workload runs for a given seed.

An item is one `analyze` of a level, one `generators` of a level, or one
unit product to expand.  Items are plain JSON-able dicts, so the parent
process never imports `modunits`; only the workers do.  Items marked
`fresh` run in an interpreter of their own; the others share one.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("levels", "certify")

SWEEP_LEVELS = tuple(range(5, 101))

# 63..81-cusp levels, grouped by the basis branch that builds them.  Each
# stratum lists levels of similar cost, so every seed's draw costs about
# the same.  Larger levels (343, 512, 625, 729) take 34 s to over 8 min
# and are left out.
LARGE_STRATA = (
    ("prime", (127, 131), 1),
    ("odd_prime_power", (169, 243), 2),
    ("two_power", (256,), 1),
)

GENERATOR_LEVELS = tuple(range(5, 62))

# seeded products of basis elements added to each qexpand pass
QEXPAND_PRODUCTS_PER_PASS = 32

# tiny inputs for the smoke test
TINY = {
    "sweep": tuple(range(5, 21)),
    "large": (25, 27, 32),
    "qexpand_max_level": 12,
    "generators": tuple(range(5, 16)),
}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def unit_key(n: int, exponents) -> str:
    """Stable name of a unit product: level and sorted (index, exponent) pairs."""
    return f"{n}:" + ",".join(f"{h}^{e}" for h, e in sorted(exponents))


def _level_items(levels, kind: str, fresh: bool = False) -> list[dict]:
    return [{"id": f"{kind} N={n}", "n": n, "kind": kind, "fresh": fresh} for n in levels]


def large_levels(rng: random.Random) -> list[int]:
    out = []
    for _, candidates, count in LARGE_STRATA:
        out.extend(rng.sample(candidates, count))
    rng.shuffle(out)
    return out


def expansion_items(expected: dict, rng: random.Random, tiny: bool) -> list[dict]:
    """Every basis-element expansion plus products drawn from the fixed pool."""
    series = expected["series"]
    if tiny:
        series = [s for s in series if s["n"] <= TINY["qexpand_max_level"]]
    basis_items = [s for s in series if s["kind"] == "basis"]
    products = [s for s in series if s["kind"] == "product"]
    count = min(len(products), QEXPAND_PRODUCTS_PER_PASS // (4 if tiny else 1))
    return [
        {
            "id": unit_key(s["n"], s["exponents"]),
            "kind": "expand",
            "fresh": False,
            "n": s["n"],
            "exponents": s["exponents"],
            "trunc": s["trunc"],
        }
        for s in basis_items + rng.sample(products, count)
    ]


def items(workload: str, seed: int, expected: dict, tiny: bool = False) -> list[dict]:
    """The items of one pass, in the order the seed gives them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "levels":
        sweep = list(TINY["sweep"] if tiny else SWEEP_LEVELS)
        rng.shuffle(sweep)
        large = list(TINY["large"]) if tiny else large_levels(rng)
        return _level_items(sweep, "analyze") + _level_items(large, "analyze", fresh=True)
    if workload == "certify":
        levels = TINY["generators"] if tiny else GENERATOR_LEVELS
        out = _level_items(levels, "generators") + expansion_items(expected, rng, tiny)
        rng.shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}")
