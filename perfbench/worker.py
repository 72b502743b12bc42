"""Runs one pass of a workload in a fresh interpreter.

Reads a JSON spec on stdin: {"items", "trace", "cache_dir"}.
Prints one JSON object on stdout: per-item timings, digests and check
results, the reference-kernel samples taken between items, peak resident
memory, and (when traced) spans and counters.

Only the timed calls go into an item's time; correctness checks run
after them.  `modunits` must be importable (the parent puts `src` on
PYTHONPATH).
"""

import hashlib
import json
import math
import resource
import sys
import traceback
from time import perf_counter, process_time

from modunits import (
    ConsistencyError,
    LevelContext,
    UnitProduct,
    analyze,
    basis,
    divisor,
    expand_product,
    generators,
    is_principal,
)
from modunits import cli, corpus
from modunits.bernoulli import nonprincipal_quarter_product, yu_prefactor
from modunits.classgroup import class_coordinates
from modunits.numtheory import is_prime
from modunits.siegel import is_gamma1_modular, orbit_condition_holds
from modunits.zlinalg import lattice_index, smith_invariants_bounded
import reference
from spans import NullTracer, Tracer


def level_digest(class_number: int, invariants) -> str:
    text = f"{class_number}|" + ",".join(str(d) for d in invariants)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def series_digest(series) -> str:
    text = f"{series.level}|{series.trunc_key}|" + ";".join(
        f"{k}:{c.numerator}/{c.denominator}" for k, c in series.coeffs
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Failed(Exception):
    """An output check failed."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Failed(message)


class Counters:
    """Counts summed over items, and sizes kept at their maximum."""

    def __init__(self):
        self.sums: dict[str, int] = {}
        self.peaks: dict[str, int] = {}

    def add(self, name: str, value: int) -> None:
        self.sums[name] = self.sums.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)


def check_level_against_corpus(n: int, class_number: int, invariants) -> None:
    row = corpus.structures().get(n)
    if row is not None:
        require(row.class_number == class_number, f"N={n}: class number differs from corpus")
        require(row.invariants == tuple(invariants), f"N={n}: invariants differ from corpus")
    for key, prow in corpus.primary_rows().items():
        if prow.level != n:
            continue
        parts: dict[int, int] = {}
        for d in invariants:
            e = 0
            while d % prow.p == 0:
                d //= prow.p
                e += 1
            if e:
                parts[e] = parts.get(e, 0) + 1
        require(parts == prow.parts_dict(), f"N={n}: {key}-primary part differs from corpus")


def partial_sum_coords(rows):
    """Coordinates of degree-0 rows in the difference-vector basis."""
    out = []
    for row in rows:
        acc, coords = 0, []
        for x in row[:-1]:
            acc += x
            coords.append(acc)
        out.append(coords)
    return out


def replay_analyze(n: int, item: str, tr: Tracer, counters: Counters):
    """The stages of `analyze(n)`, one public call per span.

    Returns (class number, invariants) with the same checks `analyze` makes.
    """
    with tr.span("basis.basis", item):
        elements = basis(n)
    counters.add("basis.elements", len(elements))
    cusps = LevelContext.of(n).num_cusps
    composite = not is_prime(n)
    rows = []
    for el in elements:
        with tr.span("siegel.is_gamma1_modular", item):
            modular = is_gamma1_modular(el.unit)
        require(modular, f"N={n}: {el.display} fails the modularity congruences")
        if composite:
            with tr.span("siegel.orbit_condition_holds", item):
                orbit_ok = orbit_condition_holds(el.unit)
            require(orbit_ok, f"N={n}: {el.display} violates the orbit condition")
        with tr.span("siegel.divisor", item):
            div = divisor(el.unit)
        counters.add("siegel.order_evals", len(el.unit.exponents) * cusps)
        require(div.is_integral() and div.degree == 0, f"N={n}: bad divisor of {el.display}")
        rows.append([int(x) for x in div.orders])

    counters.add("zlinalg.matrix_cells", len(rows) * cusps)
    with tr.span("zlinalg.lattice_index", item):
        h_lattice = lattice_index(rows, size=cusps)
    with tr.span("bernoulli.yu_prefactor", item):
        prefactor = yu_prefactor(n)
    with tr.span("bernoulli.nonprincipal_quarter_product", item):
        quarter = nonprincipal_quarter_product(n)
    counters.peak("bernoulli.matrix_dim", cusps)
    h_yu = prefactor * quarter
    require(h_yu.denominator == 1 and h_yu == h_lattice, f"N={n}: class-number routes disagree")

    coords = partial_sum_coords(rows)
    invariants = []
    if coords:
        counters.add("zlinalg.matrix_cells", len(coords) * len(coords[0]))
        counters.peak("zlinalg.annihilator_bits", h_lattice.bit_length())
        counters.peak(
            "zlinalg.input_entry_bits", max(abs(x).bit_length() for r in coords for x in r)
        )
        with tr.span("zlinalg.smith_invariants_bounded", item):
            smith = smith_invariants_bounded(coords, h_lattice)
        invariants = [d for d in smith if d != 1]
    order = 1
    for d in invariants:
        order *= d
    require(order == h_lattice, f"N={n}: group order differs from class number")
    return h_lattice, invariants


def run_analyze(item: dict, tr, counters: Counters, cache: cli.Cache | None) -> dict:
    """`analyze` at one level; traced runs replay it stage by stage.

    The call is `analyze(n, None)`, the form `generators` and the CLI use:
    lru_cache keys it apart from `analyze(n)`, so only this form leaves the
    structure cached for them.
    """
    n = item["n"]
    traced = isinstance(tr, Tracer)
    t0, c0 = perf_counter(), process_time()
    if traced:
        with tr.span("item", item["id"]):
            h, invariants = replay_analyze(n, item["id"], tr, counters)
    else:
        report = analyze(n, None)
    wall, cpu = perf_counter() - t0, process_time() - c0

    if traced:
        report = analyze(n, None)
        require(
            (h, tuple(invariants)) == (report.class_number, report.structure.invariants),
            f"N={n}: replayed stages differ from analyze",
        )
        with tr.span("cli.build_record", item["id"]):
            record = cli.build_record(n)
        require(record["class_number"] == str(h), f"N={n}: build_record class number differs")
        if cache is not None:
            exercise_cache(cache, n, record, item["id"], tr, counters)
    h, invariants = report.class_number, report.structure.invariants
    require(report.h_lattice == report.h_yu, f"N={n}: class-number routes disagree")
    require(report.structure.order == h, f"N={n}: group order differs from class number")
    check_level_against_corpus(n, h, invariants)
    return {"wall": wall, "cpu": cpu, "digest": level_digest(h, invariants)}


def exercise_cache(cache, n, record, item, tr, counters) -> None:
    """A CLI cache round trip: a load that misses, a store, a load that hits."""
    with tr.span("cli.cache.load", item):
        before = cache.load(n, None)
    with tr.span("cli.cache.store", item):
        cache.store(n, None, record)
    with tr.span("cli.cache.load", item):
        after = cache.load(n, None)
    counters.add("cli.cache.loads", 2)
    counters.add("cli.cache.hits", (before is not None) + (after is not None))
    require(before is None, f"N={n}: cache hit before the record was stored")
    require(after == record, f"N={n}: cache did not return the stored record")


def run_generators(item: dict, tr, counters: Counters, cache) -> dict:
    n, item_id = item["n"], item["id"]
    t0, c0 = perf_counter(), process_time()
    with tr.span("item", item_id):
        with tr.span("classgroup.generators", item_id):
            gens = generators(n)
        membership = []
        for div, order in gens:
            with tr.span("classgroup.is_principal", item_id):
                multiple = is_principal(n, [order * x for x in div])
            with tr.span("classgroup.is_principal", item_id):
                itself = is_principal(n, div)
            membership.append((multiple, itself))
    wall, cpu = perf_counter() - t0, process_time() - c0

    report = analyze(n, None)
    orders = [order for _, order in gens]
    require(tuple(orders) == report.structure.invariants, f"N={n}: generator orders differ")
    cusps = LevelContext.of(n).num_cusps
    for (div, order), (multiple, itself) in zip(gens, membership):
        require(len(div) == cusps and sum(div) == 0, f"N={n}: generator is not degree 0")
        require(multiple, f"N={n}: order * generator is not principal")
        require(not itself, f"N={n}: a generator of order {order} is principal")
        # the exact order of the class, from its coordinates: testing
        # (order/p)*D for each prime p would need orders of 100 bits and
        # more factored
        exact = math.lcm(*(d // math.gcd(r, d) for r, d in class_coordinates(n, div)))
        require(exact == order, f"N={n}: a generator of claimed order {order} has order {exact}")
    if gens:
        counters.peak(
            "classgroup.generator_coeff_bits",
            max(abs(x).bit_length() for div, _ in gens for x in div),
        )
    return {"wall": wall, "cpu": cpu, "digest": level_digest(report.class_number, orders)}


def run_expansion(item: dict, tr, counters: Counters, cache) -> dict:
    n, item_id = item["n"], item["id"]
    unit = UnitProduct(n, item["exponents"])
    t0, c0 = perf_counter(), process_time()
    with tr.span("item", item_id):
        with tr.span("qexpansion.expand_product", item_id):
            series = expand_product(unit, item["trunc"])
    wall, cpu = perf_counter() - t0, process_time() - c0

    grid = 12 * n
    require(bool(series.coeffs), f"{item_id}: no terms below the truncation")
    require(all(k % grid == 0 for k, _ in series.coeffs), f"{item_id}: non-integral exponent")
    require(
        all(c.denominator == 1 for _, c in series.coeffs), f"{item_id}: non-integral coefficient"
    )
    lead = divisor(unit).orders[0] * grid
    require(series.lead_key == lead, f"{item_id}: lead key differs from the divisor")
    counters.add("qexpansion.calls", 1)
    counters.add("qexpansion.terms", len(series.coeffs))
    counters.peak(
        "qexpansion.coeff_bits", max(abs(c.numerator).bit_length() for _, c in series.coeffs)
    )
    return {"wall": wall, "cpu": cpu, "digest": series_digest(series)}


RUNNERS = {
    "analyze": run_analyze,
    "generators": run_generators,
    "expand": run_expansion,
}


def main() -> int:
    spec = json.load(sys.stdin)
    tr = Tracer() if spec["trace"] else NullTracer()
    cache = cli.Cache(spec["cache_dir"]) if spec.get("cache_dir") else None
    counters = Counters()
    corpus.structures()
    corpus.primary_rows()
    for item in spec["items"]:
        if item["kind"] == "generators":
            analyze(item["n"], None)  # the structure, outside the timed region
    # reference samples: one before the first item, then one after an item
    # once SAMPLE_EVERY_S has passed since the last, and one after the last;
    # each item lies between samples `ref` and `ref + 1`
    reference.kernel()  # warm-up
    samples = [reference.sample()]
    last_sample = perf_counter()
    results = []
    for k, item in enumerate(spec["items"]):
        ref = len(samples) - 1
        try:
            out = RUNNERS[item["kind"]](item, tr, counters, cache)
            out["ok"] = True
        except (ConsistencyError, Failed) as exc:
            out = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        except Exception:  # any other failure is reported, not fatal to the pass
            out = {"ok": False, "error": traceback.format_exc(limit=3)}
        out["id"] = item["id"]
        out["ref"] = ref
        results.append(out)
        if k == len(spec["items"]) - 1 or perf_counter() - last_sample >= reference.SAMPLE_EVERY_S:
            samples.append(reference.sample())
            last_sample = perf_counter()

    json.dump(
        {
            "items": results,
            "ref_samples": samples,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": tr.spans,
            "sums": counters.sums,
            "peaks": counters.peaks,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
