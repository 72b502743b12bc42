"""Command-line front end.

Commands: classnum, structure, basis, primary, conjecture, table,
primary-table, verify, qcheck; each takes only the options it reads (an
option it does not read is exit code 2).  All take --json for structured
output; classnum, structure, basis, verify and qcheck take --generator, the
generator override at prime-power levels.  classnum, structure, basis and
table cache results as JSON files keyed by (N, generator, tool version,
CACHE_REVISION) in --cache-dir or MODUNITS_CACHE_DIR, unless --no-cache.
A cached record is served only if it matches its key, its invariants
multiply to its class number, that class number is the analytic one
(`class_number_yu`) and its basis is the one `build_record` writes;
otherwise it is recomputed and overwritten.  Each level record printed says
"cache": "hit" (loaded, with the timings of the run that stored it), "miss"
(no file: computed by this run) or "stale" (a file that failed those checks:
recomputed by this run); the label is not stored.

Exit codes: 0 success, 2 invalid arguments, 3 internal consistency failure
or reference-table mismatch.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from datetime import datetime, timezone
from itertools import repeat

from . import __version__
from .basis import basis
from .classgroup import (
    ConsistencyError,
    GroupStructure,
    analyze,
    class_number_yu,
    conjecture_report,
    p_primary,
    primary_notation,
)
from .corpus import primary_rows, structures
from .numtheory import is_prime
from .qexpansion import expand_product
from .siegel import genus_x1

CACHE_ENV = "MODUNITS_CACHE_DIR"
#: algorithm revision in the cache file name; bump it whenever a change to
#: the pipeline can change a record, since __version__ does not move then
CACHE_REVISION = 3

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


def _utc_now() -> str:
    return datetime.now(timezone.utc).replace(microsecond=0).isoformat()


def _basis_json(elements) -> list[dict]:
    """The "basis" field of a record, as it reads back from JSON."""
    return [
        {
            "level": el.sublevel,
            "scale": el.scale,
            "exponents": {str(h): e for h, e in el.sub_exponents},
            "display": el.display,
        }
        for el in elements
    ]


def build_record(N: int, generator: int | None = None) -> dict:
    """Full machine-readable result for one level (the cacheable unit)."""
    report = analyze(N, generator)
    return {
        "n": N,
        "generator": generator,
        "version": __version__,
        "class_number": str(report.h_lattice),
        "invariants": [str(d) for d in report.structure.invariants],
        "basis": _basis_json(report.basis),
        "checks": {
            "yu_vs_lattice": report.h_lattice == report.h_yu,
            # the orbit condition is only checked at composite levels
            "orbit": None if is_prime(N) else True,
            # the q-expansion lead is the divisor key at cusp 1/N, which
            # analyze already required to be a multiple of 12N for every element
            "q_integrality": True,
        },
        "timestamps": {"computed_at": _utc_now()},
        "timings": {stage: t for stage, t in report.timings},
    }


def _is_valid_record(rec, N: int, generator: int | None) -> bool:
    """Whether a loaded record belongs to (N, generator, version), its
    invariants form a divisibility chain whose product is the class number,
    that class number is `class_number_yu(N)` and its basis is the one
    `build_record` writes.  A rewrite of the invariants alone that keeps
    their product is not caught."""
    if not isinstance(rec, dict):
        return False
    if (rec.get("n"), rec.get("generator"), rec.get("version")) != (N, generator, __version__):
        return False
    try:
        h = int(rec["class_number"])
        st = GroupStructure(tuple(int(d) for d in rec["invariants"]))
    except (KeyError, TypeError, ValueError):
        return False
    return (
        st.order == h == class_number_yu(N)
        and rec.get("basis") == _basis_json(basis(N, generator))
    )


class Cache:
    def __init__(self, directory: str | None):
        self.directory = directory

    def _path(self, N: int, generator: int | None) -> str:
        gen = "auto" if generator is None else str(generator)
        return os.path.join(self.directory, f"N{N}-g{gen}-v{__version__}-r{CACHE_REVISION}.json")

    def load(self, N: int, generator: int | None) -> dict | None:
        """The stored record, or None if it is missing, unreadable or fails
        `_is_valid_record`."""
        if not self.directory:
            return None
        try:
            with open(self._path(N, generator)) as f:
                rec = json.load(f)
        except (OSError, ValueError):
            return None
        return rec if _is_valid_record(rec, N, generator) else None

    def store(self, N: int, generator: int | None, record: dict) -> None:
        """Write the record atomically: a temp file in the cache directory,
        then `os.replace`, so a reader never sees a partial file."""
        if not self.directory:
            return
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(N, generator)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as f:
                json.dump(record, f, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise


def cached_record(N: int, generator: int | None, cache: Cache) -> dict:
    """The record for (N, generator), labelled "cache": "hit" when it was
    loaded (its timings are those of the run that stored it), "miss" when
    no file was stored and "stale" when the stored file was rejected; in
    both of the latter it was computed now and stored.  The label is never
    stored."""
    rec = cache.load(N, generator)
    if rec is not None:
        return dict(rec, cache="hit")
    label = "stale" if cache.directory and os.path.exists(cache._path(N, generator)) else "miss"
    rec = build_record(N, generator)
    cache.store(N, generator, rec)
    return dict(rec, cache=label)


def _emit(args, record, text: str) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _invariants_str(invariants) -> str:
    return "[" + ", ".join(str(d) for d in invariants) + "]"


def _cache(args) -> Cache:
    """The cache named by --cache-dir or MODUNITS_CACHE_DIR, off with --no-cache."""
    return Cache(None if args.no_cache else (args.cache_dir or os.environ.get(CACHE_ENV)))


def cmd_classnum(args) -> int:
    rec = cached_record(args.N, args.generator, _cache(args))
    _emit(args, rec, rec["class_number"])
    return EXIT_OK


def cmd_structure(args) -> int:
    rec = cached_record(args.N, args.generator, _cache(args))
    _emit(args, rec, _invariants_str(rec["invariants"]))
    return EXIT_OK


def cmd_basis(args) -> int:
    rec = cached_record(args.N, args.generator, _cache(args))
    _emit(args, rec, "\n".join(el["display"] for el in rec["basis"]))
    return EXIT_OK


def cmd_primary(args) -> int:
    parts = p_primary(args.N, args.p)
    record = {
        "n": args.N,
        "p": args.p,
        "parts": {str(e): m for e, m in parts.items()},
        "notation": primary_notation(parts, args.p),
    }
    _emit(args, record, record["notation"])
    return EXIT_OK


def cmd_conjecture(args) -> int:
    rep = conjecture_report(args.p, args.n)
    record = {
        "p": rep.p,
        "n": rep.n,
        "level": rep.p**rep.n,
        "regular": rep.regular,
        "predicted_rank": rep.predicted_rank,
        "computed_rank": rep.computed_rank,
        "rows": [
            {"exponent": j, "predicted": pred, "computed": comp}
            for j, pred, comp in rep.rows
        ],
        "agrees": rep.agrees,
    }
    lines = [
        f"p={rep.p} n={rep.n} level={rep.p ** rep.n} "
        f"({'regular' if rep.regular else 'irregular'} prime)",
        f"p-rank: predicted {rep.predicted_rank}, computed {rep.computed_rank} "
        f"[{'ok' if rep.rank_agrees else 'DIFFERS'}]",
    ]
    for j, pred, comp in rep.rows:
        if pred == 0 and comp == 0:
            continue
        mark = "ok" if pred == comp else "DIFFERS"
        lines.append(f"Z/{rep.p}^{j}: predicted {pred}, computed {comp} [{mark}]")
    lines.append("overall: " + ("agree" if rep.agrees else "DISAGREE"))
    _emit(args, record, "\n".join(lines))
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like A..B, got {text!r}")
    a, b = int(lo), int(hi)
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return a, b


def cmd_table(args) -> int:
    lo, hi = _parse_range(args.range)
    if lo < 5:
        raise ValueError(f"levels start at 5, got {lo}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    levels = list(range(lo, hi + 1))
    cache = _cache(args)
    if args.jobs > 1 and len(levels) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(levels))) as pool:
            found = pool.map(cached_record, levels, repeat(None), repeat(cache))
            records = dict(zip(levels, found))
    else:
        records = {N: cached_record(N, None, cache) for N in levels}

    if args.json:
        print(json.dumps([records[N] for N in levels], sort_keys=True))
    else:
        print(f"{'N':>4} {'genus':>6} {'class number':>28}  structure")
        for N in levels:
            rec = records[N]
            print(
                f"{N:>4} {genus_x1(N):>6} {rec['class_number']:>28}  "
                f"{_invariants_str(rec['invariants'])}"
            )
    if not args.check:
        return EXIT_OK

    known = structures()
    checked = mismatches = 0
    for N in levels:
        if N not in known:
            continue
        checked += 1
        got = [int(x) for x in records[N]["invariants"]]
        want = list(known[N].invariants)
        if got != want or int(records[N]["class_number"]) != known[N].class_number:
            mismatches += 1
            print(f"MISMATCH N={N}: computed {got}, reference {want}", file=sys.stderr)
    print(f"{checked - mismatches}/{checked} match")
    return EXIT_INCONSISTENT if mismatches else EXIT_OK


def cmd_primary_table(args) -> int:
    rows = []
    for key, row in sorted(primary_rows().items(), key=lambda kv: kv[1].level):
        if row.level > args.max:
            continue
        parts = p_primary(row.level, row.p)
        rows.append((key, row, parts))
    record = [
        {
            "key": key,
            "level": row.level,
            "p": row.p,
            "parts": {str(e): m for e, m in parts.items()},
            "notation": primary_notation(parts, row.p),
        }
        for key, row, parts in rows
    ]
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for key, row, parts in rows:
            print(f"{key:>5}  {primary_notation(parts, row.p)}")
    if not args.check:
        return EXIT_OK
    mismatches = 0
    for key, row, parts in rows:
        if parts != row.parts_dict():
            mismatches += 1
            print(
                f"MISMATCH {key}: computed {primary_notation(parts, row.p)}, "
                f"reference {primary_notation(row.parts_dict(), row.p)}",
                file=sys.stderr,
            )
    print(f"{len(rows) - mismatches}/{len(rows)} match")
    return EXIT_INCONSISTENT if mismatches else EXIT_OK


def cmd_verify(args) -> int:
    report = analyze(args.N, args.generator)
    ok = report.h_lattice == report.h_yu == report.structure.order
    record = {
        "n": args.N,
        "lattice": str(report.h_lattice),
        "analytic": str(report.h_yu),
        "structure_order": str(report.structure.order),
        "ok": ok,
    }
    _emit(
        args,
        record,
        f"lattice={report.h_lattice} analytic={report.h_yu} "
        f"structure={report.structure.order} {'ok' if ok else 'MISMATCH'}",
    )
    return EXIT_OK if ok else EXIT_INCONSISTENT


def cmd_qcheck(args) -> int:
    report = analyze(args.N, args.generator)
    failures = 0
    lines = []
    rows = []
    grid = 12 * args.N
    for el, div_row in zip(report.basis, report.matrix):
        series = expand_product(el.unit, args.trunc)
        integral = all(k % grid == 0 for k, _ in series.coeffs)
        lead_ok = True
        if series.coeffs:
            lead_ok = series.lead_key == div_row[0] * grid
        ok = integral and lead_ok
        failures += not ok
        lines.append(f"{'ok  ' if ok else 'FAIL'} {el.display}")
        rows.append(
            {
                "display": el.display,
                "integral": integral,
                "lead_matches_divisor": lead_ok,
            }
        )
    record = {"n": args.N, "trunc": args.trunc, "elements": rows, "ok": failures == 0}
    _emit(args, record, "\n".join(lines + [f"{len(rows) - failures}/{len(rows)} ok"]))
    return EXIT_OK if failures == 0 else EXIT_INCONSISTENT


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="structured output")
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("N", type=int, help="level (>= 5)")
    generator = argparse.ArgumentParser(add_help=False)
    generator.add_argument(
        "--generator",
        type=int,
        default=None,
        help="generator override for prime-power levels",
    )
    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument("--cache-dir", default=None, help="result cache directory")
    cached.add_argument("--no-cache", action="store_true", help="disable the cache")
    one_level = [output, level, generator]
    cached_level = one_level + [cached]

    parser = argparse.ArgumentParser(
        prog="modunits",
        description="Cuspidal divisor class groups of X_1(N) via explicit modular-unit bases.",
    )
    parser.add_argument("--version", action="version", version=f"modunits {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classnum", parents=cached_level, help="class number at level N")
    p.set_defaults(func=cmd_classnum)

    p = sub.add_parser("structure", parents=cached_level, help="elementary divisors at level N")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("basis", parents=cached_level, help="unit basis at level N")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("primary", parents=[output, level], help="p-primary part at level N")
    p.add_argument("p", type=int, help="prime")
    p.set_defaults(func=cmd_primary)

    p = sub.add_parser("conjecture", parents=[output], help="predicted vs computed p-primary shape")
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("table", parents=[output, cached], help="structure table over a range A..B")
    p.add_argument("range", help="inclusive range, e.g. 11..50")
    p.add_argument("--check", action="store_true", help="compare against the reference tables")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("primary-table", parents=[output], help="p-primary table for prime powers")
    p.add_argument("--max", type=int, default=243, help="largest prime power")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_primary_table)

    p = sub.add_parser("verify", parents=one_level, help="dual-route class number check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("qcheck", parents=one_level, help="q-expansion checks of the basis")
    p.add_argument("--trunc", type=int, default=8, help="truncation exponent")
    p.set_defaults(func=cmd_qcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
