"""Command-line front end.

Commands: classnum, structure, basis, primary, conjecture, table,
primary-table, verify, qcheck.  Every command takes --json for structured
output and --generator to override the canonical generator at prime-power
levels; table refuses --generator with exit code 2.  Results can be cached
as JSON files keyed by (N, generator, tool version, CACHE_REVISION); the
default cache directory comes from MODUNITS_CACHE_DIR.  A cached record
that does not match its key or whose invariants do not multiply to its
class number is recomputed and overwritten.  Each level record printed
says "cache": "hit" (loaded, with the timings of the run that stored it)
or "miss" (computed by this run); the label is not stored.

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
from .classgroup import (
    ConsistencyError,
    GroupStructure,
    analyze,
    conjecture_report,
    p_primary,
    primary_notation,
)
from .corpus import primary_rows, structures
from .numtheory import is_prime, unit_lead_key
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


def build_record(N: int, generator: int | None = None) -> dict:
    """Full machine-readable result for one level (the cacheable unit)."""
    report = analyze(N, generator)
    basis_json = []
    q_ok = True
    for el in report.basis:
        basis_json.append(
            {
                "level": el.sublevel,
                "scale": el.scale,
                "exponents": {str(h): e for h, e in el.sub_exponents},
                "display": el.display,
            }
        )
        lead = sum(e * unit_lead_key(N, h) for h, e in el.unit.items())
        if lead % (12 * N):
            q_ok = False
    return {
        "n": N,
        "generator": generator,
        "version": __version__,
        "class_number": str(report.h_lattice),
        "invariants": [str(d) for d in report.structure.invariants],
        "basis": basis_json,
        "checks": {
            "yu_vs_lattice": report.h_lattice == report.h_yu,
            # the orbit condition is only checked at composite levels
            "orbit": None if is_prime(N) else True,
            "q_integrality": q_ok,
        },
        "timestamps": {"computed_at": _utc_now()},
        "timings": {stage: t for stage, t in report.timings},
    }


def _is_valid_record(rec, N: int, generator: int | None) -> bool:
    """Whether a loaded record belongs to (N, generator, version) and its
    invariants form a divisibility chain whose product is the class number."""
    if not isinstance(rec, dict):
        return False
    if (rec.get("n"), rec.get("generator"), rec.get("version")) != (N, generator, __version__):
        return False
    try:
        h = int(rec["class_number"])
        st = GroupStructure(tuple(int(d) for d in rec["invariants"]))
    except (KeyError, TypeError, ValueError):
        return False
    return st.order == h


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
    loaded (its timings are those of the run that stored it) or "miss" when
    it was computed now.  The label is never stored."""
    rec = cache.load(N, generator)
    if rec is not None:
        return dict(rec, cache="hit")
    rec = build_record(N, generator)
    cache.store(N, generator, rec)
    return dict(rec, cache="miss")


def _emit(args, record, text: str) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _invariants_str(invariants) -> str:
    return "[" + ", ".join(str(d) for d in invariants) + "]"


def cmd_classnum(args, cache: Cache) -> int:
    rec = cached_record(args.N, args.generator, cache)
    _emit(args, rec, rec["class_number"])
    return EXIT_OK


def cmd_structure(args, cache: Cache) -> int:
    rec = cached_record(args.N, args.generator, cache)
    _emit(args, rec, _invariants_str(rec["invariants"]))
    return EXIT_OK


def cmd_basis(args, cache: Cache) -> int:
    rec = cached_record(args.N, args.generator, cache)
    _emit(args, rec, "\n".join(el["display"] for el in rec["basis"]))
    return EXIT_OK


def cmd_primary(args, cache: Cache) -> int:
    parts = p_primary(args.N, args.p)
    record = {
        "n": args.N,
        "p": args.p,
        "parts": {str(e): m for e, m in parts.items()},
        "notation": primary_notation(parts, args.p),
    }
    _emit(args, record, record["notation"])
    return EXIT_OK


def cmd_conjecture(args, cache: Cache) -> int:
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


def cmd_table(args, cache: Cache) -> int:
    if args.generator is not None:
        raise ValueError("table does not take --generator; it always uses the canonical generator")
    lo, hi = _parse_range(args.range)
    if lo < 5:
        raise ValueError(f"levels start at 5, got {lo}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    levels = list(range(lo, hi + 1))
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


def cmd_primary_table(args, cache: Cache) -> int:
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


def cmd_verify(args, cache: Cache) -> int:
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


def cmd_qcheck(args, cache: Cache) -> int:
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


def _add_level_argument(p):
    p.add_argument("N", type=int, help="level (>= 5)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="structured output")
    common.add_argument(
        "--generator",
        type=int,
        default=None,
        help="generator override for prime-power levels",
    )
    common.add_argument("--cache-dir", default=None, help="result cache directory")
    common.add_argument("--no-cache", action="store_true", help="disable the cache")

    parser = argparse.ArgumentParser(
        prog="modunits",
        description="Cuspidal divisor class groups of X_1(N) via explicit modular-unit bases.",
    )
    parser.add_argument("--version", action="version", version=f"modunits {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classnum", parents=[common], help="class number at level N")
    _add_level_argument(p)
    p.set_defaults(func=cmd_classnum)

    p = sub.add_parser("structure", parents=[common], help="elementary divisors at level N")
    _add_level_argument(p)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("basis", parents=[common], help="unit basis at level N")
    _add_level_argument(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("primary", parents=[common], help="p-primary part at level N")
    _add_level_argument(p)
    p.add_argument("p", type=int, help="prime")
    p.set_defaults(func=cmd_primary)

    p = sub.add_parser("conjecture", parents=[common], help="predicted vs computed p-primary shape")
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("table", parents=[common], help="structure table over a range A..B")
    p.add_argument("range", help="inclusive range, e.g. 11..50")
    p.add_argument("--check", action="store_true", help="compare against the reference tables")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("primary-table", parents=[common], help="p-primary table for prime powers")
    p.add_argument("--max", type=int, default=243, help="largest prime power")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_primary_table)

    p = sub.add_parser("verify", parents=[common], help="dual-route class number check")
    _add_level_argument(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("qcheck", parents=[common], help="q-expansion checks of the basis")
    _add_level_argument(p)
    p.add_argument("--trunc", type=int, default=8, help="truncation exponent")
    p.set_defaults(func=cmd_qcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = None if args.no_cache else (args.cache_dir or os.environ.get(CACHE_ENV))
    cache = Cache(cache_dir)
    try:
        return args.func(args, cache)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
