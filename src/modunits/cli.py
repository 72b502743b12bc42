"""Command-line front end.

Commands: classnum, structure, basis, primary, conjecture, table,
primary-table, verify, qcheck; each takes only the options it reads (an
option it does not read is exit code 2).  All take --json for structured
output; classnum, structure, basis, verify and qcheck take --generator, the
generator override at prime-power levels.  classnum, structure, basis and
table cache results as JSON files keyed by (N, generator, tool version,
CACHE_REVISION) in --cache-dir or MODUNITS_CACHE_DIR, unless --no-cache.
A cached record is served only if its invariants multiply to the analytic
class number (`class_number_yu`) and it is, spelling for spelling, the
record `build_record` writes from them, checks included, with its stored
timestamps and timings copied in; otherwise it is recomputed and
overwritten.  Each level record printed says "cache": "hit" (loaded, with
the timings of the run that stored it), "miss" (no file: computed by this
run) or "stale" (a file that failed those checks: recomputed by this run);
the label is not stored.  A cache directory that cannot be created or
written is refused before any level is computed.  table and primary-table
print each row as it is computed (--json: one array, streamed), so a failure
part-way leaves the rows before it on stdout, an array unterminated.

Exit codes: 0 success, 2 invalid arguments (an unusable cache directory
among them), 3 internal consistency failure (a degenerate basis, of lattice
index 0, among them) or reference-table mismatch.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress
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
    divisor_matrix,
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


def _record(N: int, generator: int | None, structure: GroupStructure, elements, checks, timestamps, timings) -> dict:
    """A level record: the one place its fields and their spelling are set."""
    return {
        "n": N,
        "generator": generator,
        "version": __version__,
        "class_number": str(structure.order),
        "invariants": [str(d) for d in structure.invariants],
        "basis": [
            {
                "level": el.sublevel,
                "scale": el.scale,
                "exponents": {str(h): e for h, e in el.sub_exponents},
                "display": el.display,
            }
            for el in elements
        ],
        "checks": checks,
        "timestamps": timestamps,
        "timings": timings,
    }


def _checks(N: int) -> dict:
    """The checks block of a level record: what `analyze` required to
    return at level N, so it is the same for every record of N."""
    return {
        # analyze raises ConsistencyError when the two routes disagree
        "yu_vs_lattice": True,
        # the orbit condition is only checked at composite levels
        "orbit": None if is_prime(N) else True,
        # the q-expansion lead is the divisor key at cusp 1/N, which
        # analyze already required to be a multiple of 12N for every element
        "q_integrality": True,
    }


def build_record(N: int, generator: int | None = None) -> dict:
    """Full machine-readable result for one level (the cacheable unit)."""
    report = analyze(N, generator)
    timestamps = {"computed_at": _utc_now()}
    return _record(N, generator, report.structure, report.basis, _checks(N), timestamps, dict(report.timings))


def _structure(rec) -> GroupStructure:
    return GroupStructure(tuple(int(d) for d in rec["invariants"]))


def _is_valid_record(rec, N: int, generator: int | None) -> bool:
    """Whether a loaded record is the one `build_record` writes for
    (N, generator, version): its invariants multiply to `class_number_yu(N)`,
    and it equals, under `json.dumps(sort_keys=True)`, the `_record` of those
    invariants, `basis(N, generator)` and `_checks(N)` with its stored
    timestamps and timings copied in.  So a missing or extra field, a value
    spelled otherwise or an edited checks block fails.  The two copied
    blocks are not checked, and a rewrite of the invariants alone that
    keeps their product is not caught."""
    try:
        st = _structure(rec)
        copied = rec["timestamps"], rec["timings"]
    except (LookupError, TypeError, ValueError, ArithmeticError):  # ArithmeticError: int(Infinity)
        return False
    if st.order != class_number_yu(N):
        return False
    want = _record(N, generator, st, basis(N, generator), _checks(N), *copied)
    return json.dumps(rec, sort_keys=True) == json.dumps(want, sort_keys=True)


class CacheError(ValueError):
    """The cache directory cannot be created or written (exit code 2)."""


class Cache:
    def __init__(self, directory: str | None):
        self.directory = directory

    @contextmanager
    def _usable(self):
        """Turn an `OSError` on the cache directory into a `CacheError`."""
        try:
            yield
        except OSError as exc:
            raise CacheError(
                f"unusable cache directory {self.directory!r}: {exc.strerror or exc}"
            ) from None

    def ensure_directory(self) -> None:
        """Create the cache directory if it is missing; raise `CacheError` if
        it cannot be, for example when the path or a parent is a file."""
        if self.directory:
            with self._usable():
                os.makedirs(self.directory, exist_ok=True)

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
        then `os.replace`, so a reader never sees a partial file.  Any
        `OSError` becomes a `CacheError`."""
        if not self.directory:
            return
        self.ensure_directory()
        path = self._path(N, generator)
        tmp = f"{path}.{os.getpid()}.tmp"
        with self._usable():
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


def _cache(args) -> Cache:
    """The cache named by --cache-dir or MODUNITS_CACHE_DIR, off with
    --no-cache; its directory is created here, so an unusable one is refused
    before any level is computed."""
    cache = Cache(None if args.no_cache else (args.cache_dir or os.environ.get(CACHE_ENV)))
    cache.ensure_directory()
    return cache


#: the commands that print one field of a level record: help, text of the record
LEVEL_COMMANDS = {
    "classnum": ("class number at level N", lambda rec: rec["class_number"]),
    "structure": ("elementary divisors at level N", lambda rec: str(_structure(rec))),
    "basis": ("unit basis at level N", lambda rec: "\n".join(el["display"] for el in rec["basis"])),
}


def cmd_level(args) -> int:
    rec = cached_record(args.N, args.generator, _cache(args))
    _emit(args, rec, LEVEL_COMMANDS[args.command][1](rec))
    return EXIT_OK


def _primary_fields(N: int, p: int) -> dict:
    """The p-primary part at level N as record fields: p, parts and notation."""
    parts = p_primary(N, p)
    return {"p": p, "parts": {str(e): m for e, m in parts.items()}, "notation": primary_notation(parts, p)}


def cmd_primary(args) -> int:
    record = {"n": args.N, **_primary_fields(args.N, args.p)}
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


def _check_summary(mismatches: list[str], checked: int) -> int:
    """The tail of --check: each MISMATCH line to stderr, then "k/n match";
    exit 3 on any mismatch."""
    for line in mismatches:
        print(line, file=sys.stderr)
    print(f"{checked - len(mismatches)}/{checked} match")
    return EXIT_INCONSISTENT if mismatches else EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like A..B, got {text!r}")
    a, b = int(lo), int(hi)
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return a, b


@contextmanager
def _mapper(jobs: int, count: int):
    """The `map` of a sweep over count items: a process pool's with jobs > 1
    and count > 1, else the builtin; both yield in input order."""
    if jobs < 2 or count < 2:
        yield map
        return
    # imported here: the pool loads multiprocessing, which no other command needs
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=min(jobs, count))
    try:
        yield pool.map
    finally:
        # `map` submitted every item: a reader that stops early drops the rest
        pool.shutdown(cancel_futures=True)


def _stream(as_json: bool, records, text):
    """Print each record as it arrives, then yield it: its `text` line, or an
    item of one JSON array spelled as `json.dumps(list, sort_keys=True)` spells
    it.  A failure part-way leaves the rows before it, the array unterminated."""
    sep = "["
    for rec in records:
        if as_json:
            print(sep + json.dumps(rec, sort_keys=True), end="", flush=True)
            sep = ", "
        else:
            print(text(rec), flush=True)
        yield rec
    if as_json:
        print("[]" if sep == "[" else "]")


def _table_line(rec) -> str:
    return f"{rec['n']:>4} {genus_x1(rec['n']):>6} {rec['class_number']:>28}  {_structure(rec)}"


def cmd_table(args) -> int:
    lo, hi = _parse_range(args.range)
    if lo < 5:
        raise ValueError(f"levels start at 5, got {lo}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    levels = range(lo, hi + 1)
    cache = _cache(args)
    known = structures() if args.check else {}
    mismatches = []
    if not args.json:
        print(f"{'N':>4} {'genus':>6} {'class number':>28}  structure")
    with _mapper(args.jobs, len(levels)) as mapper:
        for rec in _stream(args.json, mapper(cached_record, levels, repeat(None), repeat(cache)), _table_line):
            ref, got = known.get(rec["n"]), [int(x) for x in rec["invariants"]]
            if ref is not None and (got != list(ref.invariants) or int(rec["class_number"]) != ref.class_number):
                mismatches.append(f"MISMATCH N={rec['n']}: computed {got}, reference {list(ref.invariants)}")
    return _check_summary(mismatches, sum(N in known for N in levels)) if args.check else EXIT_OK


def _primary_record(item) -> dict:
    key, row = item
    return {"key": key, "level": row.level, **_primary_fields(row.level, row.p)}


def cmd_primary_table(args) -> int:
    reference = primary_rows()
    rows = sorted((kv for kv in reference.items() if kv[1].level <= args.max), key=lambda kv: kv[1].level)
    mismatches = []
    for rec in _stream(args.json, map(_primary_record, rows), lambda rec: f"{rec['key']:>5}  {rec['notation']}"):
        row = reference[rec["key"]]
        if rec["parts"] != {str(e): m for e, m in row.parts}:
            want = primary_notation(row.parts_dict(), row.p)
            mismatches.append(f"MISMATCH {rec['key']}: computed {rec['notation']}, reference {want}")
    return _check_summary(mismatches, len(rows)) if args.check else EXIT_OK


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
    failures = 0
    lines = []
    rows = []
    grid = 12 * args.N
    for el, div_row in zip(basis(args.N, args.generator), divisor_matrix(args.N, args.generator)):
        # div_row[0] is the order at 1/N: the series holds its lead and the
        # next q-power, whatever --trunc is
        series = expand_product(el.unit, max(args.trunc, div_row[0] + 2))
        integral = all(k % grid == 0 for k, _ in series.coeffs)
        lead_ok = bool(series.coeffs) and series.lead_key == div_row[0] * grid
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

    for name, (help_text, _) in LEVEL_COMMANDS.items():
        sub.add_parser(name, parents=cached_level, help=help_text).set_defaults(func=cmd_level)

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
