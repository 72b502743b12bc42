import gc
import json
import os
import random
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from itertools import repeat

import pytest

from modunits import ConsistencyError, __version__, classgroup, cli
from modunits.cli import CACHE_ENV, CACHE_REVISION, Cache, build_record, main
from modunits.qexpansion import QSeries


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classnum_text(capsys):
    code, out, _ = run_cli(capsys, "classnum", "13")
    assert code == 0
    assert out.strip() == "19"


def test_structure_text(capsys):
    code, out, _ = run_cli(capsys, "structure", "72")
    assert code == 0
    assert out.strip() == "[4, 12, 36, 144, 9146133360]"
    code, out, _ = run_cli(capsys, "structure", "6")
    assert out.strip() == "[]"


def test_basis_text(capsys):
    code, out, _ = run_cli(capsys, "basis", "36")
    assert code == 0
    assert out.splitlines() == [
        "E1^(12)(3t)/(E5^(12)(3t))",
        "E1^(18)(2t)*E2^(18)(2t)/(E7^(18)(2t)*E8^(18)(2t))",
        "E1^(18)(2t)*E4^(18)(2t)/(E5^(18)(2t)*E8^(18)(2t))",
        "E1*E5/(E13*E17)",
        "E1*E7/(E11*E17)",
    ]


def test_primary_text(capsys):
    code, out, _ = run_cli(capsys, "primary", "32", "2")
    assert code == 0
    assert out.strip() == "(2)(2^2)(2^3)"


def test_conjecture_text(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "3", "4")
    assert code == 0
    assert "overall: agree" in out


def test_json_schema(capsys):
    code, out, _ = run_cli(capsys, "structure", "36", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 36
    assert rec["class_number"] == "31248"
    assert rec["invariants"] == ["4", "7812"]
    assert rec["checks"] == {"yu_vs_lattice": True, "orbit": True, "q_integrality": True}
    assert rec["basis"][0] == {
        "level": 12,
        "scale": 3,
        "exponents": {"1": 1, "5": -1},
        "display": "E1^(12)(3t)/(E5^(12)(3t))",
    }
    assert rec["version"] == __version__
    # the orbit condition is only checked at composite levels
    assert build_record(13)["checks"]["orbit"] is None


def test_record_round_trip():
    from modunits.corpus import structures

    for N in structures():
        rec = build_record(N)
        assert json.loads(json.dumps(rec)) == rec


def test_table_check(capsys):
    code, out, _ = run_cli(capsys, "table", "11..50", "--check")
    assert code == 0
    assert out.strip().endswith("40/40 match")


def test_table_trivial_range(capsys):
    code, out, _ = run_cli(capsys, "table", "5..10")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 6
    for line in lines:
        assert line.split()[2] == "1"
        assert line.rstrip().endswith("[]")


def test_table_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "table", "50..11")
    assert code == 2
    code, _, err = run_cli(capsys, "table", "3..9")
    assert code == 2


def test_table_rejects_nonpositive_jobs(capsys):
    for jobs in ("0", "-1"):
        code, out, err = run_cli(capsys, "table", "11..12", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "--jobs" in err


def test_table_jobs_gives_the_same_records(capsys):
    def records(jobs):
        code, out, _ = run_cli(capsys, "table", "5..30", "--json", "--no-cache", "--jobs", jobs)
        assert code == 0
        out = json.loads(out)
        for rec in out:
            del rec["timings"], rec["timestamps"]
        return out

    serial = records("1")
    assert [rec["n"] for rec in serial] == list(range(5, 31))
    assert records("2") == serial


def _mark_and_sleep(directory, n):
    # one pool item of the test below: a marker file per level, then a wait
    with open(os.path.join(directory, f"N{n}"), "w"):
        pass
    time.sleep(0.2)
    return n


def test_mapper_drops_the_pending_levels_when_the_reader_stops(tmp_path):
    # 40 levels of 0.2 s on two workers take 4 s; a reader that takes two
    # results and leaves waits only for the few levels the pool has already
    # started or queued for its workers
    start = time.perf_counter()
    with cli._mapper(2, 40) as mapper:
        results = mapper(_mark_and_sleep, repeat(str(tmp_path)), range(40))
        assert [next(results), next(results)] == [0, 1]
    elapsed = time.perf_counter() - start
    assert len(os.listdir(tmp_path)) < 10
    assert elapsed < 2.0


class _Record(dict):
    """A level record that a weak reference can point at."""


@pytest.mark.parametrize("flags", [(), ("--json",), ("--check",)], ids=["text", "json", "check"])
def test_table_holds_one_record_at_a_time(capsys, monkeypatch, flags):
    # the loop still holds level k - 1 when level k is requested, but no
    # earlier record may be alive
    records, held = {}, []

    def fake_record(N, generator, cache):
        gc.collect()
        held.extend(M for M, ref in records.items() if M < N - 1 and ref() is not None)
        rec = _Record(n=N, class_number="1", invariants=[])
        records[N] = weakref.ref(rec)
        return rec

    monkeypatch.setattr(cli, "cached_record", fake_record)
    run_cli(capsys, "table", "5..12", "--no-cache", *flags)
    assert sorted(records) == list(range(5, 13))
    assert held == []


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_a_failing_level_leaves_the_rows_before_it(capsys, monkeypatch, as_json):
    cached_record, done = cli.cached_record, []

    def fail_at_13(N, generator, cache):
        if N == 13:
            raise ConsistencyError(f"N={N}: injected")
        done.append(cached_record(N, generator, cache))
        return done[-1]

    monkeypatch.setattr(cli, "cached_record", fail_at_13)
    code, out, err = run_cli(capsys, "table", "11..15", "--no-cache", *(["--json"] if as_json else []))
    assert (code, err) == (3, "consistency failure: N=13: injected\n")
    assert [rec["n"] for rec in done] == [11, 12]
    if as_json:
        assert out == "[" + ", ".join(json.dumps(rec, sort_keys=True) for rec in done)
    else:
        pinned = PINNED_STDOUT[("table", "5..12")].splitlines(keepends=True)
        assert out == "".join(pinned[:1] + pinned[-2:])


def run_cli_refused(capsys, *argv):
    """Exit status, stdout and stderr of argv that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_table_rejects_generator(capsys):
    code, out, err = run_cli_refused(capsys, "table", "11..12", "--generator", "2")
    assert code == 2
    assert out == ""
    assert "--generator" in err


def test_subcommands_take_only_the_options_they_read(capsys):
    for argv, flag in (
        (("verify", "36", "--no-cache"), "--no-cache"),
        (("primary", "32", "2", "--generator", "3"), "--generator"),
    ):
        code, out, err = run_cli_refused(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert flag in err
    # the generator override stays on the commands that analyze one level
    code, out, _ = run_cli(capsys, "verify", "13", "--generator", "7")
    assert (code, out.split()[-1]) == (0, "ok")


def test_primary_table_check(capsys):
    code, out, _ = run_cli(capsys, "primary-table", "--max", "81", "--check")
    assert code == 0
    assert "(3)(3^2)^5(3^3)(3^4)" in out
    assert out.strip().endswith("7/7 match")


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "36")
    assert code == 0
    assert "ok" in out


def test_qcheck(capsys):
    code, out, _ = run_cli(capsys, "qcheck", "27")
    assert code == 0
    assert out.strip().endswith("8/8 ok")


def test_generator_override(capsys):
    code, out, _ = run_cli(capsys, "basis", "13", "--generator", "7")
    assert code == 0
    assert out.splitlines()[0] == "E1*E3^4/(E6^5)"
    # invalid override is a usage error
    code, _, err = run_cli(capsys, "basis", "13", "--generator", "4")
    assert code == 2


def test_invalid_level_exit_code(capsys):
    code, _, err = run_cli(capsys, "classnum", "4")
    assert code == 2
    assert "error" in err
    for argv in (("conjecture", "4", "2"), ("primary", "32", "4")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "4 is not prime" in err


def test_primary_at_a_prime_without_a_proof_exits_2(capsys):
    # 2**107 - 1: is_prime raises rather than trial-divide up to sqrt(p)
    code, out, err = run_cli(capsys, "primary", "13", "162259276829213363391578010288127")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_cache_round_trip(tmp_path, capsys):
    rng = random.Random(59)
    levels = rng.sample(range(11, 60), 10)
    for N in levels:
        code, first, _ = run_cli(capsys, "classnum", str(N), "--json", "--cache-dir", str(tmp_path))
        assert code == 0
        code, second, _ = run_cli(capsys, "classnum", str(N), "--json", "--cache-dir", str(tmp_path))
        assert code == 0
        first, second = json.loads(first), json.loads(second)
        assert (first.pop("cache"), second.pop("cache")) == ("miss", "hit")
        assert first == second
    assert len(list(tmp_path.iterdir())) == len(set(levels))


def test_records_say_cache_hit_or_miss(tmp_path, capsys):
    def structure_json(*extra):
        code, out, _ = run_cli(capsys, "structure", "36", "--json", *extra)
        assert code == 0
        return json.loads(out)

    assert structure_json("--no-cache")["cache"] == "miss"
    miss = structure_json("--cache-dir", str(tmp_path))
    hit = structure_json("--cache-dir", str(tmp_path))
    assert (miss["cache"], hit["cache"]) == ("miss", "hit")
    # a hit replays the stored timings; the label itself is never stored
    assert hit["timings"] == miss["timings"]
    (path,) = tmp_path.iterdir()
    assert "cache" not in json.loads(path.read_text())
    code, out, _ = run_cli(capsys, "table", "35..37", "--json", "--cache-dir", str(tmp_path))
    assert code == 0
    assert [rec["cache"] for rec in json.loads(out)] == ["miss", "hit", "miss"]
    assert all("cache" not in json.loads(f.read_text()) for f in tmp_path.iterdir())


def test_cache_never_serves_a_wrong_or_corrupt_record(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "classnum", "13", "--cache-dir", str(tmp_path))
    assert code == 0
    (path,) = tmp_path.iterdir()
    good = json.loads(path.read_text())
    # a tampered class number no longer matches the invariants: recomputed
    path.write_text(json.dumps(dict(good, class_number="20")))
    code, out, _ = run_cli(capsys, "classnum", "13", "--cache-dir", str(tmp_path))
    assert (code, out.strip()) == (0, "19")
    assert json.loads(path.read_text())["class_number"] == "19"
    # a truncated file is recomputed and rewritten
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    code, out, _ = run_cli(capsys, "classnum", "13", "--cache-dir", str(tmp_path))
    assert (code, out.strip()) == (0, "19")
    assert json.loads(path.read_text())["class_number"] == "19"
    assert list(tmp_path.iterdir()) == [path]
    # a record under the old, revision-less name is never served, even one
    # whose invariants multiply to its tampered class number
    assert path.name == f"N13-gauto-v{__version__}-r{CACHE_REVISION}.json"
    stale = tmp_path / f"N13-gauto-v{__version__}.json"
    stale.write_text(json.dumps(dict(good, class_number="20", invariants=["20"])))
    code, out, _ = run_cli(capsys, "classnum", "13", "--cache-dir", str(tmp_path))
    assert (code, out.strip()) == (0, "19")


def _without(field):
    return lambda rec: {k: v for k, v in rec.items() if k != field}


@pytest.mark.parametrize(
    "rewrite",
    [
        # class number and invariants together: they still multiply out
        pytest.param(lambda rec: dict(rec, class_number="38", invariants=["38"]), id="class-number-and-invariants"),
        # the basis alone: the first element's exponents negated
        pytest.param(
            lambda rec: dict(
                rec,
                basis=[
                    dict(el, exponents={h: -e for h, e in el["exponents"].items()}) if i == 0 else el
                    for i, el in enumerate(rec["basis"])
                ],
            ),
            id="basis",
        ),
        # a missing or an extra field: each was served as a hit while the
        # validity check named the fields it read
        *(pytest.param(_without(f), id=f"no-{f}") for f in ("generator", "checks", "timings", "timestamps")),
        pytest.param(lambda rec: dict(rec, note="extra"), id="extra-field"),
        # the checks block: each edit was served as a hit while it was copied
        *(
            pytest.param(lambda rec, k=k, v=v: dict(rec, checks=dict(rec["checks"], **{k: v})), id=f"checks-{k}-{v}")
            for k, v in (("yu_vs_lattice", False), ("orbit", True), ("orbit", False), ("q_integrality", False))
        ),
        pytest.param(lambda rec: dict(rec, checks=dict(rec["checks"], note=True)), id="checks-extra-key"),
    ],
)
def test_cache_recomputes_a_consistent_rewrite_as_stale(tmp_path, capsys, rewrite):
    code, out, _ = run_cli(capsys, "classnum", "13", "--json", "--cache-dir", str(tmp_path))
    assert (code, json.loads(out)["cache"]) == (0, "miss")
    (path,) = tmp_path.iterdir()
    good = json.loads(path.read_text())
    bad = rewrite(good)
    assert bad != good
    path.write_text(json.dumps(bad))
    assert Cache(str(tmp_path)).load(13, None) is None
    code, out, _ = run_cli(capsys, "classnum", "13", "--json", "--cache-dir", str(tmp_path))
    rec = json.loads(out)
    assert (code, rec.pop("cache"), rec["class_number"]) == (0, "stale", "19")
    assert rec["basis"] == good["basis"]
    # overwritten on disk with the recomputed record, which then hits
    assert json.loads(path.read_text()) == rec == Cache(str(tmp_path)).load(13, None)
    code, out, _ = run_cli(capsys, "classnum", "13", "--cache-dir", str(tmp_path))
    assert (code, out.strip()) == (0, "19")
    code, out, _ = run_cli(capsys, "structure", "13", "--json", "--cache-dir", str(tmp_path))
    assert json.loads(out)["cache"] == "hit"


@pytest.mark.parametrize(
    "field, value",
    [
        ("class_number", 19.5),
        ("class_number", 19.0),
        ("class_number", 19),
        ("class_number", "019"),
        ("class_number", " 19"),
        ("invariants", [19.9]),
        ("invariants", ["019"]),
        ("invariants", "19"),
        ("invariants", {"19": "19"}),  # iterates to ["19"]
        ("n", 13.0),
        ("invariants", [float("inf")]),  # int() raises OverflowError
    ],
)
def test_cache_reads_only_the_decimal_strings_it_writes(tmp_path, capsys, field, value):
    # each value equals, or int() reads it as, what build_record writes,
    # and it was served as a hit; only build_record's spelling is valid
    command = "structure" if field == "invariants" else "classnum"
    code, _, _ = run_cli(capsys, command, "13", "--cache-dir", str(tmp_path))
    assert code == 0
    (path,) = tmp_path.iterdir()
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **{field: value})))
    assert Cache(str(tmp_path)).load(13, None) is None
    code, out, _ = run_cli(capsys, command, "13", "--json", "--cache-dir", str(tmp_path))
    rec = json.loads(out)
    got = (code, rec["cache"], rec["n"], rec["class_number"], rec["invariants"])
    assert got == (0, "stale", 13, "19", ["19"])
    assert json.loads(path.read_text())[field] == rec[field]


#: files as `Cache.store` wrote them while the validity check listed the
#: fields it read and `BasisElement` stored its level-M exponents; the
#: second holds a scaled element
STORED_RECORDS = {
    13: '''{"basis": [{"display": "E1*E4^36/(E2^37)", "exponents": {"1": 1, "2": -37, "4": 36}, "level": 13, "scale": 1}, {"display": "E2*E5^36/(E4^37)", "exponents": {"2": 1, "4": -37, "5": 36}, "level": 13, "scale": 1}, {"display": "E3^36*E4/(E5^37)", "exponents": {"3": 36, "4": 1, "5": -37}, "level": 13, "scale": 1}, {"display": "E5*E6^36/(E3^37)", "exponents": {"3": -37, "5": 1, "6": 36}, "level": 13, "scale": 1}, {"display": "E3^13/(E6^13)", "exponents": {"3": 13, "6": -13}, "level": 13, "scale": 1}], "checks": {"orbit": null, "q_integrality": true, "yu_vs_lattice": true}, "class_number": "19", "generator": null, "invariants": ["19"], "n": 13, "timestamps": {"computed_at": "2026-10-20T10:41:32+00:00"}, "timings": {"analytic": 0.00028016800206387416, "basis": 0.00013022100029047579, "det_solve": 0.0011511359989526682, "divisors": 0.00010977899364661425, "local_smith": 1.5158999303821474e-05}, "version": "0.1.0"}''',
    16: '''{"basis": [{"display": "E1*E5/(E3*E7)", "exponents": {"1": 1, "3": -1, "5": 1, "7": -1}, "level": 16, "scale": 1}, {"display": "E3^2/(E5^2)", "exponents": {"3": 2, "5": -2}, "level": 16, "scale": 1}, {"display": "E1^(8)(2t)/(E3^(8)(2t))", "exponents": {"1": 1, "3": -1}, "level": 8, "scale": 2}], "checks": {"orbit": true, "q_integrality": true, "yu_vs_lattice": true}, "class_number": "10", "generator": null, "invariants": ["10"], "n": 16, "timestamps": {"computed_at": "2026-10-20T10:41:36+00:00"}, "timings": {"analytic": 0.00021971399837639183, "basis": 9.744399721967056e-05, "det_solve": 9.044000034919009e-05, "divisors": 0.00010954399476759136, "local_smith": 3.9701997593510896e-05}, "version": "0.1.0"}''',
}


@pytest.mark.parametrize("N", list(STORED_RECORDS))
def test_cache_serves_a_record_stored_before_the_record_helper(tmp_path, capsys, monkeypatch, N):
    # the record format did not change, so CACHE_REVISION stays
    assert CACHE_REVISION == 3
    text = STORED_RECORDS[N]
    path = tmp_path / f"N{N}-gauto-v{__version__}-r{CACHE_REVISION}.json"
    path.write_text(text)
    monkeypatch.setattr(cli, "build_record", refuse_to_compute)
    code, out, _ = run_cli(capsys, "classnum", str(N), "--json", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out) == dict(json.loads(text), cache="hit")
    assert path.read_text() == text


def test_cache_env_and_no_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODUNITS_CACHE_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "classnum", "23")
    assert code == 0
    assert any(f.name.startswith("N23-") for f in tmp_path.iterdir())
    before = sorted(tmp_path.iterdir())
    code, _, _ = run_cli(capsys, "classnum", "29", "--no-cache")
    assert code == 0
    assert sorted(tmp_path.iterdir()) == before


def refuse_to_compute(*args):
    raise AssertionError("a level was computed")


@pytest.mark.parametrize("where", ["flag", "env"])
@pytest.mark.parametrize("argv", [("classnum", "13"), ("table", "11..13")], ids=["classnum", "table"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_an_unusable_cache_directory_exits_2_before_computing(
    tmp_path, capsys, monkeypatch, where, argv, under
):
    blocker = tmp_path / "F"
    blocker.write_text("not a directory")
    directory = str(blocker / "sub" if under else blocker)
    monkeypatch.setattr(cli, "build_record", refuse_to_compute)
    if where == "flag":
        argv += ("--cache-dir", directory)
    else:
        monkeypatch.setenv(CACHE_ENV, directory)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: unusable cache directory")
    assert len(err.splitlines()) == 1
    assert blocker.read_text() == "not a directory"


def test_a_failing_cache_write_exits_2(tmp_path, capsys, monkeypatch):
    def disk_full(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", disk_full)
    code, out, err = run_cli(capsys, "classnum", "13", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: unusable cache directory {str(tmp_path)!r}: No space left on device\n"
    # the temp file is removed
    assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_does_not_load_the_process_pool():
    # the baseline is the fresh interpreter's own modules, so whatever a site
    # hook imports before the script runs does not count
    script = (
        "import sys; before = set(sys.modules); import modunits.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "modunits.cli" in added
    assert not [m for m in added if m.split(".")[0] in ("concurrent", "multiprocessing")]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "modunits.cli", "classnum", "13"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "19"


PINNED_STDOUT = {
    ("conjecture", "3", "4"): """\
p=3 n=4 level=81 (regular prime)
p-rank: predicted 8, computed 8 [ok]
Z/3^1: predicted 1, computed 1 [ok]
Z/3^2: predicted 5, computed 5 [ok]
Z/3^3: predicted 1, computed 1 [ok]
Z/3^4: predicted 1, computed 1 [ok]
overall: agree
""",
    ("table", "5..12"): """\
   N  genus                 class number  structure
   5      0                            1  []
   6      0                            1  []
   7      0                            1  []
   8      0                            1  []
   9      0                            1  []
  10      0                            1  []
  11      1                            5  [5]
  12      0                            1  []
""",
    ("primary-table", "--max", "27"): """\
  2^4  (2)
  5^2  (5)
  3^3  (3)(3^2)
""",
    ("primary-table", "--max", "3", "--json"): "[]\n",
    ("verify", "36"): "lattice=31248 analytic=31248 structure=31248 ok\n",
    ("qcheck", "13"): """\
ok   E1*E4^36/(E2^37)
ok   E2*E5^36/(E4^37)
ok   E3^36*E4/(E5^37)
ok   E5*E6^36/(E3^37)
ok   E3^13/(E6^13)
5/5 ok
""",
    ("basis", "13", "--generator", "7"): """\
E1*E3^4/(E6^5)
E5^4*E6/(E3^5)
E3*E4^4/(E5^5)
E2^4*E5/(E4^5)
E4^13/(E2^13)
""",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
def test_cli_stdout_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert run_cli(capsys, *argv) == (0, PINNED_STDOUT[argv], "")


def test_verify_exits_3_when_the_routes_disagree(capsys, monkeypatch):
    yu = classgroup.class_number_yu
    monkeypatch.setattr(classgroup, "class_number_yu", lambda N: yu(N) + 1)
    classgroup._analyze.cache_clear()
    try:
        code, out, err = run_cli(capsys, "verify", "36")
    finally:
        classgroup._analyze.cache_clear()
    assert (code, out) == (3, "")
    assert err.startswith("consistency failure:")


def test_table_check_exits_3_on_an_altered_reference_row(capsys, monkeypatch):
    known = dict(cli.structures())
    known[13] = replace(known[13], class_number=20, invariants=(20,))
    monkeypatch.setattr(cli, "structures", lambda: known)
    monkeypatch.delenv(CACHE_ENV, raising=False)
    code, out, err = run_cli(capsys, "table", "11..13", "--check")
    assert code == 3
    assert out.splitlines()[-1] == "2/3 match"
    assert err.splitlines() == ["MISMATCH N=13: computed [19], reference [20]"]


def test_primary_table_check_exits_3_on_an_altered_reference_row(capsys, monkeypatch):
    rows = dict(cli.primary_rows())
    rows["5^2"] = replace(rows["5^2"], parts=((2, 1),))
    monkeypatch.setattr(cli, "primary_rows", lambda: rows)
    code, out, err = run_cli(capsys, "primary-table", "--max", "27", "--check")
    assert code == 3
    assert out.splitlines()[-1] == "2/3 match"
    assert err.splitlines() == ["MISMATCH 5^2: computed (5), reference (5^2)"]


def test_qcheck_exits_3_on_a_shifted_lead(capsys, monkeypatch):
    expand = cli.expand_product
    calls = []

    def shifted(u, T):
        # the first element's series moves up by one integral q-power
        s = expand(u, T)
        calls.append(u)
        if len(calls) > 1:
            return s
        grid = 12 * u.level
        return QSeries(s.level, tuple((k + grid, c) for k, c in s.coeffs), s.trunc_key + grid)

    monkeypatch.setattr(cli, "expand_product", shifted)
    code, out, _ = run_cli(capsys, "qcheck", "13")
    lines = out.splitlines()
    assert code == 3
    assert [line[:4] for line in lines[:-1]] == ["FAIL"] + ["ok  "] * 4
    assert lines[-1] == "4/5 ok"


@pytest.mark.parametrize("trunc", ["8", "0"])
def test_qcheck_expands_every_element_past_its_lead(capsys, monkeypatch, trunc):
    # an element whose order at 1/N reaches --trunc is still expanded to
    # its lead and the next q-power, so no element passes unchecked
    expand = cli.expand_product
    series = []

    def spy(u, T):
        s = expand(u, T)
        series.append(s)
        return s

    monkeypatch.setattr(cli, "expand_product", spy)
    for N in range(5, 61):
        series.clear()
        code, _, _ = run_cli(capsys, "qcheck", str(N), "--trunc", trunc)
        assert code == 0, N
        for s in series:
            assert s.coeffs, N
            assert s.trunc_key >= s.lead_key + 2 * 12 * N, N


def test_divisor_matrix_and_qcheck_skip_the_class_group(capsys, monkeypatch):
    expected = [list(row) for row in classgroup.analyze(97).matrix]

    def refuse(*args):
        raise AssertionError("the class group stage ran")

    classgroup._analyze.cache_clear()
    monkeypatch.setattr(classgroup, "det_solve", refuse)
    monkeypatch.setattr(classgroup, "class_number_yu", refuse)
    try:
        assert classgroup.divisor_matrix(97) == expected
        # below every lead at N = 97 (the lowest is q^-12298), so each
        # element is expanded only to its order at 1/N plus 2
        code, out, _ = run_cli(capsys, "qcheck", "97", "--trunc=-20000")
    finally:
        classgroup._analyze.cache_clear()
    assert code == 0
    assert out.splitlines()[-1] == "47/47 ok"
