import json
import os
import random
import subprocess
import sys

import pytest

from modunits import __version__
from modunits.cli import CACHE_REVISION, Cache, build_record, main


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


@pytest.mark.parametrize(
    "rewrite",
    [
        # class number and invariants together: they still multiply out
        lambda rec: dict(rec, class_number="38", invariants=["38"]),
        # the basis alone: the first element's exponents negated
        lambda rec: dict(
            rec,
            basis=[
                dict(el, exponents={h: -e for h, e in el["exponents"].items()}) if i == 0 else el
                for i, el in enumerate(rec["basis"])
            ],
        ),
    ],
    ids=["class-number-and-invariants", "basis"],
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


def test_cache_env_and_no_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODUNITS_CACHE_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "classnum", "23")
    assert code == 0
    assert any(f.name.startswith("N23-") for f in tmp_path.iterdir())
    before = sorted(tmp_path.iterdir())
    code, _, _ = run_cli(capsys, "classnum", "29", "--no-cache")
    assert code == 0
    assert sorted(tmp_path.iterdir()) == before


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "modunits.cli", "classnum", "13"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "19"
