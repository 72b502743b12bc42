"""Smoke test of the benchmark itself, in a few seconds.

    python3 perfbench/smoke.py

Runs every workload on tiny inputs through the traced path (which also
runs an untraced pass), checks that each result is correct and names
every metric in BENCHMARK.json, that a wrong digest is counted as a
failure, and that the command refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

    for workload in workloads.WORKLOADS:
        result, lines, trace_out = run.run_workload(workload, 1, 0.0, trace=True, tiny=True)
        assert result["correct"] and result["failed"] == 0, "\n".join(lines)
        assert set(result["metrics"]) == per_layer, set(result["metrics"]) ^ per_layer
        assert trace_out["spans"], f"{workload}: no spans recorded"
        printed = {line.split()[0] for line in lines if line.startswith("  ")}
        assert end_to_end <= printed, end_to_end - printed
        print(f"ok   {workload}: {result['attempted']} items, {len(trace_out['spans'])} spans")

    # the gate: a digest that differs from the recorded one is a failure
    expected = workloads.load_expected()
    items = workloads.items("levels", 1, expected, tiny=True)[:3]
    p = run.run_pass(items, False, deadline=time.monotonic() + 60)
    assert run.check_pass(p, expected) == []
    expected["levels"][str(items[0]["n"])] = "0" * 16
    assert len(run.check_pass(p, expected)) == 1
    print("ok   a changed digest counts as a failure")

    # without the sources the command fails and prints no result
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=run.OUT_DIR) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "levels", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok   refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
