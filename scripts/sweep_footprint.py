"""Peak RSS and wall time of one-process sweeps: 5 <= N <= 300, and large levels.

    python3 scripts/sweep_footprint.py [--src DIR ...] [--runs R]

Run it from the repository root.  Each sweep runs in a fresh interpreter
with DIR on PYTHONPATH (default: this checkout's src/):

- `analyze`: `analyze(N)` for 5 <= N <= 300, one report cache for the sweep;
- `analyze-generators`: `analyze(N)` for 5 <= N <= 61, then `generators(N)`
  for each of those levels, as `perfbench`'s `certify` workload reads them: a
  report cache that did not hold all 57 levels would analyse some again, and
  the wall time would show it; it prints each level's generators;
- `table`: `python3 -m modunits.cli table 5..300 --no-cache`;
- `table-json`: the same with `--json`;
- `analyze-N` for N = 343, 512, 625, 729, 972 and 1024: `analyze(N)` alone,
  printing the class number and the structure, so that the digests of the
  standard output show whether two trees agree;
- `qcheck-N` for N = 61, 73 and 97: `python3 -m modunits.cli qcheck N`, whose
  standard output digests likewise show whether two trees agree.

With several --src trees the runs alternate between them, R runs per tree.
For each tree and sweep the output lists every run's peak RSS of the child
(ru_maxrss, MB), its wall time, that time scaled to the reference speed of
`perfbench/reference.py` (times REFERENCE_S over the mean of two kernel
samples, one just before and one just after the child) and the SHA-256 of
its standard output, and the medians of the peak RSS, the wall time and
the scaled time.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import reference  # noqa: E402

SWEEPS = {
    "analyze": [sys.executable, "-c", "from modunits import analyze\nfor N in range(5, 301):\n    analyze(N)"],
    "analyze-generators": [
        sys.executable,
        "-c",
        "from modunits import analyze, generators\nfor N in range(5, 62):\n    analyze(N)\nfor N in range(5, 62):\n    print(N, generators(N))",
    ],
    "table": [sys.executable, "-m", "modunits.cli", "table", "5..300", "--no-cache"],
    "table-json": [sys.executable, "-m", "modunits.cli", "table", "5..300", "--no-cache", "--json"],
    **{
        f"analyze-{N}": [sys.executable, "-c", f"from modunits import analyze\nr = analyze({N})\nprint(r.class_number, r.structure)"]
        for N in (343, 512, 625, 729, 972, 1024)
    },
    **{f"qcheck-{N}": [sys.executable, "-m", "modunits.cli", "qcheck", str(N)] for N in (61, 73, 97)},
}


def run_once(src: str, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    before = reference.sample()
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)  # the child's own rusage
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    after = reference.sample()
    if child.returncode:
        raise SystemExit(f"{argv} under {src} exited {child.returncode}")
    return {
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),
        "wall_s": round(wall, 3),
        "scaled_wall_s": round(wall * reference.REFERENCE_S / ((before + after) / 2), 3),
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", help="source tree to put on PYTHONPATH (repeatable)")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args()
    trees = args.src or ["src"]
    runs = {src: {name: [] for name in SWEEPS} for src in trees}
    for _ in range(args.runs):
        for name, argv in SWEEPS.items():
            for src in trees:
                runs[src][name].append(run_once(src, argv))
    result = {}
    for src, sweeps in runs.items():
        result[src] = {}
        for name, samples in sweeps.items():
            medians = {k: statistics.median(s[k] for s in samples) for k in ("peak_rss_mb", "wall_s", "scaled_wall_s")}
            result[src][name] = {"median": medians, "runs": samples}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
