"""Steadiness mode: runs each workload once per seed and summarises the spread.

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 --rounds 2 \
        --out perfbench/results/steadiness.json

Every workload in `workloads.WORKLOADS` runs at BENCHMARK.json's
`run_seconds`, once per seed in each round.  For every end-to-end metric
and workload it prints the median and the quartiles over seeds (as
`statistics.quantiles(values, n=4)` gives them) and the spread,
(q3 - q1) / median.  From the second round on it also prints how far the
round's median moved from the first round's, and the same-seed change:
per seed, how far the value moved from the first round's run of that seed
(median and largest absolute change).  The same-seed change is run-to-run
noise alone; the spread over seeds also holds the differences between the
items that each seed draws.  These figures set the regression bounds in
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[6:]) for l in lines if l.startswith("# env ")), None)
    result = json.loads(lines[-1])
    return {"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed, "env": env, **result}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
    return out


def same_seed_change(first: dict, later: dict) -> dict:
    """How far a later round moved from the first, overall and seed by seed."""
    changes = [abs(b / a - 1) for a, b in zip(first["values"], later["values"])]
    return {
        "median_moved": later["median"] / first["median"] - 1,
        "same_seed_median": statistics.median(changes),
        "same_seed_max": max(changes),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--out", default=None, help="write all runs and summaries as JSON")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in workloads.WORKLOADS:
        rounds = []
        for r in range(args.rounds):
            runs = []
            for seed in args.seeds:
                run = run_once(workload, seed, seconds)
                ok &= run["exit"] == 0 and run["correct"]
                runs.append(run)
                print(
                    f"{workload} round {r + 1} seed {seed}: exit {run['exit']}, "
                    f"{run['failed']}/{run['attempted']} failed, {run['elapsed_s']:.1f} s, "
                    f"wall_s {run['metrics']['wall_s']['value']:.4f}",
                    flush=True,
                )
            summary = summarise(runs)
            if rounds:
                for name, stats in summary.items():
                    stats.update(same_seed_change(rounds[0]["summary"][name], stats))
            rounds.append({"runs": runs, "summary": summary})
        report["workloads"][workload] = rounds
        for r, rnd in enumerate(rounds):
            for name, s in rnd["summary"].items():
                drift = ""
                if r:
                    drift = (
                        f"  median moved {100 * s['median_moved']:+6.2f} %"
                        f"  same-seed change median {100 * s['same_seed_median']:5.2f} %"
                        f" max {100 * s['same_seed_max']:5.2f} %"
                    )
                print(
                    f"  {workload:<10} r{r + 1} {name:<12} median {s['median']:12.6f}  "
                    f"q1 {s['q1']:12.6f}  q3 {s['q3']:12.6f}  "
                    f"spread {100 * s['spread']:6.2f} %{drift}",
                    flush=True,
                )
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
