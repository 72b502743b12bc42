"""Pipeline benchmark for modunits: time to exact, checked class groups.

    python3 perfbench/run.py --workload levels --seed 1 --seconds 54 --trace 0

Runs from the root of a source checkout; `modunits` is imported from
`src/` in fresh worker interpreters.  Each pass computes the workload's
shared items and every other item that needs an interpreter of its own,
one item after another, with no pool.  Every item runs at least twice,
and passes go on while the next one is expected to end within
`--seconds`.  Each item's time is scaled to reference speed by the
reference kernel timed around it (see reference.py); the timing metrics
take each item's median over the passes.  With
`--trace 1`, untraced passes that run every item once are followed by one
traced pass, which replays the pipeline one public call per span and
gives the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every item is checked (routes
agree, group order equals h, reference tables, recorded digests); a
failure or timeout makes the command exit with 1.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170  # the whole command must end within 180 s
ITEM_TIMEOUT_S = 60
SETUP_PROBES = 11
MIN_PASSES = 2  # so that one slow phase of a shared machine is not a whole run

SETUP_PROBE = """
import json, time
t0 = time.perf_counter()
import modunits
from modunits import corpus
t1 = time.perf_counter()
corpus.structures(); corpus.primary_rows(); corpus.mixed_primary_rows(); corpus.worked_examples()
print(json.dumps({"import_s": t1 - t0, "corpus_s": time.perf_counter() - t1}))
"""

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("item_p50_s", "s"),
    ("item_max_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer busy times: metric name -> span names summed into it
BUSY = {
    "basis.basis.busy_s": ("basis.basis",),
    "siegel.checks.busy_s": ("siegel.is_gamma1_modular", "siegel.orbit_condition_holds"),
    "siegel.divisor.busy_s": ("siegel.divisor",),
    "zlinalg.lattice_index.busy_s": ("zlinalg.lattice_index",),
    "zlinalg.smith_invariants_bounded.busy_s": ("zlinalg.smith_invariants_bounded",),
    "bernoulli.yu_prefactor.busy_s": ("bernoulli.yu_prefactor",),
    "bernoulli.nonprincipal_quarter_product.busy_s": ("bernoulli.nonprincipal_quarter_product",),
    "classgroup.generators.busy_s": ("classgroup.generators",),
    "classgroup.is_principal.busy_s": ("classgroup.is_principal",),
    "qexpansion.expand_product.busy_s": ("qexpansion.expand_product",),
    "cli.build_record.busy_s": ("cli.build_record",),
    "cli.cache.store_s": ("cli.cache.store",),
    "cli.cache.load_s": ("cli.cache.load",),
}

# per-layer counts: metric name -> unit; summed over items, or the maximum
# for the *_bits and matrix_dim sizes
COUNTS = {
    "basis.elements": "count",
    "siegel.order_evals": "count",
    "zlinalg.matrix_cells": "count",
    "zlinalg.annihilator_bits": "bits",
    "zlinalg.input_entry_bits": "bits",
    "bernoulli.matrix_dim": "rows",
    "classgroup.generator_coeff_bits": "bits",
    "qexpansion.calls": "count",
    "qexpansion.terms": "count",
    "qexpansion.coeff_bits": "bits",
}


class Pass:
    """One pass over a workload's items: worker outputs merged."""

    def __init__(self, items):
        self.items = items
        self.records: dict[str, dict] = {}
        self.rss_kb: list[int] = []
        self.spans: list[list] = []
        self.sums: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.errors: list[str] = []

    def merge(self, proc: int, out: dict) -> None:
        samples = out["ref_samples"]
        for r in out["items"]:
            if "wall" in r:
                # the kernel's time around the item: the samples just before and after it
                kernel_s = (samples[r["ref"]] + samples[r["ref"] + 1]) / 2
                scale = reference.REFERENCE_S / kernel_s
                r["wall_ref"] = r["wall"] * scale
                r["cpu_ref"] = r["cpu"] * scale
            self.records[r["id"]] = r
        self.rss_kb.append(out["rss_kb"])
        self.spans.extend([proc, *s] for s in out["spans"])
        for name, value in out["sums"].items():
            self.sums[name] = self.sums.get(name, 0) + value
        for name, value in out["peaks"].items():
            self.peaks[name] = max(self.peaks.get(name, 0), value)

    @property
    def wall(self) -> float:
        return sum(r["wall"] for r in self.records.values() if "wall" in r)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(deadline: float) -> tuple[float, float]:
    """Median wall time of a fresh `import modunits` plus the corpus tables,
    and the median corpus share of it.  One unmeasured probe first writes
    the bytecode cache, which users also have after their first call."""
    setup, corpus = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
        elapsed = time.perf_counter() - t0
        if i:
            setup.append(elapsed)
            corpus.append(json.loads(proc.stdout)["corpus_s"])
    return statistics.median(setup), statistics.median(corpus)


def run_pass(items, trace, deadline, cache_dir=None) -> Pass:
    """One pass: the shared items in one interpreter, then each `fresh`
    item in an interpreter of its own."""
    shared = [it for it in items if not it["fresh"]]
    groups = ([shared] if shared else []) + [[it] for it in items if it["fresh"]]
    result = Pass(items)
    for proc, group in enumerate(groups):
        spec = {"items": group, "trace": trace, "cache_dir": cache_dir}
        try:
            out = subprocess.run(
                [sys.executable, WORKER],
                input=json.dumps(spec),
                env=worker_env(),
                capture_output=True,
                text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            result.errors.append(f"worker timed out on {[it['id'] for it in group]}")
            break
        if out.returncode:
            result.errors.append(f"worker exited with {out.returncode}: {out.stderr.strip()}")
            continue
        result.merge(proc, json.loads(out.stdout))
    return result


def check_pass(p: Pass, expected: dict) -> list[str]:
    """Failures of one pass: failed checks, digest mismatches, timeouts."""
    series = {workloads.unit_key(s["n"], s["exponents"]): s["digest"] for s in expected["series"]}
    failures = []
    for item in p.items:
        rec = p.records.get(item["id"])
        if rec is None:
            failures.append(f"{item['id']}: no result (timeout or crash)")
            continue
        if not rec["ok"]:
            failures.append(f"{item['id']}: {rec['error']}")
            continue
        if rec["wall"] > ITEM_TIMEOUT_S:
            failures.append(f"{item['id']}: took {rec['wall']:.1f} s > {ITEM_TIMEOUT_S} s")
            continue
        if item["kind"] == "expand":
            want = series.get(item["id"])
        else:
            want = expected["levels"].get(str(item["n"]))
        if rec["digest"] != want:
            failures.append(f"{item['id']}: digest {rec['digest']} != recorded {want}")
    return failures


def read_commit() -> str:
    """Commit of the checkout, or "unknown" where the checkout is no git repository."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
    except OSError:  # no git on the machine
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def per_item_median(passes, item_id: str, key: str) -> float:
    """Median of one item's time over the passes that produced it (0 if none)."""
    values = [p.records[item_id][key] for p in passes if key in p.records.get(item_id, {})]
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Runs one benchmark invocation; returns (result, report lines, spans)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    load_start = os.getloadavg()[0]
    expected = workloads.load_expected()
    items = workloads.items(workload, seed, expected, tiny=tiny)

    setup_s, corpus_s = measure_setup(deadline)
    # A pass runs the shared items and every other `fresh` one, in turn.  The
    # cheap shared items, whose times jitter most from one sample to the
    # next, then get twice the samples in the same time.  After MIN_PASSES
    # turns, start a pass only when it is expected to end within `seconds`;
    # a traced run needs one untraced turn to compare against.
    shared = [it for it in items if not it["fresh"]]
    fresh = [it for it in items if it["fresh"]]
    groups = [shared + fresh[0::2], shared + fresh[1::2]] if fresh else [items]
    min_passes = (1 if trace else MIN_PASSES) * len(groups)
    passes, longest = [], 0.0
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(run_pass(groups[len(passes) % len(groups)], False, deadline))
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() >= deadline:
            break
        if len(passes) >= min_passes and (trace or time.monotonic() - t0 + longest > seconds):
            break
    traced = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="cache-", dir=OUT_DIR) as cache_dir:
            traced = run_pass(items, True, deadline, cache_dir)

    failures, notes = [], []
    for p in passes + ([traced] if traced else []):
        notes.extend(p.errors)
        failures.extend(check_pass(p, expected))
    attempted = sum(len(p.items) for p in passes) + (len(items) if traced else 0)
    failed = len(failures)

    # per item, the median over passes of its time at reference speed: a
    # burst of load on a shared machine then spoils one sample of an item,
    # not the whole pass
    item_wall = [per_item_median(passes, it["id"], "wall_ref") for it in items]
    item_cpu = [per_item_median(passes, it["id"], "cpu_ref") for it in items]
    measured_wall = sum(per_item_median(passes, it["id"], "wall") for it in items)
    e2e = {
        "setup_s": setup_s,
        "wall_s": sum(item_wall),
        "cpu_s": sum(item_cpu),
        "item_p50_s": statistics.median(item_wall),
        "item_max_s": max(item_wall),
        "peak_rss_mb": statistics.median(max(p.rss_kb or [0]) / 1024 for p in passes),
    }
    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "items": len(items),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": read_commit(),
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
    }

    lines = [f"# env {json.dumps(env, sort_keys=True)}"]
    lines.append(
        f"{workload}: {len(items)} items, {len(passes)} passes of "
        + ", ".join(f"{p.wall:.3f}" for p in passes)
        + f" s measured; median item times sum to {measured_wall:.3f} s measured,"
        + f" {e2e['wall_s']:.3f} s at reference speed"
    )
    units = dict(END_TO_END)
    for name, value in e2e.items():
        lines.append(f"  {name:<12} {value:12.6f} {units[name]}")
    lines.append(f"  {'failed_frac':<12} {failed / attempted:12.6f} ({failed}/{attempted})")
    for msg in (failures + notes)[:20]:
        lines.append(f"  FAIL {msg}")

    if traced is None:
        metrics = {name: {"value": e2e[name], "unit": units[name]} for name in e2e}
        return _result(failed, attempted, metrics), lines, None

    spans = traced.spans  # [proc, id, parent, name, item, start, end]
    layer = {}
    for name, span_names in BUSY.items():
        layer[name] = (sum(s[6] - s[5] for s in spans if s[3] in span_names), "s")
    for name, unit in COUNTS.items():
        layer[name] = (traced.peaks.get(name, traced.sums.get(name, 0)), unit)
    loads = traced.sums.get("cli.cache.loads", 0)
    hits = traced.sums.get("cli.cache.hits", 0)
    layer["cli.cache.hit_ratio"] = (hits / loads if loads else 0.0, "ratio")
    layer["corpus.load_s"] = (corpus_s, "s")
    layer["trace.overhead_s"] = (traced.wall - measured_wall, "s")

    lines.append(f"traced pass: wall {traced.wall:.3f} s, {len(spans)} spans")
    for name, (value, unit) in layer.items():
        share = ""
        if unit == "s" and traced.wall:
            share = f"{100 * value / traced.wall:6.1f} % of traced item time"
        lines.append(f"  {name:<46} {value:14.6f} {unit:<6} {share}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    trace_out = {
        "env": env,
        "fields": ["proc", "id", "parent", "name", "item", "start", "end"],
        "spans": spans,
    }
    return _result(failed, attempted, metrics), lines, trace_out


def _result(failed: int, attempted: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modunits", "__init__.py")):
        print(f"error: no modunits sources under {SRC}", file=sys.stderr)
        return 2

    result, lines, trace_out = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if trace_out is not None:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump(trace_out, f)
        lines.append(f"spans written to {os.path.relpath(path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
