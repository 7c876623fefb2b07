#!/usr/bin/env python3
"""The ranomaly benchmark: serve-dump, serve-quiet and offline-table1.

Run from the repository root:

    python3 perfbench/run.py --workload serve-dump --seed 1 --seconds 30 --trace 0

It builds perfbench/ (which compiles the ranomaly libraries from src/)
into .bench_build/, generates the workload's capture from --seed,
replays it in fresh processes until --seconds of measurement have
passed, checks the outputs, and prints every metric by name with its
unit and sample count.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1 (which also writes
a Chrome trace under .bench_build/traces/).  perfbench/README.md
defines the workloads and every metric.

    python3 perfbench/run.py --describe

regenerates perfbench/workloads.json (generator parameters, event
counts, checksums and the serve-quiet anomaly schedule for seed 1).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD = BUILD_ROOT / "perfbench"
WORK = BUILD_ROOT / "work"
TRACES = BUILD_ROOT / "traces"
BINARY = BUILD / "perfbench"
BUILD_TYPE = "Release"

# Pool threads per workload (capped at nproc) and whether the
# correctness gate compares against a 1-thread run of the same capture.
# The multi-threaded workloads use 2, not every core: at these sizes 4
# threads gain little over 2, and on a shared host a pool that occupies
# every core turns any neighbour's load into stragglers, which spread the
# 4-thread figures most.
WORKLOADS = {
    "serve-dump": {"threads": 2, "serve": True, "one_thread_gate": True},
    "serve-quiet": {"threads": 1, "serve": True, "one_thread_gate": False},
    "offline-table1": {"threads": 2, "serve": False, "one_thread_gate": True},
}
TICK_PERIOD_MS = 10_000.0  # a serve tick slower than this falls behind
DETECT_WITHIN_S = 300.0    # an anomaly counts as detected within this
ANIMATION_FRAMES = 750     # tamp::AnimationOptions: 30 s at 25 fps
SETUP_SAMPLES = 11         # setup_s is the median of this many processes
# The traced run fails when its layers account for less than this share
# of its end-to-end seconds: a re-enactment gone stale (README.md).  Host
# drift between the replay and the re-enactment costs healthy runs up to
# ~6 %; a stale one reads far lower (0.31 with AnalyzeWindow counted twice).
COVERAGE_MIN = 0.75

END_TO_END = [
    ("events_per_s", "events/s"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]
PER_LAYER = [
    ("collector.load_s", "s"),
    ("collector.checkpoint_write_s", "s"),
    ("stemming.stem_s", "s"),
    ("stemming.encode_s", "s"),
    ("stemming.count_s", "s"),
    ("stemming.extract_s", "s"),
    ("stemming.events_encoded", "count"),
    ("stemming.distinct_ratio", "ratio"),
    ("stemming.bigram_entries", "count"),
    ("stemming.components", "count"),
    ("stemming.parallel_frac", "ratio"),
    ("core.pipeline.analyze_window_s", "s"),
    ("core.pipeline.classify_s", "s"),
    ("core.pipeline.analyze_s", "s"),
    ("core.live.self_s", "s"),
    ("core.live.ticks", "count"),
    ("core.live.incidents", "count"),
    ("core.live.detect_delay_s_p50", "sim_s"),
    ("core.live.anomalies_missed", "count"),
    ("core.checkpoint.encode_s", "s"),
    ("core.checkpoint.bytes", "bytes"),
    ("core.provenance_s", "s"),
    ("obs.series.sample_s", "s"),
    ("obs.series.count", "count"),
    ("util.pool.cpu_per_wall", "ratio"),
    ("util.pool.speedup", "ratio"),
    ("tamp.play_s", "s"),
    ("tamp.render_s", "s"),
    ("tamp.frames_rendered", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]


# Every invocation must end within 180 s of the build finishing.
BUDGET_S = 175
deadline = None


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    """Configures and builds perfbench/ (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"no sources at {ROOT / 'src'}; nothing to build")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def nproc():
    return len(os.sched_getaffinity(0))


def source_id():
    """The git sha when the tree is a checkout, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def perfbench(*args):
    cmd = [str(BINARY), *map(str, args)]
    timeout = None if deadline is None else max(1, deadline - time.monotonic())
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(cmd)}") from e
    if out.returncode != 0:
        raise BenchError(f"exit {out.returncode}: {' '.join(cmd)}\n"
                         + out.stderr[-2000:])
    return json.loads(out.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list."""
    v = sorted(values)
    k = (len(v) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


class Replayer:
    """Runs perfbench subcommands, each in a fresh process with a fresh
    checkpoint path, so no registry, RSS peak or snapshot carries over."""

    def __init__(self, workload, seed, capture):
        self.workload = workload
        self.capture = capture
        self.prefix = f"{workload}-{seed}-{os.getpid()}"
        self.count = 0

    def _scratch(self, checkpoint):
        for suffix in ("", ".tmp", ".reencoded", ".reencoded.tmp"):
            Path(str(checkpoint) + suffix).unlink(missing_ok=True)

    def __call__(self, cmd, threads, *extra):
        self.count += 1
        checkpoint = WORK / f"{self.prefix}-{self.count}.rnc1"
        self._scratch(checkpoint)
        try:
            if cmd == "setup":
                return perfbench(cmd, self.workload, self.capture, threads)
            return perfbench(cmd, self.workload, self.capture, threads,
                             checkpoint, *extra)
        finally:
            self._scratch(checkpoint)


def check_run(run, meta, serve):
    """Invariants every replay must meet; returns a list of problems."""
    problems = []
    if run["events"] != meta["events"]:
        problems.append(f"replayed {run['events']} of {meta['events']} events")
    if serve:
        if run["ticks"] != meta["ticks"]:
            problems.append(f"{run['ticks']} ticks, expected {meta['ticks']}")
        if run.get("restored"):
            problems.append("restored from a stale checkpoint")
        if run.get("checkpoint_failures"):
            problems.append(f"{run['checkpoint_failures']} checkpoint failures")
    elif run["frames"] != ANIMATION_FRAMES:
        problems.append(f"{run['frames']} animation frames, expected "
                        f"{ANIMATION_FRAMES}")
    return problems


def detection(detected_at_s, anomalies):
    """Per injected anomaly: seconds from onset to the first incident
    detected in (onset, onset + DETECT_WITHIN_S], or None if none was."""
    delays = []
    for a in anomalies:
        hits = [t - a["onset_s"] for t in detected_at_s
                if a["onset_s"] < t <= a["onset_s"] + DETECT_WITHIN_S]
        delays.append(min(hits) if hits else None)
    return delays


def generate(workload, seed, name):
    """Writes the workload's capture for `seed` to WORK/name and returns
    the generator's description of it."""
    capture = WORK / name
    try:
        return perfbench("gen", workload, seed, capture)
    finally:
        capture.unlink(missing_ok=True)


def input_drift(seed_1, recorded):
    """Compares a fresh seed-1 capture with the one workloads.json
    records; a difference means the generator (src/workload) or the
    capture writer changed, so two trees would be measured on different
    inputs."""
    got = {k: seed_1[k] for k in ("events", "crc32")}
    want = {k: recorded[k] for k in ("events", "crc32")}
    return None if got == want else f"seed-1 capture is {got}, " \
        f"workloads.json records {want}"


def describe():
    """Regenerates perfbench/workloads.json for the reference seed."""
    build()
    WORK.mkdir(parents=True, exist_ok=True)
    doc = json.loads((HERE / "workloads.json").read_text())
    for name in WORKLOADS:
        meta = generate(name, 1, f"describe-{name}.rne1")
        drift = input_drift(meta, doc["workloads"][name]["seed_1"])
        log(f"{name}: {'CHANGED: ' + drift if drift else 'unchanged'}")
        entry = doc["workloads"][name]
        entry["threads"] = WORKLOADS[name]["threads"]
        entry["generator"] = meta["params"]
        keys = ["events", "markers", "bytes", "crc32", "span_s"]
        if WORKLOADS[name]["serve"]:
            keys.append("ticks")
        entry["seed_1"] = {k: meta[k] for k in keys}
        if meta["anomalies"]:
            entry["seed_1"]["anomaly_schedule"] = meta["anomalies"]
    (HERE / "workloads.json").write_text(json.dumps(doc, indent=2) + "\n")


def bench(workload, seed, seconds, trace):
    global deadline
    spec = WORKLOADS[workload]
    build()
    deadline = time.monotonic() + BUDGET_S
    threads = min(spec["threads"], nproc())
    log(f"perfbench {workload}: seed {seed}, {threads} pool threads, "
        f"nproc {nproc()}, build {BUILD_TYPE}, source {source_id()}")
    WORK.mkdir(parents=True, exist_ok=True)
    capture = WORK / f"{workload}-{seed}-{os.getpid()}.rne1"
    try:
        return measure(workload, spec, seed, seconds, trace, threads, capture)
    finally:
        capture.unlink(missing_ok=True)


def measure(workload, spec, seed, seconds, trace, threads, capture):
    serve = spec["serve"]
    started = time.monotonic()
    meta = perfbench("gen", workload, seed, capture)
    log(f"capture: {meta['events']} events over {meta['span_s']:.0f} s, "
        f"crc32 {meta['crc32']}, generated in "
        f"{time.monotonic() - started:.1f} s")
    problems = []
    seed_1 = meta if seed == 1 else generate(workload, 1, capture.name + ".1")
    recorded = json.loads((HERE / "workloads.json").read_text())
    drift = input_drift(seed_1, recorded["workloads"][workload]["seed_1"])
    log(f"inputs: seed-1 capture "
        f"{'differs: ' + drift if drift else 'matches workloads.json'}")
    if drift:
        problems.append(f"inputs changed: {drift}")
    replay = Replayer(workload, seed, capture)

    # Measured runs: untraced, one fresh process each, until --seconds.
    # A run is not started when it would end past --seconds (at least
    # one always runs).
    runs = []
    t0 = time.monotonic()
    while True:
        run = replay("run", threads)
        runs.append(run)
        problems += check_run(run, meta, serve)
        log(f"run {len(runs)}: wall {run['wall_s']:.3f} s, setup "
            f"{run['setup_s']:.4f} s, {run['ticks']} ticks, "
            f"{run['incidents']} incidents, digest {run['digest']}")
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(runs) > seconds:
            break
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(replay("setup", threads)["setup_s"])

    # Correctness gate: every run's outputs must equal the reference —
    # a 1-thread run of the same capture where threads matter, else the
    # first run (process-to-process determinism).
    outputs = ("digest", "svg_digest") if not serve else ("digest",)
    if spec["one_thread_gate"]:
        ref = replay("run", 1)
        problems += check_run(ref, meta, serve)
        ref_name = "1-thread run"
    else:
        ref, ref_name = runs[0], "run 1"
    mismatched = sum(1 for r in runs if any(r[k] != ref[k] for k in outputs))
    log(f"gate: {len(runs) - mismatched}/{len(runs)} runs match the "
        f"{ref_name} ({', '.join(f'{k} {ref[k]}' for k in outputs)})")

    ticks = [t for r in runs for t in r["tick_ms"]]
    slow = sum(1 for t in ticks if t > TICK_PERIOD_MS) if serve else 0
    if serve:
        attempted = len(ticks) + len(runs)
        failed = slow + mismatched
        log(f"operations: {len(ticks)} ticks ({slow} over the "
            f"{TICK_PERIOD_MS / 1000:.0f} s tick period) + {len(runs)} gate "
            f"comparisons ({mismatched} mismatched)")
    else:
        attempted, failed = len(runs), mismatched
        log(f"operations: {len(runs)} runs ({mismatched} failed the gate)")

    delays = detection(runs[0]["detected_at_s"], meta["anomalies"]) \
        if serve else []
    hit = [d for d in delays if d is not None]
    if meta["anomalies"]:
        log(f"detection: {len(delays)} anomalies injected, {len(hit)} detected "
            f"within {DETECT_WITHIN_S:.0f} s, {len(delays) - len(hit)} missed; "
            f"delay p50 {statistics.median(hit) if hit else 0:.3f} s "
            f"(sim time, n={len(hit)})")

    # Tick percentiles are taken in each run, then the median over runs,
    # like every other timing: an offline run holds only ~150 busy frames,
    # so a p99 over all runs' frames pooled would be set by the one run a
    # host burst slowed.
    def tick_ms(p):
        return statistics.median(percentile(r["tick_ms"], p) for r in runs)

    per_run = min(len(r["tick_ms"]) for r in runs)
    what = "ticks" if serve else "busy frames"
    e2e = {
        "events_per_s": statistics.median(r["events"] / r["wall_s"]
                                          for r in runs),
        "tick_ms_p50": tick_ms(50),
        "tick_ms_p99": tick_ms(99),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in runs),
    }
    counts = {
        "events_per_s": f"median of {len(runs)} runs",
        "tick_ms_p50": f"median of {len(runs)} runs, {per_run} {what} each",
        "tick_ms_p99": f"median of {len(runs)} runs, {per_run} {what} each, "
                       f"{int(per_run * 0.01)} beyond in each",
        "setup_s": f"median of {len(setups)} processes",
        "peak_rss_mib": f"median of {len(runs)} runs",
    }
    for name, unit in END_TO_END:
        log(f"{name} = {e2e[name]:.6g} {unit} ({counts[name]})")
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END}

    if trace:
        layers = traced(workload, spec, threads, replay, meta, runs, ref,
                        setups, outputs, delays, problems)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}

    for p in problems:
        log(f"PROBLEM: {p}")
    correct = not problems and mismatched == 0
    log(f"correct: {str(correct).lower()}; elapsed "
        f"{time.monotonic() - started:.1f} s")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(workload, spec, threads, replay, meta, runs, ref, setups, outputs,
           delays, problems):
    TRACES.mkdir(parents=True, exist_ok=True)
    trace_path = TRACES / f"{workload}.json"
    t = replay("trace", threads, trace_path)
    problems += check_run(t, meta, spec["serve"])
    if any(t[k] != runs[0][k] for k in outputs):
        problems.append("traced run's outputs differ from the untraced "
                        "runs'")
    if spec["serve"] and not t["reenactment_matches"]:
        problems.append(f"re-enacted {t['reenacted_incidents']} incidents do "
                        f"not equal the runner's {t['incidents']}")
    untraced_s = statistics.median(setups) + statistics.median(
        r["wall_s"] for r in runs)
    layers = dict(t["layers"])
    hit = [d for d in delays if d is not None]
    layers["core.live.detect_delay_s_p50"] = statistics.median(hit) if hit else 0
    layers["core.live.anomalies_missed"] = len(delays) - len(hit)
    layers["util.pool.cpu_per_wall"] = statistics.median(
        r["cpu_s"] / r["wall_s"] for r in runs)
    layers["util.pool.speedup"] = (
        ref["wall_s"] / statistics.median(r["wall_s"] for r in runs)
        if spec["one_thread_gate"] else 1.0)
    coverage = t["attributed_s"] / t["end_to_end_s"]
    layers["trace.coverage"] = coverage
    layers["trace.overhead"] = t["traced_s"] / untraced_s - 1
    if spec["serve"]:
        log(f"re-enactment: {t['reenacted_incidents']} incidents, runner "
            f"logged {t['incidents']}: "
            f"{'equal' if t['reenactment_matches'] else 'DIFFERENT'}")
    log(f"attribution: layers account for {t['attributed_s']:.3f} s of the "
        f"traced run's {t['end_to_end_s']:.3f} s end-to-end (coverage "
        f"{coverage:.4f}; at least {COVERAGE_MIN}: "
        f"{'met' if coverage >= COVERAGE_MIN else 'NOT met'}); untraced "
        f"end-to-end {untraced_s:.3f} s")
    if coverage < COVERAGE_MIN:
        problems.append(f"layers account for {coverage:.3f} of the traced "
                        f"run, below {COVERAGE_MIN}: the re-enactment no "
                        f"longer matches the live loop")
    log(f"chrome trace: {trace_path}")
    for name, unit in PER_LAYER:
        log(f"{name} = {layers[name]:.6g} {unit}")
    return layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args()
    try:
        if args.describe:
            describe()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
