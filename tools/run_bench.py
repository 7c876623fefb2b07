#!/usr/bin/env python3
"""Regenerates the rows of BENCH_stemming.json.

    tools/run_bench.py                      stemming_opt: legacy vs arena
                                            stemmer per size
    tools/run_bench.py --throughput         throughput_events_per_sec
    tools/run_bench.py --internet           internet_scale_throughput
    tools/run_bench.py --overhead ROW|all   ROW_overhead for serve,
                                            dashboard, checkpoint, provenance

--quick trims every mode (the bench_smoke* ctest entries run it) and
writes <build>/BENCH_stemming_quick.json unless --out names a file.
--build-dir (default <repo>/build) holds the bench binaries; a missing
one is built there.

Every row goes through write_row, which adds the run metadata (git sha,
build type, host_cpus) and merges the row into the output file
atomically.  Every overhead row goes through overhead_estimate: the
median of all pair ratios, a distribution-free 95 % interval for it and
a verdict against the budget.  docs/OBSERVABILITY.md ("How overhead is
measured") explains the estimator.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

OVERHEAD_BUDGET = 0.03
OVERHEAD_PAIRS = 24  # full mode; --quick runs one pair
OVERHEAD_WORKLOADS = {
    "serve": "Pipeline::Analyze batches (BerkeleyScale(23000) spike, 57k "
             "events, 2 threads), with vs without a 1 Hz /metrics + /varz "
             "scraper",
    "dashboard": "the same batches sampling the series store every "
                 "iteration, with vs without a 1 Hz dashboard tab "
                 "(/dashboard, /api/series, /api/incidents/timeline)",
    "checkpoint": "live replay (2000 prefixes, SessionReset + 40k churn, "
                  "10 s tick / 5 min window), with vs without an RNC1 "
                  "snapshot every 16 ticks",
    "provenance": "the same live replay, with vs without a provenance "
                  "ledger",
}
THROUGHPUT_TARGET = 1_000_000
# Full-mode stemming_opt repeats every benchmark this many times, in
# random interleaving, and reads each figure from the median: one
# measurement per side drifted with the host (4.8x-6.3x speedups on an
# unchanged tree).
STEMMING_OPT_REPETITIONS = 5


# ---------------------------------------------------------------------------
# The estimator.

def binomial_interval(n, level=0.95):
    """Ranks of a distribution-free interval for a median from n samples.

    Returns (k, coverage): the sorted samples' k-th smallest and k-th
    largest bound an interval that holds the median of the distribution
    they were drawn from with probability coverage = P(k <= B <= n - k),
    B ~ Binomial(n, 1/2).  k is the largest rank whose coverage is at
    least `level`; None when even k = 1 falls short (n < 6 at 95 %).
    """
    best = None
    tail = 0  # C(n, 0) + ... + C(n, k - 1)
    for k in range(1, n // 2 + 1):
        tail += math.comb(n, k - 1)
        coverage = 1 - 2 * tail / 2**n
        if coverage < level:
            break
        best = (k, coverage)
    return best


def verdict(interval, budget):
    """within / OVER / unresolved for an interval (None: unresolved)."""
    if interval is None:
        return "unresolved"
    low, high = interval
    if high <= budget:
        return "within"
    if low > budget:
        return "OVER"
    return "unresolved"


def overhead_estimate(pairs, budget=OVERHEAD_BUDGET):
    """Median overhead over all pairs, its 95 % interval and verdict."""
    overheads = [p["treated_ns"] / p["base_ns"] - 1.0 for p in pairs]
    ordered = sorted(overheads)
    ranks = binomial_interval(len(ordered))
    interval = None
    coverage = None
    if ranks is not None:
        k, coverage = ranks
        interval = [ordered[k - 1], ordered[-k]]
    return {
        "pairs": len(overheads),
        "overhead_median": statistics.median(overheads),
        "interval_95": interval,
        "interval_coverage": coverage,
        "budget": budget,
        "verdict": verdict(interval, budget),
        "pair_overheads": overheads,
    }


# ---------------------------------------------------------------------------
# The writer.

def run_metadata(build_dir):
    """git sha (or "unknown"), CMake build type and host CPU count."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "--short=12", "HEAD"],
            check=True, capture_output=True, text=True).stdout.strip()
        if subprocess.run(["git", "-C", str(REPO), "diff-index", "--quiet",
                           "HEAD", "--"]).returncode != 0:
            sha += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    build_type = "unknown"
    cache = Path(build_dir) / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1] or "unknown"
    return {"git_sha": sha, "build_type": build_type,
            "host_cpus": os.cpu_count()}


def write_row(out_path, name, row, metadata):
    """Merges `row` plus `metadata` into the JSON file under `name`.

    The other rows are kept.  The file is replaced by a rename, so a
    failed write leaves the previous contents intact.
    """
    out_path = Path(out_path)
    data = json.loads(out_path.read_text()) if out_path.exists() else {}
    data[name] = {**row, **metadata}
    fd, tmp = tempfile.mkstemp(dir=out_path.parent, prefix=out_path.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(data, f, indent=2)
            f.write("\n")
        os.replace(tmp, out_path)
    except BaseException:
        os.unlink(tmp)
        raise
    print(f"updated {name} in {out_path}")


# ---------------------------------------------------------------------------
# The modes.

def bench_json(args, target, flags):
    """Runs a bench binary (building it first if missing); parses stdout."""
    binary = args.build_dir / "bench" / target
    if not os.access(binary, os.X_OK):
        print(f"building {target} in {args.build_dir} ...", file=sys.stderr)
        subprocess.run(["cmake", "--build", str(args.build_dir), "--target",
                        target, "-j", str(os.cpu_count())], check=True)
    proc = subprocess.run([str(binary), *flags], check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout)


def benchmark_runs(report):
    """Benchmark name -> the run its figures come from.

    A repeated benchmark reports one iteration row per repetition plus
    aggregate rows; its figures are the median aggregate's.  A benchmark
    run once (--quick) has only its iteration row.
    """
    runs = {}
    for b in report["benchmarks"]:
        if b.get("run_type", "iteration") == "iteration":
            runs.setdefault(b["name"], b)
    for b in report["benchmarks"]:
        if b.get("aggregate_name") == "median":
            runs[b["run_name"]] = b
    return runs


def stemming_opt_row(report, quick):
    """The stemming_opt row from a bench_stemming_opt JSON report.

    Returns (row, failure): failure is the message the run exits with when
    the full-mode speedup at 330k misses the 5x target, else None.
    """
    scale = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
    runs = benchmark_runs(report)

    def ns(name):
        b = runs.get(name)
        return (None if b is None
                else b["real_time"] * scale[b.get("time_unit", "ns")])

    rows = []
    for size in (12_000, 57_000, 330_000):
        legacy = ns(f"BM_StemmingLegacy/{size}")
        arena = ns(f"BM_StemmingArena/{size}")
        if legacy is None and arena is None:
            continue
        row = {"events": size, "legacy_ns_per_op": legacy,
               "arena_ns_per_op": arena}
        if legacy is not None and arena:
            row["speedup"] = legacy / arena
        rows.append(row)
    if not rows:
        sys.exit("no benchmark rows parsed")
    big = next((r for r in rows
                if r["events"] == 330_000 and "speedup" in r), None)
    result = {
        "benchmark": "bench_stemming_opt",
        "workload": "BerkeleyScale(23000) SpikeEvents, Table I stemming rows",
        "repetitions": 1 if quick else STEMMING_OPT_REPETITIONS,
        "rows": rows,
        "serial_speedup_330k": big and big["speedup"],
    }
    failure = None
    if not quick and big is not None and big["speedup"] < 5.0:
        failure = (f'serial speedup at 330k is {big["speedup"]:.2f}x, below '
                   "the 5x target")
    return result, failure


def stemming_opt(args):
    flags = ["--benchmark_format=json"]
    if args.quick:  # 12k rows, short runs
        flags += ["--benchmark_filter=/12000$",
                  "--benchmark_min_time=0.05"]
    else:  # every figure is a median over interleaved repetitions
        flags += [f"--benchmark_repetitions={STEMMING_OPT_REPETITIONS}",
                  "--benchmark_enable_random_interleaving=true"]
    report = bench_json(args, "bench_stemming_opt", flags)
    result, failure = stemming_opt_row(report, args.quick)
    write_row(args.out, "stemming_opt", result, args.meta)
    for r in result["rows"]:
        print(f'  {r["events"]:>7} events: legacy '
              f'{(r["legacy_ns_per_op"] or 0) / 1e6:.1f} ms, arena '
              f'{(r["arena_ns_per_op"] or 0) / 1e6:.1f} ms, speedup '
              f'{r.get("speedup", 0):.1f}x')
    if failure:
        sys.exit(failure)


def throughput(args):
    """The live replay's events/s per thread count, median over reps.

    bench_throughput replays the full serve path once per (thread count,
    rep) and exits non-zero unless every run's incident stream is
    byte-identical, so the row doubles as a determinism check.
    """
    reps = 1 if args.quick else 3
    threads = "1,2" if args.quick else "1,2,4,8"
    if args.internet:
        ases, prefixes, peers = ((4000, 20000, 3) if args.quick
                                 else (32000, 210000, 5))
        flags = ["--internet", "--ases", str(ases), "--prefixes",
                 str(prefixes), "--peers", str(peers)]
        name = "internet_scale_throughput"
        workload = (f"BuildInternetScale({ases // 1000}k ASes, "
                    f"{prefixes // 1000}k prefixes, {peers} vantages)")
    else:
        flags = ["--events", "40000" if args.quick else "200000"]
        name = "throughput_events_per_sec"
        workload = "SessionReset + Churn"
    report = bench_json(args, "bench_throughput",
                        [*flags, "--reps", str(reps),
                         "--threads", threads])
    rows = [{
        "threads": r["threads"],
        "events_per_sec": statistics.median(x["events_per_sec"]
                                            for x in r["reps"]),
        "seconds": statistics.median(x["seconds"] for x in r["reps"]),
        "incidents": r["reps"][0]["incidents"],
        "reps": r["reps"],
    } for r in report["rows"]]
    write_row(args.out, name, {
        "benchmark": "bench_throughput" + (" --internet" if args.internet
                                           else ""),
        "workload": workload + " live replay, 10s tick / 5min window",
        "target_events_per_sec": THROUGHPUT_TARGET,
        "events": report["events"],
        "incident_streams_identical": report["incident_streams_identical"],
        "rows": rows,
    }, args.meta)
    for r in rows:
        print(f'  {r["threads"]} thread(s): {r["events_per_sec"]:>10,.0f} '
              f'events/s, median of {len(r["reps"])} ({r["seconds"]:.2f} s, '
              f'{r["incidents"]} incidents)')


def overhead(args, row):
    report = bench_json(args, "bench_overhead",
                        [row, "--pairs", "1" if args.quick else
                         str(OVERHEAD_PAIRS)])
    pairs = report["pairs"]
    estimate = overhead_estimate(pairs)
    write_row(args.out, f"{row}_overhead", {
        "benchmark": f"bench_overhead {row}",
        "workload": OVERHEAD_WORKLOADS[row],
        "metric": "process_cpu_time",
        "base_ns_median": statistics.median(p["base_ns"] for p in pairs),
        "treated_ns_median": statistics.median(p["treated_ns"]
                                               for p in pairs),
        **estimate,
    }, args.meta)
    interval = estimate["interval_95"]
    span = ("no 95 % interval from so few pairs" if interval is None else
            f"95 % interval [{interval[0]:+.2%}, {interval[1]:+.2%}] "
            f"(coverage {estimate['interval_coverage']:.1%})")
    print(f'  {row}: median {estimate["overhead_median"]:+.2%} over '
          f'{estimate["pairs"]} pairs, {span}: {estimate["verdict"]} '
          f'against the {OVERHEAD_BUDGET:.0%} budget')


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--quick", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--throughput", action="store_true")
    mode.add_argument("--internet", action="store_true")
    mode.add_argument("--overhead", metavar="ROW|all",
                      choices=[*OVERHEAD_WORKLOADS, "all"])
    parser.add_argument("--build-dir", type=Path, default=REPO / "build")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    args.out = args.out or (
        args.build_dir / "BENCH_stemming_quick.json" if args.quick
        else REPO / "BENCH_stemming.json")
    args.meta = run_metadata(args.build_dir)
    if args.overhead:
        for row in (OVERHEAD_WORKLOADS if args.overhead == "all"
                    else [args.overhead]):
            overhead(args, row)
    elif args.throughput or args.internet:
        throughput(args)
    else:
        stemming_opt(args)


if __name__ == "__main__":
    main()
