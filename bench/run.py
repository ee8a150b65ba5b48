#!/usr/bin/env python3
"""Benchmark of the tableaux engine: seeded workloads, end to end or traced per layer.

Usage:
    python3 bench/run.py --workload {oracle,lr_table,cli,all} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
One process, one client, one query at a time (a closed loop). The
workload's batch of queries runs again and again until ``--seconds`` have
passed, with the ``schur_polynomial`` cache cleared and ``gc.collect()``
called before each batch, so every batch does the same work.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
the median batch time and query latency percentiles pooled over all
queries, peak memory of this process, and the median set-up time of
several fresh processes that import the library and build the inputs.
Times are reference-scaled (``ref_s``, ``ref_ms``; ``setup_s`` likewise):
wall time multiplied by 1 ms over the time of ``workloads.reference_loop``,
a fixed pure-Python loop run between queries every 20 ms of the same batch
(and right after set-up in each set-up process), that is, the time on a
host where that loop takes exactly 1 ms. On a shared 2-vCPU VM the wall
time of one batch drifted by 13% (coefficient of variation over 35
batches in 90 s, CPU time equal to wall time) and the scaled time by 3%,
because the host slows the loop and the library alike. The report lines
show the wall times as well.
``--trace 1`` alternates untraced and traced batches, reports the
per-layer metrics of the traced batch with the median duration, and then
times a growth ladder of single products and RSK sizes.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
SETUP_REFERENCE_RUNS = 10
MIN_BATCHES = 2  # work counts must repeat between two batches of one seed
LADDER_PRODUCTS = {  # degree 9 took about 20 s on a 2-core x86-64 VM with Python 3.11
    "deg6": ((2, 1), (2, 1)),
    "deg7": ((3, 1), (2, 1)),
    "deg8": ((3, 1), (3, 1)),
    "deg9": ((3, 2), (2, 2)),
}
LADDER_RSK = (1000, 2000, 5000)
WORKLOADS = ("oracle", "lr_table", "cli")
REFERENCE_EVERY_S = 0.02
REFERENCE_SCALE_S = 1e-3  # scaled times are seconds on a host where reference_loop takes this long

clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import tableaux from this checkout's src/, never from anywhere else."""
    if not (SRC / "tableaux" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'tableaux'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import tableaux

    if not Path(tableaux.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported tableaux from {tableaux.__file__}, not {SRC}")
    import workloads

    return workloads


def run_all(args) -> int:
    """Every workload in turn, each in its own process so peak_rss_mb stays its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Process start until the first query is ready, in fresh processes.

    Returns the wall times and the reference-scaled times: each probe times
    the reference loop right after it is ready, in the same process.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = clock() - t0
            rest = proc.stdout.read().split()
            if proc.wait(timeout=120) != 0 or line != "ready\n" or len(rest) != 1:
                raise SystemExit(f"error: set-up probe failed: {line!r}")
        wall.append(elapsed)
        scaled.append(elapsed * REFERENCE_SCALE_S / float(rest[0]))
    return wall, scaled


def hygiene(workloads) -> None:
    """Start every batch from the same state: cold schur_polynomial cache, no garbage."""
    workloads.SCHUR_POLYNOMIAL.cache_clear()
    gc.collect()


def run_batch(workloads, workload, pace_s=None):
    """One batch after the hygiene; its wall time leaves out the reference loops."""
    hygiene(workloads)
    t0 = clock()
    batch = workload.run_batch(pace_s)
    dt = clock() - t0 - sum(batch.reference_s)
    if pace_s is not None:  # close the last stretch, so every query has a reference time
        batch.time_reference()
    return dt, batch


def check_repeats(name: str, values: list) -> bool:
    if all(v == values[0] for v in values):
        return True
    print(f"FAILED {name} differ between batches of one seed: {values}", file=sys.stderr)
    return False


def summary(values: list[float]) -> str:
    return f"median {statistics.median(values):.4f} (min {min(values):.4f}, max {max(values):.4f}, n={len(values)})"


def end_to_end(args, workloads, workload, setup):
    durations, scaled, batches = [], [], []
    deadline = clock() + args.seconds
    while len(batches) < MIN_BATCHES or clock() < deadline:
        dt, batch = run_batch(workloads, workload, REFERENCE_EVERY_S)
        durations.append(dt)
        scaled.append(dt * REFERENCE_SCALE_S / batch.reference_mean_s())
        batches.append(batch)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before pooling samples
    latencies = sorted(t for b in batches for t in b.latencies)
    scaled_latencies = sorted(REFERENCE_SCALE_S * t / r for b in batches for t, r in zip(b.latencies, b.latency_refs))
    attempted = len(latencies)
    failed = sum(b.failed for b in batches)
    deciles = statistics.quantiles(latencies, n=10)
    scaled_deciles = statistics.quantiles(scaled_latencies, n=10)
    references = [t for b in batches for t in b.reference_s]
    correct = failed == 0 and check_repeats("work counts", [b.work for b in batches])
    print(f"run_s: {summary(durations)} s wall per batch of {len(batches[0].latencies)} queries")
    print(f"run_ref_s: {summary(scaled)} ref_s")
    print(f"reference loop: {summary([t * 1e3 for t in references])} ms")
    print(f"query latency: p50 {deciles[4] * 1e3:.3f} ms, p90 {deciles[8] * 1e3:.3f} ms wall; "
          f"p50 {scaled_deciles[4] * 1e3:.3f} ref_ms, p90 {scaled_deciles[8] * 1e3:.3f} ref_ms; "
          f"{attempted} samples, {sum(t > deciles[8] for t in latencies)} beyond p90")
    print(f"setup: {summary(setup[0])} s wall, {summary(setup[1])} ref_s over fresh processes")
    print(f"failed_frac: {failed / attempted} ({failed} of {attempted})")
    print(f"work per batch: {json.dumps(batches[0].work, sort_keys=True)}")
    metrics = {
        "setup_s": statistics.median(setup[1]),
        "run_ref_s": statistics.median(scaled),
        "query_p50_ref_ms": scaled_deciles[4] * 1e3,
        "query_p90_ref_ms": scaled_deciles[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1 - failed / attempted,
    }
    return correct, attempted, failed, metrics


def traced(args, workloads, workload):
    from tracer import Tracer  # only traced runs pay for importing it

    tracer = Tracer()
    plain, runs = [], []  # runs: (duration, bench self time, layer metrics, batch)
    deadline = clock() + args.seconds
    while len(plain) < 1 or len(runs) < MIN_BATCHES or clock() < deadline:
        if len(plain) <= len(runs):
            dt, batch = run_batch(workloads, workload)
            plain.append((dt, batch))
            continue
        tracer.reset()
        tracer.install()
        try:
            hygiene(workloads)
            with tracer.root() as root:
                batch = workload.run_batch()
        finally:
            tracer.uninstall()
        runs.append((root.duration, root.self_s, tracer.snapshot(), batch))
    batches = [b for _, b in plain] + [r[3] for r in runs]
    attempted = sum(len(b.latencies) for b in batches)
    failed = sum(b.failed for b in batches)
    counts = [{k: v for k, v in r[2].items() if not k.endswith(("_s", "_frac", "us_per_yield"))} for r in runs]
    correct = (failed == 0 and check_repeats("work counts", [b.work for b in batches])
               and check_repeats("layer counts", counts))

    duration, bench_self, layers, batch = sorted(runs, key=lambda r: r[0])[(len(runs) - 1) // 2]
    plain_s = statistics.median(dt for dt, _ in plain)
    metrics = dict(layers)
    metrics.update({
        "trace.run_s": duration,
        "trace.overhead_frac": statistics.median(r[0] for r in runs) / plain_s - 1,
        "bench.self_s": bench_self,
        "schur.cache_hits": batch.work["schur_cache_hits"],
        "schur.cache_misses": batch.work["schur_cache_misses"],
        "cli.stdout_bytes": batch.work.get("stdout_bytes", 0),
        "cli.nonzero_exits": batch.work.get("nonzero_exits", 0),
    })
    accounted = bench_self + sum(v for k, v in layers.items() if k.endswith("self_s"))
    if abs(accounted - duration) > 1e-6 * duration:
        print(f"FAILED self times add up to {accounted} s, traced run_s is {duration} s", file=sys.stderr)
        correct = False
    print(f"untraced run_s: {summary([dt for dt, _ in plain])} s")
    print(f"traced run_s: {summary([r[0] for r in runs])} s; layers of the median batch:")
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]}")

    ladder_ok, ladder = growth_ladder(args, workloads)
    metrics.update(ladder)
    for key, value in ladder.items():
        print(f"  {key} = {value:.4f}")
    attempted += len(ladder)
    failed += not ladder_ok
    return correct and ladder_ok, attempted, failed, metrics


def growth_ladder(args, workloads):
    """Single products at degrees 6-9 and RSK at 1k, 2k, 5k, untraced, each checked."""
    tableaux = workloads.tableaux
    ok = True
    metrics = {}
    for name, (lam, mu) in LADDER_PRODUCTS.items():
        lam, mu = tableaux.Partition(lam), tableaux.Partition(mu)
        width = lam.size + mu.size
        hygiene(workloads)
        t0 = clock()
        expansion = tableaux.schur_expand(tableaux.schur_polynomial(lam, width) * tableaux.schur_polynomial(mu, width))
        metrics[f"schur.expand_s.{name}"] = clock() - t0
        for nu in map(tableaux.Partition, workloads.partitions(width)):
            if tableaux.lr_coefficient(lam, mu, nu) != expansion.get(nu, 0):
                print(f"FAILED ladder {name}: {lam} * {mu} at {nu}", file=sys.stderr)
                ok = False
    rng = random.Random(args.seed)
    for n in LADDER_RSK:
        perm = rng.sample(range(1, n + 1), n)
        gc.collect()
        t0 = clock()
        pair = tableaux.rsk(perm)
        metrics[f"rsk.rsk_s.n{n}"] = clock() - t0
        if list(tableaux.inverse_rsk(pair).images) != perm or pair.shape.parts[0] != tableaux.lis_length(perm):
            print(f"FAILED ladder rsk n={n}", file=sys.stderr)
            ok = False
    return ok, metrics


def declared_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workloads = import_library()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        print(statistics.fmean(workloads.time_reference_loop() for _ in range(SETUP_REFERENCE_RUNS)))
        return 0
    units = declared_units(args.trace)
    setup = None if args.trace else measure_setup(args)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"Python {sys.version.split()[0]}")
    if args.trace:
        correct, attempted, failed, metrics = traced(args, workloads, workload)
    else:
        correct, attempted, failed, metrics = end_to_end(args, workloads, workload, setup)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} out of step with BENCHMARK.json",
              file=sys.stderr)
        return 3
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
