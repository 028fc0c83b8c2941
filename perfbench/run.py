#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload solve_large --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the library and the perfbench program
from source into .bench_build/ (the first run takes minutes), runs one
workload, checks every output against its reference, and prints a report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off; --trace 1 reports its per-layer metrics, from a run whose
second half records spans. Exits 1 when any output check fails, 2 when the
checkout cannot be built or run. --seed takes any integer; the program
uses it modulo 2^64.

perfbench/layers.json says, for each per-layer metric, how it is measured
and which end-to-end metric on which workload it should move.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configures once, then builds; compiler output goes to stderr so the
    last line of stdout stays the result."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a checkout of the repository (no CMakeLists.txt and src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build tree
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("configure failed")
        cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "--parallel",
               str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed")
    return BUILD / "perfbench"


def run_workload(binary, args):
    scratch = ROOT / ".bench_build" / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    out = scratch / "result.json"
    env = dict(os.environ)
    # Every solver thread sets its own OpenMP thread count; these only fix
    # the process defaults so a run does not depend on the caller's shell.
    env["OMP_NUM_THREADS"] = str(os.cpu_count() or 1)
    env["OMP_WAIT_POLICY"] = "passive"
    # glibc's initial mmap threshold, pinned: without it the threshold
    # follows the largest freed block, so which operator arrays stay in the
    # heap after free (and so rss_peak_mb) depends on thread timing.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed % 2**64}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--out={out}",
           f"--scratch={scratch / 'tmp'}"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"perfbench exited {proc.returncode}")
        return json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        fail(f"perfbench ran past {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def tail_latency(lat):
    """p90 when the run has enough slices for it, else the p50 (the
    highest percentile the sample count allows on solve_large)."""
    p = 90.0 if metrics.percentile_supported(len(lat), 90.0) else 50.0
    return metrics.percentile(lat, p), p


def balanced_rmse(ok):
    """Mean over algorithms of each algorithm's mean RMSE, so the figure does
    not move with how many slices of each kind fit in the window."""
    by_algo = {}
    for s in ok:
        by_algo.setdefault(s["algo"], []).append(s["rmse"])
    if not by_algo:
        return math.inf
    return statistics.fmean(statistics.fmean(v) for v in by_algo.values())


def end_to_end(res):
    slices = res["slices"]
    ok = [s for s in slices if s["status"] == metrics.OK]
    lat = metrics.slice_latencies(slices)
    p90, p = tail_latency(lat)
    values = {
        "slices_per_s": len(ok) / res["window_s"],
        "latency_p50_s": metrics.percentile(lat, 50.0),
        "latency_p90_s": p90,
        "setup_s": statistics.median(res["setup_s"]),
        "rmse": balanced_rmse(ok),
        "rss_peak_mb": res["rss_peak_mb"],
    }
    notes = [f"{len(slices)} slices attempted, {len(ok)} ok"]
    if p != 90.0:
        notes.append(f"latency_p90_s reports the p50: {len(lat)} slices < 100 leave fewer "
                     f"than {metrics.MIN_BEYOND} beyond p90")
    return values, notes


SERVED = ("serve_mixed",)


def per_layer(res, workload, spans):
    values = dict(res["layers"])
    ok = [s for s in res["slices"] if s["status"] == metrics.OK]
    for algo in ("fbp", "sirt", "cgls", "ossart"):
        xs = [s["solve_s"] for s in ok if s["algo"] == algo]
        if xs:
            values[f"recon.solve_s.{algo}"] = statistics.median(xs)
    share = metrics.child_share(spans, "recon.solve")
    if share is not None:
        values["recon.spmv_share"] = share
    if ok:
        values["recon.iterations"] = statistics.median(s["iterations"] for s in ok)
    reduce_s = metrics.median_self_time(spans, "dist.adjoint")
    if reduce_s is not None:
        values["dist.reduce_s"] = reduce_s
    if workload in SERVED and ok:
        qw = [s["queue_wait_s"] for s in ok]
        values["pipeline.queue_wait_p50_s"] = metrics.percentile(qw, 50.0)
        if metrics.percentile_supported(len(qw), 90.0):
            values["pipeline.queue_wait_p90_s"] = metrics.percentile(qw, 90.0)
        values["pipeline.acquire_s"] = statistics.median(s["acquire_s"] for s in ok)
        busy = sum(s["acquire_s"] + s["solve_s"] for s in ok)
        values["pipeline.worker_busy_frac"] = busy / (res["config"]["workers"] * res["window_s"])
        values["net.submit_s"] = statistics.median(s["submit_s"] for s in ok)
        values["net.fetch_s"] = statistics.median(s["fetch_s"] for s in ok)
        values["net.polls_per_job"] = statistics.fmean(s["polls"] for s in ok)
        values["net.request_bytes"] = statistics.fmean(s["request_bytes"] for s in ok)
        values["net.response_bytes"] = statistics.fmean(s["response_bytes"] for s in ok)
        values["net.unattributed_s"] = statistics.median(metrics.unattributed(s) for s in ok)
    traced = [s["latency_s"] for s in ok if s["traced"]]
    untraced = [s["latency_s"] for s in ok if not s["traced"]]
    if traced and untraced:
        base = statistics.median(untraced)
        values["trace.overhead_s"] = statistics.median(traced) - base
        values["trace.overhead_frac"] = values["trace.overhead_s"] / base
    return values


def traced_layers(res):
    """Per-layer values of a traced run. A layer the workload's own path
    bypasses is taken from the probe run of the workload that owns it;
    the returned map lists those metrics by probe."""
    spans = [dict(zip(("name", "start", "end", "id", "parent", "job"), s))
             for s in res["spans"]]
    values = per_layer(res, res["workload"], spans)
    source = {}
    for name, probe in res["bypassed"].items():
        config = probe["config"]
        label = f"{name} probe ({config.get('geometries') or config.get('geometry')}, 1 s)"
        for k, v in per_layer(probe, name, []).items():
            if k not in values:
                values[k] = v
                source.setdefault(label, []).append(k)
    return values, source


def breakdown(res):
    """Mean served-job latency split into its parts; the parts sum to the
    mean latency exactly, unattributed time included."""
    ok = [s for s in res["slices"] if s["status"] == metrics.OK]
    if res["workload"] not in SERVED or not ok:
        return None
    parts = {k: statistics.fmean(s[k] for s in ok) for k in metrics.UNATTRIBUTED_PARTS}
    parts["unattributed_s"] = statistics.fmean(metrics.unattributed(s) for s in ok)
    return statistics.fmean(s["latency_s"] for s in ok), parts


def report(args, res, names_units, values, notes):
    m = res["machine"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  machine: nproc={m['nproc']} L3={m['l3_bytes'] / 2**20:.0f} MiB "
          f"isa={m['isa_tier']} OMP_NUM_THREADS={m['OMP_NUM_THREADS']} "
          f"OMP_WAIT_POLICY={m['OMP_WAIT_POLICY']} "
          f"MALLOC_MMAP_THRESHOLD_={m['MALLOC_MMAP_THRESHOLD_']}")
    print("  config: " + ", ".join(f"{k}={v}" for k, v in res["config"].items()))
    for name, unit in names_units:
        v = values.get(name)
        shown = "n/a (layer not on this workload's path)" if v is None else f"{v:.6g} {unit}"
        print(f"  {name:32s} {shown}")
    for n in notes:
        print(f"  note: {n}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    binary = build()
    res = run_workload(binary, args)

    slices = res["slices"]
    # A traced run's probes check their outputs as well; their slices count.
    probed = [s for probe in res["bypassed"].values() for s in probe["slices"]]
    attempted = len(slices) + len(probed)
    failed = metrics.failed_count(slices) + metrics.failed_count(probed)
    e2e, notes = end_to_end(res)
    notes.append(f"failed_frac = {metrics.failed_frac(slices):.6g} "
                 f"({metrics.failed_count(slices)} of {len(slices)}: "
                 "refused, expired, failed or wrong output)")
    if probed:
        notes.append(f"probe slices: {metrics.failed_count(probed)} of {len(probed)} failed")
    if args.trace:
        listed = spec["per_layer"]
        values, source = traced_layers(res)
        for label, names in source.items():
            notes.append(f"not on this workload's path, so from the {label}: "
                         + ", ".join(names))
        split = breakdown(res)
        if split:
            mean_latency, parts = split
            notes.append(f"mean latency {mean_latency:.6g} s = " + " + ".join(
                f"{k} {v:.6g}" for k, v in parts.items()))
        probe_bytes = values.pop("bw.probe_bytes", None)
        if probe_bytes:
            notes.append(f"bandwidth probes over {probe_bytes / 2**20:.0f} MiB "
                         f"(L3 {res['machine']['l3_bytes'] / 2**20:.0f} MiB), GB/s: "
                         + ", ".join(f"{p / 1e9:.2f}" for p in res["probes_bytes_per_s"]))
    else:
        listed = spec["end_to_end"]
        values = e2e
    report(args, res, [(x["name"], x["unit"]) for x in listed], values, notes)

    out = {}
    for x in listed:
        v = values.get(x["name"], 0.0)
        out[x["name"]] = {"value": v if math.isfinite(v) else None, "unit": x["unit"]}
    correct = attempted >= 1 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
