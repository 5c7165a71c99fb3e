#!/usr/bin/env python3
"""Layered end-to-end benchmark of the trustlink detection stack.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

The script builds the `trustlink-perfbench` binary (a package of its own in
this directory) and runs it once per workload run, each run in a fresh
process so that its peak RSS is its own.

* `--trace 0` makes at least three untraced runs, more while the next run
  would still end within `--seconds`, and reports the end-to-end metrics
  over those runs. The runs cycle through three simulator seeds derived
  from `--seed`. `run_s` is the mean over those seeds (see `seed_mean`);
  the other metrics are medians over the runs.
* `run_s` and `setup_s` are wall times rescaled to a host of nominal speed:
  each run times a fixed reference kernel between its slices
  (src/reference.rs) and scales its wall times by nominal / measured
  reference time. The raw wall time and the reference time are reported as
  per-layer metrics.
* `--trace 1` makes one untraced run, one traced run (every node wrapped in
  the timing shim) and, on detector workloads, one flight-recorded run whose
  capture is replayed through the IDS. It reports the per-layer metrics.

A human-readable report and a JSON report with every value and the
provenance go to stdout first; the last line is the result object with the
keys `correct`, `attempted`, `failed` and `metrics`.

`--seed` drives the simulator's random stream (timer jitter, analysis
stagger). Placement is pinned to the recipe's scenario seed, so every seed
runs the same network with the same spoofer.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN_NAME = "trustlink-perfbench"

# Defined in src/main.rs; BENCHMARK.json says why each was chosen.
WORKLOADS = ("detect-256", "olsr-256", "hostile-id-64")

# Untraced runs cycle through this many simulator seeds derived from
# `--seed`, so one result averages over several jitter streams.
SUBSEEDS = 3
MIN_RUNS = 3
# Never start another untraced run after this many seconds of measuring.
HARD_STOP_S = 110.0
CHILD_TIMEOUT_S = 150.0
# A run without detectors converged when every node's symmetric neighbors
# equal its in-range nodes and its routing table reaches this share of its
# connected component.
MIN_ROUTE_COVERAGE = 0.99

# Counters that are a pure function of the simulator seed: every run of one
# invocation with the same simulator seed, traced or not, must reproduce them
# exactly.
DETERMINISTIC = [
    "air_frames", "frames_delivered", "verdict_digest", "verdicts",
    "spoofer_convictions", "false_convictions", "detect_latency_s",
    "link_mismatches", "route_coverage", "log_records", "route_runs",
    "mpr_runs", "tc_originated", "tc_forwarded", "cases",
    "verdicts_intruder", "verdicts_well_behaving", "verdicts_unrecognized",
    "witness_requests", "witness_answers", "signature_matches", "trust_peers",
]

SPANS = ["olsr.receive", "olsr.hello", "olsr.tc", "olsr.refresh",
         "olsr.recompute", "detector.analysis", "app.start"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log(f"perfbench: build failed (exit {proc.returncode})")
        sys.exit(1)
    return os.path.join(ROOT, target, "release", BIN_NAME)


def child(binary, mode, seed):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {mode} run timed out")
        return None
    if proc.returncode != 0:
        log(f"perfbench: {mode} run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_failure(run, first):
    """Why a workload run failed, or None."""
    if run is None:
        return "the run crashed or timed out"
    if run["spoofer"] is None:
        if run["link_mismatches"] or run["route_coverage"] < MIN_ROUTE_COVERAGE:
            return (f"OLSR did not converge ({run['link_mismatches']} link-set mismatches, "
                    f"route coverage {run['route_coverage']:.4f})")
    elif run["spoofer_convictions"] == 0:
        return "the spoofer went unconvicted"
    if first is not None:
        diff = [k for k in DETERMINISTIC if run.get(k) != first.get(k)]
        if diff:
            return f"deterministic outputs differ from the first run: {diff}"
    return None


def median(runs, key):
    return statistics.median(r[key] for r in runs)


def seed_mean(runs, key):
    """Mean over the simulator seeds of each seed's median: runs with other
    seeds do different work, and an invocation may run some seeds once more
    than others."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], []).append(r[key])
    return statistics.mean(statistics.median(v) for v in by_seed.values())


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            for f in fs if f.endswith((".rs", ".toml", ".lock", ".py")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def provenance(first, runs):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "simulator_seeds": sorted({r["seed"] for r in runs if r}),
        "smoke": args.smoke,
        **{k: first.get(k) if first else None
           for k in ("nodes", "spoofer", "phantom", "placement_seed", "simulated_s")},
        "host_cpus": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def subseed(i):
    """Simulator seed of the i-th untraced run; run 0 uses `--seed` itself."""
    return args.seed * 1000 + i % SUBSEEDS if i % SUBSEEDS else args.seed


def end_to_end(binary):
    runs, failures = [], []
    start = time.monotonic()
    while True:
        seed = subseed(len(runs))
        run = child(binary, "plain", seed)
        first = next((r for r in runs if r is not None and r["seed"] == seed), None)
        why = run_failure(run, first)
        if why:
            failures.append(why)
        runs.append(run)
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and (elapsed + elapsed / len(runs) > args.seconds
                                      or elapsed > HARD_STOP_S):
            break
    ok = [r for r in runs if r is not None]
    metrics = {}
    if ok:
        metrics = {
            "run_s": metric(seed_mean(ok, "run_s"), "s"),
            "setup_s": metric(median(ok, "setup_s"), "s"),
            "peak_rss_mb": metric(median(ok, "peak_rss_mb"), "MB"),
            "air_frames": metric(median(ok, "air_frames"), "frames"),
        }
    detail = {
        "runs": [{k: r[k] for k in ("seed", "run_s", "run_wall_s", "reference_s", "setup_s",
                                    "peak_rss_mb")} if r else None
                 for r in runs],
        "outputs": {r["seed"]: {k: r.get(k) for k in DETERMINISTIC} for r in reversed(ok)},
    }
    return runs, failures, metrics, detail, ok[0] if ok else None


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(binary):
    runs = {m: child(binary, m, args.seed) for m in ("plain", "traced")}
    if runs["plain"] and runs["plain"]["spoofer"] is not None:
        runs["record"] = child(binary, "record", args.seed)
    failures = []
    for m, run in runs.items():
        why = run_failure(run, runs["plain"] if m != "plain" else None)
        if why:
            failures.append(f"{m}: {why}")
    plain, traced, rec = runs["plain"], runs["traced"], runs.get("record")
    checks = {}
    metrics = {}
    if plain and traced:
        checks["traced_equals_untraced"] = all(traced.get(k) == plain.get(k) for k in DETERMINISTIC)
        checks["no_unnamed_timers"] = traced["app.other_timers.calls"] == 0
        spans_s = sum(traced[f"{s}.s"] for s in SPANS)
        checks["spans_sum_to_run_wall_s"] = abs(traced["sim.engine.s"] + spans_s - traced["run_wall_s"]) < 1e-6
        frames = traced["receive.frames"]
        verdicts = traced["verdicts"]
        m = {
            "sim.engine.s": metric(traced["sim.engine.s"], "s"),
            "sim.frames_delivered": metric(traced["frames_delivered"], "frames"),
            "sim.frames_per_batch": metric(ratio(frames, traced["olsr.receive.calls"]), "frames/call"),
            "sim.log_records": metric(traced["log_records"], "records"),
        }
        for s in SPANS:
            m[f"{s}.s"] = metric(traced[f"{s}.s"], "s")
            m[f"{s}.calls"] = metric(traced[f"{s}.calls"], "calls")
            m[f"{s}.allocs"] = metric(traced[f"{s}.allocs"], "allocs")
        m.update({
            "olsr.receive.ns_per_frame": metric(ratio(traced["olsr.receive.s"] * 1e9, frames), "ns"),
            "olsr.route_runs": metric(traced["route_runs"], "runs"),
            "olsr.mpr_runs": metric(traced["mpr_runs"], "runs"),
            "olsr.tc_originated": metric(traced["tc_originated"], "messages"),
            "olsr.tc_forwarded": metric(traced["tc_forwarded"], "messages"),
            "olsr.route_coverage": metric(traced["route_coverage"], "share"),
            "detector.cases": metric(traced["cases"], "cases"),
            "detector.verdicts_intruder": metric(traced["verdicts_intruder"], "verdicts"),
            "detector.verdicts_well_behaving": metric(traced["verdicts_well_behaving"], "verdicts"),
            "detector.verdicts_unrecognized": metric(traced["verdicts_unrecognized"], "verdicts"),
            "detector.decisive_share": metric(
                ratio(traced["verdicts_intruder"] + traced["verdicts_well_behaving"], verdicts), "share"),
            "detector.witness_requests": metric(traced["witness_requests"], "requests"),
            "detector.answered_share": metric(
                ratio(traced["witness_answers"], traced["witness_requests"]), "share"),
            "detector.signature_matches": metric(traced["signature_matches"], "matches"),
            "detector.spoofer_convictions": metric(traced["spoofer_convictions"], "observers"),
            "detector.false_convictions": metric(traced["false_convictions"], "verdicts"),
            "detector.detect_latency_s": metric(traced.get("detect_latency_s", 0.0), "sim_s"),
            "trust.peers_tracked": metric(traced["trust_peers"], "peers"),
            "trace_overhead": metric(ratio(traced["run_s"], plain["run_s"]), "ratio"),
            "run_wall_s": metric(plain["run_wall_s"], "s"),
            "host.reference_s": metric(plain["reference_s"], "s"),
        })
        if rec:
            checks["replay_equals_live"] = rec["ids.replay_matches"] is True
            checks["recorded_equals_untraced"] = all(rec.get(k) == plain.get(k) for k in DETERMINISTIC)
            m.update({
                "ids.replay.s": metric(rec["ids.replay.s"], "s"),
                "ids.records": metric(rec["ids.records"], "records"),
                "ids.events": metric(rec["ids.events"], "events"),
                "ids.replay.ns_per_record": metric(
                    ratio(rec["ids.replay.s"] * 1e9, rec["ids.records"]), "ns"),
            })
        else:
            m.update({
                "ids.replay.s": metric(0.0, "s"),
                "ids.records": metric(0, "records"),
                "ids.events": metric(0, "events"),
                "ids.replay.ns_per_record": metric(0.0, "ns"),
            })
        metrics = m
    failures += [f"check failed: {k}" for k, ok in checks.items() if not ok]
    detail = {"checks": checks, "run_s": {k: (r["run_s"] if r else None) for k, r in runs.items()}}
    return list(runs.values()), failures, metrics, detail, plain


def main():
    binary = build()
    if args.trace:
        runs, failures, metrics, detail, first = per_layer(binary)
    else:
        runs, failures, metrics, detail, first = end_to_end(binary)
    # A failed check of the traced set fails its traced run; every other
    # reason names exactly one run.
    failed = min(len(failures), len(runs))
    correct = not failures and bool(metrics)
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>20} {m['unit']}")
    if first and not args.trace:
        for k in ("spoofer_convictions", "false_convictions", "detect_latency_s", "verdicts"):
            if k in first:
                print(f"{k:<36} {first[k]:>20}")
    for why in failures:
        log(f"FAILED: {why}")
    report = {"provenance": provenance(first, runs), "trace": args.trace, "failures": failures,
              "detail": detail}
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the small size of the workload (the benchmark's own test)")
    args = parser.parse_args()
    main()
