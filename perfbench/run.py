#!/usr/bin/env python3
"""Same-host benchmark for the simulated Yoda.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. On first use it builds perfbench/ (its own
CMake package, which compiles src/) into .bench_build (or $CARGO_TARGET_DIR).
Each call runs one workload in a fresh process:

  --trace 0  the untraced run; prints the end-to-end metrics.
  --trace 1  the untraced run again, then round 0 of the same seed traced,
             in another fresh process; prints the per-layer metrics. The
             traced round's simulated outputs must equal the untraced
             round 0's, or the run is incorrect.

A run is a fixed number of rounds, each a fresh testbed with a fixed span of
simulated load, so a seed always produces the same simulated work; the round
count is chosen from --seconds so that a run measures about that long on the
reference host (4-core Xeon, 2.1 GHz). Host-time and memory metrics are
medians over rounds; host times are scaled by a host-speed probe timed around
each round (see PROBE_NOMINAL_MS). Every completed response is
checked against the catalog; a mismatch makes the run incorrect and the exit
code 1.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Lines before it are the metrics as a table, the host
fingerprint, and the file under <build>/results/ where the full result went.
Metric names and units come from BENCHMARK.json at the repository root.
RATIONALE.md beside this file says why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

# Host seconds one round of each workload takes on the reference host; it
# converts --seconds into a round count. What a round does is defined in
# yoda_perfbench.cc (kSpecs).
ROUND_S = {
    "web_small": 1.1,
    "bulk_keepalive": 1.45,
    "failover_ha": 2.3,
    "placed_web": 1.35,
}

# The host-speed probe (a fixed memory-bound loop in yoda_perfbench, timed
# before each round's setup and after its load) takes this long on the
# reference host when it is quiet. A round's setup and load-phase host times
# are scaled by nominal/probe, so they read as if measured at that speed; raw
# times stay in the result file.
PROBE_NOMINAL_MS = 12.0

# Simulated fields a traced round must reproduce exactly.
SIM_FIELDS = ["attempted", "ok", "failed", "retried", "mismatches", "slow_1s",
              "latency_p50_ms", "latency_p999_ms", "connections", "events",
              "packets_sent", "end_ms"]

RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def metric_units():
    """(end_to_end, per_layer) as {name: unit}, read from BENCHMARK.json."""
    try:
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        return tuple({m["name"]: m["unit"] for m in spec[key]}
                     for key in ("end_to_end", "per_layer"))
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metric list from BENCHMARK.json: {e}")


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build():
    """Configures once and builds yoda_perfbench; returns its path."""
    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ beside {BENCH_DIR.name}/; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
            if r.returncode != 0:
                f.flush()
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)}")
    return out / "yoda_perfbench"


def drive(binary, workload, seed, rounds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--rounds", str(rounds)]
    if trace:
        cmd.append("--trace")
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        print(r.stderr, file=sys.stderr)
        fail(f"yoda_perfbench exited {r.returncode}: {' '.join(cmd)}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def git_rev():
    """HEAD of the checkout, read from .git directly; 'unknown' without one."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(res):
    sim = res["sim"]
    host = res["host"]
    attempted = sim["attempted"]
    speed = [p / PROBE_NOMINAL_MS for p in host["probe_ms"]]
    rate = [r["ok"] / w * k
            for r, w, k in zip(res["rounds"], host["load_wall_s"], speed)]
    cpu = [c / k for c, k in zip(host["load_cpu_s"], speed)]
    setup = [s / k for s, k in zip(host["setup_s"], speed)]
    p999 = sim["latency_p999_ms"]
    return {
        "req_per_host_s": statistics.median(rate),
        "host_cpu_s": statistics.median(cpu),
        "peak_rss_mb": statistics.median(host["peak_rss_mb"]),
        "setup_s": statistics.median(setup),
        "latency_p50_ms": sim["latency_p50_ms"],
        # A failed request has +inf latency (JSON null); report it as such.
        "latency_p999_ms": math.inf if p999 is None else p999,
        "ok_frac": sim["ok"] / attempted,
        "first_try_frac": (sim["ok"] - sim["retried"]) / attempted,
    }


def per_layer(untraced, traced):
    def scaled_wall(res):  # Round 0's load-phase wall time at nominal speed.
        return res["host"]["load_wall_s"][0] / res["host"]["probe_ms"][0]

    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = scaled_wall(traced) / scaled_wall(untraced) - 1.0
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    e2e_units, layer_units = metric_units()
    binary = build()
    rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
    started = time.time()
    untraced = drive(binary, args.workload, args.seed, rounds, trace=False)
    problems = []
    mism = untraced["sim"]["mismatches"]
    if mism:
        problems.append(f"{mism} responses failed the content check")
    traced = None
    if args.trace:
        traced = drive(binary, args.workload, args.seed, 1, trace=True)
        want = untraced["rounds"][0]
        got = traced["rounds"][0]
        diff = [f for f in SIM_FIELDS if want[f] != got[f]]
        if diff:
            problems.append("traced round 0 differs from untraced round 0 in "
                            + ", ".join(f"{f} ({got[f]} != {want[f]})" for f in diff))

    values = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    units = layer_units if args.trace else e2e_units
    if set(values) != set(units):
        fail("the measured metrics differ from BENCHMARK.json's: "
             + ", ".join(sorted(set(values) ^ set(units))))
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "sim_ms_per_round": untraced["sim_ms"],
        "trace": args.trace,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build": untraced["build"],
        "run_wall_s": time.time() - started,
    }
    result = {
        "correct": not problems,
        "attempted": int(untraced["sim"]["attempted"]),
        "failed": int(untraced["sim"]["failed"]),
        "metrics": metrics,
    }
    results = build_dir() / "results"
    results.mkdir(exist_ok=True)
    saved = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps({"meta": meta, "result": result, "untraced": untraced,
                                 "traced": traced}, indent=1) + "\n")

    for p in problems:
        print(f"INCORRECT: {p}")
    print(f"{'metric':<36} {'value':>16} unit")
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}")
    print("meta: " + json.dumps(meta))
    print(f"full result: {saved}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
