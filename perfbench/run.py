#!/usr/bin/env python3
"""Host-cost benchmark of the Dagger simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the benchmark binary (perfbench/CMakeLists.txt,
fixed -O2) into .bench_build/perfbench, runs one workload in its own
single-threaded process, checks the result and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones.  The line before it is the run's simulated digest (``sim_digest <hex>``),
which repeats exactly for the same code and seed.

Exits non-zero without printing a result if the simulator sources are missing,
the build fails, the binary fails or a metric is missing.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("echo_64b_upi", "echo_4k_pcie", "kvs_mica_zipf", "flight_openloop")

END_TO_END = {
    "sim_reqs_per_host_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events_per_req": "events/req",
    "sim.host_ns_per_event": "ns/event",
    "sim.far_admit_share": "ratio",
    "sim.pool_misses": "count",
    "sim.max_pending": "count",
    "sim.self_ns_per_req": "ns/req",
    "proto.bytes_copied_per_req": "B/req",
    "proto.handle_passes_per_req": "passes/req",
    "rpc.issue_host_ns.p50": "ns",
    "rpc.issue_host_ns.p99": "ns",
    "rpc.issue_self_ns_per_req": "ns/req",
    "rpc.handler_host_ns.p50": "ns",
    "rpc.handler_host_ns.p99": "ns",
    "rpc.tx_blocked_per_req": "blocks/req",
    "rpc.retries_per_req": "retries/req",
    "rpc.timeouts": "count",
    "ic.lines_per_req": "lines/req",
    "ic.txns_per_req": "txns/req",
    "ic.stalls_per_req": "stalls/req",
    "nic.frames_per_req": "frames/req",
    "nic.req_buffer_rejections_per_req": "rejects/req",
    "nic.fetch_batch_mean": "frames",
    "nic.conn_cache_hit_rate": "ratio",
    "mem.hcc_hit_rate": "ratio",
    "mem.llc_hit_rate": "ratio",
    "net.forwarded_per_req": "pkts/req",
    "net.dropped": "count",
    "app.kv_get_host_ns.p50": "ns",
    "app.kv_get_host_ns.p99": "ns",
    "app.kv_set_host_ns.p50": "ns",
    "app.kv_set_host_ns.p99": "ns",
    "app.kv_self_ns_per_req": "ns/req",
    "app.workload_next_host_ns.p50": "ns",
    "app.workload_next_self_ns_per_req": "ns/req",
    "app.mica_get_hit_rate": "ratio",
    "app.preload_s": "s",
    "svc.rpcs_per_req": "rpcs/req",
    "svc.degraded_share": "ratio",
    "svc.shed_calls": "count",
    "bench.verify_self_ns_per_req": "ns/req",
    "trace.reqs_per_host_s_untraced": "1/s",
    "trace.reqs_per_host_s_traced": "1/s",
    "trace.overhead_share": "ratio",
    "trace.spans_per_req": "spans/req",
}

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """subprocess.run in its own process group; on timeout the whole
    group (cmake's compilers included) is killed and reaped."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out


def build(root):
    """Configure and build the benchmark binary; returns its path."""
    if not (root / "src" / "rpc" / "system.hh").is_file():
        fail(f"simulator sources not found under {root / 'src'}")
    build_dir = root / ".bench_build" / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir)])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return build_dir / "dagger_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = root / ".bench_build" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}.csv")]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                    stderr=sys.stderr, text=True)
    if code != 0:
        fail(f"benchmark binary exited with {code}")
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark binary printed no result")
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark binary result is not JSON")

    expected = PER_LAYER if args.trace else END_TO_END
    metrics = res.get("metrics", {})
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None or m.get("unit") != unit:
            fail(f"metric {name} missing or not in {unit}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            fail(f"metric {name} is not a finite number")
    if set(metrics) != set(expected):
        fail(f"unexpected metrics: {sorted(set(metrics) - set(expected))}")

    for problem in res.get("problems", []):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = bool(res.get("correct")) and not res.get("problems")
    print(f"sim_digest {res['sim_digest']}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: metrics[name] for name in expected},
    }))


if __name__ == "__main__":
    main()
