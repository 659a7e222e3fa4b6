#!/usr/bin/env python3
"""Host wall-clock of the whole bench suite, one bench at a time.

    python3 tools/suite_wall.py [--build-dir build] [--out-dir .]

Runs every binary in <build-dir>/bench/ with ``--jobs 1`` and writes
``BENCH_suite_wall.json`` into --out-dir: each bench's ``wall_clock_sec``
(as the bench reports it in its own JSON), their sum, the exit codes and
the host the numbers were taken on.  The ``perf_sim_throughput`` export
from the same pass is kept beside it as ``BENCH_perf_sim_throughput.json``.
Both files are the committed host-cost trajectory; time them on an
optimised build (``-DCMAKE_BUILD_TYPE=Release``).

Exits 1 if a bench exits non-zero or writes no JSON; the summary is
written either way.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

KEPT_EXPORT = "perf_sim_throughput"


def cmake_cache_value(build_dir, key):
    """The value of KEY in build_dir's CMakeCache.txt, or None."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def bench_binaries(bench_dir):
    return sorted(p for p in bench_dir.iterdir()
                  if p.is_file() and os.access(p, os.X_OK))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", default="build", type=Path)
    ap.add_argument("--out-dir", default=".", type=Path)
    args = ap.parse_args()

    bench_dir = args.build_dir / "bench"
    if not bench_dir.is_dir():
        sys.exit(f"suite_wall: no bench binaries under {bench_dir}")
    binaries = bench_binaries(bench_dir)
    if not binaries:
        sys.exit(f"suite_wall: no bench binaries under {bench_dir}")

    benches = {}
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for exe in binaries:
            out = Path(tmp) / f"BENCH_{exe.name}.json"
            proc = subprocess.run([str(exe.resolve()), "--jobs", "1",
                                   "--json", str(out)],
                                  cwd=tmp, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            entry = {"exit_code": proc.returncode, "wall_clock_sec": None}
            if out.exists():
                entry["wall_clock_sec"] = json.loads(
                    out.read_text())["wall_clock_sec"]
                if exe.name == KEPT_EXPORT:
                    args.out_dir.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(out, args.out_dir / out.name)
            if proc.returncode != 0 or entry["wall_clock_sec"] is None:
                failed.append(exe.name)
            benches[exe.name] = entry
            print(f"{exe.name:32s} {entry['wall_clock_sec']} s "
                  f"(exit {proc.returncode})", file=sys.stderr)

    total = sum(e["wall_clock_sec"] or 0.0 for e in benches.values())
    summary = {
        "jobs": 1,
        "build_type": cmake_cache_value(args.build_dir, "CMAKE_BUILD_TYPE"),
        "host": {"cpu": cpu_model(), "logical_cpus": os.cpu_count()},
        "benches": benches,
        "total_wall_clock_sec": round(total, 3),
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "BENCH_suite_wall.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    print(f"total {total:.3f} s over {len(benches)} benches", file=sys.stderr)
    if failed:
        print("suite_wall: failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
