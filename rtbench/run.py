#!/usr/bin/env python3
"""Builds and runs the rtbench serving benchmark (see rtbench/METHOD.md).

    python3 rtbench/run.py --workload batch_unique --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
library and the rtbench binary under .bench_build/ (Release); later runs
rebuild only what changed. The binary runs under a watchdog: a run that
hangs or crashes is reported as a failed run with its exit status or
timeout. Output: a human-readable table on stderr, then two stdout lines --
the full record (metrics with sample counts, host fingerprint,
comparability) and, last, the result object
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("batch_unique", "batch_zipf", "live_tcp")
# The binary must finish well inside the 180 s a run may take.
WATCHDOG_CAP_S = 160.0
BUILD_JOBS = min(4, os.cpu_count() or 1)


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns the binary or None."""
    out = ROOT / ".bench_build" / "rtbench"
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", str(out), "-j", str(BUILD_JOBS)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = out / "rtbench"
    return binary if binary.exists() else None


def benchmark_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", BENCH_DIR):
        files += [p for p in base.rglob("*") if p.is_file()
                  and "__pycache__" not in p.parts]
    for path in sorted(files):
        if path.exists():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(record):
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "simd_int8": record.get("simd_int8") if record else None,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


def run_binary(binary, args):
    """Runs the binary under the watchdog: (record or None, status)."""
    timeout = min(WATCHDOG_CAP_S, 40.0 + 6.0 * args.seconds)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s (killed)"
    if proc.returncode != 0:
        if proc.returncode < 0:
            status = f"killed by {signal.Signals(-proc.returncode).name}"
        else:
            status = f"exited with status {proc.returncode}"
        return None, status
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), "ok"
    except (IndexError, ValueError):
        return None, "printed no record"


def print_table(record):
    metrics = record["metrics"]
    width = max((len(name) for name in metrics), default=10)
    print(f"{record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}",
          file=sys.stderr)
    for name, m in sorted(metrics.items()):
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']:<6} "
              f"n={m['samples']}", file=sys.stderr)
    for failure in record.get("failures", []):
        print(f"  FAILED: {failure}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.monotonic()
    binary = build()
    if binary is None:
        log("build failed; no result")
        return 1
    log(f"built in {time.monotonic() - started:.1f} s")

    spec = benchmark_spec()
    record, status = run_binary(binary, args)
    if record is None:
        log(f"run failed: {status}")
        print(json.dumps({"rtbench_record": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "status": status, "comparable": False,
            "host": fingerprint(None)}}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]] if spec else \
        sorted(record["metrics"])
    missing = [name for name in wanted if name not in record["metrics"]]
    failed = record["failed"] + len(missing)
    attempted = max(1, record["attempted"] + len(missing))
    failures = record["failures"] + [f"metric {n} missing" for n in missing]
    comparable = (spec is not None and args.seconds == spec["run_seconds"]
                  and failed == 0)
    record["failures"] = failures
    print_table(record)
    print(json.dumps({"rtbench_record": {
        **record, "status": status, "comparable": comparable,
        "comparable_note": None if comparable else
        "not comparable: a short, smoke or failed run "
        "(comparable runs use run_seconds from BENCHMARK.json and fail nothing)",
        "host": fingerprint(record)}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": record["metrics"][name]["value"],
                           "unit": record["metrics"][name]["unit"]}
                    for name in wanted if name in record["metrics"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
