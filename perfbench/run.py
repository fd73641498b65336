#!/usr/bin/env python3
"""Commit-latency benchmark for Helios.

Builds the measuring program (perfbench/CMakeLists.txt, which compiles the
Helios libraries from src/) into .bench_build/perfbench, runs one workload,
checks that its outputs are correct, prints every metric by name with its
unit, and prints as its last line one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Any failed check exits nonzero without a
result line.

    python3 perfbench/run.py --workload table2-helios0 --seed 42 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all    # every workload, both passes
    python3 perfbench/run.py --selftest

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("table2-helios0", "contended-sharded", "live-voc")
# A run must end within 180 s; leave room for parsing and clean-up.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"Helios sources not found under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                raise BenchError("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed")


def run_binary(args, tmp, deadline):
    """Runs one perfbench mode; returns (metrics, counts, fingerprint)."""
    cmd = [BINARY] + args + ["--tmp", tmp]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{' '.join(args)}: no time left")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)}: timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    metrics, counts, fingerprint = {}, {}, None
    for line in proc.stdout.splitlines():
        fields = line.split("\t")
        if fields[0] == "metric" and len(fields) == 4:
            value = None if fields[3] == "absent" else float(fields[3])
            metrics[fields[1]] = (value, fields[2])
        elif fields[0] == "count" and len(fields) == 3:
            counts[fields[1]] = int(fields[2])
        elif fields[0] == "fingerprint" and len(fields) == 2:
            fingerprint = fields[1]
    return metrics, counts, fingerprint


def measure(workload, seed, seconds, trace, tmp, scale="full",
            max_inflight=0):
    """Runs the workload's processes and cross-checks them."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", repr(float(seconds)), "--scale", scale]
    if workload == "live-voc":
        extra = ["--trace", "1" if trace else "0"]
        if max_inflight:
            extra += ["--max_inflight", str(max_inflight)]
        return run_binary(["live"] + common + extra, tmp, deadline)
    if trace:
        return run_binary(["trace"] + common, tmp, deadline)
    # The oracle-checked run and the timed runs are separate processes, so
    # the timed process's peak RSS is the workload's alone. Same seed, same
    # behaviour: their fingerprints must match bit for bit.
    _, _, checked = run_binary(["check"] + common, tmp, deadline)
    metrics, counts, timed = run_binary(["timed"] + common, tmp, deadline)
    if checked is None or checked != timed:
        raise BenchError("the timed run did not reproduce the checked run: "
                         f"{checked} vs {timed}")
    return metrics, counts, timed


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(manifest, metrics, counts, trace):
    wanted = manifest["per_layer" if trace else "end_to_end"]
    out = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        if name not in metrics or metrics[name][0] is None:
            raise BenchError(f"metric {name} was not measured")
        value, got_unit = metrics[name]
        if got_unit != unit:
            raise BenchError(f"metric {name} in {got_unit}, expected {unit}")
        out[name] = {"value": value, "unit": unit}
    return {"correct": True, "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": out}


def print_table(workload, metrics, counts):
    print(f"# {workload}")
    width = max(len(n) for n in list(metrics) + list(counts))
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:<{width}}  {shown:>14}  {unit}")
    for name, value in counts.items():
        print(f"{name:<{width}}  {value:>14}  count")


def selftest(tmp):
    """Tiny runs of every workload: metrics, units, determinism, shedding."""
    manifest = load_manifest()
    failures = []

    def check(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    for trace in (0, 1):
        printed = {}
        for workload in WORKLOADS:
            metrics, counts, _ = measure(workload, 1, 2, trace, tmp, "tiny")
            printed[workload] = {(n, u) for n, (_, u) in metrics.items()}
            try:
                result_line(manifest, metrics, counts, trace)
                check(True, f"{workload} trace={trace}: every metric, with unit")
            except BenchError as e:
                check(False, f"{workload} trace={trace}: {e}")
        # A metric that does not apply is printed as absent, so every
        # workload prints the same names with the same units.
        names = list(printed.values())
        check(all(n == names[0] for n in names),
              f"trace={trace}: every workload prints the same metrics")
    for workload in WORKLOADS[:2]:
        a = measure(workload, 1, 1, 0, tmp, "tiny")
        b = measure(workload, 1, 1, 0, tmp, "tiny")
        c = measure(workload, 2, 1, 0, tmp, "tiny")
        same = a[2] == b[2] and all(
            a[0][m] == b[0][m] for m in
            ("commit_p50_ms", "commit_p99_ms", "mao_gap_ms", "failed_ratio"))
        check(same, f"{workload}: same seed reproduces outputs bit for bit")
        check(a[2] != c[2], f"{workload}: another seed changes outputs")
    base = measure("live-voc", 1, 2, 0, tmp, "tiny")[0]["failed_ratio"][0]
    shed = measure("live-voc", 1, 2, 0, tmp, "tiny", max_inflight=1)
    check(shed[1]["failed"] > 0 and shed[0]["failed_ratio"][0] > base,
          f"live-voc: max_inflight=1 sheds ({shed[0]['failed_ratio'][0]:.3f} "
          f"failed vs {base:.3f})")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="'all' runs both passes of every workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny-scale checks of every workload")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    tmp = os.path.join(ROOT, ".bench_build", f"tmp-{os.getpid()}")
    try:
        build()
        os.makedirs(tmp, exist_ok=True)
        if args.selftest:
            return selftest(tmp)
        manifest = load_manifest()
        runs = ([(w, t) for w in WORKLOADS for t in (0, 1)]
                if args.workload == "all" else [(args.workload, args.trace)])
        for workload, trace in runs:
            metrics, counts, _ = measure(workload, args.seed, args.seconds,
                                         trace, tmp)
            result = result_line(manifest, metrics, counts, trace)
            print_table(f"{workload} --trace {trace}", metrics, counts)
            print(json.dumps(result), flush=True)
        return 0
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
