#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dash_fir --seed 1 --seconds 40 --trace 0

The first invocation configures and builds perfbench/ (which compiles the
simulator from ../src) into .bench_build/perfbench; later invocations
rebuild incrementally. It then runs the helper self-tests, runs the
benchmark binary, checks the result against BENCHMARK.json, and prints
the result object as the last line of stdout. The exit code is 0 only
when every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "w") as f:
        proc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed: {' '.join(map(str, cmd))}")


def build():
    """Configures once, then builds incrementally."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail("simulator sources (src/) are missing; nothing to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD / "configure.log")
    jobs = str(os.cpu_count() or 1)
    run_logged(["cmake", "--build", str(BUILD), "-j", jobs],
               BUILD / "build.log")


def source_digest():
    """Content hash of everything the benchmark builds."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit_id(digest):
    # Only ask git when the checkout itself is a repository, so nothing
    # outside the checkout is read.
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "tree:" + digest


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_repeat(workload, digest, sim_stats, notes):
    """Simulated statistics must repeat across invocations (serial)."""
    ref = BUILD / f"simstats-{workload}-{digest}.json"
    if ref.exists():
        old = json.loads(ref.read_text())
        diff = sorted(k for k in set(old) | set(sim_stats)
                      if old.get(k) != sim_stats.get(k))
        if diff:
            notes.append("simulated statistics differ from an earlier "
                         "run of this build: " + ", ".join(diff))
            return False
    else:
        ref.write_text(json.dumps(sim_stats, sort_keys=True))
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    selftest = subprocess.run([str(BUILD / "perfbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        print(selftest.stdout + selftest.stderr, file=sys.stderr)
        fail("helper self-tests failed")

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # The program measures for --seconds, plus a warm-up, the dispatch
    # model (traced runs) and one overshooting round.
    timeout = args.seconds * 2 + 60
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {timeout:g} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line of benchmark output is not JSON")

    meta = {}
    for line in lines[:-1]:
        if line.startswith("meta "):
            meta = json.loads(line[5:])
        else:
            print(line)

    correct = bool(result.get("correct")) and proc.returncode == 0
    notes = list(meta.get("notes", []))
    want = declared_metrics(args.trace == 1)
    got = result.get("metrics", {})
    if set(got) != set(want):
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail(f"metric {name} has unit {m.get('unit')}, "
                 f"BENCHMARK.json says {want[name]}")

    digest = source_digest()
    if meta.get("sim_stats"):
        correct = check_repeat(args.workload, digest, meta["sim_stats"],
                               notes) and correct
    meta.update({"workload": args.workload, "seed": args.seed,
                 "trace": args.trace, "commit": commit_id(digest),
                 "notes": notes})
    meta.pop("sim_stats", None)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": got}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
