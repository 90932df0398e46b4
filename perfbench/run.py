#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload,
checks the result against BENCHMARK.json and relays it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library sources under src/ plus driver.cpp) into
.bench_build/perfbench; later runs only re-check the build. With --trace 1
the host-time spans of the run are written to
.bench_out/<workload>-seed<N>-host-spans.json (Chrome trace-event JSON).
The last line of stdout is the result JSON; everything else on stdout
starts with '#', and build output goes to stderr.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(BUILD, "sptrsv_perfbench")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build incrementally (a no-op when up to date), serialized
    by a lock."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", BUILD, "-j", "4"]):
            left = deadline - time.monotonic()
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=max(1.0, left))


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in is not a git repository, so this names the code)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def check_result(line, spec, trace):
    """The result line must declare exactly the metrics BENCHMARK.json names
    for this mode, with the same units."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[k for k in want if k in got and got[k] != want[k]]}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2

    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 3

    # Pinned environment: the driver reads no variables, and the legacy
    # SPTRSV_BENCH_* knobs of the figure benches are dropped as well.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPTRSV_BENCH_")}
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, f"{args.workload}-seed{args.seed}-host-spans.json")]

    header = f"# commit={commit()} source_sha256={source_digest()}"
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"driver exceeded {RUN_TIMEOUT_S} s; killed")
        return 4
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        log(f"driver exited with code {proc.returncode}")
        return 5
    try:
        check_result(lines[-1], spec, args.trace)
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(out)
        log(f"bad result line: {e}")
        return 6
    print(header)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
