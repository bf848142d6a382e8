#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload replay_sweep --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all   # the four in turn
    python3 perfbench/run.py --held-out       # held-out seed check
    python3 perfbench/run.py --record --seeds 1-10 [--scale 1]

The first call configures and builds perfbench/ (the simulator
libraries from src/ plus fs_perfbench) into .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is fs_perfbench's JSON result. The exit code is
fs_perfbench's; a checkout without the simulator sources fails the build and
exits nonzero without printing a result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_build" / "run"
TRACE_DIR = ROOT / ".bench_build" / "traces"
EXPECTED = HERE / "expected_digests.txt"
BINARY = BUILD / "fs_perfbench"

WORKLOADS = ["replay_sweep", "gen_heavy", "timed_qos", "farm_dispatch"]
# Never used while the workloads were sized; see README.md.
HELD_OUT_SEED = 90001
# A run must end within this many seconds (builds excluded).
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build fs_perfbench; return True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "fs_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is the result channel.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT).returncode
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def revision():
    """git revision when this is a git checkout, else a hash of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def bench_cmd(workload, seed, seconds, trace, scale=1.0, record=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", repr(scale), "--expect", str(EXPECTED),
           "--work-dir", str(RUN_DIR), "--revision", revision()]
    if trace:
        cmd += ["--trace-out", str(TRACE_DIR / f"{workload}-{seed}.json")]
    if record:
        cmd.append("--record")
    return cmd


def run_bench(cmd, capture=False):
    """Run fs_perfbench in its own process group; kill the whole group
    (farm workers, loopback agent) if it overruns."""
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"fs_perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return 124, ""
    finally:
        # Nothing fs_perfbench started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out or ""


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def held_out(args):
    """Every workload once on the held-out seed, checked against the
    recorded digests."""
    ok = True
    for w in WORKLOADS:
        rc, out = run_bench(bench_cmd(w, HELD_OUT_SEED, 1, 0,
                                        args.scale), capture=True)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if rc == 0 and lines else {}
        match = "digest_check: recorded-match" in lines
        good = rc == 0 and result.get("correct") is True and match
        ok &= good
        verdict = "recorded digest matched" if match else "no match"
        print(f"{w:14s} seed {HELD_OUT_SEED}: "
              f"{'ok' if good else 'FAILED'} (exit {rc}, {verdict}, "
              f"failed cells {result.get('failed')})")
    return 0 if ok else 1


def record(args):
    workloads = args.workload.split(",") if args.workload else WORKLOADS
    for w in workloads:
        for seed in parse_seeds(args.seeds):
            rc, out = run_bench(bench_cmd(w, seed, 1, 0, args.scale,
                                            record=True), capture=True)
            if rc != 0:
                return rc
            print(out.strip(), flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--held-out", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--seeds", default="1")
    args = ap.parse_args()

    if not args.held_out and not args.record:
        if args.workload not in WORKLOADS + ["all"]:
            ap.error(f"--workload must be all or one of "
                     f"{', '.join(WORKLOADS)}")
    if not build():
        return 2
    if args.held_out:
        return held_out(args)
    if args.record:
        return record(args)
    rc = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        rc = max(rc, run_bench(bench_cmd(w, args.seed, args.seconds,
                                           args.trace, args.scale))[0])
    return rc


if __name__ == "__main__":
    sys.exit(main())
