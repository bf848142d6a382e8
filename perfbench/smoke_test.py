#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny scale (about a minute).

    python3 perfbench/smoke_test.py

For every workload it runs fs_perfbench untraced and traced at
--scale 0.05 for one second, and checks that:

  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct is true and no cell failed;
  * every metric BENCHMARK.json names (end_to_end untraced, per_layer
    traced) is printed with its unit, as a finite number;
  * the sweep digest matched the recorded one (expected_digests.txt);
  * the trace file parses, carries a provenance block, and its per-layer
    self times, recomputed here from the spans, sum to no more than the
    wall time of the traced sweeps counted per worker lane;

and, last, that the command fails without printing a result in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict

import run

SCALE = 0.05
SEED = 1
PROVENANCE_KEYS = {"revision", "compiler", "cxx_flags", "build_type",
                   "simd_backend", "executor", "fs_env", "cpu_model",
                   "nproc", "host"}

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"  FAIL: {what}")


def self_times(trace):
    """Per-layer self time under the trace's self_roots, recomputed
    from the spans: duration minus the union of the children."""
    spans = {s["id"]: s for s in trace["spans"]}
    children = defaultdict(list)
    under = set(trace["self_roots"])
    for s in trace["spans"]:  # parents precede children
        if s["parent"] in under:
            under.add(s["id"])
            children[s["parent"]].append(s)
    out = defaultdict(float)
    for sid in under:
        s = spans[sid]
        iv = sorted((max(c["start_ns"], s["start_ns"]),
                     min(c["end_ns"], s["end_ns"]))
                    for c in children[sid])
        covered, cur = 0, None
        for a, b in iv:
            if a >= b:
                continue
            if cur and a <= cur[1]:
                cur[1] = max(cur[1], b)
                continue
            if cur:
                covered += cur[1] - cur[0]
            cur = [a, b]
        if cur:
            covered += cur[1] - cur[0]
        layer = s["name"].split(".")[0]
        out[layer] += (s["end_ns"] - s["start_ns"] - covered) * 1e-9
    return out


def run_one(workload, trace, spec):
    cmd = run.bench_cmd(workload, SEED, 1, trace, SCALE)
    rc, out = run.run_bench(cmd, capture=True)
    lines = out.strip().splitlines()
    tag = f"{workload} trace={trace}"
    check(rc == 0, f"{tag}: exit code {rc}")
    if rc != 0 or not lines:
        return
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(result)}")
    check(result.get("correct") is True and result.get("failed") == 0,
          f"{tag}: correct={result.get('correct')} "
          f"failed={result.get('failed')}")
    check(result.get("attempted", 0) >= 1, f"{tag}: nothing attempted")
    check("digest_check: recorded-match" in lines,
          f"{tag}: sweep digest does not match the recorded one")
    metrics = result.get("metrics", {})
    want = spec["per_layer" if trace else "end_to_end"]
    check(set(metrics) == {m["name"] for m in want},
          f"{tag}: metric names differ: missing "
          f"{sorted({m['name'] for m in want} - set(metrics))}, extra "
          f"{sorted(set(metrics) - {m['name'] for m in want})}")
    for m in want:
        got = metrics.get(m["name"])
        if got is None:
            continue
        check(got.get("unit") == m["unit"],
              f"{tag}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        check(isinstance(got.get("value"), (int, float)) and
              math.isfinite(got["value"]),
              f"{tag}: {m['name']} value {got.get('value')}")
    if not trace:
        return

    path = run.TRACE_DIR / f"{workload}-{SEED}.json"
    try:
        tr = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        check(False, f"{tag}: trace file {path} unreadable: {e}")
        return
    check(PROVENANCE_KEYS <= set(tr.get("provenance", {})),
          f"{tag}: provenance lacks "
          f"{sorted(PROVENANCE_KEYS - set(tr.get('provenance', {})))}")
    self_s = self_times(tr)
    total = sum(self_s.values())
    check(total <= tr["lane_wall_s"] * (1 + 1e-9) + 1e-6,
          f"{tag}: self times sum to {total:.6f} s > lane wall "
          f"{tr['lane_wall_s']:.6f} s")
    rounds = len(tr["self_roots"])
    for layer, v in tr["self_s"].items():
        check(abs(v - self_s.get(layer, 0.0) / rounds) <= 1e-6 + 1e-6 * v,
              f"{tag}: self_s.{layer} {v} != recomputed "
              f"{self_s.get(layer, 0.0) / rounds}")
    print(f"  {tag}: {len(tr['spans'])} spans, self "
          f"{total:.3f} s <= lane wall {tr['lane_wall_s']:.3f} s")


def bare_checkout():
    """The command must fail, printing no result, without the sources."""
    bare = run.ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "replay_sweep", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, capture_output=True,
                         text=True, timeout=180)
    check(out.returncode != 0, "bare checkout: command succeeded")
    check(not out.stdout.strip(), "bare checkout: printed a result")
    shutil.rmtree(bare, ignore_errors=True)
    print(f"  bare checkout: exit {out.returncode}, no result printed")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if not run.build():
        print("build failed")
        return 1
    for w in run.WORKLOADS:
        for trace in (0, 1):
            run_one(w, trace, spec)
    bare_checkout()
    print("smoke test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
