#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark against a base revision.

    python3 scripts/perf_ab.py BASE_REV [WORKLOAD...]

Extracts BASE_REV with `git archive` into a temporary directory, then
runs `perfbench/run.py` there (the parent) and in this working tree
(the change): PAIRS pairs per workload on seeds 1..PAIRS, alternating
which side runs first, each run `--seconds` BENCHMARK.json's
`run_seconds` with tracing off. Workloads default to every workload in
BENCHMARK.json.

Prints, per workload and `end_to_end` metric, the parent's median, the
change's median, their ratio, the pairs the change won (strictly
better in the metric's `better` direction; ties count for neither
side), the parent's interquartile range, a gain column and a verdict
from the metric's `better` and `bound`, then each side's
failed/attempted cells. The gain column says yes when the change won
at least 9/10 of the pairs run and the median gap, in the `better`
direction, exceeds the parent's interquartile range. Exits 1 when a
metric is worse than its bound allows, when any run exits nonzero,
reports `correct: false` or prints no result line, or when the change
fails a larger share of its cells than the parent; 2 on a usage error;
0 otherwise. Run-to-run spread on a shared host is why one pair is not
enough (perfbench/README.md, "Run-to-run spread").
"""

import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def log(msg):
    print(f"[perf_ab] {msg}", file=sys.stderr, flush=True)


def parse_run(rc, stdout):
    """(result, problem) of one run.py invocation: the JSON object on
    its last stdout line (None when there is none) and why the run
    does not count (None when it does)."""
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if not isinstance(result, dict) or "metrics" not in result:
        return None, f"exit {rc}, no result line"
    if rc != 0:
        return result, f"exit {rc}"
    if result.get("correct") is not True:
        return result, "correct: false"
    return result, None


def worse_than_bound(better, bound, parent, change):
    if better == "higher":
        return change < parent - bound * abs(parent)
    return change > parent + bound * abs(parent)


def gap(better, parent, change):
    """How far `change` is better than `parent` (negative if worse)."""
    return change - parent if better == "higher" else parent - change


def gain(better, parent_by_pair, change_by_pair):
    """(wins, pairs, parent IQR or None, gain) of one metric, from the
    two sides' values pair by pair (None where a run does not count)."""
    pairs = list(zip(parent_by_pair, change_by_pair))
    wins = sum(1 for p, c in pairs
               if p is not None and c is not None and gap(better, p, c) > 0)
    parent = [p for p in parent_by_pair if p is not None]
    change = [c for c in change_by_pair if c is not None]
    if len(parent) < 2:
        return wins, len(pairs), None, False
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    won = wins * 10 >= 9 * len(pairs)
    wide = gap(better, statistics.median(parent),
               statistics.median(change)) > iqr
    return wins, len(pairs), iqr, won and wide


def compare(end_to_end, workload, parent_runs, change_runs):
    """Compare one workload's runs, each a list of (exit code, stdout).

    Returns (report lines, problems); the A/B passes when problems is
    empty."""
    problems = []
    sides, counted = {}, {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        sides[side], counted[side] = [], []
        for i, (rc, stdout) in enumerate(runs):
            result, problem = parse_run(rc, stdout)
            if result is not None:
                counted[side].append(result)
            if problem:
                problems.append(f"{workload}: {side} run {i + 1}: "
                                f"{problem}")
            # Kept in run order, None where the run does not count,
            # so parent and change runs stay paired by index.
            sides[side].append(None if problem else result)

    lines = []
    for m in end_to_end:
        name = m["name"]
        by_pair = {side: [r["metrics"][name]["value"]
                          if r is not None and name in r["metrics"]
                          else None for r in results]
                   for side, results in sides.items()}
        values = {side: [v for v in vs if v is not None]
                  for side, vs in by_pair.items()}
        if any(len(values[s]) != sum(r is not None for r in sides[s])
               for s in sides):
            problems.append(f"{workload}: {name} missing from a result")
        if not values["parent"] or not values["change"]:
            continue
        parent = statistics.median(values["parent"])
        change = statistics.median(values["change"])
        ratio = f"{change / parent:.3f}" if parent else "n/a"
        wins, pairs, iqr, gained = gain(m["better"], by_pair["parent"],
                                        by_pair["change"])
        iqr_text = "n/a" if iqr is None else f"{iqr:.4g}"
        bad = worse_than_bound(m["better"], m["bound"], parent, change)
        if bad:
            problems.append(f"{workload}: {name} worse than its bound "
                            f"({m['better']} is better, bound "
                            f"{m['bound']}): parent {parent:.6g}, "
                            f"change {change:.6g}")
        lines.append(f"{workload:14s} {name:20s} {m['better']:6s} "
                     f"{m['bound']:5.2f} {parent:12.6g} {change:12.6g} "
                     f"{ratio:>7s} {f'{wins}/{pairs}':>5s} "
                     f"{iqr_text:>10s} {'yes' if gained else 'no':>4s}  "
                     f"{'WORSE' if bad else 'ok'}")

    shares = {}
    for side, results in counted.items():
        failed = sum(r.get("failed", 0) for r in results)
        attempted = sum(r.get("attempted", 0) for r in results)
        shares[side] = failed / attempted if attempted else 0.0
        lines.append(f"{workload:14s} {side} failed cells: "
                     f"{failed}/{attempted}")
    if shares["change"] > shares["parent"]:
        problems.append(f"{workload}: change failed share "
                        f"{shares['change']:.4g} > parent "
                        f"{shares['parent']:.4g}")
    return lines, problems


def run_side(tree, workload, seed, seconds):
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        # Build errors and fs_perfbench's own diagnostics.
        sys.stderr.write(proc.stderr[-4000:])
    return proc.returncode, proc.stdout


def extract(rev, dest):
    """Write the tree of `rev` into `dest`; False if git refuses."""
    proc = subprocess.Popen(["git", "archive", "--format=tar", rev],
                            cwd=ROOT, stdout=subprocess.PIPE)
    try:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest)
    except tarfile.ReadError:
        pass
    return proc.wait() == 0


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    if not argv or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev, workloads = argv[0], argv[1:] or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        log(f"unknown workload(s) {', '.join(unknown)}; "
            f"BENCHMARK.json has {', '.join(known)}")
        return 2

    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        base = Path(tmp)
        if not extract(rev, base):
            log(f"git archive {rev} failed")
            return 2
        trees = {"parent": base, "change": ROOT}
        report, problems = [], []
        for w in workloads:
            runs = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                order = ["parent", "change"]
                if seed % 2 == 0:
                    order.reverse()
                for side in order:
                    log(f"{w} seed {seed}: {side}")
                    runs[side].append(run_side(trees[side], w, seed,
                                               spec["run_seconds"]))
            lines, found = compare(spec["end_to_end"], w,
                                   runs["parent"], runs["change"])
            report += lines
            problems += found

    print(f"perf_ab: {rev} (parent) vs working tree (change), "
          f"{PAIRS} pairs, {spec['run_seconds']} s runs, medians")
    print(f"{'workload':14s} {'metric':20s} {'better':6s} {'bound':>5s} "
          f"{'parent':>12s} {'change':>12s} {'ratio':>7s} {'wins':>5s} "
          f"{'parent_iqr':>10s} {'gain':>4s}  verdict")
    print("\n".join(report))
    for p in problems:
        print(f"FAIL {p}")
    print("perf_ab: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
