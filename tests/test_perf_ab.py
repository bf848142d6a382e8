#!/usr/bin/env python3
"""Tests of scripts/perf_ab.py's verdicts on canned perfbench result
lines. Runs no benchmark; exits 1 on the first failed case."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_ab", ROOT / "scripts" / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {m["name"]: 1.0 for m in END_TO_END}


def run(values=None, correct=True, attempted=100, failed=0, rc=0,
        result=True):
    """(exit code, stdout) of one run.py call; `values` override
    BASE's metric values."""
    out = "provenance: ...\ndigest_check: recorded-match\n"
    if result:
        metrics = {k: {"unit": "1/s", "value": v}
                   for k, v in {**BASE, **(values or {})}.items()}
        out += json.dumps({"correct": correct, "attempted": attempted,
                           "failed": failed, "metrics": metrics}) + "\n"
    return rc, out


def verdict(parent, change):
    """Problems perf_ab reports for ten parent and ten change runs,
    the last of each side given by `parent`/`change`."""
    _, problems = perf_ab.compare(END_TO_END, "w", [run()] * 9 + [parent],
                                  [run()] * 9 + [change])
    return problems


def slowed(name, factor):
    """Ten change runs with `name` at `factor` times the parent."""
    return [run({name: factor})] * 10




FAILURES = []


def check(label, ok, detail):
    if not ok:
        FAILURES.append(f"{label}: {detail}")
    print(f"{'ok  ' if ok else 'FAIL'} {label}")


def expect_pass(label, problems):
    check(label, problems == [], problems)


def expect_fail(label, problems, word):
    check(label, any(word in p for p in problems),
          f"no problem naming {word!r} in {problems}")


def expect_gain(label, name, parent_values, change_values, want):
    """Check the (wins, gain) columns of `name`'s report line for
    runs with the given per-pair values of `name`."""
    lines, _ = perf_ab.compare(
        END_TO_END, "w", [run({name: v}) for v in parent_values],
        [run({name: v}) for v in change_values])
    fields = next(l.split() for l in lines if l.split()[1] == name)
    got = (fields[7], fields[9])
    check(label, got == want, f"wins/gain {got}, want {want}")


def main():
    expect_pass("equal medians pass", verdict(run(), run()))
    expect_pass("one outlier does not move a median",
                verdict(run(), run({"sim_accesses_per_s": 0.1})))

    def ab(change_runs):
        return perf_ab.compare(END_TO_END, "w", [run()] * 10,
                               change_runs)[1]

    expect_pass("higher-is-better within its bound",
                ab(slowed("sim_accesses_per_s", 0.8)))
    expect_fail("higher-is-better beyond its bound",
                ab(slowed("sim_accesses_per_s", 0.7)),
                "sim_accesses_per_s")
    expect_pass("lower-is-better within its bound",
                ab(slowed("cell_p50_s", 1.2)))
    expect_fail("lower-is-better beyond its bound",
                ab(slowed("cell_p50_s", 1.3)), "cell_p50_s")
    expect_fail("peak_rss_mb has the tighter 0.2 bound",
                ab(slowed("peak_rss_mb", 1.22)), "peak_rss_mb")
    expect_pass("a better change passes",
                ab(slowed("sim_accesses_per_s", 2.0)))

    expect_fail("correct: false fails",
                verdict(run(), run(correct=False)), "correct: false")
    expect_fail("a parent run with correct: false fails too",
                verdict(run(correct=False), run()), "correct: false")
    expect_fail("a missing result line fails",
                verdict(run(), run(result=False)), "no result line")
    expect_fail("a nonzero exit fails",
                verdict(run(), run(rc=1)), "exit 1")
    expect_fail("a larger failed share fails",
                verdict(run(), run(failed=1)), "failed share")
    expect_fail("failed cells of an incorrect run count in the share",
                verdict(run(), run(correct=False, failed=1)),
                "failed share")
    expect_pass("an equal failed share passes",
                verdict(run(failed=1), run(failed=1)))

    tight = [1.0] * 10
    expect_gain("10/10 wins over a tight parent is a gain",
                "sim_accesses_per_s", tight, [1.1] * 10, ("10/10", "yes"))
    expect_gain("a gain follows the lower-is-better direction",
                "cell_p50_s", tight, [0.9] * 10, ("10/10", "yes"))
    expect_gain("a worse change wins no pair",
                "cell_p50_s", tight, [1.1] * 10, ("0/10", "no"))
    # Ties count for neither side: two equal pairs leave 8/10 wins.
    expect_gain("8/10 wins is no gain", "sim_accesses_per_s", tight,
                [1.1] * 8 + [1.0] * 2, ("8/10", "no"))
    # Parent median 1.0 with quartiles 0.1 and 1.0 (IQR 0.9): a change
    # at 1.5 wins every pair, but its 0.5 median gap is inside the IQR.
    expect_gain("a large gap inside a wider parent IQR is no gain",
                "sim_accesses_per_s", [0.1] * 3 + [1.0] * 7, [1.5] * 10,
                ("10/10", "no"))
    wins = perf_ab.gain("higher", tight, [1.1] * 9 + [None])[0]
    check("a change run that does not count wins no pair", wins == 9,
          wins)

    metrics_missing = run()
    data = json.loads(metrics_missing[1].splitlines()[-1])
    del data["metrics"]["cells_per_s"]
    expect_fail("a result without a metric fails",
                verdict(run(), (0, json.dumps(data))), "cells_per_s")

    if FAILURES:
        print("\n".join(FAILURES), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
