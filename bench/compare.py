"""Compare two sets of benchmark runs metric by metric.

    python3 bench/compare.py PARENT.json CHANGE.json

Both files come from ``run.py --out`` (use ``--repeat N`` for N runs per
workload).  For every (workload, end-to-end metric) the tool prints each
side's median and quartiles over its untraced runs and a verdict:

- ``better`` / ``worse``: over at least ten pairs of runs, the change
  wins (loses) at least 9 of every 10, ties counting for neither, and
  the medians differ by more than the parent's interquartile range;
- ``unresolved``: the parent's own spread is wider than the metric's
  bound, and not every change run beats every parent run;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``within bound`` otherwise.

Exact figures (output digests, and the quality numbers of each seed)
must match between runs of the same seed and are reported ``match`` or
``MISMATCH``.  Traced runs' per-layer metrics are listed without a
verdict: they have no bound.  The exit code is 1 if any metric regressed
or any exact figure differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import ROOT, quartiles

#: Fewest run pairs that can support a ``better`` or ``worse`` verdict.
MIN_PAIRS = 10
#: Output figures that repeat exactly for a given seed.
EXACT = ("test_steps", "activated_frac", "store_mb", "fault_coverage", "detected_frac")


def verdict(parent, change, better, bound):
    """Verdict for one metric; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    q1, median_a, q3 = quartiles(parent)
    median_b = statistics.median(change)
    gain = sign * (median_b - median_a)
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    losses = sum(sign * (b - a) < 0 for a, b in pairs)
    if len(pairs) >= MIN_PAIRS and abs(median_b - median_a) > q3 - q1:
        if gain > 0 and wins >= 0.9 * len(pairs):
            return "better"
        if gain < 0 and losses >= 0.9 * len(pairs):
            return "worse"
    every_run_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if median_a and (q3 - q1) / abs(median_a) > bound and not every_run_better:
        return "unresolved"
    if median_a and -gain / abs(median_a) > bound:
        return "regression"
    return "within bound"


def load_runs(path):
    document = json.loads(Path(path).read_text())
    if not document.get("comparable", True):
        print(f"warning: {path} holds --quick runs; numbers are not comparable")
    return document["runs"]


def by_workload(runs, trace):
    grouped = defaultdict(list)
    for run in runs:
        if run["trace"] == trace:
            grouped[run["result"]["workload"]].append(run)
    return grouped


def exact_figures(runs):
    """``{(seed, op index, figure): value}`` over every checked op."""
    figures = {}
    for run in runs:
        result = run["result"]
        for op in result["ops"]:
            if not op["ok"]:
                continue
            for key in ("digest",) + EXACT:
                if key in op:
                    figures[(result["seed"], op["index"], key)] = op[key]
    return figures


def fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two run.py --out files.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    failed = False

    parent_e2e, change_e2e = by_workload(parent_runs, 0), by_workload(change_runs, 0)
    print(f"{'workload':<14} {'metric':<12} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} verdict")
    for workload in parent_e2e:
        if workload not in change_e2e:
            print(f"{workload:<14} missing from {args.change}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["summary"]["metrics"][name]["value"] for run in parent_e2e[workload]]
            b = [run["summary"]["metrics"][name]["value"] for run in change_e2e[workload]]
            result = verdict(a, b, metric["better"], metric["bound"])
            failed |= result in ("regression", "worse")
            print(f"{workload:<14} {name:<12} {fmt(a):<36} {fmt(b):<36} {result}")
        a_exact = exact_figures(parent_e2e[workload])
        b_exact = exact_figures(change_e2e[workload])
        shared = sorted(set(a_exact) & set(b_exact))
        mismatched = [key for key in shared if a_exact[key] != b_exact[key]]
        failed |= bool(mismatched)
        state = "match" if not mismatched else f"MISMATCH in {len(mismatched)}"
        print(f"{workload:<14} {'exact':<12} {len(shared)} figures shared by both sides: {state}")
        for seed, index, key in mismatched[:10]:
            print(f"    seed {seed} op {index} {key}: {a_exact[(seed, index, key)]} "
                  f"vs {b_exact[(seed, index, key)]}")

    parent_traced, change_traced = by_workload(parent_runs, 1), by_workload(change_runs, 1)
    for workload in parent_traced:
        if workload not in change_traced:
            continue
        print(f"\n{workload}: per-layer metrics (traced runs, no bound)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            a = [run["summary"]["metrics"][name]["value"] for run in parent_traced[workload]]
            b = [run["summary"]["metrics"][name]["value"] for run in change_traced[workload]]
            if any(a) or any(b):
                print(f"  {name:<40} {statistics.median(a):>12.6g} -> "
                      f"{statistics.median(b):<12.6g} {metric['unit']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
