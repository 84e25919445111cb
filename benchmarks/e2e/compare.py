"""Compare two sets of benchmark runs against the declared bounds.

    python3 benchmarks/e2e/compare.py A_DIR B_DIR

Each directory holds the ``--out`` files (``*.jsonl``) of ``run.py``
runs of one commit; A is the base, B the change.  For every workload
and end-to-end metric it prints each side's median and quartiles, how
many seed-paired runs B won, and a verdict:

* ``regression``: B's median is worse than A's by more than the bound
  ``BENCHMARK.json`` declares;
* ``unresolved``: either side's spread (quartile distance over median)
  exceeds the bound, and B did not beat A on every run;
* ``ok`` otherwise.

B also regresses when its failed share of operations exceeds A's.  For
seeds run on both sides, any change in the deterministic counts
(outcome counts, golden instructions, simulated cycles, run ids) is
flagged.  The exit code is 1 when anything regressed or changed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load(directory: str) -> dict[str, list[dict]]:
    """Untraced run records by workload, sorted by seed."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.jsonl"))):
        with open(path) as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    if not record["trace"]:
                        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda record: record["seed"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def compare_metric(metric: dict, a: list[float], b: list[float]):
    """``(verdict, wins, pairs, a quartiles, b quartiles)``."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    bound = metric["bound"]
    all_better = max(sign * y for y in b) < min(sign * x for x in a)
    if sign * (qb[1] - qa[1]) > bound * abs(qa[1]):
        verdict = "regression"
    elif not all_better and any((q[2] - q[0]) > bound * abs(q[1])
                                for q in (qa, qb)):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return verdict, wins, len(pairs), qa, qb


def fail_share(records: list[dict]) -> float:
    attempted = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / max(attempted, 1)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]
    base, change = load(argv[1]), load(argv[2])
    bad = False
    for workload in sorted(set(base) & set(change)):
        a_runs, b_runs = base[workload], change[workload]
        print(f"{workload}: {len(a_runs)} base runs, "
              f"{len(b_runs)} change runs")
        print(f"  {'metric':12s} {'base q1/med/q3':>30s} "
              f"{'change q1/med/q3':>30s} {'wins':>7s}  verdict")
        for metric in declared:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in a_runs]
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            verdict, wins, pairs, qa, qb = compare_metric(metric, a, b)
            bad |= verdict == "regression"
            print(f"  {name:12s} "
                  + " ".join(f"{v:>10.4g}" for v in qa) + " "
                  + " ".join(f"{v:>10.4g}" for v in qb)
                  + f" {wins:>3d}/{pairs:<3d}  {verdict}")
        a_fail, b_fail = fail_share(a_runs), fail_share(b_runs)
        verdict = "regression" if b_fail > a_fail else "ok"
        bad |= verdict == "regression"
        print(f"  {'fail_frac':12s} {a_fail:>32.4g} {b_fail:>32.4g}"
              f"          {verdict}")
        a_seeds = {r["seed"]: r["counts"] for r in a_runs}
        for record in b_runs:
            counts = a_seeds.get(record["seed"])
            if counts is None:
                continue
            changed = sorted(key for key in set(counts) | set(record["counts"])
                             if counts.get(key) != record["counts"].get(key))
            if changed:
                bad = True
                print(f"  seed {record['seed']}: counts changed for "
                      f"{', '.join(changed)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
