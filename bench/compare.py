"""Compare two sets of benchmark result files: the parent's and a change's.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``bench/run.py`` (they land
in ``.bench_out/results``; copy them aside after running each commit).
For every workload and metric the comparison prints both sides' medians
and quartiles, the share of pairs the change won, and a verdict.  The
i-th parent run is paired with the i-th change run in start order, so
alternate the two commits when running them.

Verdicts, for a metric with a bound (the share by which the median may
worsen):

* ``gain`` -- the change won at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``unresolved`` -- the spread (interquartile range over median) of either
  side is wider than the bound, unless every change run beats every
  parent run (``better``);
* ``regression`` -- the change's median is worse by more than the bound;
* ``within bound`` -- otherwise.

A bound of 0 marks a value that repeats exactly at a fixed seed (accuracy,
simulated latency, failures): runs are matched by seed and the verdict is
``identical`` or ``changed``.  Per-layer metrics have no bound and get
``info``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> tuple[dict, int]:
    """Series keyed by (workload, metric), and the number of runs that failed checks.

    Each series lists (started, seed, value, unit, better, bound) in start order.
    """
    series: dict = {}
    failed = 0
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        failed += not record["correct"]
        prov = record["provenance"]
        for name, m in record["metrics"].items():
            series.setdefault((prov["workload"], name), []).append(
                (record["started_utc"], prov["seed"], m["value"], m["unit"], m["better"],
                 m["bound"]))
    for runs in series.values():
        runs.sort()
    return series, failed


def quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent: list, change: list, better: str, bound) -> tuple[str, float | None]:
    """The verdict and the share of pairs the change won."""
    p = [r[2] for r in parent]
    c = [r[2] for r in change]
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(p, c))
    won = sum(sign * (b - a) > 0 for a, b in pairs) / len(pairs) if pairs else None
    if bound is None:
        return "info", won
    if bound == 0:
        by_seed = {r[1]: r[2] for r in parent}
        common = [(by_seed[r[1]], r[2]) for r in change if r[1] in by_seed]
        if not common:
            return "no common seeds", won
        return ("identical" if all(a == b for a, b in common) else "changed"), won
    mp, mc = statistics.median(p), statistics.median(c)
    (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
    if won is not None and won >= 0.9 and sign * (mc - mp) > p3 - p1:
        return "gain", won
    spread = max((p3 - p1) / abs(mp), (c3 - c1) / abs(mc))
    if spread > bound:
        every = min(sign * v for v in c) > max(sign * v for v in p)
        return ("better" if every else "unresolved"), won
    if -sign * (mc - mp) / abs(mp) > bound:
        return "regression", won
    return "within bound", won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, parent_failed = load(args.parent)
    change, change_failed = load(args.change)
    print(f"runs with failed checks: parent {parent_failed}, change {change_failed}")
    header = (f"{'workload':<18} {'metric':<36} {'unit':<7} {'parent median [q1, q3]':>34}"
              f" {'change median [q1, q3]':>34} {'won':>5}  verdict")
    print(header)
    bad = False
    for key in sorted(parent.keys() & change.keys()):
        p, c = parent[key], change[key]
        _, _, _, unit, better, bound = p[0]
        result, won = verdict(p, c, better, bound)
        bad |= result in ("regression", "changed")
        cells = []
        for runs in (p, c):
            values = [r[2] for r in runs]
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]")
        won_text = "-" if won is None else f"{won:.0%}"
        print(f"{key[0]:<18} {key[1]:<36} {unit:<7} {cells[0]:>34} {cells[1]:>34}"
              f" {won_text:>5}  {result}")
    for key in sorted(parent.keys() ^ change.keys()):
        print(f"{key[0]:<18} {key[1]:<36} only in {'parent' if key in parent else 'change'}")
    return 1 if bad or change_failed else 0


if __name__ == "__main__":
    sys.exit(main())
