"""Compare a parent result set with a change result set.

Usage::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out`` appended (one per run).
For every workload and every end-to-end metric BENCHMARK.json gates, it
prints both sides' median and quartiles and a verdict, judged against
that metric's ``bound`` in BENCHMARK.json:

``improved``
    the change won at least 9 in 10 of the seed-paired runs (ties count
    for neither) and the medians differ, in its favour, by more than the
    parent's interquartile range — or every change run beats every
    parent run;
``worse``
    the change's median is worse than the parent's by more than the
    metric's bound;
``unresolved``
    the parent's own spread (IQR over median) exceeds the bound, so a
    difference inside it cannot be told from noise;
``unchanged``
    otherwise.

The figures that are printed but not gated (throughput, accuracy, update
latencies, ...) follow with their medians and quartiles and no verdict.
It also reports, per workload, whether the answer digests of runs with
the same seed agree: the answers are a pure function of the seed, so a
difference means the change altered results, not timing.  Exit status
is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from metrics import REPORTED

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def gated() -> dict[str, tuple[str, float]]:
    """``name -> (better, bound)`` of BENCHMARK.json's end-to-end metrics."""
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def load(path: str) -> dict[str, list[dict]]:
    """Untraced records by workload, ordered by seed."""
    runs: dict[str, list[dict]] = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def values(record: dict) -> dict[str, float]:
    out = {name: spec["value"] for name, spec in record["metrics"].items()}
    for name, spec in record.get("report", {}).items():
        out.setdefault(name, spec["value"])
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The choosing-metrics rule over seed-paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    worse_share = sign * (pm - cm) / abs(pm) if pm else 0.0
    # Signed so that larger is better on both kinds of metric.
    best_change, worst_change = max(sign * c for c in change), min(sign * c for c in change)
    best_parent, worst_parent = max(sign * p for p in parent), min(sign * p for p in parent)
    if worst_change > best_parent:
        return "improved"
    if best_change < worst_parent and worse_share > bound:
        return "worse"
    if (p3 - p1) / abs(pm) > bound if pm else False:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
        return "improved"
    if worse_share > bound:
        return "worse"
    return "unchanged"


def _row(name: str, pv: list[float], cv: list[float], verdict_: str) -> str:
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    return (f"  {name:16s} {pm:12.4g} [{p1:9.4g}, {p3:9.4g}] "
            f"{cm:12.4g} [{c1:9.4g}, {c3:9.4g}]  {verdict_}")


def compare(parent_runs: dict, change_runs: dict, specs: dict, out=sys.stdout) -> int:
    """Print the comparison; 1 if any gated metric got worse, else 0."""
    worse = 0
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parents = {r["seed"]: r for r in parent_runs[workload]}
        changes = {r["seed"]: r for r in change_runs[workload]}
        seeds = sorted(set(parents) & set(changes))
        if seeds:
            paired = [(parents[s], changes[s]) for s in seeds]
        else:  # different seeds: pair runs in order
            paired = list(zip(parent_runs[workload], change_runs[workload]))
        print(f"\n{workload}  ({len(paired)} paired runs)", file=out)
        print(f"  {'metric':16s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s}  verdict", file=out)
        rows = [(name, better, bound) for name, (better, bound) in specs.items()]
        rows += [(name, None, None) for name in REPORTED]
        for name, better, bound in rows:
            pv = [values(p).get(name) for p, _ in paired]
            cv = [values(c).get(name) for _, c in paired]
            if any(v is None for v in pv + cv) or not pv:
                continue
            if bound is None:
                print(_row(name, pv, cv, "(not gated)"), file=out)
                continue
            v = verdict(pv, cv, better, bound)
            worse += v == "worse"
            print(_row(name, pv, cv, v), file=out)
        same = [s for s in seeds if parents[s].get("answers") == changes[s].get("answers")]
        differ = [s for s in seeds if s not in same]
        note = f"identical on {len(same)} seeds"
        if differ:
            note += f"; DIFFER on seeds {differ}"
        print(f"  answers: {note}", file=out)
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    return compare(load(args.parent), load(args.change), gated())


if __name__ == "__main__":
    sys.exit(main())
