"""Compare two sets of benchmark results, one row per (workload, metric).

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
``run.py --results DIR`` writes.  Per row: each side's median and quartiles,
their spread (quartile distance over the median) against the metric's
bound from BENCHMARK.json, the pairs (same seed) the change won, and a
verdict:

* better     -- the change wins at least 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the base's
                quartile distance;
* worse      -- the change's median is worse than the base's by more than
                the bound;
* unresolved -- a side's spread exceeds the bound, unless every change run
                beats every base run;
* unchanged  -- otherwise.

The outputs of runs with the same seed are also compared at the tolerance
of reference.json.  With one directory, only that side's columns print.
Exit status is 1 if any row is worse or any outputs differ.
"""

import glob
import json
import os
import statistics
import sys

from run import ROOT, reference_close


def load(directory):
    """{workload: {seed: record}} of the untraced records in a directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, change, better, bound):
    """base, change: {seed: value}."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) > 0 for s in seeds)
    b, c = list(base.values()), list(change.values())
    q1, mb, q3 = quartiles(b)
    mc = statistics.median(c)
    if seeds and wins >= 0.9 * len(seeds) and sign * (mc - mb) > q3 - q1:
        return "better", wins, len(seeds)
    if sign * (mc - mb) < -bound * abs(mb):
        return "worse", wins, len(seeds)
    all_better = min(sign * x for x in c) > max(sign * x for x in b)
    if max(spread(b), spread(c)) > bound and not all_better:
        return "unresolved", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def outputs_differ(a, b, close):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() != b.keys() or any(outputs_differ(a[k], b[k], close) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) != len(b) or any(outputs_differ(x, y, close) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return not close(a, b)
    return a != b


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (med, q1, q3)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    close = reference_close()

    sets = [load(d) for d in argv]
    names = [w["name"] for w in bench["workloads"]]
    status = 0
    header = ["workload", "metric", "bound", "base median [q1, q3]", "spread"]
    if len(sets) == 2:
        header += ["change median [q1, q3]", "spread", "wins", "verdict"]
    print(" | ".join(header))
    for name in names:
        if any(name not in s for s in sets):
            print("%s | missing from %s" % (name, " / ".join(
                d for d, s in zip(argv, sets) if name not in s)))
            continue
        for metric in bench["end_to_end"]:
            cols = []
            per_side = []
            for s in sets:
                vals = {seed: rec["result"]["metrics"][metric["name"]]["value"]
                        for seed, rec in s[name].items()}
                per_side.append(vals)
                cols += [fmt(list(vals.values())), "%.3f" % spread(list(vals.values()))]
            row = [name, metric["name"], "%.3g" % metric["bound"]] + cols
            if len(sets) == 2:
                v, wins, pairs = verdict(per_side[0], per_side[1],
                                         metric["better"], metric["bound"])
                row += ["%d/%d" % (wins, pairs), v]
                status |= v == "worse"
            print(" | ".join(row))
        if len(sets) == 2:
            seeds = sorted(set(sets[0][name]) & set(sets[1][name]))
            bad = [s for s in seeds if outputs_differ(
                sets[0][name][s]["outputs"], sets[1][name][s]["outputs"], close)]
            print("%s | outputs | %d of %d same-seed runs differ%s"
                  % (name, len(bad), len(seeds), (" (seeds %s)" % bad) if bad else ""))
            status |= bool(bad)
    return status


if __name__ == "__main__":
    sys.exit(main())
