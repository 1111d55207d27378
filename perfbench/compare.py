#!/usr/bin/env python3
"""Compares two sets of perfbench reports, refusing mismatched hosts.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the per-run reports perfbench writes
(<workload>.seed<N>.trace<T>.json, by default under
.bench_build/perfbench_out/). Reports are paired by file name. If any pair's
host fingerprints differ (nproc, ISA flags, compiler, build type or seed) the
comparison is refused with exit code 2: numbers from different hosts or
builds are not comparable. Otherwise, for each workload and metric, the
script prints both medians, their quartile spreads and the change.
"""

import json
import os
import statistics
import sys


def load(directory):
    reports = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                reports[name] = json.load(f)
    return reports


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q[2] - q[0]) / median if median else float("nan")


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    base, new = load(argv[1]), load(argv[2])
    common = sorted(set(base) & set(new))
    if not common:
        sys.stderr.write("compare: no report names in common\n")
        return 2
    for name in common:
        if base[name]["fingerprint"] != new[name]["fingerprint"]:
            sys.stderr.write(
                "compare: refusing: %s was measured on different hosts or "
                "builds:\n  base %s\n  new  %s\n"
                % (name, base[name]["fingerprint"], new[name]["fingerprint"]))
            return 2
        for side, report in (("base", base[name]), ("new", new[name])):
            if not report["correct"]:
                sys.stderr.write("compare: refusing: %s %s failed its "
                                 "correctness checks\n" % (side, name))
                return 2
    groups = {}
    for name in common:
        workload = base[name]["workload"]
        for metric, value in base[name]["metrics"].items():
            entry = groups.setdefault((workload, metric),
                                      {"unit": value["unit"], "base": [],
                                       "new": []})
            entry["base"].append(value["value"])
            entry["new"].append(new[name]["metrics"][metric]["value"])
    print("%-12s %-30s %14s %8s %14s %8s %9s" % (
        "workload", "metric", "base median", "spread", "new median",
        "spread", "change"))
    for (workload, metric), entry in sorted(groups.items()):
        b = statistics.median(entry["base"])
        n = statistics.median(entry["new"])
        change = "%+8.2f%%" % (100.0 * (n - b) / b) if b else "     n/a"
        print("%-12s %-30s %14.6g %8.3f %14.6g %8.3f %9s %s" % (
            workload, metric, b, spread(entry["base"]), n,
            spread(entry["new"]), change, entry["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
