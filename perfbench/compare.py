#!/usr/bin/env python3
"""Compares two result sets saved by `run.py --save`, workload by workload.

    python3 perfbench/compare.py base.jsonl change.jsonl

A result set is every line saved for one workload with one trace setting.
Two sets are compared only when their run identities match: the same n,
updates, profile, workers, CLI flags, build type, compiler, hardware
threads, host and the same seeds. Otherwise the comparison is refused
(exit 2), because the numbers would not measure the same thing.

For each end-to-end metric it prints both medians, the base set's spread
(quartile distance over median) and a verdict against the metric's bound
in BENCHMARK.json:
  worse       the change's median is worse than the base's by more than
              the bound (exit 1)
  unresolved  the base's own spread exceeds the bound, and not every run
              of the change beats every run of the base
  ok          otherwise
Failed operations are compared too: any rise is reported as worse.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Identity fields that may differ inside one result set.
PER_RUN = {"seed"}


def load(path):
    sets = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            key = (row["identity"]["workload"], row["trace"])
            sets.setdefault(key, []).append(row)
    return sets


def set_identity(rows):
    """The identity every row of a set shares, plus its sorted seeds."""
    shared = None
    for row in rows:
        ident = {k: v for k, v in row["identity"].items() if k not in PER_RUN}
        if shared is not None and ident != shared:
            return None
        shared = ident
    shared = dict(shared)
    shared["seeds"] = sorted(row["identity"]["seed"] for row in rows)
    return shared


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(argv[1]), load(argv[2])
    refused = False
    worse = False
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        if key not in base or key not in change:
            print(f"{workload} (trace {trace}): only in one result set; "
                  "refused")
            refused = True
            continue
        a, b = set_identity(base[key]), set_identity(change[key])
        if a is None or b is None or a != b:
            diff = sorted(k for k in set(a or {}) | set(b or {})
                          if (a or {}).get(k) != (b or {}).get(k))
            print(f"{workload} (trace {trace}): identities differ "
                  f"({', '.join(diff) or 'mixed set'}); refused")
            refused = True
            continue
        failed_a = sum(r["result"]["failed"] for r in base[key])
        failed_b = sum(r["result"]["failed"] for r in change[key])
        print(f"{workload} (trace {trace}): {len(base[key])} runs each; "
              f"failed operations {failed_a} -> {failed_b}")
        if failed_b > failed_a:
            worse = True
        if trace:
            continue  # per-layer metrics have no bound
        for name, m in bounds.items():
            va = [r["result"]["metrics"][name]["value"] for r in base[key]]
            vb = [r["result"]["metrics"][name]["value"] for r in change[key]]
            ma, mb = statistics.median(va), statistics.median(vb)
            higher = m["better"] == "higher"
            change_frac = (ma - mb) / ma if higher else (mb - ma) / ma
            all_better = (min(vb) > max(va)) if higher else \
                (max(vb) < min(va))
            if change_frac > m["bound"]:
                verdict = "worse"
                worse = True
            elif spread(va) > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:22s} {ma:14.6g} -> {mb:14.6g} {m['unit']:4s} "
                  f"base spread {spread(va):.3f}, bound {m['bound']}: "
                  f"{verdict}")
    if refused:
        return 2
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
