#!/usr/bin/env python3
"""Diff two bench --json artifacts (bench/harness.hpp schema).

Usage:
  tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold PCT]

Prints one row per benchmark present in both files with the ns/op delta,
lists benchmarks only one side has, and exits nonzero when any shared
benchmark regressed by more than the threshold (default 10%).  The
"meta" provenance block each artifact carries (git sha, dispatch knob,
scale, reps, engines, host) is echoed so a CI log records what was
compared; mismatched scale/reps are flagged as a warning because the
comparison is then across different workloads, not different code.
When the host stamps (nproc, cpu_model) differ, or one side lacks them,
the diff is printed as informational and the exit status is 0: timings
from two machines do not gate each other.
"""

import argparse
import json
import sys

# Counter rows (the steal / idle-wake phases of fig22) carry raw event
# counts in the ns_per_op field.  They are echoed with deltas so a
# locality shift is visible in the CI log, but never flagged as timing
# regressions -- counts legitimately move with scheduling noise.
INFORMATIONAL_PREFIXES = ("steal_", "idle_")

# Meta keys that identify the machine a file was measured on.
HOST_KEYS = ("nproc", "cpu_model")


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    results = {r["benchmark"]: r for r in doc.get("results", [])}
    return doc, results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    args = ap.parse_args()

    base_doc, base = load(args.baseline)
    cand_doc, cand = load(args.candidate)

    base_meta = base_doc.get("meta", {})
    cand_meta = cand_doc.get("meta", {})
    print(f"baseline:  {args.baseline}  suite={base_doc.get('suite', '?')}  "
          f"meta={base_meta}")
    print(f"candidate: {args.candidate}  suite={cand_doc.get('suite', '?')}  "
          f"meta={cand_meta}")
    warnings = 0
    for knob in ("scale", "reps"):
        if base_meta.get(knob) != cand_meta.get(knob):
            print(f"WARNING: {knob} differs ({base_meta.get(knob)} vs "
                  f"{cand_meta.get(knob)}); deltas compare different workloads")
            warnings += 1
    same_host = all(base_meta.get(k) is not None and base_meta.get(k) == cand_meta.get(k)
                    for k in HOST_KEYS)
    if not same_host:
        print("different host: informational (" + ", ".join(
            f"{k} {base_meta.get(k)!r} vs {cand_meta.get(k)!r}" for k in HOST_KEYS) + ")")

    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    regressions = []
    width = max([len(n) for n in shared], default=9)
    print(f"\n{'benchmark':<{width}}  {'base ns/op':>14}  {'cand ns/op':>14}  "
          f"{'delta':>8}")
    for name in shared:
        b = base[name]["ns_per_op"]
        c = cand[name]["ns_per_op"]
        delta = (c - b) / b * 100.0 if b > 0 else 0.0
        flag = ""
        if name.startswith(INFORMATIONAL_PREFIXES):
            flag = "  (info)"
        elif delta > args.threshold:
            flag = "  REGRESSION"
            regressions.append((name, delta))
        print(f"{name:<{width}}  {b:>14.1f}  {c:>14.1f}  {delta:>+7.1f}%{flag}")

    for name in only_base:
        print(f"only in baseline:  {name}")
    for name in only_cand:
        print(f"only in candidate: {name}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0f}%:")
        for name, delta in regressions:
            print(f"  {name}: +{delta:.1f}%")
        if not same_host:
            print("different host: informational, not a gate")
            return 0
        return 1
    print(f"\nno regressions above {args.threshold:.0f}% "
          f"({len(shared)} shared benchmark(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
