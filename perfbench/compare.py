#!/usr/bin/env python3
"""Compares two result files written by perfbench/run.py.

    python3 perfbench/compare.py OLD.json NEW.json

Prints each metric of both files with the relative change.  Files whose
stamps differ in host or configuration (nproc, CPU model, build type, P,
STVM engine) or in workload/trace are flagged NOT COMPARABLE and the
command exits with status 1.  The git sha and source digest are expected
to differ between the two sides and are only shown.
"""

import json
import sys

MUST_MATCH = ("nproc", "cpu_model", "build_type", "P", "stvm_engine")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (json.load(open(p)) for p in argv[1:])
    diffs = [f"{k}: {old['stamp'].get(k)!r} vs {new['stamp'].get(k)!r}"
             for k in MUST_MATCH if old["stamp"].get(k) != new["stamp"].get(k)]
    diffs += [f"{k}: {old.get(k)!r} vs {new.get(k)!r}"
              for k in ("workload", "trace") if old.get(k) != new.get(k)]
    print(f"old {old['stamp']['git_sha'][:12]} ({old['stamp']['source_sha256']})  "
          f"new {new['stamp']['git_sha'][:12]} ({new['stamp']['source_sha256']})  "
          f"workload {new['workload']}")
    for d in diffs:
        print(f"NOT COMPARABLE: stamps differ in {d}")
    for name, m in new["metrics"].items():
        before = old["metrics"].get(name, {}).get("value")
        after = m["value"]
        change = f"{100.0 * (after - before) / before:+8.2f}%" if before else "       -"
        shown = "-" if before is None else f"{before:.6g}"
        print(f"  {name:<36} {shown:>12} -> {after:<12.6g} {m['unit']:<9} {change}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
