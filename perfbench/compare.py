#!/usr/bin/env python3
"""Compare two perfbench reports, refusing to compare unequal work.

    python3 perfbench/compare.py OLD.json NEW.json

The reports are the files a run writes to .bench_out/. Two runs of the
same workload and seed must have done the same work per pass (points
requested and simulated, memo hits, engine steps, ops, completed
requests); when their work counts differ the comparison is rejected
(exit 1) instead of printed, because a timing ratio over unequal work
measures the difference in work, not in speed.
"""
import json
import sys


def main(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    same = all(old["env"][k] == new["env"][k] for k in ("workload", "seed", "traced"))
    if same and old["work_per_pass"] != new["work_per_pass"]:
        print("rejected: unequal work per pass for %s seed %d" % (
            new["env"]["workload"], new["env"]["seed"]))
        for k in sorted(set(old["work_per_pass"]) | set(new["work_per_pass"])):
            print("  %-24s %s -> %s" % (k, old["work_per_pass"].get(k), new["work_per_pass"].get(k)))
        return 1
    for side, rep in (("old", old), ("new", new)):
        e = rep["env"]
        print("%s: %s seed=%d traced=%s commit=%s cpus=%d gomaxprocs=%d %s" % (
            side, e["workload"], e["seed"], e["traced"], e["commit"],
            e["num_cpu"], e["gomaxprocs"], e["go_version"]))
    om, nm = old["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(set(om) & set(nm)):
        a, b = om[name]["value"], nm[name]["value"]
        rel = "%+.1f%%" % (100 * (b / a - 1)) if a else "n/a"
        print("%-40s %14.6g %14.6g %8s %s" % (name, a, b, rel, nm[name]["unit"]))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
