"""Compare two benchmark runs metric by metric.

Usage, from the repository root, on saved standard output of run.py:

    python3 perfbench/compare.py before.txt after.txt

Pairs the ``perfbench-record`` lines of the two files by workload and trace
mode and prints each metric of both sides with the change in percent.  The
numba kernel lane and the pure-Python lane differ by about 100x, so a pair
whose sides ran on different lanes is flagged before any number.
"""

from __future__ import annotations

import json
import sys

LANE_KEYS = ("has_numba", "jit_enabled")


def records(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("perfbench-record "):
                rec = json.loads(line.split(" ", 1)[1])
                out[(rec["workload"], rec["trace"])] = rec
    return out


def compare(a: dict, b: dict) -> list[str]:
    lines = []
    for key in sorted(a.keys() & b.keys()):
        ra, rb = a[key], b[key]
        lines.append(f"== {key[0]} (trace {key[1]}), seeds {ra['seed']} / {rb['seed']}")
        lanes = [(k, ra["env"][k], rb["env"][k]) for k in LANE_KEYS if ra["env"][k] != rb["env"][k]]
        if lanes:
            lines.append("!" * 72)
            lines.append("!! DIFFERENT KERNEL LANES: " + ", ".join(f"{k} {x} vs {y}" for k, x, y in lanes))
            lines.append("!! timings are not comparable; the lanes differ by about 100x")
            lines.append("!" * 72)
        for name, ma in ra["metrics"].items():
            mb = rb["metrics"].get(name)
            if mb is None:
                continue
            va, vb = ma["value"], mb["value"]
            change = f"{(vb - va) / va * 100:+8.2f}%" if va else "        -"
            lines.append(f"  {name:<32} {va:>14.6g} {vb:>14.6g} {change} {ma['unit']}")
        same = ra["suite_sha256"] == rb["suite_sha256"]
        lines.append(f"  suites byte-identical: {'yes' if same else 'NO'}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(compare(records(argv[0]), records(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
