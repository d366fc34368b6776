"""Self-time report of one traced benchmark run.

    python3 perfbench/report.py --workload sound-reduce --seed 1
    python3 perfbench/report.py perfbench/out/sound-reduce-seed1-trace1/spans.jsonl
    python3 perfbench/report.py --workload sound-reduce --seed 1 --op anchor/reduce

Reads the span file a ``--trace 1`` run wrote and prints, sorted by self
time, the self seconds and call counts per module and per wrapped function
over the whole traced run (its set-up and traced passes), then the size
counters.  A span's self time is its duration minus the time its child
spans cover.  ``bench.*`` rows are the benchmark's own operation spans.
``--op`` keeps only the spans of operations whose label starts with the
given text (the size counters are still the whole run's).
"""

import argparse
import json
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def load(path):
    spans, counters = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["kind"] == "span":
                spans.append(rec)
            else:
                counters = rec["counters"]
    return spans, counters


def self_times(spans):
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    per_fn = defaultdict(lambda: [0.0, 0])
    for s in spans:
        row = per_fn[s["name"]]
        row[0] += s["end"] - s["start"] - covered[s["id"]]
        row[1] += 1
    return per_fn


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("spans", nargs="?", help="span file of a traced run")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--op", help="label prefix of the operations to report, e.g. anchor/")
    args = ap.parse_args(argv)
    path = args.spans or OUT / f"{args.workload}-seed{args.seed}-trace1" / "spans.jsonl"
    spans, counters = load(path)
    if args.op:
        spans = [s for s in spans if (s["label"] or "").startswith(args.op)]
    per_fn = self_times(spans)
    per_mod = defaultdict(lambda: [0.0, 0])
    for name, (secs, calls) in per_fn.items():
        row = per_mod[name.split(".")[0]]
        row[0] += secs
        row[1] += calls
    total = sum(secs for secs, _ in per_fn.values()) or 1.0
    print(f"{path}: {len(spans)} spans, {total:.3f} s traced")
    for title, table in (("module", per_mod), ("function", per_fn)):
        print(f"\n{'self s':>10} {'share':>6} {'calls':>8}  {title}")
        for name, (secs, calls) in sorted(table.items(), key=lambda kv: -kv[1][0]):
            print(f"{secs:10.4f} {secs / total:6.1%} {calls:8d}  {name}")
    print("\nsize counters (one set-up plus the median traced pass)")
    for name, value in sorted(counters.items()):
        print(f"  {name:<28} {value:g}")


if __name__ == "__main__":
    main()
