"""Smoke test of the benchmark harness itself.

    python3 perfbench/smoke.py

Runs every workload once at its smallest input set, untraced and traced,
and checks that each run passes its correctness checks (the traced run's
include that its outputs match the untraced run's byte for byte) and
prints every metric BENCHMARK.json names, with its unit, and that the
traced run measured ``self_s`` and ``calls`` of every wrapped function,
every size counter and ``trace.overhead_ratio``.  Then feeds the checker a
deliberately wrong expectation and checks that the run reports it as
incorrect and exits 1.  Exits 0 when all of that holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from spans import COUNTERS, FUNCTIONS  # noqa: E402

LAYER_METRICS = {f"{fn}.{kind}" for fn in FUNCTIONS for kind in ("self_s", "calls")} | set(
    COUNTERS) | {"trace.overhead_ratio"}


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "1", "--seconds", "1", "--small", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def unmeasured_layers(workload):
    path = HERE / "out" / f"{workload}-seed1-small-trace1" / "results.json"
    return sorted(LAYER_METRICS - set(json.loads(path.read_text())["measured"]))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for wl in spec["workloads"]:
            code, res = bench("--workload", wl["name"], "--trace", str(trace))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if code != 0 or not res["correct"]:
                problems.append(f"{wl['name']} trace {trace}: exit {code}, correct {res['correct']}")
            if got != wanted:
                problems.append(f"{wl['name']} trace {trace}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(wanted.items()))}")
            if trace and unmeasured_layers(wl["name"]):
                problems.append(f"{wl['name']}: layer metrics not measured: "
                                f"{unmeasured_layers(wl['name'])}")
            print(f"{wl['name']} trace {trace}: exit {code}, {len(got)} metrics, "
                  f"{res['attempted']} operations, {res['failed']} failed")
    code, res = bench("--workload", "toy-chains", "--trace", "0", "--wrong-expectation")
    if code != 1 or res["correct"]:
        problems.append(f"wrong expectation not caught: exit {code}, correct {res['correct']}")
    print(f"wrong expectation: exit {code}, correct {res['correct']}")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
