"""Record the benchmark's figures for the current sources, with machine facts.

    python3 perfbench/baseline.py --seeds 101-110 --seconds 30

Runs every workload of BENCHMARK.json once per seed, untraced, then once
traced with the first seed, one run at a time.  Writes
``perfbench/baseline.json``: per workload and end-to-end metric the median,
quartiles and quartile spread (q3 - q1 over the median) of the runs, each
run's wall seconds, and the traced run's per-layer figures.  Prints the
spreads as it goes.  Exits 1 if any run fails its checks.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    results = HERE / "out" / f"{workload}-seed{seed}-trace{trace}" / "results.json"
    return proc.returncode, result, wall, json.loads(results.read_text())


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="101-110", help="first-last seed, inclusive")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "what": f"median, quartiles and quartile spread of each end-to-end metric over "
                f"{len(seeds)} untraced runs per workload (seeds {args.seeds}, "
                f"--seconds {seconds}), and one traced run's per-layer figures (seed {seeds[0]})",
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                    "python": platform.python_version(), "platform": platform.platform()},
        "workloads": {},
    }
    ok = True
    for wl in args.workloads or [w["name"] for w in spec["workloads"]]:
        values, walls, fail_ratio = {}, [], []
        for seed in seeds:
            code, result, wall, full = bench(wl, seed, seconds, 0)
            ok &= code == 0 and result["correct"]
            walls.append(wall)
            fail_ratio.append(full["fail_ratio"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: exit {code}, {wall:.1f} s, correct {result['correct']}, "
                  f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
        metrics = {name: summary(v) for name, v in sorted(values.items())}
        for name, m in metrics.items():
            flag = "" if m["spread"] <= bounds[name] / 3 else "  above a third of its bound"
            print(f"  {name:<14} median {m['median']:10.4f}  spread {m['spread']:.3f}"
                  f" (bound {bounds[name]}){flag}")
        code, result, wall, full = bench(wl, seeds[0], seconds, 1)
        ok &= code == 0 and result["correct"]
        print(f"{wl} traced seed {seeds[0]}: exit {code}, {wall:.1f} s, "
              f"overhead {full['measured']['trace.overhead_ratio']['value']:.3f}", flush=True)
        record["workloads"][wl] = {
            "run_wall_s": walls, "fail_ratio": fail_ratio, "metrics": metrics,
            "sources": full["sources"],
            "traced": {name: m["value"] for name, m in sorted(full["measured"].items())},
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
