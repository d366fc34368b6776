"""Run one benchmark workload against the disklab sources of this checkout.

    python3 perfbench/run.py --workload toy-chains --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: each verb starts after the previous
one returns.  The run sets its inputs up a fixed number of times per
workload (the last set is used), launches the CLI ``CLI_LAUNCHES`` times,
then makes passes over the workload's operations, with one more launch
after each: one pass for each whole nominal pass time (``Workload.pass_s``)
in ``--seconds``, at least one.  The amount of work is fixed, not the time,
so runs of a workload attempt the same operations whatever the host's
speed.
Every operation's exit code and output are checked against an expectation
the benchmark derives itself; reduce and render outputs are hashed and
must not change between passes.

Times are reported in reference seconds: CPU seconds scaled by how fast
the host ran meanwhile (see hostspeed.py); results.json keeps the raw wall
seconds too.  ``--trace 0`` reports the end-to-end metrics BENCHMARK.json
names.  ``--trace 1`` alternates untraced and traced passes (at least one
of each), reports its per-layer metrics, and writes the spans as JSON
lines; see report.py.  The last line of stdout is the JSON result.  Exit
code 0 when every check passed, 1 when one failed, 2 when the run could
not start.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CLI_LAUNCHES = 10
VERBS = ("reduce", "solve", "verify", "lift", "render")


def quartiles(values):
    """Median, quartiles and sample count of one metric's samples."""
    vals = sorted(values)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    return {"value": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_tree(directory):
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# CPU and wall seconds of one timed call, each less the sampler's share,
# and the wall interval it ran in
Timing = namedtuple("Timing", "cpu wall start end")


def pin_mmap_threshold():
    """Fix glibc's mmap threshold at its initial 128 KiB.  glibc otherwise
    raises it whenever a large block is freed, so whether a later large
    block comes from a fresh mapping or from the heap, and with it the peak
    RSS, depends on the allocation history of the whole process: a change
    in the harness alone moved sound-reduce's peak by 17 MB (10 %).  Other
    C libraries are left as they are."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def failure(label, problem):
    return {"label": label, "verb": "check", "exit": None, "timing": None,
            "problem": problem, "wrong": True, "digests": {}}


class Run:
    def __init__(self, speed):
        self.speed = speed
        self.tracer = None
        self.outcomes = []     # one dict per executed operation
        self.op_seq = 0
        self.phase = "setup"

    def timed(self, call, cpu_clock=time.thread_time):
        """``call()`` and its Timing; ``cpu_clock`` is this thread's CPU
        clock, or the children's for a call that waits on a subprocess."""
        speed = self.speed
        spent_cpu, spent_wall = speed.spent_cpu, speed.spent_wall
        cpu, start = cpu_clock(), time.perf_counter()
        result = call()
        cpu, end = cpu_clock() - cpu, time.perf_counter()
        if cpu_clock is time.thread_time:
            cpu -= speed.spent_cpu - spent_cpu
        return result, Timing(cpu, end - start - (speed.spent_wall - spent_wall), start, end)

    def execute(self, op):
        """Run one operation and check its outcome."""
        for path in op.outputs:
            Path(path).unlink(missing_ok=True)
        problem, code, lines, timing = None, None, [], None
        try:
            if op.prepare:
                op.prepare()
        except Exception as exc:  # an earlier operation left no usable output
            problem = f"prepare failed: {exc!r}"
        if problem is None:
            self.op_seq += 1
            call = op.call
            # start each verb, as a fresh CLI process would, with no garbage
            # left by the ones before; when the collector runs inside it
            # then depends on the verb alone
            gc.collect()
            if self.tracer is not None:
                op_id = (self.phase, self.op_seq, op.label)
                call = lambda: self.tracer.operation(op_id, f"bench.{op.verb}", op.call)
            try:
                (code, lines), timing = self.timed(call)
            except Exception as exc:
                problem = f"raised {exc!r}"
        if problem is None and code not in op.expect:
            problem = f"exit {code}, expected {sorted(op.expect)}: {' | '.join(lines[:2])}"
        if problem is None and op.check is not None:
            try:
                problem = op.check(lines)
            except Exception as exc:
                problem = f"check raised {exc!r}"
        outcome = {
            "label": op.label, "verb": op.verb, "exit": code, "timing": timing,
            "problem": problem,
            # an exit-2 refusal of a well-formed draw is a failure, not a wrong answer
            "wrong": problem is not None and not (op.refusal_draw and code == 2),
            "digests": {f"{op.label}:{Path(p).name}": sha256(p) if Path(p).exists()
                        else f"exit {code}" for p in op.outputs},
        }
        self.outcomes.append(outcome)
        return outcome

    def run_pass(self, ops):
        """Outcomes and output digests of one pass over ``ops``."""
        done = [self.execute(op) for op in ops]
        return {"ops": done, "digests": {k: v for o in done for k, v in o["digests"].items()}}

    def cli_startup(self, launches, samples):
        """Time ``python -m disklab check-params --n 2`` as a subprocess,
        by the child's CPU time; appends its Timing to ``samples``."""
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        for _ in range(launches):
            proc, timing = self.timed(lambda: subprocess.run(
                [sys.executable, "-m", "disklab", "check-params", "--n", "2"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120),
                cpu_clock=children_cpu)
            samples.append(timing)
            problem = None
            try:
                if proc.returncode != 0 or json.loads(proc.stdout)["ok"] is not True:
                    problem = f"exit {proc.returncode}"
            except ValueError:
                problem = "stdout is not the JSON constraint report"
            self.outcomes.append({"label": "cli/check-params", "verb": "cli",
                                  "exit": proc.returncode, "timing": timing,
                                  "problem": problem, "wrong": problem is not None,
                                  "digests": {}})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smallest input set of the workload (harness smoke test)")
    ap.add_argument("--wrong-expectation", action="store_true",
                    help="expect the opposite exit code of the first verify (smoke test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "disklab" / "__init__.py").is_file():
        print(f"no disklab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    name = f"{args.workload}-seed{args.seed}{'-small' if args.small else ''}"
    out = OUT / f"{name}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    # one CPU for the run and the CLI launches it makes, so the host-speed
    # samples are taken where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    pin_mmap_threshold()
    speed = HostSpeed()
    speed.start()
    tracer = Tracer() if args.trace else None
    run = Run(speed)

    def traced(on):
        if tracer:
            tracer.install() if on else tracer.uninstall()
            run.tracer = tracer if on else None

    # set-up: the untraced run repeats it and reports the median; the traced
    # run traces one set-up, so its layer figures are one set-up plus one pass
    setups = []
    for k in range(1 if args.trace else workload.setups):
        work = out / f"setup{k}"
        shutil.rmtree(out / f"setup{k - 1}", ignore_errors=True)
        work.mkdir(parents=True)
        gc.collect()
        traced(True)
        ctx, timing = run.timed(lambda: workload.setup(work, args.seed, args.small, run.execute))
        traced(False)
        setups.append(timing)
    ops = workload.ops(ctx)
    if args.wrong_expectation:
        first = next(op for op in ops if op.verb == "verify")
        first.expect = frozenset({0, 1, 2}) - first.expect

    # launches go between passes too, so one slow spell of the host does not
    # set them all
    launches = []
    run.cli_startup(CLI_LAUNCHES, launches)
    # a traced run alternates untraced and traced passes, one of each at least
    plain, traced_passes = [], []
    for k in range(max(1 + bool(tracer), int(args.seconds // workload.pass_s))):
        trace_this = bool(tracer) and k % 2 == 1
        run.phase = k
        if trace_this:
            tracer.phase = run.phase
        traced(trace_this)
        (traced_passes if trace_this else plain).append(run.run_pass(ops))
        traced(False)
        if not trace_this:
            run.cli_startup(1, launches)
    speed.stop()

    # determinism: every pass, traced or not, wrote the same bytes
    reference = plain[0]["digests"]
    for i, p in enumerate(plain + traced_passes):
        if p["digests"] != reference:
            run.outcomes.append(failure("digest/passes", f"pass {i} output differs from pass 0"))
    # and the same bytes as the other trace mode's run of this seed, when it
    # ran on the same sources
    sources = sha256_tree(ROOT / "src" / "disklab")
    sibling = OUT / f"{name}-trace{1 - args.trace}" / "results.json"
    if sibling.is_file():
        other = json.loads(sibling.read_text())
        if other["sources"] == sources and other["digests"] != reference:
            run.outcomes.append(failure("digest/traced-vs-untraced",
                                        f"outputs differ from {sibling.parent.name}"))

    if tracer:
        layer = tracer.layer_metrics()
        def pass_s(p):
            return sum(speed.reference(o["timing"]) for o in p["ops"] if o["timing"])

        layer["trace.overhead_ratio"] = (statistics.median(map(pass_s, traced_passes))
                                         / statistics.median(map(pass_s, plain)))
        measured = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
        tracer.write(out / "spans.jsonl", {k: v for k, v in layer.items()
                                           if not k.endswith((".self_s", ".calls"))})
        detail = {}
    else:
        # each operation is scaled by the host speed sampled while it ran
        def verb_seconds(p, verbs, scaled):
            return sum(speed.reference(o["timing"]) if scaled else o["timing"].wall
                       for o in p["ops"] if o["verb"] in verbs and o["timing"])

        detail = {}
        for key, verbs in [(f"{v}_s", {v}) for v in VERBS] + [("pass_s", set(VERBS))]:
            detail[key] = {**quartiles([verb_seconds(p, verbs, True) for p in plain]),
                           "unit": "s",
                           "wall": quartiles([verb_seconds(p, verbs, False) for p in plain])}
        for key, samples in (("setup_s", setups), ("cli_startup_s", launches)):
            detail[key] = {**quartiles([speed.reference(t) for t in samples]),
                           "unit": "s", "wall": quartiles([t.wall for t in samples])}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        detail["peak_rss_mb"] = {**quartiles([peak]), "unit": "MB"}
        measured = {k: {"value": d["value"], "unit": d["unit"]} for k, d in detail.items()}

    missing = sorted(k for k, unit in reported.items()
                     if k not in measured or measured[k]["unit"] != unit)
    if missing:
        print(f"BENCHMARK.json names metrics this run does not measure: {missing}",
              file=sys.stderr)
        return 2
    failures = [o for o in run.outcomes if o["problem"]]
    wrong = [o for o in failures if o["wrong"]]
    result = {"correct": not wrong, "attempted": len(run.outcomes), "failed": len(failures),
              "metrics": {k: measured[k] for k in reported}}
    (out / "results.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "small": args.small, "passes": len(plain),
        "traced_passes": len(traced_passes), "fail_ratio": len(failures) / len(run.outcomes),
        "result": result, "measured": measured, "detail": detail, "digests": reference,
        "sources": sources,
        "failures": failures, "op_seconds": op_seconds(run.outcomes, speed),
        "speed_samples": len(speed.kernel_s),
    }, indent=1, sort_keys=True) + "\n")

    for o in failures:
        print(f"{'WRONG' if o['wrong'] else 'failed'}: {o['label']}: {o['problem']}")
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced_passes)} "
          f"traced passes, {len(run.outcomes)} operations, "
          f"fail_ratio {len(failures) / len(run.outcomes):.4f}")
    for k, d in detail.items():
        print(f"  {k:<14} {d['value']:12.6f} {d['unit']:<3} (n={d['n']}, q1={d['q1']:.6f}, "
              f"q3={d['q3']:.6f})")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def op_seconds(outcomes, speed):
    """Median reference seconds per operation label, over the whole run."""
    by_label = {}
    for o in outcomes:
        if o["timing"]:
            by_label.setdefault(o["label"], []).append(speed.reference(o["timing"]))
    return {k: statistics.median(v) for k, v in by_label.items()}


def unit_of(metric):
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "1"
    if "bytes" in metric:
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
