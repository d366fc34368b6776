"""End-to-end walkthrough of the three reduction chains on tiny inputs.

Runs, in-process, the same verbs the ``disklab`` CLI exposes:

  fences    two-terminal cut -> face separation -> toy fence instance,
            solved exactly, verified, lifted back to the cut, rendered to SVG
  acyclic   feedback vertex set -> disk deletion for an acyclic union
  weighted  weighted multiterminal cut -> intersection-edge deletion

Every solver output is checked with ``verify`` of its own problem, and
every lifted solution with ``verify`` of the source problem.  All
artifacts (instances, reduction records, certificates, lifted solutions,
SVG previews) land in --out-dir.
"""

import argparse
import json
import pathlib
import sys

from disklab import pipeline as pl
from disklab.graphs import MultiterminalInstance, PlanarEmbeddedGraph


def run(title, fn, *args, **kw):
    code, lines = fn(*args, **kw)
    print(f"[{title}] exit {code}")
    for line in lines:
        print("    " + line)
    if code != 0:
        sys.exit(code)
    return lines


def write(obj, path: pathlib.Path) -> pathlib.Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def fence_chain(out: pathlib.Path) -> None:
    g = PlanarEmbeddedGraph.from_edge_rotation(
        ["u", "v"], [("u", "v"), ("u", "v")], {"u": [0, 1], "v": [1, 0]}
    )
    src = write(
        MultiterminalInstance(graph=g, terminals=["u", "v"]).to_dict(),
        out / "fence_src.json",
    )
    mid, iso = out / "fence_mid.json", out / "fence_iso.json"
    run("fences/reduce 1", pl.cli_reduce, "pmc->subdivision", str(src), str(mid))
    mid_sol = out / "fence_mid_sol.json"
    run("fences/solve mid", pl.cli_solve, "subdivision", str(mid), str(mid_sol))
    run("fences/verify mid", pl.cli_verify, "subdivision", str(mid), str(mid_sol))
    run("fences/reduce 2", pl.cli_reduce, "subdivision->isolation", str(mid),
        str(iso), mode="toy")
    sol = out / "fence_sol.json"
    run("fences/solve", pl.cli_solve, "isolation", str(iso), str(sol))
    run("fences/verify solve", pl.cli_verify, "isolation", str(iso), str(sol))
    cert = write(
        {"problem": "isolation", "candidate": json.loads(sol.read_text())["witness"]},
        out / "fence_cert.json",
    )
    run("fences/verify", pl.cli_verify, "isolation", str(iso), str(cert))
    lifted, lifted_src = out / "fence_lifted.json", out / "fence_lifted_src.json"
    run("fences/lift", pl.cli_lift,
        record_path=str(iso) + ".record.json", solution_path=str(sol),
        source_path=str(mid), target_path=str(iso), out_path=str(lifted))
    run("fences/verify lift", pl.cli_verify, "subdivision", str(mid), str(lifted))
    run("fences/lift 2", pl.cli_lift,
        record_path=str(mid) + ".record.json", solution_path=str(lifted),
        source_path=str(src), target_path=str(mid), out_path=str(lifted_src))
    run("fences/verify lift 2", pl.cli_verify, "mc", str(src), str(lifted_src))
    run("fences/render", pl.cli_render, str(iso), str(out / "fence.svg"))


def acyclic_chain(out: pathlib.Path) -> None:
    src = write(
        {
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
            "coords": {"a": [0, 0], "b": [1, 0], "c": [0, 1]},
        },
        out / "acc_src.json",
    )
    acc = out / "acc_inst.json"
    run("acyclic/reduce", pl.cli_reduce, "fvs->acc", str(src), str(acc))
    sol = out / "acc_sol.json"
    run("acyclic/solve", pl.cli_solve, "acc", str(acc), str(sol))
    run("acyclic/verify solve", pl.cli_verify, "acc", str(acc), str(sol))
    lifted = out / "acc_lifted.json"
    run("acyclic/lift", pl.cli_lift,
        record_path=str(acc) + ".record.json", solution_path=str(sol),
        source_path=str(src), target_path=str(acc), out_path=str(lifted))
    run("acyclic/verify lift", pl.cli_verify, "fvs", str(src), str(lifted))
    run("acyclic/render", pl.cli_render, str(acc), str(out / "acc.svg"))


def weighted_chain(out: pathlib.Path) -> None:
    g = PlanarEmbeddedGraph.from_edge_rotation(
        ["c", "a", "b"], [("c", "a"), ("c", "b")], {"c": [0, 1], "a": [0], "b": [1]}
    )
    src = write(
        MultiterminalInstance(
            graph=g, terminals=["a", "b"], weights={0: 2}
        ).to_dict(),
        out / "udmc_src.json",
    )
    tgt = out / "udmc_inst.json"
    run("weighted/reduce", pl.cli_reduce, "mc->udmc", str(src), str(tgt))
    run("weighted/bound", pl.cli_solve, "udmc-bound", str(tgt),
        str(out / "udmc_bound.json"))
    # assemble an edge-deletion certificate from the record's designated
    # cut pairs for a minimum source cut, then check and lift it
    mc_sol = out / "udmc_srcsol.json"
    run("weighted/solve src", pl.cli_solve, "mc", str(src), str(mc_sol))
    run("weighted/verify src", pl.cli_verify, "mc", str(src), str(mc_sol))
    record = json.loads(pathlib.Path(str(tgt) + ".record.json").read_text())
    pairs = []
    for eid in json.loads(mc_sol.read_text())["witness"]:
        pairs.extend(record["edges"][str(eid)]["cut_pairs"])
    cert = write({"problem": "udmc", "candidate": pairs}, out / "udmc_cert.json")
    run("weighted/verify", pl.cli_verify, "udmc", str(tgt), str(cert))
    lifted = out / "udmc_lifted.json"
    run("weighted/lift", pl.cli_lift,
        record_path=str(tgt) + ".record.json", solution_path=str(cert),
        source_path=str(src), target_path=str(tgt), out_path=str(lifted))
    run("weighted/verify lift", pl.cli_verify, "mc", str(src), str(lifted))


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--out-dir", default="demo_out")
    args = ap.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fence_chain(out)
    acyclic_chain(out)
    weighted_chain(out)
    print(f"all chains done; artifacts in {out}/")


if __name__ == "__main__":
    main()
