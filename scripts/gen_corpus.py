"""Write a seeded corpus of instance files for pipeline experiments.

Emits two families under --out-dir:
  graphNN.json  plain drawn graphs {vertices, edges, coords}; sources for
                the fvs->acc reduction verb, which refuses vertices of
                degree above 4 and drawings where two edges leave a shared
                vertex at a small angle (their disk chains touch too often)
  cutNN.json    embedded multiterminal-cut instances (rotation + terminals);
                sources for the pmc->subdivision and mc->udmc verbs
                (mc->udmc refuses vertices of degree above 3 and drawings
                whose ring bundles touch where they must not)

The same --seed always reproduces the same files byte for byte.
"""

import argparse
import json
import pathlib

from disklab.corpus import seeded_multiterminal_instances, seeded_planar_graphs


def dump(obj, path: pathlib.Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--graphs", type=int, default=10, help="drawn graphs to write")
    ap.add_argument("--cuts", type=int, default=10, help="cut instances to write")
    ap.add_argument("--max-grid", type=int, default=None,
                    help="discard drawings needing a larger integer grid")
    ap.add_argument("--out-dir", default="corpus")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    embs = seeded_planar_graphs(args.seed, args.graphs, max_grid=args.max_grid)
    for i, emb in enumerate(embs):
        dump(
            {
                "vertices": list(emb.graph.vertices),
                "edges": [[u, w] for u, w in emb.graph.edges],
                "coords": {v: [x, y] for v, (x, y) in emb.coords.items()},
            },
            out / f"graph{i:02d}.json",
        )
    cuts = seeded_multiterminal_instances(args.seed + 1, args.cuts)
    for i, mti in enumerate(cuts):
        dump(mti.to_dict(), out / f"cut{i:02d}.json")
    print(f"wrote {len(embs)} drawn graphs and {len(cuts)} cut instances to {out}/")


if __name__ == "__main__":
    main()
