"""The benchmark's workloads: seeded inputs and the operations of one pass.

A workload is a ``setup(work, seed, small, execute)`` that writes input
files into ``work`` and returns a context, plus an ``ops(ctx)`` that lists
the operations of one pass.  Each operation calls one ``disklab`` verb
in-process and carries the outcome the benchmark expects of it, derived
without disklab (see ``checks``).  Shapes whose cost would swing the
figures from seed to seed (the paper-scale anchor, the K4 and triangle
fences) are fixed; the seed names their vertices and points and picks the
terminals, dropped wall and removed disk.  The small instances come from
disklab's seeded corpus generators.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, FrozenSet, Optional, Tuple

from disklab import corpus
from disklab import pipeline as pl

import checks

# the first graph of the seed the acceptance suite's sound corpus uses:
# 8 vertices, 14 edges, drawn on grid 3, 96,840 disks in sound mode
ANCHOR_SEED = 20260814
K4_EDGES = [(0, 1), (1, 2), (0, 3), (3, 1), (3, 2), (0, 2)]
TRIANGLE_EDGES = [(0, 1), (1, 2), (2, 0)]
DIAMOND_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]


@dataclass
class Op:
    label: str
    verb: str
    call: Callable[[], Tuple[int, list]]
    expect: FrozenSet[int] = frozenset({0})
    check: Optional[Callable[[list], Optional[str]]] = None
    prepare: Optional[Callable[[], None]] = None
    outputs: Tuple[Path, ...] = ()
    # exit 2 here is the known toy-refusal defect: counted as failed, but
    # not as a wrong answer
    refusal_draw: bool = False


def dump(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def labels(rng, n, prefix):
    """Seeded names that sort in the order they are handed out, so renaming
    a fixed shape changes no iteration order inside disklab."""
    return [f"{prefix}{k}" for k in sorted(rng.sample(range(100, 1000), n))]


def renamed(names, edges, new):
    to = dict(zip(names, new))
    return [to[v] for v in names], [(to[a], to[b]) for a, b in edges]


def fixed_shape(rng, n, edge_idx, prefix):
    """A fixed graph shape under seeded names."""
    names = labels(rng, n, prefix)
    return names, [(names[a], names[b]) for a, b in edge_idx]


def record_of(path):
    return Path(str(path) + ".record.json")


def with_record(path):
    return (Path(path), record_of(path))


def graph_source(vertices, edges):
    """Vertices, edges and rotation of a connected simple planar graph,
    embedded by disklab's corpus helper."""
    return corpus.rotation_graph(vertices, edges).to_dict()


def every_face_marked(src, rng):
    names = labels(rng, checks.face_count(src), "p")
    return {**src, "terminals": {name: f for f, name in enumerate(names)}}


def expect_all(*tests):
    """Combine checks; the first message that comes back wins."""
    def run(lines):
        for test in tests:
            msg = test(lines)
            if msg:
                return msg
        return None
    return run


def witness(path):
    return checks.load(path)["witness"]


def cert(path, ids, problem):
    dump(path, {"problem": problem, "candidate": list(ids)})


def minus_one(ids, pick):
    ids = list(ids)
    del ids[int(pick * len(ids))]
    return ids


# ---------------------------------------------------------------------------
# shared op builders
# ---------------------------------------------------------------------------

def optimum_is(path, want):
    def test(_lines):
        got = checks.load(path)["optimum"]
        return None if got == want else f"optimum {got}, expected {want}"
    return test


def witness_size_is_optimum(path):
    def test(_lines):
        sol = checks.load(path)
        if len(sol["witness"]) != sol["optimum"]:
            return f"witness of {len(sol['witness'])} for optimum {sol['optimum']}"
        return None
    return test


def size_law(path, groups, c_edge_of):
    """Sound and toy fences: b * c_edge <= k1 < (b + 1) * c_edge."""
    def test(_lines):
        k1, c = checks.load(path)["optimum"], c_edge_of()
        if not groups * c <= k1 < (groups + 1) * c:
            return f"fence of {k1} disks outside [{groups}*{c}, {groups + 1}*{c})"
        return None
    return test


def fence_verifies(tag, inst, sol, work, pick):
    """Accept the solver's witness; reject it minus one disk (optimality)."""
    ok_cert, short_cert = work / f"{tag}_cert.json", work / f"{tag}_short.json"
    return [
        Op(f"{tag}/verify-witness", "verify",
           lambda: pl.cli_verify("isolation", inst, ok_cert),
           prepare=lambda: cert(ok_cert, witness(sol), "isolation")),
        Op(f"{tag}/verify-short", "verify",
           lambda: pl.cli_verify("isolation", inst, short_cert), expect=frozenset({1}),
           prepare=lambda: cert(short_cert, minus_one(witness(sol), pick), "isolation"),
           check=lambda lines: None if checks.failed_pairs(lines) else "no pair reported FAIL"),
    ]


def render(tag, inst, work):
    svg = work / f"{tag}.svg"

    def test(_lines):
        return None if svg.read_text(encoding="utf-8").lstrip().startswith("<") else "not an SVG"
    return Op(f"{tag}/render", "render", lambda: pl.cli_render(inst, svg),
              check=test, outputs=(svg,))


def acc_holes(tag, inst, empty, n_edges):
    """The whole union of a connected sound instance has E + 1 holes."""
    def test(lines):
        got = checks.bounded_regions(lines)
        return None if got == n_edges + 1 else f"{got} bounded regions, expected {n_edges + 1}"
    return Op(f"{tag}/verify-acc-empty", "verify",
              lambda: pl.cli_verify("acc", inst, empty), expect=frozenset({1}), check=test)


def face_separation(tag, src_path, src, work, pick):
    """Graph-level ground truth of an every-face-marked source: keep
    exactly the non-bridge edges."""
    sol = work / f"{tag}_sd.json"
    keep = checks.non_bridge_edges(src)
    ok_cert, short_cert = work / f"{tag}_sd_cert.json", work / f"{tag}_sd_short.json"

    def kept():
        return checks.load(sol)["detail"]["kept_edges"]

    def kept_all(_lines):
        return None if sorted(kept()) == keep else f"kept {kept()}, expected {keep}"

    ops = [
        Op(f"{tag}/solve-subdivision", "solve",
           lambda: pl.cli_solve("subdivision", src_path, sol),
           check=expect_all(optimum_is(sol, 2 * len(keep)), kept_all)),
        Op(f"{tag}/verify-subdivision", "verify",
           lambda: pl.cli_verify("subdivision", src_path, ok_cert),
           prepare=lambda: cert(ok_cert, kept(), "subdivision")),
    ]
    if keep:
        ops.append(Op(f"{tag}/verify-subdivision-short", "verify",
                      lambda: pl.cli_verify("subdivision", src_path, short_cert),
                      expect=frozenset({1}),
                      prepare=lambda: cert(short_cert, minus_one(kept(), pick), "subdivision")))
    return ops


# ---------------------------------------------------------------------------
# toy-chains
# ---------------------------------------------------------------------------

def grid_cycle_source(rng, names):
    """The 2 x 3 unit grid graph less one seeded edge: connected, one
    independent cycle, and axis-parallel unit edges, so no two chains crowd
    at a hub."""
    pos = {names[3 * y + x]: (x, y) for y in range(2) for x in range(3)}
    at = {xy: v for v, xy in pos.items()}
    edges = [(at[(x, y)], at[(x + 1, y)]) for y in range(2) for x in range(2)]
    edges += [(at[(x, 0)], at[(x, 1)]) for x in range(3)]
    del edges[rng.randrange(len(edges))]
    return {"vertices": names, "edges": [list(e) for e in edges],
            "coords": {v: list(xy) for v, xy in pos.items()}}


def setup_toy(work, seed, small, execute):
    rng = random.Random(seed)
    ctx = SimpleNamespace(work=work, pick=rng.random(), fences=[], refusals=[],
                          acc=[], drawings=[], weighted=[])
    u, v = labels(rng, 2, "t")
    digon = {"vertices": [u, v], "edges": [[u, v], [u, v]],
             "rotation": {u: [0, 1], v: [1, 0]}, "terminals": [u, v]}
    dump(work / "digon.json", digon)
    for i, r in enumerate(["1/10"] if small else ["1/10", "1/14", "1/18"]):
        ctx.fences.append((f"fence{i}", work / "digon.json", digon, r))

    # cut sources the toy fence reduction refuses today (exit 2)
    draws = corpus.seeded_multiterminal_instances(
        seed, 1, min_vertices=3, max_vertices=3, max_terminals=2)
    sources = [m.to_dict() for m in draws]
    if not small:
        names, edges = fixed_shape(rng, 4, DIAMOND_EDGES, "d")
        sources.append({**graph_source(names, edges), "terminals": [names[0], names[2]]})
    for j, src in enumerate(sources):
        dump(work / f"cut{j}.json", src)
        ctx.refusals.append((f"cut{j}", work / f"cut{j}.json"))

    for k in range(1 if small else 3):
        src = grid_cycle_source(rng, labels(rng, 6, "g"))
        dump(work / f"fvs{k}.json", src)
        ctx.acc.append((f"acc{k}", work / f"fvs{k}.json", src, checks.min_fvs_size(src)))

    for k, emb in enumerate(corpus.seeded_planar_graphs(
            seed, 1 if small else 6, min_vertices=4, max_vertices=4, max_grid=2)):
        dump(work / f"drawing{k}.json", emb.to_dict())
        ctx.drawings.append((f"drawing{k}", work / f"drawing{k}.json"))

    # triangles with a weight-2 edge, cut between two and between all three
    # vertices
    for k, n_terminals in enumerate([2] if small else [2, 3]):
        names, edges = fixed_shape(rng, 3, TRIANGLE_EDGES, "w")
        src = {**graph_source(names, edges), "terminals": names[:n_terminals],
               "weights": {"0": 2}}
        dump(work / f"mc{k}.json", src)
        ctx.weighted.append((f"weighted{k}", work / f"mc{k}.json", src, checks.min_multiway_cut(src)))
    return ctx


def fence_chain_ops(tag, src_path, src, r, work, pick):
    mid, iso = work / f"{tag}_mid.json", work / f"{tag}_iso.json"
    sol, mid_sol = work / f"{tag}_sol.json", work / f"{tag}_mid_sol.json"
    lifted_sub, lifted = work / f"{tag}_lift_sub.json", work / f"{tag}_lift.json"
    best, _ = checks.min_multiway_cut(src)

    def lifted_cut(_lines):
        cut = checks.load(lifted)["candidate"]
        if not checks.terminals_separated(src, cut):
            return f"lifted cut {cut} leaves terminals connected"
        weight = sum(checks.edge_weight(src, e) for e in cut)
        return None if weight == best else f"lifted cut weighs {weight}, optimum {best}"

    return [
        Op(f"{tag}/reduce-pmc", "reduce",
           lambda: pl.cli_reduce("pmc->subdivision", src_path, mid), outputs=with_record(mid)),
        # face separation keeps both fragments of every cut edge
        Op(f"{tag}/solve-subdivision", "solve", lambda: pl.cli_solve("subdivision", mid, mid_sol),
           check=optimum_is(mid_sol, 2 * best)),
        Op(f"{tag}/reduce-iso", "reduce",
           lambda: pl.cli_reduce("subdivision->isolation", mid, iso, mode="toy",
                                 overrides={"r": Fraction(r)}),
           outputs=with_record(iso)),
        Op(f"{tag}/solve", "solve", lambda: pl.cli_solve("isolation", iso, sol),
           check=expect_all(
               witness_size_is_optimum(sol),
               size_law(sol, 2 * best, lambda: checks.load(iso)["meta"]["c_edge"]))),
        *fence_verifies(tag, iso, sol, work, pick),
        Op(f"{tag}/lift-iso", "lift",
           lambda: pl.cli_lift(record_of(iso), sol, mid, iso, lifted_sub)),
        Op(f"{tag}/lift-pmc", "lift",
           lambda: pl.cli_lift(record_of(mid), lifted_sub, src_path, mid, lifted),
           check=lifted_cut),
        render(tag, iso, work),
    ]


def refusal_ops(tag, src_path, work):
    mid, iso = work / f"{tag}_mid.json", work / f"{tag}_iso.json"
    return [
        Op(f"{tag}/reduce-pmc", "reduce",
           lambda: pl.cli_reduce("pmc->subdivision", src_path, mid), outputs=with_record(mid)),
        # a budget refusal is exit 1; exit 2 ("malformed") is the known defect
        Op(f"{tag}/reduce-iso", "reduce",
           lambda: pl.cli_reduce("subdivision->isolation", mid, iso, mode="toy"),
           expect=frozenset({0, 1}), outputs=with_record(iso), refusal_draw=True),
    ]


def acc_chain_ops(tag, src_path, src, best, work, pick):
    inst, sol, fsol = work / f"{tag}.json", work / f"{tag}_sol.json", work / f"{tag}_fvs.json"
    ok_cert, short_cert = work / f"{tag}_cert.json", work / f"{tag}_short.json"
    lifted = work / f"{tag}_lift.json"

    def lifted_fvs(_lines):
        got = checks.load(lifted)["candidate"]
        if not checks.is_fvs(src, got):
            return f"lifted set {got} leaves a cycle"
        return None if len(got) == best else f"lifted {len(got)} vertices, optimum {best}"

    return [
        Op(f"{tag}/reduce", "reduce", lambda: pl.cli_reduce("fvs->acc", src_path, inst),
           outputs=with_record(inst)),
        Op(f"{tag}/solve-acc", "solve", lambda: pl.cli_solve("acc", inst, sol),
           check=optimum_is(sol, best)),
        Op(f"{tag}/solve-fvs", "solve", lambda: pl.cli_solve("fvs", src_path, fsol),
           check=optimum_is(fsol, best)),
        Op(f"{tag}/verify-witness", "verify", lambda: pl.cli_verify("acc", inst, ok_cert),
           prepare=lambda: cert(ok_cert, witness(sol), "acc")),
        Op(f"{tag}/verify-short", "verify", lambda: pl.cli_verify("acc", inst, short_cert),
           expect=frozenset({1}),
           prepare=lambda: cert(short_cert, minus_one(witness(sol), pick), "acc")),
        Op(f"{tag}/lift", "lift", lambda: pl.cli_lift(record_of(inst), sol, src_path, inst, lifted),
           check=lifted_fvs),
        render(tag, inst, work),
    ]


def weighted_chain_ops(tag, src_path, src, best, work, pick):
    weight, cut = best
    inst, bound = work / f"{tag}.json", work / f"{tag}_bound.json"
    msol, pair_sol = work / f"{tag}_mc.json", work / f"{tag}_pair.json"
    ok_cert, short_cert = work / f"{tag}_cert.json", work / f"{tag}_short.json"
    lifted = work / f"{tag}_lift.json"

    def cut_pairs():
        table = checks.load(record_of(inst))["edges"]
        return [p for e in cut for p in table[str(e)]["cut_pairs"]]

    def bound_ok(_lines):
        got = checks.load(bound)["optimum"]
        return None if 0 < got <= weight else f"lower bound {got} vs optimum {weight}"

    def lifted_cut(_lines):
        got = checks.load(lifted)["candidate"]
        if not checks.terminals_separated(src, got):
            return f"lifted cut {got} leaves terminals connected"
        w = sum(checks.edge_weight(src, e) for e in got)
        return None if w == weight else f"lifted cut weighs {w}, optimum {weight}"

    ops = [
        Op(f"{tag}/reduce", "reduce", lambda: pl.cli_reduce("mc->udmc", src_path, inst),
           outputs=with_record(inst)),
        Op(f"{tag}/solve-bound", "solve", lambda: pl.cli_solve("udmc-bound", inst, bound),
           check=bound_ok),
        Op(f"{tag}/solve-mc", "solve", lambda: pl.cli_solve("mc", src_path, msol),
           check=optimum_is(msol, weight)),
    ]
    if len(src["terminals"]) == 2:
        ops.append(Op(f"{tag}/solve-pair", "solve",
                      lambda: pl.cli_solve("terminal-pair-cut", inst, pair_sol),
                      check=optimum_is(pair_sol, weight)))
    ops += [
        Op(f"{tag}/verify-cut", "verify", lambda: pl.cli_verify("udmc", inst, ok_cert),
           prepare=lambda: cert(ok_cert, cut_pairs(), "udmc")),
        Op(f"{tag}/verify-short", "verify", lambda: pl.cli_verify("udmc", inst, short_cert),
           expect=frozenset({1}),
           prepare=lambda: cert(short_cert, minus_one(cut_pairs(), pick), "udmc")),
        Op(f"{tag}/lift", "lift",
           lambda: pl.cli_lift(record_of(inst), ok_cert, src_path, inst, lifted),
           check=lifted_cut),
        render(tag, inst, work),
    ]
    return ops


def ops_toy(ctx):
    w, ops = ctx.work, []
    for tag, path, src, r in ctx.fences:
        ops += fence_chain_ops(tag, path, src, r, w, ctx.pick)
    for tag, path in ctx.refusals:
        ops += refusal_ops(tag, path, w)
    for tag, path, src, best in ctx.acc:
        ops += acc_chain_ops(tag, path, src, best, w, ctx.pick)
    for tag, path in ctx.drawings:
        ops.append(render(tag, path, w))
    for tag, path, src, best in ctx.weighted:
        ops += weighted_chain_ops(tag, path, src, best, w, ctx.pick)
    return ops


# ---------------------------------------------------------------------------
# sound-reduce
# ---------------------------------------------------------------------------

def setup_sound_reduce(work, seed, small, execute):
    rng = random.Random(seed)
    ctx = SimpleNamespace(work=work, pick=rng.random(), sources=[], empty=work / "empty.json")
    cert(ctx.empty, [], "acc")
    shapes = [("triangle", *fixed_shape(rng, 3, TRIANGLE_EDGES, "a"))]
    if not small:
        shapes.append(("k4", *fixed_shape(rng, 4, K4_EDGES, "k")))
    emb = corpus.seeded_planar_graphs(seed, 1, min_vertices=4, max_vertices=4, max_grid=2)[0]
    shapes.append(("drawn", emb.graph.vertices, emb.graph.edges))
    if not small:
        g = corpus.seeded_planar_graphs(ANCHOR_SEED, 1, min_vertices=3, max_vertices=8,
                                        max_grid=3)[0].graph
        shapes.append(("anchor", *renamed(g.vertices, g.edges, labels(rng, len(g.vertices), "v"))))
    for tag, vertices, edges in shapes:
        src = every_face_marked(graph_source(vertices, edges), rng)
        dump(work / f"{tag}_src.json", src)
        ctx.sources.append((tag, work / f"{tag}_src.json", src))
    return ctx


def sound_record_ok(iso, src):
    """The record maps every edge to one wall of c_edge disks and every
    vertex to a ring, the walls and rings partition the disks, and the
    drawing fits the sound workloads' grid bound of 3."""
    def test(_lines):
        rec = checks.load(record_of(iso))
        n = len(checks.load(iso)["disks"])
        c_edge = rec["params"]["c_edge"]
        if rec["notes"]["grid_size"] > 3 or not rec["notes"]["constraints_ok"]:
            return f"grid {rec['notes']['grid_size']}, constraints ok {rec['notes']['constraints_ok']}"
        walls, rings = rec["edges"], rec["vertices"]
        if sorted(walls) != sorted(str(e) for e in range(len(src["edges"]))):
            return "record walls do not cover the edges"
        if sorted(rings) != sorted(str(v) for v in src["vertices"]):
            return "record rings do not cover the vertices"
        if any(len(ids) != c_edge for ids in walls.values()):
            return f"a wall does not have c_edge = {c_edge} disks"
        ids = sorted(i for group in (*walls.values(), *rings.values()) for i in group)
        return None if ids == list(range(n)) else "walls and rings do not partition the disks"
    return test


def ops_sound_reduce(ctx):
    w, ops = ctx.work, []
    for tag, path, src in ctx.sources:
        iso = w / f"{tag}_iso.json"
        ops.append(Op(f"{tag}/reduce", "reduce",
                      lambda path=path, iso=iso: pl.cli_reduce(
                          "subdivision->isolation", path, iso, mode="sound"),
                      check=sound_record_ok(iso, src), outputs=with_record(iso)))
        ops.append(render(tag, iso, w))
        ops += face_separation(tag, path, src, w, ctx.pick)
        if tag in ("triangle", "k4"):
            ops.append(acc_holes(tag, iso, ctx.empty, len(src["edges"])))
        if tag == "triangle":
            ops += kept_fence_lift(tag, path, src, iso, w)
    return ops


def kept_fence_lift(tag, src_path, src, iso, work):
    """Keep every disk: the fence separates all points and lifts back to
    every non-bridge edge."""
    everything, lifted = work / f"{tag}_all.json", work / f"{tag}_all_lift.json"
    keep = checks.non_bridge_edges(src)

    def lifted_all(_lines):
        got = sorted(checks.load(lifted)["candidate"])
        return None if got == keep else f"lifted {got}, expected {keep}"

    def write_all():
        cert(everything, range(len(checks.load(iso)["disks"])), "isolation")

    return [
        Op(f"{tag}/verify-all", "verify",
           lambda: pl.cli_verify("isolation", iso, everything), prepare=write_all),
        Op(f"{tag}/lift-all", "lift",
           lambda: pl.cli_lift(record_of(iso), everything, src_path, iso, lifted),
           check=lifted_all),
    ]


# ---------------------------------------------------------------------------
# sound-certify
# ---------------------------------------------------------------------------

def setup_sound_certify(work, seed, small, execute):
    rng = random.Random(seed)
    ctx = SimpleNamespace(work=work, pick=rng.random())
    names, edges = fixed_shape(rng, 3, TRIANGLE_EDGES, "a")
    ctx.tri = every_face_marked(graph_source(names, edges), rng)
    ctx.tri_src = work / "triangle_src.json"
    dump(ctx.tri_src, ctx.tri)

    names, edges = fixed_shape(rng, 3, TRIANGLE_EDGES, "b") if small else \
        fixed_shape(rng, 4, K4_EDGES, "k")
    ctx.big = every_face_marked(graph_source(names, edges), rng)
    ctx.big_src, ctx.big_iso = work / "big_src.json", work / "big_iso.json"
    dump(ctx.big_src, ctx.big)
    execute(Op("big/reduce", "reduce",
               lambda: pl.cli_reduce("subdivision->isolation", ctx.big_src, ctx.big_iso,
                                     mode="sound"),
               check=sound_record_ok(ctx.big_iso, ctx.big), outputs=with_record(ctx.big_iso)))

    n = len(checks.load(ctx.big_iso)["disks"])
    walls = checks.load(record_of(ctx.big_iso))["edges"]
    ctx.all_cert, ctx.drop_cert = work / "big_all.json", work / "big_drop.json"
    ctx.empty = work / "empty.json"
    cert(ctx.all_cert, range(n), "isolation")
    cert(ctx.empty, [], "acc")
    e = rng.choice(checks.non_bridge_edges(ctx.big))
    dropped = set(walls[str(e)])
    cert(ctx.drop_cert, [i for i in range(n) if i not in dropped], "isolation")
    point_of_face = {f: p for p, f in ctx.big["terminals"].items()}
    ctx.drop_pair = frozenset(point_of_face[f] for f in checks.faces_beside(ctx.big, e))
    return ctx


def ops_sound_certify(ctx):
    w = ctx.work
    tri_iso, tri_sol = w / "triangle_iso.json", w / "triangle_sol.json"
    lifted = w / "triangle_lift.json"
    keep = checks.non_bridge_edges(ctx.tri)

    def drop_fails_its_pair(lines):
        got = checks.failed_pairs(lines)
        return None if got == {ctx.drop_pair} else f"failing pairs {sorted(map(sorted, got))}"

    def lifted_walls(_lines):
        got = sorted(checks.load(lifted)["candidate"])
        return None if got == keep else f"lifted {got}, expected {keep}"

    return [
        Op("big/reduce", "reduce",
           lambda: pl.cli_reduce("subdivision->isolation", ctx.big_src, ctx.big_iso, mode="sound"),
           check=sound_record_ok(ctx.big_iso, ctx.big), outputs=with_record(ctx.big_iso)),
        Op("big/verify-all", "verify",
           lambda: pl.cli_verify("isolation", ctx.big_iso, ctx.all_cert)),
        Op("big/verify-drop", "verify",
           lambda: pl.cli_verify("isolation", ctx.big_iso, ctx.drop_cert),
           expect=frozenset({1}), check=drop_fails_its_pair),
        acc_holes("big", ctx.big_iso, ctx.empty, len(ctx.big["edges"])),
        Op("triangle/reduce", "reduce",
           lambda: pl.cli_reduce("subdivision->isolation", ctx.tri_src, tri_iso, mode="sound"),
           check=sound_record_ok(tri_iso, ctx.tri), outputs=with_record(tri_iso)),
        Op("triangle/solve", "solve", lambda: pl.cli_solve("isolation", tri_iso, tri_sol),
           check=expect_all(
               witness_size_is_optimum(tri_sol),
               size_law(tri_sol, len(keep), lambda: checks.load(tri_iso)["meta"]["c_edge"]))),
        *fence_verifies("triangle", tri_iso, tri_sol, w, ctx.pick),
        Op("triangle/lift", "lift",
           lambda: pl.cli_lift(record_of(tri_iso), tri_sol, ctx.tri_src, tri_iso, lifted),
           check=lifted_walls),
        *kept_fence_lift("triangle", ctx.tri_src, ctx.tri, tri_iso, w),
        face_separation("triangle", ctx.tri_src, ctx.tri, w, ctx.pick)[0],
        # three renders of each instance: one takes only 0.1 s, too short to
        # time steadily on its own
        *(render(f"{tag}{k}", inst, w)
          for k in range(3) for tag, inst in (("big", ctx.big_iso), ("triangle", tri_iso))),
    ]


@dataclass(frozen=True)
class Workload:
    setup: Callable
    ops: Callable
    # set-ups per untraced run: about two wall seconds of them
    setups: int
    # wall seconds of one untraced pass and its CLI launch on the reference
    # host; a run makes one pass per whole ``pass_s`` in ``--seconds``
    pass_s: float


WORKLOADS = {
    "toy-chains": Workload(setup_toy, ops_toy, setups=20, pass_s=7.0),
    "sound-reduce": Workload(setup_sound_reduce, ops_sound_reduce, setups=3, pass_s=16.0),
    "sound-certify": Workload(setup_sound_certify, ops_sound_certify, setups=5, pass_s=35.0),
}
