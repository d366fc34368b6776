"""Acceptance gates: one test per numbered criterion.

Each test function is the pass/fail line for its criterion (``pytest -v``
prints one PASSED/FAILED row per criterion, in order).  Corpus seeds are
fixed constants so every run exercises byte-identical instances.  Criteria
with a wall-clock cap assert it with ``time.monotonic`` around the
measured work.
"""

import hashlib
import importlib.util
import json
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

from floodfill import (
    flood_fill_separated,
    flood_fill_summary,
    random_robust_centers,
    random_robust_points,
    random_robust_rings,
)
from instances import build_weighted_edge_instance, disk_instance
from oracles import (
    assert_all_pairs_match_oracle,
    assert_contraction_exact,
    assert_graph_matches_bucket_oracle,
    assert_structure_check_matches_oracle,
    bfs_min_isolation_two_points,
    dist_sq,
    lift_fence_by_tags,
)
from test_gadgets import assert_round_trip_equal, build_sound

from disklab import arrangements as ar
from disklab import pipeline as pl
from disklab.corpus import seeded_multiterminal_instances
from disklab.gadgets import (
    BUNDLE_COPIES,
    StructureSpec,
    build_acc_instance,
    build_udmc_instance,
    lift_fence_to_edges,
    lift_vertex_set_to_acc,
)
from disklab.geometry import (
    Disk,
    check_constraints,
    compute_params,
    min_grid_angle_exceeds,
    min_grid_line_point_distance_sq,
)
from disklab.graphs import (
    Graph,
    MultiterminalInstance,
    PlanarEmbeddedGraph,
    SubdivisionInstance,
    reduce_pmc_to_subdivision,
)
from disklab.gridembed import GridEmbedding
from disklab.solvers import (
    brute_min_acc,
    brute_min_fvs,
    brute_min_isolation_two_points,
    brute_min_multiterminal,
    brute_min_subdivision,
    min_terminal_pair_cut,
)

ONE = Fraction(1)

SOUND_CORPUS_SEED = 20260814   # criterion 4; conftest.sound_drawings draws its graphs
CUT_CORPUS_SEED = 31415        # criterion 5
ORACLE_SEED = 271828           # criteria 9 and 10
RING_ORACLE_SEED = 141421      # criterion 12


# ---------------------------------------------------------------------------
# shared corpora (module-scoped so the full run builds each exactly once)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sound_corpus(sound_drawings):
    """The sound corpus' drawings (``conftest.sound_drawings``) synthesized
    as sound-mode fence instances, every face marked."""
    built = []
    for emb in sound_drawings:
        g = emb.graph
        sub = SubdivisionInstance(
            graph=g, terminals={f"p{f}": f for f in range(g.face_count())}
        )
        sub.validate()
        art = build_sound(sub, emb)
        built.append((emb, art))
    return built


@pytest.fixture(scope="module")
def toy_fence_corpus(tmp_path_factory):
    """Five toy-mode fence reductions over the same two-terminal source with
    shrinking disk radius, run end to end through the file-based verbs."""
    base = tmp_path_factory.mktemp("fences")
    g = PlanarEmbeddedGraph.from_edge_rotation(
        ["u", "v"], [("u", "v"), ("u", "v")], {"u": [0, 1], "v": [1, 0]}
    )
    src = MultiterminalInstance(graph=g, terminals=["u", "v"]).to_dict()
    dirs = []
    for idx, rs in enumerate(["1/10", "1/12", "1/14", "1/16", "1/18"]):
        d = base / f"radius{idx}"
        d.mkdir()
        (d / "src.json").write_text(json.dumps(src))
        code, lines = pl.cli_reduce(
            "pmc->subdivision", str(d / "src.json"), str(d / "mid.json")
        )
        assert code == 0, lines
        code, lines = pl.cli_reduce(
            "subdivision->isolation", str(d / "mid.json"), str(d / "iso.json"),
            mode="toy", overrides={"r": Fraction(rs)},
        )
        assert code == 0, lines
        code, lines = pl.cli_solve("isolation", str(d / "iso.json"), str(d / "sol.json"))
        assert code == 0, lines
        dirs.append(d)
    return dirs


def one_pair_verdict(chosen, separated):
    """The isolation verdict on the disks ``chosen`` (distinct ids) of an
    instance whose only marked points are a and b, when the sweep finds
    them ``separated``."""
    return (separated, [f"chosen disks: {len(chosen)}",
                        f"{'ok  ' if separated else 'FAIL'} a | b separated: {separated}"])


@pytest.fixture(scope="module")
def oracle_corpus():
    """A thousand robust random disk layouts (at most 10 disks each) with a
    random kept-subset and two robust query points, plus the exact
    separation verdicts."""
    rng = random.Random(ORACLE_SEED)
    out = []
    for _ in range(1000):
        centers = random_robust_centers(rng, n_lo=1, n_hi=10, span=20)
        chosen = [i for i in range(len(centers)) if rng.random() < 0.75]
        p, q = random_robust_points(rng, centers, ONE, span=20)
        inst = disk_instance(ONE, [Disk(c[0], c[1]) for c in centers],
                             points={"a": p, "b": q})
        report = ar.verify_isolation(inst, chosen)
        out.append((centers, chosen, inst, report))
    return out


@pytest.fixture(scope="module")
def ring_oracle_corpus():
    """Sixty robust ring layouts (single, side by side or nested) with a
    random kept-subset, one query point in a hole the rings enclose and one
    anywhere free, plus the exact verdicts.  Unlike ``oracle_corpus`` these
    layouts have bounded holes and separated pairs."""
    rng = random.Random(RING_ORACLE_SEED)
    out = []
    for _ in range(60):
        centers, holes = random_robust_rings(rng)
        chosen = [i for i in range(len(centers)) if rng.random() < 0.97]
        p = rng.choice(holes)
        others = [h for h in holes if h != p]
        others += random_robust_points(rng, centers, ONE, count=1, span=60)
        inst = disk_instance(ONE, [Disk(c[0], c[1]) for c in centers],
                             points={"a": p, "b": rng.choice(others)})
        out.append((centers, chosen, inst, ar.verify_isolation(inst, chosen)))
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_min_grid_line_point_distance_exact():
    t0 = time.monotonic()
    for n in range(2, 9):
        value, (p, q, t) = min_grid_line_point_distance_sq(n)
        assert value == Fraction(1, 2 * n * n - 2 * n + 1)
        # the witness must be a real configuration attaining the value
        ax, ay = q[0] - p[0], q[1] - p[1]
        cross = ax * (t[1] - p[1]) - ay * (t[0] - p[0])
        assert cross != 0
        assert Fraction(cross * cross, ax * ax + ay * ay) == value
        for pt in (p, q, t):
            assert 0 <= pt[0] <= n and 0 <= pt[1] <= n
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_min_grid_angle_above_threshold():
    t0 = time.monotonic()
    for n in range(2, 9):
        res = min_grid_angle_exceeds(n)
        t = Fraction(1, 6 * n * n)
        assert res.threshold_tan == 2 * t / (1 - t * t)
        assert res.ok and res.min_tan is not None
        assert res.min_tan > res.threshold_tan
        apex, u, v = res.witness
        cross = abs(u[0] * v[1] - u[1] * v[0])
        dot = abs(u[0] * v[0] + u[1] * v[1])
        assert dot != 0 and Fraction(cross, dot) == res.min_tan
        assert 0 <= apex[0] <= n and 0 <= apex[1] <= n
    assert min_grid_angle_exceeds(2).min_tan == Fraction(1, 3)
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_sound_parameters_feasible_to_n64():
    t0 = time.monotonic()
    for n in range(2, 65):
        p = compute_params(n, mode="sound")
        assert p.s == 6 * p.r * n * n
        rep = check_constraints(p)
        assert rep.ok, (n, rep)
    assert time.monotonic() - t0 < 5.0


def test_sound_corpus_tags_are_one_run_per_wall_and_ring(sound_corpus):
    for emb, art in sound_corpus:
        runs = [(tag, first, list(range(start, stop)))
                for start, stop, tag, first in art.instance.tags.spans()]
        assert runs == [(("ring", str(v)), 0, ids) for v, ids in art.vertex_ids.items()] + [
            (("wall", e), 0, ids) for e, ids in art.wall_ids.items()]


def test_structure_check_matches_the_id_list_oracle_on_sound_corpus(sound_corpus):
    # the spec the sound builder checks: every vertex a ring, and each wall
    # touching the rings of its two ends 1-3 times
    for emb, art in sound_corpus:
        g = emb.graph
        spec = StructureSpec(
            rings={("ring", str(v)) for v in g.vertices},
            allowed_contacts={(("wall", e), ("ring", str(v))): (1, 3)
                              for e, ends in enumerate(g.edges) for v in ends})
        assert assert_structure_check_matches_oracle(art.instance, spec).ok


def test_criterion_04_sound_corpus_gadget_contacts(sound_corpus):
    assert len(sound_corpus) == 20
    grids = set()
    for emb, art in sound_corpus:
        g = emb.graph
        grids.add(emb.grid_size)
        assert 3 <= len(g.vertices) <= 8
        inst = art.instance
        tags = inst.tags
        ends = {eid: (str(u), str(w)) for eid, (u, w) in enumerate(g.edges)}
        udg = ar.unit_disk_graph(inst.centers, inst.radius)
        ring_contacts = {}
        for i, j in udg.edges:
            ti, tj = tags[i], tags[j]
            if ti[:2] == tj[:2]:
                continue  # same wall or same ring
            kinds = {ti[0], tj[0]}
            # the only permitted cross-gadget contact: a wall touching the
            # rings of its own endpoints
            assert kinds == {"wall", "ring"}, f"gadget overlap: {ti} ~ {tj}"
            wall_tag, ring_tag = (ti, tj) if ti[0] == "wall" else (tj, ti)
            assert ring_tag[1] in ends[wall_tag[1]], f"gadget overlap: {ti} ~ {tj}"
            wall_disk = i if ti[0] == "wall" else j
            ring_contacts[wall_disk] = ring_contacts.get(wall_disk, 0) + 1
        for eid, ids in art.wall_ids.items():
            for end_disk in (ids[0], ids[-1]):
                assert 1 <= ring_contacts.get(end_disk, 0) <= 3, (eid, end_disk)
    assert grids == {2, 3}  # the seed covers both parameter scales


def test_sound_corpus_graphs_match_bucket_oracle(sound_corpus):
    # the sorted cell-key sweep gives the old bucket grid's edges, in order,
    # and its adjacency on every paper-scale instance
    for _, art in sound_corpus:
        assert_graph_matches_bucket_oracle(art.instance.centers, art.instance.radius)


def test_toy_fence_graphs_match_bucket_oracle(toy_fence_corpus):
    # the edge list built on first read is the bucket grid's eager one
    for d in toy_fence_corpus:
        inst = ar.DiskInstance.from_dict(json.loads((d / "iso.json").read_text()))
        assert_graph_matches_bucket_oracle(inst.centers, inst.radius)


def test_sound_corpus_drawings_are_pinned(sound_corpus):
    # the minimal-grid search's budget decides which draws fit grid 3, so a
    # change to how it counts candidates would change the corpus
    blob = json.dumps([emb.to_dict() for emb, _ in sound_corpus], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "bca5966f53734bbe382456036c009c56be329f11523a1fd24a38c4f240d657fe")


def test_sound_corpus_instances_are_pinned(sound_corpus):
    # one digest per grid size over its synthesized instances, in corpus
    # order, made by to_dict and by the encoder reduce records with; the
    # sound radius 1/(80 n^3) equals the paper's 1/(40 n^4) at n = 2, so
    # the grid-2 digest is the one the paper's schedule gave
    want = {2: "ebe4fb03ab50af94a3dc47d382fbe0846d2b84d05fe8ef89f82cb87093541823",
            3: "bf0523d86e1a21cd9cb8477d1d94f9d0c9b31b10b88b8b9055f6c5ce843e44c9"}
    for grid, digest in want.items():
        arts = [art for emb, art in sound_corpus if emb.grid_size == grid]
        digests = [pl.canonical_digest(art.instance.to_dict()) for art in arts]
        shipped = [pl.instance_json(art.instance)[1] for art in arts]
        for got in (digests, shipped):
            assert pl.canonical_digest(got) == digest, grid
    assert sorted({emb.grid_size for emb, _ in sound_corpus}) == [2, 3]


def test_sound_corpus_cached_centers_match_round_trip(sound_corpus):
    emb, art = next((e, a) for e, a in sound_corpus if e.grid_size == 3)
    assert_round_trip_equal(art.instance)


def test_every_disk_file_disklab_writes_is_read_without_a_tree(
        sound_corpus, toy_fence_corpus, tmp_path):
    # the demo's, the toy fence corpus' and the sound corpus' instance
    # files: the text reader decides each, as json.loads + from_dict would
    spec = importlib.util.spec_from_file_location(
        "run_pipeline_demo", Path(__file__).parent.parent / "scripts" / "run_pipeline_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    for chain in (demo.fence_chain, demo.acyclic_chain, demo.weighted_chain):
        chain(tmp_path)
    texts = [p.read_text() for p in sorted(tmp_path.glob("*.json"))]
    texts = [t for t in texts if "disks" in json.loads(t)]
    assert len(texts) == 3    # isolation, acc and udmc
    texts += [(d / "iso.json").read_text() for d in toy_fence_corpus]
    for text in texts:
        inst = ar.DiskInstance.from_text(text)
        assert inst is not None
        tree = ar.DiskInstance.from_dict(json.loads(text))
        assert inst == tree and inst.centers == tree.centers and inst.tags.runs == tree.tags.runs
    for _, art in sound_corpus:
        assert ar.DiskInstance.from_text(pl.instance_json(art.instance)[0]) == art.instance


def test_criterion_05_subdivision_optimum_doubles_cut_optimum():
    corpus = seeded_multiterminal_instances(CUT_CORPUS_SEED, 12)
    assert len(corpus) >= 10
    for mti in corpus:
        mc = brute_min_multiterminal(mti)
        red = reduce_pmc_to_subdivision(mti)
        sd = brute_min_subdivision(red.instance)
        assert sd.optimum == 2 * mc.optimum, mti.to_dict()


def test_criterion_06_toy_fence_size_law_and_exact_lift(toy_fence_corpus):
    assert len(toy_fence_corpus) >= 5
    per_wall_counts = []
    for d in toy_fence_corpus:
        inst = ar.DiskInstance.from_dict(json.loads((d / "iso.json").read_text()))
        c_edge = int(inst.meta["c_edge"])
        assert c_edge <= 10
        per_wall_counts.append(c_edge)
        mid = SubdivisionInstance.from_dict(json.loads((d / "mid.json").read_text()))
        b = brute_min_subdivision(mid).optimum
        sol = json.loads((d / "sol.json").read_text())
        k1 = int(sol["optimum"])
        assert b * c_edge <= k1 < (b + 1) * c_edge, (b, c_edge, k1)
        code, lines = pl.cli_lift(
            record_path=str(d / "iso.json.record.json"),
            solution_path=str(d / "sol.json"),
            source_path=str(d / "mid.json"),
            target_path=str(d / "iso.json"),
            out_path=str(d / "lift.json"),
        )
        assert code == 0, lines
        lifted = json.loads((d / "lift.json").read_text())
        assert len(lifted["candidate"]) == b
    assert len(set(per_wall_counts)) >= 3  # the radius sweep varies the count


def test_criterion_07_acyclic_complement_matches_vertex_deletion():
    triangle = (["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")],
                {"a": (0, 0), "b": (1, 0), "c": (0, 1)}, 1)
    two_triangles = (
        ["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d")],
        {"a": (0, 0), "b": (1, 0), "c": (0, 1),
         "d": (4, 0), "e": (5, 0), "f": (4, 1)}, 2)
    four_cycle = (["a", "b", "c", "d"],
                  [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
                  {"a": (0, 0), "b": (1, 0), "c": (1, 1), "d": (0, 1)}, 1)
    for vertices, edges, coords, expect in (triangle, two_triangles, four_cycle):
        g = Graph(vertices, edges)
        art = build_acc_instance(g, coords)
        acc = brute_min_acc(art.instance)
        fvs = brute_min_fvs(g)
        assert acc.optimum == expect
        assert fvs.optimum == expect
        removed = set(lift_vertex_set_to_acc(art, fvs.witness))
        assert ar.verify_acc(art.instance, removed).ok
        kept = [i for i in range(len(art.instance.disks)) if i not in removed]
        regions = ar.complement_regions(art.instance.centers.subset(kept), art.instance.radius)
        assert regions.bounded_complement_regions == 0


def test_criterion_08_weighted_lane_cuts_and_bundle_flow():
    t0 = time.monotonic()
    for w in range(1, 6):
        art = build_weighted_edge_instance(w)
        cert = min_terminal_pair_cut(art.instance)
        assert cert.optimum == w
        # removing the witness edge pairs really disconnects the terminals
        udg = ar.unit_disk_graph(art.instance.centers, art.instance.radius)
        nxg = nx.Graph(udg.edges)
        nxg.add_nodes_from(range(udg.n))
        nxg.remove_edges_from([tuple(e) for e in cert.witness])
        s, t = art.instance.meta["terminal_disks"]
        assert not nx.has_path(nxg, s, t)
    g = PlanarEmbeddedGraph.from_edge_rotation(["v"], [], {"v": []})
    mti = MultiterminalInstance(graph=g, terminals=["v"], weights={})
    emb = GridEmbedding(graph=g, coords={"v": (0, 0)}, grid_size=1)
    art = build_udmc_instance(mti, emb)
    udg = ar.unit_disk_graph(art.instance.centers, art.instance.radius)
    nxg = nx.Graph(udg.edges)
    hub = art.hub_of_vertex["v"]
    assert BUNDLE_COPIES >= 16
    for probe in (art.sigma_ids["v"][0], art.sigma_ids["v"][5]):
        assert nx.edge_connectivity(nxg, hub, probe) >= 16
    assert time.monotonic() - t0 < 60.0


def test_criterion_09_raster_oracle_agreement(oracle_corpus):
    assert len(oracle_corpus) == 1000
    disagreements = 0
    for centers, chosen, inst, report in oracle_corpus:
        exact = ar.complement_regions(inst.centers, ONE)
        occ, holes = flood_fill_summary(centers, ONE)
        if (occ, holes) != (exact.union_components,
                            exact.bounded_complement_regions):
            disagreements += 1
        raster_sep = flood_fill_separated(
            [centers[i] for i in chosen], ONE, inst.points["a"], inst.points["b"]
        )
        if report != one_pair_verdict(chosen, raster_sep):
            disagreements += 1
    assert disagreements == 0


def test_criterion_10_accepted_certificates_carry_udg_cycles(
    toy_fence_corpus, oracle_corpus
):
    accepted = []
    for d in toy_fence_corpus:
        inst = ar.DiskInstance.from_dict(json.loads((d / "iso.json").read_text()))
        sol = json.loads((d / "sol.json").read_text())
        assert ar.verify_isolation(inst, sol["witness"]).ok
        accepted.append((inst, sol["witness"]))
    accepted.extend(
        (inst, chosen) for _, chosen, inst, report in oracle_corpus if report.ok
    )
    assert len(accepted) >= 5
    cycles_checked = 0
    for inst, chosen in accepted:
        centers = [d.center for d in inst.disks]
        four_r2 = 4 * inst.radius ** 2
        # the sweep's witnesses, on the chosen disks numbered in id order
        chosen = sorted(set(chosen))
        sub = inst.centers.subset(chosen)
        results = ar.separation(sub, ar.unit_disk_graph(sub, inst.radius), inst.points)
        for pair, res in results.items():
            assert res.separated
            assert res.witness_cycle is not None, f"no cycle witness for {pair}"
            cyc = [chosen[k] for k in res.witness_cycle]
            assert len(cyc) >= 3
            assert len(set(cyc)) == len(cyc)
            assert set(cyc) <= set(chosen)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert dist_sq(centers[a], centers[b]) <= four_r2
            cycles_checked += 1
    assert cycles_checked >= len(accepted)


def test_criterion_11_sound_fence_size_law_and_lift(tmp_path):
    g = PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")],
        {"a": [0, 2], "b": [1, 0], "c": [2, 1]},
    )
    sub = SubdivisionInstance(
        graph=g, terminals={f"p{f}": f for f in range(g.face_count())}
    )
    (tmp_path / "src.json").write_text(json.dumps(sub.to_dict()))
    code, lines = pl.cli_reduce(
        "subdivision->isolation", str(tmp_path / "src.json"),
        str(tmp_path / "iso.json"), mode="sound",
    )
    assert code == 0, lines
    code, lines = pl.cli_solve(
        "isolation", str(tmp_path / "iso.json"), str(tmp_path / "sol.json")
    )
    assert code == 0, lines
    inst = ar.DiskInstance.from_dict(json.loads((tmp_path / "iso.json").read_text()))
    sol = json.loads((tmp_path / "sol.json").read_text())
    c_edge = int(inst.meta["c_edge"])
    b = len(brute_min_subdivision(sub).detail["kept_edges"])
    assert b == 3
    k1 = int(sol["optimum"])
    assert b * c_edge <= k1 < (b + 1) * c_edge, (b, c_edge, k1)
    assert not list(nx.bridges(nx.Graph(g.edges)))  # every edge is kept
    record = pl.read_json(tmp_path / "iso.json.record.json")
    walls = {int(e): ids for e, ids in record["edges"].items()}
    assert lift_fence_to_edges(walls, sol["witness"]) == [0, 1, 2]


def assert_record_lift_matches_tag_oracle(record, inst, rng):
    """The isolation back-map of ``record`` lifts what the tag-driven oracle
    lifts from ``inst``: for all disks, all disks less one disk of each wall,
    and seeded subsets that keep some walls whole, some less one disk and
    some not at all, plus random other disks."""
    back_map = pl.REDUCTIONS["subdivision->isolation"].back_map
    walls = [ids for _, ids in sorted(record.edges.items(), key=lambda kv: int(kv[0]))]
    everything = range(len(inst.tags))
    subsets = [list(everything)]
    for ids in walls:
        gap = rng.choice(ids)
        subsets.append([i for i in everything if i != gap])
    for _ in range(4):
        chosen = set(rng.sample(everything, len(inst.tags) // 10))
        for ids in walls:
            kind = rng.randrange(3)
            if kind == 0:
                chosen.update(ids)
            elif kind == 1:
                chosen.update(ids)
                chosen.discard(rng.choice(ids))
        subsets.append(sorted(chosen))
    lifted_sizes = set()
    for chosen in subsets:
        lifted, detail = back_map(record, None, chosen)
        assert lifted == lift_fence_by_tags(inst, chosen)
        assert detail == {"k1": len(chosen), "c_edge": inst.meta["c_edge"],
                          "floor_bound": len(chosen) // inst.meta["c_edge"]}
        lifted_sizes.add(len(lifted))
    assert {len(walls), len(walls) - 1} <= lifted_sizes


def test_record_lift_matches_tag_oracle_on_toy_and_sound_fences(
        toy_fence_corpus, sound_corpus):
    rng = random.Random(SOUND_CORPUS_SEED)
    for d in toy_fence_corpus:
        record = pl.ReductionRecord.from_dict(pl.read_json(d / "iso.json.record.json"))
        inst = ar.DiskInstance.from_dict(pl.read_json(d / "iso.json"))
        assert_record_lift_matches_tag_oracle(record, inst, rng)
        witness = pl.read_json(d / "sol.json")["witness"]
        assert pl.REDUCTIONS[record.kind].back_map(record, None, witness)[0] == \
            lift_fence_by_tags(inst, witness) != []
    for _, art in sound_corpus:
        # the record cli_reduce writes for this instance, through its JSON form
        record = pl.ReductionRecord(
            "subdivision->isolation", "", "", art.instance.params,
            {str(e): ids for e, ids in art.wall_ids.items()}, {}, {})
        record = pl.ReductionRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert_record_lift_matches_tag_oracle(record, art.instance, rng)


def test_criterion_12_raster_oracle_on_ring_holes(ring_oracle_corpus):
    assert len(ring_oracle_corpus) == 60
    disagreements = holes = separated = 0
    for centers, chosen, inst, report in ring_oracle_corpus:
        exact = ar.complement_regions(inst.centers, ONE)
        if flood_fill_summary(centers, ONE) != (
            exact.union_components, exact.bounded_complement_regions
        ):
            disagreements += 1
        raster_sep = flood_fill_separated(
            [centers[i] for i in chosen], ONE, inst.points["a"], inst.points["b"]
        )
        if report != one_pair_verdict(chosen, raster_sep):
            disagreements += 1
        holes += exact.bounded_complement_regions
        separated += raster_sep
    assert disagreements == 0
    # the corpus must exercise what criterion 09's corpus cannot: 87 holes
    # and 40 separated pairs of 60 at this seed
    assert holes >= 60
    assert 20 <= separated <= 50


# ---------------------------------------------------------------------------
# all-pairs separation against the per-pair sweep
# ---------------------------------------------------------------------------

def test_all_pairs_separation_matches_per_pair_oracle_on_raster_corpora(
    oracle_corpus, ring_oracle_corpus
):
    separated = 0
    for corpus in (oracle_corpus, ring_oracle_corpus):
        for centers, chosen, inst, report in corpus:
            sub = inst.centers.subset(chosen)
            udg = ar.unit_disk_graph(sub, inst.radius)
            (res,) = assert_all_pairs_match_oracle(sub, udg, inst.points)
            assert report == one_pair_verdict(chosen, res.separated)
            separated += res.separated
    assert separated == 40  # all in the ring corpus


def test_all_pairs_separation_matches_per_pair_oracle_on_sound_corpus(sound_corpus):
    merged = 0
    for emb, art in sound_corpus:
        inst = art.instance
        wall = set(art.wall_ids[0])
        everything = range(len(inst.tags))
        for kept in (list(everything), [i for i in everything if i not in wall]):
            sub = inst.centers.subset(kept)
            udg = ar.unit_disk_graph(sub, inst.radius)
            results = assert_all_pairs_match_oracle(sub, udg, inst.points)
            if len(kept) == len(inst.tags):
                assert all(res.separated for res in results)
            else:
                merged += sum(not res.separated for res in results)
    # with wall 0 dropped, 19 of the corpus' 245 pairs of face points merge
    assert merged == 19


# ---------------------------------------------------------------------------
# separation on the chain-contracted kernel
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sound_kernels(sound_corpus):
    """Each instance's intersection graph, masks and kernel."""
    return [ar.point_kernel(art.instance.centers, art.instance.radius, art.instance.points)
            for _, art in sound_corpus]


def separation_flags(inst, udg, dropped):
    """``separation``'s flags for the union of ``inst`` less ``dropped``.
    Intersection is pairwise, so the graph of the disks kept is the induced
    subgraph of ``udg``, renumbered in id order."""
    kept = [i for i in range(udg.n) if i not in dropped]
    new = [-1] * udg.n
    for k, i in enumerate(kept):
        new[i] = k
    sub = ar.UnitDiskGraph(len(kept), [[new[w] for w in udg.adj[i] if new[w] >= 0] for i in kept],
                           None)
    if len(kept) < 10_000:
        assert sub == ar.unit_disk_graph(inst.centers.subset(kept), inst.radius)
    results = ar.separation(inst.centers.subset(kept), sub, inst.points)
    return {pair: res.separated for pair, res in results.items()}


def test_kernel_separation_matches_separation_on_every_sound_wall(sound_corpus, sound_kernels):
    # the whole union, then each wall dropped, on all 20 instances
    unions = 0
    for (_, art), (udg, _, kernel) in zip(sound_corpus, sound_kernels):
        ids = sorted(art.instance.points)
        for dropped in [()] + [art.wall_ids[e] for e in sorted(art.wall_ids)]:
            want = separation_flags(art.instance, udg, set(dropped))
            assert ar.kernel_separation(kernel, ids, dropped) == want
            unions += 1
    assert unions == 20 + 159


def test_kernel_separation_matches_separation_on_toy_fences(toy_fence_corpus):
    # the whole union, the solved fence alone, and the fence less each of
    # its disks, which no minimum fence survives
    unions = 0
    for d in toy_fence_corpus:
        inst = ar.DiskInstance.from_dict(pl.read_json(d / "iso.json"))
        fence = set(pl.read_json(d / "sol.json")["witness"])
        udg, _, kernel = ar.point_kernel(inst.centers, inst.radius, inst.points)
        ids = sorted(inst.points)
        outside = {i for i in range(udg.n) if i not in fence}
        for dropped in [set(), outside] + [outside | {i} for i in sorted(fence)]:
            flags = ar.kernel_separation(kernel, ids, dropped)
            assert flags == separation_flags(inst, udg, dropped)
            assert all(flags.values()) == (len(dropped) <= len(outside))
            unions += 1
    assert unions >= 5 * 3


def test_dropping_a_sound_wall_merges_only_the_faces_beside_it(sound_corpus, sound_kernels):
    # every wall of every instance: dropped alone, it merges the two faces
    # beside its edge and keeps every other pair of face points separated;
    # a bridge has one face on both sides and merges none
    walls = bridges = 0
    for (emb, art), (_, _, kernel) in zip(sound_corpus, sound_kernels):
        ids = sorted(art.instance.points)
        faces = emb.graph.edge_faces()
        for e, wall in art.wall_ids.items():
            beside = {f"p{f}" for f in faces[e]}
            flags = ar.kernel_separation(kernel, ids, wall)
            assert flags == {(a, b): {a, b} != beside for a, b in flags}, e
            walls += 1
            bridges += len(beside) == 1
    assert (walls, bridges) == (159, 5)


# ---------------------------------------------------------------------------
# two-point fences on the chain-contracted kernel
# ---------------------------------------------------------------------------

def two_point(inst, a, b):
    """``inst`` with only its marked points ``a`` and ``b``."""
    return ar.DiskInstance(inst.radius, inst.centers, inst.tags,
                           {a: inst.points[a], b: inst.points[b]}, inst.params, inst.meta)


def test_contraction_is_exact_on_sound_and_toy_corpora(sound_corpus, toy_fence_corpus):
    toy = [ar.DiskInstance.from_dict(pl.read_json(d / "iso.json")) for d in toy_fence_corpus]
    for inst in [art.instance for _, art in sound_corpus] + toy:
        udg = ar.unit_disk_graph(inst.centers, inst.radius)
        masks = ar.edge_crossing_parities(
            inst.centers, udg, [inst.points[a] for a in sorted(inst.points)])
        assert_contraction_exact(udg, masks, ar.contract(udg, masks))


def test_two_point_optima_match_bfs_oracle_on_grid_2_sound_pairs(sound_corpus):
    rng = random.Random(SOUND_CORPUS_SEED)
    pairs = 0
    for emb, art in sound_corpus:
        if emb.grid_size != 2:
            continue
        for a, b in combinations(sorted(art.instance.points), 2):
            inst = two_point(art.instance, a, b)
            cert = brute_min_isolation_two_points(inst)
            assert cert.optimum == bfs_min_isolation_two_points(inst).optimum, (a, b)
            assert ar.verify_isolation(inst, cert.witness, cert.optimum).ok
            short = list(cert.witness)
            del short[rng.randrange(len(short))]
            assert not ar.verify_isolation(inst, short).ok
            pairs += 1
    assert pairs == 49  # in 11 instances


def test_sound_anchor_fits_in_65000_disks(sound_corpus):
    # the benchmark's grid-3 anchor is the corpus' first graph
    emb, art = sound_corpus[0]
    assert (emb.grid_size, len(emb.graph.edges), len(art.instance.tags)) == (3, 14, 64766)


def test_two_point_solve_at_grid_3_matches_bfs_oracle(sound_corpus, tmp_path):
    # the grid-3 pair the oracle solves fastest (one odd edge, about 1 s)
    emb, art = sound_corpus[16]
    assert (emb.grid_size, len(art.instance.tags)) == (3, 46310)
    inst = two_point(art.instance, "p1", "p4")
    iso, sol = tmp_path / "iso.json", tmp_path / "sol.json"
    iso.write_text(pl.instance_json(inst)[0], encoding="utf-8")
    code, lines = pl.cli_solve("isolation", iso, sol)
    assert code == 0, lines
    got = pl.read_json(sol)
    assert got["optimum"] == len(got["witness"]) == 13673
    assert got["optimum"] == bfs_min_isolation_two_points(inst).optimum
    # the size law: the fence is b walls of c_edge disks, where b is the
    # source's face-separation optimum for the same two faces, plus less
    # than one wall's worth of vertex rings
    sub = SubdivisionInstance(graph=emb.graph, terminals={"p1": 1, "p4": 4})
    b = len(brute_min_subdivision(sub).detail["kept_edges"])
    c_edge = int(inst.meta["c_edge"])
    assert c_edge == 4529
    assert b * c_edge <= got["optimum"] < (b + 1) * c_edge, (b, c_edge, got["optimum"])
    short = got["witness"][:100] + got["witness"][101:]
    for name, ids, want in (("all", got["witness"], 0), ("short", short, 1)):
        cert = tmp_path / f"{name}.json"
        pl.write_json({"candidate": ids, "budget": got["optimum"]}, cert)
        assert pl.cli_verify("isolation", iso, cert)[0] == want, name
