"""Grid drawings: exact validity checking, rotation faithfulness, face
location, compaction."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from disklab import graphs as gr
from disklab import gridembed as ge
from disklab.corpus import random_planar_edges, rotation_graph, seeded_planar_graphs
from disklab.geometry import point_on_segment

from oracles import geometric_dual, reference_search_minimal_drawing, subdivide_all_edges


def triangle():
    return gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c"), ("c", "a")],
        {"a": [0, 2], "b": [1, 0], "c": [2, 1]},
    )


def k4():
    return gr.PlanarEmbeddedGraph.from_edge_rotation(
        [0, 1, 2, 3],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        {0: [1, 2, 0], 1: [0, 4, 3], 2: [3, 5, 1], 3: [4, 2, 5]},
    )


K4_COORDS = {0: (0, 0), 1: (4, 0), 2: (2, 3), 3: (2, 1)}


# ---------------------------------------------------------------------------
# validity checking
# ---------------------------------------------------------------------------

def test_reference_k4_drawing_is_valid():
    ge.check_drawing(k4(), K4_COORDS)


def test_mirrored_drawing_fails_rotation_check():
    mirrored = {v: (x, -y) for v, (x, y) in K4_COORDS.items()}
    with pytest.raises(ge.DrawingError, match="rotation"):
        ge.check_drawing(k4(), mirrored)
    assert not ge.rotation_equivalent(k4(), mirrored)


def test_coincident_vertices_rejected():
    bad = {**K4_COORDS, 3: (4, 0)}
    with pytest.raises(ge.DrawingError, match="share a grid point"):
        ge.check_drawing(k4(), bad)


def test_vertex_on_foreign_edge_rejected():
    bad = {**K4_COORDS, 3: (2, 0)}  # on segment 0-1
    with pytest.raises(ge.DrawingError):
        ge.check_drawing(k4(), bad)


def test_crossing_edges_rejected():
    g = gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c", "d"],
        [("a", "b"), ("c", "d")],
        {"a": [0], "b": [0], "c": [1], "d": [1]},
    )
    with pytest.raises(ge.DrawingError, match="intersect"):
        ge.check_drawing(g, {"a": (0, 0), "b": (2, 2), "c": (0, 2), "d": (2, 0)})


def test_overlap_beyond_shared_vertex_rejected():
    g = gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c"], [("a", "b"), ("a", "c")], {"a": [0, 1], "b": [0], "c": [1]}
    )
    with pytest.raises(ge.DrawingError, match="overlap"):
        ge.check_drawing(g, {"a": (0, 0), "b": (2, 0), "c": (1, 0)})


def test_non_integer_coords_rejected():
    g = triangle()
    with pytest.raises(ge.DrawingError, match="non-integer"):
        ge.check_drawing(g, {"a": (0.5, 0), "b": (2, 0), "c": (1, 1)})


def test_rotation_check_needs_distinct_directions():
    g = gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c"], [("a", "b"), ("a", "c")], {"a": [0, 1], "b": [0], "c": [1]}
    )
    with pytest.raises(ge.DrawingError, match="same direction"):
        ge.induced_rotation(g, {"a": (0, 0), "b": (1, 0), "c": (2, 0)})


def test_cyclic_equal():
    assert ge.cyclic_equal([1, 2, 3], [2, 3, 1])
    assert ge.cyclic_equal([], [])
    assert not ge.cyclic_equal([1, 2, 3], [1, 3, 2])
    assert not ge.cyclic_equal([1, 2], [1, 2, 3])
    assert not ge.cyclic_equal([1, 2], [3, 4])


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_networkx_triangle_table():
    coords = ge.draw_with_networkx(triangle())
    assert coords == {"a": (0, 0), "b": (2, 0), "c": (1, 1)}


def test_tiny_graphs():
    one = gr.PlanarEmbeddedGraph(["z"], [], {"z": []})
    emb = ge.grid_embed(one)
    assert emb.coords == {"z": (0, 0)} and emb.grid_size == 2

    two = gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["u", "v"], [("u", "v")], {"u": [0], "v": [0]}
    )
    emb2 = ge.grid_embed(two)
    assert emb2.grid_size == 2
    ge.check_drawing(two, emb2.coords)


@pytest.mark.parametrize("maker", [triangle, k4])
def test_grid_embed_small_and_faithful(maker):
    g = maker()
    emb = ge.grid_embed(g)
    ge.check_drawing(g, emb.coords)
    assert emb.grid_size == 2  # the search finds one-box drawings for these
    assert min(x for x, _ in emb.coords.values()) == 0
    assert min(y for _, y in emb.coords.values()) == 0


def test_grid_embed_subdivided_duals_stay_small():
    for src, terms in [
        (triangle(), ["a", "b", "c"]),
        (k4(), [0, 3]),
    ]:
        red = gr.reduce_pmc_to_subdivision(
            gr.MultiterminalInstance(graph=src, terminals=terms)
        )
        emb = ge.grid_embed(red.instance.graph)
        assert emb.grid_size <= 4
        ge.check_drawing(emb.graph, emb.coords)


def test_compaction_never_grows():
    g = k4()
    raw = ge.draw_with_networkx(g)
    ge.check_drawing(g, raw)
    compacted = ge.compact_drawing(g, raw)
    ge.check_drawing(g, compacted)
    rw, rh = ge._spans(raw)
    cw, ch = ge._spans(compacted)
    assert max(cw, ch) <= max(rw, rh)
    assert cw * ch <= rw * rh


def test_search_minimal_drawing_respects_budget(monkeypatch):
    monkeypatch.setattr(ge, "SEARCH_BUDGET", 1)
    assert ge.search_minimal_drawing(k4(), 4) is None


def test_search_constants_bound_grid_embed(monkeypatch):
    # the search shrinks this graph's compacted grid-3 drawing to grid 2; with
    # one candidate cell per box, or no box that fits five vertices, it
    # gives up and the compacted drawing stays
    names = [f"v{i}" for i in range(5)]
    edges = [("v0", "v1"), ("v0", "v2"), ("v2", "v3"), ("v1", "v4"), ("v3", "v4"),
             ("v0", "v3"), ("v1", "v3"), ("v2", "v1")]
    g = rotation_graph(names, edges)
    assert ge.grid_embed(g).grid_size == 2
    for name, value in (("SEARCH_BUDGET", 1), ("MAX_SEARCH_BOX", 1)):
        with monkeypatch.context() as mp:
            mp.setattr(ge, name, value)
            assert ge.search_minimal_drawing(g, ge.MAX_SEARCH_BOX) is None
            assert ge.grid_embed(g).grid_size == 3


def _search_cases():
    # seed 2's first twelve graphs: 3 to 8 vertices, one search that finds
    # nothing, and the oracle's searches take a few seconds in all
    rng = random.Random(2)
    cases = []
    for i in range(12):
        names, edges = random_planar_edges(rng, rng.randint(3, 8))
        cases.append(pytest.param(rotation_graph(names, edges), 2 + i % 3,
                                  id=f"graph{i}-k{2 + i % 3}"))
    # K_{2,m} places its two hubs first, apart: only the vertex-on-segment
    # mask rejects a spoke through the hub that has no placed edge yet
    for m in (3, 4):
        names = ["u0", "u1"] + [f"w{j}" for j in range(m)]
        edges = [(u, w) for w in names[2:] for u in names[:2]]
        cases.append(pytest.param(rotation_graph(names, edges), 3, id=f"k2_{m}-k3"))
    # b and a are placed and joined first, then c with no placed neighbour:
    # only the covered-cells mask keeps c off the segment ab
    edges = [("a", "b"), ("a", "d"), ("a", "e"), ("b", "d"), ("b", "e"),
             ("c", "d"), ("c", "e"), ("c", "f"), ("f", "b")]
    cases.append(pytest.param(rotation_graph(list("abcdef"), edges), 3, id="apart-k3"))
    # the quarter-turn skip: the diamond's pmc->subdivision target (8
    # vertices) fails in the 3x3 box, where the root and the second vertex,
    # under a first one at the centre, skip turned subtrees, and the 4x4
    # box finds a drawing; the wheel with four spokes is drawn with its hub
    # at the 3x3 box's centre, after the root skips two failed subtrees, so
    # their charge is part of the count of cells tried
    names = ["d0", "d1", "d2", "d3"]
    diamond = rotation_graph(names, [(names[a], names[b])
                                     for a, b in ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))])
    sub = gr.reduce_pmc_to_subdivision(gr.MultiterminalInstance(graph=diamond, terminals=["d0", "d2"]))
    cases.append(pytest.param(sub.instance.graph, 3, id="diamond-subdivision-k3"))
    edges = [("v0", "v1"), ("v0", "v2"), ("v2", "v3"), ("v1", "v4"), ("v3", "v0"),
             ("v3", "v4"), ("v4", "v2"), ("v3", "v1")]
    cases.append(pytest.param(rotation_graph([f"v{i}" for i in range(5)], edges), 2,
                              id="wheel4-k2"))
    return cases


@pytest.mark.parametrize("g,max_size", _search_cases())
def test_search_minimal_drawing_matches_reference(g, max_size, monkeypatch):
    """The table-driven search returns what the per-candidate loops of the
    reference return, at the default budget and at the budgets just above
    and at the count of cells the finding level tries, where that level
    first succeeds and last runs out."""
    want, tried = reference_search_minimal_drawing(g, max_size)
    got = ge.search_minimal_drawing(g, max_size)
    assert got == want and (got is None or list(got) == list(want))
    if want is None:
        return
    monkeypatch.setattr(ge, "SEARCH_BUDGET", tried + 1)
    assert ge.search_minimal_drawing(g, max_size) == want
    short, _ = reference_search_minimal_drawing(g, max_size, node_budget=tried)
    assert short != want
    monkeypatch.setattr(ge, "SEARCH_BUDGET", tried)
    assert ge.search_minimal_drawing(g, max_size) == short


@pytest.mark.parametrize("budget", [7, 40, 300, 2_000, 20_000, ge.SEARCH_BUDGET])
def test_search_matches_reference_at_every_budget(budget, monkeypatch):
    """Seed 4's first four drawn graphs (4 to 7 vertices, up to grid 3)
    searched up to their grid size: the same drawing or the same give-up
    as the reference under each budget."""
    embs = seeded_planar_graphs(4, 4)
    monkeypatch.setattr(ge, "SEARCH_BUDGET", budget)
    for emb in embs:
        max_size = min(ge.MAX_SEARCH_BOX, emb.grid_size)
        want, _ = reference_search_minimal_drawing(emb.graph, max_size, node_budget=budget)
        got = ge.search_minimal_drawing(emb.graph, max_size)
        assert got == want and (got is None or list(got) == list(want))


def test_search_budget_decides_a_sound_corpus_draw(monkeypatch):
    # the twelfth draw of the sound corpus' seed (8 vertices, 14 edges):
    # the default budget runs out on grid 3, so grid_embed keeps a grid-4
    # drawing and the corpus discards it, though a grid-3 drawing is the
    # 390,650th candidate cell
    names = [f"v{i}" for i in range(8)]
    edges = [("v0", "v1"), ("v0", "v2"), ("v1", "v3"), ("v1", "v4"), ("v1", "v5"),
             ("v0", "v6"), ("v3", "v7"), ("v7", "v2"), ("v3", "v2"), ("v4", "v6"),
             ("v6", "v5"), ("v4", "v3"), ("v1", "v6"), ("v0", "v3")]
    g = rotation_graph(names, edges)
    assert ge.search_minimal_drawing(g, 3) is None
    assert ge.grid_embed(g).grid_size == 4
    want, tried = reference_search_minimal_drawing(g, max_size=3, node_budget=400_000)
    assert tried == 390_650
    monkeypatch.setattr(ge, "SEARCH_BUDGET", 400_000)
    assert ge.search_minimal_drawing(g, 3) == want
    assert max(ge._spans(want)) == 3


def test_disconnected_graph_rejected():
    g = gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c", "d"],
        [("a", "b"), ("c", "d")],
        {"a": [0], "b": [0], "c": [1], "d": [1]},
    )
    with pytest.raises(ge.DrawingError, match="connected"):
        ge.draw_with_networkx(g)


# ---------------------------------------------------------------------------
# face location
# ---------------------------------------------------------------------------

def unbounded_face(g, coords):
    for f in range(g.face_count()):
        if ge._face_is_unbounded(g, coords, f):
            return f
    raise ge.DrawingError("no unbounded face found")


def point_in_face(g, coords, face):
    """Some rational point strictly inside ``face``, off all edges.

    Probes points perpendicular to walk edges at shrinking offsets and
    verifies each candidate by exact location.
    """
    walk = g.facial_walks()[face]
    if not walk:
        # single-vertex graph: everything but the vertex is the one face
        v = g.vertices[0]
        return (Fraction(coords[v][0] + 1), Fraction(coords[v][1]))
    for d in walk:
        a = coords[g.dart_tail(d)]
        b = coords[g.dart_head(d)]
        mx, my = Fraction(a[0] + b[0], 2), Fraction(a[1] + b[1], 2)
        # left normal of the dart direction: face side under our convention
        nx_, ny_ = -(b[1] - a[1]), (b[0] - a[0])
        scale = max(abs(nx_), abs(ny_))
        for k in (2, 4, 8, 16, 64, 256, 1024):
            p = (mx + Fraction(nx_, scale * k), my + Fraction(ny_, scale * k))
            try:
                if ge.locate_face(g, coords, p) == face:
                    return p
            except ge.DrawingError:
                continue
    raise ge.DrawingError(f"could not produce an interior point for face {face}")


def test_locate_and_interior_points_cover_all_faces():
    g = k4()
    emb = ge.grid_embed(g)
    seen = set()
    for f in range(g.face_count()):
        p = point_in_face(g, emb.coords, f)
        assert ge.locate_face(g, emb.coords, p) == f
        seen.add(f)
    assert seen == set(range(4))


def test_unbounded_face_unique_and_located():
    g = triangle()
    emb = ge.grid_embed(g)
    outer = unbounded_face(g, emb.coords)
    far = (Fraction(10**6), Fraction(7))
    assert ge.locate_face(g, emb.coords, far) == outer


def test_locate_face_rejects_boundary_points():
    g = triangle()
    emb = ge.grid_embed(g)
    v = g.vertices[0]
    p = (Fraction(emb.coords[v][0]), Fraction(emb.coords[v][1]))
    with pytest.raises(ge.DrawingError):
        ge.locate_face(g, emb.coords, p)


def test_tree_has_single_locatable_face():
    g = gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c"], [("a", "b"), ("b", "c")], {"a": [0], "b": [0, 1], "c": [1]}
    )
    emb = ge.grid_embed(g)
    assert g.face_count() == 1
    p = point_in_face(g, emb.coords, 0)
    assert ge.locate_face(g, emb.coords, p) == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_embedding_round_trip():
    emb = ge.grid_embed(k4())
    again = ge.GridEmbedding.from_dict(emb.to_dict())
    assert again.coords == emb.coords
    assert again.grid_size == emb.grid_size


def test_from_dict_rejects_bad_grid_size():
    emb = ge.grid_embed(triangle())
    d = emb.to_dict()
    d["grid_size"] = 99
    with pytest.raises(ge.DrawingError, match="grid size"):
        ge.GridEmbedding.from_dict(d)


def test_from_dict_rejects_invalid_drawing():
    emb = ge.grid_embed(k4())
    d = emb.to_dict()
    d["coords"]["3"] = d["coords"]["0"]
    with pytest.raises(ge.DrawingError):
        ge.GridEmbedding.from_dict(d)


# ---------------------------------------------------------------------------
# property: the whole pipeline stays faithful on random inputs
# ---------------------------------------------------------------------------

@st.composite
def small_planar_embedded(draw):
    """Random planar embedded simple graphs via subdivided duals of random
    rotation systems (always connected, simple, and planar by construction
    is NOT guaranteed for the rotation system itself -- so genus-zero inputs
    are filtered by the Euler check)."""
    import random as _random

    n = draw(st.integers(min_value=2, max_value=4))
    verts = list(range(n))
    edges = [(i, i + 1) for i in range(n - 1)]
    extra = draw(st.integers(min_value=0, max_value=2))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        edges.append((u, v))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = _random.Random(seed)
    rot = {v: [] for v in verts}
    for eid, (u, v) in enumerate(edges):
        rot[u].append((eid, 0))
        rot[v].append((eid, 1))
    for v in verts:
        rng.shuffle(rot[v])
    g = gr.PlanarEmbeddedGraph(verts, edges, rot)
    if len(g.vertices) - len(g.edges) + g.face_count() != 2:
        return None
    return subdivide_all_edges(geometric_dual(g).dual).graph


@given(small_planar_embedded())
@settings(max_examples=25, deadline=None)
def test_grid_embed_random_graphs(g):
    if g is None:
        return
    # no search box, to keep the test fast: the compacted networkx drawing
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ge, "MAX_SEARCH_BOX", 0)
        emb = ge.grid_embed(g)
    ge.check_drawing(g, emb.coords)
    assert emb.grid_size >= 2


# ---------------------------------------------------------------------------
# integer validity checks against the Fraction oracle
# ---------------------------------------------------------------------------

def fraction_check_drawing(g, coords):
    """``check_drawing`` as it ran on ``Fraction`` points, kept as the
    oracle for the one running on the integer grid coordinates."""
    if not g.is_simple():
        raise ge.DrawingError("straight-line drawings require a simple graph")
    if set(coords) != set(g.vertices):
        raise ge.DrawingError("coordinate map does not cover the vertex set")
    pts = {}
    for v, xy in coords.items():
        if len(xy) != 2 or not all(isinstance(c, int) for c in xy):
            raise ge.DrawingError(f"vertex {v!r} has non-integer coordinates {xy!r}")
        pts[v] = (Fraction(xy[0]), Fraction(xy[1]))
    if len(set(pts.values())) != len(pts):
        raise ge.DrawingError("two vertices share a grid point")
    segs = [(pts[u], pts[v]) for u, v in g.edges]
    for i in range(len(segs)):
        a, b = segs[i]
        for j in range(i + 1, len(segs)):
            c, d = segs[j]
            if ge._segments_conflict(a, b, c, d):
                if a in (c, d) or b in (c, d):
                    raise ge.DrawingError(f"edges {i} and {j} overlap beyond their shared vertex")
                raise ge.DrawingError(f"edges {i} and {j} intersect")
    for w, p in pts.items():
        for eid, (u, v) in enumerate(g.edges):
            if w not in (u, v) and point_on_segment(p, pts[u], pts[v]):
                raise ge.DrawingError(f"vertex {w!r} lies on edge {eid}")
    if not ge.rotation_equivalent(g, coords):
        raise ge.DrawingError("drawn rotation differs from the prescribed one")


def drawing_outcome(check, g, coords):
    try:
        check(g, coords)
        return None
    except ge.DrawingError as exc:
        return str(exc)


def lattice_case(coords, edges, drawn_rotation=True):
    """The graph of ``edges`` with the rotation its drawing induces, or the
    edges' id order where the drawing has none (or when asked to)."""
    n = len(coords)
    g = gr.PlanarEmbeddedGraph.from_edge_rotation(
        list(range(n)), edges, {v: [e for e, uv in enumerate(edges) if v in uv] for v in range(n)})
    if drawn_rotation:
        try:
            drawn = ge.induced_rotation(g, coords)
        except ge.DrawingError:
            return g, coords
        g = gr.PlanarEmbeddedGraph.from_edge_rotation(
            list(range(n)), edges, {v: [d[0] for d in drawn[v]] for v in range(n)})
    return g, coords


@st.composite
def lattice_drawings(draw):
    """Simple graphs placed on a 4 x 4 lattice, so collinear, overlapping
    and touching segments and shared points are common."""
    n = draw(st.integers(min_value=2, max_value=6))
    coords = {v: (draw(st.integers(0, 3)), draw(st.integers(0, 3))) for v in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    return lattice_case(coords, edges, draw(st.booleans()))


@given(lattice_drawings())
@example(lattice_case({0: (0, 0), 1: (2, 0), 2: (1, 0), 3: (3, 0)}, [(0, 1), (2, 3)]))  # overlap
@example(lattice_case({0: (0, 0), 1: (2, 0), 2: (1, 0), 3: (1, 2)}, [(0, 1), (2, 3)]))  # touch
@example(lattice_case({0: (0, 0), 1: (2, 0), 2: (3, 0)}, [(0, 1), (0, 2)]))  # collinear, shared
@example(lattice_case({0: (0, 0), 1: (1, 0), 2: (2, 0)}, [(0, 1), (1, 2)]))  # collinear path
@settings(max_examples=400, deadline=None)
def test_check_drawing_matches_fraction_oracle(case):
    g, coords = case
    got = drawing_outcome(ge.check_drawing, g, coords)
    assert got == drawing_outcome(fraction_check_drawing, g, coords)
    if got is not None or not g.is_connected():
        return  # faces are defined for valid drawings of connected graphs
    for f in range(g.face_count()):
        p = point_in_face(g, coords, f)
        assert all(type(c) is Fraction for c in p)
        assert ge.locate_face(g, coords, p) == f


def test_drawing_does_not_depend_on_the_hash_seed():
    # graph 8 of the sound corpus' seed: while networkx saw the string
    # vertex names, its drawing under hash seed 0 differed from the one
    # under hash seed 2
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = """if True:
        import json
        from disklab.graphs import PlanarEmbeddedGraph
        from disklab.gridembed import grid_embed
        g = PlanarEmbeddedGraph.from_edge_rotation(
            ["v0", "v1", "v2", "v3", "v4", "v5", "v6"],
            [("v0", "v1"), ("v1", "v2"), ("v1", "v3"), ("v0", "v4"), ("v4", "v5"),
             ("v5", "v6"), ("v5", "v1"), ("v4", "v2"), ("v0", "v2"), ("v0", "v3"),
             ("v4", "v3"), ("v5", "v2"), ("v6", "v2"), ("v4", "v6")],
            {"v0": [0, 9, 3, 8], "v1": [0, 1, 6, 2], "v2": [1, 8, 7, 12, 11],
             "v3": [10, 9, 2], "v4": [7, 3, 10, 4, 13], "v5": [4, 6, 11, 5],
             "v6": [5, 12, 13]})
        print(json.dumps(grid_embed(g).to_dict(), sort_keys=True))
    """
    drawings = [
        subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
                       capture_output=True, text=True, check=True).stdout
        for seed in ("0", "2")
    ]
    assert drawings[0] == drawings[1]
