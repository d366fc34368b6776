"""Rotation systems: faces, duals, subdivision, and the cut-to-subdivision
reduction."""

import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    geometric_dual,
    reference_min_subdivision,
    reference_pmc_target,
    subdivide_all_edges,
    union_find_components,
)

from disklab import graphs as gr
from disklab.base import Malformed, Rejected


def triangle():
    return gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c"), ("c", "a")],
        {"a": [0, 2], "b": [1, 0], "c": [2, 1]},
    )


def path3():
    return gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c"], [("a", "b"), ("b", "c")], {"a": [0], "b": [0, 1], "c": [1]}
    )


def k4():
    # outer triangle 0,1,2 with vertex 3 inside; rotations clockwise
    return gr.PlanarEmbeddedGraph.from_edge_rotation(
        [0, 1, 2, 3],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        {0: [1, 2, 0], 1: [0, 4, 3], 2: [3, 5, 1], 3: [4, 2, 5]},
    )


def cycle(k):
    verts = list(range(k))
    edges = [(i, (i + 1) % k) for i in range(k)]
    rot = {i: [(i - 1) % k, i] for i in verts}
    return gr.PlanarEmbeddedGraph.from_edge_rotation(verts, edges, rot)


def euler_characteristic_ok(g):
    """V - E + F == 2 for a connected rotation system of genus zero."""
    return len(g.vertices) - len(g.edges) + g.face_count() == 2


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def test_single_edge_one_face_of_length_two():
    g = gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["u", "v"], [("u", "v")], {"u": [0], "v": [0]}
    )
    walks = g.facial_walks()
    assert len(walks) == 1
    assert len(walks[0]) == 2


def test_triangle_two_triangular_faces():
    g = triangle()
    walks = g.facial_walks()
    assert sorted(len(w) for w in walks) == [3, 3]
    assert euler_characteristic_ok(g)


def test_path_has_single_face():
    g = path3()
    walks = g.facial_walks()
    assert len(walks) == 1 and len(walks[0]) == 4


def test_k4_has_four_faces():
    g = k4()
    assert g.face_count() == 4
    assert all(len(w) == 3 for w in g.facial_walks())
    assert euler_characteristic_ok(g)


def test_face_ids_deterministic():
    g = triangle()
    again = triangle()
    assert g.facial_walks() == again.facial_walks()
    for e in range(3):
        for end in (0, 1):
            assert g.face_of_dart((e, end)) == again.face_of_dart((e, end))


def test_loop_rotation_and_faces():
    g = gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["v"], [("v", "v")], {"v": [0, 0]}
    )
    assert g.face_count() == 2
    assert euler_characteristic_ok(g)


def test_edgeless_single_vertex():
    g = gr.PlanarEmbeddedGraph(["v"], [], {"v": []})
    assert g.face_count() == 1


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

def test_missing_edge_at_endpoint_is_reported():
    with pytest.raises(Malformed, match="missing from rotation at vertex 'v'"):
        gr.PlanarEmbeddedGraph.from_edge_rotation(
            ["u", "v"], [("u", "v")], {"u": [0], "v": []}
        )
    # an end that is no vertex: the rotation check, not the plain graph's
    with pytest.raises(Malformed, match="^edge 0 missing from rotation at vertex 'z'$"):
        gr.PlanarEmbeddedGraph(["u"], [("u", "z")], {"u": [(0, 0)]})


def test_plain_and_embedded_graphs_index_alike(sound_drawings):
    for emb in sound_drawings:
        g = emb.graph
        plain = gr.Graph(g.vertices, g.edges)
        assert (plain.index, plain.ends, plain.is_connected()) == (g.index, g.ends, g.is_connected())


def test_foreign_edge_in_rotation_is_reported():
    with pytest.raises(Malformed, match="not incident"):
        gr.PlanarEmbeddedGraph.from_edge_rotation(
            ["u", "v", "w"], [("u", "v"), ("v", "w")], {"u": [0, 1], "v": [0, 1], "w": [1]}
        )


def test_unknown_edge_id_is_reported():
    with pytest.raises(Malformed, match="unknown edge"):
        gr.PlanarEmbeddedGraph.from_edge_rotation(["u"], [], {"u": [3]})


def test_duplicate_vertices_rejected():
    with pytest.raises(Malformed):
        gr.PlanarEmbeddedGraph(["u", "u"], [], {"u": []})


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def test_dual_of_path_is_loops_on_one_vertex():
    d = geometric_dual(path3())
    assert len(d.dual.vertices) == 1
    assert d.dual.edges == [(0, 0), (0, 0)]
    assert d.dual.face_count() == 3
    # the three dual faces correspond to the three path vertices
    assert sorted(d.vertex_face.values()) == [0, 1, 2]


def test_dual_of_triangle_is_banana():
    d = geometric_dual(triangle())
    assert len(d.dual.vertices) == 2
    assert all(tuple(sorted(e)) == (0, 1) for e in d.dual.edges)
    assert d.dual.face_count() == 3


def test_k4_is_self_dual():
    d = geometric_dual(k4())
    assert len(d.dual.vertices) == 4
    assert len(d.dual.edges) == 6
    assert d.dual.is_simple()
    assert sorted(d.dual.degree(v) for v in d.dual.vertices) == [3, 3, 3, 3]


def test_dual_of_dual_restores_counts():
    for g in (triangle(), k4(), cycle(5)):
        d = geometric_dual(g)
        dd = geometric_dual(d.dual)
        assert len(dd.dual.vertices) == len(g.vertices)
        assert len(dd.dual.edges) == len(g.edges)
        assert dd.dual.face_count() == g.face_count()


def test_dual_requires_connectivity():
    g = gr.PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c", "d"], [("a", "b"), ("c", "d")],
        {"a": [0], "b": [0], "c": [1], "d": [1]},
    )
    with pytest.raises(Malformed, match="connected"):
        geometric_dual(g)


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------

def test_subdivide_plain_edge_makes_two_fragments():
    sub = subdivide_all_edges(triangle())
    assert sub.graph.is_simple()
    assert all(len(frags) == 2 for frags in sub.fragments.values())
    assert sub.graph.face_count() == 2
    assert len(sub.graph.vertices) == 6


def test_subdivide_loop_makes_three_fragments():
    g = gr.PlanarEmbeddedGraph.from_edge_rotation(["v"], [("v", "v")], {"v": [0, 0]})
    sub = subdivide_all_edges(g)
    assert sub.graph.is_simple()
    assert len(sub.fragments[0]) == 3
    assert sub.graph.face_count() == 2


def test_subdivision_face_map_is_bijective():
    g = k4()
    sub = subdivide_all_edges(g)
    assert sorted(sub.face_map.keys()) == list(range(g.face_count()))
    assert sorted(sub.face_map.values()) == sorted(set(sub.face_map.values()))


# ---------------------------------------------------------------------------
# random rotation systems (hypothesis)
# ---------------------------------------------------------------------------

@st.composite
def rotation_systems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    verts = list(range(n))
    edges = [(i, i + 1) for i in range(n - 1)]  # spanning path keeps it connected
    extra = draw(st.integers(min_value=0, max_value=5))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        edges.append((u, v))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    rot = {v: [] for v in verts}
    for eid, (u, v) in enumerate(edges):
        rot[u].append((eid, 0))
        rot[v].append((eid, 1))
    for v in verts:
        rng.shuffle(rot[v])
    return gr.PlanarEmbeddedGraph(verts, edges, rot)


@given(rotation_systems())
@settings(max_examples=120)
def test_walk_lengths_sum_to_twice_edges(g):
    walks = g.facial_walks()
    assert sum(len(w) for w in walks) == 2 * len(g.edges)
    darts = [d for w in walks for d in w]
    assert len(darts) == len(set(darts))
    # canonical: each walk starts at its smallest dart, walks sorted by it,
    # and each step turns clockwise after the reversed dart
    assert all(w[0] == min(w) for w in walks if w) and walks == sorted(walks)
    for w in walks:
        for d, nxt in zip(w, w[1:] + w[:1]):
            back = gr.other_end(d)
            rot = g.rot[g.dart_tail(back)]
            assert nxt == rot[(rot.index(back) + 1) % len(rot)]
        assert all(g.face_of_dart(d) == walks.index(w) for d in w)


@given(rotation_systems())
@settings(max_examples=80)
def test_euler_characteristic_is_even_and_at_most_two(g):
    # an arbitrary rotation system embeds on an orientable surface of some
    # genus: V - E + F = 2 - 2g
    chi = len(g.vertices) - len(g.edges) + g.face_count()
    assert chi <= 2 and chi % 2 == 0


@given(rotation_systems())
@settings(max_examples=80)
def test_dual_swaps_vertices_and_faces(g):
    d = geometric_dual(g)
    assert len(d.dual.vertices) == g.face_count()
    assert len(d.dual.edges) == len(g.edges)
    assert d.dual.face_count() == len(g.vertices)
    faces_used = sorted(d.vertex_face.values())
    assert faces_used == list(range(len(g.vertices)))  # distinct faces, one per vertex


@given(rotation_systems())
@settings(max_examples=80)
def test_subdivision_preserves_faces_and_is_simple(g):
    sub = subdivide_all_edges(g)
    assert sub.graph.is_simple()
    assert sub.graph.face_count() == g.face_count()
    n_loops = sum(1 for u, v in g.edges if u == v)
    assert len(sub.graph.edges) == 2 * len(g.edges) + n_loops


# ---------------------------------------------------------------------------
# face components / solution checking
# ---------------------------------------------------------------------------

@st.composite
def multigraphs(draw):
    """Nodes named by ints or strings, edges with self-loops and parallels;
    some nodes stay isolated."""
    nodes = draw(st.lists(
        st.one_of(st.integers(min_value=-3, max_value=20), st.text(min_size=1, max_size=2)),
        unique=True, max_size=12))
    if not nodes:
        return nodes, []
    node = st.sampled_from(nodes)
    return nodes, draw(st.lists(st.tuples(node, node), max_size=20))


@given(multigraphs(), st.data())
@settings(max_examples=300)
def test_components_match_networkx(graph, data):
    nodes, edges = graph
    pg = gr.Graph(nodes, edges)
    assert pg.index == {v: i for i, v in enumerate(nodes)}
    assert pg.ends == tuple((nodes.index(u), nodes.index(w)) for u, w in edges)
    comp = {v: nodes[c] for v, c in zip(nodes, gr.edge_component_labels(len(nodes), pg.ends))}
    assert comp == union_find_components(nodes, edges)
    g = nx.MultiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    parts = list(nx.connected_components(g))
    assert len(set(comp.values())) == len(parts) == pg.component_count()
    assert pg.is_connected() == (len(parts) <= 1)
    assert pg.is_simple() == (nx.number_of_selfloops(g) == 0
                              and nx.Graph(g).number_of_edges() == len(edges))
    for part in parts:
        first = min(part, key=nodes.index)
        assert {comp[v] for v in part} == {first}
    # the cycle rank, zero exactly for a forest
    assert pg.cycle_rank() == len(edges) - len(nodes) + len(parts)
    assert (pg.cycle_rank() == 0) == (not nodes or nx.is_forest(g))
    # the forest test of feedback vertex sets, less a drawn removed set
    removed = data.draw(st.sets(st.sampled_from(nodes))) if nodes else set()
    rest = g.subgraph([v for v in nodes if v not in removed])
    assert gr.fvs_solution_ok(pg, [pg.index[v] for v in removed]) == (
        len(rest) == 0 or nx.is_forest(rest))
    # the labeller on the same graph as adjacency lists, less a cut that
    # removes every copy of some node pairs, either way round
    index = {v: i for i, v in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for u, w in edges:
        adj[index[u]].append(index[w])
        adj[index[w]].append(index[u])
    cut = data.draw(st.lists(st.sampled_from(edges), max_size=len(edges))) if edges else []
    cut_ids = [(index[u], index[w]) for u, w in cut]
    labels = gr.component_labels(adj, cut_ids)
    g.remove_edges_from([e for e in g.edges(keys=True)
                         if (e[0], e[1]) in cut or (e[1], e[0]) in cut])
    parts = list(nx.connected_components(g))
    assert len(set(labels)) == len(parts)
    for part in parts:
        assert {labels[index[v]] for v in part} == {min(index[v] for v in part)}


def test_components_label_by_first_node():
    g = gr.Graph(["c", "a", "b", "d"], [("a", "c"), ("b", "b"), ("b", "d"), ("d", "b")])
    assert gr.edge_component_labels(len(g.vertices), g.ends) == [0, 0, 2, 2]
    assert (g.component_count(), g.is_connected(), g.is_simple()) == (2, False, False)
    assert g.cycle_rank() == 2    # the loop, and the two parallel edges
    assert gr.fvs_solution_ok(g, [g.index["b"]])
    empty = gr.Graph([], [])
    assert (empty.component_count(), empty.is_connected(), empty.cycle_rank()) == (0, True, 0)
    # a bad end is malformed, never a KeyError
    with pytest.raises(Malformed, match="^edge 0 uses an unknown vertex$"):
        gr.Graph(["a"], [("a", "z")])
    with pytest.raises(Malformed, match="^duplicate vertex ids$"):
        gr.Graph(["a", "a"], [])
    assert gr.component_labels([[1], [0, 2], [1]], [(2, 1)]) == [0, 0, 2]
    assert gr.component_labels([]) == []


@st.composite
def graphs_with_terminals(draw):
    """Adjacency lists of a simple graph on nodes 0..n-1, its edges, one
    source and one to three sinks, all distinct."""
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs))))
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    ends = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True))
    return adj, edges, ends[0], ends[1:]


def flow_and_sink_side(adj, sources, sinks):
    """The flow's value and the sink side of its residual graph."""
    value, flow = gr.edge_disjoint_paths(adj, sources, sinks)
    return value, gr.residual_sink_side(adj, flow, sinks)


@given(graphs_with_terminals())
@settings(max_examples=300)
def test_edge_disjoint_paths_match_networkx(graph):
    adj, edges, s, sinks = graph
    g = nx.Graph(edges)
    g.add_nodes_from(range(len(adj)))
    d = g.to_directed()
    nx.set_edge_attributes(d, 1, "capacity")
    for k in sinks:
        d.add_edge(k, "sink")  # no capacity attribute: unbounded
    flow, (_, reaches_sink) = nx.minimum_cut(d, s, "sink")
    if len(sinks) == 1:
        assert flow == nx.edge_connectivity(g, s, sinks[0])
    value, sink_side = flow_and_sink_side(adj, [s], sinks)
    assert value == flow
    assert sink_side == reaches_sink - {"sink"}
    assert sum((i in sink_side) != (j in sink_side) for i, j in edges) == flow


def test_edge_disjoint_paths_small_cases():
    star = [[1, 2, 3], [0], [0], [0]]
    assert flow_and_sink_side(star, [0], [1, 2, 3]) == (3, {1, 2, 3})
    assert flow_and_sink_side(star, [1], [2]) == (1, {2})
    assert flow_and_sink_side([[], []], [0], [1]) == (0, {1})
    # a later augmenting path cancels flow on an edge of an earlier one;
    # blocking that edge both ways instead would leave 3 and 7 off the sink side
    edges = [(0, 2), (0, 7), (0, 9), (0, 11), (1, 7), (1, 8), (2, 10), (3, 6), (3, 7),
             (4, 6), (4, 8), (4, 9), (5, 9), (5, 10), (6, 9), (6, 10), (10, 11)]
    adj = [[] for _ in range(12)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    assert flow_and_sink_side(adj, [4], [0]) == (3, {0, 2, 3, 5, 6, 7, 9, 10, 11})


def seeded_multigraph(rng, n, m):
    """An embedded graph on ``n`` vertices with ``m`` random edges, loops and
    parallels among them, in a random rotation; it may be disconnected."""
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    rot = {v: [] for v in range(n)}
    for e, (u, w) in enumerate(edges):
        rot[u].append((e, 0))
        rot[w].append((e, 1))
    for darts in rot.values():
        rng.shuffle(darts)
    return gr.PlanarEmbeddedGraph(list(range(n)), edges, rot)


def test_cut_checks_match_union_find_on_multigraphs():
    # every removal set of at most two edges, and every set of all edges but
    # two, on seeded planar graphs, their duals and seeded multigraphs, which
    # bring loops, parallel edges and isolated vertices to the graph or to
    # its face graph
    from disklab.corpus import seeded_multiterminal_instances
    rng = random.Random(3003)
    planar = [triangle()] + [m.graph for m in seeded_multiterminal_instances(5, 6)]
    graphs = (planar + [geometric_dual(g).dual for g in planar]
              + [seeded_multigraph(rng, rng.randint(1, 6), rng.randint(0, 9)) for _ in range(8)])
    assert any(not g.is_simple() for g in graphs)
    for g in graphs:
        m, faces = len(g.edges), g.edge_faces()
        everyone = gr.MultiterminalInstance(graph=g, terminals=list(g.vertices))
        every_face = gr.SubdivisionInstance(graph=g, terminals={str(f): f for f in range(g.face_count())})
        small = [c for k in range(3) for c in itertools.combinations(range(m), k)]
        for cut in small + [[e for e in range(m) if e not in c] for c in small]:
            comp = union_find_components(g.vertices, (g.edges[e] for e in range(m) if e not in cut))
            part = union_find_components(range(g.face_count()), (faces[e] for e in range(m) if e not in cut))
            assert gr.multiterminal_solution_ok(everyone, cut) == (len(set(comp.values())) == len(comp))
            assert gr.subdivision_solution_ok(every_face, cut) == (len(set(part.values())) == len(part))
            for u, w in itertools.combinations(g.vertices, 2):
                mti = gr.MultiterminalInstance(graph=g, terminals=[u, w])
                assert gr.multiterminal_solution_ok(mti, cut) == (comp[u] != comp[w])
            for f, h in itertools.combinations(range(g.face_count()), 2):
                sub = gr.SubdivisionInstance(graph=g, terminals={"p": f, "q": h})
                assert gr.subdivision_solution_ok(sub, cut) == (part[f] != part[h])


def test_subdivision_solution_check_on_theta():
    # triangle's dual subdivided: theta graph with three marked faces
    red = gr.reduce_pmc_to_subdivision(
        gr.MultiterminalInstance(graph=triangle(), terminals=["a", "b", "c"])
    )
    inst = red.instance
    all_edges = range(len(inst.graph.edges))
    assert gr.subdivision_solution_ok(inst, all_edges)
    assert not gr.subdivision_solution_ok(inst, inst.groups[0] + inst.groups[1])


# ---------------------------------------------------------------------------
# the reduction and its lift
# ---------------------------------------------------------------------------

def brute_min_group_mass(inst):
    cert = reference_min_subdivision(inst)
    return cert.optimum, cert.detail["kept_edges"]


def test_path_reduction_round_trip():
    mti = gr.MultiterminalInstance(graph=path3(), terminals=["a", "c"])
    red = gr.reduce_pmc_to_subdivision(mti)
    assert len(red.instance.terminals) == 2
    mass, kept = brute_min_group_mass(red.instance)
    assert mass == 2
    lifted = gr.lift_subdivision_solution(red.pairing, kept)
    assert len(lifted) == 1
    assert gr.multiterminal_solution_ok(mti, lifted)


def test_triangle_reduction_needs_all_edges():
    mti = gr.MultiterminalInstance(graph=triangle(), terminals=["a", "b", "c"])
    red = gr.reduce_pmc_to_subdivision(mti)
    mass, kept = brute_min_group_mass(red.instance)
    assert mass == 6
    assert gr.lift_subdivision_solution(red.pairing, kept) == [0, 1, 2]


def test_cycle_reduction_two_terminals():
    g = cycle(4)
    mti = gr.MultiterminalInstance(graph=g, terminals=[0, 2])
    red = gr.reduce_pmc_to_subdivision(mti)
    mass, kept = brute_min_group_mass(red.instance)
    assert mass == 4  # the source optimum deletes two opposite edges
    lifted = gr.lift_subdivision_solution(red.pairing, kept)
    assert len(lifted) == 2
    assert gr.multiterminal_solution_ok(mti, lifted)


def test_lift_drops_incomplete_groups():
    pairing = {0: [0, 1], 1: [2, 3, 4]}
    assert gr.lift_subdivision_solution(pairing, [0, 1, 2, 3]) == [0]
    assert gr.lift_subdivision_solution(pairing, [0, 1, 2, 3, 4]) == [0, 1]
    assert gr.lift_subdivision_solution(pairing, []) == []


def test_reduction_rejects_weights():
    mti = gr.MultiterminalInstance(graph=path3(), terminals=["a", "c"], weights={0: 2})
    with pytest.raises(Rejected, match="unweighted"):
        gr.reduce_pmc_to_subdivision(mti)


def test_reduction_target_is_simple_even_with_loops_in_dual():
    # bridge edges give dual loops; the subdivided dual must still be simple
    mti = gr.MultiterminalInstance(graph=path3(), terminals=["a", "b"])
    red = gr.reduce_pmc_to_subdivision(mti)
    assert red.instance.graph.is_simple()
    assert geometric_dual(mti.graph).dual.edges == [(0, 0), (0, 0)]


def assert_one_pass_target_matches_composition(mti):
    """The one-pass target equals the subdivided dual built in two steps,
    and has the structure the reduction promises."""
    g = mti.graph
    red = gr.reduce_pmc_to_subdivision(mti)
    target = red.instance.graph
    if g.edges:  # the composition has no face map for an edgeless source
        want, fragments, vertex_face = reference_pmc_target(g)
        assert json.dumps(target.to_dict()) == json.dumps(want.to_dict())
        assert red.pairing == fragments
        assert red.vertex_face == vertex_face
    assert target.is_simple()
    assert target.face_count() == len(g.vertices)
    assert sorted(red.vertex_face.values()) == list(range(len(g.vertices)))
    bridges = sum(1 for f0, f1 in g.edge_faces() if f0 == f1)
    assert len(target.edges) == 2 * len(g.edges) + bridges
    assert red.instance.groups == [red.pairing[e] for e in range(len(g.edges))]


def test_one_pass_target_matches_the_composition_on_seeded_instances():
    from disklab.corpus import seeded_multiterminal_instances
    corpus = [mti for seed in range(40) for mti in seeded_multiterminal_instances(seed, 5, 3, 8)]
    # the seeded corpora of the other test modules
    for seed, count in ((5, 6), (2718, 8), (31415, 12)):
        corpus += seeded_multiterminal_instances(seed, count)
    for mti in corpus:
        assert_one_pass_target_matches_composition(mti)


@given(rotation_systems())
@settings(max_examples=120)
def test_one_pass_target_matches_the_composition(g):
    assert_one_pass_target_matches_composition(
        gr.MultiterminalInstance(graph=g, terminals=g.vertices[:2]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_graph_round_trip():
    for g in (triangle(), k4(), path3()):
        h = gr.PlanarEmbeddedGraph.from_dict(g.to_dict())
        assert [tuple(e) for e in h.edges] == [tuple(e) for e in g.edges]
        assert h.facial_walks() == g.facial_walks()


def test_instance_round_trips():
    mti = gr.MultiterminalInstance(graph=triangle(), terminals=["a", "c"], weights={1: 3})
    again = gr.MultiterminalInstance.from_dict(mti.to_dict())
    assert again.terminals == ["a", "c"]
    assert again.weight(1) == 3 and again.weight(0) == 1

    red = gr.reduce_pmc_to_subdivision(
        gr.MultiterminalInstance(graph=triangle(), terminals=["a", "b"])
    )
    inst2 = gr.SubdivisionInstance.from_dict(red.instance.to_dict())
    assert inst2.terminals == red.instance.terminals
    assert inst2.groups == red.instance.groups


@pytest.mark.parametrize("terminals, weights, why", [
    (["a", "z"], {}, "terminal 'z' is not a vertex"),
    (["a", "b", "a"], {}, "duplicate terminals"),
    (["a", "b"], {3: 2}, "weight names unknown edge 3"),
    (["a", "b"], {-1: 2}, "weight names unknown edge -1"),
    (["a", "b"], {1: 0}, "edge 1 has non-positive weight"),
])
def test_a_multiterminal_instance_checks_itself_at_construction(terminals, weights, why):
    with pytest.raises(Malformed, match=f"^{why}$"):
        gr.MultiterminalInstance(graph=triangle(), terminals=terminals, weights=weights)


@pytest.mark.parametrize("terminals, groups, why", [
    ({"p": 0, "q": 0}, None, "two points share a face"),
    ({"p": 0, "q": 2}, None, "point 'q' names unknown face 2"),
    ({"p": -1}, None, "point 'p' names unknown face -1"),
    ({"p": 0, "q": 1}, [[0, 1]], "groups must partition the edge set"),
    ({"p": 0, "q": 1}, [[0, 1], [1, 2]], "groups must partition the edge set"),
    ({"p": 0, "q": 1}, [[0], [1, 2], []], "a group must hold at least one edge"),
])
def test_a_subdivision_instance_checks_itself_at_construction(terminals, groups, why):
    with pytest.raises(Malformed, match=f"^{why}$"):
        gr.SubdivisionInstance(graph=triangle(), terminals=terminals, groups=groups)


def test_subdivision_instance_validation():
    g = triangle()
    with pytest.raises(Malformed, match="share a face"):
        gr.SubdivisionInstance(graph=g, terminals={"p": 0, "q": 0}).validate()
    with pytest.raises(Malformed, match="unknown face"):
        gr.SubdivisionInstance(graph=g, terminals={"p": 9}).validate()
