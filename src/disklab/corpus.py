"""Seeded corpora of small random test instances.

Deterministic generators for the instance families the test suite and the
demo scripts share: connected simple planar graphs (as rotation systems and
as integer grid drawings), and unweighted multiterminal-cut instances on
them.  Every generator threads a single ``random.Random`` so a fixed seed
reproduces the same corpus byte for byte.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .graphs import MultiterminalInstance, PlanarEmbeddedGraph, Vertex
from .gridembed import GridEmbedding, grid_embed

Edge = Tuple[Vertex, Vertex]


def random_planar_edges(
    rng: random.Random, n_vertices: int
) -> Tuple[List[Vertex], List[Edge]]:
    """Random connected simple planar graph: a random tree plus
    ``2 * n_vertices`` tries at an extra edge, each kept only while the
    graph stays planar."""
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    import networkx as nx

    names: List[Vertex] = [f"v{i}" for i in range(n_vertices)]
    edges: List[Edge] = [
        (names[rng.randrange(i)], names[i]) for i in range(1, n_vertices)
    ]
    g = nx.Graph(edges)
    g.add_nodes_from(names)
    for _ in range(2 * n_vertices):
        u, w = rng.sample(names, 2) if n_vertices >= 2 else (names[0], names[0])
        if u == w or g.has_edge(u, w):
            continue
        g.add_edge(u, w)
        if nx.check_planarity(g)[0]:
            edges.append((u, w))
        else:
            g.remove_edge(u, w)
    return names, edges


def rotation_graph(vertices: List[Vertex], edges: List[Edge]) -> PlanarEmbeddedGraph:
    """Combinatorial embedding of a connected simple planar graph, with the
    rotation taken from networkx's planarity test."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    ok, emb = nx.check_planarity(g)
    if not ok:
        raise ValueError("graph is not planar")
    eid_of = {}
    for i, (u, w) in enumerate(edges):
        eid_of[(u, w)] = i
        eid_of[(w, u)] = i
    rotation = {
        v: [eid_of[(v, nb)] for nb in emb.neighbors_cw_order(v)] for v in vertices
    }
    return PlanarEmbeddedGraph.from_edge_rotation(vertices, edges, rotation)


def seeded_planar_graphs(
    seed: int,
    count: int,
    min_vertices: int = 3,
    max_vertices: int = 8,
    max_grid: Optional[int] = None,
) -> List[GridEmbedding]:
    """``count`` random embedded-and-drawn planar graphs.

    With ``max_grid`` set, draws that need a larger integer grid are
    discarded and redrawn, so every returned drawing fits the bound.
    """
    rng = random.Random(seed)
    out: List[GridEmbedding] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 80 * count:
            raise RuntimeError(
                f"could not draw {count} graphs within grid bound {max_grid}"
            )
        n = rng.randint(min_vertices, max_vertices)
        names, edges = random_planar_edges(rng, n)
        emb = grid_embed(rotation_graph(names, edges))
        if max_grid is not None and emb.grid_size > max_grid:
            continue
        out.append(emb)
    return out


def seeded_multiterminal_instances(
    seed: int,
    count: int,
    min_vertices: int = 3,
    max_vertices: int = 6,
    max_terminals: int = 3,
) -> List[MultiterminalInstance]:
    """``count`` unweighted multiterminal-cut instances on small random
    connected planar graphs, each with 2..``max_terminals`` terminals."""
    rng = random.Random(seed)
    out: List[MultiterminalInstance] = []
    while len(out) < count:
        n = rng.randint(min_vertices, max_vertices)
        names, edges = random_planar_edges(rng, n)
        k = rng.randint(2, min(max_terminals, n))
        out.append(MultiterminalInstance(
            graph=rotation_graph(names, edges),
            terminals=sorted(rng.sample(names, k)),
        ))
    return out
