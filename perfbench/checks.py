"""Independent expectations for the benchmark's operations.

Nothing here calls disklab: optima come from brute force over networkx
graphs, faces from a facial walk over the rotation system stored in the
input file, and lifted solutions are re-checked on the source graph.
"""

from __future__ import annotations

import json
import re
from itertools import combinations

import networkx as nx


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def source_multigraph(src, removed_edges=()):
    g = nx.MultiGraph()
    g.add_nodes_from(str(v) for v in src["vertices"])
    skip = set(removed_edges)
    g.add_edges_from((str(u), str(w)) for e, (u, w) in enumerate(src["edges"]) if e not in skip)
    return g


def terminals_separated(src, removed_edges):
    g = source_multigraph(src, removed_edges)
    comp = {}
    for i, part in enumerate(nx.connected_components(g)):
        for v in part:
            comp[v] = i
    labels = [comp[str(t)] for t in src["terminals"]]
    return len(set(labels)) == len(labels)


def edge_weight(src, e):
    return int(src.get("weights", {}).get(str(e), 1))


def min_multiway_cut(src):
    """(weight, edge ids) of a minimum-weight edge set pairwise separating
    the terminals, by enumeration over all edge subsets."""
    m = len(src["edges"])
    best = None
    for k in range(m + 1):
        for combo in combinations(range(m), k):
            w = sum(edge_weight(src, e) for e in combo)
            if (best is None or w < best[0]) and terminals_separated(src, combo):
                best = (w, list(combo))
    return best


def is_fvs(src, removed_vertices):
    g = source_multigraph(src)
    g.remove_nodes_from(str(v) for v in removed_vertices)
    return g.number_of_nodes() == 0 or nx.is_forest(g)


def min_fvs_size(src):
    vertices = [str(v) for v in src["vertices"]]
    return next(k for k in range(len(vertices) + 1)
                if any(is_fvs(src, combo) for combo in combinations(vertices, k)))


def non_bridge_edges(src):
    g = nx.Graph((str(u), str(w)) for u, w in src["edges"])
    bridges = {frozenset(b) for b in nx.bridges(g)}
    return [e for e, (u, w) in enumerate(src["edges"]) if frozenset((str(u), str(w))) not in bridges]


def face_of_darts(src):
    """Face id of every dart (edge, end) of a loopless rotation system, with
    faces numbered by their smallest dart, as the instance format defines
    face ids."""
    edges = [(str(u), str(w)) for u, w in src["edges"]]
    rot = {
        str(v): [(e, 0 if edges[e][0] == str(v) else 1) for e in eids]
        for v, eids in src["rotation"].items()
    }

    def successor(dart):
        e, end = dart
        back = (e, 1 - end)
        ring = rot[edges[e][1 - end]]
        return ring[(ring.index(back) + 1) % len(ring)]

    unvisited = {(e, end) for e in range(len(edges)) for end in (0, 1)}
    walks = []
    while unvisited:
        start = min(unvisited)
        walk, d = [start], successor(start)
        while d != start:
            walk.append(d)
            d = successor(d)
        unvisited.difference_update(walk)
        walks.append(walk)
    walks.sort(key=min)
    return {d: f for f, walk in enumerate(walks) for d in walk}


def face_count(src):
    return len(set(face_of_darts(src).values()))


def faces_beside(src, e):
    faces = face_of_darts(src)
    return {faces[(e, 0)], faces[(e, 1)]}


# -- reading verdict lines ---------------------------------------------------

FAIL_PAIR = re.compile(r"^FAIL (\S+) \| (\S+) separated: False$")
HOLES = re.compile(r"union has (\d+) bounded complement region")


def failed_pairs(lines):
    return {frozenset(m.groups()) for m in map(FAIL_PAIR.match, lines) if m}


def bounded_regions(lines):
    for line in lines:
        m = HOLES.search(line)
        if m:
            return int(m.group(1))
    return None
