"""Embedded planar multigraphs as rotation systems.

A graph is stored as a list of edges plus, for every vertex, the clockwise
cyclic order of its edge ends ("darts").  Faces are derived purely
combinatorially from that data, so the same code handles multi-edges and
self-loops.

A dart is a pair ``(edge_id, end)``; dart ``(e, 0)`` leaves ``edges[e][0]``
and dart ``(e, 1)`` leaves ``edges[e][1]``.  For a self-loop both darts leave
the same vertex and are distinguished by their position in the rotation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

Vertex = Hashable
Dart = Tuple[int, int]


class Malformed(ValueError):
    """Input that no verb can read, raised where it is parsed: exit 2."""


class Rejected(RuntimeError):
    """Well-formed input that fails a restriction or a verification, or has
    no solution."""


def json_ints(values: Iterable, what: str) -> list:
    """``values`` as a list, refused unless each is an ``int``, what a JSON
    integer parses to (``int()`` would truncate a float and read ``true`` as 1)."""
    out = list(values)
    if any(type(v) is not int for v in out):
        raise Malformed(f"{what} must be JSON integers")
    return out


def json_key(d: dict, key: str, what: str):
    """``d[key]``, refused unless ``d`` (``what``) is a JSON object with ``key``."""
    if key not in json_object(d, what):
        raise Malformed(f'{what} needs a "{key}" key')
    return d[key]


def json_list(value, what: str) -> list:
    """``value``, refused unless a JSON list (``list()`` takes a string)."""
    if type(value) is not list:
        raise Malformed(f"{what} must be a JSON list")
    return value


def json_int_list(value, what: str) -> list:
    """``value``, refused unless a JSON list of integers."""
    return json_ints(json_list(value, what), what)


def json_edge_key(key, what: str) -> int:
    """The edge id an object key spells, refused unless in canonical decimal: one
    spelling per id, so "00", " 0", "+0", "0_0" or a non-ASCII digit cannot alias 0."""
    if type(key) is not str or not key.isdecimal() or str(int(key)) != key:
        raise Malformed(f"{what} {key!r} is not an edge id in decimal")
    return int(key)


def json_object(value, what: str) -> dict:
    """``value``, refused unless a JSON object (``dict()`` takes pairs)."""
    if type(value) is not dict:
        raise Malformed(f"{what} must be a JSON object")
    return value


def json_coords(value, what: str) -> Dict[str, Tuple[int, int]]:
    """A ``coords`` object: each vertex name mapped to a JSON list of two
    integers; ``what`` names the integers."""
    coords = json_object(value, "coords")
    if any(type(xy) is not list or len(xy) != 2 for xy in coords.values()):
        raise Malformed("each coords value must be a JSON list of two integers")
    json_ints([c for xy in coords.values() for c in xy], what)
    return {k: (x, y) for k, (x, y) in coords.items()}


def json_by_vertex(obj: dict, by_name: Dict[str, Vertex], what: str) -> dict:
    """The JSON object ``obj`` keyed by the vertices its keys name in ``by_name``."""
    for k in json_object(obj, what):
        if k not in by_name:
            raise Malformed(f"{what} names an unknown vertex {k!r}")
    return {by_name[k]: v for k, v in obj.items()}


def json_graph(d: dict) -> Tuple[List[Vertex], List[Tuple[Vertex, Vertex]], Dict[str, Vertex]]:
    """A graph source's ``vertices`` (distinct JSON scalars with distinct
    ``str`` names), ``edges`` (JSON lists of two of them) and vertices by name."""
    vertices = json_list(json_key(d, "vertices", "a graph"), "vertices")
    if any(type(v) in (list, dict) for v in vertices):    # unhashable
        raise Malformed("a vertex id must be a JSON string, number, boolean or null")
    vset = set(vertices)
    if len(vset) != len(vertices):  # also ids equal in Python: 0 and false, 1 and 1.0
        raise Malformed("duplicate vertex ids")
    by_name = {str(v): v for v in vertices}
    if len(by_name) != len(vertices):
        raise Malformed("vertex names collide after string coercion")
    edges = json_list(json_key(d, "edges", "a graph"), "edges")
    if any(type(e) is not list or len(e) != 2 for e in edges):
        raise Malformed("an edge must be a JSON list of two vertex ids")
    for eid, e in enumerate(edges):
        if not all(type(v) not in (list, dict) and v in vset for v in e):
            raise Malformed(f"edge {eid} uses an unknown vertex")
    return vertices, [(u, w) for u, w in edges], by_name


def edges_are_simple(edges: Iterable[Tuple[Vertex, Vertex]]) -> bool:
    """True if no edge is a loop and no two edges join the same two vertices."""
    pairs = [frozenset(e) for e in edges]
    return all(len(p) == 2 for p in pairs) and len(set(pairs)) == len(pairs)


def other_end(dart: Dart) -> Dart:
    return (dart[0], 1 - dart[1])


def component_labels(adj: Sequence[Sequence[int]], cut: Iterable[Tuple[int, int]] = ()) -> List[int]:
    """The smallest node of each node's component in the graph on nodes
    ``0 .. len(adj) - 1`` with adjacency lists ``adj``, less the pairs in ``cut``."""
    blocked: Dict[int, Set[int]] = {}
    for u, w in cut:
        blocked.setdefault(u, set()).add(w)
        blocked.setdefault(w, set()).add(u)
    label = [-1] * len(adj)
    for root in range(len(adj)):
        if label[root] < 0:
            label[root], reached = root, [root]
            for v in reached:
                skip = blocked.get(v, ())
                for w in adj[v]:
                    if label[w] < 0 and w not in skip:
                        label[w] = root
                        reached.append(w)
    return label


def components(
    nodes: Iterable[Vertex], edges: Iterable[Tuple[Vertex, Vertex]]
) -> Dict[Vertex, Vertex]:
    """Each node of the multigraph (``nodes``, ``edges``) mapped to the first
    node of its component in ``nodes`` order.  Self-loops and parallel edges
    are allowed; every edge end must be one of ``nodes``."""
    order = list(dict.fromkeys(nodes))
    index = {v: i for i, v in enumerate(order)}
    adj: List[List[int]] = [[] for _ in order]
    for u, w in edges:
        adj[index[u]].append(index[w])
        adj[index[w]].append(index[u])
    return {v: order[c] for v, c in zip(order, component_labels(adj))}


def edge_disjoint_paths(
    adj: Sequence[Sequence[int]],
    sources: Iterable[int],
    sinks: Iterable[int],
) -> Tuple[int, Set[int]]:
    """Maximum number of edge-disjoint paths from ``sources`` to ``sinks``
    (disjoint node sets) in the simple graph with adjacency lists ``adj``,
    and the sink side of the final residual graph.

    BFS augmenting paths in the unit-capacity residual, one skew-symmetric
    flow per ordered pair; a path never enters a source and ends at its
    first sink, so each adds exactly 1: O(value · (n + m)).  ``sink_side``
    holds the nodes that can still reach a sink over residual arcs; for a
    maximum flow it is the same whichever one was found, and the edges
    with one end in it form a minimum cut.
    """
    sources, sink_set = list(sources), set(sinks)
    flow: Dict[int, Set[int]] = {}  # w in flow[v]: one unit flows v -> w
    value = 0
    while True:
        prev: Dict[int, Optional[int]] = dict.fromkeys(sources)
        queue = deque(sources)
        end = None
        while queue and end is None:
            v = queue.popleft()
            full = flow.get(v, ())
            for w in adj[v]:
                if w not in prev and w not in full:
                    prev[w] = v
                    if w in sink_set:
                        end = w
                        break
                    queue.append(w)
        if end is None:
            break
        w = end
        while (v := prev[w]) is not None:
            if v in flow.get(w, ()):
                flow[w].remove(v)
            else:
                flow.setdefault(v, set()).add(w)
            w = v
        value += 1
    sink_side = set(sink_set)
    queue = deque(sink_side)
    while queue:
        w = queue.popleft()
        for v in adj[w]:
            if v not in sink_side and w not in flow.get(v, ()):
                sink_side.add(v)
                queue.append(v)
    return value, sink_side


class PlanarEmbeddedGraph:
    def __init__(
        self,
        vertices: Sequence[Vertex],
        edges: Sequence[Tuple[Vertex, Vertex]],
        rotation: Dict[Vertex, Sequence[Dart]],
    ):
        self.vertices: List[Vertex] = list(vertices)
        self.edges: List[Tuple[Vertex, Vertex]] = [tuple(e) for e in edges]
        self.rot: Dict[Vertex, Tuple[Dart, ...]] = {v: tuple(rotation.get(v, ())) for v in self.vertices}
        self._faces: Optional[List[List[Dart]]] = None
        self._face_of_dart: Optional[Dict[Dart, int]] = None
        self._edge_faces: Optional[Tuple[Tuple[int, int], ...]] = None
        self._validate()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edge_rotation(
        cls,
        vertices: Sequence[Vertex],
        edges: Sequence[Tuple[Vertex, Vertex]],
        rotation_edge_ids: Dict[Vertex, Sequence[int]],
    ) -> "PlanarEmbeddedGraph":
        """Build from per-vertex clockwise edge-id lists.

        A self-loop id must appear exactly twice in its vertex's list; the
        first occurrence is taken to be end 0.
        """
        rotation: Dict[Vertex, List[Dart]] = {}
        for v in vertices:
            seen_loop: Dict[int, int] = {}
            darts: List[Dart] = []
            for eid in rotation_edge_ids.get(v, ()):
                if not (0 <= eid < len(edges)):
                    raise Malformed(f"vertex {v!r}: rotation names unknown edge {eid}")
                u, w = edges[eid]
                if u == w:  # self-loop
                    if u != v:
                        raise Malformed(f"vertex {v!r}: edge {eid} is not incident")
                    end = seen_loop.get(eid, 0)
                    seen_loop[eid] = end + 1
                    if end > 1:
                        raise Malformed(f"vertex {v!r}: loop {eid} appears more than twice")
                    darts.append((eid, end))
                elif v == u:
                    darts.append((eid, 0))
                elif v == w:
                    darts.append((eid, 1))
                else:
                    raise Malformed(f"vertex {v!r}: edge {eid} is not incident")
            rotation[v] = darts
        return cls(vertices, edges, rotation)

    def _validate(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise Malformed("duplicate vertex ids")
        # an edge end that is no vertex has no rotation to hold its dart
        placed: Dict[Dart, Vertex] = {}
        for v, darts in self.rot.items():
            for d in darts:
                if d in placed:
                    raise Malformed(f"dart {d} appears at both {placed[d]!r} and {v!r}")
                eid, end = d
                if not (0 <= eid < len(self.edges)) or end not in (0, 1):
                    raise Malformed(f"vertex {v!r}: invalid dart {d}")
                if self.edges[eid][end] != v:
                    raise Malformed(f"vertex {v!r}: dart {d} belongs to {self.edges[eid][end]!r}")
                placed[d] = v
        for eid, (u, v) in enumerate(self.edges):
            for end, w in ((0, u), (1, v)):
                if (eid, end) not in placed:
                    raise Malformed(f"edge {eid} missing from rotation at vertex {w!r}")

    # -- basic queries -------------------------------------------------------

    def dart_tail(self, d: Dart) -> Vertex:
        return self.edges[d[0]][d[1]]

    def dart_head(self, d: Dart) -> Vertex:
        return self.edges[d[0]][1 - d[1]]

    def degree(self, v: Vertex) -> int:
        return len(self.rot[v])

    def is_simple(self) -> bool:
        return edges_are_simple(self.edges)

    def is_connected(self) -> bool:
        return len(set(components(self.vertices, self.edges).values())) <= 1

    def next_at_vertex(self, d: Dart) -> Dart:
        """Next dart clockwise after ``d`` around its tail vertex."""
        v = self.dart_tail(d)
        darts = self.rot[v]
        i = darts.index(d)
        return darts[(i + 1) % len(darts)]

    def next_in_face(self, d: Dart) -> Dart:
        """Face-walk successor: step to the head of ``d`` and turn to the
        next dart clockwise after the reversal."""
        return self.next_at_vertex(other_end(d))

    # -- faces ---------------------------------------------------------------

    def facial_walks(self) -> List[List[Dart]]:
        """All facial walks, canonicalized.

        Each walk is rotated to start at its lexicographically smallest dart
        and the list of walks is sorted by that dart, so face ids (indices
        into the returned list) are deterministic.  An edgeless one-vertex
        graph yields a single empty walk for its only face.
        """
        if self._faces is not None:
            return self._faces
        if not self.edges:
            self._faces = [[]]
            self._face_of_dart = {}
            return self._faces
        unvisited = {(e, end) for e in range(len(self.edges)) for end in (0, 1)}
        walks: List[List[Dart]] = []
        while unvisited:
            start = min(unvisited)
            walk = [start]
            unvisited.discard(start)
            d = self.next_in_face(start)
            while d != start:
                walk.append(d)
                unvisited.discard(d)
                d = self.next_in_face(d)
            k = walk.index(min(walk))
            walks.append(walk[k:] + walk[:k])
        walks.sort(key=lambda w: w[0])
        self._faces = walks
        self._face_of_dart = {d: i for i, w in enumerate(walks) for d in w}
        return walks

    def face_of_dart(self, d: Dart) -> int:
        self.facial_walks()
        assert self._face_of_dart is not None
        return self._face_of_dart[d]

    def face_count(self) -> int:
        return len(self.facial_walks())

    def edge_faces(self) -> Tuple[Tuple[int, int], ...]:
        """For each edge, the pair (face of dart 0, face of dart 1),
        computed once per graph."""
        if self._edge_faces is None:
            self._edge_faces = tuple(
                (self.face_of_dart((e, 0)), self.face_of_dart((e, 1)))
                for e in range(len(self.edges))
            )
        return self._edge_faces

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "rotation": {str(v): [d[0] for d in self.rot[v]] for v in self.vertices},
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "PlanarEmbeddedGraph":
        vertices, edges, by_name = json_graph(d)
        rotation = json_by_vertex(json_key(d, "rotation", "an embedded graph"), by_name, "rotation")
        return cls.from_edge_rotation(vertices, edges, {v: json_ints(
            json_list(ids, "a vertex's rotation"), "rotation edge ids") for v, ids in rotation.items()})


# ---------------------------------------------------------------------------
# problem instances
# ---------------------------------------------------------------------------

@dataclass
class MultiterminalInstance:
    """Edge-deletion multiterminal cut on an embedded graph.

    A solution is an edge set whose removal leaves no two terminals in one
    component; weights default to 1 per edge.  The constructor checks the
    instance, which is not changed after.
    """

    graph: PlanarEmbeddedGraph
    terminals: List[Vertex]
    weights: Dict[int, int] = field(default_factory=dict)

    def weight(self, eid: int) -> int:
        return self.weights.get(eid, 1)

    def validate(self) -> None:
        """Raise :class:`Malformed` unless the instance is well formed;
        the constructor calls this, and nothing changes it after."""
        vset = set(self.graph.vertices)
        for t in self.terminals:
            if type(t) in (list, dict) or t not in vset:
                raise Malformed(f"terminal {t!r} is not a vertex")
        if len(set(self.terminals)) != len(self.terminals):
            raise Malformed("duplicate terminals")
        for eid, w in self.weights.items():
            if not (0 <= eid < len(self.graph.edges)):
                raise Malformed(f"weight names unknown edge {eid}")
            if w < 1:
                raise Malformed(f"edge {eid} has non-positive weight")

    __post_init__ = validate

    def to_dict(self) -> Dict[str, object]:
        d = self.graph.to_dict()
        d["terminals"] = list(self.terminals)
        if self.weights:
            d["weights"] = {str(k): v for k, v in self.weights.items()}
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "MultiterminalInstance":
        g = PlanarEmbeddedGraph.from_dict(d)
        weights = {json_edge_key(k, "weight key"): v for k, v in
                   json_object(d.get("weights", {}), "weights").items()}
        json_ints(weights.values(), "edge weights")
        return cls(g, json_list(d.get("terminals", []), "terminals"), weights)


@dataclass
class SubdivisionInstance:
    """Keep a minimum edge set whose embedding leaves every marked face
    point in its own face.

    ``terminals`` maps a point id to the face id (of the full graph) that
    hosts it.  ``groups``, when present, partitions the edges into the
    fragment groups of one source dual edge each; solutions are then unions
    of whole groups and each used group is counted with mass 2 regardless of
    its fragment count (see the solver).  The constructor checks the
    instance, which is not changed after.
    """

    graph: PlanarEmbeddedGraph
    terminals: Dict[str, int]
    groups: Optional[List[List[int]]] = None

    def edge_groups(self) -> List[List[int]]:
        """The groups, or one singleton group per edge when there are none."""
        if self.groups is not None:
            return self.groups
        return [[e] for e in range(len(self.graph.edges))]

    def validate(self) -> None:
        """Raise :class:`Malformed` unless the instance is well formed;
        the constructor calls this, and nothing changes it after."""
        nf = self.graph.face_count()
        if len(set(self.terminals.values())) != len(self.terminals):
            raise Malformed("two points share a face")
        for pid, f in self.terminals.items():
            if not (0 <= f < nf):
                raise Malformed(f"point {pid!r} names unknown face {f}")
        if self.groups is not None:
            flat = [e for grp in self.groups for e in grp]
            if sorted(flat) != list(range(len(self.graph.edges))):
                raise Malformed("groups must partition the edge set")
            if not all(self.groups):
                raise Malformed("a group must hold at least one edge")

    __post_init__ = validate

    def to_dict(self) -> Dict[str, object]:
        d = self.graph.to_dict()
        d["terminals"] = {str(k): v for k, v in self.terminals.items()}
        if self.groups is not None:
            d["groups"] = [list(grp) for grp in self.groups]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "SubdivisionInstance":
        g = PlanarEmbeddedGraph.from_dict(d)
        groups = d.get("groups")
        terminals = json_object(json_key(d, "terminals", "a subdivision instance"), "terminals")
        json_ints(terminals.values(), "terminal faces")
        return cls(
            graph=g,
            terminals={str(k): v for k, v in terminals.items()},
            groups=[json_int_list(grp, "group edge ids") for grp in json_list(groups, "groups")]
            if groups is not None else None,
        )


def face_components(g: PlanarEmbeddedGraph, kept_edges: Iterable[int]) -> Dict[int, int]:
    """Face partition of the subgraph retaining ``kept_edges``.

    Deleting an edge merges the two faces on its sides, so the faces of the
    retained subgraph are the components of the dual restricted to deleted
    edges.  Returns a face-id -> smallest face id of its part map.
    """
    kept = set(kept_edges)
    adj: List[List[int]] = [[] for _ in range(g.face_count())]
    for eid, (f, h) in enumerate(g.edge_faces()):
        if eid not in kept:
            adj[f].append(h)
            adj[h].append(f)
    return dict(enumerate(component_labels(adj)))


def subdivision_solution_ok(inst: SubdivisionInstance, kept_edges: Iterable[int]) -> bool:
    """True if retaining ``kept_edges`` leaves all marked points in
    pairwise distinct faces."""
    comp = face_components(inst.graph, kept_edges)
    reps = [comp[f] for f in inst.terminals.values()]
    return len(set(reps)) == len(reps)


# ---------------------------------------------------------------------------
# reduction: planar multiterminal cut -> planar subdivision
# ---------------------------------------------------------------------------

@dataclass
class PmcReduction:
    instance: SubdivisionInstance
    # source edge id -> its dual-fragment edges in the target; every target
    # edge lies in exactly one group
    pairing: Dict[int, List[int]]
    vertex_face: Dict[Vertex, int] = field(default_factory=dict)  # source vertex -> target face


def reduce_pmc_to_subdivision(mti: MultiterminalInstance) -> PmcReduction:
    """Compile a planar multiterminal cut instance into a subdivision
    instance on the subdivided geometric dual, built in one pass from the
    source's faces.

    Target vertex ``i`` is source face ``i``.  Source edge ``e`` with faces
    ``(f0, f1)`` becomes the path ``f0 - x<e> - f1``, or ``f0 - x<e>a -
    x<e>b - f0`` for a bridge (``f0 == f1``), so the target is simple; its
    fragments are ``pairing[e]``.  Face ``i``'s rotation is its facial walk
    with each source dart replaced by the fragment dart at the same end.  A
    face of the target corresponds to each source vertex, and each terminal
    contributes one marked point in its face.  A solution of mass 2M in the
    target (counting each used fragment group as 2) corresponds to a source
    solution of M edges; ``lift_subdivision_solution`` maps back.
    """
    g = mti.graph
    if not g.is_connected():
        raise Rejected("source graph must be connected")
    if any(w != 1 for w in mti.weights.values()):
        raise Rejected("this reduction handles unweighted instances only")
    walks = g.facial_walks()
    vertices: List[Vertex] = list(range(len(walks)))
    edges: List[Tuple[Vertex, Vertex]] = []
    rotation: Dict[Vertex, List[Dart]] = {}
    pairing: Dict[int, List[int]] = {}
    for e, (f0, f1) in enumerate(g.edge_faces()):
        mids = [f"x{e}"] if f0 != f1 else [f"x{e}a", f"x{e}b"]
        path = [f0, *mids, f1]
        first = len(edges)
        edges.extend(zip(path, path[1:]))
        pairing[e] = list(range(first, len(edges)))
        for i, m in enumerate(mids):
            rotation[m] = [(first + i, 1), (first + i + 1, 0)]
        vertices.extend(mids)

    def fragment_dart(d: Dart) -> Dart:
        # end 0 leaves f0 on the first fragment, end 1 leaves f1 on the last
        return pairing[d[0]][-d[1]], d[1]

    for i, walk in enumerate(walks):
        rotation[i] = [fragment_dart(d) for d in walk]
    target = PlanarEmbeddedGraph(vertices, edges, rotation)
    # connected, so only an edgeless one-vertex source has an empty rotation
    vertex_face = {v: target.face_of_dart(fragment_dart(g.rot[v][0])) if g.rot[v] else 0
                   for v in g.vertices}
    inst = SubdivisionInstance(
        graph=target,
        terminals={str(t): vertex_face[t] for t in mti.terminals},
        groups=list(pairing.values()),
    )
    return PmcReduction(instance=inst, pairing=pairing, vertex_face=vertex_face)


def lift_subdivision_solution(
    pairing: Dict[int, List[int]], kept_edges: Iterable[int]
) -> List[int]:
    """Source edges whose group of target elements is entirely kept: the
    back-map of every reduction that turns a source edge into a group, the
    fragments of a dual edge here and a fence wall in
    :func:`~disklab.gadgets.lift_fence_to_edges`.

    Fragments of a partially-kept group never change the face partition, so
    closing the solution under pairing (dropping incomplete groups) loses no
    separation power.
    """
    kept = set(kept_edges)
    return sorted(src for src, frags in pairing.items() if kept.issuperset(frags))


def multiterminal_solution_ok(mti: MultiterminalInstance, removed: Iterable[int]) -> bool:
    """True if deleting ``removed`` separates all terminals pairwise."""
    removed = set(removed)
    g = mti.graph
    comp = components(g.vertices, (e for eid, e in enumerate(g.edges) if eid not in removed))
    reps = [comp[t] for t in mti.terminals]
    return len(set(reps)) == len(reps)


def fvs_solution_ok(
    vertices: Sequence[Vertex], edges: Sequence[Tuple[Vertex, Vertex]], removed: Set[Vertex]
) -> bool:
    """True if deleting the vertices in ``removed`` leaves a forest."""
    kept = [v for v in vertices if v not in removed]
    kept_edges = [(u, w) for u, w in edges if u not in removed and w not in removed]
    comp = components(kept, kept_edges)
    # cycle rank edges - nodes + components is zero exactly for a forest
    return len(kept_edges) - len(comp) + len(set(comp.values())) == 0
