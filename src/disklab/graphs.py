"""Plain multigraphs, and embedded planar multigraphs as rotation systems.

A :class:`Graph` is a vertex list and an edge list; loops and parallel edges
are allowed.  It is fixed once built and indexed then: vertex positions and
edge ends as positions.  Its cycle rank, edges - vertices + components, is
zero exactly for a forest, and decides feedback vertex sets
(:func:`fvs_solution_ok`).

A :class:`PlanarEmbeddedGraph` is a graph plus, for every vertex, the
clockwise cyclic order of its edge ends ("darts").  Faces are derived purely
combinatorially from that data, so the same code handles multi-edges and
self-loops.  A dart is a pair ``(edge_id, end)``; dart ``(e, 0)`` leaves
``edges[e][0]`` and dart ``(e, 1)`` leaves ``edges[e][1]``.  For a self-loop
both darts leave the same vertex and are distinguished by their position in
the rotation.  It is indexed further when built: facial walks and each
edge's two faces.  Multiterminal cut and face separation are edge multiway
cuts of the graph and of its face graph, decided by one test on those
indices, :func:`terminals_separated`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Collection, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

Vertex = Hashable
Dart = Tuple[int, int]


class Malformed(ValueError):
    """Input that no verb can read, raised where it is parsed: exit 2."""


class Rejected(RuntimeError):
    """Well-formed input that fails a restriction or a verification, or has
    no solution."""


class Refused(RuntimeError):
    """Well-formed input that needs more work than a :class:`Meter` allows."""


class Meter:
    """Units of work, charged where the work is done; :meth:`charge` raises
    :class:`Refused` once more than ``allowance`` units are spent."""

    def __init__(self, what: str, allowance: int):
        self.what, self.allowance, self.spent = what, allowance, 0

    def charge(self, units: int) -> None:
        self.spent += units
        if self.spent > self.allowance:
            raise Refused(f"the {self.what} meter's allowance of {self.allowance} is spent: "
                          f"{self.spent} charged")


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


def edge_component_labels(
    n: int, ends: Iterable[Tuple[int, int]], cut: Iterable[int] = ()
) -> List[int]:
    """:func:`component_labels` of the multigraph on nodes ``0 .. n - 1`` in
    which edge ``e`` joins the two nodes ``ends[e]``, less the edge ids in
    ``cut``.  Self-loops and parallel edges are allowed."""
    cut = set(cut)
    adj: List[List[int]] = [[] for _ in range(n)]
    for e, (u, w) in enumerate(ends):
        if e not in cut:
            adj[u].append(w)
            adj[w].append(u)
    return component_labels(adj)


def terminals_separated(
    n: int, ends: Iterable[Tuple[int, int]], cut: Iterable[int], terminals: Collection[int]
) -> bool:
    """The multiway-cut test: True if deleting the edge ids in ``cut`` from
    the multigraph of :func:`edge_component_labels` leaves the ``terminals``
    (distinct nodes) in pairwise distinct components."""
    label = edge_component_labels(n, ends, cut)
    return len({label[t] for t in terminals}) == len(terminals)


def edge_disjoint_paths(
    adj: Sequence[Sequence[int]],
    sources: Iterable[int],
    sinks: Iterable[int],
) -> Tuple[int, List[Set[int]]]:
    """Maximum number of edge-disjoint paths from ``sources`` to ``sinks``
    (disjoint node sets) in the simple graph on nodes 0 .. len(adj) - 1
    with adjacency lists ``adj``, and a flow that carries them: ``w in
    flow[v]`` when one unit flows v -> w.

    BFS augmenting paths in the unit-capacity residual, one skew-symmetric
    flow per ordered pair, on index lists; a path never enters a source and
    ends at its first sink, where its search stops, so each adds exactly
    1: O(value · (n + m)).  A minimum cut is read off the flow by
    :func:`residual_sink_side`, a separate sweep for the callers that need
    one.
    """
    sources = list(sources)
    is_sink = [False] * len(adj)
    for t in sinks:
        is_sink[t] = True
    flow: List[Set[int]] = [set() for _ in adj]
    value = 0
    while True:
        prev = [-1] * len(adj)
        w = _augmenting_path_end(adj, flow, sources, is_sink, prev)
        if w < 0:
            return value, flow
        while (v := prev[w]) != w:
            if v in flow[w]:
                flow[w].remove(v)
            else:
                flow[v].add(w)
            w = v
        value += 1


def _augmenting_path_end(adj: Sequence[Sequence[int]], flow: Sequence[Set[int]],
                         sources: List[int], is_sink: List[bool], prev: List[int]) -> int:
    """The sink a BFS in the residual of ``flow`` reaches first, or -1;
    ``prev``, all -1 on entry, gets each reached node's BFS parent, and
    each source itself."""
    for s in sources:
        prev[s] = s
    queue = list(sources)
    for v in queue:
        full = flow[v]
        for w in adj[v]:
            if prev[w] < 0 and w not in full:
                prev[w] = v
                if is_sink[w]:
                    return w
                queue.append(w)
    return -1


def residual_sink_side(adj: Sequence[Sequence[int]], flow: Sequence[Set[int]],
                       sinks: Iterable[int]) -> Set[int]:
    """The nodes that can still reach ``sinks`` over the residual arcs of
    ``flow`` (as :func:`edge_disjoint_paths` returns it).  For a maximum
    flow it is the same whichever one was found, and the edges with one end
    in it form a minimum cut."""
    side = set(sinks)
    queue = list(side)
    for w in queue:
        for v in adj[w]:
            if v not in side and w not in flow[v]:
                side.add(v)
                queue.append(v)
    return side


class Graph:
    """A multigraph on distinct vertices, indexed once it is checked:
    ``index`` maps a vertex to its position, ``ends[e]`` holds the positions
    of edge ``e``'s two ends."""

    def __init__(self, vertices: Sequence[Vertex], edges: Sequence[Tuple[Vertex, Vertex]]):
        self.vertices: List[Vertex] = list(vertices)
        self.edges: List[Tuple[Vertex, Vertex]] = [tuple(e) for e in edges]
        self._validate()
        self.index: Dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        self.ends: Tuple[Tuple[int, int], ...] = tuple((self.index[u], self.index[w]) for u, w in self.edges)

    def _validate(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise Malformed("duplicate vertex ids")
        vset = set(self.vertices)
        for eid, e in enumerate(self.edges):
            if not all(v in vset for v in e):
                raise Malformed(f"edge {eid} uses an unknown vertex")

    def is_simple(self) -> bool:
        """True if no edge is a loop and no two edges join the same two vertices."""
        pairs = [frozenset(e) for e in self.ends]
        return all(len(p) == 2 for p in pairs) and len(set(pairs)) == len(pairs)

    def component_count(self) -> int:
        return len(set(edge_component_labels(len(self.vertices), self.ends)))

    def is_connected(self) -> bool:
        return self.component_count() <= 1

    def cycle_rank(self, removed: Iterable[int] = ()) -> int:
        """Edges - vertices + components of the graph less the vertices at
        the positions in ``removed``: its number of independent cycles,
        zero exactly for a forest.  A removed vertex stays as a node of its
        own component, which adds one to each of the last two terms."""
        removed = set(removed)
        kept = [(u, w) for u, w in self.ends if u not in removed and w not in removed]
        n = len(self.vertices)
        return len(kept) - n + len(set(edge_component_labels(n, kept)))


class PlanarEmbeddedGraph(Graph):
    def __init__(
        self,
        vertices: Sequence[Vertex],
        edges: Sequence[Tuple[Vertex, Vertex]],
        rotation: Dict[Vertex, Sequence[Dart]],
    ):
        self.rot: Dict[Vertex, Tuple[Dart, ...]] = {v: tuple(rotation.get(v, ())) for v in vertices}
        super().__init__(vertices, edges)
        self._faces, self._face_of_dart = self._walk_faces()
        self._edge_faces = tuple((self._face_of_dart[(e, 0)], self._face_of_dart[(e, 1)])
                                 for e in range(len(self.edges)))

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

    # -- faces ---------------------------------------------------------------

    def facial_walks(self) -> List[List[Dart]]:
        """All facial walks, canonicalized.

        Each walk starts at its lexicographically smallest dart and the
        walks are in the order of that dart, so face ids (indices into the
        returned list) are deterministic.  An edgeless one-vertex graph
        yields a single empty walk for its only face.
        """
        return self._faces

    def _walk_faces(self) -> Tuple[List[List[Dart]], Dict[Dart, int]]:
        # a dart's successor on its face: at its head, the next dart
        # clockwise after its reversal
        succ = {other_end(d): nxt for darts in self.rot.values()
                for d, nxt in zip(darts, darts[1:] + darts[:1])}
        walks: List[List[Dart]] = []
        face: Dict[Dart, int] = {}
        for d in product(range(len(self.edges)), (0, 1)):    # in order, so a walk starts at its least
            if d not in face:
                walks.append([])
            while d not in face:
                face[d] = len(walks) - 1
                walks[-1].append(d)
                d = succ[d]
        return walks or [[]], face

    def face_of_dart(self, d: Dart) -> int:
        return self._face_of_dart[d]

    def face_count(self) -> int:
        return len(self._faces)

    def edge_faces(self) -> Tuple[Tuple[int, int], ...]:
        """For each edge, the pair (face of dart 0, face of dart 1): the
        ends of its dual edge in the face graph."""
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


def subdivision_solution_ok(inst: SubdivisionInstance, kept_edges: Iterable[int]) -> bool:
    """True if retaining ``kept_edges`` leaves all marked points in
    pairwise distinct faces: a multiway cut of the face graph, where
    keeping an edge deletes its dual edge (:meth:`~PlanarEmbeddedGraph.edge_faces`)."""
    g = inst.graph
    return terminals_separated(g.face_count(), g.edge_faces(), kept_edges, inst.terminals.values())


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
    g = mti.graph
    return terminals_separated(len(g.vertices), g.ends, removed, [g.index[t] for t in mti.terminals])


def fvs_solution_ok(g: Graph, removed: Iterable[int]) -> bool:
    """True if deleting the vertices at the positions in ``removed`` leaves a forest."""
    return g.cycle_rank(removed) == 0
