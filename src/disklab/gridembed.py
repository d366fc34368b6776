"""Straight-line drawings of embedded graphs on small integer grids.

The drawing pipeline has to respect the prescribed rotation system exactly —
downstream synthesis carves disk chains along the drawn segments and the
separation argument needs the drawn cyclic edge order at every vertex to be
the combinatorial one.  All drawing validity checks run in exact integer
arithmetic on the grid coordinates (face location takes rational query
points); floats appear only inside networkx's coordinate assignment, whose
integer output is then re-verified from scratch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .base import Dart, Malformed, Vertex, json_by_vertex, json_coords, json_ints, json_key
from .geometry import (
    Point,
    point_on_segment,
    ray_crossing,
    segments_cross_properly,
)
from .graphs import Graph, PlanarEmbeddedGraph

Coords = Dict[Vertex, Tuple[int, int]]


class DrawingError(Malformed):
    """A straight-line drawing violates planarity or the rotation system: the
    one :class:`Malformed` that :func:`drawing_valid` and marked points catch."""


# ---------------------------------------------------------------------------
# exact validity checks
# ---------------------------------------------------------------------------

def _cw_angle_cmp(u: Tuple[int, int], v: Tuple[int, int]) -> int:
    """Total order on nonzero integer vectors by clockwise angle from the
    positive x axis (exact)."""
    def half(w):
        # 0 for the open upper half plane plus the positive x axis
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross == 0:
        return 0
    # cross(u, v) < 0 means u sits ccw-later (larger angle), so u leads the
    # descending sweep within its half plane
    return -1 if cross < 0 else 1


def _drawn_rotation(g: PlanarEmbeddedGraph, coords: Coords, v: Vertex) -> List[Dart]:
    """Clockwise dart order around ``v`` as drawn.

    Raises :class:`DrawingError` when two darts at ``v`` point the same way
    (the cyclic order would be ambiguous).
    """
    vecs: List[Tuple[Tuple[int, int], Dart]] = []
    vx, vy = coords[v]
    for d in g.rot[v]:
        w = g.dart_head(d)
        wx, wy = coords[w]
        vec = (wx - vx, wy - vy)
        if vec == (0, 0):
            raise DrawingError(f"edge {d[0]} has zero length at {v!r}")
        vecs.append((vec, d))
    vecs.sort(key=functools.cmp_to_key(lambda a, b: _cw_angle_cmp(a[0], b[0])))
    for (u, du), (w, dw) in zip(vecs, vecs[1:]):
        if _cw_angle_cmp(u, w) == 0:
            raise DrawingError(
                f"darts {du} and {dw} leave {v!r} in the same direction"
            )
    return [d for _, d in vecs]


def induced_rotation(g: PlanarEmbeddedGraph, coords: Coords) -> Dict[Vertex, List[Dart]]:
    """Clockwise dart order around each vertex as drawn (:func:`_drawn_rotation`)."""
    return {v: _drawn_rotation(g, coords, v) for v in g.vertices}


def cyclic_equal(a: Sequence, b: Sequence) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    try:
        k = list(b).index(a[0])
    except ValueError:
        return False
    n = len(a)
    return all(a[i] == b[(k + i) % n] for i in range(n))


def rotation_equivalent(g: PlanarEmbeddedGraph, coords: Coords) -> bool:
    drawn = induced_rotation(g, coords)
    return all(cyclic_equal(list(g.rot[v]), drawn[v]) for v in g.vertices)


def _segments_conflict(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Whether drawn edges ab and cd touch anywhere but at a shared vertex.

    Distinct vertices sit at distinct points, so the edges share a vertex
    exactly when they share an endpoint; edges sharing both ends are
    parallel, which straight-line drawings of simple graphs never have.
    """
    shared = (a == c or a == d) + (b == c or b == d)
    if shared == 1:
        return (
            (point_on_segment(c, a, b) and c not in (a, b))
            or (point_on_segment(d, a, b) and d not in (a, b))
            or (point_on_segment(a, c, d) and a not in (c, d))
            or (point_on_segment(b, c, d) and b not in (c, d))
        )
    return shared == 0 and (
        segments_cross_properly(a, b, c, d)
        or point_on_segment(a, c, d) or point_on_segment(b, c, d)
        or point_on_segment(c, a, b) or point_on_segment(d, a, b)
    )


def require_simple(g: Graph) -> None:
    """Refuse a loop or a parallel edge: no straight-line drawing has one."""
    if not g.is_simple():
        raise DrawingError("straight-line drawings require a simple graph")


def check_drawing(g: PlanarEmbeddedGraph, coords: Coords) -> None:
    """Exact validity: integer coordinates, distinct vertices, no segment
    contacts except at shared endpoints, no vertex on a foreign edge, and the
    drawn rotation matches the combinatorial one.  Raises DrawingError."""
    require_simple(g)
    if set(coords) != set(g.vertices):
        raise DrawingError("coordinate map does not cover the vertex set")
    pts: Dict[Vertex, Tuple[int, int]] = {}
    for v, xy in coords.items():
        if len(xy) != 2 or not all(isinstance(c, int) for c in xy):
            raise DrawingError(f"vertex {v!r} has non-integer coordinates {xy!r}")
        pts[v] = (xy[0], xy[1])
    if len(set(pts.values())) != len(pts):
        raise DrawingError("two vertices share a grid point")

    segs = [(pts[u], pts[v]) for u, v in g.edges]
    for i in range(len(segs)):
        a, b = segs[i]
        for j in range(i + 1, len(segs)):
            c, d = segs[j]
            if _segments_conflict(a, b, c, d):
                if a in (c, d) or b in (c, d):
                    raise DrawingError(f"edges {i} and {j} overlap beyond their shared vertex")
                raise DrawingError(f"edges {i} and {j} intersect")
    for w, p in pts.items():
        for eid, (u, v) in enumerate(g.edges):
            if w not in (u, v) and point_on_segment(p, pts[u], pts[v]):
                raise DrawingError(f"vertex {w!r} lies on edge {eid}")
    if not rotation_equivalent(g, coords):
        raise DrawingError("drawn rotation differs from the prescribed one")


def drawing_valid(g: PlanarEmbeddedGraph, coords: Coords) -> bool:
    try:
        check_drawing(g, coords)
        return True
    except DrawingError:
        return False


def moved_vertex_valid(g: PlanarEmbeddedGraph, coords: Coords, v: Vertex) -> bool:
    """:func:`drawing_valid` of a drawing that was valid before its vertex
    ``v`` alone moved, by the clauses of :func:`check_drawing` that involve
    ``v``: its point is free, its edges meet no edge and pass through no
    vertex, its point is on no other edge, and the drawn rotation at ``v``
    and at each neighbour is the prescribed one."""
    p = coords[v]
    if any(xy == p and w != v for w, xy in coords.items()):
        return False
    segs = [(coords[a], coords[b]) for a, b in g.edges]
    own = {e for e, _ in g.rot[v]}
    for e in own:
        a, b = segs[e]
        if any(f != e and _segments_conflict(a, b, c, d) for f, (c, d) in enumerate(segs)):
            return False
        if any(w not in g.edges[e] and point_on_segment(xy, a, b) for w, xy in coords.items()):
            return False
    if any(f not in own and point_on_segment(p, a, b) for f, (a, b) in enumerate(segs)):
        return False
    try:
        return all(cyclic_equal(list(g.rot[u]), _drawn_rotation(g, coords, u))
                   for u in [v, *map(g.dart_head, g.rot[v])])
    except DrawingError:
        return False


# ---------------------------------------------------------------------------
# face location in a drawing
# ---------------------------------------------------------------------------

def winding_number(walk_points: Sequence[Tuple[Point, Point]], p: Point) -> int:
    """Exact winding number of a closed polygonal walk around ``p``.

    ``walk_points`` is the list of directed segments.  ``p`` must avoid the
    walk itself.
    """
    w = 0
    for a, b in walk_points:
        if point_on_segment(p, a, b):
            raise DrawingError("query point lies on the walk")
        w += ray_crossing(a, b, p)
    return w


def _walk_segments(g: PlanarEmbeddedGraph, coords: Coords, face: int):
    return [
        (coords[g.dart_tail(d)], coords[g.dart_head(d)])
        for d in g.facial_walks()[face]
    ]


def locate_face(g: PlanarEmbeddedGraph, coords: Coords, p: Point) -> int:
    """Face of the drawing containing ``p`` (must be off every edge).

    Bounded face walks run counterclockwise under the clockwise-rotation
    convention, so ``p`` sits in the unique face whose walk winds +1 around
    it, or in the face with no such walk when every winding is <= 0.
    """
    hits = []
    for f in range(g.face_count()):
        segs = _walk_segments(g, coords, f)
        if segs and winding_number(segs, p) == 1:
            hits.append(f)
    if len(hits) == 1:
        return hits[0]
    if not hits:
        # every bounded walk missed: p lies in the unbounded face, which is
        # the one whose own walk does not wind +1 around its points
        unbounded = [f for f in range(g.face_count()) if _face_is_unbounded(g, coords, f)]
        if len(unbounded) == 1:
            return unbounded[0]
    raise DrawingError("face location failed; drawing may be invalid")


def _face_is_unbounded(g: PlanarEmbeddedGraph, coords: Coords, face: int) -> bool:
    """The unbounded face's walk has non-positive total signed area."""
    segs = _walk_segments(g, coords, face)
    if not segs:
        return True
    twice_area = sum(a[0] * b[1] - b[0] * a[1] for a, b in segs)
    return twice_area <= 0


# ---------------------------------------------------------------------------
# drawing synthesis
# ---------------------------------------------------------------------------

def _nx_embedding(g: PlanarEmbeddedGraph) -> "nx.PlanarEmbedding":
    """The rotation system on vertex indices into ``g.vertices``: networkx
    iterates over node sets, and int order does not depend on
    ``PYTHONHASHSEED`` as string order does."""
    import networkx as nx

    index = g.index
    emb = nx.PlanarEmbedding()
    for v in g.vertices:
        ref = None
        for d in g.rot[v]:
            w = index[g.dart_head(d)]
            emb.add_half_edge_cw(index[v], w, ref)
            ref = w
    emb.check_structure()
    return emb


def _normalize(coords: Coords) -> Coords:
    xmin = min(x for x, _ in coords.values())
    ymin = min(y for _, y in coords.values())
    return {v: (x - xmin, y - ymin) for v, (x, y) in coords.items()}


def _spans(coords: Coords) -> Tuple[int, int]:
    xs = [x for x, _ in coords.values()]
    ys = [y for _, y in coords.values()]
    return max(xs) - min(xs), max(ys) - min(ys)


def grid_size_of(coords: Coords) -> int:
    w, h = _spans(coords)
    return max(w, h, 2)


def draw_with_networkx(g: PlanarEmbeddedGraph) -> Coords:
    if not g.is_connected():
        raise DrawingError("drawing requires a connected graph")
    if len(g.vertices) == 1:
        return {g.vertices[0]: (0, 0)}
    if len(g.vertices) == 2:
        a, b = g.vertices
        return {a: (0, 0), b: (1, 0)}
    import networkx as nx

    pos = nx.combinatorial_embedding_to_pos(_nx_embedding(g), fully_triangulate=False)
    coords = {g.vertices[i]: (int(x), int(y)) for i, (x, y) in pos.items()}
    return _normalize(coords)


def compact_drawing(g: PlanarEmbeddedGraph, coords: Coords) -> Coords:
    """Shrink a valid drawing by deleting empty grid rows/columns and nudging
    vertices toward the origin, keeping only moves that re-verify exactly
    (a nudge by :func:`moved_vertex_valid`); at most eight moves."""
    best = _normalize(dict(coords))

    def try_axis_compression(cur: Coords) -> Optional[Coords]:
        for axis in (0, 1):
            used = sorted({xy[axis] for xy in cur.values()})
            rank = {c: i for i, c in enumerate(used)}
            if rank and used[-1] + 1 > len(used):
                cand = {
                    v: ((rank[xy[0]], xy[1]) if axis == 0 else (xy[0], rank[xy[1]]))
                    for v, xy in cur.items()
                }
                if cand != cur and drawing_valid(g, cand):
                    return cand
                # all-at-once failed: drop empty lines one at a time
                for gap in range(len(used)):
                    if used[gap] != gap:
                        shift = used[gap] - gap
                        c2 = {
                            v: ((xy[0] - shift, xy[1]) if axis == 0 and xy[0] >= used[gap]
                                else (xy[0], xy[1] - shift) if axis == 1 and xy[1] >= used[gap]
                                else xy)
                            for v, xy in cur.items()
                        }
                        if drawing_valid(g, c2):
                            return c2
                        break
        return None

    def try_nudges(cur: Coords) -> Optional[Coords]:
        w, h = _spans(cur)
        order = sorted(cur, key=lambda v: -(cur[v][0] + cur[v][1]))
        for v in order:
            x, y = cur[v]
            for dx, dy in ((-1, -1), (-1, 0), (0, -1)):
                nxy = (x + dx, y + dy)
                if nxy[0] < 0 or nxy[1] < 0:
                    continue
                cand = dict(cur)
                cand[v] = nxy
                if moved_vertex_valid(g, cand, v):
                    nw, nh = _spans(cand)
                    if (max(nw, nh), nw * nh) <= (max(w, h), w * h):
                        return _normalize(cand)
        return None

    for _ in range(8):
        step = try_axis_compression(best)
        if step is None:
            step = try_nudges(best)
        if step is None:
            break
        best = _normalize(step)
    return best


class _BoxTable:
    """Bit masks for the [0,k] x [0,k] box.  Cell ``c`` is the point
    ``(c // (k + 1), c % (k + 1))``, so ascending cells are the search's
    x-major order; segment ``s`` joins a pair of distinct cells."""

    def __init__(self, k: int):
        side = k + 1
        self.points = [(x, y) for x in range(side) for y in range(side)]
        cells = len(self.points)
        # seg_id[a][b]: the segment joining cells a and b
        self.seg_id = [[-1] * cells for _ in range(cells)]
        self.ends: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
        # seg_cells[s]: the cells on the closed segment s
        self.seg_cells: List[int] = []
        for a in range(cells):
            for b in range(a + 1, cells):
                self.seg_id[a][b] = self.seg_id[b][a] = len(self.ends)
                pa, pb = self.points[a], self.points[b]
                self.ends.append((pa, pb))
                self.seg_cells.append(sum(
                    1 << c for c, p in enumerate(self.points) if point_on_segment(p, pa, pb)
                ))
        # conflicts[s]: the segments s conflicts with, filled on first use
        self.conflicts: List[Optional[int]] = [None] * len(self.ends)
        # orbit_min[c]: the least cell of c's orbit under the box's quarter
        # turns; centre: the cell they all fix, -1 when k is odd
        self.orbit_min = [min(c, (k - y) * side + x, (k - x) * side + k - y, y * side + k - x)
                          for c, (x, y) in enumerate(self.points)]
        self.centre = k // 2 * (side + 1) if k % 2 == 0 else -1

    def fill_conflicts(self, s: int) -> int:
        a, b = self.ends[s]
        row = 0
        for t, (c, d) in enumerate(self.ends):
            if _segments_conflict(a, b, c, d):
                row |= 1 << t
        self.conflicts[s] = row
        return row


@functools.lru_cache(maxsize=None)
def _box_table(k: int) -> _BoxTable:
    return _BoxTable(k)


# the minimal-grid search's largest box [0,k] x [0,k], and its budget per box
MAX_SEARCH_BOX = 4
SEARCH_BUDGET = 300_000


def search_minimal_drawing(g: PlanarEmbeddedGraph, max_size: int) -> Optional[Coords]:
    """Backtracking search for a rotation-faithful drawing in the smallest
    [0,k] x [0,k] box, k ascending.  Returns None when no box up to
    ``max_size`` yields one.

    Vertices are placed by descending degree, each tried at every cell in
    x-major order.  The search is table-driven: a candidate cell is
    checked against the drawing so far by a few ANDs with the box's bit
    masks (:class:`_BoxTable`, built with the exact predicates once per box
    size), and three ints carry the occupied cells, the placed segments and
    the cells those segments cover.  The masks rule out every clause of
    :func:`check_drawing` but the rotation, so a complete placement is
    accepted when its drawn rotation is the prescribed one.
    ``SEARCH_BUDGET`` counts candidate cells tried, rejected ones
    included: a box gives up at its ``SEARCH_BUDGET``-th candidate, and the
    next box starts afresh.

    A quarter turn of the box keeps every mask and every clockwise order,
    so it maps a failed subtree onto a failed one that tries as many cells.
    While every placed vertex sits at the box centre, a cell whose
    quarter-turn orbit holds a smaller cell is skipped, and the budget is
    charged the candidates the smaller cell's subtree tried: the drawings
    found and the boxes that give up are those of the plain search.
    """
    if not g.is_simple() or not g.is_connected():
        return None
    verts = sorted(g.vertices, key=lambda v: -g.degree(v))
    n = len(verts)
    rank = {v: i for i, v in enumerate(verts)}
    # the already placed neighbours of each vertex, by their place in verts
    prev = [
        [rank[g.dart_head(d)] for d in g.rot[v] if rank[g.dart_head(d)] < i]
        for i, v in enumerate(verts)
    ]

    def rec(i: int, pos: List[int], occupied: int, segs: int, covered: int) -> Optional[Coords]:
        nonlocal budget
        if budget <= 0:
            return None
        if i == n:
            cand = {v: box.points[c] for v, c in zip(verts, pos)}
            return _normalize(cand) if rotation_equivalent(g, cand) else None
        blocked = occupied | covered
        seg_cells, conflicts, orbit_min = box.seg_cells, box.conflicts, box.orbit_min
        # spent[c]: the candidates tried below cell c, while the quarter
        # turns fix what is placed
        spent = [0] * len(orbit_min) if not pos or pos == [box.centre] else None
        for c, seg_row in enumerate(box.seg_id):
            budget -= 1
            if budget <= 0:
                return None
            if spent is not None and orbit_min[c] < c:
                budget -= spent[orbit_min[c]]  # a turned copy of a failed subtree
                if budget <= 0:
                    return None
                continue
            bit = 1 << c
            if blocked & bit:
                continue  # occupied, or on a placed edge
            new_segs = new_cells = 0
            for j in prev[i]:
                b = pos[j]
                s = seg_row[b]
                row = conflicts[s]
                if row is None:
                    row = box.fill_conflicts(s)
                # the new segment crosses or touches a placed one, or passes
                # through a placed vertex other than its neighbour (which
                # also catches two new segments overlapping: each one's far
                # end is a placed vertex)
                if row & segs or seg_cells[s] & occupied != 1 << b:
                    break
                new_segs |= 1 << s
                new_cells |= seg_cells[s]
            else:
                pos.append(c)
                before = budget
                got = rec(i + 1, pos, occupied | bit, segs | new_segs, covered | new_cells)
                if got is not None:
                    return got
                pos.pop()
                if spent is not None:
                    spent[c] = before - budget
        return None

    got = None
    for k in range(1, max_size + 1):
        if (k + 1) ** 2 < n:
            continue
        box = _box_table(k)
        budget = SEARCH_BUDGET
        got = rec(0, [], 0, 0, 0)
        if got is not None:
            break
    del rec  # it reaches itself through its closure: a reference cycle
    return got


@dataclass
class GridEmbedding:
    graph: PlanarEmbeddedGraph
    coords: Coords
    grid_size: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "graph": self.graph.to_dict(),
            "coords": {str(v): list(self.coords[v]) for v in self.graph.vertices},
            "grid_size": self.grid_size,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "GridEmbedding":
        g = PlanarEmbeddedGraph.from_dict(json_key(d, "graph", "a drawing"))
        if not g.vertices:    # no grid size to check
            raise Malformed("a drawing needs at least one vertex")
        xys = json_coords(json_key(d, "coords", "a drawing"), "coords and grid size")
        coords = json_by_vertex(xys, {str(v): v for v in g.vertices}, "coords")
        grid_size, = json_ints([json_key(d, "grid_size", "a drawing")], "coords and grid size")
        emb = cls(graph=g, coords=coords, grid_size=grid_size)
        check_drawing(g, coords)
        if emb.grid_size != grid_size_of(coords):
            raise DrawingError("stored grid size disagrees with the coordinates")
        return emb


def grid_embed(g: PlanarEmbeddedGraph) -> GridEmbedding:
    """Rotation-faithful straight-line drawing on the smallest integer grid
    this module can find.  The result is always re-verified exactly.  A
    graph with a loop or a parallel edge is refused first: networkx can
    loop forever on its rotation system."""
    require_simple(g)
    coords = draw_with_networkx(g)
    if len(g.vertices) > 2:
        check_drawing(g, coords)
        coords = compact_drawing(g, coords)
        # only a drawing of span below the compacted one's is kept
        target = max(_spans(coords))
        found = search_minimal_drawing(g, min(MAX_SEARCH_BOX, target - 1))
        if found is not None and max(_spans(found)) < target:
            coords = found
    check_drawing(g, coords)
    return GridEmbedding(graph=g, coords=_normalize(coords), grid_size=grid_size_of(coords))
