"""Straight-line drawings of embedded graphs on small integer grids.

The drawing pipeline has to respect the prescribed rotation system exactly —
downstream synthesis carves disk chains along the drawn segments and the
separation argument needs the drawn cyclic edge order at every vertex to be
the combinatorial one.  All drawing validity checks run in exact integer
arithmetic on the grid coordinates (face location takes rational query
points); floats appear only inside networkx's coordinate assignment, whose
integer output is then re-verified from scratch.

One set of clauses, keyed by the vertices that moved, decides validity:
for :func:`check_drawing` every vertex moved, and for each move of
:func:`compact_drawing` the ones it moved, exact as the drawing was valid
before.  Each rotation is tested in one pass round it, with no sort.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .base import Malformed, Vertex, json_by_vertex, json_coords, json_ints, json_key
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
    one :class:`Malformed` that marked points catch."""


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


def _rotation_holds(g: PlanarEmbeddedGraph, pts: Coords, v: Vertex) -> bool:
    """Whether the darts at ``v`` leave it in distinct directions, drawn
    clockwise in the order of ``rot[v]``, in one pass round the rotation.

    Under the total order :func:`_cw_angle_cmp`, a cyclic sequence of two
    or more distinct directions is a clockwise rotation exactly when every
    step turns clockwise (-1) but one, the wrap (+1); a step of 0 is two
    darts in one direction."""
    vx, vy = pts[v]
    vecs = [(pts[w][0] - vx, pts[w][1] - vy) for w in map(g.dart_head, g.rot[v])]
    if (0, 0) in vecs:
        return False
    turns = [_cw_angle_cmp(a, b) for a, b in zip(vecs, vecs[1:] + vecs[:1])]
    return len(vecs) < 2 or (0 not in turns and turns.count(1) == 1)


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


def _fault(g: PlanarEmbeddedGraph, pts: Coords, moved: Iterable[Vertex]) -> Optional[str]:
    """The message of the first failing clause of :func:`check_drawing`,
    past its input checks, that involves a vertex in ``moved``, or None: no
    two vertices share a point, no segment pair with a moved end conflicts,
    no vertex lies on an edge where either moved, and the rotation holds at
    each moved vertex and its neighbours.  With every vertex moved this is
    the whole check; with fewer, it is the whole check's verdict on a
    drawing that was valid before: the other clauses read unmoved points."""
    moved = set(moved)
    if len(set(pts.values())) != len(pts):
        return "two vertices share a grid point"
    segs = [(pts[u], pts[v]) for u, v in g.edges]
    hot = [u in moved or v in moved for u, v in g.edges]
    for i, (a, b) in enumerate(segs):
        if hot[i]:
            for j, (c, d) in enumerate(segs):
                if (j > i or not hot[j]) and _segments_conflict(a, b, c, d):
                    if a in (c, d) or b in (c, d):
                        return f"edges {i} and {j} overlap beyond their shared vertex"
                    return f"edges {i} and {j} intersect"
    # a vertex with an edge lies on a foreign edge only where the two edges
    # conflict, which the segment pairs caught: edgeless vertices remain
    for w, p in pts.items():
        if not g.rot[w]:
            for e, (a, b) in enumerate(segs):
                if (hot[e] or w in moved) and point_on_segment(p, a, b):
                    return f"vertex {w!r} lies on edge {e}"
    near = moved.union(*(map(g.dart_head, g.rot[v]) for v in moved))
    if not all(_rotation_holds(g, pts, v) for v in near):
        return "drawn rotation differs from the prescribed one"
    return None


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
    if (fault := _fault(g, pts, g.vertices)) is not None:
        raise DrawingError(fault)


def _move_valid(g: PlanarEmbeddedGraph, cur: Coords, cand: Coords) -> bool:
    """Whether ``cand``, the valid drawing ``cur`` with some vertices moved,
    is valid, by :func:`_fault` on the vertices that moved."""
    return _fault(g, cand, [v for v, xy in cur.items() if cand[v] != xy]) is None


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
    vertices toward the origin; at most eight moves.  A move is kept when
    the clauses of :func:`check_drawing` that involve the vertices it moved
    hold (:func:`_move_valid`), which is exact because the drawing was
    valid before the move."""
    best = _normalize(dict(coords))

    def remap(cur: Coords, axis: int, f) -> Coords:
        return {v: (f(x), y) if axis == 0 else (x, f(y)) for v, (x, y) in cur.items()}

    def try_axis_compression(cur: Coords) -> Optional[Coords]:
        for axis in (0, 1):
            used = sorted({xy[axis] for xy in cur.values()})
            if used[-1] >= len(used):
                cand = remap(cur, axis, {c: i for i, c in enumerate(used)}.__getitem__)
                if _move_valid(g, cur, cand):
                    return cand
                # all-at-once failed: drop the first run of empty lines alone
                gap = next(i for i, c in enumerate(used) if c != i)
                top, shift = used[gap], used[gap] - gap
                cand = remap(cur, axis, lambda c: c - shift if c >= top else c)
                if _move_valid(g, cur, cand):
                    return cand
        return None

    def try_nudges(cur: Coords) -> Optional[Coords]:
        w, h = _spans(cur)
        order = sorted(cur, key=lambda v: -(cur[v][0] + cur[v][1]))
        for v in order:
            x, y = cur[v]
            for dx, dy in ((-1, -1), (-1, 0), (0, -1)):
                if x + dx < 0 or y + dy < 0:
                    continue
                cand = {**cur, v: (x + dx, y + dy)}
                if _move_valid(g, cur, cand):
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
            return _normalize(cand) if all(_rotation_holds(g, cand, v) for v in verts) else None
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
