"""Disk-instance synthesis for the three reductions.

Layout happens in floating point (direction vectors, serpentine waypoints,
arclength walks), then every center is snapped to a fine rational grid and
all structural claims are re-established by exact arithmetic: chains must
induce simple paths, rings simple cycles, and cross-structure contacts must
match an explicit allow-list.  All three synthesizers add their disks
through one builder, :class:`_Disks`, which snaps each structure and tags
it as one run of its own, the run being the structure's only declaration,
and runs that check; a failed check raises :class:`SynthesisError`, so no
instance leaves this module unverified.

Scale conventions.  Drawings live on the integer grid; disk radii come from
the parameter schedule, which makes structures tiny relative to grid edges
in sound mode and chunky in toy mode.  Sound walls serpentine inside their
half-corridor to spend exactly the uniform per-edge disk budget; toy walls
pick the budget so a straight chain works.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .arrangements import (
    CenterIndex,
    DiskInstance,
    IntCenters,
    TagRuns,
    UnitDiskGraph,
    complement_regions,
    unit_disk_graph,
)
from .base import Rejected, Vertex
from .geometry import (
    ParamSet,
    Point,
    ceil_frac,
    pi_bounds,
)
from .graphs import Graph, SubdivisionInstance, lift_subdivision_solution
from .gridembed import DrawingError, GridEmbedding, locate_face

Tag = Tuple


class SynthesisError(Rejected):
    """A synthesized instance failed its exact post-verification: the source
    is rejected (exit 1)."""


# ---------------------------------------------------------------------------
# snapping
# ---------------------------------------------------------------------------

class Snapper:
    """Rounds layout floats onto the grid of multiples of 1/M, with M fine
    enough (denominator of r times 2**34) that snapping moves points by far
    less than any structural margin."""

    def __init__(self, r: Fraction):
        self.M = r.denominator * (1 << 34)

    def numerator(self, x: float) -> int:
        """``round(Fraction(x) * M)``, ties to even, in integer arithmetic."""
        n, d = x.as_integer_ratio()
        q, rem = divmod(n * self.M, d)
        if 2 * rem > d or (2 * rem == d and q & 1):
            q += 1
        return q

    def snap_point(self, p: Tuple[float, float]) -> Tuple[int, int]:
        """Integer numerators over M of the snapped point."""
        return (self.numerator(p[0]), self.numerator(p[1]))


def _unit(dx: float, dy: float) -> Tuple[float, float]:
    n = math.hypot(dx, dy)
    if n == 0:
        raise SynthesisError("zero-length direction")
    return dx / n, dy / n


def _walk_polyline(waypoints: Sequence[Tuple[float, float]], count: int) -> List[Tuple[float, float]]:
    """``count`` points at uniform arclength along a polyline, endpoints
    included."""
    if not 2 <= count <= MAX_WALL_DISKS:
        raise SynthesisError(f"a chain needs 2 to {MAX_WALL_DISKS} disks, not {count}")
    lengths = []
    for (x0, y0), (x1, y1) in zip(waypoints, waypoints[1:]):
        lengths.append(math.hypot(x1 - x0, y1 - y0))
    total = sum(lengths)
    if total <= 0:
        raise SynthesisError("degenerate polyline")
    step = total / (count - 1)
    out = [waypoints[0]]
    seg = 0
    walked = 0.0
    for k in range(1, count - 1):
        target = k * step
        while walked + lengths[seg] < target:
            walked += lengths[seg]
            seg += 1
        t = (target - walked) / lengths[seg]
        (x0, y0), (x1, y1) = waypoints[seg], waypoints[seg + 1]
        out.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    out.append(waypoints[-1])
    return out


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------

@dataclass
class StructureSpec:
    """What the intersection graph of a synthesized instance must look like.
    The structures are the runs of the instance's tags, each named by its
    prefix (or a single disk's whole tag): a run is a chain (a path in
    index order) unless its name is in ``rings`` (a cycle).  Contacts
    between different structures must match the allow-list."""

    rings: Set[Tag] = field(default_factory=set)
    # (struct_a, struct_b) -> (min_contacts, max_contacts); missing = forbidden
    allowed_contacts: Dict[Tuple[Tag, Tag], Tuple[int, int]] = field(default_factory=dict)


@dataclass
class ContactReport:
    ok: bool
    violations: List[str]
    contact_counts: Dict[Tuple[Tag, Tag], int]
    # the intersection graph the check ran on, for the synthesizers' checks
    graph: UnitDiskGraph = field(compare=False, repr=False)


def check_structure(instance: DiskInstance, spec: StructureSpec) -> ContactReport:
    """Exact check of intra-structure shape and cross-structure contacts,
    with each run of ``instance.tags`` one structure.

    Contacts are tallied per disk and per pair of runs, not per edge: runs
    are id ranges and adjacency lists ascend, so the later neighbours of a
    disk in its own run come first among its later neighbours, and the
    others are counted by their run.  Each pair of runs that meet is mapped
    to its tags once.  Only a failed check walks the edges, to word each
    bad contact in ``udg.edges`` order."""
    udg = unit_disk_graph(instance.centers, instance.radius)
    runs = [(start, stop, name) for start, stop, name, _ in instance.tags.spans()]
    run_of = [0] * udg.n
    for k, (start, stop, _) in enumerate(runs):
        run_of[start:stop] = [k] * (stop - start)
    adj, allowed = udg.adj, spec.allowed_contacts
    cross: Dict[Tuple[Tag, Tag], int] = {}
    linked = [0] * len(runs)    # run -> its contacts at index gap 1
    bad = False                 # a contact at another gap, or a forbidden one
    for k, (start, stop, ti) in enumerate(runs):
        # the run's own contacts at gap 1: i -> i + 1, and a ring's first
        # disk -> its last
        wraps = ti in spec.rings and stop - start > 2
        met: Counter = Counter()    # later run -> contacts with it
        for i in range(start, stop):
            a = adj[i]
            p = bisect_right(a, i)
            q = bisect_left(a, stop, p)
            if q > p:
                good = (a[p] == i + 1) + (wraps and i == start and a[q - 1] == stop - 1)
                linked[k] += good
                bad = bad or good != q - p
            if q < len(a):
                met.update(map(run_of.__getitem__, a[q:]))
        for kj, c in met.items():
            tj = runs[kj][2]
            key = (ti, tj) if (ti, tj) in allowed else (tj, ti)
            if key in allowed:
                cross[key] = cross.get(key, 0) + c
            else:
                bad = True
    violations = _bad_contacts(udg, runs, run_of, spec) if bad else []
    for (start, stop, tag), have in zip(runs, linked):
        if tag not in spec.rings and have != stop - start - 1:
            violations.append(f"chain {tag}: only {have}/{stop - start - 1} consecutive contacts")
    for (start, stop, tag), have in zip(runs, linked):
        # a two-disk ring closes with its one contact
        size = stop - start
        if tag in spec.rings and size >= 2 and have != (size if size > 2 else 1):
            violations.append(f"ring {tag}: broken cycle")
    for key, (lo, hi) in allowed.items():
        got = cross.get(key, 0)
        if not (lo <= got <= hi):
            violations.append(
                f"contact {key[0]} ~ {key[1]}: {got} intersecting pairs, wanted [{lo}, {hi}]"
            )
    return ContactReport(not violations, violations, cross, udg)


def _bad_contacts(udg: UnitDiskGraph, runs: Sequence[Tuple[int, int, Tag]],
                  run_of: Sequence[int], spec: StructureSpec) -> List[str]:
    """:func:`check_structure`'s per-edge violations, in ``udg.edges``
    order: two disks of one structure that touch at an index gap other
    than 1, and a contact between structures that the spec forbids."""
    out = []
    for (i, j) in udg.edges:
        ki, kj = run_of[i], run_of[j]
        start, stop, ti = runs[ki]
        if ki == kj:
            gap = j - i
            if ti in spec.rings:
                gap = min(gap, stop - start - gap)
            if gap != 1:
                out.append(f"structure {ti}: disks {i} and {j} touch at index gap {gap}")
        else:
            tj = runs[kj][2]
            if (ti, tj) not in spec.allowed_contacts and (tj, ti) not in spec.allowed_contacts:
                out.append(f"forbidden contact between {ti} and {tj}")
    return out


# ---------------------------------------------------------------------------
# the builder every synthesizer adds its disks through
# ---------------------------------------------------------------------------

class _Disks:
    """The one builder of synthesized instances.  Disks are added a whole
    structure at a time: a single disk carries the structure's tag itself,
    disk k of a chain or ring carries the tag plus ``(k,)``, and each
    structure is one run of :class:`TagRuns` of its own, which is all that
    declares it to :meth:`finish`'s check.  Centres are integer numerators
    over the snapper's denominator."""

    def __init__(self, r: Fraction):
        self.r = r
        self.snapper = Snapper(r)
        self.M = self.snapper.M
        self.xs: List[int] = []
        self.ys: List[int] = []
        self.tags = TagRuns()
        self.spec = StructureSpec()

    def single(self, tag: Tag, num: Tuple[int, int]) -> int:
        """One disk centred at ``num`` / M; returns its id."""
        return self._structure(tag, [num], None)[0]

    def chain(self, tag: Tag, points: Sequence[Tuple[float, float]], first: int) -> List[int]:
        """A chain through the snapped layout ``points``, its disks numbered
        from ``first``; returns their ids."""
        snap = self.snapper.snap_point
        return self._structure(tag, [snap(c) for c in points], first)

    def ring(self, tag: Tag, nums: Sequence[Tuple[int, int]]) -> List[int]:
        """A ring through the snapped centres ``nums``; returns their ids."""
        self.spec.rings.add(tag)
        return self._structure(tag, nums, 0)

    def _structure(self, tag: Tag, nums: Sequence[Tuple[int, int]],
                   first: Optional[int]) -> List[int]:
        start, runs = len(self.tags), len(self.tags.runs)
        self.xs.extend(x for x, _ in nums)
        self.ys.extend(y for _, y in nums)
        if first is None:
            self.tags.append(tag)
        else:
            self.tags.append_run(tag, first, len(nums))
        if self.tags.runs[runs:] != [(start, tag, first)]:
            raise SynthesisError(f"structure {tag} does not open a tag run of its own")
        return list(range(start, len(self.tags)))

    def allow(self, a: Tag, b: Tag, lo: int, hi: int) -> None:
        """Structures ``a`` and ``b`` may meet in ``lo``..``hi`` disk pairs."""
        self.spec.allowed_contacts[(a, b)] = (lo, hi)

    def finish(self, what: str, meta: Dict[str, object],
               params: Optional[ParamSet] = None) -> Tuple[DiskInstance, ContactReport]:
        """The instance, once its intersection graph matches the spec."""
        centers = IntCenters(tuple(self.xs), tuple(self.ys), self.M)
        inst = DiskInstance(self.r, centers, self.tags, params=params, meta=meta)
        report = check_structure(inst, self.spec)
        if not report.ok:
            raise SynthesisError(
                f"{what} instance failed verification:\n  " + "\n  ".join(report.violations[:12])
            )
        return inst, report


def _incident_pairs(edges: Sequence[Tuple[Vertex, Vertex]]) -> List[Tuple[int, int]]:
    """Pairs of edge ids that share an endpoint, endpoint by endpoint."""
    by_vertex: Dict[Vertex, List[int]] = {}
    for eid, (u, w) in enumerate(edges):
        by_vertex.setdefault(u, []).append(eid)
        by_vertex.setdefault(w, []).append(eid)
    return [(a, b) for eids in by_vertex.values() for k, a in enumerate(eids) for b in eids[k + 1:]]


def _attached_span(ax: float, ay: float, bx: float, by: float, off: float):
    """Length of segment ab less ``off`` at each end, and the two points
    ``off`` in from its ends: the endpoints of a straight chain."""
    L = math.hypot(bx - ax, by - ay)
    ux, uy = _unit(bx - ax, by - ay)
    return L - 2 * off, [(ax + off * ux, ay + off * uy), (bx - off * ux, by - off * uy)]


def _lane_points(way: Sequence[Tuple[float, float]], rf: float) -> List[Tuple[float, float]]:
    """Chain points along the polyline ``way`` at pitch at most 1.7 r."""
    length = sum(math.hypot(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(way, way[1:]))
    return _walk_polyline(way, max(2, math.ceil(length / (1.7 * rf)) + 1))


def _check_drawing_matches(g, emb: GridEmbedding) -> None:
    if set(g.vertices) != set(emb.graph.vertices) or \
            [tuple(e) for e in g.edges] != [tuple(e) for e in emb.graph.edges]:
        raise SynthesisError("drawing does not match the instance graph")


# ---------------------------------------------------------------------------
# walls and vertex structures
# ---------------------------------------------------------------------------

@dataclass
class WallPlan:
    centers: List[Tuple[float, float]]
    spacing_over_r: float


def _sound_wall_plan(
    ax: float, ay: float, bx: float, by: float, p: ParamSet
) -> WallPlan:
    """Disk centers for one wall in sound mode.

    The chain starts and ends at distance s+r from the endpoints on the
    segment axis (ring contact), runs straight within distance s+a of either
    endpoint (incident corridors may be angularly close there), and spends
    any surplus budget on a square-wave detour of amplitude below the
    half-corridor h/2 in the middle zone.
    """
    r, s, a, h = float(p.r), float(p.s), float(p.a), float(p.h)
    c = p.c_edge
    L = math.hypot(bx - ax, by - ay)
    ux, uy = _unit(bx - ax, by - ay)
    vx, vy = -uy, ux
    sr = s + r
    straight = L - 2 * sr
    if straight <= 0:
        raise SynthesisError("edge too short for its vertex clearances")
    sigma_lo, sigma_hi = 1.45 * r, 1.95 * r
    sigma0 = straight / (c - 1)

    def to_world(pts_uv):
        return [(ax + u * ux + v * vx, ay + u * uy + v * vy) for (u, v) in pts_uv]

    if sigma_lo <= sigma0 <= 2 * r * (1 - 2.0 ** -16):
        pts = _walk_polyline(to_world([(sr, 0.0), (L - sr, 0.0)]), c)
        return WallPlan(pts, sigma0 / r)
    if sigma0 > 2 * r * (1 - 2.0 ** -16):
        raise SynthesisError("edge longer than the disk budget allows")

    amp = h / 2 - 1.2 * r
    lam = 2.2 * r
    m0, m1 = s + a, L - (s + a)
    if amp <= 0 or m1 - m0 <= 3 * lam:
        raise SynthesisError("no room for a detour on this edge")
    k_max = int((m1 - m0) / lam) - 1
    k_target = round(((c - 1) * 1.7 * r - straight) / (2 * amp)) + 1
    k = max(2, min(k_max, k_target))
    sigma = (straight + 2 * amp * (k - 1)) / (c - 1)
    if not (sigma_lo <= sigma <= sigma_hi):
        raise SynthesisError(
            f"no admissible spacing: sigma/r={sigma / r:.3f} with {k} detour legs"
        )
    gap = (m1 - m0) / (k + 1)
    uv = [(sr, 0.0), (m0, 0.0)]
    level = 0.0
    for i in range(1, k + 1):
        pi = m0 + i * gap
        nxt = amp if level <= 0 else -amp
        if i == k:
            nxt = 0.0
        uv.append((pi, level))
        uv.append((pi, nxt))
        level = nxt
    uv.append((m1, 0.0))
    uv.append((L - sr, 0.0))
    pts = _walk_polyline(to_world(uv), c)
    return WallPlan(pts, sigma / r)


# a toy wall is a straight chain whose ends sit TOY_ATTACH * r from the
# centres of its endpoints' anchor disks
TOY_ATTACH = 1.8
# the largest uniform per-edge disk count toy_edge_budget tries
TOY_MAX_EDGE_DISKS = 10
# the most wall disks build_isolation_instance synthesizes, and disks in one chain
MAX_WALL_DISKS = 2_000_000


def _toy_wall_plan(ax, ay, bx, by, p: ParamSet) -> WallPlan:
    r = float(p.r)
    c = p.c_edge
    straight, ends = _attached_span(ax, ay, bx, by, TOY_ATTACH * r)
    if straight <= 0:
        raise SynthesisError("edge too short for toy attachments")
    sigma = straight / (c - 1)
    if not (1.02 * r <= sigma <= 1.95 * r):
        raise SynthesisError(
            f"toy spacing sigma/r={sigma / r:.3f} outside (1.02, 1.95); "
            "adjust the per-edge disk budget"
        )
    return WallPlan(_walk_polyline(ends, c), sigma / r)


def toy_edge_budget(emb: GridEmbedding, p: ParamSet) -> int:
    """Smallest uniform per-edge disk count (at most
    :data:`TOY_MAX_EDGE_DISKS`) whose straight chains have admissible
    spacing on every drawn edge, or raise."""
    r = float(p.r)
    lengths = []
    for (u, w) in emb.graph.edges:
        (ax, ay), (bx, by) = emb.coords[u], emb.coords[w]
        lengths.append(math.hypot(bx - ax, by - ay) - 2 * TOY_ATTACH * r)
    for c in range(3, TOY_MAX_EDGE_DISKS + 1):
        if all(1.05 * r <= L / (c - 1) <= 1.93 * r for L in lengths):
            return c
    raise SynthesisError(
        f"no uniform per-edge count up to {TOY_MAX_EDGE_DISKS} fits every edge of this drawing"
    )


def _ring_centers(cx: float, cy: float, s: float, count: int, phase: float) -> List[Tuple[float, float]]:
    return [
        (cx + s * math.cos(phase + 2 * math.pi * j / count),
         cy + s * math.sin(phase + 2 * math.pi * j / count))
        for j in range(count)
    ]


# ---------------------------------------------------------------------------
# isolation instances
# ---------------------------------------------------------------------------

@dataclass
class IsolationArtifacts:
    instance: DiskInstance
    wall_ids: Dict[int, List[int]]        # edge id -> disk ids in chain order
    vertex_ids: Dict[Vertex, List[int]]   # vertex -> ring/anchor disk ids
    report: ContactReport


def _place_face_points(
    emb: GridEmbedding, terminals: Dict[str, int], index: CenterIndex
) -> Dict[str, Point]:
    """A marked point per terminal face, strictly inside the face and at
    exact distance > 5r/4 from every disk center of ``index``."""
    g = emb.graph
    clearance = index.r + Fraction(index.r, 4)
    points: Dict[str, Point] = {}
    for pid, face in terminals.items():
        found = None
        walk = g.facial_walks()[face]
        candidates: List[Point] = []
        for d in walk:
            t = emb.coords[g.dart_tail(d)]
            hh = emb.coords[g.dart_head(d)]
            mx, my = Fraction(t[0] + hh[0], 2), Fraction(t[1] + hh[1], 2)
            nx_, ny_ = -(hh[1] - t[1]), (hh[0] - t[0])
            scale = max(abs(nx_), abs(ny_))
            for kappa in (Fraction(1, 3), Fraction(1, 4), Fraction(1, 2), Fraction(1, 6),
                          Fraction(1, 8), Fraction(1, 12), Fraction(1, 16), Fraction(1, 24)):
                candidates.append((mx + Fraction(nx_, scale) * kappa,
                                   my + Fraction(ny_, scale) * kappa))
        if not walk:
            v = g.vertices[0]
            candidates.append((Fraction(emb.coords[v][0] + 1), Fraction(emb.coords[v][1])))
        for cand in candidates:
            if index.within(cand, clearance):
                continue
            try:
                if locate_face(g, emb.coords, cand) != face:
                    continue
            except DrawingError:
                continue
            found = cand
            break
        if found is None:
            raise SynthesisError(f"no clear marked point for face {face}")
        points[pid] = found
    return points


def build_isolation_instance(
    sub: SubdivisionInstance,
    emb: GridEmbedding,
    params: ParamSet,
) -> IsolationArtifacts:
    """Compile a drawn subdivision instance into disks.

    Every edge becomes a wall of exactly ``c_edge`` disks; every vertex a
    ring or, when ``params.mode`` is toy, a single anchor disk.  Marked
    points land inside their faces.  The result is exactly verified: walls are simple paths,
    rings simple cycles, wall ends touch exactly their endpoint's vertex
    structure 1-3 times, and nothing else intersects — except, in toy mode,
    end-of-wall pairs meeting at a shared vertex, which the counting
    argument tolerates because entire walls still stand or fall as units.
    """
    _check_drawing_matches(sub.graph, emb)
    g = emb.graph
    p = params
    total_edge_disks = p.c_edge * len(g.edges)
    if total_edge_disks > MAX_WALL_DISKS:
        raise SynthesisError(
            f"instance would need {total_edge_disks} wall disks; refusing"
        )
    b = _Disks(p.r)
    M = b.M
    coords_f = {v: (float(x), float(y)) for v, (x, y) in emb.coords.items()}
    toy = p.mode == "toy"
    vertex_kind = "anchor" if toy else "ring"
    vertex_ids: Dict[Vertex, List[int]] = {}
    for v in g.vertices:
        if toy:
            x, y = emb.coords[v]
            vertex_ids[v] = [b.single(("anchor", str(v)), (x * M, y * M))]
            continue
        for phase in (0.0, math.pi / p.c_vertex, math.pi / (2 * p.c_vertex)):
            ring = _ring_centers(*coords_f[v], float(p.s), p.c_vertex, phase)
            snapped = [b.snapper.snap_point(c) for c in ring]
            if _ring_is_cycle(snapped, M, p.r):
                break
        else:
            raise SynthesisError(f"vertex ring at {v!r} failed to close")
        vertex_ids[v] = b.ring(("ring", str(v)), snapped)

    wall_ids: Dict[int, List[int]] = {}
    for eid, (u, w) in enumerate(g.edges):
        (ax, ay), (bx, by) = coords_f[u], coords_f[w]
        if toy:
            plan = _toy_wall_plan(ax, ay, bx, by, p)
        else:
            plan = _sound_wall_plan(ax, ay, bx, by, p)
        wall_ids[eid] = b.chain(("wall", eid), plan.centers, 0)
        b.allow(("wall", eid), (vertex_kind, str(u)), 1, 3)
        b.allow(("wall", eid), (vertex_kind, str(w)), 1, 3)
    if toy:
        # walls meeting at a shared endpoint may brush near the anchor
        for e1, e2 in _incident_pairs(g.edges):
            b.allow(("wall", e1), ("wall", e2), 0, 4)

    vertex_disk_total = sum(len(v) for v in vertex_ids.values())
    meta = {
        "kind": "isolation",
        "c_edge": p.c_edge,
        "vertex_disk_total": vertex_disk_total,
        "groups": sub.groups,
        "terminal_faces": dict(sub.terminals),
    }
    inst, report = b.finish("isolation", meta, p)
    # placed on the bucket grid the structure check built, in distinct faces
    points = _place_face_points(emb, sub.terminals, report.graph.index)
    inst = DiskInstance(inst.radius, inst.centers, inst.tags, points, p, meta)
    if vertex_disk_total >= p.c_edge:
        raise SynthesisError(
            f"vertex structures use {vertex_disk_total} disks, which reaches the "
            f"per-wall budget {p.c_edge} and breaks the size law"
        )
    return IsolationArtifacts(
        instance=inst, wall_ids=wall_ids, vertex_ids=vertex_ids, report=report
    )


def _ring_is_cycle(ring: Sequence[Tuple[int, int]], den: int, r: Fraction) -> bool:
    """Consecutive disks of the ring, centres over ``den``, touch and no
    other pair does: each disk's neighbours are exactly the two beside it."""
    n = len(ring)
    if n < 3:
        return False
    adj = unit_disk_graph(IntCenters(*map(tuple, zip(*ring)), den), r).adj
    return all(a == sorted(((i - 1) % n, (i + 1) % n)) for i, a in enumerate(adj))


def lift_fence_to_edges(walls: Dict[int, List[int]], chosen_ids: Iterable[int]) -> List[int]:
    """Edges whose wall (``walls``: edge id -> its disk ids) appears in full
    among the chosen disks.

    Partial walls leak, so discarding them never loses separation power; a
    fence of size k therefore lifts to at most floor(k / c_edge) edges.
    """
    return lift_subdivision_solution(walls, chosen_ids)


# ---------------------------------------------------------------------------
# acyclicity instances (vertex-deletion cycle breaking)
# ---------------------------------------------------------------------------

# the default disk radius of the ACC and UDMC chains
CHAIN_RADIUS = Fraction(1, 10)


@dataclass
class AccArtifacts:
    instance: DiskInstance
    hub_of_vertex: Dict[Vertex, int]
    chain_ids: Dict[int, List[int]]    # edge id -> disk ids in chain order
    cycle_rank: int


def build_acc_instance(
    g: Graph,
    coords: Dict[Vertex, Tuple[int, int]],
    r: Fraction = CHAIN_RADIUS,
) -> AccArtifacts:
    """Hub disk per vertex, chain of disks per edge along its drawn segment.

    Deleting disks to kill every bounded complement region then matches
    deleting vertices to kill every cycle: chain deletions are dominated by
    deleting an endpoint hub.  The builder verifies that the initial number
    of holes equals the graph's cycle rank, so no accidental contact has
    added or filled anything.
    """
    rf = float(r)
    b = _Disks(r)
    hub_of_vertex: Dict[Vertex, int] = {}
    chain_ids: Dict[int, List[int]] = {}
    for v in g.vertices:
        x, y = coords[v]
        hub_of_vertex[v] = b.single(("hub", str(v)), (x * b.M, y * b.M))
    for eid, (u, w) in enumerate(g.edges):
        if u == w:
            raise SynthesisError("loops are not drawable as chains")
        (ax, ay), (bx, by) = coords[u], coords[w]
        inner, ends = _attached_span(ax, ay, bx, by, 1.5 * rf)
        if inner <= 0:
            raise SynthesisError(f"edge {eid} too short for hub clearance")
        m = max(2, math.ceil(inner / (1.8 * rf)) + 1)
        if not (1.02 * rf < inner / (m - 1) <= 1.95 * rf):
            m += 1
            if not (1.02 * rf < inner / (m - 1) <= 1.95 * rf):
                raise SynthesisError(f"edge {eid}: no admissible chain spacing")
        chain_ids[eid] = b.chain(("conn", eid), _walk_polyline(ends, m), 0)
        b.allow(("conn", eid), ("hub", str(u)), 1, 1)
        b.allow(("conn", eid), ("hub", str(w)), 1, 1)
    for e1, e2 in _incident_pairs(g.edges):
        b.allow(("conn", e1), ("conn", e2), 0, 1)
    meta = {"kind": "acc", "hubs": {str(v): i for v, i in hub_of_vertex.items()}}
    inst, _ = b.finish("acyclicity", meta)
    # the union must have exactly one hole per independent cycle
    n_comp, cycle_rank = g.component_count(), g.cycle_rank()
    regions = complement_regions(inst.centers, r)
    if regions.bounded_complement_regions != cycle_rank or \
            regions.union_components != n_comp:
        raise SynthesisError(
            f"drawn topology mismatch: {regions} vs cycle rank {cycle_rank}, "
            f"{n_comp} component(s)"
        )
    return AccArtifacts(instance=inst, hub_of_vertex=hub_of_vertex, chain_ids=chain_ids,
                        cycle_rank=cycle_rank)


def lift_vertex_set_to_acc(art: AccArtifacts, fvs: Iterable[Vertex]) -> List[int]:
    return sorted(art.hub_of_vertex[v] for v in fvs)


def perturb_copy(p: Tuple[float, float], j: int, r: Fraction) -> Tuple[float, float]:
    """Tiny deterministic distinct offset for the j-th coincident copy."""
    rf = float(r)
    return (
        p[0] + j * rf / 1000.0,
        p[1] + ((j * j) % 1000) * rf / 1_000_000.0,
    )


# ---------------------------------------------------------------------------
# full unit-disk multiterminal instances: bundles at vertices, lanes on edges
# ---------------------------------------------------------------------------

# perturbed ring copies per bundle: more than max degree (3) times max
# weight (5), which the cut accounting needs
BUNDLE_COPIES = 16
BUNDLE_SCALE = 4


@dataclass
class UdmcArtifacts:
    instance: DiskInstance
    hub_of_vertex: Dict[Vertex, int]
    sigma_ids: Dict[Vertex, List[int]]             # all ring-copy disk ids
    lanes: Dict[int, List[List[int]]]              # edge id -> each lane's chain ids
    cut_pairs: Dict[int, List[Tuple[int, int]]]    # edge id -> each lane's cut pair
    report: ContactReport


def _gap_midangle(angles: Sequence[float]) -> float:
    """Midpoint of the widest angular gap between the given directions."""
    if not angles:
        return 0.0
    a = sorted(x % (2 * math.pi) for x in angles)
    best = -1.0
    where = a[0]
    for i, x in enumerate(a):
        nxt = a[(i + 1) % len(a)] + (2 * math.pi if i + 1 == len(a) else 0.0)
        if nxt - x > best:
            best = nxt - x
            where = (x + nxt) / 2.0
    return where % (2 * math.pi)


def build_udmc_instance(
    mti,
    emb: GridEmbedding,
    r: Fraction = CHAIN_RADIUS,
) -> UdmcArtifacts:
    """Compile a weighted terminal-separation graph into unit disks.

    The drawing is scaled by :data:`BUNDLE_SCALE`.  Every vertex becomes a
    bundle: ``copies`` (:data:`BUNDLE_COPIES`) perturbed copies of a ring of
    disks around the vertex plus ``copies`` perturbed two-disk connector
    chains joining a central hub disk to the ring.  Every edge of weight w
    becomes w disk lanes that leave the ring, fan out to a fixed pitch, run
    parallel through a middle zone where they are pairwise disjoint, and fan
    back into the far ring.  The hub of each terminal vertex is that
    terminal's disk.

    The point of the shape: the hub touches exactly ``copies`` disks, so no
    intersection-edge cut cheaper than ``copies`` ever enters a bundle,
    while severing an edge costs exactly its weight (one cut per lane in the
    middle zone).  Weights above 5 would break the accounting against
    degree-3 bundles (3 * 5 < 16) and are refused, as are degrees above 3.

    Everything is gated by exact verification; drawings whose incident edges
    leave too little angular room are rejected rather than approximated.
    """
    g = mti.graph
    _check_drawing_matches(g, emb)
    if not g.is_simple():
        raise SynthesisError("loops and parallel edges cannot be synthesized")
    for eid in range(len(g.edges)):
        if not (1 <= mti.weight(eid) <= 5):
            raise SynthesisError(f"edge weight {mti.weight(eid)} outside the supported range 1..5")
    for v in g.vertices:
        if g.degree(v) > 3:
            raise SynthesisError(f"vertex {v!r} has degree {g.degree(v)}; at most 3 supported")

    copies, scale = BUNDLE_COPIES, BUNDLE_SCALE
    rf = float(r)
    pos = {v: (float(x) * scale, float(y) * scale) for v, (x, y) in emb.coords.items()}
    ring_r = 5.0 * rf
    lane_start = 6.0 * rf
    pitch = 2.4 * rf
    pi_hi = pi_bounds()[1]
    m = ceil_frac(Fraction(5) * pi_hi)   # ring positions per copy

    b = _Disks(r)
    snap = b.snapper.snap_point
    hub_of_vertex: Dict[Vertex, int] = {}
    sigma_ids: Dict[Vertex, List[int]] = {}
    sigma_tags: Dict[Vertex, List[Tag]] = {}
    incident_angles: Dict[Vertex, List[float]] = {v: [] for v in g.vertices}
    for (u, v) in g.edges:
        (ax, ay), (bx, by) = pos[u], pos[v]
        incident_angles[u].append(math.atan2(by - ay, bx - ax))
        incident_angles[v].append(math.atan2(ay - by, ax - bx))

    for v in g.vertices:
        cx, cy = pos[v]
        hub_tag: Tag = ("hub", str(v))
        hub_of_vertex[v] = b.single(hub_tag, snap((cx, cy)))
        sigma_ids[v] = []
        sigma_tags[v] = [("sigma", str(v), j) for j in range(copies)]
        gamma_tags = [("gamma", str(v), j) for j in range(copies)]
        spur_ang = _gap_midangle(incident_angles[v])
        sdx, sdy = math.cos(spur_ang), math.sin(spur_ang)
        for j in range(copies):
            ring = []
            for p_idx in range(m):
                ang = 2 * math.pi * p_idx / m
                base = (cx + ring_r * math.cos(ang), cy + ring_r * math.sin(ang))
                ring.append(snap(perturb_copy(base, j, r)))
            sigma_ids[v].extend(b.ring(sigma_tags[v][j], ring))
            spur = [perturb_copy((cx + rad * sdx, cy + rad * sdy), j, r)
                    for rad in (1.5 * rf, 3.3 * rf)]
            b.chain(gamma_tags[j], spur, 1)
            b.allow(gamma_tags[j], hub_tag, 1, 1)
        for j in range(copies):
            for k in range(j + 1, copies):
                b.allow(sigma_tags[v][j], sigma_tags[v][k], 3 * m, 3 * m)
                b.allow(gamma_tags[j], gamma_tags[k], 4, 4)
            for k in range(copies):
                b.allow(gamma_tags[j], sigma_tags[v][k], 1, 2)

    lanes: Dict[int, List[List[int]]] = {eid: [] for eid in range(len(g.edges))}
    lane_window: Dict[int, Tuple[float, float, Tuple[float, float], Tuple[float, float]]] = {}
    for eid, (u, v) in enumerate(g.edges):
        (ax, ay), (bx, by) = pos[u], pos[v]
        L = math.hypot(bx - ax, by - ay)
        ux, uy = _unit(bx - ax, by - ay)
        vx, vy = -uy, ux
        theta = math.atan2(uy, ux)
        w = mti.weight(eid)
        bend = lane_start + max(6 * rf, pitch * w / 1.5)
        if L + 1e-9 < 2 * bend + 12 * rf:
            raise SynthesisError(
                f"edge {eid} is too short ({L / rf:.1f}r) for {w} lanes; "
                f"needs {2 * bend / rf + 12:.1f}r"
            )
        lane_window[eid] = (bend + 2 * rf, L - bend - 2 * rf, (ax, ay), (ux, uy))
        for i in range(w):
            delta = (i - (w - 1) / 2.0) * (math.pi / 60.0)
            off = (i - (w - 1) / 2.0) * pitch
            way = [
                (ax + lane_start * math.cos(theta + delta),
                 ay + lane_start * math.sin(theta + delta)),
                (ax + bend * ux + off * vx, ay + bend * uy + off * vy),
                (bx - bend * ux + off * vx, by - bend * uy + off * vy),
                (bx - lane_start * math.cos(theta - delta),
                 by - lane_start * math.sin(theta - delta)),
            ]
            lane_tag: Tag = ("lane", eid, i)
            lanes[eid].append(b.chain(lane_tag, _lane_points(way, rf), 0))
            for end_v in (u, v):
                for ring_tag in sigma_tags[end_v]:
                    b.allow(lane_tag, ring_tag, 1, 2)
            for i2 in range(i):
                b.allow(("lane", eid, i2), lane_tag, 0, 10**9)

    meta = {
        "kind": "udmc",
        "terminal_disks": [hub_of_vertex[t] for t in mti.terminals],
        "weights": {str(eid): mti.weight(eid) for eid in range(len(g.edges))},
        "copies": copies,
        "scale": scale,
    }
    # the check fixes each hub's degree at ``copies``: the spec lets every
    # connector chain touch the hub exactly once and no other structure touch it
    inst, report = b.finish("bundle", meta)

    xs, ys, den = inst.centers
    adj = report.graph.adj
    cut_pairs: Dict[int, List[Tuple[int, int]]] = {eid: [] for eid in lanes}
    for eid, (u, v) in enumerate(g.edges):
        lo, hi, (ax, ay), (ux, uy) = lane_window[eid]
        mid: Dict[int, int] = {}     # disk id -> lane, for mid-zone disks
        for i, ids in enumerate(lanes[eid]):
            # int / int is correctly rounded, so this is float() of the centre
            proj = [(xs[d] / den - ax) * ux + (ys[d] / den - ay) * uy for d in ids]
            inside = [k for k, t in enumerate(proj) if lo <= t <= hi]
            for k in inside:
                mid[ids[k]] = i
            # the cut pair: consecutive chain disks nearest the window center
            target = (lo + hi) / 2.0
            best_k = min(
                (k for k in inside if k + 1 in inside),
                key=lambda k: abs((proj[k] + proj[k + 1]) / 2.0 - target),
                default=None,
            )
            if best_k is None:
                raise SynthesisError(f"lane {i} of edge {eid} has no cuttable stretch")
            if min(proj[best_k], proj[best_k + 1]) - lo < 2 * rf or \
                    hi - max(proj[best_k], proj[best_k + 1]) < 2 * rf:
                raise SynthesisError(f"lane {i} of edge {eid}: cut pair too close to the fans")
            cut_pairs[eid].append((ids[best_k], ids[best_k + 1]))
        for d1 in mid:
            for d2 in adj[d1]:
                if d2 in mid and mid[d2] != mid[d1]:
                    raise SynthesisError(
                        f"edge {eid}: lanes {mid[d1]} and {mid[d2]} touch in the middle zone"
                    )
        # every lane must enter both rings on its own
        sig_u, sig_v = set(sigma_ids[u]), set(sigma_ids[v])
        for i, ids in enumerate(lanes[eid]):
            if sig_u.isdisjoint(adj[ids[0]]) or sig_v.isdisjoint(adj[ids[-1]]):
                raise SynthesisError(f"lane {i} of edge {eid} misses a ring")

    return UdmcArtifacts(
        instance=inst,
        hub_of_vertex=hub_of_vertex,
        sigma_ids=sigma_ids,
        lanes=lanes,
        cut_pairs=cut_pairs,
        report=report,
    )


def lift_multiterminal_to_udmc(
    art: UdmcArtifacts, cut_edge_ids: Iterable[int]
) -> List[Tuple[int, int]]:
    """Intersection-graph edges realizing a source edge cut: one middle-zone
    chain contact per lane of every cut edge."""
    out = []
    for eid in sorted(set(int(e) for e in cut_edge_ids)):
        if eid not in art.cut_pairs:
            raise SynthesisError(f"unknown edge id {eid}")
        out.extend((min(a, b), max(a, b)) for a, b in art.cut_pairs[eid])
    return sorted(out)
