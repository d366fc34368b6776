"""Reference implementations the exact kernel replaced, kept as oracles.

* The bucket-grid intersection graph: a dict of cell buckets keyed by
  (column, row) tuples, each centre tested against the nine cells around
  its own, which the sorted cell keys and half-neighbourhood sweep of
  :func:`disklab.arrangements.unit_disk_graph` replaced; the graph and every
  ``within`` query must come out equal.
* The ``Fraction`` disk predicates: ``dist_sq``, ``disks_intersect`` and
  ``triple_intersection_nonempty`` with its sign test
  ``_sign_a_plus_b_sqrt_q``, on rational centres and radius.
* The per-pair separation sweep: the crossing parities of one pair of
  points, then one spanning forest with 0/1 potentials.  The
  all-pairs :func:`disklab.arrangements.separation` must return the same
  verdict and witness for every pair.
* The networkx max-flow cut solvers: the two-terminal cut and the
  isolating-cut lower bound on an ``nx.DiGraph`` with unit capacities,
  which :func:`disklab.graphs.edge_disjoint_paths` replaced, and networkx's
  minimum cut between a terminal and the others, whose sink side
  :func:`disklab.graphs.residual_sink_side` must equal.
* The terminal-pair cut's witness by a filter over the eager list of every
  intersection edge, which the read of the sink side's adjacency lists in
  :func:`disklab.solvers.min_terminal_pair_cut` replaced.
* The drawn rotation by sorting: each vertex's darts sorted by
  ``cmp_to_key`` of their clockwise angle, then compared cyclically with
  the prescribed rotation, which the one pass round each rotation of
  :func:`disklab.gridembed._rotation_holds` replaced; both must decide
  every vertex alike.
* The minimal-grid drawing search with its per-candidate ``feasible``
  loops over every edge and vertex, which the bit-mask tables of
  :func:`disklab.gridembed.search_minimal_drawing` replaced; it also counts
  the candidate cells it tries.
* The solvers by plain subset enumeration in combinations order:
  multiterminal cut, face separation, cycle-hitting set and the k-point
  fence, which the enumeration in combinations order, pruned by
  upward-closed feasibility, of :mod:`disklab.solvers` replaced; each must
  return the same optimum, witness, ``detail`` and ``method``, or refuse
  alike.
* The fence check on the graph of the chosen disks alone: a covered-point
  check on ``Fraction`` distances, then the chosen disks' own grid, graph,
  masks and kernel, nothing dropped.  The verifier that drops every disk
  not chosen from the instance's one kernel,
  :func:`disklab.arrangements.verify_isolation`, replaced it; both must
  return the same ``Verdict``.
* The hole count on the graph of the kept disks alone: their own centres
  (:func:`subset_centers`), grid, graph and filled triangles.  The verifier
  that reads the holes off the graph of every disk less the removed ones,
  :func:`disklab.arrangements.verify_acc`, replaced it; both must return the
  same ``Verdict``.
* The two-point fence solver by a (disk, parity) BFS over the whole
  intersection graph, rooted at each odd edge, which the Dijkstra over the
  chain-contracted kernel of :func:`disklab.solvers.brute_min_isolation_two_points`
  replaced; it must give the same optimum.
* The dict union-find over an edge list, which the adjacency-list labeller
  :func:`disklab.graphs.component_labels` replaced, and the multiterminal
  cut check built on it and on a set of every intersection edge; the check
  :func:`disklab.arrangements.verify_multiterminal_cut` must give the same
  verdict, with each terminal's component by ``component_labels``, or refuse
  alike.
* The fence lift from disk tags: each chosen disk tagged ``("wall", e, ...)``
  counts towards edge ``e``, and an edge whose count reaches the instance's
  ``meta["c_edge"]`` is lifted.  The lift from the reduction record's wall
  ids, :func:`disklab.gadgets.lift_fence_to_edges`, must return the same
  edges.
* The structure check over id lists: each chain and ring declared as a
  list of disk ids, turned into per-disk owner and index dicts, with every
  disk audited for an owner, which the check that reads each tag run as one
  structure, :func:`disklab.gadgets.check_structure`, replaced; both must
  give the same verdict, violations and contact counts.
* The ring closure test over every pair of a vertex ring's disks, which
  the intersection-graph test of :func:`disklab.gadgets._ring_is_cycle`
  replaced; both must decide every ring the synthesizer tries alike.
* The pmc->subdivision target by composition: the geometric dual, then
  every edge of it subdivided, with a face map threaded through each step,
  which the one-pass :func:`disklab.graphs.reduce_pmc_to_subdivision`
  replaced; the target, its pairing and its vertex faces must come out
  equal.
"""

import functools
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import networkx as nx
from networkx.algorithms.flow import edmonds_karp

from disklab import arrangements as ar
from disklab import gridembed as ge
from disklab.base import Dart, Malformed, Refused, Verdict, Vertex
from disklab.gadgets import ContactReport, StructureSpec, check_structure
from disklab.geometry import Point, point_on_segment, ray_crossing
from disklab.graphs import (
    MultiterminalInstance,
    PlanarEmbeddedGraph,
    SubdivisionInstance,
    edge_disjoint_paths,
    multiterminal_solution_ok,
    residual_sink_side,
    subdivision_solution_ok,
)
from disklab.solvers import (
    OptimumCertificate,
    min_terminal_pair_cut,
    multiterminal_cut_lower_bound,
)


class BucketIndex:
    """Exact proximity queries on integer centres.

    Centres are bucketed in square cells one unit wider than a disk
    diameter, so every centre within 2r of a point lies in the point's cell
    or one of the eight around it; an integer distance test decides.
    """

    def __init__(self, sc: ar.IntCenters, r: Fraction):
        two_r = 2 * r * sc.den
        assert two_r.denominator == 1
        self.sc, self.r = sc, r
        self.four_r2 = int(two_r) ** 2
        self.cell = cell = int(two_r) + 1
        self.buckets: Dict[Tuple[int, int], List[int]] = {}
        for i, (x, y) in enumerate(zip(sc.xs, sc.ys)):
            self.buckets.setdefault((x // cell, y // cell), []).append(i)

    def within(self, p: Point, rho: Fraction) -> List[int]:
        """Indices, ascending, of the centres at distance at most ``rho``
        from ``p``; ``rho`` must not exceed 2r."""
        xs, ys, den = self.sc
        q = math.lcm(p[0].denominator, p[1].denominator)
        # p and the centres scaled by den * q, the bound squared likewise
        px = p[0].numerator * (q // p[0].denominator) * den
        py = p[1].numerator * (q // p[1].denominator) * den
        lim = (rho.numerator * den * q) ** 2
        k = rho.denominator ** 2
        step = self.cell * q
        cx, cy = px // step, py // step
        out = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for i in self.buckets.get((cx + dx, cy + dy), ()):
                    ex = xs[i] * q - px
                    ey = ys[i] * q - py
                    if (ex * ex + ey * ey) * k <= lim:
                        out.append(i)
        out.sort()
        return out


class BucketGraph(NamedTuple):
    """An intersection graph with its edge list built eagerly: every pair
    (i, j), i < j, in ascending order, beside the sorted adjacency lists."""

    n: int
    edges: List[Tuple[int, int]]
    adj: List[List[int]]
    index: BucketIndex


def bucket_unit_disk_graph(sc: ar.IntCenters, r: Fraction) -> BucketGraph:
    """Intersection graph of equal closed disks (tangency included), built
    on the bucket grid of :class:`BucketIndex`."""
    n = len(sc.xs)
    index = BucketIndex(sc, r)
    xs, ys, four_r2, grid = sc.xs, sc.ys, index.four_r2, index.buckets
    edges: List[Tuple[int, int]] = []
    adj: List[List[int]] = [[] for _ in range(n)]
    for (cx, cy), bucket in grid.items():
        neighbors: List[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                neighbors.extend(grid.get((cx + dx, cy + dy), ()))
        for i in bucket:
            xi, yi = xs[i], ys[i]
            for j in neighbors:
                if j <= i:
                    continue
                ddx = xi - xs[j]
                ddy = yi - ys[j]
                if ddx * ddx + ddy * ddy <= four_r2:
                    edges.append((i, j))
                    adj[i].append(j)
                    adj[j].append(i)
    edges.sort()
    for a in adj:
        a.sort()
    return BucketGraph(n, edges, adj, index)


def assert_graph_matches_bucket_oracle(sc: ar.IntCenters, r: Fraction) -> ar.UnitDiskGraph:
    """``unit_disk_graph(sc, r)`` has the bucket grid's edges, in order, and
    its sorted adjacency; returns it."""
    udg = ar.unit_disk_graph(sc, r)
    want = bucket_unit_disk_graph(sc, r)
    assert (udg.n, udg.edges, udg.adj) == (want.n, want.edges, want.adj)
    return udg


def dist_sq(p: Point, q: Point) -> Fraction:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def disks_intersect(c1: Point, c2: Point, r: Fraction) -> bool:
    """Closed disks of common radius r intersect (tangency counts)."""
    return dist_sq(c1, c2) <= 4 * r * r


def _sign_a_plus_b_sqrt_q(a: Fraction, b: Fraction, q: Fraction) -> int:
    """Exact sign of a + b*sqrt(q) for rational a, b and q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    if b == 0 or q == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2 q, the larger magnitude wins
    lhs = a * a
    rhs = b * b * q
    if lhs == rhs:
        return 0
    if a > 0:  # b < 0
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def triple_intersection_nonempty(c1: Point, c2: Point, c3: Point, r: Fraction) -> bool:
    """Exact emptiness test for the common intersection of three closed
    disks of equal radius.

    The region, when nonempty, either contains a boundary crossing point of
    two of the circles inside the third disk, or degenerates to a tangency
    point; both cases reduce to sign evaluations of a + b*sqrt(q) with
    rational a, b, q.
    """
    centers = (c1, c2, c3)
    for i in range(3):
        for j in range(i + 1, 3):
            if not disks_intersect(centers[i], centers[j], r):
                return False
    for i in range(3):
        for j in range(3):
            if i != j and centers[i] == centers[j]:
                # coincident disks: triple reduces to the remaining pair
                k = 3 - i - j
                return disks_intersect(centers[i], centers[k], r)

    r2 = r * r
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        a, b, c = centers[i], centers[j], centers[k]
        d2 = dist_sq(a, b)
        q = r2 / d2 - Fraction(1, 4)  # (offset/|ab|)^2, nonnegative since disks meet
        mx = (a[0] + b[0]) / 2
        my = (a[1] + b[1]) / 2
        wx = -(b[1] - a[1])
        wy = b[0] - a[0]
        # lens corner P = M +- sqrt(q) * w ; test |P - c|^2 <= r^2
        ex = mx - c[0]
        ey = my - c[1]
        base = ex * ex + ey * ey + q * d2 - r2
        coef = 2 * (ex * wx + ey * wy)
        for sgn in (1, -1):
            if _sign_a_plus_b_sqrt_q(base, sgn * coef, q) <= 0:
                return True
    return False


def ray_parities(sc: ar.IntCenters, udg: ar.UnitDiskGraph, p: Point) -> List[int]:
    """Crossing parity of every center-graph edge, in ``udg.edges`` order,
    against the half-open horizontal ray from p, on integers."""
    sc, (ip,) = ar._with_points(sc, (p,))
    xs, ys = sc.xs, sc.ys
    return [ray_crossing((xs[i], ys[i]), (xs[j], ys[j]), ip) & 1 for i, j in udg.edges]


def pair_parities(
    sc: ar.IntCenters, udg: ar.UnitDiskGraph, p: Point, q: Point
) -> Dict[Tuple[int, int], int]:
    """Crossing parity of every center-graph edge against the rays from p
    and q together."""
    return dict(zip(udg.edges, map(int.__xor__, ray_parities(sc, udg, p),
                                   ray_parities(sc, udg, q))))


def pair_sweep(
    udg: ar.UnitDiskGraph, parity: Dict[Tuple[int, int], int]
) -> ar.SeparationResult:
    """Whether the edge parities of one pair of points close an odd cycle,
    and the first such cycle (in ``udg.edges`` order) of the DFS forest."""
    pot = [-1] * udg.n
    parent: List[Optional[int]] = [None] * udg.n
    for s in range(udg.n):
        if pot[s] != -1:
            continue
        pot[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in udg.adj[v]:
                if pot[w] == -1:
                    key = (v, w) if v < w else (w, v)
                    pot[w] = pot[v] ^ parity[key]
                    parent[w] = v
                    stack.append(w)
    for (i, j), x in parity.items():
        if pot[i] ^ pot[j] != x:
            return ar.SeparationResult(True, tree_cycle(parent, i, j))
    return ar.SeparationResult(False, None)


def tree_cycle(parent: List[Optional[int]], i: int, j: int) -> List[int]:
    """The tree path from i to j through their meeting point, from i's
    ancestors as a dict: the reference for ``arrangements._tree_cycle``,
    which climbs by depth instead."""
    anc_i = []
    v: Optional[int] = i
    while v is not None:
        anc_i.append(v)
        v = parent[v]
    seen = {v: k for k, v in enumerate(anc_i)}
    path_j = []
    v = j
    while v not in seen:
        path_j.append(v)
        v = parent[v]
    meet = seen[v]
    return anc_i[: meet + 1] + list(reversed(path_j))


def pair_separation(sc, udg, p, q) -> ar.SeparationResult:
    """The per-pair sweep on integer parities."""
    return pair_sweep(udg, pair_parities(sc, udg, p, q))


def assert_all_pairs_match_oracle(sc, udg, points) -> List[ar.SeparationResult]:
    """``separation`` of every pair of ``points`` equals the per-pair sweep;
    returns the results in sorted pair order."""
    got = ar.separation(sc, udg, points)
    ids = sorted(points)
    assert list(got) == [(a, b) for x, a in enumerate(ids) for b in ids[x + 1:]]
    bits = {a: ray_parities(sc, udg, points[a]) for a in ids}
    for (a, b), res in got.items():
        parity = dict(zip(udg.edges, map(int.__xor__, bits[a], bits[b])))
        assert res == pair_sweep(udg, parity), (a, b)
    return list(got.values())


def separation(sc, udg, p, q) -> ar.SeparationResult:
    """``separation`` of the single pair (p, q)."""
    return ar.separation(sc, udg, {"p": p, "q": q})[("p", "q")]


def _unit_digraph(udg: ar.UnitDiskGraph) -> nx.DiGraph:
    g = nx.DiGraph()
    for (i, j) in udg.edges:
        g.add_edge(i, j, capacity=1)
        g.add_edge(j, i, capacity=1)
    return g


def nx_terminal_pair_cut(instance: ar.DiskInstance) -> OptimumCertificate:
    """The two-terminal cut by networkx max-flow."""
    instance.validate()
    terminals = [int(t) for t in instance.meta.get("terminal_disks", [])]
    if len(terminals) != 2:
        raise Malformed("terminal-pair cut needs exactly two terminal disks")
    s_id, t_id = terminals
    udg = ar.unit_disk_graph(instance.centers, instance.radius)
    g = _unit_digraph(udg)
    if s_id not in g or t_id not in g or not nx.has_path(g, s_id, t_id):
        return OptimumCertificate(
            problem="terminal-pair-cut", optimum=0, witness=[], method="max-flow"
        )
    value, (side_s, _) = nx.minimum_cut(g, s_id, t_id)
    cut_edges = sorted(
        (min(i, j), max(i, j))
        for i, j in udg.edges
        if (i in side_s) != (j in side_s)
    )
    assert len(cut_edges) == int(value)
    return OptimumCertificate(
        problem="terminal-pair-cut",
        optimum=int(value),
        witness=[list(e) for e in cut_edges],
        method="max-flow",
    )


def nx_multiterminal_cut_lower_bound(instance: ar.DiskInstance) -> int:
    """Half the sum of the single-terminal isolating cuts, rounded up, each
    a networkx max-flow into one sink joined to the other terminals."""
    instance.validate()
    terminals = [int(t) for t in instance.meta.get("terminal_disks", [])]
    if len(terminals) < 2:
        return 0
    g = _unit_digraph(ar.unit_disk_graph(instance.centers, instance.radius))
    sink = ("sink",)
    total = 0
    for t in terminals:
        g.add_node(sink)
        for o in terminals:
            if o != t:
                g.add_edge(o, sink, capacity=float("inf"))
        if t in g and nx.has_path(g, t, sink):
            total += int(nx.maximum_flow_value(g, t, sink))
        g.remove_node(sink)
    return -(-total // 2)


def nx_isolating_cuts(n: int, edges: Iterable[Tuple[int, int]],
                      terminals: List[int]) -> List[Tuple[int, set]]:
    """For each terminal, against the others, the value of a minimum edge
    cut in the graph on nodes 0 .. n - 1 and the nodes that reach the
    others in networkx's final residual graph, the others included."""
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    d = g.to_directed()
    nx.set_edge_attributes(d, 1, "capacity")
    sink = ("sink",)
    out = []
    for t in terminals:
        d.add_edges_from((o, sink) for o in terminals if o != t)  # unbounded
        # augmenting paths: the cuts are a few edges of a dense graph
        value, (_, reaches_sink) = nx.minimum_cut(d, t, sink, flow_func=edmonds_karp)
        d.remove_node(sink)
        out.append((int(value), reaches_sink - {sink}))
    return out


def pair_cut_by_edge_filter(instance: ar.DiskInstance) -> List[List[int]]:
    """The terminal-pair cut's witness read by a filter over the eager list
    of every intersection edge: the pairs with one end on the flow's sink
    side, in edge-list order."""
    s_id, t_id = instance.meta["terminal_disks"]
    graph = bucket_unit_disk_graph(instance.centers, instance.radius)
    _, flow = edge_disjoint_paths(graph.adj, [s_id], [t_id])
    sink_side = residual_sink_side(graph.adj, flow, [t_id])
    return [[i, j] for i, j in graph.edges if (i in sink_side) != (j in sink_side)]


def assert_cuts_match_networkx(inst: ar.DiskInstance) -> None:
    """Both cut solvers equal their networkx oracles: the lower bound on
    every terminal, the pair cut on the first two."""
    assert multiterminal_cut_lower_bound(inst) == nx_multiterminal_cut_lower_bound(inst)
    pair = ar.DiskInstance(inst.radius, inst.centers, inst.tags,
                           meta={"terminal_disks": inst.meta["terminal_disks"][:2]})
    assert min_terminal_pair_cut(pair) == nx_terminal_pair_cut(pair)


def drawn_rotation(g: PlanarEmbeddedGraph, coords: ge.Coords, v: Vertex) -> List[Dart]:
    """Clockwise dart order around ``v`` as drawn, by sorting.

    Raises :class:`DrawingError` when a dart has zero length or two darts at
    ``v`` point the same way (the cyclic order would be ambiguous).
    """
    vecs: List[Tuple[Tuple[int, int], Dart]] = []
    vx, vy = coords[v]
    for d in g.rot[v]:
        wx, wy = coords[g.dart_head(d)]
        vec = (wx - vx, wy - vy)
        if vec == (0, 0):
            raise ge.DrawingError(f"edge {d[0]} has zero length at {v!r}")
        vecs.append((vec, d))
    vecs.sort(key=functools.cmp_to_key(lambda a, b: ge._cw_angle_cmp(a[0], b[0])))
    for (u, du), (w, dw) in zip(vecs, vecs[1:]):
        if ge._cw_angle_cmp(u, w) == 0:
            raise ge.DrawingError(f"darts {du} and {dw} leave {v!r} in the same direction")
    return [d for _, d in vecs]


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


def rotation_equivalent(g: PlanarEmbeddedGraph, coords: ge.Coords) -> bool:
    """Whether every vertex's darts, sorted as drawn, are its rotation."""
    return all(cyclic_equal(list(g.rot[v]), drawn_rotation(g, coords, v)) for v in g.vertices)


def reference_search_minimal_drawing(
    g: PlanarEmbeddedGraph,
    max_size: int = 4,
    node_budget: int = 300_000,
) -> Tuple[Optional[ge.Coords], int]:
    """The minimal-grid search with ``feasible`` checking each candidate
    cell against every placed edge and vertex, and a complete placement
    accepted when its sorted drawn rotation is the prescribed one
    (:func:`rotation_equivalent`).  Returns the drawing (or
    None) and the number of candidate cells the level that found it tried
    (0 for None): that level succeeds under any ``node_budget`` above the
    count and runs out under any budget at or below it."""
    if not g.is_simple() or not g.is_connected():
        return None, 0
    verts = sorted(g.vertices, key=lambda v: -g.degree(v))
    n = len(verts)
    budget = [node_budget]

    adj_prev: List[List[Tuple[int, object]]] = []
    for i, v in enumerate(verts):
        prev = []
        before = set(verts[:i])
        for d in g.rot[v]:
            w = g.dart_head(d)
            if w in before:
                prev.append((d[0], w))
        adj_prev.append(prev)

    def feasible(placed, v, xy, i: int) -> bool:
        if xy in placed.values():
            return False
        a = xy
        new_segs = []
        for eid, w in adj_prev[i]:
            b = placed[w]
            if a == b:
                return False
            new_segs.append((eid, a, b))
        for x in range(len(new_segs)):
            for y in range(x + 1, len(new_segs)):
                _, _, b1 = new_segs[x]
                _, _, b2 = new_segs[y]
                if point_on_segment(b1, a, b2) or point_on_segment(b2, a, b1):
                    return False
        pts = dict(placed)
        for eid, sa, sb in new_segs:
            u1, v1 = g.edges[eid]
            for eid2, (u2, v2) in enumerate(g.edges):
                if eid2 == eid or u2 not in placed or v2 not in placed:
                    continue
                if ge._segments_conflict(sa, sb, pts[u2], pts[v2]):
                    return False
            for w2, p2 in pts.items():
                if w2 not in (u1, v1) and point_on_segment(p2, sa, sb):
                    return False
        for eid2, (u2, v2) in enumerate(g.edges):
            if u2 in placed and v2 in placed and v not in (u2, v2):
                if point_on_segment(a, pts[u2], pts[v2]):
                    return False
        return True

    def rec(i: int, placed, k: int):
        if budget[0] <= 0:
            return None
        if i == n:
            cand = dict(placed)
            if rotation_equivalent(g, cand):
                return ge._normalize(cand)
            return None
        v = verts[i]
        for x in range(k + 1):
            for y in range(k + 1):
                budget[0] -= 1
                if budget[0] <= 0:
                    return None
                if feasible(placed, v, (x, y), i):
                    placed[v] = (x, y)
                    got = rec(i + 1, placed, k)
                    if got is not None:
                        return got
                    del placed[v]
        return None

    for k in range(1, max_size + 1):
        if (k + 1) ** 2 < n:
            continue
        budget[0] = node_budget
        got = rec(0, {}, k)
        if got is not None:
            return got, node_budget - budget[0]
    return None, 0


def reference_min_multiterminal(inst: MultiterminalInstance) -> OptimumCertificate:
    """The multiterminal cut by plain subset enumeration: every edge subset
    of each size, stopping after the first size that reaches the best
    weight."""
    inst.validate()
    m = len(inst.graph.edges)
    best: Optional[Tuple[int, List[int]]] = None
    for size in range(m + 1):
        for combo in combinations(range(m), size):
            if multiterminal_solution_ok(inst, combo):
                w = sum(inst.weights.get(e, 1) for e in combo)
                if best is None or w < best[0]:
                    best = (w, list(combo))
        if best is not None and best[0] <= size:
            # any larger subset weighs at least its own cardinality
            break
    if best is None:
        raise Malformed("no edge subset separates the terminals")
    return OptimumCertificate(
        problem="multiterminal-cut", optimum=best[0], witness=best[1]
    )


def reference_min_subdivision(inst: SubdivisionInstance) -> OptimumCertificate:
    """Face separation by plain enumeration of kept groups."""
    inst.validate()
    groups = inst.groups or [[e] for e in range(len(inst.graph.edges))]
    g = len(groups)
    for size in range(g + 1):
        for combo in combinations(range(g), size):
            kept = [e for gi in combo for e in groups[gi]]
            if subdivision_solution_ok(inst, kept):
                return OptimumCertificate(
                    problem="face-separation",
                    optimum=2 * size,
                    witness=list(combo),
                    detail={"kept_edges": sorted(kept)},
                )
    raise Malformed("no group subset separates the marked faces")


def reference_min_fvs(vertices, edges) -> OptimumCertificate:
    """The cycle-hitting set by plain enumeration of removed vertices."""
    vs = list(vertices)
    for size in range(len(vs) + 1):
        for combo in combinations(vs, size):
            removed = set(combo)
            kept = [v for v in vs if v not in removed]
            kept_edges = [(u, w) for u, w in edges if u not in removed and w not in removed]
            comp = union_find_components(kept, kept_edges)
            if len(kept_edges) - len(comp) + len(set(comp.values())) == 0:
                return OptimumCertificate(
                    problem="cycle-hitting-set", optimum=size, witness=list(combo)
                )
    raise AssertionError("removing all vertices always leaves an acyclic graph")


def refuse_covered_points(instance: ar.DiskInstance) -> None:
    """Raise :class:`Malformed` as the fence checks do when a disk covers a
    marked point: each point, in ``points`` order, against each disk by
    ``Fraction`` distance, naming the smallest id of a disk covering it."""
    r2 = instance.radius ** 2
    for pid, p in instance.points.items():
        for i, d in enumerate(instance.disks):
            if dist_sq(p, d.center) <= r2:
                raise Malformed(f"marked point {pid!r} is covered by disk {i}")


def subset_centers(sc: ar.IntCenters, ids: Sequence[int]) -> ar.IntCenters:
    """The centres ``sc`` of the disks ``ids``, in that order, renumbered from 0."""
    xs, ys = sc.xs, sc.ys
    return ar.IntCenters(tuple([xs[i] for i in ids]), tuple([ys[i] for i in ids]), sc.den)


def subset_separation(
    instance: ar.DiskInstance, chosen: Sequence[int]
) -> Dict[Tuple[str, str], bool]:
    """Whether the union of the ``chosen`` disks (distinct ids) separates
    each pair of sorted marked points, on the kernel of their own graph."""
    sc, ids = subset_centers(instance.centers, chosen), sorted(instance.points)
    udg = ar.unit_disk_graph(sc, instance.radius)
    masks = ar.edge_crossing_parities(sc, udg, [instance.points[a] for a in ids])
    return ar.kernel_separation(ar.contract(udg, masks), ids)


def subset_verify_isolation(
    instance: ar.DiskInstance, chosen_ids: Iterable[int], budget: Optional[int] = None
) -> Verdict:
    """The isolation verdict on the graph of the chosen disks alone, after
    the covered-point check of :func:`refuse_covered_points`."""
    if len(instance.points) < 2:
        raise Malformed("isolation needs at least two marked points")
    chosen = ar.check_ids(chosen_ids, len(instance.centers.xs), "certificate")
    refuse_covered_points(instance)
    flags = subset_separation(instance, chosen)
    lines = [f"chosen disks: {len(chosen)}"] + [
        f"{'ok  ' if sep else 'FAIL'} {a} | {b} separated: {sep}" for (a, b), sep in flags.items()]
    over = budget is not None and len(chosen) > budget
    if over:
        lines.append(f"budget: certificate uses {len(chosen)} disks, cap {budget}")
    return Verdict(all(flags.values()) and not over, lines)


def subset_verify_acc(
    instance: ar.DiskInstance, removed_ids: Iterable[int], budget: Optional[int] = None
) -> Verdict:
    """The acc verdict on the graph of the kept disks alone."""
    removed = ar.check_ids(removed_ids, len(instance.centers.xs), "certificate")
    removed_set = set(removed)
    kept = [i for i in range(len(instance.centers.xs)) if i not in removed_set]
    holes = ar.complement_regions(ar.unit_disk_graph(subset_centers(instance.centers, kept),
                                                     instance.radius)).bounded_complement_regions
    over = budget is not None and len(removed) > budget
    ok = holes == 0 and not over
    lines = [f"removed disks: {len(removed)}",
             f"{'ok  ' if ok else 'FAIL'} remaining union has {holes} bounded complement region(s)"]
    if over:
        lines.append(f"budget: certificate removes {len(removed)} disks, cap {budget}")
    return Verdict(ok, lines)


def reference_min_isolation(
    instance: ar.DiskInstance, max_subset: int = 12, max_disks: int = 40
) -> OptimumCertificate:
    """The minimum fence by plain subset enumeration, each subset checked
    on its own graph (:func:`subset_separation`) once the marked points are
    checked (:func:`refuse_covered_points`).  Its own caps bound it: over
    ``max_disks`` disks, or with no fence of at most ``max_subset`` disks,
    it raises :class:`~disklab.base.Refused`.  The solver it checks,
    :func:`disklab.solvers.brute_min_isolation`, has no cap: a search meter
    bounds it."""
    instance.validate()
    n = len(instance.tags)
    if n > max_disks:
        raise Refused(f"{n} disks exceeds the enumeration cap {max_disks}")
    if len(instance.points) < 2:
        raise Malformed("isolation needs at least two marked points")
    refuse_covered_points(instance)
    for size in range(min(max_subset, n) + 1):
        for combo in combinations(range(n), size):
            if all(subset_separation(instance, combo).values()):
                return OptimumCertificate(
                    problem="point-isolation", optimum=size, witness=list(combo)
                )
    raise Refused(f"no fence of size <= {max_subset} found within the subset cap")


def bfs_min_isolation_two_points(instance: ar.DiskInstance) -> OptimumCertificate:
    """The shortest odd cycle by one double-cover BFS over every disk,
    rooted at the smaller endpoint of each odd edge and pruned by the best
    cycle so far; ``detail`` holds the cycle, the number of odd edges and
    the number of roots searched."""
    instance.validate()
    if len(instance.points) != 2:
        raise Malformed("this solver handles exactly two marked points")
    p, q = [instance.points[k] for k in sorted(instance.points)]
    sc = instance.centers
    udg = ar.unit_disk_graph(sc, instance.radius)
    for pid, pt in instance.points.items():
        hit = udg.index.within(pt, instance.radius)
        if hit:
            raise Malformed(f"marked point {pid!r} is covered by disk {hit[0]}")
    parity = {e: (m ^ (m >> 1)) & 1
              for e, m in zip(udg.edges, ar.edge_crossing_parities(sc, udg, (p, q)))}
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(udg.n)]
    for (i, j), x in parity.items():
        adj[i].append((j, x))
        adj[j].append((i, x))
    odd_edges = [e for e, x in parity.items() if x]
    best_len: Optional[int] = None
    best_cycle: Optional[List[int]] = None
    searched = 0
    for s in sorted({i for (i, _) in odd_edges}):
        # BFS over (vertex, parity) states from (s, 0) to (s, 1)
        if best_len is not None and best_len <= 3:
            break
        searched += 1
        dist: Dict[Tuple[int, int], int] = {(s, 0): 0}
        prev: Dict[Tuple[int, int], Tuple[int, int]] = {}
        dq = deque([(s, 0)])
        goal = (s, 1)
        while dq:
            v, par = dq.popleft()
            d = dist[(v, par)]
            if best_len is not None and d + 1 >= best_len:
                continue
            for (w, x) in adj[v]:
                state = (w, par ^ x)
                if state not in dist:
                    dist[state] = d + 1
                    prev[state] = (v, par)
                    if state == goal:
                        dq.clear()
                        break
                    dq.append(state)
        if goal in dist and (best_len is None or dist[goal] < best_len):
            walk = [goal]
            while walk[-1] != (s, 0):
                walk.append(prev[walk[-1]])
            cyc = _extract_odd_disk_cycle([v for (v, _) in reversed(walk)], parity)
            if cyc is not None:
                best_len = len(cyc)
                best_cycle = cyc
    if best_cycle is None:
        raise Malformed("no subset of the disks separates the two points")
    return OptimumCertificate(
        problem="two-point-isolation",
        optimum=best_len,
        witness=sorted(best_cycle),
        method="parity double cover",
        detail={"cycle": best_cycle, "odd_edges": len(odd_edges), "bfs_roots": searched},
    )


def _extract_odd_disk_cycle(
    walk: List[int], parity: Dict[Tuple[int, int], int]
) -> Optional[List[int]]:
    """A simple odd-parity cycle inside a closed odd walk of disks."""

    def total(w: List[int]) -> int:
        x = 0
        for a, b in zip(w, w[1:]):
            x ^= parity[(a, b) if a < b else (b, a)]
        return x

    w = list(walk)
    while True:
        seen: Dict[int, int] = {}
        repeat = None
        for idx, v in enumerate(w[:-1]):
            if v in seen:
                repeat = (seen[v], idx)
                break
            seen[v] = idx
        if repeat is None:
            return w[:-1] if total(w) == 1 else None
        i, j = repeat
        inner = w[i: j + 1]  # closed: w[i] == w[j]
        if total(inner) == 1:
            w = inner
        else:
            w = w[:i] + w[j:]


def assert_contraction_exact(
    udg: ar.UnitDiskGraph, masks: List[int], kernel: ar.Kernel
) -> Tuple[int, int]:
    """Check :func:`disklab.arrangements.contract` against its definition:
    the junctions are the disks of degree other than two, the degree-2
    disks whose neighbours touch and the smallest disk of each cycle without
    either; every other disk is inner to exactly one chain; the chains'
    edges are the graph's edges, each once; each signature is the XOR of
    its edges' masks.  Returns the numbers of loops at a junction of the
    first two kinds and of junction-free cycles."""
    edges = set(udg.edges)
    mask_of = dict(zip(udg.edges, masks))
    plain = {i for i, a in enumerate(udg.adj) if len(a) != 2 or (a[0], a[1]) in edges}
    assert kernel.junctions == sorted(set(kernel.junctions))
    covered = list(kernel.junctions)
    walked: List[Tuple[int, int]] = []
    loops = rings = 0
    for c in kernel.chains:
        path = [c.a, *c.inner, c.b]
        sig = 0
        for u, w in zip(path, path[1:]):
            walked.append((min(u, w), max(u, w)))
            sig ^= mask_of[walked[-1]]
        assert sig == c.sig
        assert not plain & set(c.inner)
        covered += c.inner
        if c.a == c.b:
            loops += c.a in plain
            rings += c.a not in plain
    assert sorted(covered) == list(range(udg.n))
    assert sorted(walked) == udg.edges
    assert sum(len(c.inner) + 1 for c in kernel.chains) == len(udg.edges)
    # a junction of the third kind closes one loop through disks above it
    for j in set(kernel.junctions) - plain:
        (c,) = [c for c in kernel.chains if j in (c.a, c.b)]
        assert c.a == c.b == j < min(c.inner)
    return loops, rings


def union_find_components(
    nodes: Iterable[Hashable], edges: Iterable[Tuple[Hashable, Hashable]]
) -> Dict[Hashable, Hashable]:
    """Each node mapped to the first node of its component in ``nodes``
    order, by a dict union-find with path halving; every edge end must be
    one of ``nodes``."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, w in edges:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
    label = {}
    return {v: label.setdefault(find(v), v) for v in parent}


def reference_verify_multiterminal_cut(
    instance: ar.DiskInstance, removed_edges, budget: Optional[int] = None
) -> Tuple[bool, Dict[int, int], List[str]]:
    """Whether the cut is accepted, each terminal's component label and the
    lines of the verdict."""
    instance.validate()
    terminals = instance.meta.get("terminal_disks", [])
    if len(terminals) < 2:
        raise Malformed("cut instances need at least two terminal disks")
    removed = ar.normalize_edge_list(removed_edges)
    udg = ar.unit_disk_graph(instance.centers, instance.radius)
    edge_set = set(udg.edges)
    for e in removed:
        if e not in edge_set:
            raise Malformed(
                f"certificate removes {e}, which is not an intersection edge")
    reasons = []
    if budget is not None and len(removed) > budget:
        reasons.append(f"budget: certificate removes {len(removed)} edges, cap {budget}")
    removed_set = set(removed)
    comp = union_find_components(
        range(udg.n), (e for e in udg.edges if e not in removed_set))
    terminal_components = {t: comp[t] for t in terminals}
    separated = len(set(terminal_components.values())) == len(terminals)
    if not separated:
        reasons.append("two terminal disks stay connected")
    ok = separated and not reasons
    groups = len(set(terminal_components.values()))
    return ok, terminal_components, [
        f"removed intersection edges: {len(removed)}",
        f"{'ok  ' if ok else 'FAIL'} {len(terminal_components)} terminals in {groups} component(s)",
        *reasons,
    ]


def reference_check_structure(
    instance: ar.DiskInstance,
    chains: Dict[tuple, List[int]],
    rings: Dict[tuple, List[int]],
    allowed_contacts: Dict[Tuple[tuple, tuple], Tuple[int, int]],
    udg: Optional[ar.UnitDiskGraph] = None,
) -> ContactReport:
    """Exact check of intra-structure shape and cross-structure contacts,
    with each structure declared as its list of disk ids; the intersection
    graph ``udg`` is built unless given."""
    if udg is None:
        udg = ar.unit_disk_graph(instance.centers, instance.radius)
    owner: Dict[int, tuple] = {}
    index_in: Dict[int, int] = {}
    for tag, ids in {**chains, **rings}.items():
        for pos, i in enumerate(ids):
            if i in owner:
                return ContactReport(False, [f"disk {i} owned by two structures"], {}, udg)
            owner[i] = tag
            index_in[i] = pos
    violations: List[str] = []
    for i in range(udg.n):
        if i not in owner:
            violations.append(f"disk {i} belongs to no declared structure")
    cross: Dict[Tuple[tuple, tuple], int] = {}
    linked: Dict[tuple, int] = {}    # structure -> its contacts at index gap 1
    for (i, j) in udg.edges:
        ti, tj = owner.get(i), owner.get(j)
        if ti is None or tj is None:
            continue
        if ti == tj:
            gap = abs(index_in[i] - index_in[j])
            size = len(chains.get(ti) or rings[ti])
            is_ring = ti in rings
            if is_ring:
                gap = min(gap, size - gap)
            if gap == 1:
                linked[ti] = linked.get(ti, 0) + 1
            else:
                violations.append(
                    f"structure {ti}: disks {i} and {j} touch at index gap {gap}"
                )
        else:
            key = (ti, tj) if (ti, tj) in allowed_contacts else (tj, ti)
            if key not in allowed_contacts:
                violations.append(f"forbidden contact between {ti} and {tj}")
            else:
                cross[key] = cross.get(key, 0) + 1
    for tag, ids in chains.items():
        need, have = len(ids) - 1, linked.get(tag, 0)
        if have != need:
            violations.append(f"chain {tag}: only {have}/{need} consecutive contacts")
    for tag, ids in rings.items():
        # a two-disk ring closes with its one contact
        if len(ids) >= 2 and linked.get(tag, 0) != (len(ids) if len(ids) > 2 else 1):
            violations.append(f"ring {tag}: broken cycle")
    for key, (lo, hi) in allowed_contacts.items():
        got = cross.get(key, 0)
        if not (lo <= got <= hi):
            violations.append(
                f"contact {key[0]} ~ {key[1]}: {got} intersecting pairs, wanted [{lo}, {hi}]"
            )
    return ContactReport(ok=not violations, violations=violations, contact_counts=cross,
                         graph=udg)


def structures_by_name(instance: ar.DiskInstance) -> Dict[tuple, List[int]]:
    """Disk ids grouped by structure name, read tag by tag: a tag less its
    last component when that is an int, else the whole tag."""
    groups: Dict[tuple, List[int]] = {}
    for i, tag in enumerate(tuple(instance.tags)):
        name = tag[:-1] if tag and type(tag[-1]) is int else tag
        groups.setdefault(name, []).append(i)
    return groups


def assert_structure_check_matches_oracle(
    instance: ar.DiskInstance, spec: StructureSpec
) -> ContactReport:
    """``check_structure`` against the id-list check on the structures read
    from the tags; returns the report."""
    got = check_structure(instance, spec)
    groups = structures_by_name(instance)
    ref = reference_check_structure(
        instance, {t: ids for t, ids in groups.items() if t not in spec.rings},
        {t: ids for t, ids in groups.items() if t in spec.rings}, spec.allowed_contacts,
        got.graph)
    assert (got.ok, got.contact_counts, got.violations) == (
        ref.ok, ref.contact_counts, ref.violations)
    return got


def lift_fence_by_tags(instance: ar.DiskInstance, chosen_ids: Iterable[int]) -> List[int]:
    """Edges whose wall appears in full among the chosen disks, read from
    the disk tags, a run at a time, and ``meta["c_edge"]``."""
    c_edge = int(instance.meta["c_edge"])
    chosen = sorted(set(chosen_ids))
    per_edge: Dict[int, int] = {}
    for start, stop, tag, _ in instance.tags.spans():
        if tag and tag[0] == "wall":
            per_edge[tag[1]] = (per_edge.get(tag[1], 0)
                                + bisect_left(chosen, stop) - bisect_left(chosen, start))
    return sorted(e for e, cnt in per_edge.items() if cnt == c_edge)


# ---------------------------------------------------------------------------
# geometric dual
# ---------------------------------------------------------------------------

@dataclass
class DualResult:
    dual: PlanarEmbeddedGraph          # vertex i of the dual is face i of the primal
    vertex_face: Dict[Vertex, int]     # primal vertex -> face id of the dual


def geometric_dual(g: PlanarEmbeddedGraph) -> DualResult:
    """Geometric dual of a connected embedded graph.

    Dual edge ids coincide with primal edge ids.  Dart labels carry over:
    dual dart ``(e, end)`` leaves the dual vertex (= primal face) containing
    primal dart ``(e, end)``, and its rotation around each dual vertex is the
    facial-walk order of that face.  Faces of the dual then correspond to
    primal vertices, which is exposed via ``vertex_face``.
    """
    if not g.is_connected():
        raise Malformed("dual requires a connected graph")
    walks = g.facial_walks()
    face_of = {d: i for i, w in enumerate(walks) for d in w}
    dual_vertices = list(range(len(walks)))
    dual_edges = [
        (face_of[(e, 0)], face_of[(e, 1)]) for e in range(len(g.edges))
    ]
    rotation: Dict[Vertex, List[Dart]] = {i: list(w) for i, w in enumerate(walks)}
    dual = PlanarEmbeddedGraph(dual_vertices, dual_edges, rotation)
    vertex_face: Dict[Vertex, int] = {}
    for v in g.vertices:
        if g.rot[v]:
            vertex_face[v] = dual.face_of_dart(g.rot[v][0])
        elif len(g.vertices) == 1:
            vertex_face[v] = 0
        else:
            raise Malformed(f"isolated vertex {v!r} in a connected dual computation")
    return DualResult(dual=dual, vertex_face=vertex_face)


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------

@dataclass
class SubdivisionMap:
    graph: PlanarEmbeddedGraph
    fragments: Dict[int, List[int]]    # original edge id -> new edge ids in order
    face_map: Dict[int, int]           # original face id -> new face id


def subdivide_all_edges(g: PlanarEmbeddedGraph) -> SubdivisionMap:
    """Subdivide every edge once, with new vertex ``x<edge id>``; self-loops
    are subdivided twice (``x<edge id>a``, ``x<edge id>b``) so the result is
    simple.  Fragment groups and the face correspondence are returned so
    solutions can be mapped back.
    """
    new_vertices = list(g.vertices)
    new_edges: List[Tuple[Vertex, Vertex]] = []
    fragments: Dict[int, List[int]] = {}
    # replacement darts for the two original ends
    end_replacement: Dict[Dart, Dart] = {}
    mid_rotation: Dict[Vertex, List[Dart]] = {}

    for eid, (u, v) in enumerate(g.edges):
        if u != v:
            m = f"x{eid}"
            f1 = len(new_edges); new_edges.append((u, m))
            f2 = len(new_edges); new_edges.append((m, v))
            fragments[eid] = [f1, f2]
            end_replacement[(eid, 0)] = (f1, 0)
            end_replacement[(eid, 1)] = (f2, 1)
            mid_rotation[m] = [(f1, 1), (f2, 0)]
            new_vertices.append(m)
        else:
            m1 = f"x{eid}a"
            m2 = f"x{eid}b"
            f1 = len(new_edges); new_edges.append((u, m1))
            f2 = len(new_edges); new_edges.append((m1, m2))
            f3 = len(new_edges); new_edges.append((m2, v))
            fragments[eid] = [f1, f2, f3]
            end_replacement[(eid, 0)] = (f1, 0)
            end_replacement[(eid, 1)] = (f3, 1)
            mid_rotation[m1] = [(f1, 1), (f2, 0)]
            mid_rotation[m2] = [(f2, 1), (f3, 0)]
            new_vertices.extend([m1, m2])

    rotation: Dict[Vertex, List[Dart]] = {
        v: [end_replacement[d] for d in g.rot[v]] for v in g.vertices
    }
    rotation.update(mid_rotation)
    g2 = PlanarEmbeddedGraph(new_vertices, new_edges, rotation)

    face_map: Dict[int, int] = {}
    for i, walk in enumerate(g.facial_walks()):
        if walk:
            face_map[i] = g2.face_of_dart(end_replacement[walk[0]])
    if len(g2.facial_walks()) != len(g.facial_walks()):
        raise Malformed("subdivision changed the face count")
    return SubdivisionMap(graph=g2, fragments=fragments, face_map=face_map)


def reference_pmc_target(
    g: PlanarEmbeddedGraph,
) -> Tuple[PlanarEmbeddedGraph, Dict[int, List[int]], Dict[Vertex, int]]:
    """The subdivided geometric dual of ``g``, each edge's fragments and each
    vertex's face in it, by composing the two transforms above."""
    dres = geometric_dual(g)
    sub = subdivide_all_edges(dres.dual)
    return sub.graph, sub.fragments, {v: sub.face_map[dres.vertex_face[v]] for v in g.vertices}


def pair_ring_is_cycle(ring: List[Tuple[int, int]], two_r: int) -> bool:
    """Consecutive disks of the ring touch and no other pair does, by every
    pair; centres and the diameter ``two_r`` are integers in one unit."""
    n = len(ring)
    if n < 3:
        return False
    four_r2 = two_r * two_r
    for i in range(n):
        xi, yi = ring[i]
        for j in range(i + 1, n):
            dx = xi - ring[j][0]
            dy = yi - ring[j][1]
            if (dx * dx + dy * dy <= four_r2) != (j - i == 1 or j - i == n - 1):
                return False
    return True
