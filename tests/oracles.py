"""Reference implementations the exact kernel replaced, kept as oracles.

* The ``Fraction`` disk predicates: ``dist_sq``, ``disks_intersect`` and
  ``triple_intersection_nonempty`` with its sign test
  ``_sign_a_plus_b_sqrt_q``, on rational centres and radius.
* The per-pair separation sweep: the crossing parities of one pair of
  points, then one spanning forest with 0/1 potentials.  The
  all-pairs :func:`disklab.arrangements.separation` must return the same
  verdict and witness for every pair.
* The networkx max-flow cut solvers: the two-terminal cut and the
  isolating-cut lower bound on an ``nx.DiGraph`` with unit capacities,
  which :func:`disklab.graphs.edge_disjoint_paths` replaced.
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
"""

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

import networkx as nx

from disklab import arrangements as ar
from disklab import gridembed as ge
from disklab.geometry import Point, point_on_segment, ray_crossing
from disklab.graphs import (
    MultiterminalInstance,
    PlanarEmbeddedGraph,
    SubdivisionInstance,
    components,
    multiterminal_solution_ok,
    subdivision_solution_ok,
)
from disklab.solvers import (
    OptimumCertificate,
    SolverCapExceeded,
    min_terminal_pair_cut,
    multiterminal_cut_lower_bound,
)


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
            return ar.SeparationResult(True, ar._tree_cycle(parent, i, j))
    return ar.SeparationResult(False, None)


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
        raise ar.VerificationError("terminal-pair cut needs exactly two terminal disks")
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


def assert_cuts_match_networkx(inst: ar.DiskInstance) -> None:
    """Both cut solvers equal their networkx oracles: the lower bound on
    every terminal, the pair cut on the first two."""
    assert multiterminal_cut_lower_bound(inst) == nx_multiterminal_cut_lower_bound(inst)
    pair = ar.DiskInstance(inst.radius, inst.centers, inst.tags,
                           meta={"terminal_disks": inst.meta["terminal_disks"][:2]})
    assert min_terminal_pair_cut(pair) == nx_terminal_pair_cut(pair)


def reference_search_minimal_drawing(
    g: PlanarEmbeddedGraph,
    max_size: int = 4,
    node_budget: int = 300_000,
) -> Tuple[Optional[ge.Coords], int]:
    """The minimal-grid search with ``feasible`` checking each candidate
    cell against every placed edge and vertex.  Returns the drawing (or
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
            if ge.drawing_valid(g, cand):
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
        raise ar.VerificationError("no edge subset separates the terminals")
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
    raise ar.VerificationError("no group subset separates the marked faces")


def reference_min_fvs(vertices, edges) -> OptimumCertificate:
    """The cycle-hitting set by plain enumeration of removed vertices."""
    vs = list(vertices)
    for size in range(len(vs) + 1):
        for combo in combinations(vs, size):
            removed = set(combo)
            kept = [v for v in vs if v not in removed]
            kept_edges = [(u, w) for u, w in edges if u not in removed and w not in removed]
            comp = components(kept, kept_edges)
            if len(kept_edges) - len(comp) + len(set(comp.values())) == 0:
                return OptimumCertificate(
                    problem="cycle-hitting-set", optimum=size, witness=list(combo)
                )
    raise AssertionError("removing all vertices always leaves an acyclic graph")


def reference_min_isolation(
    instance: ar.DiskInstance, max_subset: int = 12, max_disks: int = 40
) -> OptimumCertificate:
    """The minimum fence by plain subset enumeration, each subset checked
    by ``verify_isolation``, with the caps of
    :func:`disklab.solvers.brute_min_isolation`."""
    instance.validate()
    n = len(instance.tags)
    if n > max_disks:
        raise SolverCapExceeded(
            f"{n} disks exceeds the enumeration cap {max_disks}; "
            "use the two-point solver or shrink the instance"
        )
    for size in range(min(max_subset, n) + 1):
        for combo in combinations(range(n), size):
            if ar.verify_isolation(instance, list(combo)).ok:
                return OptimumCertificate(
                    problem="point-isolation", optimum=size, witness=list(combo)
                )
    raise SolverCapExceeded(
        f"no fence of size <= {max_subset} found within the subset cap"
    )
